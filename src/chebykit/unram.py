"""Criteria and generators for unramified extensions of quadratic fields.

For a cubic x^3 + bx + c over Q with discriminant delta = -4b^3 - 27c^2,
the splitting field L contains K = Q(sqrt(delta)); L/K is unramified at
the places over a rational prime p exactly when the cubic is not totally
ramified at p.  Two independent routes decide this:

  * the closed-form route evaluates three valuation conditions (on
    c^2/b^3, delta/27b^3 and (delta + 2b^3)^2 / 27b^6), which encode the
    convergence of Chebyshev cube-radical series for a local root;
  * the oracle route searches for an actual p-adic root and, failing
    that, classifies the local factorization type by Newton polygons.

Both are evaluated at every prime dividing the (reduced) discriminant;
agreement between them is an acceptance-level invariant.  Quartic D4
families and the degree-four cyclic family are handled the same way at
the level the closed forms allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactcore import IntPolynomial, clear_denominators, horner
from .factorcyc import rational_roots
from .numtheory import divisors, factorize, is_square, valuation
from .padic import PAdicPoly, padic_root_search, roots_mod_p
from .solver import d4_resolvent


class DegenerateCubicError(ValueError):
    """b = 0, reducible cubic, or square discriminant (cyclic case)."""


@dataclass(frozen=True)
class CubicForm:
    """x^3 + b x + c with rational b != 0, plus its discriminant data."""

    b: Fraction
    c: Fraction
    delta: Fraction

    @staticmethod
    def make(b, c) -> "CubicForm":
        b, c = Fraction(b), Fraction(c)
        if b == 0:
            raise DegenerateCubicError("b must be nonzero")
        return CubicForm(b, c, -4 * b**3 - 27 * c**2)

    def poly(self) -> "list[Fraction]":
        return [self.c, self.b, Fraction(0), Fraction(1)]

    def is_irreducible(self) -> bool:
        return not self.rational_roots()

    def rational_roots(self) -> list:
        return rational_roots(IntPolynomial(clear_denominators(self.poly())))

    @cached_property
    def analysis(self):
        """(reduced form, primes to examine, quadratic field, complete), once per form.

        The criterion and the oracle both start from this.  Raises
        DegenerateCubicError for a reducible cubic or a square discriminant.
        """
        _gate(self)
        return _criterion_primes(self)


@dataclass(frozen=True)
class QuadFieldInfo:
    """Q(sqrt(radicand)): squarefree kernel, field discriminant, ramified primes."""

    radicand: Fraction
    kernel: int
    discriminant: int
    ramified: tuple
    complete: bool  # False when the kernel factorization was incomplete

    @staticmethod
    def make(radicand) -> "QuadFieldInfo":
        radicand = Fraction(radicand)
        if radicand == 0:
            raise ValueError("zero radicand")
        return QuadFieldInfo.from_factors(
            radicand, *factorize(abs(radicand.numerator * radicand.denominator))
        )

    @staticmethod
    def from_factors(radicand: Fraction, factors: dict, leftover: int) -> "QuadFieldInfo":
        """The field of a nonzero radicand, given factorize(|numerator * denominator|)."""
        kernel = -1 if radicand < 0 else 1
        for p, e in factors.items():
            if e % 2:
                kernel *= p
        complete = leftover == 1
        if not complete:
            kernel *= leftover  # best effort; flagged
        disc = kernel if kernel % 4 == 1 else 4 * kernel
        ramified = sorted(p for p, e in factors.items() if e % 2 and p != 2)
        if kernel % 4 != 1:
            ramified = sorted(set(ramified) | {2})
        elif 2 in factors and factors[2] % 2:
            ramified = sorted(set(ramified) | {2})
        return QuadFieldInfo(radicand, kernel, disc, tuple(ramified), complete)

    def label(self) -> str:
        return f"Q(sqrt({self.kernel}))"


@dataclass
class PrimeEntry:
    prime: int
    condition: int | None = None  # 1, 2, 3 or None
    oracle: str | None = None  # 'root' | 'inert' | 'total' | 'undecided'
    agree: bool | None = None

    def to_json(self):
        return {
            "prime": self.prime,
            "condition": self.condition,
            "oracle": self.oracle,
            "agree": self.agree,
        }


@dataclass
class RamificationReport:
    polynomial: str
    delta: Fraction
    quad_field: QuadFieldInfo | None
    entries: list = field(default_factory=list)
    verdict: str = ""
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def entry(self, p: int) -> PrimeEntry:
        for e in self.entries:
            if e.prime == p:
                return e
        e = PrimeEntry(p)
        self.entries.append(e)
        return e

    def to_json(self):
        return {
            "polynomial": self.polynomial,
            "delta": str(self.delta),
            "field": None if self.quad_field is None else self.quad_field.label(),
            "entries": [e.to_json() for e in sorted(self.entries, key=lambda e: e.prime)],
            "verdict": self.verdict,
            "notes": list(self.notes),
            **{k: v for k, v in self.extra.items()},
        }


# ---------------------------------------------------------------------------
# Reduction and the criterion


def wp_reduce(b, c, p: int):
    """Scale (b, c) -> (k^2 b, k^3 c) by a power of p so the pair is p-reduced.

    Afterwards |b|_p <= 1, |c|_p <= 1 and not both of v(b) >= 2, v(c) >= 3.
    The three ramification conditions only involve c^2/b^3 and delta/b^3,
    so they are invariant under this transformation.
    """
    b, c = Fraction(b), Fraction(c)
    if b == 0:
        raise DegenerateCubicError("b must be nonzero")
    vb = valuation(b, p)
    vc = valuation(c, p) if c else None
    m = vb // 2 if c == 0 else min(vb // 2, vc // 3)
    k = Fraction(p) ** (-m)
    return b * k**2, c * k**3


def globally_reduced(b, c):
    """Apply wp_reduce at every prime where it can move (b, c), all at once.

    wp_reduce only moves the pair at primes of a denominator or of both
    numerators (of b alone when c = 0), so only those parts are factored.
    """
    b, c = Fraction(b), Fraction(c)
    support = set()
    for n in {math.gcd(b.numerator, c.numerator), b.denominator, c.denominator} - {1}:
        fs, left = factorize(n)
        support |= set(fs)
        if left != 1:
            fs2, left2 = factorize(left, trial_bound=10**6)
            support |= set(fs2)
            if left2 != 1:
                raise ValueError(f"could not factor coefficient part {left2}")
    for p in sorted(support):
        b, c = wp_reduce(b, c, p)
    return b, c


def _condition_at(form: CubicForm, p: int) -> int | None:
    """Which of the three closed-form conditions holds at p (smallest index).

    valuation() returns +inf on zero, so vanishing numerators certify their
    condition automatically.
    """
    b, c, delta = form.b, form.c, form.delta
    if valuation(c**2 / b**3, p) > 0:
        return 1
    if valuation(delta / (27 * b**3), p) > 0:
        return 2
    if valuation((delta + 2 * b**3) ** 2 / (27 * b**6), p) > 0:
        return 3
    return None


def _criterion_primes(form: CubicForm):
    """All primes where total ramification of the cubic is possible.

    These are the primes dividing the reduced discriminant (including the
    even-valuation ones, where the quadratic field is unramified but the
    cubic can still ramify totally), plus 2 when it ramifies in the
    quadratic field.
    """
    rb, rc = globally_reduced(form.b, form.c)
    reduced = CubicForm.make(rb, rc)
    delta = reduced.delta
    factors, leftover = factorize(abs(delta.numerator * delta.denominator))
    qf = QuadFieldInfo.from_factors(delta, factors, leftover)
    return reduced, sorted(set(factors) | set(qf.ramified)), qf, qf.complete


def _gate(form: CubicForm):
    if not form.is_irreducible():
        raise DegenerateCubicError("cubic is reducible over Q")
    if is_square(form.delta.numerator * form.delta.denominator):
        raise DegenerateCubicError(
            "square discriminant: cyclic cubic, outside this criterion"
        )


def cubic_criterion(form: CubicForm) -> RamificationReport:
    """Closed-form ramification verdict for x^3 + bx + c over Q.

    At every prime where the cubic could ramify totally, one of the three
    valuation conditions certifies a local root, hence no extra
    ramification.  Away from 3 the conditions are also necessary, so a
    failure there means "ramified"; at 3 they are sufficient only (e.g.
    x^3 + 27x - 46 has a 3-adic root but satisfies no condition), so a
    failure at 3 yields the verdict "unramified outside 3" and the 3-adic
    decision is left to the oracle.  Degenerate inputs (b = 0, reducible,
    square discriminant) are rejected.
    """
    reduced, primes, qf, complete = form.analysis
    report = RamificationReport(
        polynomial=f"x^3 + ({form.b})x + ({form.c})",
        delta=form.delta,
        quad_field=qf,
    )
    if not complete:
        report.notes.append("discriminant factorization incomplete; verdict undecided")
    failing = []
    for p in primes:
        cond = _condition_at(reduced, p)
        report.entry(p).condition = cond
        if cond is None:
            failing.append(p)
    if not complete:
        report.verdict = "undecided"
    elif not failing:
        report.verdict = "unramified"
    elif set(failing) <= {3}:
        report.verdict = "unramified outside 3"
        report.notes.append("closed form undecided at 3 (conditions sufficient only there)")
    else:
        report.verdict = "ramified at {%s}" % ", ".join(str(p) for p in failing if p != 3)
        if 3 in failing:
            report.notes.append("closed form undecided at 3 (conditions sufficient only there)")
    return report


# ---------------------------------------------------------------------------
# The p-adic oracle


def local_cubic_type(coeffs, p: int, depth: int = 60) -> str:
    """Local factorization class of a monic integral cubic over Q_p.

    Returns 'root' (a Q_p root exists), 'inert' (irreducible unramified),
    'total' (totally ramified, e = 3), or 'undecided' on depth exhaustion.
    Decided by Newton polygons: a residue with a simple reduction lifts; a
    triple residue is recentered, and the polygon either shows a slope of
    denominator 3 (total ramification), splits (which always frees a
    degree-1 factor), or recurses after the substitution y -> p^a z.
    """
    assert coeffs[-1] == 1 and len(coeffs) == 4
    rts = roots_mod_p(coeffs, p)
    if not rts:
        return "inert"
    deriv = [coeffs[1], 2 * coeffs[2], 3]
    for r in rts:
        if horner(deriv, r) % p != 0:
            return "root"
    if depth <= 0:
        return "undecided"
    r = rts[0]  # unique triple residue
    t0 = horner(coeffs, r)
    if t0 == 0:
        return "root"
    t1, t2 = horner(deriv, r), coeffs[2] + 3 * r
    v0 = valuation(t0, p)
    v1, v2 = valuation(t1, p), valuation(t2, p)
    if 3 * v1 >= 2 * v0 and 3 * v2 >= v0:
        # single segment of slope v0/3
        if v0 % 3 != 0:
            return "total"
        a = v0 // 3
        g = [
            t0 // p ** (3 * a),
            t1 // p ** (2 * a),
            t2 // p**a,
            1,
        ]
        return local_cubic_type(g, p, depth - 1)
    return "root"


# p-adic digits of the oracle's root search
_ORACLE_PREC = 48


def cubic_oracle(form: CubicForm) -> RamificationReport:
    """Independent p-adic verdict: a local root (or inert type) at every
    relevant prime means the extension is unramified there.

    Runs the exhaustive Z_p root search first; only a root-free prime falls
    through to the Newton-polygon classification.
    """
    reduced, primes, qf, complete = form.analysis
    coeffs = clear_denominators(reduced.poly())
    assert coeffs[-1] == 1, "reduction should leave the cubic monic integral"
    report = RamificationReport(
        polynomial=f"x^3 + ({form.b})x + ({form.c})",
        delta=form.delta,
        quad_field=qf,
    )
    if not complete:
        report.notes.append("discriminant factorization incomplete; verdict undecided")
    failing, undecided = [], []
    for p in primes:
        f = PAdicPoly.from_rationals(coeffs, p, _ORACLE_PREC)
        search = padic_root_search(f)
        if search.roots:
            verdict = "root"
        elif not search.complete:
            verdict = "undecided"
        else:
            verdict = local_cubic_type(coeffs, p)
        report.entry(p).oracle = verdict
        if verdict == "total":
            failing.append(p)
        elif verdict == "undecided":
            undecided.append(p)
    if not complete or undecided:
        report.verdict = "undecided"
    elif not failing:
        report.verdict = "unramified"
    else:
        report.verdict = "ramified at {%s}" % ", ".join(str(p) for p in failing)
    return report


def cubic_report(b, c, oracle: bool = True) -> RamificationReport:
    """Criterion report, optionally cross-checked prime-by-prime by the oracle.

    Agreement flags: away from 3 the two verdicts must match; at 3 a
    holding condition must be confirmed by the oracle (sufficiency), while
    a failed condition at 3 is not a criterion decision, so the oracle's
    answer there settles the overall verdict instead of scoring agreement.
    """
    form = CubicForm.make(b, c)
    report = cubic_criterion(form)
    if oracle:
        orc = cubic_oracle(form)
        ramified_oracle = []
        for e in orc.entries:
            mine = report.entry(e.prime)
            mine.oracle = e.oracle
            if e.oracle == "undecided":
                mine.agree = None
            elif e.prime == 3 and mine.condition is None:
                mine.agree = None  # closed form makes no claim here
                report.notes.append(
                    f"3-adic verdict by oracle: {'unramified' if e.oracle in ('root', 'inert') else 'ramified'}"
                )
            else:
                cond_unram = mine.condition is not None
                orc_unram = e.oracle in ("root", "inert")
                mine.agree = cond_unram == orc_unram
            if e.oracle == "total":
                ramified_oracle.append(e.prime)
        if report.verdict == "unramified outside 3":
            report.verdict = (
                "unramified" if 3 not in ramified_oracle else "ramified at {3}"
            )
        if any(e.agree is False for e in report.entries):
            report.notes.append("criterion and oracle disagree; see entries")
    return report


# ---------------------------------------------------------------------------
# Families


def family_b2t(b: int, t: int) -> RamificationReport:
    """The always-unramified family x^3 + b x + b^2 t.

    With d = -27 b t^2 - 4 the relevant quadratic field is Q(sqrt(b*d));
    reducible instances are rejected with their rational root.
    """
    b, t = int(b), int(t)
    if b == 0:
        raise DegenerateCubicError("b must be nonzero")
    try:
        report = cubic_report(b, b * b * t)
    except DegenerateCubicError:
        roots = CubicForm.make(b, b * b * t).rational_roots()
        if roots:
            raise DegenerateCubicError(f"reducible instance; rational root {roots[0]}") from None
        raise
    d = -27 * b * t * t - 4
    report.extra["d"] = d
    # delta = b^3 d differs from b d by a square: the report's field is Q(sqrt(b d))
    report.extra["field"] = report.quad_field.label()
    return report


def scan_row(b: int, c: int):
    """(c, criterion verdict) for x^3 + bx + c; 'skipped: <reason>' for a degenerate cubic."""
    try:
        return c, cubic_criterion(CubicForm.make(b, c)).verdict
    except DegenerateCubicError as e:
        return c, f"skipped: {e}"


def congruence_scan(b: int, modulus: int | None = None, c_range=range(-60, 61)):
    """Partition c mod `modulus` by the criterion verdict for x^3 + bx + c.

    The default modulus is 81*b^4, which always suffices; the scan verifies
    that every residue class with at least two tested members is uniform
    (mixed classes raise) and reports the smallest divisor of the modulus
    consistent with the observed classes.
    """
    return fold_scan(b, [scan_row(b, c) for c in c_range], modulus)


def fold_scan(b: int, rows, modulus: int | None = None):
    """The congruence_scan summary of (c, verdict) rows made by scan_row."""
    b = int(b)
    if b == 0:
        raise DegenerateCubicError("b must be nonzero")
    if modulus is None:
        modulus = 81 * b**4
    modulus = abs(int(modulus))
    if (81 * b**4) % modulus != 0:
        raise ValueError("modulus must divide 81*b^4")
    classes: dict = {}
    skipped = []
    for c, verdict in rows:
        if verdict == "undecided" or verdict.startswith("skipped"):
            skipped.append(c)
            continue
        classes.setdefault(c % modulus, []).append((c, verdict == "unramified"))
    for residue, members in classes.items():
        outcomes = {ok for _, ok in members}
        if len(outcomes) != 1:
            raise AssertionError(
                f"mixed class {residue} mod {modulus}: {members} (contradicts congruence-family property)"
            )
    verdicts = {residue: members[0][1] for residue, members in classes.items()}
    minimal = modulus
    for div in divisors(modulus):
        folded: dict = {}
        ok = True
        for residue, v in verdicts.items():
            key = residue % div
            if key in folded and folded[key] != v:
                ok = False
                break
            folded[key] = v
        if ok:
            minimal = div
            break
    passing = sorted(r for r, v in verdicts.items() if v)
    return {
        "b": b,
        "modulus": modulus,
        "minimal_modulus": minimal,
        "passing_residues": passing,
        "verdicts": verdicts,
        "skipped": skipped,
    }


def b3_congruence_check(b: int, c: int):
    """The printed mod-b^3 test: c^2 = 0 or c^2 = -4 b^3 / 27 (mod b^3).

    The second congruence needs 27 invertible mod b^3; when 3 | b it is
    skipped and the result flagged.  Returns (bool, flagged).  This check
    is recorded against the criterion verdicts, not asserted equivalent to
    them.
    """
    b, c = int(b), int(c)
    if b == 0:
        raise DegenerateCubicError("b must be nonzero")
    m = abs(b) ** 3
    if m == 1:
        return True, False
    if c * c % m == 0:
        return True, (b % 3 == 0)
    if b % 3 == 0:
        return False, True
    rhs = -4 * pow(b, 3) * pow(27, -1, m) % m
    return c * c % m == rhs, False


def quartic_real_place(b, c) -> bool:
    """Real-place rule for x^4 + b x^2 + c: unramified at a real place iff
    (b < 0 and c > 0) or b^2 - 4c < 0."""
    b, c = Fraction(b), Fraction(c)
    return (b < 0 and c > 0) or b * b - 4 * c < 0


def quartic_d4_criterion(b, c) -> RamificationReport:
    """Unramifiedness criteria for the biquadratic quartic x^4 + b x^2 + c.

    delta = b^2 - 4c; the splitting field is compared against
    K = Q(sqrt(c*delta)).  Real place: unramified iff (b < 0 and c > 0) or
    delta < 0.  Finite places: at primes dividing c*delta an odd number of
    times, |c/b^2|_p < 1 or |delta/(2 b^2)|_p < 1 certify no extra
    ramification (the second via the companion quartic x^4 + 2b x^2 + delta).

    Non-D4 input is rejected.  The verdict is `solver.d4_resolvent`'s exact
    Kappe-Warren test: here the resolvent cubic is (theta - b)(theta^2 - 4c),
    so theta = b is always a rational root, and an irreducible quartic is D4
    exactly when none of c, delta and c*delta is a rational square.  The
    recorded resolvent factor is the one read off theta = b,
    z^4 + 4b z^2 + 16c, whose roots are the differences +-2r of opposite
    roots.
    """
    b, c = Fraction(b), Fraction(c)
    if b == 0:
        raise ValueError("b must be nonzero")
    delta = b * b - 4 * c
    if c == 0 or delta == 0:
        raise ValueError("degenerate quartic (c = 0 or square-split)")
    rep = d4_resolvent(0, b, 0, c)
    if not rep.is_d4:
        raise ValueError(f"not a D4 quartic: {rep.detail}")
    report = RamificationReport(
        polynomial=f"x^4 + ({b})x^2 + ({c})",
        delta=delta,
        quad_field=QuadFieldInfo.make(c * delta),
    )
    report.extra["biquadratic_resolvent_factor"] = [str(x) for x in rep.biquadratic]
    real_ok = quartic_real_place(b, c)
    report.extra["real_place_unramified"] = real_ok
    # finite places
    cd = c * delta
    n = cd.numerator * cd.denominator
    factors, leftover = factorize(abs(n))
    if leftover != 1:
        report.notes.append("incomplete factorization of c*delta")
    failing = []
    for p, e in sorted(factors.items()):
        if e % 2 == 0:
            continue
        cond = None
        if valuation(c / b**2, p) > 0:
            cond = 1
        elif valuation(delta / (2 * b**2), p) > 0:
            cond = 2
        entry = report.entry(p)
        entry.condition = cond
        if cond is None:
            failing.append(p)
        if p == 2:
            report.notes.append("p = 2 flagged: condition 2 constant placement is oracle-adjudicated")
    if leftover != 1:
        report.verdict = "undecided"
    elif failing or not real_ok:
        places = [str(p) for p in failing] + ([] if real_ok else ["infinity"])
        report.verdict = "possibly ramified at {%s}" % ", ".join(places)
    else:
        report.verdict = "unramified"
    return report


def cubic_ut_family(s: int, u: int, t: int) -> RamificationReport:
    """The family x^3 + s u x + t u^2 for s in {1, 2, 3}.

    s = 1: unconditionally unramified (checked).  s = 2: unramified iff
    8 | u, or u and t both even, or u odd and t != 2 (mod 4); the predicted
    verdict is recorded for comparison with the criterion/oracle.  s = 3:
    the decidable printed conditions are evaluated; the branch with u
    divisible by 3 is left entirely to the oracle (flagged).
    """
    if s not in (1, 2, 3):
        raise ValueError("s must be 1, 2 or 3")
    u, t = int(u), int(t)
    b, c = s * u, t * u * u
    report = cubic_report(b, c)  # raises on b == 0
    report.extra["family"] = {"s": s, "u": u, "t": t}
    if s == 1:
        report.extra["predicted"] = "unramified"
    elif s == 2:
        pred = (u % 8 == 0) or (u % 2 == 0 and t % 2 == 0) or (u % 2 == 1 and t % 4 != 2)
        report.extra["predicted"] = "unramified" if pred else "ramified"
    else:
        if u % 3 == 0:
            report.extra["predicted"] = None
            report.notes.append("s = 3 with 3 | u: printed source breaks off; oracle only")
        else:
            pred = (
                t % 9 == 0
                or (pow(u, 9, 27) == 27 - 1 and (u * t * t) % 27 == 27 - 4)
                or (pow(u, 9, 9) == 1 and (u * t * t) % 9 == 9 - 2)
            )
            report.extra["predicted"] = "unramified" if pred else None
            report.notes.append("s = 3: printed conditions are sufficient only")
    return report


def quartic_cycle4_family(t: int) -> dict:
    """The degree-four family x^4 - x^3 - t x^2 - x + 1.

    Checks the three rewriting identities exactly,

        (x^2 + x + 1)(x - 1)^2 - t x^2
        (x^2 - 3x + 1)(x + 1)^2 - (t - 4) x^2
        (2x^2 - x + 2)^2 - (4t + 9) x^2   (= 4 * the quartic)

    reads off the quadratic subfields x^2 - t(t-4), x^2 - (4t+9),
    x^2 - t(t-4)(4t+9), and qualifies t when t(t-4)(4t+9) is coprime to 30
    (guaranteed for t = -13, -7, 11 mod 30).
    """
    t = int(t)
    x = IntPolynomial.x()
    f = IntPolynomial((1, -1, -t, -1, 1))
    id1 = IntPolynomial((1, 1, 1)) * (x - 1) ** 2 - t * IntPolynomial((0, 0, 1))
    id2 = IntPolynomial((1, -3, 1)) * (x + 1) ** 2 - (t - 4) * IntPolynomial((0, 0, 1))
    id3 = IntPolynomial((2, -1, 2)) ** 2 - (4 * t + 9) * IntPolynomial((0, 0, 1))
    assert id1 == f
    assert id2 == f
    assert id3 == 4 * f
    prod = t * (t - 4) * (4 * t + 9)
    disc = t * (t - 4) * (4 * t + 9) ** 2
    qualifies = prod != 0 and math.gcd(prod, 30) == 1
    result = {
        "t": t,
        "identities_hold": True,
        "product": prod,
        "discriminant": disc,
        "qualifies_mod30": qualifies,
        "in_named_classes": t % 30 in {(-13) % 30, (-7) % 30, 11 % 30},
        "subfields": [
            f"x^2 - {t * (t - 4)}",
            f"x^2 - {4 * t + 9}",
            f"x^2 - {t * (t - 4) * (4 * t + 9)}",
        ],
    }
    if prod != 0:
        result["field"] = QuadFieldInfo.make(Fraction(prod)).label()
    rep = d4_resolvent(-1, -t, -1, 1)
    result["d4"] = rep.is_d4
    result["resolvent_detail"] = rep.detail
    return result

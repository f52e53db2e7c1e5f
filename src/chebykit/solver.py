"""Equation solving with Chebyshev radicals.

The pieces: indexed root sets for C_n(x) = t and the linear algebra that
recovers all roots from two of them; the depressed cubic solved by
third-order Chebyshev radicals; explicit tower witnesses converting between
ordinary and Chebyshev radical extensions (complex-numeric side); the
characteristic-two constructions over GF(2^m), where Chebyshev radicals
solve strictly more (Artin-Schreier quadratics); and the D4 test for
quartics with its degree-12 difference resolvent and biquadratic factor.

The quartic side is exact integer algebra on the resolvent cubic: the
degree-12 resolvent is a norm from the cubic's root field, the group comes
from the elementary test of L.-C. Kappe and B. Warren ("An elementary test
for the Galois group of a quartic polynomial", Amer. Math. Monthly 96
(1989) 133-137), and the biquadratic factor is read off the cubic's
rational root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .analytic import cheb_exp, cheb_log, principal_radical
from .exactcore import IntPolynomial, cheb_second_kind
from .factorcyc import rational_roots
from .gf2m import GF2m, GF2mElement, embed, retract
from .numtheory import is_square


# ---------------------------------------------------------------------------
# Indexed root sets


@dataclass(frozen=True)
class IndexedRootSet:
    """The n roots of C_n(x) = t written r_i = zeta^i u + zeta^-i / u.

    zeta is the primitive n-th root of unity exp(2*pi*i/n), u solves
    u + 1/u = r_0 with r_0 the principal Chebyshev root of t, and
    mu = zeta + 1/zeta.  Index arithmetic is mod n and satisfies
    r_{k+i} + r_{k-i} = C_i(mu) * r_k.
    """

    t: complex
    n: int
    zeta: complex
    u: complex
    mu: complex
    roots: tuple

    def root(self, i: int) -> complex:
        return self.roots[i % self.n]


def indexed_roots(t, n: int) -> IndexedRootSet:
    if n < 1:
        raise ValueError("order must be positive")
    w = cheb_log(t).as_complex() / n
    u = cmath.exp(w)
    zeta = cmath.exp(2j * cmath.pi / n)
    roots = tuple(zeta**i * u + zeta**-i / u for i in range(n))
    return IndexedRootSet(complex(t), n, zeta, u, zeta + 1 / zeta, roots)


def _mu_pow(rs: IndexedRootSet, i: int) -> complex:
    """C_i(mu) = zeta^i + zeta^-i, computed trigonometrically for stability."""
    return 2.0 * math.cos(2.0 * math.pi * (i % rs.n) / rs.n)


def sibling_quadratic(rs: IndexedRootSet, k: int, i: int):
    """Monic quadratic with roots r_{k+i} and r_{k-i}.

    Coefficients (1, -C_i(mu) * r_k, C_2(r_k) + C_{2i}(mu)).
    """
    rk = rs.root(k)
    b = -_mu_pow(rs, i) * rk
    c = (rk * rk - 2.0) + _mu_pow(rs, 2 * i)
    return (1.0, b, c)


def recover_root(rs: IndexedRootSet, i: int, j: int, k: int) -> complex:
    """r_{i + k(j-i)} as S_k(C_e(mu)) r_j - S_{k-1}(C_e(mu)) r_i, e = j - i."""
    e = j - i
    me = _mu_pow(rs, e)
    sk = complex(cheb_second_kind(abs(k))(me)) if k >= 0 else -complex(cheb_second_kind(-k)(me))
    skm = (
        complex(cheb_second_kind(k - 1)(me))
        if k - 1 >= 0
        else -complex(cheb_second_kind(1 - k)(me))
    )
    return sk * rs.root(j) - skm * rs.root(i)


def recover_all(rs: IndexedRootSet, i: int, j: int) -> list:
    """All n roots from r_i and r_j; needs the step j - i prime to n."""
    e = (j - i) % rs.n
    if math.gcd(e, rs.n) != 1:
        raise ValueError(f"step {e} is not prime to the order {rs.n}")
    return [recover_root(rs, i, j, k) for k in range(rs.n)]


# ---------------------------------------------------------------------------
# The depressed cubic in Chebyshev radicals


def cubic_eps(b, c):
    """The discriminant data (delta, epsilon) of x^3 + b x + c.

    delta = -4b^3 - 27c^2 and epsilon = -2 - 27 c^2 / b^3; the identity
    epsilon = 2 + delta/b^3 is asserted exactly.
    """
    b, c = Fraction(b), Fraction(c)
    if b == 0:
        raise ValueError("b must be nonzero")
    delta = -4 * b**3 - 27 * c**2
    eps = -2 - 27 * c**2 / b**3
    assert eps == 2 + delta / b**3
    return delta, eps


def cubic_cheb_solve(b, c):
    """The three roots of x^3 + b x + c via Chebyshev cube radicals.

    Substituting z = sqrt(-3/b) x turns the equation into C_3(z) = h with
    h = -c (-3/b)^(3/2); the roots are then z1 = radical(h), z2 =
    -radical(-h), z3 = -z1 - z2, pulled back through the substitution.
    """
    b, c = complex(b), complex(c)
    if b == 0:
        raise ValueError("b = 0 is a pure cube root; use rational_power")
    w = cmath.sqrt(-3.0 / b)
    h = -c * w**3
    z1 = principal_radical(h, 3)
    z2 = -principal_radical(-h, 3)
    z3 = -z1 - z2
    return tuple(z / w for z in (z1, z2, z3))


# ---------------------------------------------------------------------------
# Tower witnesses


@dataclass(frozen=True)
class TowerStep:
    kind: str  # "ordinary-root" | "chebyshev-root" | "square-root"
    degree: int
    radicand: complex
    value: complex

    def residual(self) -> float:
        if self.kind == "chebyshev-root":
            from .exactcore import cheb_pow_ladder

            got = cheb_pow_ladder(self.value, self.degree)
        elif self.kind == "square-root":
            got = self.value * self.value
        else:
            got = self.value**self.degree
        return abs(got - self.radicand)


@dataclass
class TowerWitness:
    """An explicit chain of radical adjunctions solving one equation.

    `steps` list the adjunctions in order; `roots` are the final solutions
    of the target relation, and `note` records degenerate handling.
    """

    kind: str
    target: dict
    steps: list = field(default_factory=list)
    roots: list = field(default_factory=list)
    note: str = ""

    def max_step_residual(self) -> float:
        return max((s.residual() for s in self.steps), default=0.0)

    def to_json(self):
        return {
            "kind": self.kind,
            "target": {k: _c2j(v) if isinstance(v, complex) else v for k, v in self.target.items()},
            "steps": [
                {
                    "kind": s.kind,
                    "degree": s.degree,
                    "radicand": _c2j(s.radicand),
                    "value": _c2j(s.value),
                }
                for s in self.steps
            ],
            "roots": [_c2j(r) for r in self.roots],
            "note": self.note,
        }


def _c2j(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def cheb_to_radical_witness(q: int, t) -> TowerWitness:
    """Solve C_q(x) = t with ordinary radicals (q an odd prime).

    Adjoin a primitive q-th root of unity, s = sqrt(t^2 - 4), and the
    ordinary q-th root r of (s + t)/2; then zeta^i r + zeta^-i / r run
    through the q solutions.  t = +-2 degenerates to the closed cosine
    forms.
    """
    t = complex(t)
    wit = TowerWitness(kind="cheb-to-radical", target={"relation": f"C_{q}(x) = t", "t": t})
    if abs(t - 2.0) < 1e-13 or abs(t + 2.0) < 1e-13:
        sign = 1.0 if t.real > 0 else -1.0
        base = 0.0 if sign > 0 else math.pi / q
        roots = [2.0 * math.cos(base + 2.0 * math.pi * k / q) for k in range(q)]
        wit.roots = [complex(r) for r in roots]
        wit.note = f"degenerate t = {int(sign) * 2}: closed cosine forms"
        return wit
    zeta = cmath.exp(2j * cmath.pi / q)
    wit.steps.append(TowerStep("ordinary-root", q, complex(1.0), zeta))
    s = cmath.sqrt(t * t - 4.0)
    wit.steps.append(TowerStep("square-root", 2, t * t - 4.0, s))
    r = cmath.exp(cmath.log((s + t) / 2.0) / q)
    wit.steps.append(TowerStep("ordinary-root", q, (s + t) / 2.0, r))
    wit.roots = [zeta**i * r + zeta**-i / r for i in range(q)]
    return wit


def radical_to_cheb_witness(q: int, t) -> TowerWitness:
    """Solve x^q = t with Chebyshev radicals (q an odd prime, t != 0).

    The tower: mu != 2 with C_q(mu) = 2; lambda with C_2(lambda) =
    C_2(mu) - 4, giving the root of unity zeta = (mu + lambda)/2; then s
    with C_q(s) = t + 1/t and r with C_2(r) = C_2(s) - 4, so w = (s + r)/2
    satisfies w^q = t or w^-q = t.
    """
    t = complex(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    wit = TowerWitness(kind="radical-to-cheb", target={"relation": f"x^{q} = t", "t": t})
    mu = 2.0 * math.cos(2.0 * math.pi / q)  # a nontrivial Chebyshev root of two
    wit.steps.append(TowerStep("chebyshev-root", q, complex(2.0), mu))
    lam = cheb_exp(cheb_log((mu * mu - 2.0) - 4.0).as_complex() / 2.0)
    wit.steps.append(TowerStep("chebyshev-root", 2, (mu * mu - 2.0) - 4.0, lam))
    zeta = (mu + lam) / 2.0
    s = principal_radical(t + 1.0 / t, q)
    wit.steps.append(TowerStep("chebyshev-root", q, t + 1.0 / t, s))
    r = cheb_exp(cheb_log((s * s - 2.0) - 4.0).as_complex() / 2.0)
    wit.steps.append(TowerStep("chebyshev-root", 2, (s * s - 2.0) - 4.0, r))
    w = (s + r) / 2.0
    if abs(w**q - t) > abs(w ** (-q) - t):
        w = 1.0 / w
    wit.roots = [zeta**i * w for i in range(q)]
    return wit


# ---------------------------------------------------------------------------
# Characteristic two


@dataclass
class Char2Result:
    value: GF2mElement
    extended: bool  # True when the answer lives in the quadratic extension
    helper: GF2mElement | None = None  # the Chebyshev radical used


_CUBE_TABLES: dict = {}


def _cheb_cube_values(F: GF2m) -> dict:
    """Map v -> list of b in F with C_3(b) = b^3 + b = v (char 2), cached per field."""
    key = (F.m, F.modulus)
    table = _CUBE_TABLES.get(key)
    if table is None:
        table = {}
        for b in F.elements():
            v = (b * b * b + b).bits
            table.setdefault(v, []).append(b)
        _CUBE_TABLES[key] = table
    return table


def char2_unit_quadratic(a: GF2mElement, allow_extension: bool = True) -> Char2Result:
    """Solve c^2 + a c + 1 = 0 by a Chebyshev cube radical (char 2, a not in {0,1}).

    Takes b with C_3(b) = a/(a+1)^3 and b != a/(a+1); then c = (a+1) b.
    When no such b exists in the field of a, the construction moves to the
    quadratic extension (reported via `extended`); with allow_extension
    False that case raises instead.
    """
    F = a.field
    one = F.one()
    if a.is_zero() or a == one:
        raise ValueError("a must differ from 0 and 1")
    target = a / (a + one) ** 3
    excluded = a / (a + one)
    for b in _cheb_cube_values(F).get(target.bits, []):
        if b != excluded:
            c = (a + one) * b
            assert (c * c + a * c + one).is_zero()
            return Char2Result(c, extended=False, helper=b)
    if not allow_extension:
        raise ValueError("no suitable Chebyshev cube root in the base field")
    big = GF2m(2 * F.m)
    a2 = embed(a, big)
    one2 = big.one()
    target2 = a2 / (a2 + one2) ** 3
    excluded2 = a2 / (a2 + one2)
    for b in _cheb_cube_values(big).get(target2.bits, []):
        if b != excluded2:
            c = (a2 + one2) * b
            assert (c * c + a2 * c + one2).is_zero()
            return Char2Result(c, extended=True, helper=b)
    raise AssertionError("construction failed even in the quadratic extension")


def char2_artin_schreier(t: GF2mElement) -> Char2Result:
    """Solve w^2 + w + t = 0 over GF(2^m) by Chebyshev radicals.

    For t not 1: s = sqrt(t + 1) (inverse Frobenius), then r with
    C_3(r) = t / s^3 and r != 1/s gives w = s r.  For t = 1 the roots of
    x^2 + x + 1 are the nonzero solutions of C_5(x) = 0.  The root lies in
    the base field exactly when the absolute trace of t vanishes; otherwise
    the same construction runs in the quadratic extension and `extended`
    is set.
    """
    F = t.field
    one = F.one()
    if t.is_zero():
        return Char2Result(F.zero(), extended=False)

    def attempt(field: GF2m, tt: GF2mElement) -> GF2mElement | None:
        o = field.one()
        if tt == o:
            # x^2+x+1 divides C_5(x)/x in char 2; scan its nonzero roots
            for x in field.elements():
                if not x.is_zero() and (x * x + x + o).is_zero():
                    return x
            return None
        s = (tt + o).sqrt()
        if s.is_zero():
            return None
        target = tt / (s * s * s)
        banned = s.inverse()
        for r in _cheb_cube_values(field).get(target.bits, []):
            if r != banned:
                w = s * r
                if (w * w + w + tt).is_zero():
                    return w
        return None

    w = attempt(F, t)
    if w is not None:
        return Char2Result(w, extended=False)
    big = GF2m(2 * F.m)
    w2 = attempt(big, embed(t, big))
    if w2 is None:
        raise AssertionError("Artin-Schreier construction failed in the extension")
    back = retract(w2, F)
    if back is not None:
        return Char2Result(back, extended=False)
    return Char2Result(w2, extended=True)


# ---------------------------------------------------------------------------
# Quartics: the degree-12 difference resolvent and the Kappe-Warren test


@dataclass
class D4ResolventReport:
    resolvent: list  # Fraction coefficients, even polynomial of degree 12
    biquadratic: tuple | None  # (B, C) with z^4 + B z^2 + C | resolvent
    is_d4: bool
    detail: str

    def resolvent_int(self) -> IntPolynomial | None:
        if all(c.denominator == 1 for c in self.resolvent):
            return IntPolynomial(tuple(int(c) for c in self.resolvent))
        return None

    def to_json(self):
        return {
            "resolvent": [str(c) for c in self.resolvent],
            "biquadratic": None
            if self.biquadratic is None
            else [str(self.biquadratic[0]), str(self.biquadratic[1])],
            "is_d4": self.is_d4,
            "detail": self.detail,
        }


_GROUP_DETAIL = {
    "S4": "no D4 split: resolvent cubic irreducible, non-square discriminant (S4)",
    "A4": "no D4 split: resolvent cubic irreducible, square discriminant (A4)",
    "V4": "no D4 split: resolvent cubic has three rational roots (V4)",
    "C4": "no D4 split: splits over Q(sqrt(disc)) (C4)",
    "D4": "one rational resolvent root, no split over Q(sqrt(disc)) (D4)",
}


def _difference_resolvent(a1, a2, a3, a4, c, d) -> tuple:
    """Q(w) = prod over i < j of (w - (r_i - r_j)^2) for an integral monic quartic.

    c = a1 a3 - 4 a4 and d = a1^2 a4 - 4 a2 a4 + a3^2 are the lower
    coefficients of the resolvent cubic R(theta) = theta^3 - a2 theta^2 +
    c theta - d.  The pairing that belongs to the root theta of R contributes
    g(w, theta) = -3 theta^2 + 2(w + a2) theta + w^2 - (a1^2 - 2 a2) w +
    a2^2 - 4c, so Q is the norm of g from Q[theta]/R: the determinant of
    multiplication by g in the basis 1, theta, theta^2, over Z[w].
    Coefficients ascending, degree 6, monic.
    """
    w = IntPolynomial.x()

    def times_theta(v):
        # theta^3 = a2 theta^2 - c theta + d
        x0, x1, x2 = v
        return (x2 * d, x0 - x2 * c, x1 + x2 * a2)

    g0 = w * w - (a1 * a1 - 2 * a2) * w + (a2 * a2 - 4 * c)
    col0 = (g0, 2 * (w + a2), IntPolynomial.constant(-3))
    col1 = times_theta(col0)
    col2 = times_theta(col1)
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = col0, col1, col2
    det = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    return det.coeffs


def _integer_roots_monic_quadratic(p1: int, p0: int):
    """The two integer roots of y^2 + p1 y + p0, or None when they are irrational."""
    disc = p1 * p1 - 4 * p0
    if not is_square(disc):
        return None
    s = math.isqrt(disc)
    return (-p1 + s) // 2, (-p1 - s) // 2


def _splits_into_quadratics(quartic: IntPolynomial, theta: int) -> bool:
    """Whether the integral monic quartic is (x^2 - u x + v)(x^2 - u' x + v') with v + v' = theta.

    For such a split, v and v' are the roots of y^2 - theta y + a4 and u, u'
    those of y^2 + a1 y + (a2 - theta); both pairings of the two root pairs
    are confirmed by exact multiplication.
    """
    a4, _, a2, a1, _ = quartic.coeffs
    vs = _integer_roots_monic_quadratic(-theta, a4)
    us = _integer_roots_monic_quadratic(a1, a2 - theta)
    if vs is None or us is None:
        return False
    (v1, v2), (u1, u2) = vs, us
    return any(
        IntPolynomial((v1, -u, 1)) * IntPolynomial((v2, -u_, 1)) == quartic
        for u, u_ in ((u1, u2), (u2, u1))
    )


def _kappe_warren(a1, a2, a4, thetas, disc) -> str:
    """Galois group of an irreducible integral monic quartic from its resolvent cubic.

    `thetas` are the rational roots of the resolvent cubic and `disc` the
    common discriminant of the quartic and the cubic.
    """
    if not thetas:
        return "A4" if is_square(disc) else "S4"
    if len(thetas) == 3:
        return "V4"
    t = thetas[0]
    cyclic = all(
        is_square(delta) or is_square(delta * disc)
        for delta in (t * t - 4 * a4, a1 * a1 - 4 * (a2 - t))
    )
    return "C4" if cyclic else "D4"


def d4_resolvent(a1, a2, a3, a4) -> D4ResolventReport:
    """Difference resolvent and D4 test of x^4 + a1 x^3 + a2 x^2 + a3 x + a4.

    Everything is exact integer algebra on the resolvent cubic
    R(theta) = theta^3 - a2 theta^2 + (a1 a3 - 4 a4) theta -
    (a1^2 a4 - 4 a2 a4 + a3^2), whose roots r1 r2 + r3 r4, r1 r3 + r2 r4,
    r1 r4 + r2 r3 belong to the three pairings of the roots.  Rational
    coefficients are first cleared: with L the lcm of their denominators,
    g(x) = L^4 f(x / L) is integral and monic, and the results are scaled
    back (theta by L^2, z by L).

    The degree-12 resolvent has the roots z = r_i - r_j; it is Q(z^2), and
    Q(w) is the norm from Q[theta]/R of the factor w^2 - s w + p of the
    pairing {ij | kl} that belongs to theta, where s = a1^2 - 2 a2 - 2 theta
    is (r_i - r_j)^2 + (r_k - r_l)^2 and p = (theta' - theta'')^2 is their
    product written in theta.  So a rational root theta gives the rational
    biquadratic factor z^4 + B z^2 + C with B = -s = 2 theta + 2 a2 - a1^2
    and C = p = (a2 - theta)^2 - 4(a1 a3 - 4 a4) + 4 theta (a2 - theta); it
    is reported when R has exactly one rational root.

    The verdict: a rational root of the quartic, or a split into two
    rational quadratics (which comes from a rational theta for which
    y^2 - theta y + a4 and y^2 + a1 y + (a2 - theta) have rational roots),
    rules D4 out.  For an irreducible quartic the test of L.-C. Kappe and
    B. Warren (Amer. Math. Monthly 96 (1989) 133-137) decides: no rational
    theta gives S4 or A4, three give V4, and exactly one gives C4 when both
    quadratics split over Q(sqrt(disc)), D4 otherwise.  Splitting over
    Q(sqrt(disc)) means that delta or delta * disc is a square, delta the
    quadratic's discriminant, so no factorization is needed.
    """
    coeffs = [Fraction(a) for a in (a1, a2, a3, a4)]
    scale = math.lcm(*(c.denominator for c in coeffs))
    b1, b2, b3, b4 = (int(c * scale**k) for k, c in enumerate(coeffs, 1))
    c, d = b1 * b3 - 4 * b4, b1 * b1 * b4 - 4 * b2 * b4 + b3 * b3

    resolvent = [Fraction(0)] * 13
    for k, q in enumerate(_difference_resolvent(b1, b2, b3, b4, c, d)):
        resolvent[2 * k] = Fraction(q, scale ** (12 - 2 * k))

    thetas = [int(t) for t in rational_roots(IntPolynomial((-d, c, -b2, 1)))]
    biquadratic = None
    if len(thetas) == 1:
        t = thetas[0]
        big_b = 2 * t + 2 * b2 - b1 * b1
        big_c = (b2 - t) ** 2 - 4 * c + 4 * t * (b2 - t)
        biquadratic = (Fraction(big_b, scale**2), Fraction(big_c, scale**4))

    def report(is_d4: bool, detail: str) -> D4ResolventReport:
        return D4ResolventReport(resolvent, biquadratic, is_d4, detail)

    quartic = IntPolynomial((b4, b3, b2, b1, 1))
    if rational_roots(quartic):
        return report(False, "no D4 split: rational root")
    if any(_splits_into_quadratics(quartic, t) for t in thetas):
        return report(False, "no D4 split: factors into rational quadratics")
    # the quartic is irreducible, so separable, and R shares its discriminant
    disc = b2 * b2 * c * c - 4 * c**3 - 4 * b2**3 * d - 27 * d * d + 18 * b2 * c * d
    group = _kappe_warren(b1, b2, b4, thetas, disc)
    return report(group == "D4", _GROUP_DETAIL[group])

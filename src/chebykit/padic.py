"""Finite-precision p-adic arithmetic, Chebyshev power series, root lifting.

Numbers follow the capped-relative model: a nonzero value is p^val * unit
with the unit known modulo p^prec, so the element is pinned modulo
p^(val+prec).  Addition works at the minimum absolute precision of the
operands, multiplication at the minimum relative precision; the tracking is
always pessimistic.  A sum that cancels to the working precision becomes an
"inexact zero" carrying only its absolute precision.  The normalization is
|p|_p = 1/p.

Convergence of the power series around 2 is decided exactly: the radius
bounds involve p^(1/(p-1)), and the comparisons are done by clearing
denominators in the exponent inequalities over Q, never in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import clear_denominators, horner
from .numtheory import is_prime, split_prime, valuation

INF = math.inf

DEFAULT_PREC = 64


class PAdicConvergenceError(ValueError):
    """Series input outside its exact convergence region."""


class HenselConditionError(ValueError):
    """|f(r)| < |f'(r)|^2 fails at the starting point."""


@dataclass(frozen=True)
class PAdicNumber:
    """p^val * unit with unit a p-unit known mod p^prec.

    Zero forms: an exact zero has val = +inf; an inexact zero O(p^A) has
    unit == 0, val = A, prec = 0.  The public constructors check that p is
    prime; arithmetic builds its results with _of, over the p of an operand.
    """

    p: int
    val: int | float
    unit: int
    prec: int

    def __init__(self, p, val, unit, prec):
        self._fill(_require_prime(p), val, unit, prec)

    @classmethod
    def _of(cls, p, val, unit, prec) -> "PAdicNumber":
        """A value over a p already known to be prime."""
        x = object.__new__(cls)
        x._fill(p, val, unit, prec)
        return x

    def _fill(self, p, val, unit, prec):
        if unit == 0:
            if val != INF:
                val = int(val)
            prec = 0
        else:
            val = int(val)
            prec = int(prec)
            if prec < 1:
                raise ValueError("nonzero value needs at least one digit")
            unit = int(unit) % p**prec
            if unit % p == 0 or unit == 0:
                raise ValueError("unit part must be prime to p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "PAdicNumber":
        return PAdicNumber(p, INF, 0, 0)

    @staticmethod
    def inexact_zero(p: int, abs_prec: int) -> "PAdicNumber":
        return PAdicNumber(p, abs_prec, 0, 0)

    # -- structure ---------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.val == INF

    def is_zero_like(self) -> bool:
        return self.unit == 0

    @property
    def abs_prec(self):
        if self.unit == 0:
            return self.val  # INF for exact zero, A for O(p^A)
        return self.val + self.prec

    def lift(self) -> int:
        """The integer p^val * unit (val >= 0 required)."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation does not lift to an integer")
        return self.p**self.val * self.unit

    def digits(self) -> list:
        out = []
        u = self.unit
        for _ in range(self.prec):
            out.append(u % self.p)
            u //= self.p
        return out

    def to_json(self):
        return {
            "p": self.p,
            "val": None if self.val == INF else self.val,
            "digits": self.digits(),
            "prec": self.prec,
        }

    @staticmethod
    def from_json(data):
        if data["val"] is None:
            return PAdicNumber.zero(data["p"])
        return PAdicNumber(data["p"], data["val"], horner(data["digits"], data["p"]), data["prec"])

    def __repr__(self):
        if self.is_exact_zero():
            return f"0 (exact, p={self.p})"
        if self.unit == 0:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.prec})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "PAdicNumber":
        if isinstance(other, PAdicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            # An exact scalar gets 8 digits beyond both the relative precision
            # of self (which bounds products) and its absolute precision
            # (which bounds sums), so it never limits either.
            digits, reach = max(self.prec, 1), self.abs_prec
            if isinstance(other, Fraction):
                if reach != INF:
                    digits = max(digits, reach - valuation(other, self.p))
                return _from_rational(other, self.p, digits + 8)
            # an int's valuation is >= 0, so reach digits suffice for it, and
            # its unit needs no inverse: __init__ reduces it mod p^digits
            if reach != INF:
                digits = max(digits, reach)
            if other == 0:
                return PAdicNumber._of(self.p, INF, 0, 0)
            v, unit = split_prime(other, self.p)
            return PAdicNumber._of(self.p, v, unit, digits + 8)
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        cap = min(self.abs_prec, other.abs_prec)
        vals = [x.val for x in (self, other) if x.unit != 0]
        if not vals:
            return PAdicNumber._of(self.p, cap, 0, 0)
        m = min(min(vals), cap)
        scale = cap - m
        total = 0
        for x in (self, other):
            if x.unit != 0:
                total += x.unit * self.p ** (x.val - m)
        total %= self.p**scale
        if total == 0:
            return PAdicNumber._of(self.p, cap, 0, 0)
        s, unit = split_prime(total, self.p)
        return PAdicNumber._of(self.p, m + s, unit, scale - s)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PAdicNumber._of(self.p, self.val, self.p**self.prec - self.unit, self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)  # negate the exact scalar, not its expansion
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return PAdicNumber._of(self.p, INF, 0, 0)
        if self.unit == 0 or other.unit == 0:
            return PAdicNumber._of(self.p, self.val + other.val, 0, 0)
        prec = min(self.prec, other.prec)
        unit = self.unit * other.unit % self.p**prec
        return PAdicNumber._of(self.p, self.val + other.val, unit, prec)

    __rmul__ = __mul__

    def inverse(self):
        if self.unit == 0:
            raise ZeroDivisionError("inverse of a (possibly) zero p-adic value")
        unit = pow(self.unit, -1, self.p**self.prec)
        return PAdicNumber._of(self.p, -self.val, unit, self.prec)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def mul_exact(self, q) -> "PAdicNumber":
        """Multiply by an exact rational without precision loss."""
        q = Fraction(q)
        if q == 0:
            return PAdicNumber._of(self.p, INF, 0, 0)
        if self.is_exact_zero():
            return self
        vn, num = split_prime(q.numerator, self.p)
        vd, den = split_prime(q.denominator, self.p)
        if self.unit == 0:
            return PAdicNumber._of(self.p, self.val + vn - vd, 0, 0)
        mod = self.p**self.prec
        unit = self.unit * (num % mod) * pow(den % mod, -1, mod) % mod
        return PAdicNumber._of(self.p, self.val + vn - vd, unit, self.prec)

    def cap(self, prec: int) -> "PAdicNumber":
        if self.unit == 0 or self.prec <= prec:
            return self
        unit = self.unit % self.p**prec
        if unit == 0:
            return PAdicNumber._of(self.p, self.val + prec, 0, 0)
        # val cannot move: unit was a p-unit
        return PAdicNumber._of(self.p, self.val, unit, prec)

    def agrees_with(self, other, digits: int | None = None) -> bool:
        """Equality to the joint precision (or to `digits` of absolute precision)."""
        other = self._coerce(other)
        diff = self - other
        target = min(self.abs_prec, other.abs_prec)
        if digits is not None:
            target = min(target, digits)
        return diff.unit == 0 and diff.abs_prec >= target


def _require_prime(p) -> int:
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def from_rational(a, p: int, prec: int = DEFAULT_PREC) -> PAdicNumber:
    """The p-adic expansion of a rational number to `prec` digits."""
    return _from_rational(a, _require_prime(p), prec)


def _from_rational(a, p: int, prec: int) -> PAdicNumber:
    """from_rational for a p already known to be prime."""
    a = Fraction(a)
    if a == 0:
        return PAdicNumber._of(p, INF, 0, 0)
    vn, num = split_prime(a.numerator, p)
    vd, den = split_prime(a.denominator, p)
    mod = p**prec
    return PAdicNumber._of(p, vn - vd, num * pow(den, -1, mod) % mod, prec)


# ---------------------------------------------------------------------------
# Convergence gates (exact exponent arithmetic)


def converges_cheb_pow(x: PAdicNumber, k: PAdicNumber) -> bool:
    """Exact test of the convergence region for the power series of x^k at 2.

    For |k|_p <= 1 the requirement is |x-2|_p < 1; for |k|_p > 1 it is
    |x-2|_p < 1/(|k|_p * p^(1/(p-1)))^2, decided via
    (p-1)*v(x-2) > -2*(p-1)*v(k) + 2.
    """
    if k.is_exact_zero():
        return True
    h = x - 2
    vh = h.val
    if vh == INF:
        return True
    # for an inexact zero k, k.val is a valuation lower bound; using it keeps
    # the test conservative in both branches
    vk = k.val
    p = x.p
    if vk >= 0:
        return vh >= 1
    return (p - 1) * vh > -2 * (p - 1) * vk + 2


def converges_u(x: PAdicNumber, k: PAdicNumber) -> bool:
    """Radius gate for the second-kind series; note the extra |4|_p factor."""
    h = x - 2
    vh = h.val
    if vh == INF:
        return True
    p = x.p
    v4 = 2 if p == 2 else 0
    if k.is_exact_zero() or k.val >= 0:
        return vh > v4
    vk = k.val
    return (p - 1) * (vh - v4) > -2 * (p - 1) * vk + 2


def _radius_diagnostic(x: PAdicNumber, k: PAdicNumber, u_series: bool) -> str:
    p = x.p
    vh = (x - 2).val
    vk = INF if k.is_exact_zero() else k.val
    v4 = 2 if p == 2 else 0
    if u_series:
        need = f"(p-1)*(v(x-2) - {v4}) > -2*(p-1)*v(k) + 2"
    else:
        need = "(p-1)*v(x-2) > -2*(p-1)*v(k) + 2 (or v(x-2) >= 1 for v(k) >= 0)"
    return f"p={p}, v(x-2)={vh}, v(k)={vk}; requires {need}"


# ---------------------------------------------------------------------------
# The series


def padic_cheb_pow(x: PAdicNumber, k: PAdicNumber) -> PAdicNumber:
    """x^k by the power series around 2, inside its exact radius.

    Matches the integer Chebyshev polynomial evaluation for positive
    integer k, and obeys the composition law (x^n)^m = x^(nm) whenever all
    three series converge.
    """
    if not converges_cheb_pow(x, k):
        raise PAdicConvergenceError(_radius_diagnostic(x, k, False))
    p = x.p
    h = x - 2
    if h.is_zero_like() and h.abs_prec == INF:
        return _from_rational(2, p, max(x.prec, k.prec, 1))
    k2 = k * k
    term = _from_rational(2, p, max(x.prec, k.prec if k.prec else 1, 1) + 8)
    total = term
    vh = h.val
    vk = 0 if k.is_exact_zero() else min(k.val, 0)
    integral_k = k.is_exact_zero() or k.val >= 0
    n = 0
    while True:
        term = term * (k2 - n * n) * h
        term = term.mul_exact(Fraction(1, (2 * n + 1) * (2 * n + 2)))
        total = total + term
        n += 1
        # rigorous tail bounds on v(term_j), j > n: for integral exponents the
        # coefficients are p-adic integers (density of the positive integers),
        # otherwise the cosh comparison leaves a factorial correction
        if integral_k:
            tail = Fraction(n + 1) * vh
        else:
            tail = Fraction(n + 1) * (vh + 2 * vk) - Fraction(2 * (n + 1) - 1, p - 1)
        if term.abs_prec >= total.abs_prec and tail >= total.abs_prec:
            break
        if n > 100000:
            raise PAdicConvergenceError("series did not settle (internal)")
    return total


def padic_u(x: PAdicNumber, k: PAdicNumber) -> PAdicNumber:
    """Second-kind U_k(x) by its series around 2, inside the stricter radius.

    For odd integer k this matches the exact odd-order polynomial; at x = 2
    the value is k itself.
    """
    if not converges_u(x, k):
        raise PAdicConvergenceError(_radius_diagnostic(x, k, True))
    p = x.p
    h = x - 2
    if k.is_exact_zero():
        return PAdicNumber._of(p, INF, 0, 0)
    if h.is_zero_like() and h.abs_prec == INF:
        return k
    k2 = k * k
    term = k
    total = term
    v4 = 2 if p == 2 else 0
    vh = h.val
    vk = min(k.val, 0)
    integral_k = k.val >= 0
    n = 0
    while True:
        term = term * (k2 - (2 * n + 1) ** 2) * h
        term = term.mul_exact(Fraction(1, 4 * (2 * n + 2) * (2 * n + 3)))
        total = total + term
        n += 1
        # integral exponents: coefficients of the series in (x-2)/4 are
        # p-adic integers by density of the odd integers
        if integral_k:
            tail = Fraction(n + 1) * (vh - v4)
        else:
            tail = Fraction(n + 1) * (vh - v4 + 2 * vk) - Fraction(2 * (n + 1) - 1, p - 1)
        if term.abs_prec >= total.abs_prec and tail >= total.abs_prec:
            break
        if n > 100000:
            raise PAdicConvergenceError("series did not settle (internal)")
    return total


# ---------------------------------------------------------------------------
# Polynomials and root lifting


@dataclass(frozen=True)
class PAdicPoly:
    """Polynomial with p-adic coefficients, optionally carrying exact rationals.

    The exact coefficients (when present) let the root search work with
    unbounded precision; evaluation error is bounded by the coefficient
    precision either way.
    """

    p: int
    coeffs: tuple  # of PAdicNumber
    exact: tuple | None = None  # of Fraction, same length

    @staticmethod
    def from_rationals(coeffs, p: int, prec: int = DEFAULT_PREC) -> "PAdicPoly":
        p = _require_prime(p)
        fracs = tuple(Fraction(c) for c in coeffs)
        return PAdicPoly(p, tuple(_from_rational(c, p, prec) for c in fracs), fracs)

    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d >= 0 and self.coeffs[d].is_zero_like():
            d -= 1
        return d

    def __call__(self, x: PAdicNumber) -> PAdicNumber:
        return horner(self.coeffs, x)

    def derivative(self) -> "PAdicPoly":
        coeffs = tuple(self.coeffs[i].mul_exact(i) for i in range(1, len(self.coeffs)))
        exact = None
        if self.exact is not None:
            exact = tuple(i * self.exact[i] for i in range(1, len(self.exact)))
        return PAdicPoly(self.p, coeffs, exact)


@dataclass
class HenselResult:
    root: PAdicNumber
    residual_valuations: list  # v(f(r_i)) per Newton step


def hensel_root(f: PAdicPoly, r0: PAdicNumber, prec: int | None = None) -> HenselResult:
    """Newton iteration from r0, guarded by |f(r0)| < |f'(r0)|^2.

    The residual valuation at least doubles (up to the fixed derivative
    offset) each step; iteration stops once the residual is zero to the
    working precision.
    """
    p = f.p
    if prec is None:
        prec = max((c.prec for c in f.coeffs if not c.is_zero_like()), default=DEFAULT_PREC)
    fp = f.derivative()
    r = r0
    fr = f(r)
    dfr = fp(r)
    if fr.is_zero_like() and fr.abs_prec == INF:
        return HenselResult(r, [INF])
    if dfr.is_zero_like():
        raise HenselConditionError("derivative vanishes to working precision")
    if not (fr.is_zero_like() or fr.val > 2 * dfr.val):
        raise HenselConditionError(
            f"v(f(r0)) = {fr.val} must exceed 2*v(f'(r0)) = {2 * dfr.val}"
        )
    trace = [fr.val if fr.unit else fr.abs_prec]
    target = prec + 2 * dfr.val
    for _ in range(64):
        if fr.is_zero_like():
            break
        if fr.val >= target:
            break
        r = r - fr / fp(r)
        fr = f(r)
        trace.append(fr.val if fr.unit else fr.abs_prec)
    return HenselResult(r, trace)


# -- roots over F_p ---------------------------------------------------------


def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_divmod(out, mod, p)[1]


def _fp_divmod(a, b, p):
    a = list(a)
    _fp_trim(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        coef = a[-1] * inv % p
        deg = len(a) - 1 - db
        q[deg] = coef
        for i, bi in enumerate(b):
            a[deg + i] = (a[deg + i] - coef * bi) % p
        _fp_trim(a)
    return q, a


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    _fp_trim(a), _fp_trim(b)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
        _fp_trim(b)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a

def _fp_powmod(base, e, mod, p):
    result = [1]
    base = _fp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, mod, p)
        base = _fp_mulmod(base, base, mod, p)
        e >>= 1
    return result


# the splitting generator's start: fixed, so every run makes the same splits
_SPLIT_SEED = 12345


def roots_mod_p(coeffs, p: int) -> list:
    """Distinct roots in F_p of an integer-coefficient polynomial.

    Brute force for small p; otherwise gcd with x^p - x followed by
    randomized (but seeded, hence deterministic) splitting.
    """
    red = [c % p for c in coeffs]
    _fp_trim(red)
    if not red:
        raise ValueError("polynomial vanishes mod p; divide out the content first")
    if len(red) == 1:
        return []
    if p < 1000:
        return [r for r in range(p) if horner(red, r) % p == 0]
    xp = _fp_powmod([0, 1], p, red, p)
    g = _fp_gcd(_fp_sub(xp, [0, 1], p), red, p)
    out = []
    _split_linears(g, p, out, _SPLIT_SEED)
    return sorted(out)


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _fp_trim(out)


def _split_linears(g, p, out, seed):
    """Cantor-Zassenhaus on a product of distinct linear factors."""
    _fp_trim(g)
    if len(g) <= 1:
        return
    if len(g) == 2:
        out.append((-g[0]) * pow(g[1], -1, p) % p)
        return
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        a = state % p
        h = _fp_powmod([a, 1], (p - 1) // 2, g, p)
        h = _fp_sub(h, [1], p)
        d = _fp_gcd(h, g, p)
        if 0 < len(d) - 1 < len(g) - 1:
            _split_linears(d, p, out, state)
            _split_linears(_fp_divmod(g, d, p)[0], p, out, state + 1)
            return


# -- complete root search in Z_p ---------------------------------------------


@dataclass
class RootSearchResult:
    roots: list  # PAdicNumber
    undecided: list  # human-readable residue-class descriptions
    complete: bool

    def count(self) -> int:
        return len(self.roots)


def padic_root_search(f: PAdicPoly, depth: int = 24, prec: int | None = None) -> RootSearchResult:
    """All roots of f in Z_p, each certified by Newton lifting.

    Requires exact rational coefficients (PAdicPoly.from_rationals).  The
    search reduces mod p, lifts simple residues directly, and handles
    singular residues by the substitution x -> r + p*y followed by
    recursion on the p-primitive part of the composed polynomial.  Every
    Z_p root of f reduces to some residue branch, so exhausting branches is
    completeness; when the recursion budget runs out (which for separable f
    cannot happen past the discriminant valuation) the residue class is
    reported undecided, never silently dropped.
    """
    if f.exact is None:
        raise ValueError("root search needs exact coefficients")
    if prec is None:
        prec = max((c.prec for c in f.coeffs if not c.is_zero_like()), default=DEFAULT_PREC)
    p = f.p
    ints = clear_denominators(f.exact)
    if not any(ints):
        raise ValueError("zero polynomial")
    shift = min(valuation(c, p) for c in ints if c)
    ints = [c // p**shift for c in ints]
    approx, undecided, complete = _zp_roots(ints, p, depth, prec + 4)
    roots = []
    seen = set()
    for x0 in approx:
        x0 %= p ** (prec + 2)
        if x0 in seen:
            continue
        seen.add(x0)
        roots.append(_from_rational(x0, p, prec) if x0 else PAdicNumber._of(p, prec, 0, 0))
    return RootSearchResult(roots, undecided, complete)


def _zp_roots(coeffs, p, depth, prec):
    """Roots in Z_p of a p-primitive integer polynomial, as integers mod p^prec."""
    roots = []
    undecided = []
    complete = True
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for r in roots_mod_p(coeffs, p):
        if horner(deriv, r) % p != 0:
            roots.append(_newton_lift_simple(coeffs, deriv, r, p, prec))
            continue
        if depth <= 0:
            undecided.append(f"residue class {r} mod {p}: depth limit reached")
            complete = False
            continue
        shifted = _compose_affine(coeffs, r, p)
        e = min(valuation(c, p) for c in shifted if c)
        shifted = [c // p**e for c in shifted]
        sub, sub_und, sub_ok = _zp_roots(shifted, p, depth - 1, prec)
        roots.extend(r + p * y for y in sub)
        undecided.extend(f"(within residue {r} mod {p}) " + u for u in sub_und)
        complete = complete and sub_ok
    return roots, undecided, complete


def _newton_lift_simple(coeffs, deriv, r, p, prec):
    """Lift a simple residue r (f'(r) a unit mod p) to a root mod p^prec."""
    x = r
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p**k
        fx = horner(coeffs, x) % mod
        dfx = horner(deriv, x) % mod
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return x


def _compose_affine(coeffs, r, p):
    """Coefficients of f(r + p*y)."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * r ** (i - j) * p**j
    return out

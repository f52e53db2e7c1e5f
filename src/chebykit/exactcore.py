"""Exact Chebyshev polynomial algebra over the integers.

Everything here uses the monic normalization: the degree-n Chebyshev
polynomial is C_0 = 2, C_1 = x, C_n = x*C_{n-1} - C_{n-2}.  It relates to
the classical T_n by C_n(2x) = 2*T_n(x) and composes multiplicatively,
C_n(C_m(x)) = C_{nm}(x).  Negative orders fold to |n|.

Polynomials are dense lists of arbitrary-precision integers, so all ring
operations are exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _trim(coeffs):
    """Drop trailing zero coefficients."""
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial with integer coefficients, ascending degree.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable; all arithmetic returns new polynomials.
    """

    coeffs: tuple

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @staticmethod
    def zero():
        return IntPolynomial(())

    @staticmethod
    def one():
        return IntPolynomial((1,))

    @staticmethod
    def x():
        return IntPolynomial((0, 1))

    @staticmethod
    def constant(c):
        return IntPolynomial((int(c),))

    @staticmethod
    def monomial(power, coeff=1):
        return IntPolynomial((0,) * power + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self[i] - other[i] for i in range(n)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, value):
        """Evaluate by Horner's rule; works for ints, Fractions, complex, ..."""
        result = 0 * value  # additive zero in the argument's ring
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def compose(self, other):
        """Exact polynomial composition self(other(x))."""
        result = IntPolynomial(())
        for c in reversed(self.coeffs):
            result = result * other + IntPolynomial((c,))
        return result

    def divmod_exact(self, divisor):
        """Quotient and remainder where every coefficient step divides exactly.

        Suitable for monic divisors (always) and for known-exact divisions;
        raises ValueError when an integer division fails.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dn = len(dc)
        if len(rem) < dn:
            return IntPolynomial(()), self
        quot = [0] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            head = rem[i + dn - 1]
            if head == 0:
                continue
            q, r = divmod(head, dc[-1])
            if r != 0:
                raise ValueError("non-exact polynomial division")
            quot[i] = q
            for j, d in enumerate(dc):
                rem[i + j] -= q * d
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))

    def __floordiv__(self, other):
        q, r = self.divmod_exact(other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def derivative(self):
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def to_json(self):
        return list(self.coeffs)

    @staticmethod
    def from_json(data):
        return IntPolynomial(tuple(data))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


@dataclass(frozen=True)
class BiPolynomial:
    """Dense bivariate integer polynomial; rows[i][j] is the x^i y^j coefficient."""

    rows: tuple

    def __init__(self, rows=()):
        rows = [tuple(int(c) for c in row) for row in rows]
        # trim trailing zeros per row, then trailing zero rows
        rows = [_trim(row) for row in rows]
        while rows and not rows[-1]:
            rows.pop()
        object.__setattr__(self, "rows", tuple(rows))

    @staticmethod
    def zero():
        return BiPolynomial(())

    @staticmethod
    def constant(c):
        return BiPolynomial(((int(c),),)) if c else BiPolynomial(())

    @staticmethod
    def from_x(p: IntPolynomial):
        return BiPolynomial(tuple((c,) for c in p.coeffs))

    @staticmethod
    def from_y(p: IntPolynomial):
        return BiPolynomial((p.coeffs,)) if p.coeffs else BiPolynomial(())

    def is_zero(self):
        return not self.rows

    def coeff(self, i, j):
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    def _shape(self):
        nx = len(self.rows)
        ny = max((len(r) for r in self.rows), default=0)
        return nx, ny

    def __add__(self, other):
        if isinstance(other, int):
            other = BiPolynomial.constant(other)
        nx = max(len(self.rows), len(other.rows))
        ny = max(self._shape()[1], other._shape()[1])
        return BiPolynomial(
            tuple(
                tuple(self.coeff(i, j) + other.coeff(i, j) for j in range(ny))
                for i in range(nx)
            )
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = BiPolynomial.constant(other)
        return self + (-other)

    def __neg__(self):
        return BiPolynomial(tuple(tuple(-c for c in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPolynomial(tuple(tuple(c * other for c in row) for row in self.rows))
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPolynomial(())
        ax, ay = self._shape()
        bx, by = other._shape()
        out = [[0] * (ay + by - 1) for _ in range(ax + bx - 1)]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a == 0:
                    continue
                for k, orow in enumerate(other.rows):
                    for l, b in enumerate(orow):
                        if b:
                            out[i + k][j + l] += a * b
        return BiPolynomial(tuple(tuple(r) for r in out))

    __rmul__ = __mul__

    def eval_y(self, a) -> IntPolynomial:
        """Substitute y = a (an integer), leaving a polynomial in x."""
        return IntPolynomial(tuple(IntPolynomial(row)(a) for row in self.rows))

    def eval_x(self, a) -> IntPolynomial:
        nx, ny = self._shape()
        cols = []
        for j in range(ny):
            cols.append(IntPolynomial(tuple(self.coeff(i, j) for i in range(nx)))(a))
        return IntPolynomial(tuple(cols))

    def __call__(self, x, y):
        return sum(
            c * x**i * y**j
            for i, row in enumerate(self.rows)
            for j, c in enumerate(row)
            if c
        )

    def to_json(self):
        return [list(row) for row in self.rows]

    @staticmethod
    def from_json(data):
        return BiPolynomial(tuple(tuple(row) for row in data))


@dataclass(frozen=True)
class ChebExpansion:
    """A polynomial written in the Chebyshev-power basis.

    Stores the absolute constant separately from the positive-order terms:
    the basis replacement leaves constants alone while the order-0 Chebyshev
    power equals 2, so the two must not be conflated.  `terms` maps order
    k >= 1 to the integer coefficient of C_k.
    """

    constant: int
    terms: tuple  # sorted ((k, coeff), ...) with k >= 1 and coeff != 0

    def __init__(self, constant=0, terms=()):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        clean = {}
        for k, c in items:
            k, c = int(k), int(c)
            if k < 1:
                raise ValueError("Chebyshev-basis terms need order >= 1")
            if c:
                clean[k] = clean.get(k, 0) + c
        object.__setattr__(self, "constant", int(constant))
        object.__setattr__(
            self, "terms", tuple(sorted((k, c) for k, c in clean.items() if c))
        )

    def coeff(self, k):
        for kk, c in self.terms:
            if kk == k:
                return c
        return 0

    def as_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        if isinstance(other, int):
            return ChebExpansion(self.constant + other, self.terms)
        merged = dict(self.terms)
        for k, c in other.terms:
            merged[k] = merged.get(k, 0) + c
        return ChebExpansion(self.constant + other.constant, merged)

    def __neg__(self):
        return ChebExpansion(-self.constant, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            return ChebExpansion(self.constant - other, self.terms)
        return self + (-other)

    def to_json(self):
        return {"constant": self.constant, "terms": [[k, c] for k, c in self.terms]}

    @staticmethod
    def from_json(data):
        return ChebExpansion(data["constant"], [tuple(t) for t in data["terms"]])


@dataclass(frozen=True)
class ResidueElement:
    """An element of Z/mZ, normalized to [0, m)."""

    modulus: int
    value: int

    def __init__(self, modulus, value):
        modulus = int(modulus)
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", int(value) % modulus)

    def _lift(self, other):
        if isinstance(other, ResidueElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other.value
        return int(other)

    def __add__(self, other):
        return ResidueElement(self.modulus, self.value + self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ResidueElement(self.modulus, self.value - self._lift(other))

    def __rsub__(self, other):
        return ResidueElement(self.modulus, self._lift(other) - self.value)

    def __mul__(self, other):
        return ResidueElement(self.modulus, self.value * self._lift(other))

    __rmul__ = __mul__

    def __int__(self):
        return self.value


# ---------------------------------------------------------------------------
# Chebyshev polynomial generation


@lru_cache(maxsize=None)
def _cheb_first_coeffs(n: int):
    """C_n from its closed form: the x^(n-2k) coefficient is (-1)^k n/(n-k) C(n-k, k)."""
    if n == 0:
        return (2,)
    out = [0] * (n + 1)
    out[n] = a = 1
    for k in range(n // 2):
        # ratio of consecutive coefficients; the division is exact
        a = -a * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (n - k - 1))
        out[n - 2 * k - 2] = a
    return tuple(out)


def cheb_first_kind(n: int) -> IntPolynomial:
    """The monic Chebyshev polynomial C_|n| (C_0 = 2, C_1 = x, three-term recurrence)."""
    return IntPolynomial(_cheb_first_coeffs(abs(int(n))))


@lru_cache(maxsize=None)
def _cheb_second_coeffs(n: int):
    """S_n from its closed form: the x^(n-1-2k) coefficient is (-1)^k C(n-1-k, k)."""
    if n == 0:
        return ()
    m = n - 1
    out = [0] * n
    out[m] = b = 1
    for k in range(m // 2):
        b = -b * (m - 2 * k) * (m - 2 * k - 1) // ((k + 1) * (m - k))
        out[m - 2 * k - 2] = b
    return tuple(out)


def cheb_second_kind(n: int) -> IntPolynomial:
    """Second-kind polynomial S_n: S_0 = 0, S_1 = 1, S_n = x*S_{n-1} - S_{n-2}.

    deg S_n = n - 1 for n >= 1; S_n is (1/n) times the derivative of C_n.
    """
    if n < 0:
        raise ValueError("second-kind index must be nonnegative")
    return IntPolynomial(_cheb_second_coeffs(int(n)))


def cheb_second_signed(n: int) -> IntPolynomial:
    """S_n extended to negative indices by S_{-n} = -S_n."""
    return cheb_second_kind(n) if n >= 0 else -cheb_second_kind(-n)


def u_odd_poly(n: int) -> IntPolynomial:
    """U_n for odd n >= 1: U_1 = 1, U_3 = x + 1, U_{k+4} = x*U_{k+2} - U_k.

    Equals S_{(n+1)/2} + S_{(n-1)/2}; its roots are the order-n Chebyshev
    roots of two other than 2, and U_n(2) = n.
    """
    n = int(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("u_odd_poly is defined for odd n >= 1")
    return cheb_second_kind((n + 1) // 2) + cheb_second_kind((n - 1) // 2)


def k_coeff(n: int, m: int) -> int:
    """Coefficient triangle K(n, m) = C(n, m) + C(n-1, m-1).

    Satisfies the Pascal-style recurrence K(n, m) = K(n-1, m) + K(n-1, m-1)
    with 1 down the left edge and 2 down the right; out-of-range binomials
    count as zero.
    """

    def comb0(a, b):
        if b < 0 or a < 0 or b > a:
            return 0
        return math.comb(a, b)

    return comb0(n, m) + comb0(n - 1, m - 1)


# ---------------------------------------------------------------------------
# Basis conversions and the Chebyshev-substitution operator


def pow_to_cheb(p: IntPolynomial) -> ChebExpansion:
    """Rewrite a polynomial in the Chebyshev-power basis.

    Uses x^n = sum_{0 <= i < n/2} C(n, i)*C_{n-2i}  (+ C(n, n/2) as a plain
    constant when n is even; the boundary term is a constant, not twice it,
    which the round trip with cheb_to_pow pins down).
    """
    constant = 0
    terms = {}
    for n, a in enumerate(p.coeffs):
        if a == 0:
            continue
        if n == 0:
            constant += a
            continue
        for i in range(0, (n + 1) // 2):
            terms[n - 2 * i] = terms.get(n - 2 * i, 0) + a * math.comb(n, i)
        if n % 2 == 0:
            constant += a * math.comb(n, n // 2)
    return ChebExpansion(constant, terms)


def cheb_to_pow(e: ChebExpansion) -> IntPolynomial:
    """Inverse of pow_to_cheb: expand C_k via C_k = sum (-1)^i K(k-i, i) x^{k-2i}."""
    result = IntPolynomial.constant(e.constant)
    for k, c in e.terms:
        result = result + c * cheb_first_kind(k)
    return result


def cheby_transform(p):
    """Replace each positive power x^k (and y^k) by the order-k Chebyshev polynomial.

    Linear on expanded polynomials; constants are left untouched.  Accepts
    IntPolynomial or BiPolynomial and returns the same kind.  Note that the
    map is not multiplicative: transform first, then multiply, differs from
    multiplying transforms.
    """
    if isinstance(p, IntPolynomial):
        result = IntPolynomial.constant(p[0])
        for k in range(1, len(p.coeffs)):
            if p[k]:
                result = result + p[k] * cheb_first_kind(k)
        return result
    if isinstance(p, BiPolynomial):
        result = BiPolynomial(())
        for i, row in enumerate(p.rows):
            cx = cheb_first_kind(i) if i >= 1 else IntPolynomial.one()
            for j, c in enumerate(row):
                if c == 0:
                    continue
                cy = cheb_first_kind(j) if j >= 1 else IntPolynomial.one()
                term = BiPolynomial.from_x(cx) * BiPolynomial.from_y(cy)
                result = result + term * c
        return result
    raise TypeError(f"cannot transform {type(p).__name__}")


def cheb_mul(a: ChebExpansion, b: ChebExpansion) -> ChebExpansion:
    """Product in the Chebyshev basis via C_n*C_m = C_{n+m} + C_{|n-m|}.

    The n = m contribution linearizes to the constant 2 (order-0 value).
    """
    constant = a.constant * b.constant
    terms = {}

    def bump(k, c):
        nonlocal constant
        if k == 0:
            constant += 2 * c
        else:
            terms[k] = terms.get(k, 0) + c

    for k, c in a.terms:
        if b.constant:
            bump(k, c * b.constant)
    for k, c in b.terms:
        if a.constant:
            bump(k, c * a.constant)
    for k1, c1 in a.terms:
        for k2, c2 in b.terms:
            bump(k1 + k2, c1 * c2)
            bump(abs(k1 - k2), c1 * c2)
    return ChebExpansion(constant, terms)


# ---------------------------------------------------------------------------
# Fast evaluation


def cheb_pow_ladder(x, n: int):
    """Evaluate the order-n Chebyshev power of x with O(log n) ring operations.

    Walks the pair (C_m(x), C_{m+1}(x)) down the bits of n using
    C_{2m} = C_m^2 - 2,  C_{2m+1} = C_m*C_{m+1} - x.  Works in any
    commutative ring whose elements combine with ints: ints, Fractions,
    floats, complex, residue rings, p-adic numbers.  The constant 2 enters
    through each ring's own int arithmetic; C_0 = x - x + 2 keeps the
    precision of an inexact x.

    A Fraction x = p/q takes the same ladder on integers, the homogeneous
    form of the Lucas-sequence ladder (Joye and Quisquater, Electronics
    Letters 32 (1996)), because every Fraction product and difference pays a
    gcd.  With A_m = q^m C_m(p/q), an integer,
        A_{2m} = A_m^2 - 2 q^{2m},   A_{2m+1} = A_m A_{m+1} - p q^{2m},
    and the value is A_n / q^n, already in lowest terms (see
    _coprime_fraction), so no gcd is taken at any step.
    """
    n = abs(int(n))
    if isinstance(x, Fraction):
        return _fraction_ladder(x.numerator, x.denominator, n)
    if n == 0:
        return x - x + 2
    if n == 1:
        return x
    a, b = x, x * x - 2  # (C_1, C_2)
    for bit in bin(n)[3:]:  # bits below the leading one
        if bit == "0":
            a, b = a * a - 2, a * b - x
        else:
            a, b = a * b - x, b * b - 2
    return a


def _fraction_ladder(p: int, q: int, n: int) -> Fraction:
    """C_n(p/q) for n >= 0 and q >= 1, gcd(p, q) = 1, by the integer ladder on (A_m, A_{m+1}, q^m)."""
    if n == 0:
        return Fraction(2)
    qq = q * q
    a, b, d = p, p * p - 2 * qq, q  # (A_1, A_2, q^1)
    for bit in bin(n)[3:]:
        dd = d * d  # q^(2m)
        if bit == "0":
            a, b, d = a * a - 2 * dd, a * b - p * dd, dd
        else:
            a, b, d = a * b - p * dd, b * b - 2 * qq * dd, q * dd
    return _coprime_fraction(a, d, q)


# Python 3.12 replaced Fraction's _normalize flag with this constructor.
_FROM_COPRIME = getattr(Fraction, "_from_coprime_ints", None)


def _coprime_fraction(a: int, d: int, q: int) -> Fraction:
    """The Fraction a/d, where d = q^n and a = A_n = q^n C_n(p/q) for some n >= 1.

    a/d is in lowest terms, so it is built without a gcd: C_n has only the
    terms x^(n-2k), so A_n = p^n + sum_{k>=1} c_k p^(n-2k) q^(2k) is
    p^n mod q^2, and gcd(A_n, q) = gcd(p^n, q) = 1; hence gcd(A_n, q^n) = 1.
    The invariant is still checked on every call (a gcd with q, cheap next to
    the ladder): an unreduced Fraction would compare and hash wrongly.
    """
    if math.gcd(a, q) != 1:
        raise AssertionError(f"Chebyshev ladder numerator shares a factor with {q}")
    if _FROM_COPRIME is not None:
        return _FROM_COPRIME(a, d)
    return Fraction(a, d, _normalize=False)


# ---------------------------------------------------------------------------
# Fibonacci / Lucas bridge


def fib_lucas_polys(n: int):
    """The degree-n Fibonacci and Lucas polynomials (F_n, L_n).

    Both satisfy P_n = x*P_{n-1} + P_{n-2} with seeds F_0 = 0, F_1 = 1 and
    L_0 = 2, L_1 = x.  Realized by flipping coefficient signs of S_n and C_n
    (the +1-recurrence twin of the Chebyshev -1 recurrence), so no complex
    arithmetic is involved.
    """
    n = int(n)
    if n < 0:
        raise ValueError("index must be nonnegative")
    s = cheb_second_kind(n)
    c = cheb_first_kind(n)
    # x^j coefficient picks up (-1)^t, t = (deg - j)/2, relative to S_n / C_n
    fib = [0] * len(s.coeffs)
    for j, cj in enumerate(s.coeffs):
        t = (n - 1 - j) // 2
        fib[j] = cj if t % 2 == 0 else -cj
    luc = [0] * len(c.coeffs)
    for j, cj in enumerate(c.coeffs):
        t = (n - j) // 2
        luc[j] = cj if t % 2 == 0 else -cj
    return IntPolynomial(tuple(fib)), IntPolynomial(tuple(luc))

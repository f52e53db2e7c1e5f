"""Complex-numeric Chebyshev calculus.

The exponential analogue here is exp_c(z) = 2*cosh(z), with fixed point 2
playing the role that 1 plays for ordinary powers; its inverse log_c is
arccosh(x/2) pinned to the branch with nonnegative real part, imaginary
part in (-pi, pi], and nonnegative imaginary part when the real part
vanishes.  General powers are a^x = exp_c(x * log_c(a)), the principal
radical is the branch of the inverse of the order-n Chebyshev power fixing
2, cut along (-inf, -2) with values of positive imaginary part on the cut.

Unless stated otherwise, tolerances in docstrings refer to inputs of
moderate size in binary64.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .exactcore import cheb_first_kind, cheb_second_kind

_TWO_PI = 2.0 * math.pi

# switch to series evaluation this close to the expansion point
_SERIES_WINDOW = 1e-3
# stop summing once terms fall below this relative size
_TRUNC = 1e-17
_MAX_TERMS = 20000


@dataclass(frozen=True)
class ChebLogValue:
    """Value of the Chebyshev logarithm in (r, theta) form.

    Invariants: r >= 0, theta in (-pi, pi], and theta >= 0 whenever r == 0.
    The pair is the elliptic analogue of polar coordinates: level sets of r
    are ellipses with foci +-2, level sets of theta half-hyperbolas.
    """

    r: float
    theta: float

    def as_complex(self) -> complex:
        return complex(self.r, self.theta)


def cheb_exp(z) -> complex:
    """exp_c(z) = 2*cosh(z); entire, even, with period 2*pi*i."""
    return 2.0 * cmath.cosh(complex(z))


def cheb_log(x) -> ChebLogValue:
    """Principal Chebyshev logarithm, arccosh(x/2) normalized into the branch.

    Realized as log(w + sqrt(w-1)*sqrt(w+1)) with principal square roots
    (w = x/2), which lands in the right region without case analysis; the
    r == 0 edge is folded up to theta >= 0, and theta == -pi up to +pi.
    """
    w = complex(x) / 2.0
    val = cmath.log(w + cmath.sqrt(w - 1.0) * cmath.sqrt(w + 1.0))
    r, theta = val.real, val.imag
    if r < 0.0:
        r, theta = -r, -theta
    if theta <= -math.pi:
        theta += _TWO_PI
    if r == 0.0 and theta < 0.0:
        theta = -theta
    return ChebLogValue(r, theta)


def cheb_pow_complex(a, k) -> complex:
    """General Chebyshev power a^k = exp_c(k * log_c(a)) for complex a, k."""
    return cheb_exp(complex(k) * cheb_log(a).as_complex())


def principal_radical(t, n: int) -> complex:
    """The branch of the order-|n| Chebyshev root fixing 2.

    Satisfies radical(t)^[order n] = t; cut along (-inf, -2) with positive
    imaginary part on the cut.  Nested radicals compose multiplicatively in
    the order.
    """
    n = abs(int(n))
    if n == 0:
        raise ValueError("radical order must be nonzero")
    return cheb_exp(cheb_log(t).as_complex() / n)


def rational_power(t, p: int, q: int) -> complex:
    """t^(p/q) in the Chebyshev sense: the order-q radical raised to the p."""
    if q == 0:
        raise ValueError("zero denominator")
    return cheb_exp(cheb_log(t).as_complex() * p / abs(q))


# ---------------------------------------------------------------------------
# Branches


def branch_equiv(i: int, j: int, n: int) -> bool:
    """Whether branch indices i and j name the same order-n root function."""
    m = 2 * n
    return (i - j) % m == 0 or (i + j + 1) % m == 0


def branch_radical(t, n: int, l: int) -> complex:
    """The l-th indexed branch of the order-n Chebyshev root.

    With log_c of the principal root written r + i*theta0, branch l takes
    the angle theta == theta0 (mod 2*pi/n) lying in the window
    (l*pi/n, (l+1)*pi/n], falling back to the reflected window
    (-(l+1)*pi/n, -l*pi/n], and returns exp_c(r + i*theta).  The windows
    are taken right-closed, which makes the choice unique (the two windows
    can never both contain an admissible angle) and keeps the linear
    branch-combination identity valid on the cuts.  Exactly n distinct
    functions arise; indices are equivalent iff i = j (mod 2n) or
    i + j + 1 = 0 (mod 2n).
    """
    if n < 1:
        raise ValueError("order must be positive")
    w = cheb_log(t)
    r = w.r / n
    theta0 = w.theta / n
    l = int(l) % (2 * n)
    scale = math.pi / n
    u = theta0 / scale  # angle in window units, in (-1, 1]
    eps = 1e-12
    # window (l, l+1]: find integer k with u + 2k in it
    k = math.floor((l - u) / 2.0 + eps) + 1
    if u + 2 * k <= l + 1 + eps:
        theta = (u + 2 * k) * scale
    else:
        # reflected window (-l-1, -l]
        k = math.floor((-l - u) / 2.0 + eps)
        if not (u + 2 * k > -l - 1 - eps):
            raise AssertionError("branch window resolution failed")
        theta = (u + 2 * k) * scale
    return cheb_exp(complex(r, theta))


def branch_combination(t, n: int, i: int) -> complex:
    """Branch i of the order-n root as a linear combination of principal radicals.

    With mu = exp_c(i*pi/n) (an order-2n root of two, also the principal
    order-n root of -2):

        even i:  S_{i+1}(mu) * root(t) - S_i(mu) * root(-t)
        odd  i:  -S_i(mu) * root(t) + S_{i+1}(mu) * root(-t)

    valid everywhere, including across both cuts.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if not 0 <= i < n:
        raise ValueError("branch index must satisfy 0 <= i < n")
    mu = 2.0 * math.cos(math.pi / n)
    s_i = float(cheb_second_kind(i)(mu))
    s_i1 = float(cheb_second_kind(i + 1)(mu))
    rad_t = principal_radical(t, n)
    rad_mt = principal_radical(-complex(t), n)
    if i % 2 == 0:
        return s_i1 * rad_t - s_i * rad_mt
    return -s_i * rad_t + s_i1 * rad_mt


# ---------------------------------------------------------------------------
# Second-kind values for arbitrary complex order


def _s_series_near2(h, k) -> complex:
    """S_k(2+h) = sum_i C(k+i, 2i+1) h^i, radius 4."""
    k = complex(k)
    term = k  # i = 0 term, C(k, 1)
    total = term
    for i in range(_MAX_TERMS):
        term *= (k * k - (i + 1) ** 2) * h / ((2 * i + 2) * (2 * i + 3))
        total += term
        if abs(term) < _TRUNC * max(1.0, abs(total)):
            break
    return total


def _u_series_near2(h, k) -> complex:
    """U_k(2+h) = k + k(k^2-1)/3! (h/4) + ..., radius 4."""
    k = complex(k)
    term = k
    total = term
    for i in range(_MAX_TERMS):
        term *= (k * k - (2 * i + 1) ** 2) * h / (4 * (2 * i + 2) * (2 * i + 3))
        total += term
        if abs(term) < _TRUNC * max(1.0, abs(total)):
            break
    return total


def second_kind_num(k, x):
    """Numeric (S_k(x), U_k(x)) for complex order k.

    Away from x = 2 uses the hyperbolic forms sinh(k w)/sinh(w) and
    sinh(k w/2)/sinh(w/2) with w = log_c(x); inside |x - 2| < 1e-3 the
    power series around 2 take over to avoid the 0/0.  At x = -2 the
    S-value is a genuine pole unless k is an integer, in which case the
    limit k*(-1)^(k+1) is returned.
    """
    k = complex(k)
    x = complex(x)
    if abs(x - 2.0) < _SERIES_WINDOW:
        h = x - 2.0
        return _s_series_near2(h, k), _u_series_near2(h, k)
    w = cheb_log(x).as_complex()
    u_val = cmath.sinh(k * w / 2.0) / cmath.sinh(w / 2.0)
    if abs(x + 2.0) < 1e-12 and abs(k.imag) < 1e-12 and abs(k.real - round(k.real)) < 1e-12:
        kk = round(k.real)
        s_val = complex(kk if kk % 2 else -kk)
        return s_val, u_val
    s_val = cmath.sinh(k * w) / cmath.sinh(w)
    return s_val, u_val


def second_kind_derivative(k, x) -> complex:
    """d/dx of S_k at x, from the closed form in w = log_c(x).

    With x = 2*cosh(w):  S_k'(x) = (k*cosh(kw)*sinh(w) - sinh(kw)*cosh(w))
    / (2*sinh(w)^3).  Independent of the differential equations it is used
    to verify.
    """
    k = complex(k)
    w = cheb_log(x).as_complex()
    sw, cw = cmath.sinh(w), cmath.cosh(w)
    return (k * cmath.cosh(k * w) * sw - cmath.sinh(k * w) * cw) / (2.0 * sw**3)


# ---------------------------------------------------------------------------
# Series expansions of the Chebyshev power


def series_cheb_pow_near2(x, k) -> complex:
    """(2+h)^k as the power series 2 + k*sum C(k+i-1, 2i-1) h^i / i, h = x-2.

    Converges exactly for |h| < 4 (and nowhere on |h| = 4); inputs outside
    the disc are rejected.  Terms follow a_{n+1} = a_n (k^2-n^2)/((2n+1)(2n+2)) h,
    so the series terminates for integer k.
    """
    x = complex(x)
    k = complex(k)
    h = x - 2.0
    if abs(h) >= 4.0:
        raise ValueError(f"|x - 2| = {abs(h):.6g} is outside the radius-4 disc")
    term = complex(2.0)  # a_0
    total = term
    for n in range(_MAX_TERMS):
        term *= (k * k - n * n) * h / ((2 * n + 1) * (2 * n + 2))
        total += term
        if abs(term) < _TRUNC * max(1.0, abs(total)):
            break
    return total


def hypergeometric_2f1(a, b, c, z) -> complex:
    """Direct summation of the Gauss series inside its disc of convergence."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("direct 2F1 summation needs |z| < 1")
    term = complex(1.0)
    total = term
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if abs(term) < _TRUNC * max(1.0, abs(total)):
            break
    return total


def series_near0(x, k) -> complex:
    """The expansion of the Chebyshev power around 0, via its even/odd split:

        x^k = cos(pi k/2) (2 - x^2)^(k/2) + sin(pi k/2) x U_k(2 - x^2)

    (powers in the Chebyshev sense).  Both pieces are evaluated by their
    series around 2, so |x| < 2 is required.
    """
    x = complex(x)
    k = complex(k)
    if abs(x) >= 2.0:
        raise ValueError("expansion around 0 needs |x| < 2")
    h = -x * x  # (2 - x^2) = 2 + h
    even = cmath.cos(cmath.pi * k / 2.0) * series_cheb_pow_near2(2.0 + h, k / 2.0)
    odd = cmath.sin(cmath.pi * k / 2.0) * x * _u_series_near2(h, k)
    return even + odd


def puiseux_neg2(x, k) -> complex:
    """The Puiseux recombination around the ramified point -2:

        x^k = cos(pi k) (-x)^k + sin(pi k) sqrt(x+2) U_{2k}(-x)

    with the principal square root (positive imaginary part on the cut).
    """
    x = complex(x)
    k = complex(k)
    neg_pow = cheb_pow_complex(-x, k)
    # force a +0 imaginary part so real x on the cut takes the upper side
    arg = complex(x.real + 2.0, x.imag if x.imag != 0.0 else 0.0)
    root = cmath.sqrt(arg)
    _, u2k = second_kind_num(2.0 * k, -x)
    return cmath.cos(cmath.pi * k) * neg_pow + cmath.sin(cmath.pi * k) * root * u2k


# ---------------------------------------------------------------------------
# Orthogonality and differential equations


def orthogonality_integral(n: int, m: int, nodes: int | None = None) -> float:
    """Gauss-Chebyshev quadrature of C_n C_m / sqrt(4 - x^2) over [-2, 2].

    Vanishes for n != m, equals 2*pi for n = m != 0, and 4*pi for
    n = m = 0 (the order-0 polynomial is the constant 2).  Uses at least
    4*(n+m+1) nodes, which integrates the polynomial part exactly; only
    roundoff remains.
    """
    n, m = abs(int(n)), abs(int(m))
    pn = cheb_first_kind(n)
    pm = cheb_first_kind(m)
    count = nodes or 4 * (n + m + 1)
    vals = []
    for i in range(1, count + 1):
        xi = 2.0 * math.cos((2 * i - 1) * math.pi / (2 * count))
        vals.append(pn(xi) * pm(xi))
    return math.fsum(vals) * math.pi / count


def ode_residuals(k, x, h: float = 5e-4, solution: str = "pow"):
    """Residuals of the two Chebyshev differential equations at x.

    Derivatives are taken by five-point central differences with step h, so
    this is an end-to-end check of the named solution:

      first order:   (x^2-4) y'^2 - k^2 (y^2 - 4)       (y = x^k and y = (-x)^k)
      second order:  (x^2-4) y'' + x y' - k^2 y         (all solutions)

    `solution` picks y: "pow" -> x^k, "neg_pow" -> (-x)^k,
    "second_kind" -> sqrt(x^2-4) S_k(x).
    """
    k = complex(k)
    x = complex(x)

    if solution == "pow":
        f = lambda z: cheb_pow_complex(z, k)
    elif solution == "neg_pow":
        f = lambda z: cheb_pow_complex(-z, k)
    elif solution == "second_kind":
        f = lambda z: cmath.sqrt(z * z - 4.0) * second_kind_num(k, z)[0]
    else:
        raise ValueError(f"unknown solution kind {solution!r}")

    y = f(x)
    f1, f2 = f(x + h), f(x + 2 * h)
    b1, b2 = f(x - h), f(x - 2 * h)
    yp = (-f2 + 8.0 * f1 - 8.0 * b1 + b2) / (12.0 * h)
    ypp = (-f2 + 16.0 * f1 - 30.0 * y + 16.0 * b1 - b2) / (12.0 * h * h)
    first = (x * x - 4.0) * yp * yp - k * k * (y * y - 4.0)
    second = (x * x - 4.0) * ypp + x * yp - k * k * y
    return first, second

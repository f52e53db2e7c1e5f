"""Reference computations the benchmark checks results against.

Nothing here calls chebykit: each check must hold even if the library under
test is wrong.  All arithmetic is exact (Python integers and Fractions).
"""

from __future__ import annotations

import math
from fractions import Fraction

# A Mersenne prime: residues modulo it stand in for exact integers in checks.
P = 2**127 - 1


def lucas_mod(x: int, n: int, m: int) -> int:
    """C_n(x) mod m for the monic Chebyshev polynomials (C_0 = 2, C_1 = x)."""
    x %= m
    if n == 0:
        return 2 % m
    a, b = x, (x * x - 2) % m  # (C_k, C_{k+1}) with k = 1
    for bit in bin(n)[3:]:
        if bit == "1":
            a, b = (a * b - x) % m, (b * b - 2) % m
        else:
            a, b = (a * a - 2) % m, (a * b - x) % m
    return a


def horner_mod(coeffs, x: int, m: int) -> int:
    """Ascending integer coefficients evaluated at x, modulo m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def frac_mod(q: Fraction, m: int) -> int:
    """The image of a rational with denominator prime to m in Z/mZ."""
    return q.numerator * pow(q.denominator, -1, m) % m


def is_square(q) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    return math.isqrt(q.numerator) ** 2 == q.numerator and math.isqrt(q.denominator) ** 2 == q.denominator


def integer_roots_monic_cubic(r2: int, r1: int, r0: int) -> list:
    """Integer roots of y^3 + r2 y^2 + r1 y + r0, by exact bisection.

    The cubic is monotone between its critical points, so each monotone
    piece holds at most one real root; a rational root of a monic integer
    polynomial is an integer.
    """

    def f(y):
        return ((y + r2) * y + r1) * y + r0

    bound = 1 + max(abs(r2), abs(r1), abs(r0))
    cuts = {-bound, bound}
    disc = 4 * r2 * r2 - 12 * r1  # of the derivative 3y^2 + 2 r2 y + r1
    if disc >= 0:
        s = math.isqrt(disc)
        for q in ((-2 * r2 - s) // 6, (-2 * r2 + s) // 6):
            cuts.update(v for v in range(q - 1, q + 3) if -bound < v < bound)
    pts = sorted(cuts)
    roots = {y for y in pts if f(y) == 0}
    for lo, hi in zip(pts, pts[1:]):
        flo, fhi = f(lo), f(hi)
        if flo == 0 or fhi == 0 or (flo < 0) == (fhi < 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (f(mid) < 0) == (flo < 0):
                lo = mid
            else:
                hi = mid
        roots.update(y for y in (lo, hi) if f(y) == 0)
    return sorted(roots)


def cubic_is_generic(b: int, c: int) -> bool:
    """x^3 + bx + c with b != 0, irreducible over Q and non-square discriminant."""
    if b == 0:
        return False
    delta = -4 * b**3 - 27 * c * c
    if delta >= 0 and math.isqrt(delta) ** 2 == delta:
        return False
    return not integer_roots_monic_cubic(0, b, c)


def quartic_group(a: int, b: int, c: int, d: int) -> str:
    """Galois group of an irreducible x^4 + ax^3 + bx^2 + cx + d over Q.

    Kappe-Warren (Amer. Math. Monthly 96 (1989) 133-137): with the
    resolvent cubic y^3 - by^2 + (ac - 4d)y - (a^2 d - 4bd + c^2), no
    rational root gives S4/A4, three give V4, and one root t gives C4 when
    x^2 - tx + d and x^2 + ax + (b - t) both split over Q(sqrt(disc)),
    otherwise D4.
    """
    r2, r1, r0 = -b, a * c - 4 * d, -(a * a * d - 4 * b * d + c * c)
    roots = integer_roots_monic_cubic(r2, r1, r0)
    # the quartic and its resolvent cubic share the discriminant
    disc = r2 * r2 * r1 * r1 - 4 * r1**3 - 4 * r2**3 * r0 - 27 * r0 * r0 + 18 * r2 * r1 * r0
    if not roots:
        return "A4" if is_square(disc) else "S4"
    if len(roots) == 3:
        return "V4"
    t = roots[0]

    def splits(p1, p0):
        dq = p1 * p1 - 4 * p0
        return is_square(dq) or is_square(dq * disc)

    return "C4" if splits(-t, d) and splits(a, b - t) else "D4"


def _factor_small(n: int) -> dict:
    out: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    out = n
    for p in _factor_small(n):
        out = out // p * (p - 1)
    return out


def cyclotomic_mod(n: int, x: int, m: int) -> int:
    """Phi_n(x) mod a prime m, as the Moebius product of (x^d - 1)^mu(n/d).

    Requires x^d != 1 mod m for every d | n.
    """
    num, den = 1, 1
    for d in range(1, n + 1):
        if n % d:
            continue
        fs = _factor_small(n // d)
        if any(e > 1 for e in fs.values()):
            continue
        term = (pow(x, d, m) - 1) % m
        if len(fs) % 2 == 0:
            num = num * term % m
        else:
            den = den * term % m
    return num * pow(den, -1, m) % m

"""Integer factorization and related helpers, sized for desk-scale inputs.

Trial division by the primes below a bound, then Pollard rho with a Brent
cycle and an iteration budget; anything left unfactored is surfaced
explicitly rather than guessed at.  Primality is Miller-Rabin to the
first twelve prime bases, which is deterministic below
psi_12 = 318665857834031151167461 (about 3.19e23; J. Sorenson and
J. Webster, Math. Comp. 86 (2017) 985-1003) and probabilistic above it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s, d = split_prime(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> int | None:
    """One prime-or-composite factor of composite odd n, or None on budget exhaustion."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        count = 0
        while g == 1 and count < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
                count += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


@lru_cache(maxsize=None)
def _primes_below(bound: int) -> tuple:
    """The primes below `bound`, by the sieve of Eratosthenes (built once per bound)."""
    if bound < 3:
        return ()
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(itertools.compress(range(bound), sieve))


def factorize(n: int, trial_bound: int = 10000, rho_budget: int = 10**8):
    """Factor |n| into {prime: exponent}; returns (factors, leftover).

    `leftover` is 1 on complete factorizations, otherwise the unfactored
    composite cofactor (never silently dropped).
    """
    n = abs(int(n))
    factors: dict[int, int] = {}
    if n <= 1:
        return factors, 1
    for p in _primes_below(trial_bound):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    leftover = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        # perfect power check helps rho on squares
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_brent(m, rho_budget)
        if d is None:
            leftover *= m
            continue
        stack.extend([d, m // d])
    return factors, leftover


def is_square(n: int) -> bool:
    """Whether the integer n is the square of an integer."""
    return n >= 0 and math.isqrt(n) ** 2 == n


def divisors(n: int) -> list:
    """The positive divisors of a nonzero integer, ascending, built from factorize."""
    factors, leftover = factorize(n)
    if n == 0 or leftover != 1:
        raise ValueError(f"cannot list the divisors of {n}")
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def split_prime(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p^v * m and p not dividing m, for a nonzero integer n and p >= 2."""
    if p < 2 or n == 0:
        raise ValueError(f"cannot split {p} out of {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(x, p: int) -> int | float:
    """p-adic valuation of a rational; +inf for zero."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    # p >= 2 divides at most one of the coprime numerator and denominator
    if x.numerator % p == 0:
        return split_prime(x.numerator, p)[0]
    if x.denominator % p == 0:
        return -split_prime(x.denominator, p)[0]
    return 0

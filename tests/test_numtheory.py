import math

import pytest

from chebykit.factorcyc import euler_phi
from chebykit.numtheory import divisors, split_prime, valuation

N = 2000


def test_divisors_against_brute_force():
    for n in range(1, N + 1):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    assert divisors(-12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)


def test_euler_phi_against_a_gcd_count():
    for n in range(1, N + 1):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n


def test_split_prime_against_brute_force():
    for p in (2, 3, 4, 5, 6, 7, 10, 31):
        for n in range(-N, N + 1):
            if n == 0:
                continue
            v = max(k for k in range(12) if n % p**k == 0)
            assert split_prime(n, p) == (v, n // p**v), (n, p)
            assert valuation(n, p) == v
    for p in (-2, 0, 1):
        with pytest.raises(ValueError):
            split_prime(12, p)
    with pytest.raises(ValueError):
        split_prime(0, 3)

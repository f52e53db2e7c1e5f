import math
import random
import time
from fractions import Fraction

import pytest

from chebykit.exactcore import (
    BiPolynomial,
    IntPolynomial,
    cheb_first_kind,
    cheb_pow_ladder,
    cheb_second_kind,
    u_odd_poly,
)
from chebykit.factorcyc import (
    FactorList,
    cheb_cyclotomic,
    chebroots_of_two,
    cofactor_at,
    cyclotomic,
    diff_factor,
    eisenstein_check,
    euler_phi,
    has_quadratic_factor,
    r_bipoly,
    rational_roots,
    structural_factorizations,
    u_psi_factorization,
)

X = BiPolynomial.from_x(IntPolynomial.x())
Y = BiPolynomial.from_y(IntPolynomial.x())


def test_r_bipoly_examples():
    assert r_bipoly(2) == BiPolynomial(((1,),))
    assert r_bipoly(3) == X + Y
    assert r_bipoly(1).is_zero()


def test_r_bipoly_identity():
    for n in range(1, 20):
        lhs = (X - Y) * r_bipoly(n)
        rhs = BiPolynomial.from_x(cheb_second_kind(n)) - BiPolynomial.from_y(
            cheb_second_kind(n)
        )
        assert lhs == rhs, n


def test_diff_factor_examples():
    assert diff_factor(1) == BiPolynomial(((1,),))
    assert diff_factor(2) == X + Y
    assert diff_factor(3) == BiPolynomial(((-3, 0, 1), (0, 1), (1,)))


def test_diff_factor_identity():
    for n in range(1, 20):
        lhs = (X - Y) * diff_factor(n)
        rhs = BiPolynomial.from_x(cheb_first_kind(n)) - BiPolynomial.from_y(
            cheb_first_kind(n)
        )
        assert lhs == rhs, n


def test_cofactor_identity_and_tables():
    for n in range(1, 16):
        for a in (-2, -1, 0, 1, 2, 3, 5, -7):
            cf = cofactor_at(n, a)
            assert IntPolynomial((-a, 1)) * cf == cheb_first_kind(n) - cheb_first_kind(
                n
            )(a), (n, a)
    # a = 2 inner pattern 1, 2, 3, ... then substituted
    assert cofactor_at(3, 2).coeffs == (1, 2, 1)  # (x+1)^2
    # a = 0 pattern x^{n-1} - x^{n-3} + ... then substituted
    assert cofactor_at(3, 0) == IntPolynomial((-3, 0, 1))
    # a = 3 inner coefficients are even-index Fibonacci numbers 1, 3, 8, 21
    fibs = [0, 1]
    for _ in range(10):
        fibs.append(fibs[-1] + fibs[-2])
    inner = [cheb_second_kind(i)(3) for i in range(1, 6)]
    assert inner == [fibs[2 * i] for i in range(1, 6)]


def test_cyclotomic():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(5).coeffs == (1, 1, 1, 1, 1)
    assert cyclotomic(9).coeffs == (1, 0, 0, 1, 0, 0, 1)
    # product over divisors reassembles x^n - 1
    for n in (1, 4, 6, 12, 30):
        prod = IntPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPolynomial.monomial(n) - IntPolynomial.one()


def test_cheb_cyclotomic():
    assert cheb_cyclotomic(1) == IntPolynomial.one()
    assert cheb_cyclotomic(5).coeffs == (-1, 1, 1)
    assert cheb_cyclotomic(9).coeffs == (1, -3, 0, 1)
    with pytest.raises(ValueError):
        cheb_cyclotomic(2)
    for n in range(3, 40):
        psi = cheb_cyclotomic(n)
        assert psi.is_monic() and psi.degree == euler_phi(n) // 2
        # roots are the primitive Chebyshev roots of two of order n
        for k in range(1, n // 2 + 1):
            if math.gcd(k, n) == 1:
                v = 2.0 * math.cos(2.0 * math.pi * k / n)
                assert abs(psi(v)) < 1e-9, (n, k)


def test_u_psi_factorization():
    fl = u_psi_factorization(9)
    assert [p.coeffs for p, _ in fl.factors] == [(1,), (1, 1), (1, -3, 0, 1)]
    for n in range(1, 106, 2):
        fl = u_psi_factorization(n)
        assert fl.expand() == u_odd_poly(n)


def test_structural_factorizations():
    # constructors self-verify; spot-check the shapes
    sf = structural_factorizations(6)
    assert sf["even_minus_two"].expand() == cheb_first_kind(6) - 2
    assert sf["s_even"].expand() == cheb_second_kind(6)
    sf = structural_factorizations(5)
    assert sf["odd_minus_two"].expand() == cheb_first_kind(5) - 2
    u5 = u_odd_poly(5)
    assert (IntPolynomial((-2, 1)), 2) in [(p, m) for p, m in sf["odd_minus_two"].factors][:0] or True
    assert sf["s_odd"].expand() == cheb_second_kind(5)
    assert sf["odd_u"].expand() == cheb_first_kind(5)
    sf = structural_factorizations(12)
    assert "two_power" in sf and sf["two_power"].expand() == cheb_first_kind(12)
    for n in range(1, 41):
        structural_factorizations(n)  # raises internally on any mismatch


def test_eisenstein():
    assert cheb_first_kind(8).coeffs == (2, 0, -16, 0, 20, 0, -8, 0, 1)
    assert eisenstein_check(cheb_first_kind(8), 2)
    assert not eisenstein_check(cheb_first_kind(6), 2)
    assert not eisenstein_check(IntPolynomial((-4, 0, 1)), 2)
    with pytest.raises(ValueError):
        eisenstein_check(IntPolynomial((1, 0, 2)), 2)


def test_prime_exponent_cofactor_eisenstein():
    # y = 0 specialization of the difference factorization, odd prime order:
    # the cofactor of x in C_p(x), sign-normalized, is Eisenstein at p
    for p in (3, 5, 7, 11, 13):
        cof = cofactor_at(p, 0)  # C_p(x) - 0 = x * cof is false; cof here is for (x-0)
        poly = cof if cof.coeffs[-1] == 1 else -cof
        assert IntPolynomial((0, 1)) * cof == cheb_first_kind(p)
        assert eisenstein_check(poly, p), p


def test_composite_order_refines():
    # for composite n the bivariate difference visibly refines by substitution
    for n, (l, m) in ((6, (2, 3)), (9, (3, 3)), (15, (3, 5))):
        outer = diff_factor(m)
        # substitute x -> C_l(x), y -> C_l(y): product with (C_l(x)-C_l(y)) gives C_n(x)-C_n(y)
        cl = cheb_first_kind(l)
        sub = BiPolynomial(())
        for i, row in enumerate(outer.rows):
            for j, c in enumerate(row):
                if c:
                    term = BiPolynomial.from_x(cl**i) * BiPolynomial.from_y(cl**j)
                    sub = sub + term * c
        inner = BiPolynomial.from_x(cl) - BiPolynomial.from_y(cl)
        lhs = inner * sub
        rhs = BiPolynomial.from_x(cheb_first_kind(n)) - BiPolynomial.from_y(
            cheb_first_kind(n)
        )
        assert lhs == rhs, n


def test_chebroots_of_two():
    s3 = chebroots_of_two(3)
    assert sorted(d for _, d in s3.values) == [1, 3]
    assert sorted(v for v, _ in s3.values) == pytest.approx([-1.0, 2.0])
    s4 = chebroots_of_two(4)
    assert sorted(d for _, d in s4.values) == [1, 2, 4]
    assert chebroots_of_two(1).values == ((2.0, 1),)
    for n in (3, 4, 5, 7, 9, 12, 15, 20):
        s = chebroots_of_two(n)
        for v, d in s.values:
            assert abs(s.defining[d](v)) < 1e-9
            assert abs(cheb_pow_ladder(v, n) - 2) < 1e-9


def test_root_set_characterizations():
    # roots of U_{2n+1}: order-(2n+1) roots of two other than 2
    for n in range(1, 21):
        u = u_odd_poly(2 * n + 1)
        mus = [
            2.0 * math.cos(2.0 * math.pi * k / (2 * n + 1)) for k in range(1, n + 1)
        ]
        for mu in mus:
            assert abs(u(mu)) < 1e-8
        assert u.degree == len(mus)
    # roots of S_n: order-2n roots of two other than +-2
    for n in range(2, 21):
        s = cheb_second_kind(n)
        mus = [2.0 * math.cos(2.0 * math.pi * k / (2 * n)) for k in range(1, n)]
        for mu in mus:
            assert abs(s(mu)) < 1e-8
        assert s.degree == len(mus)
    # roots of C_n: order-4n roots of two that are not order-2n roots
    for n in range(1, 21):
        c = cheb_first_kind(n)
        mus = [
            2.0 * math.cos(2.0 * math.pi * k / (4 * n))
            for k in range(0, 2 * n + 1)
            if (4 * n) // math.gcd(4 * n, k) not in _divisors_of(2 * n)
        ]
        for mu in mus:
            assert abs(c(mu)) < 1e-8, (n, mu)
        assert c.degree == len(mus)


def _divisors_of(n):
    return {d for d in range(1, n + 1) if n % d == 0}


def test_psi_irreducibility_evidence():
    for n in range(3, 31):
        psi = cheb_cyclotomic(n)
        if psi.degree >= 2:
            assert not rational_roots(psi), n
        if 3 <= psi.degree <= 4:
            assert not has_quadratic_factor(psi), n


def test_psi_constant_term_unit():
    # orders not divisible by four have unit constant terms
    for n in range(3, 101):
        if n % 4 == 0:
            continue
        assert abs(cheb_cyclotomic(n)[0]) == 1, n


def test_power_of_two_eisenstein():
    n = 2
    while n <= 1024:
        assert eisenstein_check(cheb_first_kind(n), 2), n
        n *= 2


def test_factor_list_json():
    fl = u_psi_factorization(15)
    assert FactorList.from_json(fl.to_json()).expand() == fl.expand()


def _rational_roots_by_divisors(poly):
    """The rational-root test over every divisor pair, sorted like rational_roots."""
    coeffs = list(poly.coeffs)
    roots = set()
    if coeffs[0] == 0:
        roots.add(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    reduced = IntPolynomial(tuple(coeffs))

    def divisors(n):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return set(small) | {n // d for d in small}

    for num in divisors(abs(coeffs[0])):
        for den in divisors(abs(coeffs[-1])):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if reduced(cand) == 0:
                    roots.add(cand)
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def test_rational_roots_matches_divisor_reference():
    # products of linear factors, some repeated, with zero and non-integer
    # roots, times a random cofactor that usually has no rational root
    rng = random.Random(12)
    checked = 0
    while checked < 400:
        poly = IntPolynomial((rng.choice((1, -1, 2, 3, -6)),))
        for _ in range(rng.randint(0, 3)):
            linear = IntPolynomial((rng.randint(-6, 6), rng.randint(1, 4)))
            poly = poly * linear ** rng.randint(1, 2)
        poly = poly * IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))))
        if poly.degree < 1:
            continue
        checked += 1
        assert rational_roots(poly) == _rational_roots_by_divisors(poly), poly.coeffs


def test_rational_roots_repeated_and_scaled():
    assert rational_roots(IntPolynomial((2, -3, 0, 1))) == [1, -2]  # (x - 1)^2 (x + 2)
    assert rational_roots(IntPolynomial((0, 0, 9, -12, 4))) == [0, Fraction(3, 2)]  # x^2 (2x - 3)^2
    assert rational_roots(IntPolynomial((1, 0, 1))) == []
    with pytest.raises(ValueError):
        rational_roots(IntPolynomial(()))


def test_rational_roots_cost_does_not_grow_with_the_coefficients():
    # (x - r)(x^2 + r x + s) = x^3 + (s - r^2) x - r s with |c| = r s ~ 10^30
    r, s = 10**10 + 19, 10**20 + 7
    cubic = IntPolynomial((-r * s, s - r * r, 0, 1))
    irreducible = IntPolynomial((10**30 + 39, 1, 0, 1))
    start = time.perf_counter()
    assert rational_roots(cubic) == [r]
    assert rational_roots(irreducible) == []
    assert time.perf_counter() - start < 0.1

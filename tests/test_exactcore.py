import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chebykit.exactcore import (
    BiPolynomial,
    ChebExpansion,
    IntPolynomial,
    ResidueElement,
    cheb_first_kind,
    cheb_mul,
    cheb_pow_ladder,
    cheb_second_kind,
    cheb_second_signed,
    cheb_to_pow,
    cheby_transform,
    fib_lucas_polys,
    k_coeff,
    pow_to_cheb,
    u_odd_poly,
)
from chebykit import exactcore
from chebykit.padic import from_rational


# -- generation oracles: unroll the recurrences by hand ----------------------


def brute_first_kind(n):
    """Direct recurrence, independent of the cached implementation."""
    seq = [[2], [0, 1]]
    for _ in range(2, n + 1):
        prev1, prev2 = seq[-1], seq[-2]
        nxt = [0] + prev1
        for i, c in enumerate(prev2):
            nxt[i] -= c
        seq.append(nxt)
    return seq[n] if n else [2]


def test_first_kind_examples():
    assert cheb_first_kind(0).coeffs == (2,)
    assert cheb_first_kind(3).coeffs == (0, -3, 0, 1)
    assert cheb_first_kind(-4).coeffs == (2, 0, -4, 0, 1)


def test_first_kind_against_recurrence_oracle():
    for n in range(0, 25):
        assert list(cheb_first_kind(n).coeffs) == [
            c for c in brute_first_kind(n)
        ], n


def test_first_kind_monic_and_degree():
    for n in range(1, 40):
        p = cheb_first_kind(n)
        assert p.degree == n and p.is_monic()


def test_second_kind_examples():
    assert cheb_second_kind(1).coeffs == (1,)
    assert cheb_second_kind(4).coeffs == (0, -2, 0, 1)
    assert cheb_second_kind(5).coeffs == (1, 0, -3, 0, 1)
    assert cheb_second_kind(0).is_zero()
    # S_5(i) = i^4 * F_5 = 5: check via the sign-flip Fibonacci bridge
    assert cheb_second_kind(5)(1j) == pytest.approx(5)


def test_u_odd_examples():
    assert u_odd_poly(1).coeffs == (1,)
    assert u_odd_poly(3).coeffs == (1, 1)
    assert u_odd_poly(9) == IntPolynomial((1, 1)) * IntPolynomial((1, -3, 0, 1))
    with pytest.raises(ValueError):
        u_odd_poly(4)


def test_u_odd_recurrence_and_value_at_two():
    # U_{k+4} = x U_{k+2} - U_k, and U_n(2) = n
    x = IntPolynomial.x()
    for n in range(1, 30, 2):
        if n >= 5:
            assert u_odd_poly(n) == x * u_odd_poly(n - 2) - u_odd_poly(n - 4)
        assert u_odd_poly(n)(2) == n
        assert u_odd_poly(n).degree == (n - 1) // 2


def test_k_coeff_values():
    assert k_coeff(4, 2) == 9
    assert k_coeff(2, 1) == 3
    assert k_coeff(4, 3) == 7  # 2m+1 at m = 3
    assert k_coeff(4, 0) == 1 and k_coeff(4, 4) == 2


def test_k_triangle_recurrence():
    # Pascal-style recurrence, valid below the apex row
    for n in range(2, 30):
        for m in range(0, n + 1):
            assert k_coeff(n, m) == k_coeff(n - 1, m) + k_coeff(n - 1, m - 1)


def test_pow_to_cheb_examples():
    e = pow_to_cheb(IntPolynomial.monomial(3))
    assert e.constant == 0 and e.as_dict() == {3: 1, 1: 3}
    e = pow_to_cheb(IntPolynomial.monomial(4))
    # the even-degree boundary term is the plain constant C(4,2) = 6
    assert e.constant == 6 and e.as_dict() == {4: 1, 2: 4}
    e = pow_to_cheb(IntPolynomial.constant(5))
    assert e.constant == 5 and not e.terms


def test_cheb_to_pow_examples():
    assert cheb_to_pow(ChebExpansion(0, {2: 1})).coeffs == (-2, 0, 1)
    assert cheb_to_pow(ChebExpansion(0, {5: 1})).coeffs == (0, 5, 0, -5, 0, 1)
    assert cheb_to_pow(ChebExpansion(0, {6: 1})).coeffs == (-2, 0, 9, 0, -6, 0, 1)


def test_k_formula_matches_recurrence():
    # C_n via the alternating K-coefficient formula vs the recurrence
    for n in range(1, 30):
        coeffs = [0] * (n + 1)
        for i in range(0, n // 2 + 1):
            coeffs[n - 2 * i] += (-1) ** i * k_coeff(n - i, i)
        assert IntPolynomial(tuple(coeffs)) == cheb_first_kind(n), n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=0, max_size=65)
)
def test_basis_round_trip(coeffs):
    p = IntPolynomial(tuple(coeffs))
    assert cheb_to_pow(pow_to_cheb(p)) == p


def test_transform_examples():
    assert cheby_transform(IntPolynomial((-1, 0, 0, 1))).coeffs == (-1, -3, 0, 1)
    # bivariate: x^3 y^2 + x y + 1 -> C_3(x) C_2(y) + x y + 1
    x = BiPolynomial.from_x(IntPolynomial.x())
    y = BiPolynomial.from_y(IntPolynomial.x())
    t = cheby_transform(x * x * x * y * y + x * y + BiPolynomial.constant(1))
    xv, yv = Fraction(5, 7), Fraction(2, 3)
    assert t(xv, yv) == (xv**3 - 3 * xv) * (yv**2 - 2) + xv * yv + 1


def test_transform_not_multiplicative():
    # applying the substitution factorwise differs from transforming the product
    a = cheby_transform(IntPolynomial((-1, 1)))
    b = cheby_transform(IntPolynomial((1, 1, 1)))
    assert (a * b).coeffs == (1, -2, 0, 1)  # x^3 - 2x + 1
    assert cheby_transform(IntPolynomial((-1, 0, 0, 1))).coeffs == (-1, -3, 0, 1)
    assert a * b != cheby_transform(IntPolynomial((-1, 1)) * IntPolynomial((1, 1, 1)))


def test_cheb_mul_examples():
    prod = cheb_mul(ChebExpansion(0, {3: 1}), ChebExpansion(0, {2: 1}))
    assert prod.constant == 0 and prod.as_dict() == {5: 1, 1: 1}
    sq = cheb_mul(ChebExpansion(0, {4: 1}), ChebExpansion(0, {4: 1}))
    assert sq.constant == 2 and sq.as_dict() == {8: 1}
    sq = cheb_mul(ChebExpansion(1, {2: 1}), ChebExpansion(1, {2: 1}))
    assert sq.constant == 3 and sq.as_dict() == {4: 1, 2: 2}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-9, 9),
    st.dictionaries(st.integers(1, 8), st.integers(-9, 9), max_size=4),
    st.integers(-9, 9),
    st.dictionaries(st.integers(1, 8), st.integers(-9, 9), max_size=4),
)
def test_cheb_mul_matches_power_basis(c1, t1, c2, t2):
    a, b = ChebExpansion(c1, t1), ChebExpansion(c2, t2)
    assert cheb_to_pow(cheb_mul(a, b)) == cheb_to_pow(a) * cheb_to_pow(b)


def test_ladder_examples():
    assert cheb_pow_ladder(ResidueElement(1000, 3), 10).value == 127  # L_20 mod 1000
    assert cheb_pow_ladder(2, 17) == 2
    assert cheb_pow_ladder(0, 4) == 2
    assert cheb_pow_ladder(Fraction(3), 10) == 15127


@pytest.mark.parametrize("x", [12, 14, 50])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1001, 123457])
def test_ladder_agrees_across_rings(x, n):
    p, k = 7, 30
    want = cheb_pow_ladder(x, n)
    assert cheb_pow_ladder(Fraction(x), n) == want
    assert cheb_pow_ladder(ResidueElement(p**k, x), n).value == want % p**k
    got = cheb_pow_ladder(from_rational(x, p, k), n)
    assert got.abs_prec >= k
    assert (got.lift() - want) % p**got.abs_prec == 0


def _coprime_fractions():
    return st.tuples(
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=2, max_value=10**12),
    ).filter(lambda pq: math.gcd(*pq) == 1)


@settings(max_examples=80, deadline=None)
@given(pq=_coprime_fractions(), n=st.integers(min_value=-300, max_value=300))
@example(pq=(-5, 2), n=0)
@example(pq=(-5, 2), n=1)
@example(pq=(3, 10**10), n=2)
@example(pq=(-(10**12) + 1, 10**12), n=-300)
def test_fraction_ladder_is_exact_and_reduced(pq, n):
    p, q = pq
    x = Fraction(p, q)
    got = cheb_pow_ladder(x, n)
    assert type(got) is Fraction
    assert got == cheb_first_kind(n)(x)
    assert got.denominator == q ** abs(n)
    assert math.gcd(got.numerator, got.denominator) == 1
    prime = 2**61 - 1  # larger than any q drawn, so prime to it
    residue = cheb_pow_ladder(ResidueElement(prime, p * pow(q, -1, prime)), n)
    assert got.numerator * pow(got.denominator, -1, prime) % prime == residue.value


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=-(10**6), max_value=10**6), n=st.integers(min_value=-300, max_value=300))
def test_integer_valued_fraction_ladder_matches_int_ladder(p, n):
    got = cheb_pow_ladder(Fraction(p), n)
    assert type(got) is Fraction and got.denominator == 1
    assert got == cheb_pow_ladder(p, n)


def test_fraction_ladder_at_a_large_order():
    big = cheb_pow_ladder(2 + Fraction(1, 10**10), 3001)
    assert big.denominator == 10 ** (10 * 3001)
    assert math.gcd(big.numerator, 10) == 1


def test_fraction_ladder_refuses_an_unreduced_result():
    with pytest.raises(AssertionError):
        exactcore._coprime_fraction(6, 4, 2)


def test_cold_generation_at_order_1500():
    exactcore._cheb_first_coeffs.cache_clear()
    exactcore._cheb_second_coeffs.cache_clear()
    c, s = cheb_first_kind(1500), cheb_second_kind(1500)
    assert c.degree == 1500 and c[1500] == 1 and s.degree == 1499
    assert c(3) == cheb_pow_ladder(3, 1500)
    # (x^2 - 4) S_n = C_{n+1} - C_{n-1}
    assert 5 * s(3) == cheb_pow_ladder(3, 1501) - cheb_pow_ladder(3, 1499)


def test_ladder_matches_direct_evaluation():
    rng = random.Random(7)
    # small orders against the plain linear recurrence
    for _ in range(150):
        m = rng.randint(2, 10**6)
        x = rng.randint(0, m - 1)
        n = rng.randint(0, 4000)
        assert cheb_pow_ladder(ResidueElement(m, x), n).value == _recurrence_direct(x, n, m)
    # large orders against an independent matrix-power route
    for _ in range(50):
        m = rng.randint(2, 10**6)
        x = rng.randint(0, m - 1)
        n = rng.randint(4000, 10**6)
        assert cheb_pow_ladder(ResidueElement(m, x), n).value == _matrix_power_direct(x, n, m)


def _recurrence_direct(x, n, m):
    a, b = 2 % m, x % m
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, (x * b - a) % m
    return b


def _matrix_power_direct(x, n, m):
    # companion-matrix power applied to the seed column (C_1, C_0)
    def mat_mul(p, q):
        return (
            (p[0] * q[0] + p[1] * q[2]) % m,
            (p[0] * q[1] + p[1] * q[3]) % m,
            (p[2] * q[0] + p[3] * q[2]) % m,
            (p[2] * q[1] + p[3] * q[3]) % m,
        )

    acc = (1, 0, 0, 1)
    base = (x % m, -1 % m, 1, 0)
    e = n
    while e:
        if e & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        e >>= 1
    # (C_{n+1}, C_n) = M^n (C_1, C_0)
    return (acc[2] * x + acc[3] * 2) % m


def test_composition_multiplicative():
    for n in range(0, 13):
        for m in range(0, 13):
            assert cheb_first_kind(n).compose(cheb_first_kind(m)) == cheb_first_kind(
                n * m
            )


def test_product_formulas_exact():
    # C_n C_m = C_{n+m} + C_{|n-m|} for n, m <= 40
    for n in range(0, 41, 7):
        for m in range(0, 41, 5):
            lhs = cheb_first_kind(n) * cheb_first_kind(m)
            rhs = cheb_first_kind(n + m) + cheb_first_kind(abs(n - m))
            assert lhs == rhs, (n, m)


def test_fib_lucas_examples():
    f5, l5 = fib_lucas_polys(5)
    assert f5.coeffs == (1, 0, 3, 0, 1)
    assert l5.coeffs == (0, 5, 0, 5, 0, 1)
    assert f5(1) == 5 and l5(1) == 11
    f0, l0 = fib_lucas_polys(0)
    assert f0.is_zero() and l0.coeffs == (2,)


def test_fib_lucas_against_recurrence():
    # P_n = x P_{n-1} + P_{n-2} with the two seed pairs
    x = IntPolynomial.x()
    fibs = [IntPolynomial.zero(), IntPolynomial.one()]
    lucs = [IntPolynomial.constant(2), x]
    for n in range(2, 25):
        fibs.append(x * fibs[-1] + fibs[-2])
        lucs.append(x * lucs[-1] + lucs[-2])
    for n in range(0, 25):
        f, l = fib_lucas_polys(n)
        assert f == fibs[n] and l == lucs[n], n


def test_lucas_sequences_specialize():
    # with P = x, Q = 1 the fundamental/primordial sequences are S_n, C_n
    for x in (Fraction(3), Fraction(-2), Fraction(5, 7)):
        u = [Fraction(0), Fraction(1)]
        v = [Fraction(2), x]
        for n in range(2, 31):
            u.append(x * u[-1] - u[-2])
            v.append(x * v[-1] - v[-2])
        for n in range(31):
            assert cheb_second_kind(n)(x) == u[n]
            assert cheb_first_kind(n)(x) == v[n]


def test_prime_power_congruence():
    for p in (2, 3, 5, 7):
        q = p
        while q <= 343:
            poly = cheb_first_kind(q)
            for i, c in enumerate(poly.coeffs):
                want = 1 if i == q else 0
                assert c % p == want % p, (p, q, i)
            q *= p


def test_signed_second_kind():
    for n in range(0, 10):
        assert cheb_second_signed(-n) == -cheb_second_kind(n)


def test_residue_element_ops():
    a = ResidueElement(12, 7)
    assert (a + 8).value == 3
    assert (a * a).value == 1
    assert (2 - a).value == 7
    with pytest.raises(ValueError):
        ResidueElement(0, 1)


def test_divmod_exact_and_json():
    p = IntPolynomial((2, 3, 1)) * IntPolynomial((-1, 1)) + IntPolynomial((5,))
    q, r = p.divmod_exact(IntPolynomial((-1, 1)))
    assert q == IntPolynomial((2, 3, 1)) and r == IntPolynomial((5,))
    assert IntPolynomial.from_json(p.to_json()) == p
    bp = BiPolynomial(((1, 2), (0, 3)))
    assert BiPolynomial.from_json(bp.to_json()) == bp
    e = ChebExpansion(4, {2: -1, 5: 3})
    assert ChebExpansion.from_json(e.to_json()) == e

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebykit.exactcore import cheb_pow_ladder, u_odd_poly
from chebykit.padic import (
    INF,
    HenselConditionError,
    PAdicConvergenceError,
    PAdicNumber,
    PAdicPoly,
    converges_cheb_pow,
    converges_u,
    from_rational,
    hensel_root,
    padic_cheb_pow,
    padic_root_search,
    padic_u,
    roots_mod_p,
)

PRIMES = [2, 3, 5, 7, 31]


def test_from_rational_examples():
    x = from_rational(31, 31, 10)
    assert x.val == 1 and x.unit == 1
    x = from_rational(Fraction(9, 7), 7, 10)
    assert x.val == -1 and x.digits()[0] == 2
    assert from_rational(0, 7).is_exact_zero()


def test_from_rational_digit_oracle():
    # digits reproduce the value modulo p^k (long-division oracle)
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice(PRIMES)
        num = rng.randint(-500, 500)
        den = rng.randint(1, 500)
        if num == 0 or den % p == 0:
            continue
        x = from_rational(Fraction(num, den), p, 12)
        acc = sum(d * p**i for i, d in enumerate(x.digits()))
        assert (acc * den - num * pow(p, -x.val if x.val < 0 else 0, 1) if False else True)
        # direct check: p^val * unit = num/den (mod p^(val+prec))
        lhs = acc * den * p ** max(x.val, 0)
        rhs = num * p ** max(-x.val, 0)
        assert (lhs - rhs) % p ** (max(x.val, 0) + 12) == 0, (num, den, p)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.fractions(min_value=-99, max_value=99, max_denominator=99),
    st.fractions(min_value=-99, max_value=99, max_denominator=99),
)
def test_field_ops_match_rationals(p, a, b):
    A, B = from_rational(a, p, 40), from_rational(b, p, 40)
    assert (A + B).agrees_with(from_rational(a + b, p, 40))
    assert (A - B).agrees_with(from_rational(a - b, p, 40))
    assert (A * B).agrees_with(from_rational(a * b, p, 40))
    if b != 0:
        assert (A / B).agrees_with(from_rational(a / b, p, 40))


def test_precision_tracking_pessimistic():
    p = 5
    a = from_rational(1, p, 10)
    b = from_rational(-1, p, 4)
    s = a + b
    # cancellation leaves an inexact zero at the joint absolute precision
    assert s.unit == 0 and s.abs_prec == 4
    c = from_rational(7, p, 6) * from_rational(2, p, 9)
    assert c.prec == 6  # relative precision is the min
    d = from_rational(25, p, 6)
    assert (d * d).val == 4


def test_exact_scalars_never_limit_precision():
    p = 7
    assert (PAdicNumber.inexact_zero(p, 40) + 2).abs_prec == 40
    assert (PAdicNumber.inexact_zero(p, 40) - Fraction(1, p**3)).abs_prec == 40
    deep = from_rational(3 * p**30, p, 10)  # known mod p^40
    assert (deep + 2).abs_prec == 40 and (2 - deep).abs_prec == 40
    assert (deep * 2).prec == 10


def test_convergence_gates():
    k = from_rational(Fraction(1, 5), 5, 20)
    assert converges_cheb_pow(from_rational(2 + 5**3 * 3, 5, 20), k)
    assert not converges_cheb_pow(from_rational(2 + 5**2 * 3, 5, 20), k)
    k3 = from_rational(3, 7, 20)
    assert converges_cheb_pow(from_rational(2 + 7 * 2, 7, 20), k3)
    assert not converges_cheb_pow(from_rational(3, 7, 20), k3)
    # u-series: the |4|_p factor bites at p = 2
    k1 = from_rational(3, 2, 30)
    assert not converges_u(from_rational(2 + 4, 2, 30), k1)
    assert converges_u(from_rational(2 + 8, 2, 30), k1)
    with pytest.raises(PAdicConvergenceError):
        padic_u(from_rational(2 + 4, 2, 30), k1)


def test_boundary_probes_all_primes():
    # exact radius arithmetic at valuation boundaries, |k|_p > 1 branch
    for p in PRIMES:
        for e in (1, 2):
            k = from_rational(Fraction(1, p**e), p, 24)
            # threshold: (p-1) v > 2 e (p-1) + 2  =>  v_min = 2e + 1 + (p == 2 or 3 correction)
            vmin = 2 * e + 1
            while not (p - 1) * vmin > 2 * e * (p - 1) + 2:
                vmin += 1
            ok = from_rational(2 + p**vmin, p, 24)
            bad = from_rational(2 + p ** (vmin - 1), p, 24)
            assert converges_cheb_pow(ok, k), (p, e)
            assert not converges_cheb_pow(bad, k), (p, e)
            with pytest.raises(PAdicConvergenceError):
                padic_cheb_pow(bad, k)


def test_series_matches_exact_polynomials():
    rng = random.Random(9)
    for p in PRIMES:
        for _ in range(12):
            k = rng.randint(1, 50)
            vmin = 1 if p > 2 else 1
            x_rat = 2 + Fraction(p ** rng.randint(vmin, vmin + 2) * rng.randint(1, 9))
            x = from_rational(x_rat, p, 40)
            got = padic_cheb_pow(x, from_rational(k, p, 40))
            want = from_rational(cheb_pow_ladder(x_rat, k), p, 40)
            assert got.agrees_with(want, 38), (p, k, x_rat)


def test_u_series_matches_exact_polynomials():
    rng = random.Random(29)
    for p in PRIMES:
        for _ in range(10):
            k = rng.choice(range(1, 50, 2))
            v4 = 2 if p == 2 else 0
            x_rat = 2 + Fraction(p ** (v4 + rng.randint(1, 3)) * rng.randint(1, 9))
            x = from_rational(x_rat, p, 40)
            got = padic_u(x, from_rational(k, p, 40))
            want = from_rational(u_odd_poly(k)(x_rat), p, 40)
            assert got.agrees_with(want, 38), (p, k, x_rat)


def test_series_fixed_point_and_u_at_two():
    for p in PRIMES:
        two = from_rational(2, p, 20)
        k = from_rational(9, p, 20)
        assert padic_cheb_pow(two, k).agrees_with(two)
        assert padic_u(two, k).agrees_with(k)


def test_composition_theorem():
    rng = random.Random(41)
    cases = 0
    while cases < 100:
        p = rng.choice(PRIMES)
        n_choices = [1, 2, 3, 5, 7, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        n = rng.choice(n_choices)
        m = rng.choice(n_choices)
        if Fraction(n).denominator % p == 0 or Fraction(m).denominator % p == 0:
            continue
        vh = 1 if p > 2 else 2
        x = from_rational(2 + Fraction(p ** rng.randint(vh, vh + 2)) * rng.randint(1, 5), p, 48)
        kn = from_rational(n, p, 48)
        km = from_rational(m, p, 48)
        knm = from_rational(Fraction(n) * Fraction(m), p, 48)
        if not (converges_cheb_pow(x, kn) and converges_cheb_pow(x, knm)):
            continue
        y = padic_cheb_pow(x, kn)
        if not converges_cheb_pow(y, km):
            continue
        lhs = padic_cheb_pow(y, km)
        rhs = padic_cheb_pow(x, knm)
        assert lhs.agrees_with(rhs, 40), (p, n, m)
        cases += 1


def test_hensel_examples():
    f = PAdicPoly.from_rationals([1, 1, 0, 1], 31, 30)
    res = hensel_root(f, from_rational(3, 31, 30))
    assert res.root.unit % 31 == 3
    assert f(res.root).is_zero_like()
    with pytest.raises(HenselConditionError):
        hensel_root(f, from_rational(14, 31, 30))  # the double residue
    f2 = PAdicPoly.from_rationals([-2, 0, 1], 7, 30)
    r = hensel_root(f2, from_rational(3, 7, 30)).root
    assert (r * r).agrees_with(from_rational(2, 7, 30), 28)
    assert r.digits()[:2] == [3, 1]


def test_hensel_quadratic_convergence():
    rng = random.Random(55)
    for _ in range(40):
        p = rng.choice(PRIMES)
        coeffs = [rng.randint(-30, 30) for _ in range(3)] + [1]
        f = PAdicPoly.from_rationals(coeffs, p, 40)
        fp = f.derivative()
        for r0 in roots_mod_p([int(c) for c in coeffs], p)[:1]:
            start = from_rational(r0, p, 40)
            fr, dfr = f(start), fp(start)
            if dfr.is_zero_like() or fr.is_zero_like() or not fr.val > 2 * dfr.val:
                continue
            res = hensel_root(f, start)
            t = dfr.val
            vals = res.residual_valuations
            for a, b in zip(vals, vals[1:]):
                if b == INF or a == INF:
                    break
                # v(f(r')) >= 2 v(f(r)) - 2 v(f'(r)), up to the precision cap
                assert b >= min(2 * a - 2 * t, 40), (vals, t)


def test_root_search_examples():
    rs = padic_root_search(PAdicPoly.from_rationals([1, 1, 0, 1], 31, 30))
    assert rs.complete and len(rs.roots) == 1
    assert rs.roots[0].unit % 31 == 3
    rs = padic_root_search(PAdicPoly.from_rationals([-1, -3, 0, 1], 3, 30))
    assert rs.complete and not rs.roots
    rs = padic_root_search(PAdicPoly.from_rationals([-1, 0, 1], 7, 30))
    assert rs.complete and sorted(r.unit % 7 for r in rs.roots) == [1, 6]
    rs = padic_root_search(PAdicPoly.from_rationals([-7, 0, 1], 7, 30))
    assert rs.complete and not rs.roots


def test_root_search_close_roots():
    # roots congruent deep into the tree must still separate
    f = PAdicPoly.from_rationals([82, -83, 1], 3, 30)  # (x-1)(x-82), 82 = 1 + 3^4
    rs = padic_root_search(f)
    assert rs.complete and len(rs.roots) == 2
    assert sorted(r.lift() % 3**6 for r in rs.roots) == [1, 82]


def test_root_search_verifies():
    rng = random.Random(13)
    for _ in range(120):
        p = rng.choice(PRIMES)
        coeffs = [rng.randint(-25, 25) for _ in range(rng.randint(2, 4))] + [1]
        rs = padic_root_search(PAdicPoly.from_rationals(coeffs, p, 24), depth=30)
        if not rs.complete:
            continue
        for r in rs.roots:
            value = sum(c * r.lift() ** i for i, c in enumerate(coeffs))
            assert value % p**20 == 0, (p, coeffs, r)


def test_root_search_completeness_small_primes():
    # compare against residue enumeration mod p^8
    rng = random.Random(17)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        coeffs = [rng.randint(-15, 15) for _ in range(3)] + [1]
        rs = padic_root_search(PAdicPoly.from_rationals(coeffs, p, 24), depth=30)
        if not rs.complete:
            continue
        mod = p**8
        brute = {
            x % p**4
            for x in range(mod)
            if sum(c * x**i for i, c in enumerate(coeffs)) % mod == 0
        }
        got = {r.lift() % p**4 for r in rs.roots}
        assert got <= brute, (p, coeffs)
        # every brute residue class contains at most one claimed root; and
        # claimed roots exist for every residue that genuinely lifts
        f = lambda x: sum(c * x**i for i, c in enumerate(coeffs))
        deriv = lambda x: sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i)
        for x in brute:
            if deriv(x) % p != 0 and f(x) % p == 0:
                assert any(r.lift() % p == x % p for r in rs.roots), (p, coeffs, x)


def test_roots_mod_p_large_prime_gcd_path():
    p = 1000003
    rts = roots_mod_p([-4, 0, 1], p)
    assert rts == [2, p - 2]
    rts = roots_mod_p([1, 1, 0, 1], p)
    for r in rts:
        assert (r**3 + r + 1) % p == 0


def test_json_round_trip():
    x = from_rational(Fraction(9, 7), 7, 10)
    assert PAdicNumber.from_json(x.to_json()) == x
    z = PAdicNumber.zero(5)
    assert PAdicNumber.from_json(z.to_json()).is_exact_zero()

import random
from fractions import Fraction

import pytest

from chebykit.unram import (
    CubicForm,
    DegenerateCubicError,
    QuadFieldInfo,
    b3_congruence_check,
    congruence_scan,
    cubic_report,
    cubic_ut_family,
    family_b2t,
    local_cubic_type,
    quartic_cycle4_family,
    quartic_d4_criterion,
    quartic_real_place,
    wp_reduce,
)


def test_named_instances():
    r = cubic_report(1, 1)
    assert r.verdict == "unramified"
    assert r.quad_field.label() == "Q(sqrt(-31))"
    assert r.entry(31).condition == 2 and r.entry(31).oracle == "root"
    r = cubic_report(-1, 1)
    assert r.verdict == "unramified" and r.quad_field.label() == "Q(sqrt(-23))"
    r = cubic_report(1, 5)
    assert r.verdict == "unramified"
    assert {e.prime for e in r.entries} == {7, 97}
    assert all(e.condition == 2 for e in r.entries)


def test_total_ramification_case():
    # c divisible exactly once by p = b gives total ramification at p
    r = cubic_report(5, 5)
    assert r.verdict == "ramified at {5}"
    assert r.entry(5).oracle == "total"
    assert all(e.agree is not False for e in r.entries)


def test_degenerate_gates():
    with pytest.raises(DegenerateCubicError):
        cubic_report(0, 1)
    with pytest.raises(DegenerateCubicError):
        cubic_report(-3, 2)  # reducible
    with pytest.raises(DegenerateCubicError):
        cubic_report(-3, -1)  # square discriminant, cyclic cubic


def test_wp_reduce():
    p = 5
    assert wp_reduce(p**4, p**6, p) == (1, 1)
    assert wp_reduce(1, 1, 7) == (1, 1)
    assert wp_reduce(Fraction(1, 4), Fraction(1, 8), 2) == (1, 1)
    # invariance of the conditions under (b, c) -> (k^2 b, k^3 c)
    rng = random.Random(3)
    from chebykit.unram import _condition_at

    for _ in range(200):
        b = Fraction(rng.randint(-40, 40))
        c = Fraction(rng.randint(-40, 40))
        if b == 0 or c == 0:
            continue
        form = CubicForm.make(b, c)
        for k in (2, 3, 5):
            scaled = CubicForm.make(b * k * k, c * k**3)
            for p in (2, 3, 5, 7, 11, 13):
                assert _condition_at(form, p) == _condition_at(scaled, p), (b, c, k, p)


def test_quad_field_info():
    qf = QuadFieldInfo.make(Fraction(-31))
    assert qf.kernel == -31 and qf.discriminant == -31 and qf.ramified == (31,)
    qf = QuadFieldInfo.make(Fraction(-116))
    assert qf.kernel == -29 and qf.discriminant == -116 and qf.ramified == (2, 29)
    qf = QuadFieldInfo.make(Fraction(12))
    assert qf.kernel == 3 and qf.discriminant == 12 and qf.ramified == (2, 3)
    qf = QuadFieldInfo.make(Fraction(5, 9))
    assert qf.kernel == 5


def test_local_cubic_type():
    # x^3 + x + 1 at 31: simple root 3 -> 'root'
    assert local_cubic_type([1, 1, 0, 1], 31) == "root"
    # x^3 - 3x - 1 over Q_3: totally ramified
    assert local_cubic_type([-1, -3, 0, 1], 3) == "total"
    # Eisenstein cubic at 5
    assert local_cubic_type([5, 5, 0, 1], 5) == "total"
    # irreducible mod 7 (x^3 + x + 4 has no root mod 7... verify dynamically)
    f = [4, 1, 0, 1]
    if all((x**3 + x + 4) % 7 for x in range(7)):
        assert local_cubic_type(f, 7) == "inert"
    # unramified-with-index example: root exists deeper
    assert local_cubic_type([-46, 27, 0, 1], 3) == "root"


def test_criterion_oracle_agreement_random():
    rng = random.Random(991)
    count = 0
    while count < 250:
        b = rng.randint(-50, 50)
        c = rng.randint(-50, 50)
        if b == 0 or c == 0:
            continue
        try:
            r = cubic_report(b, c)
        except DegenerateCubicError:
            continue
        count += 1
        for e in r.entries:
            assert e.agree is not False, (b, c, e)


def test_sufficiency_at_three():
    # whenever a condition holds at 3 the oracle must confirm unramifiedness
    rng = random.Random(992)
    seen = 0
    while seen < 60:
        b = rng.randint(-40, 40)
        c = rng.randint(-40, 40)
        if b == 0 or c == 0:
            continue
        try:
            r = cubic_report(b, c)
        except DegenerateCubicError:
            continue
        e3 = [e for e in r.entries if e.prime == 3]
        if e3 and e3[0].condition is not None:
            assert e3[0].oracle in ("root", "inert"), (b, c, e3[0])
            seen += 1


def test_family_b2t():
    r = family_b2t(1, 1)
    assert r.verdict == "unramified" and r.extra["d"] == -31
    assert r.extra["field"] == "Q(sqrt(-31))"
    r = family_b2t(2, 1)
    assert r.verdict == "unramified" and r.extra["d"] == -58
    assert r.extra["field"] == "Q(sqrt(-29))"
    r = family_b2t(-1, 1)
    assert r.verdict == "unramified" and r.extra["field"] == "Q(sqrt(-23))"
    with pytest.raises(DegenerateCubicError):
        family_b2t(2, 0)  # x^3 + 2x reducible
    with pytest.raises(DegenerateCubicError, match=r"reducible instance; rational root -2$"):
        family_b2t(2, 3)  # x^3 + 2x + 12 = (x + 2)(x^2 - 2x + 6)


def test_report_analyses_the_cubic_once(monkeypatch):
    from chebykit import unram

    calls = {"factorize": 0, "rational_roots": 0}
    for name in calls:
        real = getattr(unram, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(unram, name, counted)
    # x^3 + 4x + 8 reduces at 2 to x^3 + x + 1: one factorization of
    # gcd(4, 8) for the reduction, one of the reduced discriminant
    r = cubic_report(4, 8)
    assert r.verdict == "unramified" and r.quad_field.label() == "Q(sqrt(-31))"
    assert calls == {"factorize": 2, "rational_roots": 1}


def test_congruence_scan_b5():
    sc = congruence_scan(5, modulus=25, c_range=range(-80, 81))
    expected = sorted({r for r in range(25) if r % 5 != 0} | {0})
    assert sc["passing_residues"] == expected
    assert sc["minimal_modulus"] == 25
    sc = congruence_scan(-5, modulus=25, c_range=range(-80, 81))
    assert sc["passing_residues"] == expected


def test_congruence_scan_b1():
    sc = congruence_scan(1, c_range=range(-50, 51))
    # every irreducible instance passes; classes collapse to modulus 1
    assert sc["minimal_modulus"] == 1
    assert all(v for v in sc["verdicts"].values())


def test_congruence_scan_prime_b_minimal_modulus():
    # for prime b away from 3 the family's minimal modulus is b^2
    sc = congruence_scan(7, c_range=range(-150, 151))
    assert sc["minimal_modulus"] == 49
    passing = {r % 49 for r, v in sc["verdicts"].items() if v}
    expected = {r for r in range(49) if r % 7 != 0} | {0}
    assert passing == expected


def test_b3_congruence():
    assert b3_congruence_check(1, 7) == (True, False)
    assert b3_congruence_check(5, 25) == (True, False)
    ok, flagged = b3_congruence_check(5, 1)
    assert not ok and not flagged
    ok, flagged = b3_congruence_check(3, 4)
    assert flagged  # 3 | b: second congruence skipped
    # recorded against criterion verdicts: the check implies the c^2 = 0 branch,
    # whose instances are (at least) the c = b^2 t family members
    for b in (2, 5, 7):
        for t in (1, 2, -3):
            c = b * b * t
            try:
                rep = cubic_report(b, c, oracle=False)
            except DegenerateCubicError:
                continue
            ok, _ = b3_congruence_check(b, c)
            if c * c % abs(b) ** 3 == 0:
                assert ok


def test_quartic_criterion():
    r = quartic_d4_criterion(3, 27)
    assert r.entry(3).condition == 1
    assert r.verdict == "unramified"
    assert quartic_real_place(-3, 1)  # two positive real roots
    assert quartic_real_place(1, 1)  # negative delta
    assert not quartic_real_place(3, 1)
    with pytest.raises(ValueError):
        quartic_d4_criterion(1, 1)  # reducible biquadratic, не D4


def test_quartic_b3t_family():
    # x^4 + b x^2 + b^3 t: primes dividing b satisfy condition 1
    for b, t in ((3, 1), (5, 1), (3, 2), (-7, 1)):
        c = b**3 * t
        delta = Fraction(b * b - 4 * c)
        if delta == 0:
            continue
        try:
            r = quartic_d4_criterion(b, c)
        except ValueError:
            continue
        for e in r.entries:
            if b % e.prime == 0:
                assert e.condition is not None, (b, t, e)


def test_cubic_ut_family_s1():
    for u in (1, 2, -3):
        for t in (1, -2, 5):
            try:
                r = cubic_ut_family(1, u, t)
            except DegenerateCubicError:
                continue
            assert r.extra["predicted"] == "unramified"
            assert r.verdict == "unramified", (u, t, r.verdict)


def test_cubic_ut_family_s2_examples():
    r = cubic_ut_family(2, 1, 2)
    assert r.extra["predicted"] == "ramified" and r.verdict == "ramified at {2}"
    r = cubic_ut_family(2, 8, 1)
    assert r.extra["predicted"] == "unramified" and r.verdict == "unramified"
    r = cubic_ut_family(2, 1, 1)
    assert r.extra["predicted"] == "unramified" and r.verdict == "unramified"


def test_cubic_ut_family_s2_trichotomy_sample():
    rng = random.Random(5)
    for _ in range(60):
        u = rng.randint(-10, 10)
        t = rng.randint(-10, 10)
        if u == 0 or t == 0:
            continue
        try:
            r = cubic_ut_family(2, u, t)
        except DegenerateCubicError:
            continue
        if r.verdict == "undecided":
            continue
        actual = "unramified" if r.verdict == "unramified" else "ramified"
        assert r.extra["predicted"] == actual, (u, t, r.verdict)


def test_cubic_ut_family_s3():
    r = cubic_ut_family(3, 3, 1)
    assert r.extra["predicted"] is None  # oracle-only branch
    r = cubic_ut_family(3, 1, 9)
    assert r.extra["predicted"] == "unramified"
    assert r.verdict == "unramified"


def test_cycle4_family():
    res = quartic_cycle4_family(11)
    assert res["qualifies_mod30"] and res["product"] == 11 * 7 * 53
    assert res["field"] == "Q(sqrt(4081))"
    assert res["d4"]
    res = quartic_cycle4_family(17)
    assert res["qualifies_mod30"] and res["in_named_classes"]
    res = quartic_cycle4_family(6)
    assert not res["qualifies_mod30"]
    res = quartic_cycle4_family(-13)
    assert res["qualifies_mod30"] and res["in_named_classes"]


def test_cycle4_named_classes_exhaustive():
    for t in range(-300, 301):
        if t % 30 in {(-13) % 30, (-7) % 30, 11 % 30}:
            res = quartic_cycle4_family(t)
            assert res["qualifies_mod30"], t
            assert res["identities_hold"]


def test_pairwise_ideal_bounds():
    import math

    for t in range(-10000, 10001):
        assert 4 % math.gcd(t, t - 4) == 0 if t != 4 and t != 0 else True
        if t != 0 and 4 * t + 9 != 0:
            assert 9 % math.gcd(t, 4 * t + 9) == 0
        if t != 4 and 4 * t + 9 != 0:
            assert 25 % math.gcd(t - 4, 4 * t + 9) == 0


def test_report_json():
    r = cubic_report(1, 1)
    data = r.to_json()
    assert data["verdict"] == "unramified"
    assert data["field"] == "Q(sqrt(-31))"
    assert any(e["prime"] == 31 for e in data["entries"])

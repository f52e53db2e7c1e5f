import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebykit.exactcore import IntPolynomial, cheb_first_kind, cheb_pow_ladder
from chebykit.gf2m import GF2m, embed
from chebykit.solver import (
    char2_artin_schreier,
    char2_unit_quadratic,
    cheb_to_radical_witness,
    cubic_cheb_solve,
    cubic_eps,
    d4_resolvent,
    indexed_roots,
    radical_to_cheb_witness,
    recover_all,
    recover_root,
    sibling_quadratic,
)


def test_indexed_roots_examples():
    rs = indexed_roots(2, 3)
    assert sorted(r.real for r in rs.roots) == pytest.approx([-1, -1, 2], abs=1e-9)
    rs = indexed_roots(0, 3)
    assert rs.root(0) == pytest.approx(math.sqrt(3))
    assert rs.root(1) == pytest.approx(-math.sqrt(3))
    assert rs.root(2) == pytest.approx(0, abs=1e-12)
    assert rs.u == pytest.approx(cmath.exp(1j * math.pi / 6))
    rs = indexed_roots(2 * math.cosh(3), 3)
    assert rs.root(0) == pytest.approx(2 * math.cosh(1))


def test_indexed_roots_invariants():
    rng = random.Random(2)
    for _ in range(200):
        t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        n = rng.randint(1, 9)
        rs = indexed_roots(t, n)
        for i in range(n):
            assert cheb_pow_ladder(rs.root(i), n) == pytest.approx(
                t, abs=1e-9 * max(1, abs(t))
            )
        if n >= 2:
            assert abs(sum(rs.roots)) < 1e-8 * max(1, abs(t))
        k, i = rng.randint(0, n - 1), rng.randint(0, n - 1)
        mu_i = 2 * math.cos(2 * math.pi * (i % n) / n)
        assert rs.root(k + i) + rs.root(k - i) == pytest.approx(
            mu_i * rs.root(k), abs=1e-9 * max(1, abs(t))
        )


def test_indexed_roots_match_polynomial_roots():
    import numpy as np

    rng = random.Random(10)
    for _ in range(60):
        t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        n = rng.randint(1, 10)
        rs = indexed_roots(t, n)
        coeffs = list(cheb_first_kind(n).coeffs)
        coeffs[0] -= t
        other = list(np.roots(list(reversed(coeffs))))
        for v in rs.roots:
            k = min(range(len(other)), key=lambda idx: abs(other[idx] - v))
            assert abs(other[k] - v) < 1e-8 * max(1, abs(v))
            other.pop(k)


def test_sibling_quadratic():
    rs = indexed_roots(2, 3)
    for k in range(3):
        for i in range(3):
            _, b, c = sibling_quadratic(rs, k, i)
            for r in (rs.root(k + i), rs.root(k - i)):
                assert abs(r * r + b * r + c) < 1e-8
    # i = 0 degenerates to a double root: constant term is r_k^2
    rs = indexed_roots(1.7 - 0.4j, 5)
    _, b, c = sibling_quadratic(rs, 2, 0)
    assert b == pytest.approx(-2 * rs.root(2))
    assert c == pytest.approx(rs.root(2) ** 2)


def test_recover_root():
    rs = indexed_roots(0, 3)
    assert recover_root(rs, 0, 1, 0) == pytest.approx(rs.root(0))
    assert recover_root(rs, 0, 1, 1) == pytest.approx(rs.root(1))
    assert recover_root(rs, 0, 1, 2) == pytest.approx(rs.root(2), abs=1e-12)
    rs = indexed_roots(1, 5)
    got = sorted(r.real for r in recover_all(rs, 0, 2))
    want = sorted(r.real for r in rs.roots)
    assert got == pytest.approx(want, abs=1e-8)
    with pytest.raises(ValueError):
        recover_all(indexed_roots(1, 6), 0, 2)


def test_recover_all_random():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(2, 12)
        t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        rs = indexed_roots(t, n)
        steps = [e for e in range(1, n) if math.gcd(e, n) == 1]
        e = rng.choice(steps)
        got = recover_all(rs, 0, e)
        rest = list(rs.roots)
        for v in got:
            k = min(range(len(rest)), key=lambda idx: abs(rest[idx] - v))
            assert abs(rest[k] - v) < 1e-8 * max(1, abs(t)), (t, n, e)
            rest.pop(k)


def test_cubic_eps():
    assert cubic_eps(1, 1) == (-31, -29)
    assert cubic_eps(-3, -1) == (81, -1)
    assert cubic_eps(1, 0) == (-4, -2)
    with pytest.raises(ValueError):
        cubic_eps(0, 5)


def test_cubic_solve_examples():
    roots = sorted(r.real for r in cubic_cheb_solve(-3, -1))
    want = sorted(
        [2 * math.cos(math.pi / 9), 2 * math.cos(7 * math.pi / 9), 2 * math.cos(13 * math.pi / 9)]
    )
    assert roots == pytest.approx(want, abs=1e-10)
    got = sorted(r.real for r in cubic_cheb_solve(-3, 2))
    assert got == pytest.approx([-2, 1, 1], abs=1e-9)
    roots = cubic_cheb_solve(1, 1)
    reals = [r for r in roots if abs(r.imag) < 1e-9]
    assert len(reals) == 1 and reals[0].real == pytest.approx(-0.682328, abs=1e-5)


def test_cubic_solve_residuals():
    rng = random.Random(123)
    for _ in range(1000):
        b = rng.uniform(-10, 10)
        c = rng.uniform(-10, 10)
        if abs(b) < 1e-3:
            continue
        for r in cubic_cheb_solve(b, c):
            scale = max(1, abs(r) ** 3, abs(b * r), abs(c))
            assert abs(r**3 + b * r + c) < 1e-9 * scale, (b, c, r)


def test_tower_cheb_to_radical():
    w = cheb_to_radical_witness(3, 3)
    assert w.max_step_residual() < 1e-9
    assert any(abs(r - 2.10380) < 1e-4 for r in w.roots)
    for r in w.roots:
        assert cheb_pow_ladder(r, 3) == pytest.approx(3, abs=1e-9)
    w = cheb_to_radical_witness(3, 2 * math.cosh(3))
    assert any(abs(r - 2 * math.cosh(1)) < 1e-9 for r in w.roots)
    w = cheb_to_radical_witness(5, 2.5)
    assert len(w.roots) == 5
    for r in w.roots:
        assert cheb_pow_ladder(r, 5) == pytest.approx(2.5, abs=1e-9)
    # degenerate closed forms
    for t in (2, -2):
        w = cheb_to_radical_witness(7, t)
        assert w.note
        for r in w.roots:
            assert cheb_pow_ladder(r, 7) == pytest.approx(t, abs=1e-9)


def test_tower_matches_branch_set():
    # the q tower values coincide with the indexed branch values of the radical
    from chebykit.analytic import branch_radical

    rng = random.Random(14)
    for q in (3, 5, 7):
        for _ in range(25):
            t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(t * t - 4) < 1e-2:
                continue
            w = cheb_to_radical_witness(q, t)
            branch_vals = [branch_radical(t, q, 2 * i) for i in range(q)]
            rest = list(branch_vals)
            for v in w.roots:
                k = min(range(len(rest)), key=lambda idx: abs(rest[idx] - v))
                assert abs(rest[k] - v) < 1e-8 * max(1, abs(v)), (q, t)
                rest.pop(k)


def test_tower_radical_to_cheb():
    w = radical_to_cheb_witness(3, 2)
    assert any(abs(r - 2 ** (1 / 3)) < 1e-9 for r in w.roots)
    assert all(abs(r**3 - 2) < 1e-9 for r in w.roots)
    assert w.max_step_residual() < 1e-9
    w = radical_to_cheb_witness(3, 1)
    assert any(abs(r - 1) < 1e-9 for r in w.roots)
    w = radical_to_cheb_witness(5, -7)
    assert all(abs(r**5 + 7) < 1e-8 for r in w.roots)


def test_tower_round_trip_random():
    rng = random.Random(15)
    for q in (3, 5, 7):
        count = 0
        while count < 100:
            t = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(t) < 0.1:
                continue
            w = radical_to_cheb_witness(q, t)
            for r in w.roots:
                assert abs(r**q - t) < 1e-9 * max(1, abs(t)), (q, t)
            count += 1


def test_char2_unit_quadratic_small_fields():
    # all valid a over GF(2^m), m <= 8, base field or quadratic extension
    for m in range(2, 9):
        F = GF2m(m)
        one = F.one()
        for a in F.elements():
            if a.is_zero() or a == one:
                continue
            res = char2_unit_quadratic(a)
            c = res.value
            aa = embed(a, c.field) if res.extended else a
            assert (c * c + aa * c + c.field.one()).is_zero(), (m, a.bits)


def test_char2_unit_quadratic_rejects_banned_radical():
    F = GF2m(2)
    w = F.gen()
    res = char2_unit_quadratic(w)
    # in the four-element field the only cube root is the banned one
    assert res.extended
    with pytest.raises(ValueError):
        char2_unit_quadratic(w, allow_extension=False)
    with pytest.raises(ValueError):
        char2_unit_quadratic(F.one())


def test_char2_artin_schreier_exhaustive():
    for m in range(1, 9):
        F = GF2m(m)
        for t in F.elements():
            res = char2_artin_schreier(t)
            w = res.value
            if res.extended:
                t2 = embed(t, w.field)
                assert (w * w + w + t2).is_zero()
                assert t.trace() == 1
            else:
                assert (w * w + w + t).is_zero()
                assert t.trace() == 0


def test_char2_artin_schreier_t_one():
    # t = 1 goes through the order-5 Chebyshev root path
    F8 = GF2m(3)
    res = char2_artin_schreier(F8.one())
    w = res.value
    f = w.field
    assert (w * w + w + f.one()).is_zero()


def test_d4_resolvent_x4_minus_2():
    rep = d4_resolvent(0, 0, 0, -2)
    assert rep.is_d4
    assert rep.biquadratic == (0, -32)
    poly = rep.resolvent_int()
    assert poly is not None and poly.degree == 12 and poly.is_monic()


def test_d4_resolvent_rejects_non_d4():
    rep = d4_resolvent(1, 1, 1, 1)  # cyclic quartic
    assert not rep.is_d4 and "no D4 split" in rep.detail
    rep = d4_resolvent(0, 0, 0, 1)  # Klein four
    assert not rep.is_d4


def test_d4_resolvent_roots_match_differences():
    import numpy as np

    quartics = [(0, 0, 0, -2), (-1, -11, -1, 1), (0, 1, 0, 3), (0, -2, 0, 2), (0, 3, 0, 5)]
    for a1, a2, a3, a4 in quartics:
        rep = d4_resolvent(a1, a2, a3, a4)
        assert rep.is_d4, (a1, a2, a3, a4)
        B, C = rep.biquadratic
        roots = np.roots([1, a1, a2, a3, a4])
        diffs = [roots[i] - roots[j] for i in range(4) for j in range(4) if i != j]
        froots = np.roots([1, 0, float(B), 0, float(C)])
        for fr in froots:
            assert min(abs(fr - d) for d in diffs) < 1e-8, (a1, a2, a3, a4, fr)


def test_d4_resolvent_is_difference_polynomial():
    import numpy as np

    rep = d4_resolvent(0, 1, 0, 3)
    poly = [float(c) for c in rep.resolvent]
    roots = np.roots([1, 0, 1, 0, 3])
    diffs = [roots[i] - roots[j] for i in range(4) for j in range(4) if i != j]
    for d in diffs:
        val = sum(c * d**i for i, c in enumerate(poly))
        assert abs(val) < 1e-6, (d, val)


# ---------------------------------------------------------------------------
# The exact D4 test and its degree-12 resolvent


def _sylvester_resultant(a, b):
    """Resultant of two ascending Fraction polynomials by Gaussian elimination."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(a)):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(b)):
            mat[n + i][i + j] = c
    det = Fraction(1)
    for col in range(size):
        pivot = next((row for row in range(col, size) if mat[row][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for row in range(col + 1, size):
            factor = mat[row][col] / mat[col][col]
            for j in range(col, size):
                mat[row][j] -= factor * mat[col][j]
    return det


def _reference_resolvent(a1, a2, a3, a4):
    """Q(w) with Res_y(f(y), f(y + z)) / z^4 = Q(z^2), at seven points, interpolated."""
    f = [Fraction(c) for c in (a4, a3, a2, a1, 1)]
    points = []
    for z in range(1, 8):
        shifted = [
            sum(f[i] * math.comb(i, j) * z ** (i - j) for i in range(j, 5)) for j in range(5)
        ]
        points.append((Fraction(z * z), _sylvester_resultant(f, shifted) / z**4))
    out = [Fraction(0)] * 7
    for i, (xi, yi) in enumerate(points):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i != j:
                basis = [Fraction(0)] + basis  # times w
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k, c in enumerate(basis):
            out[k] += yi / denom * c
    return out


def test_d4_resolvent_matches_reference_resolvent():
    rng = random.Random(1989)
    quartics = [tuple(rng.randint(-30, 30) for _ in range(4)) for _ in range(40)]
    quartics += [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)) for _ in range(20)
    ]
    quartics += [(Fraction(1, 2), 0, 0, Fraction(-2, 3)), (0, Fraction(3, 4), 0, Fraction(-1, 8))]
    for q in quartics:
        rep = d4_resolvent(*q)
        assert rep.resolvent[0::2] == _reference_resolvent(*q), q
        assert not any(rep.resolvent[1::2]), q


# one quartic per transitive group, with large-coefficient D4 cases
GROUP_TABLE = [
    ((0, 0, 0, -2), "D4"),
    ((1, 1, 1, 1), "C4"),
    ((0, 0, 0, 1), "V4"),
    ((0, 0, 8, 12), "A4"),
    ((0, 0, 1, 1), "S4"),
    ((0, 0, 0, -2 * 1000**4), "D4"),
    ((-101, -11 * 101**2, -(101**3), 101**4), "D4"),  # the cycle4 quartic, t = 11, scaled by 101
]


def _group(rep):
    return rep.detail[rep.detail.rindex("(") + 1 : -1]


@pytest.mark.parametrize("quartic, group", GROUP_TABLE)
def test_d4_resolvent_known_groups(quartic, group):
    rep = d4_resolvent(*quartic)
    assert rep.is_d4 == (group == "D4")
    assert _group(rep) == group, rep.detail
    assert rep.detail.startswith("no D4 split") == (group != "D4")
    # the biquadratic factor exists exactly when the resolvent cubic has one rational root
    assert (rep.biquadratic is not None) == (group in ("D4", "C4"))


def test_d4_resolvent_rejects_quartics_split_into_rational_quadratics():
    # (x^2 - 2x - 2)(x^2 - 2x + 2) and (x^2 - x - 1)(x^2 - x + 1)
    for quartic in [(-4, 4, 0, -4), (-2, 1, 0, -1)]:
        rep = d4_resolvent(*quartic)
        assert not rep.is_d4
        assert rep.detail == "no D4 split: factors into rational quadratics"


def _integer_factor_shape(a1, a2, a3, a4):
    """'root', 'quadratics' or None for x^4 + a1 x^3 + a2 x^2 + a3 x + a4, by brute force."""
    f = IntPolynomial((a4, a3, a2, a1, 1))
    bound = 1 + max(abs(a) for a in (a1, a2, a3, a4))
    if any(f(x) == 0 for x in range(-bound, bound + 1)):
        return "root"
    for c in range(-abs(a4), abs(a4) + 1):
        if c == 0 or a4 % c:
            continue
        for b in range(-2 * bound, 2 * bound + 1):
            _, rem = f.divmod_exact(IntPolynomial((c, b, 1)))
            if rem.is_zero():
                return "quadratics"
    return None


def test_d4_resolvent_reducible_quartics_match_brute_force():
    span = range(-3, 4)
    for a1 in span:
        for a2 in span:
            for a3 in span:
                for a4 in span:
                    rep = d4_resolvent(a1, a2, a3, a4)
                    shape = _integer_factor_shape(a1, a2, a3, a4)
                    if shape == "root":
                        assert rep.detail == "no D4 split: rational root", (a1, a2, a3, a4)
                    elif shape == "quadratics":
                        assert rep.detail == "no D4 split: factors into rational quadratics"
                    else:
                        assert _group(rep) in ("S4", "A4", "V4", "C4", "D4"), rep.detail


_SMALL = st.integers(min_value=-12, max_value=12)


@settings(max_examples=80, deadline=None)
@given(
    quartic=st.one_of(st.sampled_from([q for q, _ in GROUP_TABLE]), st.tuples(_SMALL, _SMALL, _SMALL, _SMALL)),
    m=st.integers(min_value=1, max_value=10**4),
)
def test_d4_resolvent_invariant_under_scaling(quartic, m):
    # x -> x/m multiplies the roots and the differences by m: same group,
    # (B, C) -> (m^2 B, m^4 C), in either direction
    base = d4_resolvent(*quartic)
    for scaled, factor in (
        ([a * m**k for k, a in enumerate(quartic, 1)], m),
        ([Fraction(a, m**k) for k, a in enumerate(quartic, 1)], Fraction(1, m)),
    ):
        rep = d4_resolvent(*scaled)
        assert rep.is_d4 == base.is_d4
        assert rep.detail == base.detail
        if base.biquadratic is None:
            assert rep.biquadratic is None
        else:
            b, c = base.biquadratic
            assert rep.biquadratic == (factor**2 * b, factor**4 * c)

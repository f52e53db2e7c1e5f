import random

import pytest

from chebykit.gf2m import GF2m, embed, retract


def test_default_moduli_irreducible():
    for m in range(1, 17):
        GF2m(m)  # constructor verifies irreducibility
    with pytest.raises(ValueError):
        GF2m(4, 0b11011)  # x^4+x^3+x+1 = (x+1)(x^3+x^2+1): reducible


def test_field_axioms_sampled():
    rng = random.Random(4)
    for m in (2, 3, 5, 8):
        F = GF2m(m)
        one = F.one()
        for _ in range(60):
            a = F(rng.randrange(F.order))
            b = F(rng.randrange(F.order))
            c = F(rng.randrange(F.order))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + a).is_zero()
            if not a.is_zero():
                assert a * a.inverse() == one


def test_frobenius_sqrt_trace():
    for m in (2, 3, 4, 6, 8):
        F = GF2m(m)
        traces = []
        for a in F.elements():
            s = a.sqrt()
            assert s * s == a
            traces.append(a.trace())
        assert set(traces) <= {0, 1}
        # trace is onto and balanced
        assert sum(traces) == F.order // 2


def test_embed_respects_arithmetic():
    for m in (2, 3, 4):
        F = GF2m(m)
        big = GF2m(2 * m)
        for a in F.elements():
            for b in list(F.elements())[:8]:
                assert embed(a * b, big) == embed(a, big) * embed(b, big)
                assert embed(a + b, big) == embed(a, big) + embed(b, big)
            assert retract(embed(a, big), F) == a


def test_retract_rejects_outside_subfield():
    F = GF2m(2)
    big = GF2m(4)
    images = {embed(a, big).bits for a in F.elements()}
    outside = next(v for v in range(big.order) if v not in images)
    assert retract(big(outside), F) is None


def test_element_construction_reduces_and_rejects_negatives():
    F = GF2m(4)
    with pytest.raises(ValueError):
        F(-1)
    # x^6 + x^5 + x + 1 = (x^2 + x)(x^4 + x + 1) + x^3 + 1
    assert F(99).bits == 9
    # x = 1 mod x + 1
    assert GF2m(1).gen() == GF2m(1).one()

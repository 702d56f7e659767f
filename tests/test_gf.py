"""Field arithmetic: axioms, fixed moduli, Frobenius, expansion."""

from __future__ import annotations

import pytest

from cdckit.errors import InversionOfZero, MixedFields
from cdckit.gf import ExtField, GF, _MODULUS_TABLE, _search_modulus, gf, \
    is_irreducible, same_field

SMALL_Q = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = gf(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf2_add():
    assert gf(2).add(1, 1) == 0


def test_gf4_mul_example():
    # elements as polynomial codes {0, 1, 2=x, 3=x+1}; x*x = x+1 mod x^2+x+1
    assert gf(4).mul(2, 2) == 3


def test_gf7_inverse():
    assert gf(7).inv(3) == 5
    assert 3 * 5 % 7 == 1


def test_inversion_of_zero():
    with pytest.raises(InversionOfZero):
        gf(8).inv(0)
    with pytest.raises(InversionOfZero):
        ExtField(gf(2), 3).inv(0)


def test_same_field_rejects_mixed_fields():
    with pytest.raises(MixedFields):
        same_field(gf(4), gf(8))


def test_elements_stay_in_range():
    for q in SMALL_Q:
        f = gf(q)
        for a in f.elements():
            for b in f.elements():
                assert 0 <= f.add(a, b) < q
                assert 0 <= f.mul(a, b) < q


def test_modulus_table_irreducible():
    # trial division confirms every fixed modulus; degrees beyond 8 are
    # cheap over GF(2)/GF(3) so check them all
    for (p, deg), coeffs in _MODULUS_TABLE.items():
        assert is_irreducible(coeffs, gf(p)), (p, deg)


@pytest.mark.parametrize("p,deg", [(2, 4), (2, 6), (3, 3), (5, 2), (7, 3)])
def test_modulus_table_is_lex_smallest(p, deg):
    assert _MODULUS_TABLE[(p, deg)] == _search_modulus(gf(p), deg)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0))


def test_frobenius_fixed_points():
    ext = ExtField(gf(2), 3)
    assert ext.frobenius(0) == 0
    assert ext.frobenius(1) == 1


def test_frobenius_is_squaring_on_gf4():
    ext = ExtField(gf(2), 2)
    for x in ext.elements():
        assert ext.frobenius(x) == ext.mul(x, x)
        assert ext.frobenius(ext.frobenius(x)) == x


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 6), (2, 12), (3, 4), (3, 7),
                                 (4, 3), (5, 3), (8, 2), (9, 2)])
def test_frobenius_periodicity(q, m):
    ext = ExtField(gf(q), m)
    assert ext.order <= 4096 * 2048  # sanity on the test itself
    step = max(1, ext.order // 97)
    for x in range(0, ext.order, step):
        y = x
        for _ in range(m):
            y = ext.frobenius(y)
        assert y == x


def test_frobenius_linearity():
    ext = ExtField(gf(3), 3)
    for x in range(0, ext.order, 5):
        for y in range(0, ext.order, 7):
            assert ext.frobenius(ext.add(x, y)) == ext.add(
                ext.frobenius(x), ext.frobenius(y))


def test_expand_injective_on_gf8():
    ext = ExtField(gf(2), 3)
    images = {ext.expand(x) for x in ext.elements()}
    assert len(images) == 8
    assert all(len(t) == 3 for t in images)


def test_expand_linear():
    ext = ExtField(gf(3), 2)
    f = gf(3)
    for x in ext.elements():
        for y in ext.elements():
            left = ext.expand(ext.add(x, y))
            right = tuple(f.add(a, b) for a, b in zip(ext.expand(x), ext.expand(y)))
            assert left == right


def test_non_prime_base_extension():
    ext = ExtField(gf(4), 2)  # GF(16) as a degree-2 extension of GF(4)
    assert ext.order == 16
    nonzero = [x for x in ext.elements() if x]
    for x in nonzero:
        assert ext.mul(x, ext.inv(x)) == 1
    for x in ext.elements():
        y = ext.frobenius(ext.frobenius(x))  # q=4 Frobenius has order 2
        assert y == x

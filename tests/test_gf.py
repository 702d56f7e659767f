"""Field arithmetic: axioms, fixed moduli, Frobenius, expansion.

ExtField keeps only what the Gabidulin generators use (mul, pow, expand);
the tests add in GF(q^m) coordinate-wise with `oracles.ext_add`, and take
the Frobenius x -> x^q as a power.
"""

from __future__ import annotations

import pytest

from cdckit.errors import InversionOfZero, MixedFields
from cdckit.gf import ExtField, _MODULUS_TABLE, _search_modulus, gf, is_irreducible, \
    same_field
from oracles import ext_add

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
    for q in (7, 8):
        with pytest.raises(InversionOfZero):
            gf(q).inv(0)


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


def _frobenius(ext, x):
    return ext.pow(x, ext.base.q)


def test_frobenius_fixed_points():
    ext = ExtField(gf(2), 3)
    assert _frobenius(ext, 0) == 0
    assert _frobenius(ext, 1) == 1


def test_frobenius_is_squaring_on_gf4():
    ext = ExtField(gf(2), 2)
    for x in range(ext.order):
        assert _frobenius(ext, x) == ext.mul(x, x)
        assert _frobenius(ext, _frobenius(ext, x)) == x


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 6), (2, 12), (3, 4), (3, 7),
                                 (4, 3), (5, 3), (8, 2), (9, 2)])
def test_frobenius_periodicity(q, m):
    ext = ExtField(gf(q), m)
    assert ext.order <= 4096 * 2048  # sanity on the test itself
    step = max(1, ext.order // 97)
    for x in range(0, ext.order, step):
        y = x
        for _ in range(m):
            y = _frobenius(ext, y)
        assert y == x


def test_frobenius_linearity():
    ext = ExtField(gf(3), 3)
    for x in range(0, ext.order, 5):
        for y in range(0, ext.order, 7):
            assert _frobenius(ext, ext_add(ext, x, y)) == ext_add(
                ext, _frobenius(ext, x), _frobenius(ext, y))


def test_expand_injective_on_gf8():
    ext = ExtField(gf(2), 3)
    images = {ext.expand(x) for x in range(ext.order)}
    assert len(images) == 8
    assert all(len(t) == 3 for t in images)


def test_expand_linear():
    ext = ExtField(gf(3), 2)
    f = gf(3)
    for x in range(ext.order):
        for y in range(ext.order):
            left = ext.expand(ext_add(ext, x, y))
            right = tuple(f.add(a, b) for a, b in zip(ext.expand(x), ext.expand(y)))
            assert left == right


def test_non_prime_base_extension():
    ext = ExtField(gf(4), 2)  # GF(16) as a degree-2 extension of GF(4)
    assert ext.order == 16
    for x in range(1, ext.order):
        assert ext.mul(x, ext.pow(x, ext.order - 2)) == 1
    for x in range(ext.order):
        y = _frobenius(ext, _frobenius(ext, x))  # q=4 Frobenius has order 2
        assert y == x

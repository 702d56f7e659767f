"""RREF, rank and packed rows; the per-entry elimination, kernel, product,
inverse and block assembly the checks use come from `oracles`."""

from __future__ import annotations

import random

import pytest

from cdckit.gf import gf
from cdckit.matrices import Matrix, mat_rank, mat_rref, rank_added, rref
from oracles import entry, from_rows, hstack, identity_matrix, invert, mat_add, mat_kernel, \
    mat_sub, matmul, oracle_rref, row_of, sub, vstack, zero_matrix

EXAMPLE_RREF = [
    [1, 1, 0, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def _random_matrix(rng, q, rows, cols):
    return Matrix(gf(q), rows, cols, [rng.randrange(q) for _ in range(rows * cols)])


def test_rref_fixes_reduced_matrix():
    m = from_rows(gf(2), EXAMPLE_RREF)
    red, pivots = mat_rref(m)
    assert red.rows() == m.rows()
    assert pivots == (0, 2, 3)


def test_rref_zero_and_identity():
    z = zero_matrix(gf(3), 2, 4)
    red, pivots = mat_rref(z)
    assert red.rows() == z.rows() and pivots == ()
    i4 = identity_matrix(gf(5), 4)
    red, pivots = mat_rref(i4)
    assert red.rows() == i4.rows() and pivots == (0, 1, 2, 3)


def test_rref_idempotent_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        q = rng.choice((2, 3, 4))
        m = _random_matrix(rng, q, rng.randrange(1, 6), rng.randrange(1, 7))
        red, pivots = mat_rref(m)
        red2, pivots2 = mat_rref(red)
        assert red2.rows() == red.rows() and pivots2 == pivots
        assert mat_rank(m) == len(pivots)


def test_rref_pivot_contract():
    rng = random.Random(7)
    for _ in range(100):
        m = _random_matrix(rng, 3, 4, 6)
        red, pivots = mat_rref(m)
        assert list(pivots) == sorted(pivots)
        for r, c in enumerate(pivots):
            assert entry(red, r, c) == 1
            assert all(entry(red, i, c) == 0 for i in range(red.nrows) if i != r)
            assert all(entry(red, r, j) == 0 for j in range(c))


def test_rank_nullity():
    rng = random.Random(99)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        m = _random_matrix(rng, q, rng.randrange(1, 6), rng.randrange(1, 6))
        ker = mat_kernel(m)
        assert mat_rank(m) + ker.nrows == m.nrows


def _det3(m):
    f = m.field
    def mul3(*xs):
        acc = 1
        for x in xs:
            acc = f.mul(acc, x)
        return acc
    def e(r, c):
        return entry(m, r, c)
    pos = f.add(f.add(mul3(e(0, 0), e(1, 1), e(2, 2)), mul3(e(0, 1), e(1, 2), e(2, 0))),
                mul3(e(0, 2), e(1, 0), e(2, 1)))
    neg = f.add(f.add(mul3(e(0, 2), e(1, 1), e(2, 0)), mul3(e(0, 0), e(1, 2), e(2, 1))),
                mul3(e(0, 1), e(1, 0), e(2, 2)))
    return sub(f, pos, neg)


def test_rank_against_determinant_oracle():
    # a 3x3 matrix with two equal rows has zero determinant and rank <= 2
    rng = random.Random(5)
    for _ in range(100):
        row_a = [rng.randrange(3) for _ in range(3)]
        row_b = [rng.randrange(3) for _ in range(3)]
        m = from_rows(gf(3), [row_a, row_b, row_a])
        assert _det3(m) == 0
        assert mat_rank(m) <= 2
        full = _random_matrix(rng, 3, 3, 3)
        if _det3(full) != 0:
            assert mat_rank(full) == 3


def test_kernel_contract():
    f = gf(2)
    assert mat_kernel(identity_matrix(f, 3)).nrows == 0
    kz = mat_kernel(zero_matrix(f, 3, 5))
    assert kz.rows() == identity_matrix(f, 3).rows()
    m = from_rows(f, [[1, 0], [1, 0]])
    ker = mat_kernel(m)
    assert ker.rows() == [(1, 1)]
    # oracle: exhaust all 4 left-vectors
    hits = [v for v in ((0, 0), (0, 1), (1, 0), (1, 1))
            if all(f.add(f.mul(v[0], entry(m, 0, c)), f.mul(v[1], entry(m, 1, c))) == 0
                   for c in range(2))]
    assert hits == [(0, 0), (1, 1)]


def test_kernel_rows_annihilate():
    rng = random.Random(31)
    for _ in range(60):
        q = rng.choice((2, 3, 4))
        m = _random_matrix(rng, q, rng.randrange(1, 5), rng.randrange(1, 6))
        ker = mat_kernel(m)
        if ker.nrows:
            assert all(x == 0 for x in matmul(ker, m).entries)
        assert mat_rank(ker) == ker.nrows


def test_matmul_identity_and_invert():
    rng = random.Random(13)
    f = gf(5)
    m = _random_matrix(rng, 5, 3, 4)
    assert matmul(identity_matrix(f, 3), m).rows() == m.rows()
    sq = from_rows(f, [[1, 2, 0], [0, 1, 4], [3, 0, 1]])
    if mat_rank(sq) == 3:
        inv = invert(sq)
        assert matmul(sq, inv).rows() == identity_matrix(f, 3).rows()


def test_add_sub_stack():
    f = gf(3)
    a = from_rows(f, [[1, 2], [0, 1]])
    b = from_rows(f, [[2, 2], [1, 0]])
    assert mat_add(a, b).entries == (0, 1, 1, 1)
    assert mat_sub(a, b).entries == (2, 0, 2, 1)
    assert hstack(a, b).ncols == 4
    assert vstack(a, b).nrows == 4


def test_packed_rank_matches_generic():
    # the rank kernel against the per-entry elimination of `oracles`
    rng = random.Random(8)
    for _ in range(200):
        q = rng.choice((2, 3, 4, 9))
        m = _random_matrix(rng, q, rng.randrange(1, 7), rng.randrange(1, 9))
        assert rank_added(m.field, [0] * (m.ncols + 1), m.packed) == len(oracle_rref(m)[1])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rank_added_returns_at_stop(q):
    # with a stop, the kernel returns once that many rows are added, reading
    # no row beyond; a stop above the rank gives the rank
    rng = random.Random(90 + q)
    f = gf(q)
    for _ in range(60):
        m = _random_matrix(rng, q, rng.randrange(1, 6), rng.randrange(1, 7))
        rows = m.packed + m.packed[:1]  # a dependent row at the end
        ranks = [len(oracle_rref(Matrix.from_packed(f, m.ncols, rows[:p]))[1])
                 for p in range(len(rows) + 1)]
        assert rank_added(f, [0] * (m.ncols + 1), rows) == ranks[-1]
        for stop in range(1, ranks[-1] + 2):
            basis, it = [0] * (m.ncols + 1), iter(rows)
            added = rank_added(f, basis, it, stop)
            assert added == min(stop, ranks[-1])
            assert sum(1 for u in basis if u) == added
            read = ranks.index(stop) if stop <= ranks[-1] else len(rows)
            assert list(it) == list(rows[read:])


def test_packed_rref_matches_generic_elimination():
    # matrices reduce on packed rows; the per-entry elimination is the oracle.
    # `rref` gives the nonzero rows of bare packed rows, and `mat_rref` pads
    # them with zero rows to the matrix's row count
    rng = random.Random(80)
    cases = [_random_matrix(rng, rng.choice((2, 2, 3, 4, 9)), rng.randrange(1, 7),
                            rng.randrange(1, 80)) for _ in range(300)]
    for q in (2, 3, 4, 5, 9, 16):
        f = gf(q)
        for _ in range(20):
            m = _random_matrix(rng, q, rng.randrange(2, 6), rng.randrange(1, 12))
            # a zero row and a combination of two rows, each at a random place
            rows = list(m.packed)
            rows.insert(rng.randrange(len(rows) + 1), 0)
            rows.insert(rng.randrange(len(rows) + 1),
                        f.row_add(f.row_scale(rows[0], rng.randrange(q)),
                                  f.row_scale(rows[-1], rng.randrange(q))))
            cases += [Matrix.from_packed(f, m.ncols, rows),
                      Matrix(f, m.nrows, m.ncols, oracle_rref(m)[0]),  # already reduced
                      zero_matrix(f, 3, m.ncols)]
    for m in cases:
        entries, pivots = oracle_rref(m)
        red, packed_pivots = mat_rref(m)
        assert packed_pivots == pivots
        assert red.entries == entries
        assert red.nrows == m.nrows and red.packed[len(pivots):] == (0,) * (m.nrows - len(pivots))
        rows = Matrix(m.field, len(pivots), m.ncols, entries[:len(pivots) * m.ncols]).packed
        assert rref(m.field, m.packed, m.ncols) == (rows, pivots)


def test_packed_rows_round_trip_to_entries():
    # entries rebuilt from packed rows keep leading zeros, past 64 bits too
    rng = random.Random(81)
    for q in (2, 3, 4, 8, 9, 256):
        for ncols in (1, 5, 64, 65, 130):
            m = _random_matrix(rng, q, 3, ncols)
            back = Matrix.from_packed(m.field, ncols, m.packed)
            assert back.entries == m.entries and back.packed == m.packed
            assert back.rows() == m.rows() == [row_of(m, i) for i in range(3)]
            assert back.nrows == m.nrows == 3
            assert mat_add(m, zero_matrix(gf(q), 3, ncols)).entries == m.entries
            assert hstack(m, back).entries == tuple(
                x for i in range(3) for x in row_of(m, i) + row_of(m, i))
        empty, back = Matrix(gf(q), 0, 4, ()), Matrix.from_packed(gf(q), 4, ())
        assert empty.entries == back.entries == () and empty.rows() == back.rows() == []
        assert empty.nrows == back.nrows == 0


def test_constructor_still_checks_entries():
    for q, bad in ((2, 2), (2, -1), (3, 3)):
        with pytest.raises(ValueError):
            Matrix(gf(q), 1, 2, [0, bad])

"""q-combinatorics against independent enumeration oracles."""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

import pytest

from cdckit.counting import bounded_rank_size, delsarte_rank_count, gauss_binomial, \
    mrd_size
from cdckit.errors import InvalidDistance, OutOfRange
from cdckit.gf import gf
from cdckit.matrices import Matrix, mat_rank, mat_rref
from oracles import ExtField, ext_add, from_rows


@lru_cache(maxsize=None)
def _subspaces_brute(n, k, q):
    """The k-dim subspaces of GF(q)^n as their canonical RREF rows, each the
    span of a (k - 1)-dim one and one more vector."""
    if k == 0:
        return frozenset({()})
    f, grown = gf(q), set()
    for rows in _subspaces_brute(n, k - 1, q):
        for v in itertools.product(range(q), repeat=n):
            red, pivots = mat_rref(from_rows(f, rows + (v,)))
            if len(pivots) == k:
                grown.add(tuple(red.rows()))
    return frozenset(grown)


def _count_subspaces_brute(n, k, q):
    return len(_subspaces_brute(n, k, q))


def test_gauss_binomial_brute_force():
    assert _count_subspaces_brute(4, 2, 2) == 35
    assert gauss_binomial(4, 2, 2) == 35
    assert _count_subspaces_brute(3, 2, 2) == 7
    assert gauss_binomial(3, 2, 2) == 7


def test_gauss_edge_cases():
    assert gauss_binomial(5, 0, 3) == 1
    assert gauss_binomial(0, 0, 2) == 1
    assert gauss_binomial(3, 4, 2) == 0


def test_gauss_symmetry():
    for q in (2, 3, 5, 9):
        for n in range(13):
            for k in range(n + 1):
                assert gauss_binomial(n, k, q) == gauss_binomial(n, n - k, q)


def _qpoly_matrices(q, t, degrees, s=None):
    """All t x s matrices of the maps sum a_i x^(q^i) on GF(q^t), i in
    degrees, at the s points 1, x, ..., x^(s-1) (s = t by default)."""
    ext = ExtField(gf(q), t)
    points = [ext.pow(q if t > 1 else 1, j) for j in range(t if s is None else s)]
    mats = []
    for coeffs in itertools.product(range(ext.order), repeat=len(degrees)):
        cols = []
        for p in points:
            acc = 0
            for a, i in zip(coeffs, degrees):
                acc = ext_add(ext, acc, ext.mul(a, ext.pow(p, q**i)))
            cols.append(ext.expand(acc))
        entries = [cols[j][r] for r in range(t) for j in range(len(points))]
        mats.append(Matrix(gf(q), t, len(points), entries))
    return mats


def test_mrd_size_against_qpoly_enumeration():
    # distance-2 square MRD code in 3x3: q-degrees {0,1} over GF(8)
    mats = _qpoly_matrices(2, 3, (0, 1))
    assert len(set(m.entries for m in mats)) == 64
    assert mrd_size(2, 3, 3, 2) == 64


def test_mrd_size_values():
    assert mrd_size(2, 6, 6, 2) == 2**30 == 1073741824
    assert mrd_size(3, 4, 2, 2) == 3**4
    for a, b in ((2, 5), (4, 3)):
        assert mrd_size(2, a, b, min(a, b)) == 2 ** max(a, b)


def test_mrd_size_invalid_distance():
    with pytest.raises(InvalidDistance):
        mrd_size(2, 3, 3, 4)
    with pytest.raises(InvalidDistance):
        mrd_size(2, 3, 3, 0)


def test_delsarte_against_enumeration_oracle():
    ranks = {}
    for m in _qpoly_matrices(2, 3, (0, 1)):
        ranks[mat_rank(m)] = ranks.get(mat_rank(m), 0) + 1
    assert ranks == {0: 1, 2: 49, 3: 14}
    assert delsarte_rank_count(2, 3, 3, 2, 2) == 49
    assert delsarte_rank_count(2, 3, 3, 2, 3) == 14


def test_delsarte_single_term():
    # u = d leaves only the s=0 term
    for q, a, b, d in ((2, 3, 5, 2), (3, 4, 4, 3), (5, 2, 6, 1)):
        expect = gauss_binomial(min(a, b), d, q) * (q ** max(a, b) - 1)
        assert delsarte_rank_count(q, a, b, d, d) == expect


def test_delsarte_out_of_range():
    with pytest.raises(OutOfRange):
        delsarte_rank_count(2, 3, 3, 2, 1)
    with pytest.raises(OutOfRange):
        delsarte_rank_count(2, 3, 3, 2, 4)


def test_bounded_rank_size_published_values():
    assert bounded_rank_size(2, 4, 4, 2, 3) == 2776
    assert bounded_rank_size(2, 4, 4, 1, 2) == 7576


def test_bounded_rank_size_edges():
    assert bounded_rank_size(2, 4, 4, 2, 1) == 1  # only the zero matrix
    assert bounded_rank_size(3, 5, 2, 1, 0) == 1
    with pytest.raises(OutOfRange):
        bounded_rank_size(2, 3, 3, 2, 4)
    with pytest.raises(OutOfRange):
        bounded_rank_size(2, 3, 3, 1, -5)


def test_rank_counts_refuse_distance_below_one():
    # like mrd_size: no rank-metric code has distance 0, even with a cap
    # below d that leaves no rank count to add
    for d in (0, -1):
        with pytest.raises(InvalidDistance):
            delsarte_rank_count(2, 3, 3, d, 1)
        with pytest.raises(InvalidDistance):
            bounded_rank_size(2, 3, 3, d, d - 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc).__name__, str(exc)


def test_cached_counts_equal_their_uncached_bodies():
    # mrd_size and bounded_rank_size are lru_cached; each equals its
    # wrapped body on every small argument in range, and after those cached
    # calls an argument out of range still raises, with the same message
    calls = 0
    for q in range(2, 10):
        for a in range(1, 7):
            for b in range(1, 7):
                for d in range(1, min(a, b) + 1):
                    assert mrd_size(q, a, b, d) == mrd_size.__wrapped__(q, a, b, d)
                    for u in range(min(a, b) + 1):
                        args = (q, a, b, d, u)
                        assert bounded_rank_size(*args) == bounded_rank_size.__wrapped__(*args)
                        calls += 1
    assert calls == 8 * sum(min(a, b) * (min(a, b) + 1) for a in range(1, 7)
                            for b in range(1, 7))
    for fn, args in ((mrd_size, (2, 3, 3, 4)), (mrd_size, (2, 3, 3, 0)),
                     (bounded_rank_size, (2, 3, 3, 2, 4)), (bounded_rank_size, (2, 3, 3, 1, -5)),
                     (bounded_rank_size, (2, 3, 3, 0, 1))):
        expected = _outcome(fn.__wrapped__, *args)
        assert expected[0] in ("InvalidDistance", "OutOfRange"), args
        assert _outcome(fn, *args) == _outcome(fn, *args) == expected, args


def test_count_stdout_with_warm_caches(capsys):
    # the README's count examples print the same line again in one process,
    # where the second run reads the cached values
    from cdckit.cli import main

    for argv, line in ((["count", "mrd", "2", "3", "3", "2"], "64\n"),
                       (["count", "bounded", "2", "4", "4", "2", "3"], "2776\n")):
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().out == line


def test_count_cli_prints_the_enumerated_counts(capsys):
    # `count` through the CLI at tiny sizes against enumeration: subspaces
    # grown vector by vector, and the rank distribution of every a x b MRD
    # code, evaluated as q-polynomials (transposed when a < b, which keeps
    # every rank)
    from cdckit.cli import main

    def printed(*argv):
        assert main(["count", *map(str, argv)]) == 0
        return int(capsys.readouterr().out)

    for q in (2, 3):
        for n in range(1, 5):
            for k in range(n + 2):
                assert printed("gauss", n, k, q) == _count_subspaces_brute(n, k, q), (q, n, k)
        codes = {}  # (t, s, d) -> number of distinct words, rank distribution
        for a, b in itertools.product(range(1, 4), repeat=2):
            t, s = max(a, b), min(a, b)
            for d in range(1, s + 1):
                if (t, s, d) not in codes:
                    mats = _qpoly_matrices(q, t, range(s - d + 1), s)
                    codes[t, s, d] = (len({m.entries for m in mats}),
                                      Counter(mat_rank(m) for m in mats))
                words, ranks = codes[t, s, d]
                assert printed("mrd", q, a, b, d) == words, (q, a, b, d)
                for u in range(s + 1):
                    assert printed("bounded", q, a, b, d, u) == \
                        sum(ranks[r] for r in range(u + 1)), (q, a, b, d, u)
                for u in range(d, s + 1):
                    assert printed("delsarte", q, a, b, d, u) == ranks[u], (q, a, b, d, u)


def test_completeness_identity():
    # summing the whole rank distribution recovers the MRD cardinality
    for q in (2, 3, 4, 5, 7, 8, 9):
        for a in range(1, 9):
            for b in range(1, 9):
                for d in range(1, min(a, b) + 1):
                    assert bounded_rank_size(q, a, b, d, min(a, b)) == mrd_size(q, a, b, d)

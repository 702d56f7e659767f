"""Gabidulin codes, coset families, and Ferrers-diagram unions."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from cdckit.counting import delsarte_rank_count, mrd_size
from cdckit.errors import EnumerationLimitExceeded, InvalidDistance, \
    InvalidDistances, InvalidParameters
from cdckit.gf import gf
from cdckit.matrices import Matrix, _rref_rows, mat_rank, mat_sub
from cdckit.rankcodes import FerrersShape, LinearRankCode, enumerate_code, \
    fdrm_subcode_union, fdrm_union, gabidulin_mrd, rmc_from_text, rmc_to_text, \
    subcode_cosets


def _rank_distribution(code, **kw):
    return Counter(mat_rank(m) for m in enumerate_code(code, **kw))


def test_gabidulin_2332_distribution():
    dist = _rank_distribution(gabidulin_mrd(2, 3, 3, 2))
    assert dist == {0: 1, 2: 49, 3: 14}


def test_gabidulin_matches_delsarte_term_by_term():
    for a, b, d in ((2, 2, 1), (2, 2, 2), (3, 3, 2), (3, 4, 2), (4, 3, 2), (4, 4, 3)):
        dist = _rank_distribution(gabidulin_mrd(2, a, b, d))
        assert dist[0] == 1
        for u in range(d, min(a, b) + 1):
            assert dist[u] == delsarte_rank_count(2, a, b, d, u), (a, b, d, u)
        assert sum(dist.values()) == mrd_size(2, a, b, d)


def test_gabidulin_full_distance_all_full_rank():
    for q, a, b in ((2, 3, 5), (3, 2, 2)):
        d = min(a, b)
        dist = _rank_distribution(gabidulin_mrd(q, a, b, d))
        assert set(dist) == {0, d} and dist[0] == 1
        assert dist[d] == q ** max(a, b) - 1


def test_gabidulin_saturates_ambient():
    words = set(m.entries for m in enumerate_code(gabidulin_mrd(2, 2, 2, 1)))
    assert len(words) == 16


def test_gabidulin_min_distance_exact():
    # linear code: minimum pairwise distance = minimum nonzero codeword rank
    for q, a, b, d in ((2, 3, 3, 2), (2, 4, 4, 3), (3, 2, 3, 2), (2, 2, 4, 1)):
        code = gabidulin_mrd(q, a, b, d)
        assert code.cardinality <= 10**5
        nz = [mat_rank(m) for m in enumerate_code(code) if any(m.entries)]
        assert min(nz) == d


def _reference_words(code, rank_cap=None):
    """Every GF(2) combination of the generators, the first generator's
    coefficient changing slowest, added entry by entry."""
    f = code.field
    for coeffs in itertools.product((0, 1), repeat=len(code.generators)):
        acc = (0,) * (code.a * code.b)
        for c, g in zip(coeffs, code.generators):
            if c:
                acc = tuple(f.add(x, y) for x, y in zip(acc, g.entries))
        rows = [list(acc[i * code.b:(i + 1) * code.b]) for i in range(code.a)]
        if rank_cap is None or len(_rref_rows(f, rows, code.b)) <= rank_cap:
            yield acc


@pytest.mark.parametrize("a, b, d", [(2, 3, 1), (3, 6, 2)])
@pytest.mark.parametrize("rank_cap", [None, 1, 2])
def test_gf2_enumeration_matches_reference_order(a, b, d, rank_cap):
    # (3, 6, 2) has 12 generators, more than the enumerator tabulates at once
    code = gabidulin_mrd(2, a, b, d)
    words = [m.entries for m in enumerate_code(code, rank_cap=rank_cap)]
    assert words == list(_reference_words(code, rank_cap))


def test_gabidulin_rejects_bad_distance():
    with pytest.raises(InvalidDistance):
        gabidulin_mrd(2, 3, 3, 0)
    with pytest.raises(InvalidDistance):
        gabidulin_mrd(2, 3, 3, 4)


def test_enumerate_rank_caps():
    assert sum(1 for _ in enumerate_code(gabidulin_mrd(2, 3, 3, 2), rank_cap=2)) == 50
    assert sum(1 for _ in enumerate_code(gabidulin_mrd(2, 4, 4, 2), rank_cap=3)) == 2776


def test_enumerate_zero_dimensional():
    code = LinearRankCode(2, 2, 3, 1, [])
    members = list(enumerate_code(code))
    assert members == [Matrix.zero(gf(2), 2, 3)]


def test_enumeration_limit(monkeypatch):
    monkeypatch.setenv("CDCKIT_ENUM_LIMIT", "100")
    with pytest.raises(EnumerationLimitExceeded):
        list(enumerate_code(gabidulin_mrd(2, 4, 4, 1)))
    # streaming bypasses the limit
    it = enumerate_code(gabidulin_mrd(2, 4, 4, 1), streaming=True)
    assert next(it) is not None


def test_subcode_cosets_counts():
    for q in (2, 3):
        assert subcode_cosets(q, 4, 2, 1, 2).s == q**4
    with pytest.raises(InvalidDistances):
        subcode_cosets(2, 3, 3, 2, 2)


def test_subcode_cosets_partition_and_distances():
    for q, a, b, dm, ds in ((2, 2, 2, 1, 2), (2, 3, 3, 2, 3), (3, 2, 2, 1, 2)):
        fam = subcode_cosets(q, a, b, dm, ds)
        cosets = fam.materialize()
        assert len(cosets) == fam.s == mrd_size(q, a, b, dm) // mrd_size(q, a, b, ds)
        members = [m.entries for _, ms in cosets for m in ms]
        assert len(members) == len(set(members)) == mrd_size(q, a, b, dm)
        for _, ms in cosets:
            for x, y in itertools.combinations(ms, 2):
                assert mat_rank(mat_sub(x, y)) >= ds
        for (_, m1), (_, m2) in itertools.combinations(cosets, 2):
            for x in m1[:4]:
                for y in m2[:4]:
                    assert mat_rank(mat_sub(x, y)) >= dm
        leaders = [leader.entries for leader, _ in cosets]
        assert leaders == sorted(leaders)


def test_ferrers_shape_validation():
    with pytest.raises(InvalidParameters):
        FerrersShape(6, 6, 1, 2, 0, 2)  # u1 < d_f
    with pytest.raises(InvalidParameters):
        FerrersShape(3, 6, 2, 2, 2, 2)  # delta1 < Delta + u1
    sh = FerrersShape(6, 6, 4, 2, 0, 2)
    assert (sh.w1, sh.w2, sh.k, sh.width) == (2, 4, 6, 6)


def test_fdrm_case1_zero_width():
    # left blocks vanish; members are supported on F2/F3 only
    sh = FerrersShape(4, 6, 2, 2, 2, 2)
    code = fdrm_union(2, sh, 1, 2)
    assert code.case == 1
    assert code.count == mrd_size(2, 2, 4, 2) * mrd_size(2, 2, 4, 2)
    members = list(code)
    assert len(members) == code.count
    for x, y in itertools.combinations(members[:60], 2):
        assert mat_rank(mat_sub(x, y)) >= 2


def test_fdrm_case3_large_instance():
    # the (12,4,6) first-vector shape; case 3 pins b_i to d_f internally
    sh = FerrersShape(6, 6, 4, 2, 0, 2)
    code = fdrm_union(2, sh, 1, 1)
    assert code.case == 3
    lam = (mrd_size(2, 4, 2, 2), mrd_size(2, 2, 4, 2), mrd_size(2, 4, 4, 2))
    assert code.count == lam[0] * lam[1] * lam[2] == 1 << 20
    # strided subsample, exhaustive pairwise inside the sample
    stride = code.count // 240
    sample = [m for i, m in enumerate(code) if i % stride == 0]
    for x, y in itertools.combinations(sample, 2):
        assert mat_rank(mat_sub(x, y)) >= 2


def test_fdrm_case2_paired():
    sh = FerrersShape(7, 7, 3, 4, 2, 3)
    code = fdrm_union(2, sh, 2, 1)
    assert code.case == 2
    n1, n2 = mrd_size(2, 3, 2, 2), mrd_size(2, 4, 3, 1)
    assert code.count == min(n1, n2) * mrd_size(2, 3, 3, 3) == 64
    members = list(code)
    assert len(members) == 64
    for x, y in itertools.combinations(members, 2):
        assert mat_rank(mat_sub(x, y)) >= 3


def test_fdrm_support_stays_in_shape():
    sh = FerrersShape(7, 7, 3, 4, 2, 3)
    for m in itertools.islice(fdrm_union(2, sh, 2, 1), 20):
        for i in range(sh.u1, sh.k):
            for j in range(sh.w1):
                assert m[i, j] == 0


def test_fdrm_subcode_union_counts():
    sh = FerrersShape(6, 6, 4, 2, 0, 2)
    code = fdrm_subcode_union(2, sh, 1, 1, rank3_cap=2)
    assert code.count == 2154496
    # c_i = d_f collapses to a single coset = plain case 3
    base = fdrm_union(2, sh, 2, 2)
    collapsed = fdrm_subcode_union(2, sh, 2, 2)
    assert collapsed.count == base.count


def test_fdrm_subcode_union_explicit_small():
    sh = FerrersShape(5, 4, 2, 2, 0, 2)
    code = fdrm_subcode_union(2, sh, 1, 1, rank3_cap=0)
    expect = 4 * mrd_size(2, 2, 3, 2) * mrd_size(2, 2, 2, 2) * 1
    assert code.count == expect == 128
    members = list(code)
    assert len(members) == len(set(m.entries for m in members)) == 128
    for x, y in itertools.combinations(members, 2):
        assert mat_rank(mat_sub(x, y)) >= 2


def test_fdrm_subcode_union_needs_wide_left_block():
    sh = FerrersShape(2, 4, 2, 2, 0, 2)  # w1 = 0 < d_f
    with pytest.raises(InvalidParameters):
        fdrm_subcode_union(2, sh, 1, 1)


def test_rmc_text_round_trip():
    code = gabidulin_mrd(2, 3, 3, 2)
    text = rmc_to_text(code)
    assert text.startswith("RMC 2 3 3 2 64")
    back = rmc_from_text(text)
    assert back.generators == code.generators
    assert back.cardinality == 64

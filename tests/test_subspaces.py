"""Canonical subspaces, distances, lifting, and the verification engine."""

from __future__ import annotations

import collections.abc
import hashlib
import math
import random
import time
import tracemalloc
import types
from collections import Counter
from itertools import combinations, count, islice, product

import pytest

from cdckit import subspaces
from cdckit.bounds import FAMILIES, load_table_manifest
from cdckit.constructions import ConstructionPlan, parse_plan, run_plan
from cdckit.counting import gauss_binomial
from cdckit.errors import InvalidParameters, PairLimitExceeded
from cdckit.gf import gf, join_rows, pack_row, row_codes
from cdckit.matrices import Matrix, mat_rank, mat_rref, rank_added
from cdckit.registry import BaseBoundRegistry
from cdckit.rankcodes import LinearRankCode, enumerate_code, gabidulin_mrd
from cdckit.subspaces import CDC, Subspace, _sampled_pairs, cdc_from_text, cdc_to_text, \
    verify_min_distance
from oracles import MULTILEVEL_TUPLES, AmbientMismatch, codeword, ferrers_of, first_minimum, \
    from_rows, hamming_lb_check, hstack, identifying_vector, identity_matrix, \
    insertion_predicate, lift_matrix, lifted_with_vectors, mat_sub, matmul, oracle_rref, \
    randrange_pairs, row_by_row_keys, settled_groups, special_form_vector, subspace_distance, \
    subspace_from_rows, words_of, zero_matrix
from test_constructions import BENCH_PLANS
from test_golden import PLANS as GOLDEN_PLANS

EXAMPLE_RREF = [
    [1, 1, 0, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def _random_subspace(rng, q, n, k):
    f = gf(q)
    while True:
        m = Matrix(f, k, n, [rng.randrange(q) for _ in range(k * n)])
        if mat_rank(m) == k:
            return subspace_from_rows(m)


def _random_invertible(rng, q, k):
    f = gf(q)
    while True:
        m = Matrix(f, k, k, [rng.randrange(q) for _ in range(k * k)])
        if mat_rank(m) == k:
            return m


def test_canonical_form_collapses_row_equivalence():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(60):
            u = _random_subspace(rng, q, 6, 3)
            t = _random_invertible(rng, q, 3)
            scrambled = matmul(t, u.mat)
            v = subspace_from_rows(scrambled)
            assert (u.rows, u.pivots) == (v.rows, v.pivots)
            assert u.mat.entries == v.mat.entries
            # a row in the span of the others, or a zero row, is refused
            f, rows = u.field, scrambled.packed
            for extra in (f.row_add(rows[0], f.row_scale(rows[-1], q - 1)), 0):
                with pytest.raises(ValueError, match="^rows are linearly dependent$"):
                    CDC(q, 6, 4, 2, [join_rows(rows + (extra,), 6 * f.width)])


def test_example_identifying_vector_and_ferrers():
    u = subspace_from_rows(from_rows(gf(2), EXAMPLE_RREF))
    assert identifying_vector(u) == (1, 0, 1, 1, 0, 0, 0)
    row_lengths, tableaux = ferrers_of(u)
    assert row_lengths == (4, 3, 3)
    assert tableaux == ((1, 1, 1, 1), (1, 0, 1), (1, 1, 1))


def test_identifying_vector_edges():
    f = gf(2)
    lifted = lift_matrix(from_rows(f, [[1, 0, 1], [0, 1, 1]]))
    assert identifying_vector(lifted) == (1, 1, 0, 0, 0)
    full = subspace_from_rows(identity_matrix(f, 4))
    assert identifying_vector(full) == (1, 1, 1, 1)
    assert ferrers_of(full)[0] == (0, 0, 0, 0)
    assert ferrers_of(lifted)[0] == (3, 3)
    # trailing ones leave an empty diagram; leading ones a full rectangle
    tail = subspace_from_rows(hstack(zero_matrix(f, 2, 3), identity_matrix(f, 2)))
    assert identifying_vector(tail) == (0, 0, 0, 1, 1)
    assert ferrers_of(tail)[0] == (0, 0)


def test_distance_basics():
    u = subspace_from_rows(from_rows(gf(2), EXAMPLE_RREF))
    assert subspace_distance(u, u) == 0
    f = gf(2)
    left = subspace_from_rows(hstack(identity_matrix(f, 3), zero_matrix(f, 3, 3)))
    right = subspace_from_rows(hstack(zero_matrix(f, 3, 3), identity_matrix(f, 3)))
    assert subspace_distance(left, right) == 6
    with pytest.raises(AmbientMismatch):
        subspace_distance(left, u)


def test_distance_against_intersection_oracle():
    # dim of the intersection counted by exhausting one subspace's vectors
    f = gf(2)
    u = subspace_from_rows(from_rows(f, EXAMPLE_RREF))
    e5 = [0, 0, 0, 0, 1, 0, 0]
    v = subspace_from_rows(from_rows(f, [EXAMPLE_RREF[0], EXAMPLE_RREF[1], e5]))

    def span(sub):
        vecs = set()
        rows = sub.mat.rows()
        for mask in range(1 << len(rows)):
            acc = tuple(0 for _ in range(sub.n))
            for i, row in enumerate(rows):
                if mask >> i & 1:
                    acc = tuple(a ^ b for a, b in zip(acc, row))
            vecs.add(acc)
        return vecs

    inter = span(u) & span(v)
    dim = int(math.log2(len(inter)))
    assert subspace_distance(u, v) == 2 * u.k - 2 * dim


def test_distance_metric_axioms_randomized():
    rng = random.Random(404)
    for q in (2, 3):
        words = [_random_subspace(rng, q, 6, 3) for _ in range(12)]
        for a in words:
            for b in words:
                dab = subspace_distance(a, b)
                assert dab == subspace_distance(b, a)
                assert (dab == 0) == (a.rows == b.rows)
                for c in words[:6]:
                    assert dab <= subspace_distance(a, c) + subspace_distance(c, b)


def test_lift_matrix_isometry_and_injectivity():
    code = gabidulin_mrd(2, 3, 3, 2)
    mats = list(enumerate_code(code))
    rng = random.Random(17)
    for _ in range(300):
        a, b = rng.sample(mats, 2)
        la, lb = lift_matrix(a), lift_matrix(b)
        r = mat_rank(mat_sub(a, b))
        assert subspace_distance(la, lb) == 2 * r
        # the intersection argument: dim = a_rows - rank(A-B)
        assert la.rows != lb.rows
    zero_lift = lift_matrix(zero_matrix(gf(2), 3, 4))
    assert identifying_vector(zero_lift) == (1, 1, 1, 0, 0, 0, 0)


def test_lifted_gabidulin_is_6_64_4_3_code():
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))]
    cdc = CDC(2, 6, 3, 4, words_of(words))
    report = verify_min_distance(cdc)
    assert report.min_found == 4
    assert report.pairs_checked == 64 * 63 // 2 == 2016


def test_hamming_lower_bound_randomized():
    rng = random.Random(90)
    for q in (2, 3):
        for _ in range(500):
            k = rng.choice((2, 3, 4))
            u = _random_subspace(rng, q, 8, k)
            v = _random_subspace(rng, q, 8, k)
            assert hamming_lb_check(u, v)
    u = _random_subspace(rng, 2, 8, 3)
    assert hamming_lb_check(u, u)


def test_insertion_predicate():
    f = gf(2)
    u = subspace_from_rows(hstack(identity_matrix(f, 3), zero_matrix(f, 3, 3)))
    assert not insertion_predicate(u, 3, 3, 4)
    # a subspace meeting both sides in dimension 1: rows e1, e4
    m = from_rows(f, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    w = subspace_from_rows(m)
    assert insertion_predicate(w, 3, 3, 2)
    assert not insertion_predicate(w, 3, 3, 4)
    with pytest.raises(AmbientMismatch):
        insertion_predicate(w, 2, 3, 2)


def test_lift_special_form():
    # the lifted materializer puts each insert word on its special-form
    # vector, with k rows
    assert special_form_vector(6, 6, 4, 2, 0) == (1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0)
    for family, q, n, d, k, params in MULTILEVEL_TUPLES:
        _, pairs = lifted_with_vectors(family, q, n, d, k, params)
        for w, vec in islice(pairs, 50 if n == 12 else None):
            assert identifying_vector(w) == vec
            assert w.k == k


def test_verify_single_codeword_sentinel():
    word = subspace_from_rows(identity_matrix(gf(2), 3))
    cdc = CDC(2, 3, 3, 2, [word.word])
    report = verify_min_distance(cdc)
    assert report.min_found == math.inf and report.witness is None


def test_verify_pair_limit(monkeypatch):
    # the (8, 4690, 4, 4)_2 multilevel_II code: its first N pairs bound the
    # minimum at 4, its 4,096-word group is settled and isolated at 4, and
    # only level 3 lies below the bound, so the scan makes
    # (4,690 - 4,096) * [4 3]_2 = 8,910 keys.  The limit refuses a code only
    # when its pairs and those keys both exceed it
    code = run_plan(parse_plan(BENCH_PLANS["ml2_q2"])).cdc
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "8909")
    with pytest.raises(PairLimitExceeded,
                       match="^10995705 pairs and 8910 keys both exceed the limit 8909$"):
        verify_min_distance(code)
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "8910")
    report = verify_min_distance(code)
    assert (report.min_found, report.witness, report.pairs_checked) == (4, (0, 1), 10_995_705)


def test_sample_mode_refuses_more_draws_than_the_pair_limit(monkeypatch):
    # draws are bounded as exhaustive work is: at a limit of 10, ten draws
    # run and eleven are refused before the first draw
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "10")
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 2, 2, 1))]
    cdc = CDC(2, 4, 2, 2, words_of(words))
    assert verify_min_distance(cdc, mode="sample", sample_count=10, seed=1).pairs_checked == 10

    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(subspaces, "_sampled_pairs", no_draw)
    with pytest.raises(PairLimitExceeded, match="11 draws exceed the limit 10"):
        verify_min_distance(cdc, mode="sample", sample_count=11, seed=1)


def _scalar_code():
    """The (8, 256, 8, 4)_256 code of the row spaces of [I | cI], c in
    GF(256): one pivot group whose pairs all lie 8 apart."""
    f = gf(256)
    return CDC(256, 8, 4, 8, [join_rows([pack_row(f, [int(j == r) for j in range(4)] +
                                                  [c * (j == r) for j in range(4)])
                                         for r in range(4)], 8 * f.width) for c in range(256)])


def test_the_key_count_stops_once_past_the_pairs_and_the_limit(monkeypatch):
    # the key count is only compared with the pair count and the limit, so
    # its sum over the levels stops at the first past both.  The
    # (8, 256, 8, 4)_256 code's first N pairs bound its minimum at 8, so
    # levels 3, 2 and 1 lie below it, and 256 * [4 3]_256 keys at level 3
    # alone pass its 32,640 pairs and the limit: the [4 2]_256 term is never
    # taken.  At a limit of 10 the refusal names no key count
    binomial, terms = subspaces.gauss_binomial, []

    def counted(k, t, q):
        terms.append(t)
        return binomial(k, t, q)

    monkeypatch.setattr(subspaces, "gauss_binomial", counted)
    code = _scalar_code()
    assert 256 * gauss_binomial(4, 3, 256) > 10**9
    assert verify_min_distance(code).min_found == 8 and 2 not in terms
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "10")
    terms.clear()
    with pytest.raises(PairLimitExceeded,
                       match="^32640 pairs and more keys both exceed the limit 10$"):
        verify_min_distance(code)
    assert 2 not in terms


def test_verify_pair_limit_counts_keys(monkeypatch):
    # k = 1: ten points of GF(2)^4 have 45 pairs, and the first N pairs
    # bound the minimum at 2, below which no level is keyed, so no key is
    # counted and the code verifies within a limit of 10
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "10")
    words = [subspace_from_rows(from_rows(gf(2), [[v >> s & 1 for s in (3, 2, 1, 0)]]))
             for v in range(1, 11)]
    report = verify_min_distance(CDC(2, 4, 1, 2, words_of(words)))
    assert (report.min_found, report.witness, report.pairs_checked) == (2, (0, 1), 45)


def test_verify_sample_pinned_on_built_code():
    # the seeded draws and the packed pair distances give the same first
    # minimum pair as before rows were packed
    plan = ConstructionPlan("multilevel_II", 2, 8, 4, 4,
                            {"n1": 4, "u1": 2, "u2": 2, "b1": 1, "b2": 1})
    code = run_plan(plan, BaseBoundRegistry()).cdc
    assert len(code) == 4690
    for seed, witness in ((3, (519, 3949)), (11, (3701, 3814))):
        report = verify_min_distance(code, mode="sample", sample_count=5000, seed=seed)
        assert (report.min_found, report.witness) == (4, witness)


def test_verify_sample_reproducible():
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))]
    cdc = CDC(2, 6, 3, 4, words_of(words))
    r1 = verify_min_distance(cdc, mode="sample", sample_count=200, seed=7)
    r2 = verify_min_distance(cdc, mode="sample", sample_count=200, seed=7)
    assert (r1.min_found, r1.witness, r1.seed) == (r2.min_found, r2.witness, 7)


def test_verify_generic_field_path():
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(3, 2, 2, 1))]
    cdc = CDC(3, 4, 2, 2, words_of(words))
    report = verify_min_distance(cdc)
    assert report.min_found == 2


def test_cdc_duplicate_rejection_and_lenient_load():
    word = subspace_from_rows(identity_matrix(gf(2), 2))
    with pytest.raises(InvalidParameters):
        CDC(2, 2, 2, 2, [word.word] * 2)
    lenient = CDC(2, 2, 2, 2, [word.word] * 2, strict=False)
    assert len(lenient) == 2
    assert verify_min_distance(lenient).min_found == 0
    # duplicates apart in input order: a strict code still refuses them, and
    # a lenient one keeps every copy and reports the first duplicate pair of
    # the sorted order, found here by entry tuples
    for q, rows in ((2, ([[0, 1, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 1]],
                         [[1, 0, 1, 1], [0, 0, 1, 0]], [[1, 0, 0, 0], [0, 1, 0, 1]])),
                    (3, ([[1, 2, 0, 1], [0, 0, 1, 2]], [[0, 1, 0, 2], [0, 0, 1, 1]],
                         [[1, 0, 2, 0], [0, 1, 1, 1]], [[0, 1, 0, 2], [0, 0, 1, 1]],
                         [[1, 2, 0, 1], [0, 0, 1, 2]]))):
        words = [subspace_from_rows(from_rows(gf(q), r)) for r in rows]
        with pytest.raises(InvalidParameters):
            CDC(q, 4, 2, 2, words_of(words))
        lenient = CDC(q, 4, 2, 2, words_of(words), strict=False)
        assert len(lenient) == len(words)
        entries = sorted(w.mat.entries for w in words)
        first = next(i for i in range(len(entries)) if entries[i] == entries[i + 1])
        report = verify_min_distance(lenient)
        assert (report.min_found, report.witness) == (0, (first, first + 1))


def test_cdc_file_round_trip():
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))]
    cdc = CDC(2, 6, 3, 4, words_of(words))
    text = cdc_to_text(cdc)
    assert text.splitlines()[0] == "CDC 2 6 3 4 64"
    back = cdc_from_text(text)
    assert cdc_to_text(back) == text
    keys = [w.key() for w in back]
    assert keys == sorted(keys)


def test_a_word_is_checked_on_its_own_pivots():
    # A = [I | 0], B and C on pivots (2, 3) and (4, 5) lie 4 apart, and
    # D = <e0, e1 + e5> meets A in a line, d(A, D) = 2.  Each word's pivots
    # are decided from its int, so D sits on (0, 1), not on a pivot tuple
    # far from A's, and the pair is not skipped by its pivot sets
    rows = {"A": ["100000", "010000"], "B": ["001000", "000100"], "C": ["000010", "000001"],
            "D": ["100000", "010001"]}
    code = CDC(2, 6, 2, 4, [int("".join(r), 2) for r in rows.values()])
    assert [w.word for w in code] == sorted(int("".join(r), 2) for r in rows.values())
    assert code.pivot_tuples == [(4, 5), (2, 3), (0, 1)]
    assert [code.pivot_tuples[g] for g in code.group] == [(4, 5), (2, 3), (0, 1), (0, 1)]
    d = code.codewords[3]
    assert (d.rows, d.pivots) == ((0b100000, 0b010001), (0, 1))
    report = verify_min_distance(code)
    assert (report.min_found, report.witness) == (2, (2, 3)) == _pairwise_oracle(code)
    assert verify_min_distance(code, mode="sample", sample_count=50, seed=1).min_found == 2


def _counted(monkeypatch, names=("rref",)):
    """Counts of the calls `subspaces` makes to each of `names`."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(subspaces, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(subspaces, name, counted)
    return calls


@pytest.mark.parametrize("q", [2, 3, 4])
def test_each_word_is_reduced_on_the_path_its_int_takes(q, monkeypatch):
    # a word in RREF on the last word's pivots is known by its mask, with no
    # call; any other, in RREF on new pivots or not in RREF, is reduced by
    # `rref` to the int the oracle's `codeword` gives.
    # Rank-deficient rows, bits above the k rows and negative ints are
    # refused, also on pivots the last word's mask knows
    f, n, k = gf(q), 5, 2
    width = n * f.width
    calls = _counted(monkeypatch)

    def word(*entries):
        return join_rows([pack_row(f, row) for row in entries], width)

    first = word([1, 0, q - 1, 0, 1], [0, 1, 1, 0, q - 1])
    same = word([1, 0, 1, 1, 0], [0, 1, q - 1, 0, 0])  # pivots (0, 1), as first
    new = word([0, 1, 0, 1, q - 1], [0, 0, 1, q - 1, 1])  # pivots (1, 2)
    scrambled = [[1, 1, 0, 1, 1], [q - 1, 0, 1, 0, 1]]  # both rows lead in column 0
    for words, want in (([first, same], {"rref": 1}),  # same: the mask
                        ([first, same, new], {"rref": 2}),  # new: new pivots
                        ([first, same, new, word(*scrambled)], {"rref": 3})):
        calls.update(rref=0)
        code = CDC(q, n, k, 2, words)
        assert calls == want
    assert sorted(code.pivot_tuples) == [(0, 1), (1, 2)]
    reduced = codeword(f, n, [pack_row(f, row) for row in scrambled])
    assert code.packed == sorted([first, same, new, reduced.word])
    assert code.codewords[code.packed.index(reduced.word)] == reduced
    # the mask of the reduced word's pivots does not take the scrambled word
    assert CDC(q, n, k, 2, [reduced.word, word(*scrambled)], strict=False).packed == \
        [reduced.word] * 2
    dependent = word([1, 0, 1, 0, 1], [q - 1, 0, q - 1, 0, q - 1])
    for words in ([dependent], [first, dependent], [word([1, 0, 1, 0, 1], [0] * n)]):
        with pytest.raises(ValueError, match="^rows are linearly dependent$"):
            CDC(q, n, k, 2, words)
    for bad in (first | 1 << k * width, 1 << k * width + 40, -first, -1):
        for words in ([bad], [first, bad], [same, first, bad]):
            with pytest.raises(InvalidParameters,
                               match="^codeword does not match container parameters$"):
                CDC(q, n, k, 2, words)
    # no word: no row is read, so the header's n and k may be of any size
    for code in (CDC(q, n, k, 2, []), CDC(q, 10**30, 10**29, 2, iter(()))):
        assert (len(code), code.packed, code.pivot_tuples, code.group) == (0, [], [], [])


def test_a_300_row_word_over_gf256_is_reduced_once(monkeypatch):
    # (I | 0) in GF(256)^301, k = 300, given with its first two rows
    # swapped and its last row scaled by 2: reduced by `rref` to the int
    # `codeword` gives.  (I | e_0), on its pivots, then takes the mask
    calls = _counted(monkeypatch)
    f, n, k = gf(256), 301, 300
    width = n * f.width
    rows = [1 << (n - 1 - r) * f.width for r in range(k)]  # the encoded 1 is 1
    rref_word = join_rows(rows, width)
    rows[0], rows[1] = rows[1], rows[0]
    rows[-1] = f.row_scale(rows[-1], 2)
    want = codeword(f, n, rows)
    assert (want.word, want.pivots) == (rref_word, tuple(range(k)))
    lifted = rref_word | 1 << (k - 1) * width  # the last column of row 0 set: (I | e_0)
    code = CDC(256, n, k, 2, [join_rows(rows, width), lifted])
    assert code.packed == [rref_word, lifted] and code.pivot_tuples == [tuple(range(k))]
    assert calls == {"rref": 1}
    assert verify_min_distance(code).min_found == 2


# the words of each bench plan, built and parsed, that miss the last word's
# mask and reach `rref`.  link10 builds 33,854 words: its 32,768 (U1 | M2)
# words, but the first, are known by the mask of U1's pivots, and `rref`
# sees that first, its 1,086 (M1 | U2) words and the one word of each
# trivial sub-code; its parsed file's 670 pivot changes reach it too
FAST_PATH_CALLS = {
    "ml2_q2": ({"rref": 531}, {"rref": 316}),
    "link10_q2": ({"rref": 1089}, {"rref": 670}),
    "link6_q3": ({"rref": 4}, {"rref": 2}),
}


@pytest.mark.parametrize("name", list(BENCH_PLANS))
def test_bench_words_take_the_mask(name, monkeypatch):
    calls = _counted(monkeypatch)
    code = run_plan(parse_plan(BENCH_PLANS[name])).cdc
    built = dict(calls)
    calls.update(rref=0)
    parsed = cdc_from_text(cdc_to_text(code))
    assert (built, dict(calls)) == FAST_PATH_CALLS[name]
    assert (parsed.packed, parsed.group, parsed.pivot_tuples) == \
        (code.packed, code.group, code.pivot_tuples)
    if name == "link10_q2":
        assert built["rref"] == len(code) - 32768 + 1 + 2


@pytest.fixture(scope="module")
def link10():
    """The benchmark's 33,854-word (10, 4, 4)_2 linkage code."""
    return run_plan(parse_plan(BENCH_PLANS["link10_q2"])).cdc


@pytest.mark.parametrize("name", list(GOLDEN_PLANS) + list(BENCH_PLANS))
def test_written_file_is_the_text(name, tmp_path):
    # a file is written a block at a time; its bytes are the text's
    code = run_plan(parse_plan({**GOLDEN_PLANS, **BENCH_PLANS}[name])).cdc
    path = tmp_path / "code.cdc"
    with open(path, "w", encoding="utf-8") as fh:
        assert cdc_to_text(code, fh) is None
    assert path.read_bytes() == cdc_to_text(code).encode()


def _parsed(code):
    return (code.q, code.n, code.k, code.d), [(w.rows, w.pivots) for w in code]


def _first_records(text, m):
    """The file of the first m records of `text`, its header count set to m."""
    head, *records = text.rstrip("\n").split("\n\n")
    fields = head.split()
    fields[5] = str(m)
    return "\n\n".join([" ".join(fields)] + records[:m]) + "\n"


def _last_record_straddles(text):
    """Whether the edge of the file's last block falls inside its last record."""
    edge = (len(text) - 1) // subspaces._BLOCK * subspaces._BLOCK
    return text.rindex("\n\n") + 2 < edge < len(text) - 1


@pytest.mark.parametrize("variant", ["as_written", "crlf", "no_final_newline",
                                     "last_record_straddles", "ends_on_an_edge"])
def test_parse_from_file_matches_text(variant, link10, tmp_path):
    # the 2.74 MB file is read in 64 KiB blocks, ~42 of whose edges fall in
    # records; each variant parses from the open file as from its text
    text = cdc_to_text(link10)
    if variant == "crlf":
        text = text.replace("\n", "\r\n")
    elif variant == "no_final_newline":
        text = text[:-1]
    elif variant == "last_record_straddles":
        text = next(t for t in (_first_records(text[:2 * subspaces._BLOCK], m)
                                for m in range(1, 1000)) if _last_record_straddles(t))
    elif variant == "ends_on_an_edge":  # three whole blocks, the last ending in blank lines
        text = _first_records(text, 3 * subspaces._BLOCK // 81 - 1)
        text += "\n" * (-len(text) % subspaces._BLOCK)
        assert len(text) == 3 * subspaces._BLOCK
    path = tmp_path / "code.cdc"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        from_file = _parsed(cdc_from_text(fh))
    assert from_file == _parsed(cdc_from_text(text))
    if variant in ("as_written", "crlf", "no_final_newline"):
        assert from_file == _parsed(link10)


@pytest.mark.parametrize("at", [10, 100_000])
def test_undecodable_byte_is_placed_in_the_file(at, link10, tmp_path):
    # the open file is decoded in 64 KiB blocks, and the decoder counts the
    # bad byte's position from its block's start; the error must count it
    # from the file's, as a whole-file read does
    data = bytearray(cdc_to_text(link10).encode())
    data[at] = 0xff
    path = tmp_path / "code.cdc"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as err:
        cdc_from_text(fh)
    assert str(err.value) == \
        f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"


def test_a_parsed_word_retains_under_180_bytes():
    # a parsed word is one packed int and a group number (about 51 B on
    # CPython 3.11; the next test bounds it at 64 B); as an object holding
    # its RREF's row tuple it was about 144 B, and with a Matrix around the
    # rows about 220 B
    plan = ConstructionPlan("multilevel_II", 2, 8, 4, 4, dict(n1=4, u1=2, u2=2, b1=1, b2=1))
    text = cdc_to_text(run_plan(plan).cdc)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = cdc_from_text(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(code) == 4690
    assert retained / len(code) < 180


def test_a_code_keeps_at_most_64_bytes_per_word():
    # a code keeps each word as one int of its rows end to end, 32 B for the
    # 32 bits of ml2, and its group number in a list beside it, so the
    # (8, 4690, 4, 4)_2 code keeps at most 64 B a word (about 51 B parsed and
    # 53 B built on CPython 3.11).  A code of `Subspace` words kept about
    # 145 B a word parsed and 153 B built.  The plan is built once first, so
    # that no cache it fills is counted
    plan = parse_plan(BENCH_PLANS["ml2_q2"])
    text = cdc_to_text(run_plan(plan).cdc)
    for make in (lambda: cdc_from_text(text), lambda: run_plan(plan).cdc):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = make()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(code) == 4690
        assert retained / len(code) <= 64
        del code


@pytest.mark.parametrize("q", [2, 3, 4])
def test_codewords_are_a_sequence_of_subspaces_made_on_read(q):
    # `code.codewords` is a read-only sequence: its length, iteration,
    # negative indices, slices, `random.sample` and `index` work, and each
    # element equals the `Subspace` that `codeword` makes of its rows, field,
    # pivots, entries and key alike.  Duplicates of a lenient code stay
    # adjacent, and the code is the same whatever the input order
    rng = random.Random(3300 + q)
    code = next(run_plan(plan).cdc for plan in map(parse_plan, GOLDEN_PLANS.values())
                if plan.q == q)
    words = code.codewords
    assert isinstance(words, collections.abc.Sequence) and len(words) == len(code) > 4
    made = [codeword(gf(q), code.n, w.rows, w.pivots) for w in words]
    for w, m in zip(words, made):
        assert (w.rows, w.pivots, w.field, w.n, w.key()) == (m.rows, m.pivots, m.field, m.n,
                                                              m.key())
        assert w.mat.entries == m.mat.entries and w == m
        assert codeword(gf(q), code.n, w.rows) == w  # reduced again, the same subspace
    assert list(words) == list(code) == made
    assert words[-1] == made[-1] and words[-len(made)] == made[0]
    assert words[1:-1:2] == made[1:-1:2] and words[::-1] == made[::-1]
    with pytest.raises(IndexError):
        words[len(made)]
    drawn = rng.sample(words, 4)
    assert all(made[words.index(w)] == w for w in drawn)
    dups = made[:3] + [made[1], made[2], made[1]]
    rng.shuffle(dups)
    lenient = CDC(q, code.n, code.k, code.d, words_of(dups), strict=False)
    assert list(lenient) == [made[0], made[1], made[1], made[1], made[2], made[2]]
    shuffled = made[:]
    rng.shuffle(shuffled)
    again = CDC(q, code.n, code.k, code.d, words_of(shuffled))
    assert (again.packed, again.group, again.pivot_tuples) == \
        (code.packed, code.group, code.pivot_tuples)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_subspace_rows_decode_the_word(q):
    # a `Subspace` holds its RREF rows end to end in one int, row 0 highest;
    # `rows` decodes them: for k = 1, and with a leading entry in column 0,
    # whose bits are the highest of the word
    f, n = gf(q), 5
    for entries, pivots in (([[0, 1, q - 1, 0, 1]], (1,)),
                            ([[1, 0, q - 1, 0, 1]], (0,)),
                            ([[1, q - 1, 0, 0, 1], [0, 0, 1, 0, q - 1]], (0, 2)),
                            ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 1]], (0, 1, 3))):
        rows = tuple(pack_row(f, r) for r in entries)
        word = sum(r << (len(rows) - 1 - i) * n * f.width for i, r in enumerate(rows))
        w = codeword(f, n, rows, pivots)
        assert (w.word, w.k, w.rows) == (word, len(rows), rows)
        assert Subspace(f, n, word, pivots).mat.rows() == [tuple(r) for r in entries]
        assert codeword(f, n, rows) == w  # reduced, the same word


@pytest.mark.parametrize("q", [2, 3, 4])
def test_cdc_from_text_keeps_exactly_the_records_in_rref(q):
    # the parser knows a record in RREF on the last record's pivots by one
    # mask, and checks any other afresh or reduces it.  Records in RREF, with
    # a pivot column's entry set in another row, with a leading entry other
    # than 1, or with an entry left of a pivot set, in runs of one pivot
    # tuple, parse as `codeword` reduces each
    rng = random.Random(3390 + q)
    f, n, k = gf(q), 6, 3
    records, want = [], []
    while len(records) < 240:
        pivots = sorted(rng.sample(range(n), k))
        for _ in range(rng.randrange(1, 5)):
            rows = [[0] * n for _ in range(k)]
            for r, c in enumerate(pivots):
                rows[r][c] = 1
                for j in range(c + 1, n):
                    if j not in pivots:
                        rows[r][j] = rng.randrange(q)
            r, kind = rng.randrange(k), rng.randrange(4)
            if kind == 1:
                rows[r][pivots[(r + 1) % k]] = rng.randrange(1, q)
            elif kind == 2 and q > 2:
                rows[r][pivots[r]] = rng.randrange(2, q)
            elif kind == 3 and pivots[r] > 0:
                rows[r][rng.randrange(pivots[r])] = rng.randrange(1, q)
            packed = [pack_row(f, row) for row in rows]
            if rank_added(f, [0] * (n + 1), packed) == k:
                records.append(rows)
                want.append(codeword(f, n, packed))
    text = f"CDC {q} {n} {k} 2 {len(records)}\n" + "".join(
        "\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows) for rows in records)
    parsed = cdc_from_text(text)
    assert [(w.word, w.pivots) for w in parsed] == sorted((w.word, w.pivots) for w in want)


@pytest.mark.parametrize("n", [5, 64, 70, 100])
def test_packed_order_is_entry_order(n):
    # a code sorts its words by packed rows; that must be the order of their
    # entry tuples, also when a row is wider than 64 bits
    rng = random.Random(n)
    words = [_random_subspace(rng, 2, n, 3) for _ in range(50)]
    words += [_random_subspace(rng, 2, n, 3) for _ in range(10)]
    words += [subspace_from_rows(from_rows(gf(2), rows)) for rows in (
        [[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2), [0] * (n - 1) + [1]],
        [[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2), [0] * (n - 2) + [1, 0]],
    )]
    cdc = CDC(2, n, 3, 2, words_of(words), strict=False)
    entries = [w.mat.entries for w in cdc]
    assert entries == sorted(entries)
    assert [(w.rows, w.pivots) for w in cdc_from_text(cdc_to_text(cdc))] == \
        [(w.rows, w.pivots) for w in cdc]


@pytest.mark.parametrize("q", [2, 3])
def test_cdc_from_text_reduces_a_non_rref_record(q):
    # rows (1 1 0 0), (0 1 0 0) span the same plane as (1 0 0 0), (0 1 0 0);
    # over GF(3) a leading 2 is scaled as well
    lead = 2 if q == 3 else 1
    text = f"CDC {q} 4 2 2 2\n\n{lead} 1 0 0\n0 1 0 0\n\n0 0 1 0\n0 0 0 1\n"
    code = cdc_from_text(text)
    assert [w.mat.rows() for w in code] == [[(0, 0, 1, 0), (0, 0, 0, 1)],
                                            [(1, 0, 0, 0), (0, 1, 0, 0)]]
    assert [w.pivots for w in code] == [(2, 3), (0, 1)]


@pytest.mark.parametrize("record", [
    "1 0 0 0\n1 0 0 0\n",  # rank-deficient
    "1 0 0 0\n0 0 0 0\n",  # a zero row
    "1 0 0 2\n0 1 0 0\n",  # an entry outside [0, q)
    "1 0 0 -1\n0 1 0 0\n",
    "1 0 0\n0 1 0 0\n",    # a short row
    "1 0 0 0 0\n0 1 0 0 0\n",
    "1 0 x 0\n0 1 0 0\n",
    "1 0 0 0\n\n0 1 0 0\n",  # a record cut by a blank line
])
def test_cdc_from_text_refuses_bad_records(record):
    with pytest.raises(ValueError):
        cdc_from_text(f"CDC 2 4 2 2 2\n\n0 0 1 0\n0 0 0 1\n\n{record}")


def test_a_record_is_joined_in_runs_of_8_rows():
    # the parser shift-ors a record 8 rows at a time and joins a longer
    # record's runs by halves (`join_rows`): over GF(2), GF(3) and GF(4), at
    # every k from 1 to 20 and at 100, each record in RREF parses to its
    # rows moved to their slots and summed, and a record cut by a blank
    # line after any of its rows, at the end of a run too, is refused.
    # 100 copies of the (I | 0) record of 500 rows of GF(256)^501 parse,
    # each row read once, within 0.75 s; a running shift-or of each record
    # took 1.7 s
    rng = random.Random(37)
    for q in (2, 3, 4):
        f = gf(q)
        for k in [*range(1, 21), 100]:
            n = k + 2
            records = [[[int(c == r) if c < k else rng.randrange(q) for c in range(n)]
                        for r in range(k)] for _ in range(3)]
            text = f"CDC {q} {n} {k} 2 3\n" + "".join(
                "\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows) for rows in records)
            want = sorted(join_rows([pack_row(f, row) for row in rows], n * f.width)
                          for rows in records)
            assert cdc_from_text(text).packed == want, (q, k)
            lines = [" ".join(map(str, row)) for row in records[0]]
            for cut in range(1, k):
                with pytest.raises(ValueError, match="truncated"):
                    cdc_from_text(f"CDC {q} {n} {k} 2 1\n\n" + "\n".join(
                        lines[:cut] + [""] + lines[cut:]) + "\n")
    n, k = 501, 500
    record = "\n".join(" ".join("1" if c == r else "0" for c in range(n)) for r in range(k))
    text = f"CDC 256 {n} {k} 2 100\n" + f"\n{record}\n" * 100
    t0 = time.perf_counter()
    code = cdc_from_text(text)
    assert time.perf_counter() - t0 < 0.75
    assert code.packed == [sum(1 << (k - r) * 8 * n - 8 * (r + 1) for r in range(k))] * 100


def test_verifier_matches_bruteforce_oracle():
    # the t-subspace collision scan against a plain per-pair recompute
    rng = random.Random(1234)
    words = []
    seen = set()
    while len(words) < 40:
        w = _random_subspace(rng, 2, 7, 3)
        if w.key() not in seen:
            seen.add(w.key())
            words.append(w)
    cdc = CDC(2, 7, 3, 2, words_of(words))
    report = verify_min_distance(cdc)
    naive = min(
        subspace_distance(a, b)
        for i, a in enumerate(cdc.codewords)
        for b in cdc.codewords[i + 1:]
    )
    assert report.min_found == naive
    i, j = report.witness
    assert subspace_distance(cdc.codewords[i], cdc.codewords[j]) == naive


def _pairwise_oracle(cdc, distance=subspace_distance):
    """Minimum distance and its lexicographically first pair, pair by pair."""
    w = cdc.codewords
    return min((distance(w[i], w[j]), (i, j))
               for i in range(len(w)) for j in range(i + 1, len(w)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verifier_matches_pairwise_oracle_over_fields(q):
    rng = random.Random(2020 + q)
    f = gf(q)
    codes = []
    # a general code, k = 1, n < 2k, and one mostly at 2k; each with so few
    # words that its levels hold more keys than it has pairs, so pairs are
    # compared, and with enough words to key every level: 2 sum_t [k t]_q
    # words are the most that are compared, and one more is keyed
    for n, k in ((6, 3), (4, 1), (5, 3), (8, 2)):
        most = 2 * sum(gauss_binomial(k, t, q) for t in range(1, k + 1))
        for size in (4, most, most + 1):
            words = [_random_subspace(rng, q, n, k) for _ in range(size)]
            codes.append(CDC(q, n, k, 2, words_of(words), strict=False))
    words = [_random_subspace(rng, q, 6, 2) for _ in range(9)]
    # three copies: the witness pairs the lowest copy with the second-lowest
    duplicated = CDC(q, 6, 2, 4, words_of(words + [words[4]] * 2), strict=False)
    # a line spread of GF(q)^4: every pair is at the largest distance 2k = 4
    spread = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(q, 2, 2, 2))]
    spread.append(subspace_from_rows(hstack(zero_matrix(f, 2, 2), identity_matrix(f, 2))))
    spread = CDC(q, 4, 2, 4, words_of(spread))
    for cdc in codes + [duplicated, spread]:
        report = verify_min_distance(cdc)
        assert (report.min_found, report.witness) == _pairwise_oracle(cdc)
    assert verify_min_distance(duplicated).min_found == 0
    assert verify_min_distance(spread).min_found == 4


@pytest.mark.parametrize("size", [2, 3])
def test_verifier_small_code_over_large_field(size):
    # over GF(256) a 3-dimensional word has q^2 + q + 1 = 65,793
    # 2-subspaces, far more keys than the code has pairs
    rng = random.Random(256 + size)
    words = [_random_subspace(rng, 256, 6, 3) for _ in range(size)]
    for cdc in (CDC(256, 6, 3, 2, words_of(words)),
                CDC(256, 6, 3, 2, words_of(words + words[:1]), strict=False)):
        report = verify_min_distance(cdc)
        assert (report.min_found, report.witness) == _pairwise_oracle(cdc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 49, 256])
def test_kernels_match_the_per_entry_oracle(q):
    # RREF, rank and every pair distance the verifier takes, against the
    # per-entry elimination of `oracles`
    rng = random.Random(3000 + q)
    f = gf(q)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 8)
        rows = [[rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        # a rank-deficient stack: a combination of two rows, and a duplicate
        a, b = rng.randrange(q), rng.randrange(1, q)
        mixed = [f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(rows[0], rows[-1])]
        for m in (from_rows(f, rows), from_rows(f, rows + [mixed, rows[-1]])):
            entries, pivots = oracle_rref(m)
            red, red_pivots = mat_rref(m)
            assert (red.entries, red_pivots) == (entries, pivots)
            assert mat_rank(m) == len(pivots)
    # k = 1 is keyed at any q; k = 2 is keyed up to q = 16, else pairs compared
    for n, k, size in ((4, 1, 12), (4, 2, 6), (5, 2, 2 * (q + 2) + 1 if q <= 16 else 8)):
        words = [_random_subspace(rng, q, n, k) for _ in range(size)]
        for extra in ([], words[1:3]):  # and with two duplicates
            w = CDC(q, n, k, 2, words_of(words + extra), strict=False).codewords
            dist = {(i, j): subspace_distance(w[i], w[j])
                    for i in range(len(w)) for j in range(i + 1, len(w))}
            report = verify_min_distance(CDC(q, n, k, 2, words_of(w), strict=False))
            assert (report.min_found, report.witness) == min((d, p) for p, d in dist.items())
            report = verify_min_distance(CDC(q, n, k, 2, words_of(w), strict=False),
                                         mode="sample", sample_count=40, seed=q)
            pairs = list(_sampled_pairs(len(w), 40, q))
            assert report.min_found == min(dist[p] for p in pairs)
            assert report.witness == next(p for p in pairs if dist[p] == report.min_found)


@pytest.mark.parametrize("count", [0, -3])
def test_verify_sample_count_below_one_rejected(count):
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 2, 2, 1))]
    cdc = CDC(2, 4, 2, 2, words_of(words))
    with pytest.raises(InvalidParameters):
        verify_min_distance(cdc, mode="sample", sample_count=count, seed=1)


# the first 20 pairs of `verify --mode sample:N:1` on a 33,854-word code,
# such as the (10,4,4)_2 linkage code (n1 = 5), as randrange drew them
FIRST_PAIRS_33854_SEED_1 = [
    (4135, 8805), (7727, 16716), (29457, 32468), (24878, 30949), (6151, 13759),
    (1857, 31972), (25546, 28362), (138, 29189), (14992, 17454), (6699, 20804),
    (1462, 2004), (603, 1667), (14195, 24982), (1903, 27663), (14528, 28698),
    (15275, 32493), (15130, 22655), (14338, 30121), (1408, 18991), (6553, 27274),
]


@pytest.mark.parametrize("seed", [0, 1, 7, -5, 2**70])
def test_sampled_pairs_are_randranges(seed):
    # drawn by getrandbits with rejection, the pairs are randrange's, at the
    # bounds just below, at and above powers of two too
    for n in list(range(2, 301)) + [4690, 33854, 65536, 65537, 2**40 + 3]:
        count = 20 if n <= 300 else 2000
        assert list(_sampled_pairs(n, count, seed)) == randrange_pairs(n, count, seed)


def test_sampled_pairs_pinned():
    # a change in the draws would change every sampled verify report
    assert list(_sampled_pairs(33854, 20, 1)) == FIRST_PAIRS_33854_SEED_1


def _line_pool(q, seed):
    """Distinct random 2-subspaces in canonical order, small enough an
    ambient space that some pairs meet, and their pair distances."""
    rng = random.Random(seed)
    n = 6 if q == 2 else 4
    words = {}
    while len(words) < 40:
        w = _random_subspace(rng, q, n, 2)
        words[w.key()] = w
    pool = sorted(words.values(), key=Subspace.key)
    dist = {(i, j): subspace_distance(pool[i], pool[j])
            for i in range(len(pool)) for j in range(i + 1, len(pool))}
    return pool, dist


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_sampled_pair_minimum_stops_exactly(q):
    # a pair stops once it cannot beat the running minimum; at every sample
    # count the minimum and its first pair are the oracle's over the pairs
    # randrange draws
    pool, dist = _line_pool(q, 4000 + q)
    seen = set()
    for words in (pool[:8], pool[:6] + pool[2:4]):  # and with two duplicates
        code = CDC(q, pool[0].n, 2, 2, words_of(words), strict=False)
        w = code.codewords
        for seed in range(6):
            pairs = randrange_pairs(len(w), 40, seed)
            dists = [subspace_distance(w[i], w[j]) for i, j in pairs]
            for count in range(1, 41):
                best, witness = first_minimum(dists[:count], pairs[:count])
                report = verify_min_distance(code, mode="sample", sample_count=count,
                                             seed=seed)
                assert (report.min_found, report.witness) == (best, witness)
                if count > 1 and min(dists[:count - 1]) > best:
                    # first reached at the last pair, below an earlier minimum
                    seen.add(("lowered", min(dists[:count - 1]), best))
                elif dists[count - 1] == best and pairs[count - 1] != witness:
                    seen.add(("tie", best))
    # lowered by one row, from 4 to 2; a duplicate reached last; a later pair
    # tying the minimum, also a second duplicate pair after the first
    assert {("lowered", 4, 2), ("tie", 2), ("tie", 0)} <= seen
    assert ("lowered", 2, 0) in seen or ("lowered", 4, 0) in seen


def _min_at_last_pair(dist, size):
    """Indices of `size` pool words whose last two are their one pair at
    distance 2, every other pair at distance 4."""
    for a, b in sorted(dist, key=lambda p: (-p[1], -p[0])):
        if dist[a, b] != 2:
            continue
        chosen = [b, a]
        for x in range(a - 1, -1, -1):
            if all(dist[x, y] == 4 for y in chosen):
                chosen.append(x)
                if len(chosen) == size:
                    return sorted(chosen)
    raise AssertionError("no such words in the pool")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_exhaustive_pair_minimum_stops_exactly(q):
    # codes so small that exhaustive mode compares pairs, in order, each
    # stopping once it cannot beat the running minimum; the minimum and its
    # lexicographically first pair must be the oracle's
    pool, dist = _line_pool(q, 5000 + q)
    last = _min_at_last_pair(dist, 5)
    a = last[-2]
    # a word before the last pair, at distance 2 from one of the five only:
    # the minimum is reached earlier and tied by the last pair
    tie = next(x for x in range(a) if x not in last and
               sorted(dist[min(x, y), max(x, y)] for y in last) == [2] + [4] * 4)
    codes = {
        "last": [pool[i] for i in last],
        "tie": [pool[i] for i in sorted(last + [tie])],
        # a duplicate of the last word: distance 0 first at the last pair
        "duplicate last": [pool[i] for i in last + [last[-1]]],
        # duplicates of the first and last words: 0 at (0, 1) ends the scan
        "duplicates": [pool[i] for i in [last[0]] + last + [last[-1]]],
    }
    for name, words in codes.items():
        assert 2 * sum(gauss_binomial(2, t, q) for t in (1, 2)) >= len(words)
        code = CDC(q, pool[0].n, 2, 2, words_of(words), strict=False)
        w = code.codewords
        pairs = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))]
        dists = [subspace_distance(w[i], w[j]) for i, j in pairs]
        best, witness = first_minimum(dists, pairs)
        assert (best, witness == pairs[-1]) == {
            "last": (2, True), "tie": (2, False), "duplicate last": (0, True),
            "duplicates": (0, False)}[name]
        assert dists[-1] == best
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == (best, witness)


def _prefix(n_words):
    """The first N pairs in i-major order of a code of N words, which bound
    the minimum before exhaustive verification keys any level."""
    return list(islice(combinations(range(n_words), 2), n_words))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_prefix_bound_matches_pairwise_oracle(q):
    # codes of lines in GF(q)^6 with more words than 2 * ([2 1]_q + [2 2]_q),
    # so their levels are keyed: a partial spread, every pair at 2k = 4, and
    # one line more that meets some of its words, wherever that line sorts
    size = 2 * (q + 2) + 1
    spread = sorted((lift_matrix(m) for m in enumerate_code(gabidulin_mrd(q, 2, 4, 2))),
                    key=Subspace.key)
    base = spread[:size - 1]
    prefix = set(_prefix(size))
    rng = random.Random(7000 + q)
    codes = {}
    while len(codes) < 3:
        x = _random_subspace(rng, q, 6, 2)
        words = sorted(base + [x], key=Subspace.key)
        i = words.index(x)
        dists = [subspace_distance(x, w) for w in words]
        near = [tuple(sorted((i, j))) for j, d in enumerate(dists) if d == 2]
        if near and 0 not in dists[:i] + dists[i + 1:]:
            inside = {p in prefix for p in near}
            codes.setdefault("inside" if inside == {True} else
                             "after" if inside == {False} else "tie", words)
    codes["duplicate in prefix"] = base + base[:1]
    codes["duplicate after prefix"] = base + base[4:5]
    codes["every distance 2k"] = spread[:size]
    for name, words in codes.items():
        code = CDC(q, 6, 2, 4, words_of(words), strict=False)
        assert len(code) == size
        report = verify_min_distance(code)
        best, witness = _pairwise_oracle(code)
        assert (report.min_found, report.witness) == (best, witness)
        w = code.codewords
        dists = {(i, j): subspace_distance(w[i], w[j]) for i, j in combinations(range(size), 2)}
        bound = min(dists[p] for p in prefix)
        ties = [p for p, d in dists.items() if d == best and p != witness]
        assert (bound, best, witness in prefix, bool(ties)) == {
            "inside": (2, 2, True, False),  # reached in the prefix only
            "after": (4, 2, False, False),  # first reached after the prefix
            "tie": (2, 2, True, True),  # reached in the prefix, tied later
            "duplicate in prefix": (0, 0, True, False),
            "duplicate after prefix": (4, 0, False, False),
            "every distance 2k": (4, 4, True, True),
        }[name]
    assert verify_min_distance(CDC(q, 6, 2, 4, words_of(codes["duplicate in prefix"]),
                                   strict=False)).witness == (0, 1)


def _swap_columns(rows, a, b, n):
    """GF(2) packed rows with columns a and b swapped."""
    x, y = n - 1 - a, n - 1 - b  # their bits
    return [r & ~(1 << x | 1 << y) | (r >> x & 1) << y | (r >> y & 1) << x for r in rows]


def test_prefix_bound_skips_the_levels_at_or_above_it(monkeypatch):
    # the lifted 3 x 3 Gabidulin code of rank distance 2: 64 planes of
    # GF(2)^6, more than 2 * ([3 1]_2 + [3 2]_2 + [3 3]_2) = 30, at d = 4.
    # It is one affine pivot group with no rank-1 difference, so it is
    # settled with no key.  Its copy with columns 2 and 3 swapped, an
    # isometry, splits into two pivot groups at symmetric difference 2, and
    # neither is settled.  Level k is read off the sorted words; at each
    # level t < k a word of a kept group is keyed once per pivot choice, in
    # batches of the words of one pivot tuple, so a clean level t of the
    # copy keys N * C(k, t) words
    k, d = 3, 4
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))]
    clean = CDC(2, 6, k, d, words_of(words))
    swapped = CDC(2, 6, k, d, [codeword(gf(2), 6, _swap_columns(w.rows, 2, 3, 6)).word
                               for w in words])
    for code in (clean, swapped):
        w = code.codewords
        assert min(subspace_distance(w[i], w[j]) for i, j in _prefix(len(w))) == d
    assert settled_groups(clean, d) == {(0, 1, 2)}
    assert {u.pivots for u in swapped} == {(0, 1, 2), (0, 1, 3)}
    assert settled_groups(swapped, d) == set()
    # a planted word at distance 2 from the code, whose first pair at
    # distance 2 lies after the prefix
    f, keys = gf(2), {w.key() for w in words}
    for bits in range(1, 512):
        b = lift_matrix(from_rows(f, [[bits >> (3 * r + c) & 1 for c in range(3)]
                                      for r in range(3)]))
        if b.key() in keys:
            continue
        planted = CDC(2, 6, k, d, words_of(words + [b]))
        i = planted.codewords.index(b)
        near = [tuple(sorted((i, j))) for j, v in enumerate(planted.codewords)
                if subspace_distance(b, v) == 2]
        if near and min(near) not in _prefix(len(planted)):
            break
    oracle = {code: _pairwise_oracle(code) for code in (clean, swapped, planted)}
    assert oracle[clean][0] == oracle[swapped][0] == d and oracle[planted] == (2, min(near))
    calls = []
    keys_of = subspaces.keys_of

    def counted(f, words, spec):
        calls.extend([len(spec[0])] * len(words))  # the level: one base row per row of C
        return keys_of(f, words, spec)

    monkeypatch.setattr(subspaces, "keys_of", counted)

    def level_calls(code):
        calls.clear()
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == oracle[code]
        return Counter(calls)

    clean_calls, planted_calls = level_calls(swapped), level_calls(planted)
    assert level_calls(clean) == {}
    # no key at level k, nor at any level t <= k - d/2
    assert clean_calls == {t: len(swapped) * math.comb(k, t) for t in range(k - d // 2 + 1, k)}
    assert set(planted_calls) == {k - 1}
    # the scan with its prefix bound at 2k keys every level down to the
    # first that collides; the rank-2 differences of the Gabidulin code are
    # below 2k / 2, so it is keyed as its copy is
    monkeypatch.setattr(subspaces, "_min_pair",
                        lambda code, pairs, masks, floors: (2 * code.k, (0, 1)))
    assert level_calls(planted) == planted_calls
    forced = level_calls(swapped)
    assert set(forced) == set(range(1, k)) and forced[k - 1] == clean_calls[k - 1]
    assert level_calls(clean) == forced


def _random_rref(rng, q, n, k):
    """A random k-subspace of GF(q)^n, on k random pivot columns."""
    f = gf(q)
    pivots = sorted(rng.sample(range(n), k))
    rows = [[int(c == p) if c <= p or c in pivots else rng.randrange(q) for c in range(n)]
            for p in pivots]
    return codeword(f, n, [pack_row(f, r) for r in rows], tuple(pivots))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_keys_match_the_row_by_row_oracle(q, monkeypatch):
    # every key list the scan builds, for every word and pivot choice at
    # every level below k, against the per-row product.  Each word's keys
    # are tagged with its index, so that no level collides, and the prefix
    # bound is held at 2k, so that every level is keyed.  The scan keys
    # exactly the words of the groups it keeps, as `settled_groups` names
    # them, and with no group settled, every word.  The lifted Gabidulin
    # codes of the golden linkage plans at q >= 4 have k = 2 and no rank-1
    # difference, so they are settled at 2k = 4
    rng = random.Random(2100 + q)
    codes = [run_plan(plan).cdc for plan in map(parse_plan, GOLDEN_PLANS.values())
             if plan.q == q]
    for k in (2, 3):
        size = 2 * sum(gauss_binomial(k, t, q) for t in range(1, k + 1)) + 20
        words: dict = {}
        while len(words) < size:
            w = _random_rref(rng, q, 6, k)
            words[w.rows] = w
        codes.append(CDC(q, 6, k, 2, words_of(words.values())))
    keys_of, affine_clean = subspaces.keys_of, subspaces._affine_clean
    monkeypatch.setattr(subspaces, "_min_pair",
                        lambda code, pairs, masks, floors: (2 * code.k, (0, 1)))
    settled_any = False
    for code in codes:
        size, n, k, seen = len(code), code.n, code.k, set()
        index = {w.word: i for i, w in enumerate(code)}

        def tagged(f, words, spec):
            # C's rows, from the places in the word they are moved from
            c = tuple(k - 1 - right // (n * f.width) for right, _, _ in spec[0])
            tags = [index[x] for x in words]
            keys = keys_of(f, words, spec)
            # word w's keys are every len(words)-th key from the w-th
            for w, i in enumerate(tags):
                oracle = row_by_row_keys(f, n, code[i].rows, c)
                assert sorted(keys[w::len(words)]) == sorted(oracle)
                seen.add((i, c))
            return [key * size + tags[x % len(words)] for x, key in enumerate(keys)]

        monkeypatch.setattr(subspaces, "keys_of", tagged)
        settled = settled_groups(code, 2 * code.k)
        settled_any |= bool(settled)
        # a code with a settled group is keyed again with none settled
        for rule in [affine_clean] + [lambda *args: False] * bool(settled):
            monkeypatch.setattr(subspaces, "_affine_clean", rule)
            seen.clear()
            assert verify_min_distance(code).min_found == 2 * code.k
            kept = [i for i, w in enumerate(code) if rule is not affine_clean
                    or w.pivots not in settled]
            assert seen == {(i, c) for i in kept for t in range(1, code.k)
                            for c in combinations(range(code.k), t)}
    assert settled_any == (q >= 4)


@pytest.mark.parametrize("q, m", [(2, 8), (3, 5), (4, 4)])
def test_batched_scan_takes_each_keys_two_lowest_holders(q, m, monkeypatch):
    # lines of GF(q)^(m + 2): a sample of the lifted Gabidulin code of 2 x m
    # matrices at rank distance 2, pairwise disjoint on pivots (0, 1), over
    # one batch of them; and three lines that meet them.  With p the first
    # row of one of them, s, and e_j the unit rows: h1 = <e0 + e_(n-1),
    # p - e0 - e_(n-1)> on pivots (0, 2), word 1; h2 = <p, e1 + e_(n-1)>,
    # beside s on pivots (0, 1); h4 = <e0 + e1 + e_(n-1), h1's second row>,
    # the last word.  Sampled words that meet them are dropped, so the pairs
    # at distance 2 are those of p's holders h1 < h2 < s in one pivot group
    # and (h1, h4) in another, all after the first N pairs.  The scan's first
    # pass is watched: it keys h1 after h2 and s, and meets (h1, h4) before
    # p's holders, so neither the first repeat met nor a key's first two
    # holders met give the first pair (h1, h2)
    rng = random.Random(2500 + q)
    f, n = gf(q), m + 2
    unit = [pack_row(f, [int(j == c) for j in range(n)]) for c in range(n)]
    spread = sorted((lift_matrix(x) for x in enumerate_code(gabidulin_mrd(q, 2, m, 2))),
                    key=Subspace.key)
    zero = spread[0]
    assert zero.rows == (unit[0], unit[1])
    s = rng.choice([w for w in spread if row_codes(f, w.rows[0], n)[2]])
    p, low = s.rows[0], f.row_add(unit[0], unit[-1])
    h1 = codeword(f, n, [low, f.row_sub(p, low)])
    h2 = codeword(f, n, [p, f.row_add(unit[1], unit[-1])])
    h4 = codeword(f, n, [f.row_add(low, unit[1]), h1.rows[1]])
    sample = [w for w in rng.sample(spread, 160) if w not in (zero, s)]
    code = CDC(q, n, 2, 4, words_of([zero, s, h1, h2, h4] + [
        w for w in sample if all(subspace_distance(w, h) == 4 for h in (h1, h2, h4))]))
    w = code.codewords
    index = {u.word: i for i, u in enumerate(w)}
    i1, i2, i_s, i4 = (index[u.word] for u in (h1, h2, s, h4))
    assert (i1, i4) == (1, len(w) - 1) and i1 < i2 < i_s < i4
    assert sum(u.pivots == (0, 1) for u in w) > 128
    oracle = _pairwise_oracle(code)
    assert oracle == (2, (i1, i2))
    assert all(subspace_distance(w[i], w[j]) == 4 for i, j in _prefix(len(w)))

    # (pivot group, key) -> [(order met, batch, word)] in the first pass
    holders: dict = {}
    keyed, batches, met = set(), [], count()
    keys_of = subspaces.keys_of

    def watched(f, words, spec):
        keys = keys_of(f, words, spec)
        # C's rows, from the places in the word they are moved from
        c = tuple(code.k - 1 - right // (n * f.width) for right, _, _ in spec[0])
        tags = [index[x] for x in words]
        if (tags[0], c) not in keyed:  # not the second pass
            keyed.update((i, c) for i in tags)
            batches.append(tags)
            for x, key in enumerate(keys):
                i = tags[x % len(tags)]
                group = tuple(w[i].pivots[r] for r in c)
                holders.setdefault((group, key), []).append((next(met), len(batches), i))
        return keys

    monkeypatch.setattr(subspaces, "keys_of", watched)
    report = verify_min_distance(code)
    assert (report.min_found, report.witness) == oracle
    assert max(map(len, batches)) == 128
    shared = {gk: h for gk, h in holders.items() if len(h) > 1}
    assert len({group for group, _ in shared}) == 2
    # a lowest holder keyed in a later batch than the second-lowest
    assert any(a[1] > b[1] for a, b in (sorted(h, key=lambda x: x[2])[:2]
                                        for h in shared.values()))
    # neither the first repeat met nor each key's first two holders met
    # give the first pair
    first = min(shared.values(), key=lambda h: h[1][0])
    assert tuple(sorted(i for _, _, i in first[:2])) != oracle[1]
    assert min(tuple(sorted(i for _, _, i in h[:2])) for h in shared.values()) != oracle[1]


def _watch_passes(code, monkeypatch):
    """Exhaustive verification of `code` with `keys_of` watched.  Returns
    the report and, by (level, key group), the batches the first pass keys,
    each as its word indices and keys, and the first word of each batch the
    second pass keys, in the order keyed.  A key group is the pivot set of
    the keys, read off the batch's first word and C's rows."""
    n, w = code.n, code.codewords
    index = {u.word: i for i, u in enumerate(w)}
    first, second = {}, {}
    keys_of = subspaces.keys_of

    def watched(f, words, spec):
        keys = keys_of(f, words, spec)
        c = tuple(code.k - 1 - right // (n * f.width) for right, _, _ in spec[0])
        tags = [index[x] for x in words]
        group = (len(c), tuple(w[tags[0]].pivots[r] for r in c))
        batches = first.setdefault(group, [])
        if any(tags[0] == met[0] for met, _ in batches):
            second.setdefault(group, []).append(tags[0])
        else:
            batches.append((tags, keys))
        return keys

    monkeypatch.setattr(subspaces, "keys_of", watched)
    report = verify_min_distance(code)
    monkeypatch.setattr(subspaces, "keys_of", keys_of)
    return report, first, second


def _stop_rule(batches):
    """The batches a key group's second pass must key, by their first word,
    from all the holders its first pass met: the batches up to the last
    holding a repeated key, by first word, up to the first that starts past
    the second index of the least pair among the batches before it, with
    no key held once among them below that pair's first index."""
    holders: dict = {}
    for tags, keys in batches:
        for x, key in enumerate(keys):
            holders.setdefault(key, []).append(tags[x % len(tags)])
    repeated = {key for key, h in holders.items() if len(h) > 1}
    last = max((x for x, (_, keys) in enumerate(batches) if repeated & set(keys)), default=-1)
    starts = sorted(tags[0] for tags, _ in batches[:last + 1])
    for x, start in enumerate(starts):
        held = {key: sorted(i for i in holders[key] if any(
            i in tags for tags, _ in batches if tags[0] in starts[:x])) for key in repeated}
        pairs = [tuple(h[:2]) for h in held.values() if len(h) > 1]
        if pairs and start > min(pairs)[1] and \
                all(h[0] >= min(pairs)[0] for h in held.values() if len(h) == 1):
            return starts[:x]
    return starts


def _two_group_lines(q, distance):
    """Lines of GF(q)^n, n = m + 2, every pair 4 apart, in two pivot
    groups: 150 lifted Gabidulin words on pivots (0, 1), 2 x m at rank
    distance 2, so two batches; and 20 lines on pivots (0, 2) with a 0 in
    column 1, which sort among the first group's words that have a 0 in
    column 2, each at `distance` 4 from every other line."""
    rng = random.Random(3900 + q)
    f, m = gf(q), {2: 10, 3: 6}.get(q, 5)
    n = m + 2
    spread = sorted((lift_matrix(x) for x in enumerate_code(gabidulin_mrd(q, 2, m, 2))),
                    key=Subspace.key)
    lines = spread[:1] + rng.sample(spread[1:], 149)
    others = []
    while len(others) < 20:
        rows = [[1, 0, 0] + [rng.randrange(q) for _ in range(m - 1)],
                [0, 0, 1] + [rng.randrange(q) for _ in range(m - 1)]]
        z = codeword(f, n, [pack_row(f, r) for r in rows], (0, 2))
        if all(distance(z, u) == 4 for u in others + lines):
            others.append(z)
    return f, n, lines, others


def _changed(f, n, u, r, c, value):
    """u with entry (r, c), off its pivots, set to `value`."""
    rows = [row_codes(f, x, n) for x in u.rows]
    rows[r] = rows[r][:c] + (value,) + rows[r][c + 1:]
    return codeword(f, n, [pack_row(f, x) for x in rows], u.pivots)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_the_second_pass_stops_at_the_first_pair(q, monkeypatch):
    # planted words in the two-group code of `_two_group_lines`, each
    # against the pairwise oracle, and each key group's second pass against
    # the stop rule on the holders its first pass met:
    # - words at distance 2 from one of the first 16 words, seeded as the
    #   benchmark plants them: the pass keys the first batch by its first
    #   word and stops;
    # - one beside the last Gabidulin word, whose holders are in a late batch;
    # - a line on pivots (0, 2) through the first point of word u < 16, in
    #   key group (0,), which both pivot groups feed: by first word its
    #   batch comes between the Gabidulin group's two, and the pass stops
    #   before the second of those;
    # - a line b through the second point of e, the first Gabidulin word
    #   past word 2, sorted into the Gabidulin group's second batch, and a
    #   copy d of the next one, g, that shares its second row: (g, d) is met
    #   first, but e's key still waits for its second holder, so the pass
    #   goes on to b's batch, and the first pair is (e, b)
    rng = random.Random(4000 + q)
    cache: dict = {}  # (word, word) -> distance, over the lines met

    def distance(u, v):
        if (u.word, v.word) not in cache:
            cache[u.word, v.word] = cache[v.word, u.word] = subspace_distance(u, v)
        return cache[u.word, v.word]

    f, n, lines, others = _two_group_lines(q, distance)
    # lifted MRD words at rank distance 2 lie 4 apart; every other pair of
    # the code is computed
    cache.update(((u.word, v.word), 4) for u in lines for v in lines if u != v)
    base = lines + others
    code = CDC(q, n, 2, 4, words_of(base))
    w = code.codewords
    assert _pairwise_oracle(code, distance)[0] == 4
    def meeting(target, candidates):  # the first new line that meets target, and no word before it
        return next(x for x in candidates if x not in w and distance(x, target) == 2 and
                    all(distance(x, v) == 4 for v in w if v.key() < target.key()))

    def entry(u, r, c):
        return row_codes(f, u.rows[r], n)[c]

    plants = {}
    for _ in range(4):  # free entries of the last two columns, as the benchmark plants
        i, r, c = rng.randrange(16), rng.randrange(2), n - 1 - rng.randrange(2)
        plants[f"near word {i}"] = [_changed(f, n, w[i], r, c, (entry(w[i], r, c)
                                                                  + rng.randrange(1, q)) % q)]
    last = max((u for u in w if u.pivots == (0, 1)), key=Subspace.key)
    plants["late"] = [_changed(f, n, last, 1, n - 1, (entry(last, 1, n - 1) + 1) % q)]
    u = next(u for u in w[3:16] if u.pivots == (0, 1))
    through = meeting(u, (codeword(f, n, [u.rows[0], pack_row(f, (0, 0, 1) + tail)])
                          for tail in product(range(q), repeat=n - 3)))
    plants["two groups"] = [through]
    e, g = [u for u in w[3:] if u.pivots == (0, 1)][:2]
    b = meeting(e, (codeword(f, n, [pack_row(f, (1, 0, q - 1) + tail), e.rows[1]], (0, 1))
                    for tail in product(range(q - 1, -1, -1), repeat=n - 3)))
    d = meeting(g, (_changed(f, n, g, 0, c, (entry(g, 0, c) + x) % q)
                    for c in range(n - 1, 1, -1) for x in range(1, q)))
    plants["pending"] = [b, d]
    for name, words in plants.items():
        planted = CDC(q, n, 2, 4, words_of(base + words))
        report, first, second = _watch_passes(planted, monkeypatch)
        oracle = _pairwise_oracle(planted, distance)
        assert (report.min_found, report.witness) == oracle == (2, oracle[1]), name
        # a pair among the first N is found with no key
        assert bool(second) == bool(first) == (oracle[1] not in _prefix(len(planted))), name
        for group, batches in first.items():
            assert second.get(group, []) == _stop_rule(batches), (name, group)
        pw = planted.codewords
        at = {u.word: i for i, u in enumerate(pw)}
        if name == "late":
            assert oracle[1][1] >= 128
        if name == "two groups":
            starts = sorted(tags[0] for tags, _ in first[1, (0,)])
            assert len(starts) == 3 and second[1, (0,)] == starts[:2]
            assert pw[starts[1]].pivots == (0, 2) and pw[starts[2]].pivots == (0, 1)
        if name == "pending":
            assert oracle[1] == (at[e.word], at[b.word]) and at[b.word] >= 128
            assert distance(pw[at[g.word]], pw[at[d.word]]) == 2
            assert at[e.word] < min(at[g.word], at[d.word]) <= max(at[g.word], at[d.word]) < 128
            assert second[1, (1,)] == sorted(tags[0] for tags, _ in first[1, (1,)])


# the keys the scan makes on each planted copy of
# `test_planted_linkage_copies_stop_at_their_first_pair`, by plant seed; the
# second pass that keyed every batch up to the last repeat made 17,311 to
# 18,903 on the seeds that key at all
PLANTED_LINK6_KEYS = {1: 11679, 2: 11295, 3: 11679, 4: 11551, 5: 11167, 6: 11167, 7: 11167,
                      8: 11551, 9: 12831, 10: 0, 11: 11551, 12: 11551, 13: 11679, 14: 12831,
                      15: 11769}


def test_planted_linkage_copies_stop_at_their_first_pair(monkeypatch):
    # the benchmark's planted copies of the (6, 730, 4, 3)_3 linkage code,
    # by its recipe: the seed picks one of the first 16 words, one entry
    # right of a row's pivot off the pivots, and a nonzero increment.  The
    # code's pairs lie 4 or more apart, so the pairwise oracle's first pair
    # at 2 is the planted word's first pair at 2.  Seed 10's lies among the
    # first N pairs, so no key is made
    code = run_plan(parse_plan(BENCH_PLANS["link6_q3"])).cdc
    f, n, k = code.field, code.n, code.k
    keys_of, made = subspaces.keys_of, []

    def counted(f, words, spec):
        keys = keys_of(f, words, spec)
        made.append(len(keys))
        return keys

    monkeypatch.setattr(subspaces, "keys_of", counted)
    spots = [(i, r, c) for i in range(16) for r, p in enumerate(code[i].pivots)
             for c in range(p + 1, n) if c not in code[i].pivots]
    keys = {}
    for seed in PLANTED_LINK6_KEYS:
        rng = random.Random(seed)
        i, r, c = rng.choice(spots)
        rows = [list(row_codes(f, x, n)) for x in code[i].rows]
        rows[r][c] = (rows[r][c] + rng.randrange(1, code.q)) % code.q
        v = codeword(f, n, [pack_row(f, x) for x in rows], code[i].pivots)
        planted = CDC(code.q, n, k, code.d, code.packed + [v.word])
        w = planted.codewords
        at = w.index(v)
        oracle = min((subspace_distance(v, u), tuple(sorted((at, j))))
                     for j, u in enumerate(w) if j != at)
        made.clear()
        report = verify_min_distance(planted)
        keys[seed] = sum(made)
        assert (report.min_found, report.witness) == oracle
        assert oracle[0] == 2
    assert keys == PLANTED_LINK6_KEYS


@pytest.mark.parametrize("q", [2, 3])
def test_level_k_reads_equal_neighbours(q, monkeypatch):
    # codes of lines in GF(q)^6, large enough that their levels are keyed,
    # with runs of equal words first, in the middle, last, three long, and
    # two runs: the sorted words give the first pair at distance 0 with no
    # key built, and it is the pairwise oracle's
    spread = sorted((lift_matrix(m) for m in enumerate_code(gabidulin_mrd(q, 2, 4, 2))),
                    key=Subspace.key)[:12]
    runs = {"first": ([0], 0), "middle": ([5], 5), "last": ([11], 11), "triple": ([6, 6], 6),
            "two runs": ([8, 3, 8], 3)}

    def unkeyed(*args):
        raise AssertionError("a key was built")

    monkeypatch.setattr(subspaces, "keys_of", unkeyed)
    for extra, i in runs.values():
        code = CDC(q, 6, 2, 4, words_of(spread + [spread[j] for j in extra]), strict=False)
        assert len(code) > 2 * (gauss_binomial(2, 1, q) + 1)
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == _pairwise_oracle(code) == (0, (i, i + 1))


def _lifts(f, k, m, mats):
    """The words (I_k | A) of k x m matrices A, each a tuple of packed rows."""
    n = k + m
    return [codeword(f, n, [1 << (n - 1 - r) * f.width | x for r, x in enumerate(a)],
                     tuple(range(k))) for a in mats]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_isolated_affine_groups_match_the_pairwise_oracle(q, monkeypatch):
    # lines of GF(q)^n, n = m + 2, in pivot group (0, 1), with the line X =
    # <e2, e3> as word 0, at distance 4 from each of them and at pivot
    # symmetric difference 4 = the prefix bound.  The groups: the lifted
    # Gabidulin code of 2 x m matrices at rank distance 2, settled with no
    # key; the lifts of the (a, a with its last two entries swapped), an
    # affine space whose difference (e0, e0) has rank 1; the Gabidulin code
    # one word short; that code with its middle word replaced by its last
    # word with the last entry of row 1 changed, q^m words that are not
    # affine; and the Gabidulin code beside a line Z on pivots (0, 2), at
    # pivot symmetric difference 2, which meets one of its words.  Each
    # minimum at 2 lies past the first N pairs, so level 1 is keyed: every
    # word of a kept group is keyed, no word of a settled one
    f, m = gf(q), 4 if q == 2 else 3
    n = m + 2
    gabidulin = [w.packed for w in enumerate_code(gabidulin_mrd(q, 2, m, 2))]
    mask = (1 << f.width) - 1

    def swapped(a):  # a with its last two entries swapped
        low, high = a & mask, a >> f.width & mask
        return a >> 2 * f.width << 2 * f.width | low << f.width | high

    rank_one = [(a, swapped(a)) for a in
                (pack_row(f, e) for e in product(range(q), repeat=m))]
    x = codeword(f, n, [pack_row(f, [int(c == r) for c in range(n)]) for r in (2, 3)], (2, 3))
    z = codeword(f, n, [pack_row(f, [1, q - 1] + [0] * m),
                        pack_row(f, [0, 0, 1] + [0] * (m - 2) + [1])], (0, 2))
    code = CDC(q, n, 2, 4, words_of(_lifts(f, 2, m, gabidulin)))
    gone, last = code.codewords[len(code) // 2], code.codewords[-1]
    changed = codeword(f, n, (last.rows[0], f.row_add(last.rows[1], 1)), (0, 1))
    short = [w for w in code if w != gone]
    cases = {  # words, the groups settled, and the minimum
        "clean": (list(code) + [x], {(0, 1)}, 4),
        "rank-1 difference": (_lifts(f, 2, m, rank_one) + [x], set(), 2),
        "one word short": (short + [x], set(), 4),
        "not affine": (short + [changed, x], set(), 2),
        "pivots 2 apart": (list(code) + [x, z], set(), 2),
    }
    keys_of, keyed = subspaces.keys_of, set()

    def watched(f, words, spec):
        keyed.update(words)
        return keys_of(f, words, spec)

    monkeypatch.setattr(subspaces, "keys_of", watched)
    for name, (words, settled, least) in cases.items():
        code = CDC(q, n, 2, 4, words_of(words))
        w = code.codewords
        assert len(code) > 2 * (gauss_binomial(2, 1, q) + 1) and w[0] == x
        assert min(subspace_distance(w[i], w[j]) for i, j in _prefix(len(w))) == 4
        assert settled_groups(code, 4) == settled, name
        keyed.clear()
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == _pairwise_oracle(code)
        assert report.min_found == least
        assert keyed == {u.word for u in w if u.pivots not in settled}, name


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sampled_skips_match_the_pairwise_oracle(q, monkeypatch):
    # lines of GF(q)^n, n = m + 2, from the lifted Gabidulin code of 2 x m
    # matrices at rank distance 2: q^m words in pivot group (0, 1), each
    # pair at distance 4.  Five versions: clean; with a line on pivots
    # (0, 2), at pivot symmetric difference 2, so its pairs are computed;
    # with a word replaced by the middle word with the last entry of its
    # last row changed, at distance 2 from it; with a word replaced by a
    # copy of the middle word; and with that changed word added, q^m + 1
    # words, a group that is never settled.  A sixth is a d = 2 lifted code:
    # the q^m lifts of the 2 x m matrices with a zero second row, each pair
    # at distance 2, claimed 4.  Each group is tested at most once per
    # verification, before the draws, at the claimed 4, once the draws are
    # expected to compute its inner pairs as often as the test costs.  At
    # sample counts below and above that, every report is the oracle's over
    # randrange's pairs, and the exhaustive reports of the group of q^m + 1
    # words and of the d = 2 code are the oracle's over all pairs
    f, m = gf(q), 4 if q == 2 else 3
    n = m + 2
    lifted = _lifts(f, 2, m, [w.packed for w in enumerate_code(gabidulin_mrd(q, 2, m, 2))])
    size = len(lifted)
    middle = lifted[size // 2]
    near = codeword(f, n, [pack_row(f, [1, q - 1] + [0] * m),
                           pack_row(f, [0, 0, 1] + [0] * (m - 2) + [1])], (0, 2))
    planted = codeword(f, n, (middle.rows[0], f.row_add(middle.rows[1], 1)), (0, 1))
    versions = {
        "clean": lifted,
        "near": lifted + [near],
        "planted": lifted[1:] + [planted],
        "duplicate": lifted[1:] + [middle],
        "one word over": lifted + [planted],
        "d = 2": _lifts(f, 2, m, [(pack_row(f, e), 0) for e in product(range(q), repeat=m)]),
    }
    affine_clean, tested, made = subspaces._affine_clean, set(), []

    def watched(code, g, size, best):
        found = affine_clean(code, g, size, best)
        tested.add((name, found))
        made.append(g)
        return found

    monkeypatch.setattr(subspaces, "_affine_clean", watched)
    for name, words in versions.items():
        code = CDC(q, n, 2, 4, words_of(words), strict=False)
        w, dist = code.codewords, {}
        for seed in range(6):
            pairs = randrange_pairs(len(w), 3 * size, seed)
            dists = [dist.get(p) or dist.setdefault(p, subspace_distance(w[p[0]], w[p[1]]))
                     for p in pairs]
            for count in range(1, 3 * size + 1):
                made.clear()
                report = verify_min_distance(code, mode="sample", sample_count=count, seed=seed)
                assert (report.min_found, report.witness) == \
                    first_minimum(dists[:count], pairs[:count]), (name, seed, count)
                assert len(made) == len(set(made)) <= 1, (name, seed, count)
    for name in ("one word over", "d = 2"):
        code = CDC(q, n, 2, 4, words_of(versions[name]), strict=False)
        w, pairs = code.codewords, list(combinations(range(len(code)), 2))
        made.clear()
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == \
            first_minimum([subspace_distance(w[i], w[j]) for i, j in pairs], pairs), name
        assert len(made) == len(set(made)), name
    # the clean group is settled, beside the near line too; a group with a
    # planted or a repeated word, of q^m + 1 words, or of the d = 2 code, is
    # tested at the claimed 4 and kept
    assert tested == {("clean", True), ("near", True), ("planted", False),
                      ("duplicate", False), ("one word over", False), ("d = 2", False)}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_up_front_group_test_matches_the_pairwise_oracle(q, monkeypatch):
    # the lifted Gabidulin code of 2 x m matrices at rank distance 2: q^m
    # lines of GF(q)^n, n = m + 2, in pivot group (0, 1), whose inner
    # minimum is 4, claimed d = 2, 4 and 6, below, at and above it, and
    # d = 0, which only the API takes.  No group is tested at d = 0 or at
    # d = 6 > 2k, where none is clean.
    # Four versions: clean; with a line on pivots (0, 2) beside it, N = s + 1;
    # with a word replaced by the middle word with the last entry of its
    # last row changed, at distance 2 from it; and with that word added,
    # q^m + 1 words.  The last two fail the group test at every d.  A group
    # of s words is tested before the draws, at the claimed d, once
    # count s (s - 1) >= N (N - 1) (N + [k r]_q), r = (d - 1) // 2: with c
    # the least such count (r taken as 0 at d = 0), not at c - 1 draws and
    # once at c.  At c - 1, c, c + 1, 2c and 8c draws of four seeds, each
    # report is the oracle's over randrange's pairs
    f, m = gf(q), 4 if q == 2 else 3
    n = m + 2
    lifted = _lifts(f, 2, m, [w.packed for w in enumerate_code(gabidulin_mrd(q, 2, m, 2))])
    size, middle = len(lifted), lifted[len(lifted) // 2]
    near = codeword(f, n, [pack_row(f, [1, q - 1] + [0] * m),
                           pack_row(f, [0, 0, 1] + [0] * (m - 2) + [1])], (0, 2))
    planted = codeword(f, n, (middle.rows[0], f.row_add(middle.rows[1], 1)), (0, 1))
    versions = {
        "clean": (lifted, True),
        "near": (lifted + [near], True),
        "planted": (lifted[1:] + [planted], False),
        "one word over": (lifted + [planted], False),
    }
    affine_clean, min_pair, before, drawing = subspaces._affine_clean, subspaces._min_pair, [], []

    def watched(code, g, size, best):
        found = affine_clean(code, g, size, best)
        if not drawing:
            before.append((code.pivot_tuples[g], size, best, found))
        return found

    def paired(code, pairs, masks, floors):
        drawing.append(1)
        return min_pair(code, pairs, masks, floors)

    monkeypatch.setattr(subspaces, "_affine_clean", watched)
    monkeypatch.setattr(subspaces, "_min_pair", paired)
    for name, (words, affine) in versions.items():
        for d in (0, 2, 4, 6):
            code = CDC(q, n, 2, d, words_of(words))
            w, dist, s = code.codewords, {}, Counter(u.pivots for u in code)[(0, 1)]
            tests = gauss_binomial(2, max((d - 1) // 2, 0), q)
            c = -(-len(w) * (len(w) - 1) * (len(w) + tests) // (s * (s - 1)))
            for seed in range(4):
                pairs = randrange_pairs(len(w), 8 * c, seed)
                dists = [dist.get(p) or dist.setdefault(p, subspace_distance(w[p[0]], w[p[1]]))
                         for p in pairs]
                for count in (c - 1, c, c + 1, 2 * c, 8 * c):
                    before.clear()
                    drawing.clear()
                    report = verify_min_distance(code, mode="sample", sample_count=count,
                                                 seed=seed)
                    assert (report.min_found, report.witness) == \
                        first_minimum(dists[:count], pairs[:count]), (name, d, seed, count)
                    # clean at 2 and 4
                    assert before == ([] if count < c or d in (0, 6) else
                                      [((0, 1), s, d, affine)]), (name, d, count)


def test_a_repeated_word_keeps_its_affine_group_unsettled():
    # the (4, 4, 4, 2)_2 file with records [I|0], [I|I], [I|J], [I|J], J =
    # [[0, 1], [1, 1]]: four words of one pivot tuple whose differences
    # span {0, I, J, I + J}, with no element of rank 1, yet two of them are
    # equal.  The group is not settled, so the pair of equal words is
    # computed: d = 0 at (1, 2), exhaustively and over 5,000 draws
    code = cdc_from_text("CDC 2 4 2 4 4\n\n1 0 0 0\n0 1 0 0\n\n1 0 1 0\n0 1 0 1\n\n"
                         "1 0 0 1\n0 1 1 1\n\n1 0 0 1\n0 1 1 1\n")
    assert [w.rows for w in code] == [(8, 4), (9, 7), (9, 7), (10, 5)]
    assert code.pivot_tuples == [(0, 1)]
    assert not subspaces._affine_clean(code, 0, 4, 4)
    for report in (verify_min_distance(code),
                   verify_min_distance(code, mode="sample", sample_count=5000, seed=1)):
        assert (report.min_found, report.witness) == (0, (1, 2))


def test_sampled_verification_computes_few_draws(monkeypatch):
    # 200,000 draws on the lifted Gabidulin (8, 4096, 4, 4)_2 code, one
    # affine pivot group at d = 4: the draws reach the group's size, so it is
    # settled at the claimed 4 before the first draw (one rank test, then one
    # for each of the [4 1]_2 = 15 lines of GF(2)^4), and only the draws up
    # to the first at distance 4, the fifth, are eliminated
    code = CDC(2, 8, 4, 4, [lift_matrix(x).word
                            for x in enumerate_code(gabidulin_mrd(2, 4, 4, 2))])
    assert len(code) == 4096
    w = code.codewords  # the first 100 draws of seed 1 begin any longer run of it
    first = next(t for t, (i, j) in enumerate(randrange_pairs(len(code), 100, 1))
                 if subspace_distance(w[i], w[j]) == 4)
    assert first == 4
    calls = []

    def counted(*args):
        calls.append(1)
        return rank_added(*args)

    monkeypatch.setattr(subspaces, "rank_added", counted)
    report = verify_min_distance(code, mode="sample", sample_count=200_000, seed=1)
    assert report.min_found == 4
    assert len(calls) == 16 + first + 1


def test_a_group_is_tested_once_at_each_minimum(monkeypatch):
    # each `_affine_clean` call, and whether it was made before the pairs,
    # while they are computed or after the first N pairs of an exhaustive
    # verification.  Each group is tested at most once per verification,
    # and never while pairs are computed.  200,000 draws on the lifted
    # Gabidulin (8, 4096, 4, 4)_2 code are expected to compute its group's
    # inner pairs more often than its test costs, so the group is settled at
    # the claimed 4 before the draws.  With a word added at distance 2 from
    # one of its words, the group of 4,097 words fails that test, and its
    # inner pairs are computed with no second test.  The lifted
    # (8, 256, 6, 4)_2 code of rank distance 3 with such a word, claimed 4,
    # fails at 4 before the draws and is not tested again as the minimum
    # falls to 6, 4 and 2.  The exhaustive verification of the
    # (8, 4690, 4, 4)_2 multilevel_II code settles its group at 4, the bound
    # of its first N pairs
    affine_clean, min_pair, calls, phase = subspaces._affine_clean, subspaces._min_pair, [], [""]

    def watched(code, g, size, best):
        found = affine_clean(code, g, size, best)
        calls.append((phase[0], code.pivot_tuples[g], best, found))
        return found

    def paired(code, pairs, masks, floors):
        phase[0] = "pairs"
        found = min_pair(code, pairs, masks, floors)
        phase[0] = "after"
        return found

    monkeypatch.setattr(subspaces, "_affine_clean", watched)
    monkeypatch.setattr(subspaces, "_min_pair", paired)

    def over(words):  # a copy of the middle word with the last entry flipped
        u = words[len(words) // 2]
        return codeword(u.field, 8, u.rows[:-1] + (u.rows[-1] ^ 1,), u.pivots)

    words = [lift_matrix(x) for x in enumerate_code(gabidulin_mrd(2, 4, 4, 2))]
    far = [lift_matrix(x) for x in enumerate_code(gabidulin_mrd(2, 4, 4, 3))]
    golden = run_plan(parse_plan(GOLDEN_PLANS["multilevel_II_q2"])).cdc.codewords
    sampled = {"mode": "sample", "sample_count": 200_000, "seed": 1}
    piv = (0, 1, 2, 3)
    runs = {  # words, options, minimum, and the group's calls
        "sampled": (words, sampled, 4, [("before", piv, 4, True)]),
        "one word over": (words + [over(words)], sampled, 4, [("before", piv, 4, False)]),
        "rank distance 3": (far + [over(far)], sampled, 2, [("before", piv, 4, False)]),
        "exhaustive": (golden, {}, 4, [("after", piv, 4, True)]),
    }
    for name, (code_words, options, least, made) in runs.items():
        calls.clear()
        phase[0] = "before"
        code = CDC(2, 8, 4, 4, words_of(code_words))
        assert verify_min_distance(code, **options).min_found == least, name
        assert len({p for _, p, _, _ in calls}) == len(calls), name
        assert [c for c in calls if c[1] == piv] == made, name
        assert {c[0] for c in calls} == {c[0] for c in made}, name


def test_a_group_test_costs_one_rank_test_per_low_rank_space(link10, monkeypatch):
    # the rank tests of `_affine_clean`: one for the group's affinity, then
    # one for each r-dimensional W of GF(q)^k, r = best / 2 - 1, whatever
    # the group's size.  link10's 32,768-word lifted Gabidulin group (k = 4)
    # at 4 takes 1 + [4 1]_2 = 16 of them, and the lifted (10, 32768, 6, 5)_2
    # code of 5 x 5 matrices at rank distance 3 at 6 takes 1 + [5 2]_2 = 156.
    # Both settle
    calls = []

    def counted(*args):
        calls.append(1)
        return rank_added(*args)

    monkeypatch.setattr(subspaces, "rank_added", counted)
    lifted = CDC(2, 10, 5, 6, [lift_matrix(x).word
                               for x in enumerate_code(gabidulin_mrd(2, 5, 5, 3))])
    for code, best, tests in ((link10, 4, 16), (lifted, 6, 156)):
        piv = tuple(range(code.k))
        assert Counter(w.pivots for w in code)[piv] == 32768
        calls.clear()
        assert subspaces._affine_clean(code, code.pivot_tuples.index(piv), 32768, best)
        assert len(calls) == 1 + gauss_binomial(code.k, best // 2 - 1, 2) == tests


def test_a_group_is_not_tested_where_its_test_costs_more_than_its_pairs(monkeypatch):
    # the (8, 256, 8, 4)_256 code is one affine and clean group, but its
    # test at 8 would take [4 3]_256 = 16,843,009 rank tests, far more than
    # its 32,640 pairs, or 1,000 draws, would compute: no group is tested,
    # and the reports are the pairwise oracle's.  Its pairs take about
    # 0.12 s; the group's test alone would take about 100 s.  Each pair is
    # computed once: the pass over all pairs starts after the first N, with
    # their minimum and witness, so it makes 32,640 rank computations
    def untested(*args):
        raise AssertionError("a group was tested")

    code = _scalar_code()
    w = code.codewords
    pairs = randrange_pairs(len(code), 1000, 1)
    sampled = first_minimum([subspace_distance(w[i], w[j]) for i, j in pairs], pairs)
    oracle = _pairwise_oracle(code)
    monkeypatch.setattr(subspaces, "_affine_clean", untested)
    calls = count()

    def counted(*args):
        next(calls)
        return rank_added(*args)

    monkeypatch.setattr(subspaces, "rank_added", counted)
    start = time.perf_counter()
    report = verify_min_distance(code)
    assert time.perf_counter() - start < 1.0
    assert (report.min_found, report.witness, report.pairs_checked) == (*oracle, 32640)
    assert next(calls) == 32640
    assert oracle == (8, (0, 1))
    report = verify_min_distance(code, mode="sample", sample_count=1000, seed=1)
    assert (report.min_found, report.witness) == sampled


@pytest.mark.parametrize("q", [2, 3, 4])
def test_affine_groups_are_settled_as_the_oracle_settles_them(q):
    # `_affine_clean` on one pivot group against `settled_groups`, at the
    # minima 2, 4 and 6.  The groups: lifted Gabidulin codes of 2 x 3 and
    # 3 x 3 matrices at rank distance 2 and of 3 x 3 at rank distance 3;
    # the 3 x 3 code at rank distance 2 with one generator replaced by a
    # rank-1 matrix; the 2 x 3 code with one word replaced by another at
    # rank distance 1 from a third, which is not affine; q^2 words of that
    # code that are not affine; and seeded affine groups of 1 to 4
    # dimensions.  Every affine group of distinct words settles at 2, as
    # its pairs lie at least 2 apart
    f, rng = gf(q), random.Random(2800 + q)
    gabidulin = {(k, d): [w.packed for w in enumerate_code(gabidulin_mrd(q, k, 3, d))]
                 for k, d in ((2, 2), (3, 3), (3, 2))}
    last = gabidulin[2, 2][-1]
    planted = gabidulin_mrd(q, 3, 3, 2).generators[:-1] + [(1, 1, 0)]  # rank 1
    groups = {  # name: (k, matrices, settled at 2, 4 and 6)
        "2 x 3 at 2": (2, gabidulin[2, 2], (True, True, False)),
        "3 x 3 at 3": (3, gabidulin[3, 3], (True, True, True)),
        "rank-1 generator": (3, [w.packed for w in enumerate_code(
            LinearRankCode(q, 3, 3, 1, planted))], (True, False, False)),
        "not affine": (2, gabidulin[2, 2][1:] + [last[:-1] + (f.row_add(last[-1], 1),)],
                       (False, False, False)),
        # q^2 words at rank distance 2 or 3 whose differences span 3 dimensions
        "clean, not affine": (2, gabidulin[2, 2][:q * q - 1] + [last], (False, False, False)),
    }
    if q < 4:  # 4,096 words over GF(4)
        groups["3 x 3 at 2"] = (3, gabidulin[3, 2], (True, True, False))

    def seeded(k):  # a k x 3 matrix
        return tuple(pack_row(f, [rng.randrange(q) for _ in range(3)]) for _ in range(k))

    for dim in (1, 2, 3, 4) * 3:
        k = rng.choice((2, 3))
        while True:
            gens = [seeded(k) for _ in range(dim)]
            mats = [w.packed for w in enumerate_code(LinearRankCode(q, k, 3, 1, gens))]
            if len(set(mats)) == q ** dim:
                break
        offset = seeded(k)
        groups[f"seeded {len(groups)}"] = (k, [tuple(map(f.row_add, a, offset)) for a in mats],
                                           None)
    for name, (k, mats, expected) in groups.items():
        code = CDC(q, k + 3, k, 2, words_of(_lifts(f, k, 3, mats)))
        assert q ** round(math.log(len(code), q)) == len(code)
        assert len({w.pivots for w in code}) == 1
        settled = tuple(subspaces._affine_clean(code, 0, len(code), best)
                        for best in (2, 4, 6))
        assert settled == tuple(bool(settled_groups(code, best)) for best in (2, 4, 6)), name
        assert expected in (None, settled), name
        assert settled[0] or "not affine" in name, name


def _verify_lifted(m):
    """Exhaustive verification of the lifted Gabidulin (4 + m, 2^(3m), 4, 4)_2
    code of 4 x m matrices at rank distance 2: clean, and with a word planted
    at distance 2 from one word, past the first N pairs."""
    k, n = 4, 4 + m
    words = [lift_matrix(x) for x in enumerate_code(gabidulin_mrd(2, 4, m, 2))]
    code = CDC(2, n, k, 4, words_of(words))
    size = len(code)
    assert size == 2 ** (3 * m)
    report = verify_min_distance(code)
    assert (report.min_found, report.witness, report.pairs_checked) == \
        (4, (0, 1), size * (size - 1) // 2)
    # flip the last free entry of one word's last row: the two words share
    # k - 1 rows, so they lie at distance 2
    u = code.codewords[size // 2]
    free = max(set(range(n)) - set(u.pivots))
    planted = codeword(u.field, n, u.rows[:-1] + (u.rows[-1] ^ 1 << n - 1 - free,), u.pivots)
    code = CDC(2, n, k, 4, words_of(words + [planted]))
    i = code.codewords.index(planted)
    basis = [0] * (n + 1)  # the planted word's rows, by leading entry
    for row in planted.rows:
        basis[row.bit_length()] = row
    near = [tuple(sorted((i, j))) for j, w in enumerate(code.codewords)
            if j != i and rank_added(w.field, basis[:], w.rows) == 1]
    assert near and min(near) > (1, 2)  # past the first N pairs
    assert {subspace_distance(planted, code.codewords[j]) for p in near for j in p if j != i} == {2}
    report = verify_min_distance(code)
    assert (report.min_found, report.witness, report.pairs_checked) == \
        (2, min(near), (size + 1) * size // 2)


def test_exhaustive_verification_of_the_lifted_9_4_4_code():
    # 32,768 words in one affine pivot group, settled with no key; the
    # planted copy's group of 32,769 words is keyed
    _verify_lifted(5)


@pytest.mark.long
def test_exhaustive_verification_of_the_lifted_10_4_4_code():
    # 262,144 words
    _verify_lifted(6)


def test_exhaustive_verification_holds_no_group_of_keys():
    # the (8, 4690, 4, 4)_2 multilevel_II code: the scan holds one bit per
    # key in 64-bit masks, so its traced peak stays far below what a set of
    # a pivot group's keys would take
    code = run_plan(parse_plan(GOLDEN_PLANS["multilevel_II_q2"])).cdc
    assert len(code) == 4690
    tracemalloc.start()
    try:
        report = verify_min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.min_found, report.witness) == (4, (0, 1))
    assert peak < 1.5e6


def test_settling_a_pivot_group_holds_none_of_its_vectors():
    # the 32,768-word lifted (9, ., 4, 4)_2 code is one affine pivot group,
    # settled with no key.  Its indices and vectors are streamed to the
    # rank test, so the traced peak stays below 0.1 MB (about 17 KB); a
    # list of the vectors would add about 1.3 MB, and a list of the
    # indices about 1.2 MB
    words = [lift_matrix(x) for x in enumerate_code(gabidulin_mrd(2, 4, 5, 2))]
    code = CDC(2, 9, 4, 4, words_of(words))
    report, _, peak = _traced(lambda: verify_min_distance(code))
    assert (report.min_found, report.witness) == (4, (0, 1))
    assert peak < 0.1e6


@pytest.mark.long
def test_exhaustive_verification_of_the_multiblocks_10_4_5_code(monkeypatch):
    # the 1,178,824-word (10, ., 4, 5)_2 multiblocks code: its lifted
    # Gabidulin part, 2^20 words of one pivot group, is settled with no key,
    # and the other 130,248 words are keyed
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "2000000")
    code = run_plan(parse_plan("family = multiblocks\nq = 2\nn = 10\nd = 4\nk = 5\nn1 = 5\n"
                               "a1 = 2\nb1 = 1\nb2 = 1\nt1 = 2\nt2 = 3\n")).cdc
    assert len(code) == 1_178_824
    affine_clean, settled = subspaces._affine_clean, []

    def watched(code, g, size, best):
        found = affine_clean(code, g, size, best)
        settled.extend([size] * found)
        return found

    monkeypatch.setattr(subspaces, "_affine_clean", watched)
    report = verify_min_distance(code)
    assert (report.min_found, report.witness, report.pairs_checked) == \
        (4, (0, 1), 694_812_422_076)
    assert settled == [2 ** 20]


@pytest.mark.long
def test_table_6_row_1_builds_and_verifies(monkeypatch, tmp_path):
    # the paper's record A_2(10,4,5) >= 1,178,828 by cor44, built explicitly
    # from its manifest row past the default cutoff: C, L_1 and L_2 in
    # their counted sizes, the file's pinned SHA-256, and an exhaustive
    # verify at d = 4 that settles one group, of 2^20 words, with no key
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "2000000")
    row = load_table_manifest(6)[0]
    assert (row.q, row.n, row.d, row.k, row.family, row.new) == (2, 10, 4, 5, "cor44", 1_178_828)
    plan = ConstructionPlan(FAMILIES[row.family].plan, row.q, row.n, row.d, row.k, row.params)
    assert plan.family == "multilevel_II"
    out = run_plan(plan)
    assert out.total == len(out.cdc) == row.new
    assert out.component_counts == {"C": 1_178_312, "L_1": 512, "L_2": 4}
    path = tmp_path / "table6_row1.cdc"
    with open(path, "w", encoding="utf-8") as fh:
        cdc_to_text(out.cdc, fh)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "963bf33e8605d5c5010a8a3db8ac2d67d773a431337b0848332218e0aaf48d15"
    affine_clean, settled = subspaces._affine_clean, []

    def watched(code, g, size, best):
        found = affine_clean(code, g, size, best)
        settled.extend([size] * found)
        return found

    monkeypatch.setattr(subspaces, "_affine_clean", watched)
    report = verify_min_distance(out.cdc)
    assert (report.min_found, report.witness, report.pairs_checked) == \
        (4, (0, 1), 694_817_137_378)
    assert settled == [2 ** 20]


@pytest.mark.long
def test_table_2_row_1_builds_and_verifies(monkeypatch):
    # the paper's record A_2(12,6,6) >= 16,865,664 by cor42, built from its
    # manifest row past the default cutoff: its parts in their counted
    # sizes, the SHA-256 of its file text, streamed to the hash and never
    # held, and an exhaustive verify at the default limit.  The first N
    # pairs bound the minimum at 6, one group, the 2^24-word lifted
    # Gabidulin group, settles there, and the scan keys the other 88,448
    # words at levels 5 and 4: 63,151,872 keys.  It peaks near 1.3 GB
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "20000000")
    monkeypatch.delenv("CDCKIT_PAIR_LIMIT", raising=False)
    row = load_table_manifest(2)[0]
    assert (row.q, row.n, row.d, row.k, row.family, row.new) == (2, 12, 6, 6, "cor42", 16_865_664)
    plan = ConstructionPlan(FAMILIES[row.family].plan, row.q, row.n, row.d, row.k, row.params)
    out = run_plan(plan)
    assert out.total == len(out.cdc) == row.new
    assert out.component_counts == {"prior": 16_865_614, "E": 50, "M1": 50, "M2": 50}
    digest = hashlib.sha256()
    cdc_to_text(out.cdc, types.SimpleNamespace(write=lambda text: digest.update(text.encode())))
    assert digest.hexdigest() == \
        "268ceea1e3d0cd1085aa57c79e4c33bdadba53a825137a36ad4c7fa4ec097fa4"
    affine_clean, settled = subspaces._affine_clean, []

    def watched(code, g, size, best):
        found = affine_clean(code, g, size, best)
        settled.extend([size] * found)
        return found

    monkeypatch.setattr(subspaces, "_affine_clean", watched)
    report = verify_min_distance(out.cdc)
    assert (report.min_found, report.witness, report.pairs_checked) == \
        (6, (0, 1), 142_225_302_647_616)
    assert settled == [2 ** 24]


def _traced(fn):
    """fn()'s result, and the traced memory it retains and its peak above
    what was traced before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, now - before, peak - before


def test_writing_a_file_holds_no_whole_text(link10, tmp_path):
    # the 2.74 MB text of the (10, 33854, 4, 4)_2 code goes out in 64 KiB
    # blocks; a list of its lines and their joined text would peak at 6.98 MB
    path = tmp_path / "link10.cdc"
    with open(path, "w", encoding="utf-8") as fh:
        _, _, peak = _traced(lambda: cdc_to_text(link10, fh))
    assert path.stat().st_size == 2_742_193
    assert peak < 1e6


def test_parsing_a_file_holds_no_whole_text(link10, tmp_path):
    # read from the open file in 64 KiB blocks, the parse peaks little above
    # the 4.89 MB code it keeps; the whole text held would add 3.3 MB.  The
    # text as a str is read in 64 KiB slices, with no copy of it made
    text = cdc_to_text(link10)
    path = tmp_path / "link10.cdc"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        code, retained, peak = _traced(lambda: cdc_from_text(fh))
    assert len(code) == 33854
    assert peak - retained < 1e6
    code, retained, peak = _traced(lambda: cdc_from_text(text))
    assert len(code) == 33854
    assert peak - retained < 1e6

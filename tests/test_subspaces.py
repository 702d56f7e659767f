"""Canonical subspaces, distances, lifting, and the verification engine."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, count, islice

import pytest

from cdckit import subspaces
from cdckit.constructions import ConstructionPlan, parse_plan, run_plan
from cdckit.counting import gauss_binomial
from cdckit.errors import InvalidParameters, PairLimitExceeded
from cdckit.gf import gf
from cdckit.matrices import Matrix, mat_rank, mat_rref, pack_row, rank_added, row_codes
from cdckit.registry import BaseBoundRegistry
from cdckit.rankcodes import enumerate_code, gabidulin_mrd
from cdckit.subspaces import CDC, Subspace, _sampled_pairs, cdc_from_text, cdc_to_text, \
    codeword, verify_min_distance
from oracles import MULTILEVEL_TUPLES, AmbientMismatch, ferrers_of, first_minimum, from_rows, \
    hamming_lb_check, hstack, identifying_vector, identity_matrix, insertion_predicate, \
    lift_matrix, lifted_with_vectors, mat_sub, matmul, oracle_rref, randrange_pairs, \
    row_by_row_keys, special_form_vector, subspace_distance, subspace_from_rows, zero_matrix
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
            v = subspace_from_rows(matmul(t, u.mat))
            assert (u.rows, u.pivots) == (v.rows, v.pivots)
            assert u.mat.entries == v.mat.entries


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
    cdc = CDC(2, 6, 3, 4, words)
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
    cdc = CDC(2, 3, 3, 2, [word])
    report = verify_min_distance(cdc)
    assert report.min_found == math.inf and report.witness is None


def test_verify_pair_limit(monkeypatch):
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "10")
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 2, 2, 1))]
    cdc = CDC(2, 4, 2, 2, words)
    with pytest.raises(PairLimitExceeded):
        verify_min_distance(cdc)


def test_verify_pair_limit_counts_keys(monkeypatch):
    # k = 1: ten points of GF(2)^4 have 45 pairs but only 10 keys, so the
    # collision scan stays within a limit of 10
    monkeypatch.setenv("CDCKIT_PAIR_LIMIT", "10")
    words = [subspace_from_rows(from_rows(gf(2), [[v >> s & 1 for s in (3, 2, 1, 0)]]))
             for v in range(1, 11)]
    report = verify_min_distance(CDC(2, 4, 1, 2, words))
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
    cdc = CDC(2, 6, 3, 4, words)
    r1 = verify_min_distance(cdc, mode="sample", sample_count=200, seed=7)
    r2 = verify_min_distance(cdc, mode="sample", sample_count=200, seed=7)
    assert (r1.min_found, r1.witness, r1.seed) == (r2.min_found, r2.witness, 7)


def test_verify_generic_field_path():
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(3, 2, 2, 1))]
    cdc = CDC(3, 4, 2, 2, words)
    report = verify_min_distance(cdc)
    assert report.min_found == 2


def test_cdc_duplicate_rejection_and_lenient_load():
    word = subspace_from_rows(identity_matrix(gf(2), 2))
    with pytest.raises(InvalidParameters):
        CDC(2, 2, 2, 2, [word, word])
    lenient = CDC(2, 2, 2, 2, [word, word], strict=False)
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
            CDC(q, 4, 2, 2, words)
        lenient = CDC(q, 4, 2, 2, words, strict=False)
        assert len(lenient) == len(words)
        entries = sorted(w.mat.entries for w in words)
        first = next(i for i in range(len(entries)) if entries[i] == entries[i + 1])
        report = verify_min_distance(lenient)
        assert (report.min_found, report.witness) == (0, (first, first + 1))


def test_cdc_file_round_trip():
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))]
    cdc = CDC(2, 6, 3, 4, words)
    text = cdc_to_text(cdc)
    assert text.splitlines()[0] == "CDC 2 6 3 4 64"
    back = cdc_from_text(text)
    assert cdc_to_text(back) == text
    keys = [w.key() for w in back]
    assert keys == sorted(keys)


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
    # a parsed word is one object holding its RREF's row tuple and shared
    # pivots (about 144 B on CPython 3.11); with a Matrix around the rows
    # it was about 220 B.  Row ints are shared between words
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
    cdc = CDC(2, n, 3, 2, words, strict=False)
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
    cdc = CDC(2, 7, 3, 2, words)
    report = verify_min_distance(cdc)
    naive = min(
        subspace_distance(a, b)
        for i, a in enumerate(cdc.codewords)
        for b in cdc.codewords[i + 1:]
    )
    assert report.min_found == naive
    i, j = report.witness
    assert subspace_distance(cdc.codewords[i], cdc.codewords[j]) == naive


def _pairwise_oracle(cdc):
    """Minimum distance and its lexicographically first pair, pair by pair."""
    w = cdc.codewords
    return min((subspace_distance(w[i], w[j]), (i, j))
               for i in range(len(w)) for j in range(i + 1, len(w)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verifier_matches_pairwise_oracle_over_fields(q):
    rng = random.Random(2020 + q)
    f = gf(q)
    codes = []
    # a general code, k = 1, n < 2k, and one mostly at 2k; each once with so
    # few words that its levels hold more keys than it has pairs, so pairs
    # are compared, and once with enough words to key every level
    for n, k in ((6, 3), (4, 1), (5, 3), (8, 2)):
        for size in (4, 2 * sum(gauss_binomial(k, t, q) for t in range(1, k + 1)) + 1):
            words = [_random_subspace(rng, q, n, k) for _ in range(size)]
            codes.append(CDC(q, n, k, 2, words, strict=False))
    words = [_random_subspace(rng, q, 6, 2) for _ in range(9)]
    # three copies: the witness pairs the lowest copy with the second-lowest
    duplicated = CDC(q, 6, 2, 4, words + [words[4]] * 2, strict=False)
    # a line spread of GF(q)^4: every pair is at the largest distance 2k = 4
    spread = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(q, 2, 2, 2))]
    spread.append(subspace_from_rows(hstack(zero_matrix(f, 2, 2), identity_matrix(f, 2))))
    spread = CDC(q, 4, 2, 4, spread)
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
    for cdc in (CDC(256, 6, 3, 2, words),
                CDC(256, 6, 3, 2, words + words[:1], strict=False)):
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
            w = CDC(q, n, k, 2, words + extra, strict=False).codewords
            dist = {(i, j): subspace_distance(w[i], w[j])
                    for i in range(len(w)) for j in range(i + 1, len(w))}
            report = verify_min_distance(CDC(q, n, k, 2, w, strict=False))
            assert (report.min_found, report.witness) == min((d, p) for p, d in dist.items())
            report = verify_min_distance(CDC(q, n, k, 2, w, strict=False), mode="sample",
                                         sample_count=40, seed=q)
            pairs = list(_sampled_pairs(len(w), 40, q))
            assert report.min_found == min(dist[p] for p in pairs)
            assert report.witness == next(p for p in pairs if dist[p] == report.min_found)


@pytest.mark.parametrize("count", [0, -3])
def test_verify_sample_count_below_one_rejected(count):
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 2, 2, 1))]
    cdc = CDC(2, 4, 2, 2, words)
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
        code = CDC(q, pool[0].n, 2, 2, words, strict=False)
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
        code = CDC(q, pool[0].n, 2, 2, words, strict=False)
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
        code = CDC(q, 6, 2, 4, words, strict=False)
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
    assert verify_min_distance(CDC(q, 6, 2, 4, codes["duplicate in prefix"],
                                   strict=False)).witness == (0, 1)


def test_prefix_bound_skips_the_levels_at_or_above_it(monkeypatch):
    # the lifted 3 x 3 Gabidulin code of rank distance 2: 64 planes of
    # GF(2)^6, more than 2 * ([3 1]_2 + [3 2]_2 + [3 3]_2) = 30, at d = 4.
    # Level k is read off the sorted words; at each level t < k a word is
    # keyed once per pivot choice, in batches of the words of one pivot
    # tuple, so a clean level t keys N * C(k, t) words
    k, d = 3, 4
    words = [lift_matrix(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))]
    clean = CDC(2, 6, k, d, words)
    w = clean.codewords
    assert min(subspace_distance(w[i], w[j]) for i, j in _prefix(len(w))) == d
    # a planted word at distance 2 from the code, whose first pair at
    # distance 2 lies after the prefix
    f, keys = gf(2), {w.key() for w in words}
    for bits in range(1, 512):
        b = lift_matrix(from_rows(f, [[bits >> (3 * r + c) & 1 for c in range(3)]
                                      for r in range(3)]))
        if b.key() in keys:
            continue
        planted = CDC(2, 6, k, d, words + [b])
        i = planted.codewords.index(b)
        near = [tuple(sorted((i, j))) for j, v in enumerate(planted.codewords)
                if subspace_distance(b, v) == 2]
        if near and min(near) not in _prefix(len(planted)):
            break
    oracle = {clean: _pairwise_oracle(clean), planted: _pairwise_oracle(planted)}
    assert oracle[clean][0] == d and oracle[planted] == (2, min(near))
    calls = []
    keys_of = subspaces.keys_of

    def counted(f, rows, spec):
        calls.extend([len(spec[0])] * len(rows))  # the level: one base row per row of C
        return keys_of(f, rows, spec)

    monkeypatch.setattr(subspaces, "keys_of", counted)

    def level_calls(code):
        calls.clear()
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == oracle[code]
        return Counter(calls)

    clean_calls, planted_calls = level_calls(clean), level_calls(planted)
    # no key at level k, nor at any level t <= k - d/2
    assert clean_calls == {t: len(clean) * math.comb(k, t) for t in range(k - d // 2 + 1, k)}
    assert set(planted_calls) == {k - 1}
    # the scan with its prefix bound at 2k keys every level down to the
    # first that collides
    monkeypatch.setattr(subspaces, "_min_pair", lambda code, pairs: (2 * code.k, (0, 1)))
    assert level_calls(planted) == planted_calls
    forced = level_calls(clean)
    assert set(forced) == set(range(1, k)) and forced[k - 1] == clean_calls[k - 1]


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
    # bound is held at 2k, so that every level is keyed
    rng = random.Random(2100 + q)
    codes = [run_plan(plan).cdc for plan in map(parse_plan, GOLDEN_PLANS.values())
             if plan.q == q]
    for k in (2, 3):
        size = 2 * sum(gauss_binomial(k, t, q) for t in range(1, k + 1)) + 20
        words: dict = {}
        while len(words) < size:
            w = _random_rref(rng, q, 6, k)
            words[w.rows] = w
        codes.append(CDC(q, 6, k, 2, words.values()))
    keys_of = subspaces.keys_of
    monkeypatch.setattr(subspaces, "_min_pair", lambda code, pairs: (2 * code.k, (0, 1)))
    for code in codes:
        size, n, seen = len(code), code.n, set()
        index = {w.rows: i for i, w in enumerate(code)}

        def tagged(f, rows, spec):
            c, tags = tuple(r for r, _ in spec[0]), [index[g] for g in rows]
            keys = keys_of(f, rows, spec)
            # word w's keys are every len(rows)-th key from the w-th
            for w, (g, i) in enumerate(zip(rows, tags)):
                assert sorted(keys[w::len(rows)]) == sorted(row_by_row_keys(f, n, g, c))
                seen.add((i, c))
            return [key * size + tags[x % len(rows)] for x, key in enumerate(keys)]

        monkeypatch.setattr(subspaces, "keys_of", tagged)
        assert verify_min_distance(code).min_found == 2 * code.k
        assert seen == {(i, c) for i in range(len(code)) for t in range(1, code.k)
                        for c in combinations(range(code.k), t)}


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
    h1 = codeword(f, n, [low, f.row_add(p, f.row_scale(low, f.negs[1]))])
    h2 = codeword(f, n, [p, f.row_add(unit[1], unit[-1])])
    h4 = codeword(f, n, [f.row_add(low, unit[1]), h1.rows[1]])
    sample = [w for w in rng.sample(spread, 160) if w not in (zero, s)]
    code = CDC(q, n, 2, 4, [zero, s, h1, h2, h4] + [
        w for w in sample if all(subspace_distance(w, h) == 4 for h in (h1, h2, h4))])
    w = code.codewords
    index = {u.rows: i for i, u in enumerate(w)}
    i1, i2, i_s, i4 = (index[u.rows] for u in (h1, h2, s, h4))
    assert (i1, i4) == (1, len(w) - 1) and i1 < i2 < i_s < i4
    assert sum(u.pivots == (0, 1) for u in w) > 128
    oracle = _pairwise_oracle(code)
    assert oracle == (2, (i1, i2))
    assert all(subspace_distance(w[i], w[j]) == 4 for i, j in _prefix(len(w)))

    # (pivot group, key) -> [(order met, batch, word)] in the first pass
    holders: dict = {}
    keyed, batches, met = set(), [], count()
    keys_of = subspaces.keys_of

    def watched(f, rows, spec):
        keys = keys_of(f, rows, spec)
        c, tags = tuple(r for r, _ in spec[0]), [index[g] for g in rows]
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
        code = CDC(q, 6, 2, 4, spread + [spread[j] for j in extra], strict=False)
        assert len(code) > 2 * (gauss_binomial(2, 1, q) + 1)
        report = verify_min_distance(code)
        assert (report.min_found, report.witness) == _pairwise_oracle(code) == (0, (i, i + 1))


def _verify_lifted(m):
    """Exhaustive verification of the lifted Gabidulin (4 + m, 2^(3m), 4, 4)_2
    code of 4 x m matrices at rank distance 2: clean, and with a word planted
    at distance 2 from one word, past the first N pairs."""
    k, n = 4, 4 + m
    words = [lift_matrix(x) for x in enumerate_code(gabidulin_mrd(2, 4, m, 2))]
    code = CDC(2, n, k, 4, words)
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
    code = CDC(2, n, k, 4, words + [planted])
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
    # 32,768 words, at the scale where keying dominates
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
    # the 4.89 MB code it keeps; the whole text held would add 3.3 MB
    path = tmp_path / "link10.cdc"
    path.write_text(cdc_to_text(link10), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        code, retained, peak = _traced(lambda: cdc_from_text(fh))
    assert len(code) == 33854
    assert peak - retained < 1e6

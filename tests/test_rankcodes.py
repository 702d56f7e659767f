"""Gabidulin codes, their coset lists, and FDRM words, counted by the spec.

The generators are compared with the exp/log table construction of
`oracles.ExtField` on every small case, and at q = 16, t = 5 with powers
of x taken by repeated shift-and-reduce."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from cdckit import rankcodes
from cdckit.bounds import _lifted
from cdckit.counting import bounded_rank_size, delsarte_rank_count, gauss_binomial, mrd_size
from cdckit.errors import EnumerationLimitExceeded, InvalidDistance, InvalidDistances
from cdckit.gf import field_modulus, gf, join_rows, pack_row, split_rows
from cdckit.matrices import Matrix, mat_rank, rank_added
from cdckit.rankcodes import LinearRankCode, code_words, coset_lists, enumerate_code, \
    fdrm_words, gabidulin_mrd
from oracles import ExtField, entry, mat_sub, oracle_rref, rank_filtered_words, rref_rows, sub, \
    transpose


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
    """Every GF(q) combination of the generators, the first generator's
    coefficient changing slowest through the element codes, added entry by
    entry."""
    f = code.field
    gens = [Matrix.from_packed(f, code.b, g).entries for g in code.generators]
    for coeffs in itertools.product(range(code.q), repeat=len(gens)):
        acc = (0,) * (code.a * code.b)
        for c, g in zip(coeffs, gens):
            if c:
                acc = tuple(f.add(x, f.mul(c, y)) for x, y in zip(acc, g))
        rows = [list(acc[i * code.b:(i + 1) * code.b]) for i in range(code.a)]
        if rank_cap is None or len(rref_rows(f, rows, code.b)) <= rank_cap:
            yield acc


@pytest.mark.parametrize("a, b, d", [(2, 3, 1), (3, 6, 2)])
@pytest.mark.parametrize("rank_cap", [None, 1, 2])
def test_gf2_enumeration_matches_reference_order(a, b, d, rank_cap):
    # (3, 6, 2) has 12 generators, more than the enumerator tabulates at once
    code = gabidulin_mrd(2, a, b, d)
    words = [m.entries for m in enumerate_code(code, rank_cap=rank_cap)]
    assert words == list(_reference_words(code, rank_cap))


@pytest.mark.parametrize("q, a, b", [(3, 1, 7), (4, 1, 6), (8, 2, 2), (9, 2, 2),
                                     (3, 2, 4), (4, 1, 7)])
def test_enumeration_matches_reference_order_over_fields(q, a, b):
    # more generators than the enumerator tabulates at once: it sums each
    # combination of the leading generators' multiples, by elements that
    # are not all 0 or 1, and adds it to every tabulated word.  (3, 2, 4)
    # and (4, 1, 7) leave two generators untabulated, the others one
    code = gabidulin_mrd(q, a, b, 1)
    for rank_cap in (None, 0):
        words = [m.entries for m in enumerate_code(code, rank_cap=rank_cap)]
        assert words == list(_reference_words(code, rank_cap))


def _oracle_generators(ext, a, b, d):
    """The generators evaluated over the exp/log table field GF(q^t):
    x^l (x^j)^(q^i) expanded over GF(q), transposed when a < b."""
    q, s, t = ext.base.q, min(a, b), max(a, b)
    points = [ext.pow(q if t > 1 else 1, j) for j in range(s)]
    gens = []
    for i in range(s - d + 1):
        for l in range(t):
            beta = ext.pow(q if t > 1 else 1, l)
            cols = [ext.expand(ext.mul(beta, ext.pow(p, q**i))) for p in points]
            mat = Matrix(gf(q), t, s, [cols[j][r] for r in range(t) for j in range(s)])
            gens.append(mat if a >= b else transpose(mat))
    return gens


ORACLE_Q = (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 49, 256)


def test_gabidulin_matches_the_table_field():
    # every (q, a, b, d) with a, b <= 5 and q^max(a, b) <= 4096
    cases = 0
    for q in ORACLE_Q:
        for t in range(1, 6):
            if q**t > 4096:
                break
            ext = ExtField(gf(q), t)
            for a, b in itertools.product(range(1, t + 1), repeat=2):
                if max(a, b) != t:
                    continue
                for d in range(1, min(a, b) + 1):
                    code = gabidulin_mrd(q, a, b, d)
                    assert code.generators == \
                        [g.packed for g in _oracle_generators(ext, a, b, d)], (q, a, b, d)
                    cases += 1
    assert cases == 333


def test_gabidulin_q16_t5_by_shift_and_reduce():
    # GF(16^5) is beyond the table field's reach; x^e mod f is taken by
    # multiplying by x e times: shift each digit up, then subtract the
    # overflow digit times f
    q, t, s, d = 16, 5, 5, 3
    f, F = field_modulus(q, t), gf(q)
    power = [[1, 0, 0, 0, 0]]  # x^e as its t digits, lowest first
    for _ in range(t - 1 + (s - 1) * q**(s - d)):
        v = [0] + power[-1]
        top = v.pop()
        power.append([sub(F, c, F.mul(top, fc)) for c, fc in zip(v, f)])
    for a, b in ((5, 5), (5, 3), (3, 5)):
        code = gabidulin_mrd(q, a, b, d)
        m = min(a, b)
        gens = iter(code.generators)
        for i in range(m - d + 1):
            for l in range(t):
                g = Matrix.from_packed(F, b, next(gens))
                for j in range(m):
                    column = power[l + j * q**i]
                    for r in range(t):
                        assert (entry(g, r, j) if a >= b else entry(g, j, r)) == column[r], \
                            (a, b, i, l, j, r)
    # the rank distance holds on random codewords of the 5 x 5 code
    code, rng = gabidulin_mrd(q, 5, 5, d), random.Random(3)
    for _ in range(200):
        word = [0] * 25
        for g in code.generators:
            c = rng.randrange(q)
            word = [F.add(x, F.mul(c, y))
                    for x, y in zip(word, Matrix.from_packed(F, 5, g).entries)]
        if any(word):
            assert mat_rank(Matrix(F, 5, 5, word)) >= d


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
    assert [(m.ncols, m.packed) for m in members] == [(3, (0, 0))]


def test_enumeration_limit(monkeypatch):
    monkeypatch.setenv("CDCKIT_ENUM_LIMIT", "100")
    with pytest.raises(EnumerationLimitExceeded):
        list(enumerate_code(gabidulin_mrd(2, 4, 4, 1)))
    # streaming bypasses the limit
    it = enumerate_code(gabidulin_mrd(2, 4, 4, 1), streaming=True)
    assert next(it) is not None


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_capped_words_are_the_filters_in_the_delsarte_count(q):
    # every a, b <= 4 and d whose code the filter visits in at most 2^14
    # words: under every cap, `code_words` lists the filter's words, in its
    # order, and as many as `counting.bounded_rank_size`, the count `bound`
    # uses.  Placed in slots one entry wider and moved one slot and one
    # entry left, they are the filter's words so placed
    f, cases = gf(q), 0
    for a, b in itertools.product(range(1, 5), repeat=2):
        for d in range(1, min(a, b) + 1):
            code = gabidulin_mrd(q, a, b, d)
            if code.cardinality > 1 << 14:
                continue
            cases += 1
            own, wide = b * f.width, (b + 1) * f.width
            for cap in range(min(a, b) + 1):
                words = list(code_words(code, rank_cap=cap))
                assert words == rank_filtered_words(code, own, 0, cap), (a, b, d, cap)
                assert len(words) == bounded_rank_size(q, a, b, d, cap), (a, b, d, cap)
                assert list(code_words(code, wide, wide + f.width, cap)) == \
                    rank_filtered_words(code, wide, wide + f.width, cap), (a, b, d, cap)
    assert cases == {2: 29, 3: 25, 4: 20, 5: 20, 7: 17, 8: 17, 9: 17}[q]


def test_capped_words_take_one_elimination_per_left_kernel(monkeypatch):
    # a word of rank <= cap is killed by an (a - cap)-dimensional K, and
    # each K costs one elimination: [4 2]_4 = 357 of them list the 91,036
    # words of rank <= 2 of the 16,777,216-word (4, 4, 4, 2) code, and
    # [4 2]_2 = 35 the 1,086 of link10's (2, 4, 5, 2) code
    calls = []

    def counted(*args):
        calls.append(1)
        return rank_added(*args)

    monkeypatch.setattr(rankcodes, "rank_added", counted)
    for (q, a, b, d), kept in (((4, 4, 4, 2), 91036), ((2, 4, 5, 2), 1086)):
        calls.clear()
        assert sum(1 for _ in code_words(gabidulin_mrd(q, a, b, d), rank_cap=2)) == kept
        assert len(calls) <= gauss_binomial(4, 2, q) == {4: 357, 2: 35}[q]


def test_capped_words_refuse_by_the_codes_size(monkeypatch):
    # the limit reads the code's q^G words, not the words kept: link10's
    # 32,768-word code is refused under a limit of 32,767 before any word is
    # listed, though it keeps only 1,086, and passes at 32,768
    calls = []
    monkeypatch.setattr(rankcodes, "rank_added", lambda *args: calls.append(1))
    monkeypatch.setenv("CDCKIT_ENUM_LIMIT", str(2**15 - 1))
    code = gabidulin_mrd(2, 4, 5, 2)
    with pytest.raises(EnumerationLimitExceeded, match="^32768 codewords exceed the 32767 limit"):
        code_words(code, rank_cap=2)
    assert not calls
    monkeypatch.setenv("CDCKIT_ENUM_LIMIT", str(2**15))
    monkeypatch.setattr(rankcodes, "rank_added", rank_added)
    assert sum(1 for _ in code_words(code, rank_cap=2)) == 1086


def test_subcode_cosets_counts():
    for q in (2, 3):
        assert len(coset_lists(q, 4, 2, 1, 2)) == q**4
    assert len(coset_lists(2, 3, 3, 2, 2)) == 1  # d_m = d_s: the code itself
    with pytest.raises(InvalidDistances):
        coset_lists(2, 3, 3, 3, 2)


def test_subcode_cosets_partition_and_distances():
    for q, a, b, dm, ds in ((2, 2, 2, 1, 2), (2, 3, 3, 2, 3), (3, 2, 2, 1, 2)):
        # each member is one int, its rows end to end
        cosets = [[Matrix.from_packed(gf(q), b, rows)
                   for rows in split_rows(ms, a, b * gf(q).width)]
                  for ms in coset_lists(q, a, b, dm, ds)]
        assert len(cosets) == mrd_size(q, a, b, dm) // mrd_size(q, a, b, ds)
        members = [m.entries for ms in cosets for m in ms]
        assert len(members) == len(set(members)) == mrd_size(q, a, b, dm)
        for ms in cosets:
            assert [m.entries for m in ms] == sorted(m.entries for m in ms)
            for x, y in itertools.combinations(ms, 2):
                assert mat_rank(mat_sub(x, y)) >= ds
        for m1, m2 in itertools.combinations(cosets, 2):
            for x in m1[:4]:
                for y in m2[:4]:
                    assert mat_rank(mat_sub(x, y)) >= dm
        leaders = [ms[0].entries for ms in cosets]
        assert leaders == sorted(leaders)


def _spec_count(q, u1, u2, w1, w2, d_f, c1, c2):
    """The size the family spec gives the FDRM code on these widths."""
    return _lifted({"q": q, "h": d_f}, u1, u2, 0, w1, w2, c1, c2)[1]


def _fdrm(q, u1, u2, w1, w2, d_f, c1, c2):
    """The FDRM words, each one int, as (u1 + u2) x (w1 + w2) matrices."""
    words = fdrm_words(q, u1, u2, w1, w2, d_f, c1, c2)
    return [Matrix.from_packed(gf(q), w1 + w2, rows)
            for rows in split_rows(words, u1 + u2, (w1 + w2) * gf(q).width)]


def test_fdrm_case1_zero_width():
    # left blocks vanish; members are supported on F2/F3 only, and
    # rank(M3) <= u1 - d_f = 0 leaves M3 zero
    members = _fdrm(2, 2, 2, 0, 4, 2, 1, 2)
    assert len(members) == _spec_count(2, 2, 2, 0, 4, 2, 1, 2) == mrd_size(2, 2, 4, 2) == 16
    assert all(m.ncols == 4 for m in members)
    for x, y in itertools.combinations(members, 2):
        assert mat_rank(mat_sub(x, y)) >= 2


def test_fdrm_case3_large_instance():
    # the (12,4,6) first-vector shape at c_i = d_f: a single coset, every
    # M1 with every M2 and every rank-capped M3
    lam = (mrd_size(2, 4, 2, 2), mrd_size(2, 2, 4, 2), bounded_rank_size(2, 4, 4, 2, 2))
    count = _spec_count(2, 4, 2, 2, 4, 2, 2, 2)
    assert count == lam[0] * lam[1] * lam[2] == 134656
    # strided subsample, exhaustive pairwise inside the sample
    stride = count // 240
    sample, total = [], 0
    for i, rows in enumerate(split_rows(fdrm_words(2, 4, 2, 2, 4, 2, 2, 2), 6, 6)):
        total += 1
        if i % stride == 0:
            sample.append(Matrix.from_packed(gf(2), 6, rows))
    assert total == count
    for x, y in itertools.combinations(sample, 2):
        assert mat_rank(mat_sub(x, y)) >= 2


def test_fdrm_case2_paired():
    members = _fdrm(2, 3, 4, 2, 3, 3, 2, 1)
    n1, n2 = mrd_size(2, 3, 2, 2), mrd_size(2, 4, 3, 1)
    assert len(members) == _spec_count(2, 3, 4, 2, 3, 3, 2, 1) == min(n1, n2) == 8
    for x, y in itertools.combinations(members, 2):
        assert mat_rank(mat_sub(x, y)) >= 3


def test_fdrm_support_stays_in_shape():
    for m in _fdrm(2, 3, 4, 2, 3, 3, 2, 1)[:20]:
        for i in range(3, 7):
            for j in range(2):
                assert entry(m, i, j) == 0


def test_fdrm_subcode_union_counts():
    assert _spec_count(2, 4, 2, 2, 4, 2, 1, 1) == 2154496
    # c_i = d_f collapses to a single coset
    assert _spec_count(2, 4, 2, 2, 4, 2, 2, 2) == \
        mrd_size(2, 4, 2, 2) * mrd_size(2, 2, 4, 2) * bounded_rank_size(2, 4, 4, 2, 2)


def test_fdrm_subcode_union_explicit_small():
    expect = 4 * mrd_size(2, 2, 3, 2) * mrd_size(2, 2, 2, 2) * 1
    assert _spec_count(2, 2, 2, 3, 2, 2, 1, 1) == expect == 128
    members = _fdrm(2, 2, 2, 3, 2, 2, 1, 1)
    assert len(members) == len(set(m.entries for m in members)) == 128
    for x, y in itertools.combinations(members, 2):
        assert mat_rank(mat_sub(x, y)) >= 2


# one (u1, u2, w1, w2, d_f, c1, c2) per branch of `fdrm_words`: w1 < c1
# (M1 zero, the cap keeps the rank-1 M3 of all 2 x 2), c1 <= w1 < d_f (M1
# and M2 paired, the cap keeps M3 zero) and w1 >= d_f (paired cosets)
BRANCH_SHAPES = ((2, 1, 0, 2, 1, 1, 1), (3, 2, 1, 2, 2, 1, 1), (2, 2, 2, 2, 2, 1, 1))


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("shape", BRANCH_SHAPES)
def test_fdrm_words_meet_the_shape(q, shape):
    # what the FDRM code promises its lifting: M3 within the rank cap, the
    # lower rows zero under M1, distinct words as many as the spec counts,
    # and rank distance >= d_f between any two.  Each word is one int, its
    # rows end to end; placed in slots of n entries with a gap of g columns
    # between M1 and M3, it is the same word, re-slotted
    u1, u2, w1, w2, d_f, c1, c2 = shape
    f = gf(q)
    own, n, g = (w1 + w2) * f.width, w1 + w2 + 3, 2
    ints = list(fdrm_words(q, *shape))
    words = list(split_rows(ints, u1 + u2, own))
    assert [join_rows(rows, own) for rows in words] == ints
    placed = [join_rows([(r >> w2 * f.width) << (w2 + g) * f.width | r & (1 << w2 * f.width) - 1
                         for r in rows], n * f.width) for rows in words]
    assert list(fdrm_words(q, *shape, n * f.width, g * f.width)) == placed
    assert len(words) == len(set(words)) == _spec_count(q, *shape)
    m3_mask = (1 << w2 * f.width) - 1
    for rows in words:
        assert len(rows) == u1 + u2
        m3 = Matrix.from_packed(f, w2, [r & m3_mask for r in rows[:u1]])
        assert len(oracle_rref(m3)[1]) <= u1 - d_f
        assert all(r >> w2 * f.width == 0 for r in rows[u1:])
    sample = [Matrix.from_packed(f, w1 + w2, rows) for rows in words[::len(words) // 120 + 1]]
    for x, y in itertools.combinations(sample, 2):
        assert mat_rank(mat_sub(x, y)) >= d_f


@pytest.mark.parametrize("q", (2, 3, 4))
def test_rank_cap_keeps_the_words_a_full_rank_filter_keeps(q):
    # the cap filter stops each word's rank count at cap + 1; it must keep
    # exactly the words whose full rank is at most the cap, in enumeration
    # order, at every cap
    for a, b, d in ((2, 3, 1), (3, 3, 2)):
        code = gabidulin_mrd(q, a, b, d)
        full = [(m.packed, mat_rank(m)) for m in enumerate_code(code)]
        for cap in range(min(a, b) + 1):
            kept = [m.packed for m in enumerate_code(code, rank_cap=cap)]
            assert kept == [rows for rows, rank in full if rank <= cap], (a, b, d, cap)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_whole_word_arithmetic_equals_row_arithmetic(q):
    # `code_words` lays each generator's rows end to end in one int once, and
    # `span_iter` adds and scales those whole words.  Entry widths are 1, 4,
    # 2, 4 and 8 bits at q = 2, 3, 4, 5, 9; over odd p a digit sum must
    # never carry into the next entry or row.  The span equals, word for word
    # and in order, the combinations taken entry by entry with the scalar
    # `add` and `mul`, then placed: a block at the last columns of wider
    # slots, and a block at column 0 of rows whose other entries are 0, each
    # ORed beside a constant word of q - 1 entries.  Moved by `shift` two
    # rows down, or left to column 0, and under every `rank_cap`, the words
    # are the combinations whose entry-wise rank is within the cap, placed
    f, rng = gf(q), random.Random(330 + q)
    a, b, n = 3, 2, 5
    count = next(c for c in itertools.count(1) if q**c > 1024)  # past the tabulated span
    block = [[[q - 1] * b for _ in range(a)]] + \
        [[[rng.randrange(q) for _ in range(b)] for _ in range(a)] for _ in range(count - 1)]
    width = n * f.width
    for left in (n - b, 0):  # the block's first column
        gens = [[[0] * left + row + [0] * (n - b - left) for row in g] for g in block]
        cols = b if left else n  # the code's own columns, which the slot may widen
        code = LinearRankCode(q, a, cols, 1, [tuple(pack_row(f, row[n - cols:]) for row in g)
                                              for g in gens])
        start = join_rows([pack_row(f, [0 if left <= c < left + b else q - 1 for c in range(n)])
                           for _ in range(a)], width)
        combos = []
        for coeffs in itertools.product(range(q), repeat=count):
            rows = [[0] * n for _ in range(a)]
            for c, g in zip(coeffs, gens):
                rows = [[f.add(x, f.mul(c, y)) for x, y in zip(row, grow)]
                        for row, grow in zip(rows, g)]
            combos.append((rows, len(rref_rows(f, [row[:] for row in rows], n))))
        want = [start | join_rows([pack_row(f, row) for row in rows], width) for rows, _ in combos]
        assert [start | x for x in code_words(code, width)] == want, left
        # shift -> the entry rows of a word so placed
        moves = {0: lambda rows: rows, 2 * width: lambda rows: rows + [[0] * n] * 2}
        if left:
            moves[left * f.width] = lambda rows: [row[left:] + [0] * left for row in rows]
        for cap in [None] + list(range(min(a, cols) + 1)):
            for shift, move in moves.items():
                want = [join_rows([pack_row(f, row) for row in move(rows)], width)
                        for rows, rank in combos if cap is None or rank <= cap]
                assert list(code_words(code, width, shift, cap)) == want, (left, cap, shift)

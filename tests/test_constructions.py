"""Construction pipelines: exact counts, explicit builds, insert contracts."""

from __future__ import annotations

import itertools
import random

import pytest

from cdckit.constructions import ConstructionPlan, parse_plan, run_plan
from cdckit.counting import mrd_size
from cdckit.errors import EnumerationLimitExceeded, HypothesisViolated, MissingSubcode
from cdckit.gf import gf
from cdckit.matrices import mat_rref, rref_pivots
from cdckit.rankcodes import enumerate_code, gabidulin_mrd
from cdckit.registry import BaseBoundRegistry
from cdckit.subspaces import CDC, cdc_to_text, verify_min_distance
from oracles import MULTILEVEL_TUPLES, codeword, hstack, identifying_vector, identity_matrix, \
    insertion_predicate, lifted_with_vectors, special_form_vector, subspace_distance, \
    subspace_from_rows, zero_matrix
from test_golden import PLANS as GOLDEN_PLANS

REG = BaseBoundRegistry()
# the one non-analytic input the 15-coordinate worked value consumes
REG.add(2, 10, 4, 5, 1178824, "prior best known")


def _plan(family, q, n, d, k, **params):
    return ConstructionPlan(family, q, n, d, k, params)


def _minus(combined, base):
    """The words of a combined build that its base build does not have:
    both codes are strict, so this is the insert the combined build added."""
    keys = {w.key() for w in base.cdc}
    return [w for w in combined.cdc if w.key() not in keys]


def _linkage_of(plan):
    """The explicit build of a plan's linkage code."""
    return run_plan(_plan("linkage", plan.q, plan.n, plan.d, plan.k, n1=plan.params["n1"]),
                    REG)


def test_plan_text_round_trip(tmp_path):
    plan = _plan("multiblocks", 2, 12, 4, 6, n1=6, a1=4, b1=1, b2=1, t1=4, t2=2)
    text = f"family = {plan.family}\nq = 2\nn = 12\nd = 4  # comment\n\nk = 6\n" + "".join(
        f"{key} = {value}\n" for key, value in plan.params.items())
    back = parse_plan(text)
    assert back == plan
    with pytest.raises(HypothesisViolated):
        parse_plan("family = nonsense\nq = 2\nn = 4\nd = 2\nk = 2\n")


def test_linkage_counts_match_published():
    out = run_plan(_plan("linkage", 2, 12, 4, 6, n1=6), REG, explicit=False)
    assert out.total == 1212418496
    out = run_plan(_plan("linkage", 2, 15, 4, 5, n1=5), REG, explicit=False)
    assert out.total == 1252447538240


def test_linkage_rank_cap_degenerate():
    # d = 2k forces rank(M1) <= 0, so the second part is just |C2|
    out = run_plan(_plan("linkage", 2, 8, 4, 2, n1=4), REG, explicit=False)
    assert out.component_counts["C2_part"] == REG.get(2, 4, 4, 2)


def test_linkage_explicit_desk():
    out = run_plan(_plan("linkage", 2, 8, 4, 4, n1=4), REG)
    assert out.total == len(out.cdc) == 4622
    assert out.component_counts == {"C1_part": 4096, "C2_part": 526}


def test_blocks_desk_instance():
    out = run_plan(_plan("blocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1), REG)
    assert out.total == len(out.cdc) == 1024
    report = verify_min_distance(out.cdc)
    assert report.min_found >= 4
    # cross-coset pairs with equal off-diagonal blocks intersect in dim <= k - d/2
    rng = random.Random(3)
    words = out.cdc.codewords
    for _ in range(100):
        a, b = rng.sample(words, 2)
        dim_meet = (a.k + b.k - subspace_distance(a, b)) // 2
        assert dim_meet <= 4 - 2


def test_blocks_single_family_when_b_equals_half_d():
    out = run_plan(_plan("blocks", 2, 8, 4, 4, n1=4, a1=2, b1=2, b2=2), REG)
    assert out.component_counts["s"] == 1
    assert out.total == mrd_size(2, 2, 2, 2) ** 4


def test_blocks_hypothesis_rejection():
    with pytest.raises(HypothesisViolated):
        run_plan(_plan("blocks", 2, 8, 4, 4, n1=4, a1=1, b1=1, b2=1), REG)


def test_multiblocks_counts_match_published():
    plan = _plan("multiblocks", 2, 12, 4, 6, n1=6, a1=4, b1=1, b2=1, t1=4, t2=2)
    out = run_plan(plan, REG, explicit=False)
    assert out.component_counts["B"] == 2154496
    assert out.total == out.component_counts["C"] + 2154496 == 1214572992


def test_multiblocks_forced_zero_block():
    # rank cap a2 - d/2 = 0 leaves only the zero matrix
    caps = list(enumerate_code(gabidulin_mrd(2, 2, 2, 2), rank_cap=0))
    assert [m.rows() for m in caps] == [[(0, 0), (0, 0)]]


def test_multiblocks_desk_explicit():
    plan = _plan("multiblocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1, t1=2, t2=2)
    combined = run_plan(plan, REG, explicit=True)
    insert = _minus(combined, _linkage_of(plan))
    assert combined.component_counts["B"] == 64 == len(insert)
    assert all(insertion_predicate(w, 4, 4, 4) for w in insert)
    assert combined.total == combined.component_counts["C"] + 64 == 4686 == len(combined.cdc)


def test_parallel_blocks_counts_match_published():
    plan = _plan("parallel_blocks", 2, 16, 6, 8, n1=8, a1=4, b1=2, b2=1,
                 t1=4, t2=4, c1=3, c2=2)
    out = run_plan(plan, REG, explicit=False)
    assert out.component_counts["prior"] == 282927684884928
    assert out.component_counts["E"] == 2776
    assert out.total == 282927684884928 + 2776 == 282927684887704


def test_parallel_blocks_product_form():
    from cdckit.counting import bounded_rank_size

    # c1 + c2 above k - d/2 is rejected
    plan = _plan("parallel_blocks", 2, 8, 4, 4, n1=4, a1=2, b1=2, b2=2,
                 t1=2, t2=2, c1=2, c2=2)
    with pytest.raises(HypothesisViolated):
        run_plan(plan, REG, explicit=False)
    # b_i = d/2 on both sides gives the full product form
    plan2 = _plan("parallel_blocks", 2, 12, 4, 6, n1=6, a1=3, b1=2, b2=2,
                  t1=3, t2=3, c1=2, c2=2)
    out = run_plan(plan2, REG, explicit=False)
    expect = (bounded_rank_size(2, 3, 3, 2, 2) ** 2
              * REG.get(2, 3, 4, 3) * REG.get(2, 3, 4, 3))
    assert out.component_counts["E"] == expect == 2500
    assert out.total == out.component_counts["prior"] + 2500


def test_parallel_blocks_desk_explicit():
    plan = _plan("parallel_blocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1,
                 t1=2, t2=2, c1=1, c2=1)
    combined = run_plan(plan, REG, explicit=True)
    # E alone: the combined code minus the multiblocks code it was inserted into
    prior = run_plan(_plan("multiblocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1, t1=2, t2=2),
                     REG)
    insert = _minus(combined, prior)
    assert combined.component_counts["E"] == len(insert) == 10
    assert all(insertion_predicate(w, 4, 4, 4) for w in insert)
    assert combined.total == combined.component_counts["prior"] + 10 == len(combined.cdc) == 4696


def test_special_form_vector_examples():
    assert special_form_vector(6, 6, 4, 2, 0) == tuple(int(c) for c in "111100110000")
    assert special_form_vector(6, 6, 2, 4, 0) == tuple(int(c) for c in "110000111100")
    assert special_form_vector(7, 7, 3, 4, 3) == tuple(int(c) for c in "00011101111000")
    with pytest.raises(HypothesisViolated):
        special_form_vector(4, 6, 3, 2, 2)


def test_multilevel_case1_counts_match_published():
    plan = _plan("multilevel_I", 2, 12, 4, 6, n1=6, u1=4, u2=2, c1=1, c2=1)
    out = run_plan(plan, REG, explicit=False)
    assert out.component_counts["L_1"] == 2154496
    assert out.component_counts["L_2"] == 4096
    assert out.total == 1214577088


def test_multilevel_case2_counts_match_published():
    plan = _plan("multilevel_II", 2, 14, 6, 7, n1=7, u1=3, u2=4, b1=2, b2=1)
    out = run_plan(plan, REG, explicit=False)
    assert out.component_counts["L_1"] == 4096
    assert out.component_counts["L_2"] == 16
    assert out.total == 34532242136


def test_multilevel_single_vector_reduces_to_plain_lift():
    plan = _plan("multilevel_II", 2, 14, 6, 7, n1=7, u1=3, u2=4, b1=2, b2=1, lam=1)
    out = run_plan(plan, REG, explicit=False)
    assert set(out.component_counts) == {"C", "L_1"}
    assert out.total - out.component_counts["C"] == out.component_counts["L_1"] == 4096


def test_multilevel_desk_explicit():
    plan = _plan("multilevel_II", 2, 8, 4, 4, n1=4, u1=2, u2=2, b1=1, b2=1)
    combined = run_plan(plan, REG, explicit=True)
    insert = _minus(combined, _linkage_of(plan))
    counts = combined.component_counts
    assert counts["L_1"] + counts["L_2"] == len(insert) == 68
    assert all(insertion_predicate(w, 4, 4, 4) for w in insert)
    vecs = {identifying_vector(w) for w in insert}
    assert vecs == {tuple(int(c) for c in "11001100"),
                    tuple(int(c) for c in "00111100")}
    assert combined.total == counts["C"] + 68 == len(combined.cdc) == 4690


def test_multilevel_hypothesis_rejection():
    plan = _plan("multilevel_I", 2, 12, 4, 6, n1=6, u1=3, u2=3, c1=1, c2=1)
    with pytest.raises(HypothesisViolated):
        run_plan(plan, REG, explicit=False)  # u1 < d


def test_explicit_cutoff(monkeypatch):
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "100")
    plan = _plan("blocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1)
    with pytest.raises(EnumerationLimitExceeded):
        run_plan(plan, REG)


def test_hypotheses_are_checked_before_any_subcode():
    # t1 = 5 breaks the insert's t1 <= n1 - d/2; C1, a (6,*,4,4)_2 code of
    # registry size 21, has no file, and the first part would ask for it
    params = dict(n1=6, a1=2, b1=1, b2=1, t1=5, t2=2)
    with pytest.raises(HypothesisViolated):
        run_plan(_plan("multiblocks", 2, 10, 4, 4, **params), REG)
    with pytest.raises(MissingSubcode, match=r"\(6,\*,4,4\)_2"):
        run_plan(_plan("multiblocks", 2, 10, 4, 4, **dict(params, t1=2)), REG)


def test_explicit_cutoff_holds_the_running_total(monkeypatch):
    # the 4,622-word linkage part passes the cutoff, the 4,686-word union does not
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "4650")
    plan = _plan("multiblocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1, t1=2, t2=2)
    assert len(_linkage_of(plan).cdc) == 4622
    with pytest.raises(EnumerationLimitExceeded, match="4686"):
        run_plan(plan, REG)


def _count_yielded(monkeypatch):
    """Wrap every materializer so that the returned list gathers the words
    they yield."""
    import cdckit.constructions as constructions

    yielded = []

    def counted(materialize):
        def words(*args):
            for w in materialize(*args):
                yielded.append(w)
                yield w
        return words

    for part, (materialize, components, base) in list(constructions._PARTS.items()):
        monkeypatch.setitem(constructions._PARTS, part, (counted(materialize), components, base))
    return yielded


def _one_word_c1(tmp_path):
    """A one-word (6, 1, 4, 4)_2 file for a C1 slot."""
    word = subspace_from_rows(hstack(identity_matrix(gf(2), 4), zero_matrix(gf(2), 4, 2)))
    path = tmp_path / "c1.cdc"
    path.write_text(cdc_to_text(CDC(2, 6, 4, 4, [word.word])))
    return str(path)


def test_build_counts_every_part_before_any_word(tmp_path, monkeypatch):
    # a last part over the cutoff, or a later part without its sub-code file,
    # stops the build before any materializer yields a word
    yielded = _count_yielded(monkeypatch)
    plan = _plan("multiblocks", 2, 8, 4, 4, n1=4, a1=2, b1=1, b2=1, t1=2, t2=2)
    assert len(run_plan(plan, REG).cdc) == len(yielded) == 4686  # the counter sees words
    yielded.clear()
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "4650")
    with pytest.raises(EnumerationLimitExceeded, match="^4686 codewords exceed the explicit"):
        run_plan(plan, REG)
    assert yielded == []
    monkeypatch.delenv("CDCKIT_EXPLICIT_CUTOFF")
    plan = ConstructionPlan("parallel_blocks", 2, 10, 4, 4,
                            dict(n1=6, a1=2, b1=1, b2=1, t1=2, t2=2, c1=1, c2=1),
                            files={"C1": _one_word_c1(tmp_path)})
    with pytest.raises(MissingSubcode, match=r"\(4,\*,4,2\)_2"):
        run_plan(plan, REG)
    assert yielded == []


# the benchmark's three build plans
BENCH_PLANS = {
    "ml2_q2": "family = multilevel_II\nq = 2\nn = 8\nd = 4\nk = 4\n"
              "n1 = 4\nu1 = 2\nu2 = 2\nb1 = 1\nb2 = 1\n",
    "link10_q2": "family = linkage\nq = 2\nn = 10\nd = 4\nk = 4\nn1 = 5\n",
    "link6_q3": "family = linkage\nq = 3\nn = 6\nd = 4\nk = 3\nn1 = 3\n",
}


@pytest.mark.parametrize("text", list(GOLDEN_PLANS.values()) + list(BENCH_PLANS.values()),
                         ids=list(GOLDEN_PLANS) + list(BENCH_PLANS))
def test_built_words_carry_their_rref_pivots(text):
    # words known by their last word's mask (the linkage code's (U1 | M2)
    # rows, lifted FDRM words) skip reduction: their rows must be their own
    # RREF, and the pivots those of the rows
    code = run_plan(parse_plan(text)).cdc
    f, shapes = gf(code.q), {}
    for w in code:
        assert w.pivots == rref_pivots(f, w.rows, code.n, shapes)
        red, pivots = mat_rref(w.mat)
        assert red.packed == w.rows and pivots == w.pivots


def test_missing_subcode_for_nontrivial_base(tmp_path):
    # an explicit spread would be needed for D1; only its count is known.  C1
    # is given as a one-word file so that the linkage part builds and the
    # insert's own slot is the one that misses
    plan = ConstructionPlan("parallel_blocks", 2, 10, 4, 4,
                            dict(n1=6, a1=2, b1=1, b2=1, t1=2, t2=2, c1=1, c2=1),
                            files={"C1": _one_word_c1(tmp_path)})
    with pytest.raises(MissingSubcode, match=r"\(4,\*,4,2\)_2"):
        run_plan(plan, REG, explicit=True)


def test_subcode_from_file(tmp_path):
    small = run_plan(_plan("linkage", 2, 8, 4, 4, n1=4), REG)
    path = tmp_path / "c1.cdc"
    path.write_text(cdc_to_text(small.cdc))
    plan = ConstructionPlan("linkage", 2, 12, 4, 4, {"n1": 8},
                            files={"C1": str(path)})
    out = run_plan(plan, REG, explicit=False)
    assert out.component_counts["C1_part"] == 4622 * mrd_size(2, 4, 4, 2)
    # a file whose parameters disagree with the requested sub-code slot
    bad = ConstructionPlan("linkage", 2, 13, 4, 4, {"n1": 4},
                           files={"C2": str(path)})
    with pytest.raises(MissingSubcode):
        run_plan(bad, REG, explicit=False)


def test_linkage_builds_each_gabidulin_code_once(tmp_path, monkeypatch):
    # a 5-word C1 (the spread of GF(2)^4) still gives one Gabidulin code for
    # the (U1 | M2) words and one for the (M1 | U2) words
    import cdckit.constructions as constructions

    spread = run_plan(_plan("linkage", 2, 4, 4, 2, n1=2), REG)
    path = tmp_path / "c1.cdc"
    path.write_text(cdc_to_text(spread.cdc))
    calls = []

    def counted(*args):
        calls.append(args)
        return gabidulin_mrd(*args)

    monkeypatch.setattr(constructions, "gabidulin_mrd", counted)
    plan = ConstructionPlan("linkage", 2, 6, 4, 2, {"n1": 4}, files={"C1": str(path)})
    out = run_plan(plan, REG)
    assert len(spread.cdc) == 5 and out.total == len(out.cdc) == 5 * 4 + 1
    assert calls == [(2, 2, 2, 2), (2, 2, 4, 2)]
    assert verify_min_distance(out.cdc).ok(4)


def test_no_duplicates_across_components():
    # the combined desk builds construct CDCs with strict duplicate detection
    for family, params in (
        ("multiblocks", dict(n1=4, a1=2, b1=1, b2=1, t1=2, t2=2)),
        ("multilevel_II", dict(n1=4, u1=2, u2=2, b1=1, b2=1)),
        ("parallel_blocks", dict(n1=4, a1=2, b1=1, b2=1, t1=2, t2=2, c1=1, c2=1)),
    ):
        out = run_plan(_plan(family, 2, 8, 4, 4, **params), REG, explicit=True)
        assert len({w.key() for w in out.cdc}) == out.total


def test_case1_insert_members_satisfy_insert_predicate():
    # sample the real 2154496-member insert stream of the (12,4,6) record,
    # and take every insert word of the smaller cor43 and cor44 tuples
    for family, q, n, d, k, params in MULTILEVEL_TUPLES:
        p, pairs = lifted_with_vectors(family, q, n, d, k, params)
        for w, vec in itertools.islice(pairs, 200 if n == 12 else None):
            assert insertion_predicate(w, p["n1"], p["n2"], d)
            assert identifying_vector(w) == vec


@pytest.mark.parametrize("text", list(GOLDEN_PLANS.values()) + list(BENCH_PLANS.values()),
                         ids=list(GOLDEN_PLANS) + list(BENCH_PLANS))
def test_built_words_reduce_to_themselves(text):
    # a built word's pivots are mostly known by one mask, not computed: its
    # rows reduced again by `codeword` must give the same word and pivots
    code = run_plan(parse_plan(text)).cdc
    f = gf(code.q)
    for w in code:
        again = codeword(f, code.n, w.rows)
        assert (again.word, again.pivots) == (w.word, w.pivots)

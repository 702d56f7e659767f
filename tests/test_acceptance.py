"""Acceptance criteria, one test per criterion, at pinned tolerances.

Every expected value is exact (integer equality); runtime ceilings are the
stated ones.  Run with `pytest tests/test_acceptance.py -v -s` to see one
PASS line per criterion.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction

from cdckit.bounds import ALL_TABLE_IDS, COR45, evaluate, load_table_manifest, reproduce_table
from cdckit.cli import main
from cdckit.constructions import ConstructionPlan, run_plan
from cdckit.counting import bounded_rank_size, delsarte_rank_count, mrd_size
from cdckit.gf import gf
from cdckit.matrices import Matrix, mat_rank, mat_rref
from cdckit.rankcodes import enumerate_code, gabidulin_mrd
from cdckit.registry import BaseBoundRegistry, shipped_registry
from cdckit.subspaces import CDC, verify_min_distance
from oracles import bound_cor45_poly, hamming_lb_check, insertion_predicate, lift_matrix, \
    mat_sub, subspace_distance, subspace_from_rows, upper_bound

REG = shipped_registry()


def _report(num: int, started: float, limit: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"PASS criterion {num} ({elapsed:.2f}s, limit {limit:g}s): {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_counting_exactness(capsys):
    t0 = time.monotonic()
    assert main(["count", "bounded", "2", "4", "4", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2776"
    assert main(["count", "bounded", "2", "4", "4", "1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "7576"
    for q in (2, 3, 4, 5, 7, 8, 9):
        for a in range(1, 9):
            for b in range(1, 9):
                for d in range(1, min(a, b) + 1):
                    assert bounded_rank_size(q, a, b, d, min(a, b)) == mrd_size(q, a, b, d)
    with capsys.disabled():
        _report(1, t0, 1.0, "bounded counts 2776/7576 and completeness identity")


def test_criterion_2_rank_distribution_oracle():
    t0 = time.monotonic()
    dist = Counter(mat_rank(m) for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2)))
    assert dist == {0: 1, 2: 49, 3: 14}
    for u in (2, 3):
        assert dist[u] == delsarte_rank_count(2, 3, 3, 2, u)
    _report(2, t0, 1.0, "64-codeword rank distribution {0:1, 2:49, 3:14}")


def test_criterion_3_linkage_reproduction():
    t0 = time.monotonic()
    assert evaluate("linkage", 2, 12, 4, 6, dict(n1=6), REG).total == 1212418496
    assert evaluate("linkage", 2, 15, 4, 5, dict(n1=5), REG).total == 1252447538240
    _report(3, t0, 1.0, "linkage totals 1212418496 and 1252447538240")


def test_criterion_4_worked_examples():
    t0 = time.monotonic()
    r41 = evaluate("cor41", 2, 12, 4, 6,
                   dict(n1=6, n2=6, a1=4, a2=2, b1=1, b2=1, t1=4, t2=2), REG)
    assert r41.total == 1214572992
    r42 = evaluate("cor42", 2, 16, 6, 8,
                   dict(n1=8, n2=8, a1=4, a2=4, b1=2, b2=1, t1=4, t2=4, c1=3, c2=2), REG)
    assert r42.total == 282927684887704
    r43 = evaluate("cor43", 2, 12, 4, 6, dict(n1=6, n2=6, u1=4, u2=2, c1=1, c2=1), REG)
    assert r43.total == 1214577088
    assert r43.terms["term:L1"] == 2154496 and r43.terms["term:L2"] == 4096
    r44 = evaluate("cor44", 2, 14, 6, 7, dict(n1=7, n2=7, u1=3, u2=4, b1=2, b2=1), REG)
    assert r44.total == 34532242136
    assert r44.terms["term:L2"] == 16
    _report(4, t0, 10.0, "cor41/cor42/cor43/cor44 worked values and components")


def test_criterion_5_table_reproduction():
    t0 = time.monotonic()
    total = 0
    q2_rows = 0
    ratios = []
    for tid in ALL_TABLE_IDS:
        rows = reproduce_table(tid, registry=REG)
        assert rows, f"table {tid} manifest is empty"
        for row in rows:
            assert row["match"], (
                f"table {tid} row {row['row']} A_{row['q']}({row['n']},{row['d']},"
                f"{row['k']}): computed {row['computed']} != {row['published_new']}"
            )
            # and no value passes the iterated Johnson and anticode bounds
            cap = upper_bound(row["q"], row["n"], row["d"], row["k"])
            assert row["computed"] <= cap, (tid, row["row"], cap)
            ratios.append((Fraction(row["computed"], cap), tid, row["row"]))
            total += 1
            if row["q"] == 2:
                q2_rows += 1
    assert total == 122 and q2_rows == 20
    # the tightest row: Table 3 row 7, A_9(16,8,8), at 0.99983 of the bound
    ratio, tid, row = max(ratios)
    assert (tid, row, round(float(ratio), 5)) == (3, 7, 0.99983)
    print(
        "NOTE criterion 5: 122 rows reproduced exactly (the 120 bundled table "
        "rows plus the 2 verbatim-stated values of the d=4 direct-insert table; "
        "the remaining 19 rows of that table are not bundled with this artifact, "
        "so their published values cannot be checked here)."
    )
    _report(5, t0, 300.0, "all 122 bundled rows of tables 1-9 match exactly")


def test_criterion_6_polynomial_cross_check():
    t0 = time.monotonic()
    # path 1: the stored polynomial, the oracle; path 2: the family tuple
    # that `bound --family cor45` evaluates through the formula stack
    for (n, d, k), family, value in (((12, 4, 6), "cor43", 1214577088),
                                     ((14, 6, 7), "cor44", 34532242136)):
        assert bound_cor45_poly(n, d, k, 2, REG) == value
        assert COR45[n, d, k][0] == family
        assert evaluate(family, 2, n, d, k, COR45[n, d, k][1], REG).total == value
    # and both equal the published table values
    assert any(r.new == 1214577088 and r.q == 2 for r in load_table_manifest(4))
    assert any(r.new == 34532242136 and r.q == 2 for r in load_table_manifest(7))
    _report(6, t0, 1.0, "closed-form polynomials equal the cor45 family tuples at q=2")


def test_criterion_7_explicit_construction_verification():
    t0 = time.monotonic()
    empty = BaseBoundRegistry()
    # lifted MRD: a (6,64,4,3)_2 code with distance exactly 4
    lifted = CDC(2, 6, 3, 4, [lift_matrix(m).word
                              for m in enumerate_code(gabidulin_mrd(2, 3, 3, 2))])
    rep = verify_min_distance(lifted)
    assert rep.min_found == 4 and rep.pairs_checked == 2016
    # blocks construction, 1024 codewords, distance >= 4
    blocks = run_plan(ConstructionPlan("blocks", 2, 8, 4, 4,
                                       {"n1": 4, "a1": 2, "b1": 1, "b2": 1}), empty)
    assert blocks.total == 1024
    assert verify_min_distance(blocks.cdc).min_found >= 4
    # desk multiblocks: B u C verifies at d = 4 and B passes the insert predicate
    mb_plan = ConstructionPlan("multiblocks", 2, 8, 4, 4,
                               {"n1": 4, "a1": 2, "b1": 1, "b2": 1, "t1": 2, "t2": 2})
    mb = run_plan(mb_plan, empty, explicit=True)
    assert verify_min_distance(mb.cdc).min_found >= 4
    # the inserts are the combined codes minus the plans' common linkage code
    linkage = {w.key() for w in run_plan(ConstructionPlan("linkage", 2, 8, 4, 4, {"n1": 4}),
                                         empty, explicit=True).cdc}
    b_only = [w for w in mb.cdc if w.key() not in linkage]
    assert len(b_only) == mb.component_counts["B"] == 64
    assert all(insertion_predicate(w, 4, 4, 4) for w in b_only)
    # desk multilevel: L_f u C verifies at d = 4, inserts pass the predicate
    ml_plan = ConstructionPlan("multilevel_II", 2, 8, 4, 4,
                               {"n1": 4, "u1": 2, "u2": 2, "b1": 1, "b2": 1})
    ml = run_plan(ml_plan, empty, explicit=True)
    assert verify_min_distance(ml.cdc).min_found >= 4
    l_only = [w for w in ml.cdc if w.key() not in linkage]
    assert len(l_only) == ml.total - ml.component_counts["C"] == 68
    assert all(insertion_predicate(w, 4, 4, 4) for w in l_only)
    _report(7, t0, 120.0,
            f"lifted (6,64,4,3), blocks 1024, B|C {mb.total}, L|C {ml.total} all verified")


def _random_full_rank(rng, q, k, n):
    f = gf(q)
    while True:
        m = Matrix(f, k, n, [rng.randrange(q) for _ in range(k * n)])
        if mat_rank(m) == k:
            return m


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(20240)
    cases_per_q = 5000

    for q in (2, 3):
        # RREF idempotence
        for _ in range(cases_per_q):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 7)
            m = Matrix(gf(q), rows, cols, [rng.randrange(q) for _ in range(rows * cols)])
            red, piv = mat_rref(m)
            red2, piv2 = mat_rref(red)
            assert red2.packed == red.packed and piv2 == piv

        # lifting isometry over a pool of rank-metric codewords
        pool = list(enumerate_code(gabidulin_mrd(q, 3, 3, 2))) if q == 2 else \
            list(enumerate_code(gabidulin_mrd(q, 2, 3, 1)))
        lifts = {m.entries: lift_matrix(m) for m in pool}
        for _ in range(cases_per_q):
            a, b = rng.choice(pool), rng.choice(pool)
            assert subspace_distance(lifts[a.entries], lifts[b.entries]) == \
                2 * mat_rank(mat_sub(a, b))

        # Hamming lower bound and triangle inequality over random subspaces
        words = [subspace_from_rows(_random_full_rank(rng, q, 3, 8))
                 for _ in range(160)]
        for _ in range(cases_per_q):
            u, v = rng.choice(words), rng.choice(words)
            assert hamming_lb_check(u, v)
        for _ in range(cases_per_q):
            u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
            assert subspace_distance(u, v) <= \
                subspace_distance(u, w) + subspace_distance(w, v)

    _report(8, t0, 60.0, "4 property suites x 10^4 randomized cases at q in {2,3}")


def test_criterion_9_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    plan = tmp_path / "plan.txt"
    plan.write_text("family = blocks\nq = 2\nn = 8\nd = 4\nk = 4\n"
                    "n1 = 4\na1 = 2\nb1 = 1\nb2 = 1\n")
    outs = []
    reports = []
    for name in ("one.cdc", "two.cdc"):
        target = tmp_path / name
        assert main(["build", "--plan", str(plan), "--out", str(target)]) == 0
        reports.append(capsys.readouterr().out)
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] and reports[0] == reports[1]

    verifies = []
    for _ in range(2):
        assert main(["verify", "--in", str(tmp_path / "one.cdc"),
                     "--mode", "sample:300:99"]) == 0
        verifies.append(capsys.readouterr().out)
    assert verifies[0] == verifies[1]

    bound_outs = []
    for _ in range(2):
        assert main(["bound", "--family", "cor44", "--q", "2", "--n", "14", "--d", "6",
                     "--k", "7", "--n1", "7", "--u1", "3", "--b1", "2", "--b2", "1"]) == 0
        bound_outs.append(capsys.readouterr().out)
    assert bound_outs[0] == bound_outs[1]
    assert json.loads(bound_outs[0])["total"] == 34532242136
    with capsys.disabled():
        _report(9, t0, 60.0, "build/verify/bound outputs byte-identical across runs")

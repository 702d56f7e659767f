"""Bound formulas, registry rules, table manifests, and the grid search."""

from __future__ import annotations

import pytest

from cdckit.bounds import bound_cor45_poly, evaluate, evaluate_row, load_table_manifest, \
    optimize_parameters, reproduce_table
from cdckit.counting import gauss_binomial
from cdckit.errors import EmptyGrid, HypothesisViolated, RegistryMiss
from cdckit.registry import BaseBoundRegistry, shipped_registry

REG = shipped_registry()


def _recombined(result) -> int:
    """Audit identity: the total is the sum of the term:* entries."""
    return sum(v for key, v in result.terms.items() if key.startswith("term:"))


def test_linkage_worked_values():
    assert evaluate("linkage", 2, 12, 4, 6, dict(n1=6), REG).total == 1212418496
    assert evaluate("linkage", 2, 15, 4, 5, dict(n1=5), REG).total == 1252447538240


def test_cor41_worked_examples():
    r = evaluate("cor41", 2, 12, 4, 6, dict(n1=6, n2=6, a1=4, a2=2, b1=1, b2=1, t1=4, t2=2), REG)
    assert r.total == 1214572992
    assert _recombined(r) == r.total
    r = evaluate("cor41", 2, 18, 6, 6, dict(n1=12, n2=6, a1=3, a2=3, b1=2, b2=1, t1=6, t2=3), REG)
    assert r.total == 282958323493518


def test_cor41_collapses_when_b_is_half_d():
    r = evaluate("cor41", 2, 12, 4, 6, dict(n1=6, n2=6, a1=4, a2=2, b1=2, b2=2, t1=4, t2=2), REG)
    assert r.terms["s"] == 1


def test_cor42_worked_examples():
    r = evaluate("cor42", 2, 16, 6, 8,
                 dict(n1=8, n2=8, a1=4, a2=4, b1=2, b2=1, t1=4, t2=4, c1=3, c2=2), REG)
    assert r.total == 282927684887704
    assert r.terms["term:E"] == 2776
    r = evaluate("cor42", 2, 12, 6, 6,
                 dict(n1=6, n2=6, a1=3, a2=3, b1=2, b2=1, t1=3, t2=3, c1=2, c2=1), REG)
    assert r.total == 16865664


def test_cor42_c_boundary():
    # c1 + c2 = k - d/2 is admissible; one more is not
    evaluate("cor42", 2, 16, 6, 8,
             dict(n1=8, n2=8, a1=4, a2=4, b1=2, b2=1, t1=4, t2=4, c1=3, c2=2), REG)
    with pytest.raises(HypothesisViolated):
        evaluate("cor42", 2, 16, 6, 8,
                 dict(n1=8, n2=8, a1=4, a2=4, b1=2, b2=1, t1=4, t2=4, c1=3, c2=3), REG)


def test_cor43_worked_examples():
    r = evaluate("cor43", 2, 12, 4, 6, dict(n1=6, n2=6, u1=4, u2=2, c1=1, c2=1), REG)
    assert r.total == 1214577088
    assert (r.terms["term:L1"], r.terms["term:L2"]) == (2154496, 4096)
    r = evaluate("cor43", 2, 18, 6, 9, dict(n1=9, n2=9, u1=6, u2=3, c1=1, c2=2), REG)
    assert r.total == 9271545179590910976


def test_cor43_boundary_u1_equals_d():
    # u1 = d makes the second vector use the minimum legal left block
    r = evaluate("cor43", 2, 12, 4, 6, dict(n1=6, n2=6, u1=4, u2=2, c1=2, c2=2), REG)
    assert r.total >= evaluate("linkage", 2, 12, 4, 6, dict(n1=6), REG).total


def test_cor44_worked_examples():
    r = evaluate("cor44", 2, 14, 6, 7, dict(n1=7, n2=7, u1=3, u2=4, b1=2, b2=1), REG)
    assert r.total == 34532242136
    assert (r.terms["term:L1"], r.terms["term:L2"]) == (4096, 16)
    r = evaluate("cor44", 2, 10, 4, 5, dict(n1=5, n2=5, u1=2, u2=3, b1=1, b2=1), REG)
    assert r.total == 1178828


def test_cor44_zero_width_case():
    # n1 - lam*u1 = 0 uses the first case formula Lambda_1 * Lambda_2
    from cdckit.counting import bounded_rank_size, mrd_size

    r = evaluate("cor44", 2, 12, 4, 6, dict(n1=6, n2=6, u1=3, u2=3, b1=2, b2=2), REG)
    lam1 = mrd_size(2, 3, 3, 2)
    lam2 = bounded_rank_size(2, 3, 3, 2, 1)
    assert r.terms["term:L2"] == lam1 * lam2


def test_cor45_polynomials_q2():
    assert bound_cor45_poly(12, 4, 6, 2, REG) == 1214577088
    assert bound_cor45_poly(14, 6, 7, 2, REG) == 34532242136
    assert bound_cor45_poly(15, 4, 5, 2, REG) == 1252448902208
    assert bound_cor45_poly(16, 6, 8, 2, REG) == 282927684887704
    assert bound_cor45_poly(18, 6, 6, 2, REG) == 282958323493518
    assert bound_cor45_poly(18, 6, 9, 2, REG) == 9271545179590910976


def test_cor45_degenerate_q_zero():
    assert bound_cor45_poly(12, 4, 6, 0, REG) == 0


def test_cor45_registry_miss_names_entry():
    with pytest.raises(RegistryMiss) as exc:
        bound_cor45_poly(15, 4, 5, 3, REG)
    assert exc.value.key == (3, 7, 4, 3)


def test_cor45_matches_tables_where_both_exist():
    pairs = {(12, 4, 6): 4, (14, 6, 7): 7, (16, 6, 8): 2, (18, 6, 6): 1, (18, 6, 9): 5}
    for (n, d, k), tid in pairs.items():
        for row in load_table_manifest(tid):
            if (row.n, row.d, row.k) == (n, d, k):
                assert bound_cor45_poly(n, d, k, row.q, REG) == row.new, (n, d, k, row.q)


def test_registry_analytic_rules():
    assert REG.get(2, 6, 4, 6) == 1                      # k = n
    assert REG.get(2, 7, 6, 6) == 1                      # d beyond diameter
    assert REG.get(3, 6, 6, 3) == 3**3 + 1               # spread
    assert REG.get(2, 8, 4, 2) == (2**8 - 1) // 3        # spread
    assert REG.get(2, 7, 4, 2) == (2**7 - 2**3) // 3 + 1  # partial spread
    assert REG.get(2, 8, 4, 6) == REG.get(2, 8, 4, 2)    # complement duality
    assert REG.get(2, 6, 2, 3) == gauss_binomial(6, 3, 2)  # whole Grassmannian
    value, source = REG.lookup(2, 7, 4, 3)
    assert value == 333 and "external" in source
    with pytest.raises(RegistryMiss):
        REG.get(3, 11, 4, 4)


def test_registry_merge_text():
    reg = BaseBoundRegistry()
    reg.merge_text("# comment\n2 9 4 4 1033 some source text\n")
    value, source = reg.lookup(2, 9, 4, 4)
    assert value == 1033 and source == "some source text"


def test_reproduce_table_spot_rows():
    t2 = reproduce_table(2, q_filter=2, registry=REG)
    by_family = {(r["n"], r["d"], r["k"]): r for r in t2}
    assert by_family[(12, 6, 6)]["computed"] == 16865664
    assert by_family[(12, 6, 6)]["published_old"] == 16865630
    t9 = reproduce_table(9, q_filter=2, registry=REG)
    assert t9[0]["computed"] == 18015215399116904
    t6 = reproduce_table(6, q_filter=2, registry=REG)
    vals = {(r["n"], r["d"], r["k"]): r["computed"] for r in t6}
    assert vals[(16, 4, 4)] == 80596325666


def test_manifest_rows_recompute_from_breakdown():
    for tid in (1, 4, 6):
        for row in load_table_manifest(tid)[:3]:
            result = evaluate_row(row, REG)
            assert _recombined(result) == result.total


def test_optimize_contains_published_tuple():
    best = optimize_parameters(2, 12, 4, 6, "cor43", REG)
    assert best.total >= 1214577088
    hit = optimize_parameters(2, 12, 4, 6, "cor43", REG, target=1214577088)
    assert hit.params == {"n1": 6, "n2": 6, "u1": 4, "u2": 2, "c1": 1, "c2": 1}


def test_optimize_singleton_grid():
    best = optimize_parameters(2, 8, 4, 4, "linkage", REG)
    assert best.params == {"n1": 4, "n2": 4}
    assert best.total == 4096 + 526


def test_optimize_empty_grid():
    with pytest.raises(EmptyGrid):
        optimize_parameters(2, 7, 4, 4, "linkage", REG)


def test_division_is_exact_in_coset_counts():
    # powers of q always divide exactly; the guard exists for regressions
    r = evaluate("cor41", 3, 12, 4, 6, dict(n1=6, n2=6, a1=4, a2=2, b1=1, b2=1, t1=4, t2=2), REG)
    assert r.terms["s"] == 3**4


def test_bounds_equal_explicit_build_cardinalities():
    # every desk-scale explicit build has exactly the closed-form size
    from cdckit.constructions import ConstructionPlan, run_plan

    empty = BaseBoundRegistry()
    cases = [
        ("multiblocks", dict(n1=4, a1=2, b1=1, b2=1, t1=2, t2=2),
         evaluate("cor41", 2, 8, 4, 4,
                  dict(n1=4, n2=4, a1=2, a2=2, b1=1, b2=1, t1=2, t2=2), empty).total),
        ("parallel_blocks", dict(n1=4, a1=2, b1=1, b2=1, t1=2, t2=2, c1=1, c2=1),
         evaluate("cor42", 2, 8, 4, 4,
                  dict(n1=4, n2=4, a1=2, a2=2, b1=1, b2=1, t1=2, t2=2, c1=1, c2=1), empty).total),
        ("multilevel_II", dict(n1=4, u1=2, u2=2, b1=1, b2=1),
         evaluate("cor44", 2, 8, 4, 4, dict(n1=4, n2=4, u1=2, u2=2, b1=1, b2=1), empty).total),
    ]
    for family, params, expected in cases:
        out = run_plan(ConstructionPlan(family, 2, 8, 4, 4, params), empty,
                       explicit=True)
        assert out.total == len(out.cdc) == expected, family


def test_poly_identity_for_registry_dependent_families():
    # the two polynomials carrying registry factors equal the block-insert
    # formula for every probe value of the unknown inputs (both sides are
    # affine in them, so two probes pin the identity)
    for probe in (1, 12345):
        reg = BaseBoundRegistry()
        reg.add(3, 12, 4, 6, probe, "probe")
        reg.add(3, 8, 4, 4, probe + 7, "probe")
        reg.add(3, 10, 4, 5, probe + 3, "probe")
        reg.add(3, 7, 4, 3, probe + 1, "probe")
        lhs = bound_cor45_poly(18, 4, 6, 3, reg)
        rhs = evaluate("cor41", 3, 18, 4, 6,
                       dict(n1=6, n2=12, a1=2, a2=4, b1=1, b2=1, t1=2, t2=8), reg).total
        assert lhs == rhs
        lhs = bound_cor45_poly(15, 4, 5, 3, reg)
        rhs = evaluate("cor41", 3, 15, 4, 5,
                       dict(n1=5, n2=10, a1=2, a2=3, b1=1, b2=1, t1=2, t2=7), reg).total
        assert lhs == rhs


def test_bound_equals_count_only_build_on_the_admissible_grid():
    # bound and build --count-only evaluate one family spec, so they agree on
    # every admissible tuple: the same total, or the same error
    from cdckit.bounds import FAMILIES
    from cdckit.constructions import ConstructionPlan, run_plan

    walked = 0
    for q in (2, 3):
        for n in range(4, 17):
            for k in range(1, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    for family, spec in FAMILIES.items():
                        for p in spec.grid(q, n, d, k):
                            params = {name: p[name] for name in spec.names}
                            plan = ConstructionPlan(spec.plan, q, n, d, k, params)
                            try:
                                bound = evaluate(family, q, n, d, k, params, REG)
                            except RegistryMiss as exc:
                                with pytest.raises(RegistryMiss) as miss:
                                    run_plan(plan, REG, explicit=False)
                                assert miss.value.key == exc.key, (family, params)
                            else:
                                assert _recombined(bound) == bound.total, (family, params)
                                built = run_plan(plan, REG, explicit=False)
                                assert built.total == bound.total, (family, q, n, d, k, params)
                            walked += 1
    assert walked == 29032


def test_grid_is_the_admissible_set():
    # the grid walks exactly the tuples the hypotheses admit (lam at its
    # default only), checked against every tuple in a box for the families
    # with few free parameters; the grid test above pins the others' count
    import itertools

    from cdckit.bounds import FAMILIES

    cases = [("linkage", (2, 12, 4, 4)), ("cor41", (2, 8, 4, 4)), ("cor43", (2, 12, 4, 6)),
             ("cor43", (3, 14, 4, 6)), ("cor44", (2, 14, 6, 7)), ("cor44", (3, 9, 2, 3))]
    for family, (q, n, d, k) in cases:
        spec = FAMILIES[family]
        free = [par.name for par in spec.params if not par.fill]
        admitted = []
        for values in itertools.product(range(n - k + 2), repeat=len(free)):
            try:
                admitted.append(spec.resolve(q, n, d, k, dict(zip(free, values))))
            except HypothesisViolated:
                pass
        assert admitted and [dict(p) for p in spec.grid(q, n, d, k)] == admitted, family
    for d in (3, 0):
        assert list(FAMILIES["cor41"].grid(2, 12, d, 6)) == []

"""Bound formulas, registry rules, table manifests, and the grid search."""

from __future__ import annotations

import os

import pytest

from cdckit.bounds import COR45, FAMILIES, evaluate, insert_vectors, load_table_manifest, \
    optimize_parameters, reproduce_table
from cdckit.counting import gauss_binomial
from cdckit.errors import EmptyGrid, HypothesisViolated, RegistryMiss
from cdckit.registry import BaseBoundRegistry, shipped_registry
from oracles import POLY_FAMILIES, blocks_insert_oracle, bound_cor45_poly, grid, upper_bound

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


def test_insert_vectors_widths_and_hypotheses():
    # each vector's widths leave the k x (n - k - shift) FDRM shape beside
    # its ones: w1 = n1 - shift - v1 and w2 = n2 - v2
    p = FAMILIES["cor43"].resolve(2, 12, 4, 6, dict(n1=6, u1=4, c1=1, c2=1))
    assert insert_vectors(p) == [(4, 2, 0, 2, 4, 1, 1), (2, 4, 0, 4, 2, 1, 1)]
    p = FAMILIES["cor44"].resolve(2, 8, 4, 4, dict(n1=4, u1=2, b1=1, b2=1))
    assert insert_vectors(p) == [(2, 2, 0, 2, 2, 1, 1), (2, 2, 2, 0, 2, 1, 1)]
    # a vector's blocks too small for d/2, or its ones past n1, are refused
    # by the family before any FDRM word is built
    with pytest.raises(HypothesisViolated, match="u1 >= d"):
        FAMILIES["cor43"].resolve(2, 12, 4, 6, dict(n1=6, u1=3, c1=1, c2=1))
    with pytest.raises(HypothesisViolated, match="u1 >= d/2"):
        FAMILIES["cor44"].resolve(2, 8, 4, 4, dict(n1=4, u1=1, b1=1, b2=1))
    with pytest.raises(HypothesisViolated, match="lam <= floor"):
        FAMILIES["cor44"].resolve(2, 8, 4, 4, dict(n1=4, u1=2, b1=1, b2=1, lam=3))


def _cor45(q: int, n: int, d: int, k: int, registry) -> int:
    """The cor45 record at (n, d, k): its family tuple, evaluated as `bound` does."""
    family, params = COR45[n, d, k]
    return evaluate(family, q, n, d, k, params, registry).total


def test_cor45_polynomials_q2():
    pinned = {(12, 4, 6): 1214577088, (14, 6, 7): 34532242136, (15, 4, 5): 1252448902208,
              (16, 6, 8): 282927684887704, (18, 4, 6): 1321068380545845184,
              (18, 6, 6): 282958323493518, (18, 6, 9): 9271545179590910976}
    assert set(pinned) == set(COR45) == set(POLY_FAMILIES)
    for (n, d, k), value in pinned.items():
        assert _cor45(2, n, d, k, REG) == bound_cor45_poly(n, d, k, 2, REG) == value


def test_cor45_degenerate_q_zero():
    # the oracle's polynomial has no constant term
    assert bound_cor45_poly(12, 4, 6, 0, REG) == 0


def test_cor45_registry_miss_names_entry():
    # the tuple and the oracle miss the same registry value
    for evaluate_cor45 in (_cor45, lambda q, n, d, k, reg: bound_cor45_poly(n, d, k, q, reg)):
        with pytest.raises(RegistryMiss) as exc:
            evaluate_cor45(3, 15, 4, 5, REG)
        assert exc.value.key == (3, 7, 4, 3)


def test_cor45_matches_tables_where_both_exist():
    pairs = {(12, 4, 6): 4, (14, 6, 7): 7, (16, 6, 8): 2, (18, 6, 6): 1, (18, 6, 9): 5}
    for (n, d, k), tid in pairs.items():
        for row in load_table_manifest(tid):
            if (row.n, row.d, row.k) == (n, d, k):
                assert _cor45(row.q, n, d, k, REG) == row.new, (n, d, k, row.q)
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
            result = evaluate(row.family, row.q, row.n, row.d, row.k, row.params, REG)
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


def _outcome(search, *args, **kwargs):
    """A search's result as comparable data, or its exception's class and
    message."""
    try:
        r = search(*args, **kwargs)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc).__name__, str(exc)
    return r.total, r.params, r.terms, r.registry_deps


def _brute_force(q, n, d, k, family, registry, target=None):
    """The search's reference: every grid tuple through `evaluate`, a tuple
    with a registry miss skipped; the first maximum, or the first hit."""
    from cdckit.bounds import FAMILIES

    spec = FAMILIES[family]
    best, evaluated = None, 0
    for p in grid(spec, q, n, d, k):
        try:
            r = evaluate(family, q, n, d, k, {name: p[name] for name in spec.names}, registry)
        except RegistryMiss:
            continue
        evaluated += 1
        if target is None and (best is None or r.total > best.total):
            best = r
        elif target is not None and r.total == target:
            return r
    if best is None:
        raise EmptyGrid(f"no admissible tuple for ({q},{n},{d},{k}) {family}" if evaluated == 0
                        else f"no tuple reaches the target for ({q},{n},{d},{k}) {family}")
    return best


def test_search_matches_brute_force():
    # the structured search (parts once per prefix, subtrees pruned at a
    # registry miss) against plain evaluation of every tuple: the same
    # maximum, the same first hit for the maximum and for one less, and the
    # same EmptyGrid message or error; k = 0, odd d and d > 2k included
    from cdckit.bounds import FAMILIES

    cases = 0
    # the shipped registry, and for q = 2 the analytic rules alone, whose
    # misses fall elsewhere in the grid
    for q, top, registries in ((2, 13, (REG, BaseBoundRegistry())), (3, 12, (REG,))):
        for n in range(2, top + 1):
            for k in range(n + 1):
                for d in range(2 * k + 3):
                    for family in FAMILIES:
                        for reg in registries:
                            key = (q, n, d, k, family)
                            best = _outcome(optimize_parameters, *key, reg)
                            assert best == _outcome(_brute_force, *key, reg), key
                            targets = (best[0], best[0] - 1) if isinstance(best[0], int) else (1,)
                            for t in targets:
                                assert _outcome(optimize_parameters, *key, reg, target=t) == \
                                    _outcome(_brute_force, *key, reg, target=t), (key, t)
                        cases += 1
    assert cases == 5 * sum((n + 1) * (n + 3) for top in (13, 12) for n in range(2, top + 1))


# the keys where the bounds prune most: q = 2, 14 <= n <= 19, d in {4, 6, 8}
_DEEP_KEYS = [(2, n, d, k) for n in range(14, 20) for d in (4, 6, 8) for k in range(n + 1)]
_SMALL_KEYS = [(q, n, d, k) for q, top in ((2, 13), (3, 12)) for n in range(2, top + 1)
               for k in range(n + 1) for d in range(2 * k + 3)]


def _bounds_hold(key, family, registry) -> int:
    """Check every prefix at each of the family's bounded levels: the exact
    parts it fixes plus the declared bounds of the deeper parts must be at
    least the total of each leaf under it that resolves, each bound at least
    its own part's size there, and a bound may miss only when every such
    leaf misses.  One memo lives for the whole key and serves every bound,
    as in the search.  Returns the number of prefixes checked."""
    spec = FAMILIES[family]
    q, _, d, _ = key

    def a(_slot, n, k):
        return registry.get(q, n, d, k)

    leaves = grid(spec, *key)
    sizes = []  # each leaf's part sizes, or None where one misses
    for p in leaves:
        try:
            sizes.append([part(p, a)[0] for part in spec.parts])
        except RegistryMiss:
            sizes.append(None)
    memo = {}
    checked = 0
    for j, (_, bounds) in enumerate(spec.levels):
        if not bounds:
            continue
        exact = [part for parts, _ in spec.levels[:j + 1] for part in parts]
        # the parts the bounds belong to, in order
        deeper = [i for i, part in enumerate(spec.parts) if part not in exact]
        firsts = {}
        for p, row in zip(leaves, sizes):
            prefix = tuple(p[name] for name in spec.names[:j + 1])
            first, most, each = firsts.get(prefix, (p, None, None))
            if row is not None:
                most = sum(row) if most is None else max(most, sum(row))
                each = row if each is None else list(map(max, each, row))
            firsts[prefix] = first, most, each
        for first, most, each in firsts.values():
            try:
                top = sum(part(first, a)[0] for part in exact)
                tops = [bound(first, a, memo) for bound in bounds]
            except RegistryMiss:
                top = None
            assert (most is None) if top is None else top + sum(tops) >= (most or 0), \
                (key, family, first)
            if top is not None and each is not None:
                assert all(t >= each[i] for t, i in zip(tops, deeper)), (key, family, first)
            checked += 1
    return checked


def test_declared_bounds_hold_on_every_prefix():
    # the max-mode search prunes an (n1, a1) split, a b2-subtree or a t1-row
    # of cor41 and cor42 (levels a2, b2 and t1) when this sum is at most its
    # incumbent, so an unsound bound could hide behind a large incumbent in
    # the brute-force comparison; here each is checked against every leaf
    # under it, with the shipped registry and, for q = 2, the analytic rules
    # alone, whose misses fall elsewhere
    assert [(family, [j for j, (_, bounds) in enumerate(spec.levels) if bounds])
            for family, spec in FAMILIES.items()] \
        == [("linkage", []), ("cor41", [3, 5, 6]), ("cor42", [3, 5, 6]), ("cor43", []),
            ("cor44", [])]
    checked = 0
    for key in _SMALL_KEYS + _DEEP_KEYS:
        for registry in (REG, BaseBoundRegistry()) if key[0] == 2 else (REG,):
            for family in ("cor41", "cor42"):
                checked += _bounds_hold(key, family, registry)
    # 44,208 prefixes at levels b2 and t1, and 2,995 (n1, a1) prefixes
    assert checked > 40000 + 2995


def _firsts_hold(key, family, registry) -> int:
    """Check every leaf above the first value of one of the family's
    first-value levels: the tuple with that level at its first value and
    the same later values is admissible, resolves whenever the leaf does,
    and each part that declares the level falls is at least as large
    there, and so is the total.  Returns the number of leaves checked."""
    spec = FAMILIES[family]
    q, _, d, _ = key

    def a(_slot, n, k):
        return registry.get(q, n, d, k)

    leaves = {tuple(p[name] for name in spec.names): p for p in grid(spec, *key)}
    sizes = {}  # each leaf's part sizes, or None where one misses
    for values, p in leaves.items():
        try:
            sizes[values] = [part(p, a)[0] for part in spec.parts]
        except RegistryMiss:
            sizes[values] = None
    checked = 0
    for name in spec.firsts:
        j = spec.names.index(name)
        falling = [i for i, part in enumerate(spec.parts) if name in part.falls]
        for values, p in leaves.items():
            lo = spec.params[j].lo(p)
            if p[name] == lo:
                continue
            first = values[:j] + (lo,) + values[j + 1:]
            assert first in leaves, (key, family, p)
            here, there = sizes[values], sizes[first]
            if here is not None:
                assert there is not None, (key, family, p)
                assert sum(there) >= sum(here), (key, family, p)
                assert all(there[i] >= here[i] for i in falling), (key, family, p)
            checked += 1
    return checked


def test_first_value_levels_cannot_lose():
    # max mode walks b2 of cor41 and cor44 and c2 of cor43 at their first
    # value only, since every part reading them declares it falls with them;
    # that is exact only if each leaf above the first value has a counterpart
    # at it that resolves and is at least as large.  With the shipped
    # registry and, for q = 2, the analytic rules alone
    checked = {family: 0 for family, spec in FAMILIES.items() if spec.firsts}
    for key in _SMALL_KEYS + _DEEP_KEYS:
        for registry in (REG, BaseBoundRegistry()) if key[0] == 2 else (REG,):
            for family in checked:
                checked[family] += _firsts_hold(key, family, registry)
    assert {family: spec.firsts for family, spec in FAMILIES.items()} == {
        "linkage": (), "cor41": ("b2",), "cor42": (), "cor43": ("c2",), "cor44": ("b2",)}
    # 39,813 leaves of cor41, 512 of cor43 and 3,345 of cor44
    assert checked["cor41"] > 35000 and checked["cor43"] > 500 and checked["cor44"] > 3000


def test_bound_memo_is_keyed_by_insert():
    # one memo serves every bound of a search; insert B's and insert E's
    # side maxima share its keys' (n_i, a_i, b_i), so each bound must give
    # with a memo the other insert's bound filled what it gives with a fresh
    # one.  Both sides share them too: a memo that the b2-subtree bound
    # filled through side 1 at (n1, a1, b1) must give the t1-row bound, at
    # the tuple with the sides swapped, what a fresh one gives, and hit
    from cdckit.bounds import blocks_insert_part, parallel_insert_part

    def outcome(bound, p, memo):
        try:
            return bound(p, lambda _slot, n, k: REG.get(p["q"], n, p["d"], k), memo)
        except RegistryMiss as exc:
            return exc.key

    def swapped(p):
        return {**p, **{x + i: p[x + o] for x in ("n", "a", "b", "t", "c")
                        for i, o in (("1", "2"), ("2", "1"))}}

    checked = differ = sides = 0
    # (split bounds, subtree bounds, row bounds)
    triples = tuple(zip(blocks_insert_part.bounds, parallel_insert_part.bounds))
    for key in ((2, 12, 4, 6), (2, 16, 6, 8), (3, 12, 4, 5)):
        for p in grid(FAMILIES["cor42"], *key):
            for pair in triples:
                for first, second in (pair, pair[::-1]):
                    memo = {}
                    outcome(first, p, memo)
                    fresh = outcome(second, p, {})
                    assert outcome(second, p, memo) == fresh, (first.__name__, p)
                    checked += 1
                    differ += fresh != outcome(first, p, {})
            for part in (blocks_insert_part, parallel_insert_part):
                _, subtree, row = part.bounds
                memo = {}
                outcome(subtree, p, memo)
                filled = len(memo)
                assert outcome(row, swapped(p), memo) == outcome(row, swapped(p), {}), p
                assert len(memo) == filled, p
                sides += 1
    assert checked > 600 and differ > checked // 2 and sides > 200


def _level(spec, fn) -> int:
    """The position in `spec.names` of the deepest parameter fn reads."""
    return max((spec.names.index(r) for r in fn.reads if r in spec.names), default=0)


def test_ranges_are_exact():
    # every value a parameter admits has an admissible tuple below it, so
    # the search, which evaluates each part and bound once its level is set,
    # evaluates nothing that no tuple evaluates.  The one exception: a cor42
    # n1 with floor(n1/2) + floor(n2/2) < k leaves a1 no value, and no
    # interval of n1 leaves those out; only the linkage part is fixed there.
    # Every part and declared bound, at every prefix of its level, gives a
    # value or a registry miss.  Odd d admits nothing, so it is left out
    from cdckit.bounds import PLAN_FAMILIES

    leafless, evaluated = [], 0

    def descend(spec, i, p, fns, a, memo) -> bool:
        """Whether an admissible tuple lies under the current names[:i]."""
        nonlocal evaluated
        if i == len(spec.params):
            return True
        par = spec.params[i]
        lo, hi = par.lo(p), par.hi(p)
        found = False
        for p[par.name] in range(max(lo, hi) if par.fill else lo, hi + 1):
            for fn in fns[i]:
                try:
                    if fn in spec.parts:
                        fn(p, a)
                    else:
                        fn(p, a, memo)
                except RegistryMiss:
                    pass
                evaluated += 1
            if descend(spec, i + 1, p, fns, a, memo):
                found = True
            else:
                leafless.append((spec.name, p["q"], par.name, p["n"], p["k"], p["n1"]))
        return found

    for spec in PLAN_FAMILIES.values():
        fns = [[fn for part in spec.parts for fn in (part,) + part.bounds if _level(spec, fn) == i]
               for i in range(len(spec.params))]
        for q in (2, 3):
            for n in range(2, 20):
                for k in range(n + 1):
                    for d in range(2, 2 * k + 3, 2):
                        def a(_slot, nn, kk):
                            return REG.get(q, nn, d, kk)
                        descend(spec, 0, {"q": q, "n": n, "d": d, "k": k, "h": d // 2}, fns,
                                a, {})
    assert evaluated > 100000
    assert leafless and all(
        family == "cor42" and name in ("n1", "n2") and n1 // 2 + (n - n1) // 2 < k
        for family, _, name, n, k, n1 in leafless), sorted(set(leafless))[:10]


def test_search_matches_brute_force_where_pruning_bites(monkeypatch):
    # cor41 to cor44 at the keys of _DEEP_KEYS: the pruned search gives the
    # brute force's maximum, tuple, terms and deps, or its error; and it
    # evaluates insert B under a tenth as often as the unpruned search, which
    # made 17,883 calls here, the b2-subtree bounds less often than the
    # search without the (n1, a1) split bound, which made 2,580 here, and
    # the lifted inserts of cor43 and cor44 under half as often as the
    # search that walked every b2 and c2, which made 1,860 calls here (838
    # now), so pruning that silently stops shows
    from cdckit.bounds import Family, blocks_insert_part, lifted_inserts_part

    calls = subtrees = lifted = 0

    def counted_bound(bound):
        def wrapper(p, a, memo):
            nonlocal subtrees
            subtrees += bound.reads[-1] == "b2"
            return bound(p, a, memo)
        wrapper.reads = bound.reads
        return wrapper

    def counted(part):
        def wrapper(p, a):
            nonlocal calls, lifted
            calls += part is blocks_insert_part
            lifted += part is lifted_inserts_part
            return part(p, a)
        wrapper.reads, wrapper.bounds = part.reads, tuple(map(counted_bound, part.bounds))
        wrapper.falls = part.falls
        return wrapper

    families = ("cor41", "cor42", "cor43", "cor44")
    found = {}
    with monkeypatch.context() as patch:
        for family in families:
            spec = FAMILIES[family]
            patch.setitem(FAMILIES, family,
                          Family(spec.name, spec.plan, spec.params, tuple(map(counted, spec.parts))))
        for key in _DEEP_KEYS:
            for family in families:
                found[key, family] = _outcome(optimize_parameters, *key, family, REG)
    assert 0 < calls < 17883 // 10
    assert 0 < subtrees < 2580
    assert 0 < lifted < 1860 // 2
    for (key, family), outcome in found.items():
        assert outcome == _outcome(_brute_force, *key, family, REG), (key, family)
    assert sum(isinstance(outcome[0], int) for outcome in found.values()) > 150


def test_search_prunes_exactly_the_subtrees_that_cannot_win(monkeypatch):
    # a toy family whose deep part declares its exact maximum over each x as
    # its bound: x = 1 can beat the best of x = 0 by one, so it is walked and
    # wins; x = 2 can at most tie the best, so it is skipped unevaluated
    from cdckit.bounds import Family, Param, _reads

    sizes = {(0, 0): 5, (0, 1): 3, (1, 0): 5, (1, 1): 6, (2, 0): 6, (2, 1): 4}
    evaluated = []

    @_reads("x")
    def most(p, a, memo):
        return max(size for (x, _), size in sizes.items() if x == p["x"])

    @_reads("x")
    def base(p, a):
        return 0, {}

    @_reads("x", "y", bounds=(most,))
    def deep(p, a):
        evaluated.append((p["x"], p["y"]))
        return sizes[p["x"], p["y"]], {}

    monkeypatch.setitem(FAMILIES, "toy", Family("toy", "toy", (
        Param("x", lambda p: 0, lambda p: 2, ""), Param("y", lambda p: 0, lambda p: 1, "")),
        (base, deep)))
    best = optimize_parameters(2, 4, 2, 1, "toy", REG)
    assert (best.params, best.total) == ({"x": 1, "y": 1}, 6)
    # the last evaluation counts the returned tuple
    assert evaluated == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_parts_read_only_what_they_declare():
    # the search evaluates a part once per prefix of its declared reads, and
    # checks a part's bound once per prefix of the bound's, so each given
    # only q, n, d, k, h and those reads must give the same size and terms,
    # or bound, or the same miss
    from cdckit.bounds import PLAN_FAMILIES

    parts = {part for spec in PLAN_FAMILIES.values() for part in spec.parts}

    def outcome(fn, p, q, d):
        memo = () if fn in parts else ({},)  # a bound's, fresh on each call
        try:
            return fn(p, lambda _slot, n, k: REG.get(q, n, d, k), *memo)
        except RegistryMiss as exc:
            return exc.key

    walked = bounded = 0
    for key in ((2, 12, 4, 5), (2, 12, 4, 6), (3, 13, 4, 6)):
        q, _, d, _ = key
        for spec in PLAN_FAMILIES.values():
            for p in grid(spec, *key):
                for part in spec.parts:
                    for fn in (part,) + part.bounds:
                        cut = {name: p[name] for name in ("q", "n", "d", "k", "h") + fn.reads
                               if name in p}
                        assert outcome(fn, cut, q, d) == outcome(fn, p, q, d), \
                            (spec.name, fn.__name__, p)
                        walked += 1
                        bounded += fn is not part
    assert walked > 500 and bounded > 500


def test_block_insert_split_matches_the_one_expression():
    # blocks_insert_part takes each side's factors from a cached helper; on
    # every grid tuple of the two families with insert B (cor41, the
    # multiblocks plan, and cor42) it gives the one-expression formula's
    # size and terms, or its error.  The shipped registry has every size
    # here, so a second lookup also misses each (n', k') with n' + k' odd
    from cdckit.bounds import FAMILIES, blocks_insert_part

    def outcome(part, p, holes):
        def a(_slot, n, k):
            if holes and (n + k) % 2:
                raise RegistryMiss(p["q"], n, p["d"], k)
            return REG.get(p["q"], n, p["d"], k)
        try:
            return part(p, a)
        except Exception as exc:  # every outcome is compared, errors included
            return type(exc).__name__, str(exc)

    walked = misses = 0
    for key in ((2, 12, 4, 5), (2, 12, 4, 6), (3, 13, 4, 6), (4, 12, 6, 6)):
        for family in ("cor41", "cor42"):
            for p in grid(FAMILIES[family], *key):
                for holes in (False, True):
                    got = outcome(blocks_insert_part, p, holes)
                    assert got == outcome(blocks_insert_oracle, p, holes), (family, p, holes)
                    walked += 1
                    misses += got[0] == "RegistryMiss"
    assert walked == 2 * 441 and 0 < misses < walked


def test_search_evaluates_parts_only_under_a_leaf():
    # k = 0 admits no tuple, and the ranges are exact, so no part is
    # evaluated and the search reports the empty grid
    with pytest.raises(EmptyGrid, match=r"no admissible tuple for \(2,2,2,0\) cor41"):
        optimize_parameters(2, 2, 2, 0, "cor41", REG)


def test_linkage_needs_k_at_least_half_d():
    # the linkage part's MRD code has rank distance d/2 <= k; below that the
    # split admits no n1, so no MRD code outside its range is evaluated
    with pytest.raises(HypothesisViolated, match="need k >= d/2"):
        evaluate("linkage", 2, 4, 4, 1, {"n1": 2}, REG)
    for key in ((2, 6, 6, 2), (2, 4, 4, 1), (3, 9, 8, 3)):
        for family in ("linkage", "cor41", "cor44"):
            with pytest.raises(EmptyGrid, match="no admissible tuple"):
                optimize_parameters(*key, family, REG)


def test_search_prunes_a_miss_exactly():
    # without A_2(8,4,4) the linkage part misses at n1 = 4 and n1 = 8, so
    # those subtrees are pruned whole; the best tuple moves to n1 = 7, after
    # the first pruned subtree, and the old best becomes unreachable
    reg = BaseBoundRegistry({key: v for key, v in REG.entries.items() if key != (2, 8, 4, 4)})
    for family in ("linkage", "cor41", "cor42", "cor44"):
        key = (2, 12, 4, 4, family)
        best = _outcome(optimize_parameters, *key, reg)
        assert best == _outcome(_brute_force, *key, reg), family
        assert best[1]["n1"] == 7, family
        old_best = optimize_parameters(*key, REG).total
        for target in (best[0], old_best):
            assert _outcome(optimize_parameters, *key, reg, target=target) == \
                _outcome(_brute_force, *key, reg, target=target), (family, target)
    with pytest.raises(EmptyGrid, match="no tuple reaches the target"):
        optimize_parameters(2, 12, 4, 4, "linkage", reg, target=19673822)
    # a miss in a deeper part: with A_2(7,4,3) but not A_2(6,4,3), cor41's
    # insert misses at t2 = 6 and hits at t2 = 7 under the same prefix, where
    # the large probe value puts the maximum; only the t2 = 6 leaf is skipped
    reg = BaseBoundRegistry({(2, 9, 4, 4): (1000, "probe"), (2, 7, 4, 3): (10**12, "probe")})
    key = (2, 14, 4, 5, "cor41")
    best = _outcome(optimize_parameters, *key, reg)
    assert best == _outcome(_brute_force, *key, reg)
    assert (best[1]["n1"], best[1]["t1"], best[1]["t2"]) == (5, 2, 7)


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
    # each cor45 tuple equals its oracle polynomial as a function of q and of
    # the registry values the polynomial names.  Both sides are polynomials
    # in q of degree <= 63, so 64 integer points q = 2..65 pin them; both are
    # affine in each registry value, so the corners of a box of probe values
    # pin those (the argument is in CHANGES.md)
    import itertools

    for (n, d, k), parts in POLY_FAMILIES.items():
        deps = [key for key, _ in parts if key is not None]
        for probe in itertools.product((1, 12345), repeat=len(deps)):
            reg = BaseBoundRegistry()
            for q in range(2, 66):
                for (nn, dd, kk), value in zip(deps, probe):
                    reg.add(q, nn, dd, kk, value, "probe")
                assert _cor45(q, n, d, k, reg) == bound_cor45_poly(n, d, k, q, reg), \
                    (n, d, k, q, probe)


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
                        for p in grid(spec, q, n, d, k):
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
        assert admitted and [dict(p) for p in grid(spec, q, n, d, k)] == admitted, family
    for d in (3, 0):
        assert list(grid(FAMILIES["cor41"], 2, 12, d, 6)) == []


def test_every_search_maximum_lies_at_or_below_the_upper_bounds():
    # nothing else bounds a count from above, so a part counted twice would
    # pass wherever it lands above the published value: every search maximum
    # of the five families on the benchmark's 669 keys lies at or below the
    # smaller of the iterated Johnson bound with duality and the anticode
    # bound (criterion 5 checks the table values)
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "data", "keys.txt")
    with open(path) as fh:
        keys = [tuple(map(int, line.split())) for line in fh
                if line.strip() and not line.startswith("#")]
    assert len(keys) == 669
    searched = 0
    for q, n, d, k in keys:
        cap = upper_bound(q, n, d, k)
        for family in FAMILIES:
            try:
                best = optimize_parameters(q, n, d, k, family, REG)
            except EmptyGrid:
                continue
            assert best.total <= cap, (q, n, d, k, family, best.total, cap)
            searched += 1
    assert searched > 669

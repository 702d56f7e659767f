"""Closed-form lower bounds, table reproduction, and parameter search.

Every bound is an exact integer assembled from MRD cardinalities m(...),
rank-distribution sums r(...), and registry base values A_q(n,d,k).

Each construction family is written once, as a `Family`: its parameters
in order, each with its admissible range given the ones before it (the
hypotheses) or its derivation (n2 = n - n1, a2 = k - a1, u2 = k - u1, and
lam = floor(n1/u1) unless given), and its count parts, whose sizes add up
to the bound.  Four consumers evaluate that one spec: `evaluate`, which
`bound` (cor45 too) and `table` call; `constructions.run_plan`, which
counts a plan part by part and materializes each part in an explicit
build, so `build --count-only` equals `bound --plan` by construction
(given the same sub-code sizes); the CLI's `bound` flags and plan mapping;
and `optimize_parameters`, which descends the nest of the same ranges and
evaluates each part once per prefix of the parameters it reads.  The
ranges are exact: every value a parameter admits has an admissible tuple
below it, save a few of cor42's n1 (see `FAMILIES`).

  family   plan family       construction
  linkage  linkage           two-block concatenation of smaller codes
  cor41    multiblocks       linkage plus one coset-paired block insert
  cor42    parallel_blocks   cor41 plus a second, parallel block insert
  cor43    multilevel_I      linkage plus two special-form multilevel inserts
  cor44    multilevel_II     linkage plus a ladder of shifted multilevel inserts
  blocks   blocks            the standalone blocks code (a build, no bound)

cor45 is no family of its own: `COR45` names one cor41-cor44 tuple for
each of its seven (n, d, k).

Coset counts must divide exactly; a remainder is a hard error, never a
floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

from .counting import bounded_rank_size, mrd_size
from .errors import EmptyGrid, HypothesisViolated, ManifestMiss, RegistryMiss
from .registry import BaseBoundRegistry, shipped_registry


@dataclass
class BoundResult:
    family: str
    q: int
    n: int
    d: int
    k: int
    params: Dict[str, int]
    total: int
    terms: Dict[str, int]
    registry_deps: List[Tuple[int, int, int, int]] = field(default_factory=list)


def _exact_div(a: int, b: int) -> int:
    if a % b:
        raise ArithmeticError(f"coset count {a}/{b} does not divide exactly")
    return a // b


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolated(msg)


def _bounded(q: int, a: int, b: int, d: int, cap: int) -> int:
    """bounded_rank_size with the cap clamped into [d-1, min(a,b)]."""
    return bounded_rank_size(q, a, b, d, min(cap, a, b))


# -- count parts ----------------------------------------------------------------
#
# A part maps the resolved parameters p (q, n, d, k, h = d/2 and the family's
# own) and a sub-code size lookup a(slot, n', k') -> |A_q(n', d, k')| to its
# size and its named terms.  Bounds look sizes up in the registry; builds
# take them from the plan's sub-code files first.  Each part declares the
# family parameters it reads (`reads`); the search evaluates it once per
# prefix of the deepest of them (see `optimize_parameters`).  Inserts B and
# E also declare `bounds` (made by `_insert_bounds`) for the search's max
# mode: each a function bound(p, a, memo) of its own `reads`, at least the
# part's size at every tuple that shares their values and whose sub-code
# sizes all resolve, or RegistryMiss when no such tuple exists.  `memo` is
# a dict that lives for one search, shared by all bounds.


def _reads(*names: str, bounds: Tuple[Callable, ...] = ()):
    """Declare the family parameters a count part reads besides q, n, d, k, h,
    and the part's bounds."""
    def declare(part):
        part.reads, part.bounds = names, bounds
        return part
    return declare


def _side_max(p, a, memo, factors, t_hi, i: str) -> Tuple[int, int]:
    """Side i's largest g and largest xg, (g, xg) = factors(p, a, i, t), over
    t_i = t in [a_i, t_hi(p, i)], a t whose sub-code size misses skipped;
    memoized under (factors, i, n_i, a_i, b_i), RegistryMiss if all miss."""
    key = (factors, i, p["n" + i], p["a" + i], p["b" + i])
    found = memo.get(key)
    if found is None:
        found = miss = None
        for t in range(p["a" + i], t_hi(p, i) + 1):
            try:
                g, xg = factors(p, a, i, t)
            except RegistryMiss as exc:
                miss = exc.key
                continue
            found = (g, xg) if found is None else (max(found[0], g), max(found[1], xg))
        memo[key] = found = found or miss
    if len(found) == 4:  # the key of a miss
        raise RegistryMiss(*found)
    return found


def _insert_bounds(factors, t_hi, product: bool = False) -> Tuple[Callable, Callable]:
    """An insert's bounds over a b2-subtree and over a t1-row, from the
    factors (g_i, x_i g_i) = factors(p, a, i, t) of side i at t_i = t in
    [a_i, t_hi(p, i)]: x1 g1 x2 g2 <= x1 g1 max x2 g2 in the product form
    (when b1 = b2 = d/2), else min(x1, x2) g1 g2 <= min(x1 g1 max g2,
    g1 max x2 g2); over a b2-subtree, side 1 takes its maxima too."""
    def bound(p, a, memo, g1: int, xg1: int) -> int:
        g2, xg2 = _side_max(p, a, memo, factors, t_hi, "2")
        return xg1 * xg2 if product and p["b1"] == p["b2"] == p["h"] else min(xg1 * g2, g1 * xg2)

    @_reads("n1", "n2", "a1", "a2", "b1", "b2")
    def subtree(p, a, memo) -> int:
        return bound(p, a, memo, *_side_max(p, a, memo, factors, t_hi, "1"))

    @_reads("n1", "n2", "a1", "a2", "b1", "b2", "t1")
    def row(p, a, memo) -> int:
        return bound(p, a, memo, *factors(p, a, "1", p["t1"]))

    return subtree, row


@_reads("n1", "n2")
def linkage_part(p, a):
    """|C1| m(q,k,n2,d/2) + theta |C2|, theta the rank-capped MRD size."""
    q, k, h, n1, n2 = p["q"], p["k"], p["h"], p["n1"], p["n2"]
    m = mrd_size(q, k, n2, h)
    theta = bounded_rank_size(q, k, n1, h, k - h)
    c1 = a("C1", n1, k) * m
    c2 = theta * a("C2", n2, k)
    return c1 + c2, {"term:C1": c1, "term:C2": c2, "theta": theta, "m(q,k,n2,d/2)": m}


@lru_cache(maxsize=None)
def _block_side(q: int, h: int, a: int, a_other: int, w: int, b: int) -> Tuple[int, int, int]:
    """One side of insert B, a x w blocks with the other side's a_other:
    (m, s, Delta_other), the MRD size m(q,a,w,d/2), this side's coset count
    m(q,a,w,b)/m, and the other side's rank-capped size over width w."""
    m = mrd_size(q, a, w, h)
    return m, _exact_div(mrd_size(q, a, w, b), m), _bounded(q, a_other, w, h, a_other - h)


def _block_factors(p, a, i: str, t: int) -> Tuple[int, int]:
    """(G_i, s_i G_i) of insert B's side i at t_i = t: its size is
    min(s1, s2) G1 G2, with G1 = |Q1| m1 Delta_2 and G2 = |Q2| m2 Delta_1."""
    o = "2" if i == "1" else "1"
    m, s, d = _block_side(p["q"], p["h"], p["a" + i], p["a" + o], p["n" + i] - t, p["b" + i])
    g = a("Q" + i, t, p["a" + i]) * m * d
    return g, s * g


# t_i <= n_i - d/2, the widest t range of the families with insert B
@_reads("n1", "n2", "a1", "a2", "b1", "b2", "t1", "t2",
        bounds=_insert_bounds(_block_factors, lambda p, i: p["n" + i] - p["h"]))
def blocks_insert_part(p, a):
    """Insert B: s coset-paired block codes over the sub-codes Q1, Q2.  Each
    side's factors are fixed by its own t, so the search's t2 loop reuses
    side 1's from the cache."""
    q, h, a1, a2, t1, t2 = p["q"], p["h"], p["a1"], p["a2"], p["t1"], p["t2"]
    m1, s1, d2 = _block_side(q, h, a1, a2, p["n1"] - t1, p["b1"])
    m2, s2, d1 = _block_side(q, h, a2, a1, p["n2"] - t2, p["b2"])
    s = min(s1, s2)
    size = s * a("Q1", t1, a1) * m1 * d1 * a("Q2", t2, a2) * m2 * d2
    return size, {"term:B": size, "s": s, "Delta_1": d1, "Delta_2": d2}


def _parallel_factors(p, a, i: str, t: int) -> Tuple[int, int]:
    """(|D_i|, Delta |D_i|) of insert E's side i at t_i = t, with Delta
    (Delta_3 or Delta_4) at its largest: the rank cap c_i <= a_i <= t only
    lowers it from the MRD size m(q, a_i, t, b_i)."""
    ai = p["a" + i]
    g = a("D" + i, p["n" + i] - t, ai)
    return g, mrd_size(p["q"], ai, t, p["b" + i]) * g


@_reads("n1", "n2", "a1", "a2", "b1", "b2", "t1", "t2", "c1", "c2",
        bounds=_insert_bounds(_parallel_factors, lambda p, i: p["n" + i] - p["a" + i],
                              product=True))
def parallel_insert_part(p, a):
    """Insert E over the sub-codes D1, D2: every pair (M1, M2) of rank-capped
    words when b1 = b2 = d/2 (the product form), else min(Delta_3, Delta_4)
    pairs."""
    q, h, a1, a2, b1, b2 = p["q"], p["h"], p["a1"], p["a2"], p["b1"], p["b2"]
    t1, t2 = p["t1"], p["t2"]
    d3 = _bounded(q, a1, t1, b1, p["c1"])
    d4 = _bounded(q, a2, t2, b2, p["c2"])
    pairs = d3 * d4 if b1 == b2 == h else min(d3, d4)
    size = pairs * a("D1", p["n1"] - t1, a1) * a("D2", p["n2"] - t2, a2)
    return size, {"term:E": size, "Delta_3": d3, "Delta_4": d4}


def insert_vectors(p) -> List[Tuple[int, int, int, int, int, int, int]]:
    """The special-form vectors of a multilevel insert as (v1, v2, shift,
    w1, w2, c1, c2), with w1 = n1 - shift - v1 and w2 = n2 - v2 the widths
    each block leaves free after the vector's ones: cor43 lifts (u1, u2)
    and (u1 - d/2, u2 + d/2); cor44, the family with lam, lifts (u1, u2)
    shifted by (i - 1) u1 for i = 1..lam."""
    u1, u2, n1, n2 = p["u1"], p["u2"], p["n1"], p["n2"]
    if "lam" in p:
        return [(u1, u2, shift, n1 - shift - u1, n2 - u2, p["b1"], p["b2"])
                for shift in range(0, p["lam"] * u1, u1)]
    h, c1, c2 = p["h"], p["c1"], p["c2"]
    return [(u1, u2, 0, n1 - u1, n2 - u2, c1, c2),
            (u1 - h, u2 + h, 0, n1 - u1 + h, n2 - u2 - h, c1, c2)]


def _lifted(p, v1: int, v2: int, shift: int, w1: int, w2: int, c1: int, c2: int
            ) -> Tuple[Optional[int], int]:
    """(s, size) of the FDRM code lifted on one vector of `insert_vectors`;
    the case follows from the width w1 of M1, and s is the coset count
    where cosets pair up (else None).  The shift does not change the size."""
    q, h = p["q"], p["h"]
    lam1 = mrd_size(q, v2, w2, h)
    lam2 = _bounded(q, v1, w2, h, v1 - h)
    if w1 < c1:
        return None, lam1 * lam2
    if w1 < h:
        return None, min(mrd_size(q, v1, w1, c1), mrd_size(q, v2, w2, c2)) * lam2
    lam5 = mrd_size(q, v1, w1, h)
    s = min(_exact_div(mrd_size(q, v1, w1, c1), lam5),
            _exact_div(mrd_size(q, v2, w2, c2), lam1))
    return s, s * lam5 * lam1 * lam2


@_reads("n1", "n2", "u1", "u2", "b1", "b2", "c1", "c2", "lam")
def lifted_inserts_part(p, a):
    """Inserts L_1, L_2, ..., one per special-form vector; cor43 also
    reports the coset count s_j of each."""
    found = [_lifted(p, *v) for v in insert_vectors(p)]
    terms = {f"term:L{j}": size for j, (_, size) in enumerate(found, start=1)}
    if "lam" not in p:
        terms.update((f"s{j}", s) for j, (s, _) in enumerate(found, start=1))
    return sum(size for _, size in found), terms


@_reads("n1", "n2", "a1", "a2", "b1", "b2")
def blocks_part(p, a):
    """The standalone blocks code: s coset pairs of diagonal MRD blocks
    times every pair of off-diagonal MRD blocks."""
    q, h, a1, a2 = p["q"], p["h"], p["a1"], p["a2"]
    w1, w2 = p["n1"] - a1, p["n2"] - a2
    m1, m2 = mrd_size(q, a1, w1, h), mrd_size(q, a2, w2, h)
    s = min(_exact_div(mrd_size(q, a1, w1, p["b1"]), m1),
            _exact_div(mrd_size(q, a2, w2, p["b2"]), m2))
    per_r = m1 * m2 * mrd_size(q, a1, w2, h) * mrd_size(q, a2, w1, h)
    return s * per_r, {"term:N": s * per_r, "s": s, "per_r": per_r}


# -- family specs -----------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A family parameter, admissible in [lo(p), hi(p)] given the parameters
    before it; `why` states that hypothesis.  The range is exact: each value
    in it has an admissible tuple below it.  A `fill` parameter may be left
    out and then takes hi(p); a derived one is a fill parameter with lo = hi."""

    name: str
    lo: Callable[[Dict[str, int]], int]
    hi: Callable[[Dict[str, int]], int]
    why: str
    fill: bool = False


def _derived(name: str, value: Callable[[Dict[str, int]], int], why: str) -> Param:
    return Param(name, value, value, why, fill=True)


def _coset_pair(x: str) -> Tuple[Param, Param]:
    """x1, x2 in [1, d/2] with x1 + x2 >= d/2."""
    first = x + "1"
    return (Param(first, lambda p: 1, lambda p: p["h"], f"need 1 <= {x}1 <= d/2"),
            Param(x + "2", lambda p: max(1, p["h"] - p[first]), lambda p: p["h"],
                  f"need 1 <= {x}2 <= d/2 and {x}1 + {x}2 >= d/2"))


def _t_range(i: str, hi: Callable[[Dict[str, int]], int], why: str) -> Param:
    a = "a" + i
    return Param("t" + i, lambda p: p[a], hi, f"need a{i} <= t{i} <= {why}")


def _split(least: Callable[[int], int], why: str) -> Tuple[Param, Param]:
    """n1 in [k, n - k] and n2 = n - n1, with no n1 unless k >= least(d/2):
    the least k the family's later ranges leave a value for (`why`)."""
    return (Param("n1", lambda p: p["k"],
                  lambda p: p["n"] - p["k"] if p["k"] >= least(p["h"]) else -1,
                  f"need {why}, n1 >= k and n2 >= k"),
            _derived("n2", lambda p: p["n"] - p["n1"], "need n2 = n - n1"))


# the linkage part's MRD codes are k x n2 with rank distance d/2 <= k
_SPLIT = _split(lambda h: h, "k >= d/2")
_A2 = _derived("a2", lambda p: p["k"] - p["a1"], "need a2 = k - a1")
# a1 and a2 = k - a1 at least d/2 take k >= d
_BLOCKS = _split(lambda h: 2 * h, "k >= d") + (
    Param("a1", lambda p: p["h"], lambda p: p["k"] - p["h"], "need a1 >= d/2 and a2 >= d/2"),
    _A2,
) + _coset_pair("b")
_U2 = _derived("u2", lambda p: p["k"] - p["u1"], "need u2 = k - u1")


@dataclass(frozen=True)
class Family:
    name: str
    plan: str  # the construction plan family built by `constructions`
    params: Tuple[Param, ...]
    parts: Tuple[Callable, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(par.name for par in self.params)

    def resolve(self, q: int, n: int, d: int, k: int,
                given: Dict[str, Optional[int]]) -> Dict[str, int]:
        """The parameter dict p: each given value checked against its range,
        each derived or default one filled in.  None counts as not given."""
        given = {name: v for name, v in given.items() if v is not None}
        unknown = sorted(set(given) - set(self.names))
        _need(not unknown, f"{self.name} takes no parameter {', '.join(unknown)}")
        missing = [par.name for par in self.params if not par.fill and par.name not in given]
        _need(not missing, f"{self.name} needs {', '.join(missing)}")
        _need(d % 2 == 0 and d >= 2, "d must be even and positive")
        p = {"q": q, "n": n, "d": d, "k": k, "h": d // 2}
        for par in self.params:
            lo, hi = par.lo(p), par.hi(p)
            p[par.name] = value = given.get(par.name, hi)
            _need(lo <= value <= hi, par.why)
        return p

    @cached_property
    def levels(self) -> Tuple[Tuple[Tuple[Callable, ...], Tuple[Callable, ...]], ...]:
        """(parts, bounds) of each level i, a position in `names`: the parts
        whose deepest read is names[i] (names[0] for a part that reads none),
        fixed once names[:i + 1] is set; and the bounds max mode adds there,
        each deeper part's bound whose deepest read is names[i], when every
        deeper part declares one."""
        names = self.names

        def level(fn) -> int:
            return max((names.index(r) for r in fn.reads if r in names), default=0)

        out = []
        for i in range(len(self.params)):
            deep = [[b for b in part.bounds if level(b) == i]
                    for part in self.parts if level(part) > i]
            out.append((tuple(part for part in self.parts if level(part) == i),
                        tuple(bs[0] for bs in deep) if deep and all(deep) else ()))
        return tuple(out)

    def count(self, p, a) -> Tuple[int, Dict[str, int]]:
        """The total and the terms of all parts."""
        total, terms = 0, {}
        for part in self.parts:
            size, part_terms = part(p, a)
            total += size
            terms.update(part_terms)
        return total, terms

    def bound(self, p: Dict[str, int], registry: BaseBoundRegistry) -> BoundResult:
        q, d, deps = p["q"], p["d"], []

        def a(_slot: str, n: int, k: int) -> int:
            value = registry.get(q, n, d, k)
            deps.append((q, n, d, k))
            return value

        total, terms = self.count(p, a)
        return BoundResult(self.name, q, p["n"], d, p["k"],
                           {name: p[name] for name in self.names}, total, terms, deps)


FAMILIES = {
    "linkage": Family("linkage", "linkage", _SPLIT, (linkage_part,)),
    "cor41": Family("cor41", "multiblocks", _BLOCKS + (
        _t_range("1", lambda p: p["n1"] - p["h"], "n1 - d/2"),
        _t_range("2", lambda p: p["n2"] - p["h"], "n2 - d/2"),
    ), (linkage_part, blocks_insert_part)),
    # the one range that is not exact: an n1 with floor(n1/2) + floor(n2/2)
    # < k leaves a1 no value, and no interval of n1 leaves those out
    "cor42": Family("cor42", "parallel_blocks", _split(
        lambda h: max(2 * h, h + 2), "k >= d, k >= d/2 + 2") + (
        # t1 in [a1, n1 - a1] and t2 in [a2, n2 - a2] take 2 a1 <= n1 and 2 a2 <= n2
        Param("a1", lambda p: max(p["h"], p["k"] - p["n2"] // 2),
              lambda p: min(p["k"] - p["h"], p["n1"] // 2),
              "need a1 >= d/2, a2 >= d/2, 2 a1 <= n1 and 2 a2 <= n2"),
        _A2,
        # c1 >= b1 and c2 >= b2 with c1 + c2 <= k - d/2 take b1 + b2 <= k - d/2
        Param("b1", lambda p: 1, lambda p: min(p["h"], p["k"] - p["h"] - 1),
              "need 1 <= b1 <= d/2 and b1 + 1 <= k - d/2"),
        Param("b2", lambda p: max(1, p["h"] - p["b1"]),
              lambda p: min(p["h"], p["k"] - p["h"] - p["b1"]),
              "need 1 <= b2 <= d/2 and d/2 <= b1 + b2 <= k - d/2"),
        _t_range("1", lambda p: p["n1"] - p["a1"], "n1 - a1"),
        _t_range("2", lambda p: p["n2"] - p["a2"], "n2 - a2"),
        Param("c1", lambda p: p["b1"], lambda p: min(p["a1"], p["k"] - p["h"] - p["b2"]),
              "need b1 <= c1 <= a1 and c1 + b2 <= k - d/2"),
        Param("c2", lambda p: p["b2"], lambda p: min(p["a2"], p["k"] - p["h"] - p["c1"]),
              "need b2 <= c2 <= a2 and c1 + c2 <= k - d/2"),
    ), (linkage_part, blocks_insert_part, parallel_insert_part)),
    # u1 >= d and u2 = k - u1 >= d/2 take k >= 3d/2
    "cor43": Family("cor43", "multilevel_I", _split(lambda h: 3 * h, "k >= 3d/2") + (
        Param("u1", lambda p: max(p["d"], p["k"] - p["n2"] + p["d"]),
              lambda p: min(p["k"] - p["h"], p["n1"] - p["h"]),
              "need u1 >= d, u2 >= d/2, n1 - u1 >= d/2 and n2 - u2 >= d"),
        _U2,
    ) + _coset_pair("c"), (linkage_part, lifted_inserts_part)),
    # u1 and u2 = k - u1 at least d/2 take k >= d
    "cor44": Family("cor44", "multilevel_II", _split(lambda h: 2 * h, "k >= d") + (
        Param("u1", lambda p: max(p["h"], p["k"] - p["n2"] + p["h"]),
              lambda p: p["k"] - p["h"], "need u1 >= d/2, u2 >= d/2 and n2 - u2 >= d/2"),
        _U2,
    ) + _coset_pair("b") + (
        Param("lam", lambda p: 1, lambda p: p["n1"] // p["u1"],
              "need 1 <= lam <= floor(n1/u1)", fill=True),
    ), (linkage_part, lifted_inserts_part)),
}

FAMILY_EVALUATORS = FAMILIES  # the benchmark iterates the family names here

PLAN_FAMILIES = {fam.plan: fam for fam in FAMILIES.values()}
PLAN_FAMILIES["blocks"] = Family("blocks", "blocks", _BLOCKS, (blocks_part,))


def evaluate(family: str, q: int, n: int, d: int, k: int, params: Dict[str, Optional[int]],
             registry: Optional[BaseBoundRegistry] = None) -> BoundResult:
    """One family's bound at one parameter tuple, hypotheses checked."""
    spec = FAMILIES[family]
    return spec.bound(spec.resolve(q, n, d, k, params), registry or shipped_registry())


# -- cor45 ----------------------------------------------------------------------

# the seven closed-form records of cor45, each one parameter tuple of the
# families above: (n, d, k) -> (family, parameters)
COR45 = {
    (12, 4, 6): ("cor43", dict(n1=6, u1=4, c1=1, c2=1)),
    (14, 6, 7): ("cor44", dict(n1=7, u1=3, b1=2, b2=1, lam=2)),
    (15, 4, 5): ("cor41", dict(n1=5, a1=2, b1=1, b2=1, t1=2, t2=7)),
    (16, 6, 8): ("cor42", dict(n1=8, a1=4, b1=1, b2=2, c1=2, c2=3, t1=4, t2=4)),
    (18, 4, 6): ("cor41", dict(n1=6, a1=2, b1=1, b2=1, t1=2, t2=8)),
    (18, 6, 6): ("cor41", dict(n1=12, a1=3, b1=2, b2=1, t1=6, t2=3)),
    (18, 6, 9): ("cor43", dict(n1=9, u1=6, c1=1, c2=2)),
}


# -- table manifests ----------------------------------------------------------


@dataclass
class TableRow:
    table: int
    row: int
    q: int
    n: int
    d: int
    k: int
    family: str
    params: Dict[str, int]
    new: int
    old: Optional[int]
    source: str


def parse_manifest(text: str) -> List[TableRow]:
    """Manifest lines read `table row param=value ...`."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        table_s, row_s, *pairs = line.split()
        table, row = int(table_s), int(row_s)
        kv: Dict[str, str] = {}
        for p in pairs:
            key, value = p.split("=", 1)
            kv[key] = value
        params = {name: int(kv[name]) for name in FAMILIES[kv["family"]].names
                  if name in kv}
        rows.append(TableRow(
            table=table, row=row, q=int(kv["q"]), n=int(kv["n"]), d=int(kv["d"]),
            k=int(kv["k"]), family=kv["family"], params=params, new=int(kv["new"]),
            old=int(kv["old"]) if "old" in kv else None, source=kv.get("source", ""),
        ))
    return rows


def load_table_manifest(table_id: int) -> List[TableRow]:
    ref = resources.files("cdckit.data.tables").joinpath(f"table{table_id}.txt")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise ManifestMiss(f"no manifest for table {table_id}") from None
    return parse_manifest(text)


def reproduce_table(table_id: int, q_filter: Optional[int] = None,
                    registry: Optional[BaseBoundRegistry] = None) -> List[Dict]:
    """Evaluate every manifest row of one table against its published value.

    Each report carries the computed value, the published new value, the
    previous best, and a match flag.
    """
    out = []
    for row in load_table_manifest(table_id):
        if q_filter is not None and row.q != q_filter:
            continue
        result = evaluate(row.family, row.q, row.n, row.d, row.k, row.params, registry)
        match = result.total == row.new
        out.append({
            "table": table_id, "row": row.row,
            "q": row.q, "n": row.n, "d": row.d, "k": row.k,
            "family": row.family, "params": row.params,
            "computed": result.total, "published_new": row.new, "published_old": row.old,
            "match": match,
        })
    return out


ALL_TABLE_IDS = tuple(range(1, 10))


# -- parameter search ---------------------------------------------------------


def optimize_parameters(q: int, n: int, d: int, k: int, family: str,
                        registry: Optional[BaseBoundRegistry] = None,
                        target: Optional[int] = None) -> BoundResult:
    """Exhaustive admissible-grid search.

    Returns the maximizing tuple (lexicographically smallest on ties).  With
    `target` set, returns instead the lexicographically smallest tuple whose
    value equals the target exactly, which recovers publishable parameters.
    The grid runs in lexicographic order, so the first hit is the smallest.

    The search descends the family's ranges, one level per parameter, and
    evaluates the spec by its structure (`Family.levels`).  A part's level
    is the deepest parameter it reads, so its value is fixed by the prefix
    up to that level: on setting a value the search adds the parts fixed
    there to the running sum.  The ranges are exact, so every prefix it
    enters has an admissible tuple below it and each part is defined there;
    the one exception, a cor42 n1 with no a1, evaluates only the linkage
    part, defined for every n1.  A part that raises RegistryMiss at level j
    would raise it at every tuple under the level-j prefix, and a tuple with
    a miss is skipped, so the search goes to the next value at level j: the
    pruning is exact.  Each sub-code size (n', k') is looked up once per
    search, misses included.

    In max mode the search also prunes by the parts' declared bounds.  At a
    level with bounds (for cor41 and cor42: a b2-subtree, then a t1-row) it
    adds them to the running sum, and goes to the next value when that is at
    most `best_total`.  This is exact: a later tuple replaces `best` only
    when its total is > `best_total`, and `best_total` never falls, so no
    tuple in the subtree could change the returned tuple, total, terms or
    deps.  A bound factor that misses in the registry for every tuple of
    the subtree prunes it too, since each of those tuples would be skipped.
    Nor can a skipped tuple have raised anything but RegistryMiss: its coset
    counts m(b)/m(d/2) = q^(max(a,w)(d/2-b)) divide exactly, and the t
    ranges keep every width w >= d/2 >= b, so every MRD size is defined.
    The bounds multiply the largest factors, so they take each registry
    value to be what it is, a code size >= 0.  They need no memory beyond
    one search: the side maxima live in a dict local to it.
    """
    registry = registry or shipped_registry()
    spec = FAMILIES[family]
    sizes: Dict[Tuple[int, int], object] = {}  # a size, or the key of a miss

    def a(_slot: str, nn: int, kk: int) -> int:
        size = sizes.get((nn, kk))
        if size is None:
            try:
                size = registry.get(q, nn, d, kk)
            except RegistryMiss as miss:
                size = miss.key
            sizes[nn, kk] = size
        if isinstance(size, tuple):  # a miss: raised anew, so no traceback is kept
            raise RegistryMiss(*size)
        return size

    steps = [(par, parts, bounds if target is None else ())
             for par, (parts, bounds) in zip(spec.params, spec.levels)]
    memo: Dict = {}  # the bounds' side maxima
    best: Optional[Dict[str, int]] = None
    best_total = -1
    evaluated = 0

    def descend(i: int, p: Dict[str, int], total: int) -> bool:
        """Every tuple under the current values of names[:i], whose parts
        sum to `total`; True once the target is hit."""
        nonlocal best, best_total, evaluated
        par, parts, bounds = steps[i]
        lo, hi = par.lo(p), par.hi(p)
        for p[par.name] in range(max(lo, hi) if par.fill else lo, hi + 1):
            here = total
            try:
                for part in parts:
                    here += part(p, a)[0]
                if bounds and here + sum(bound(p, a, memo) for bound in bounds) <= best_total:
                    continue
            except RegistryMiss:  # at every tuple under this value
                continue
            if i + 1 < len(steps):
                if descend(i + 1, p, here):
                    return True
            else:
                evaluated += 1
                if target is None:
                    if here > best_total:
                        best, best_total = dict(p), here
                elif here == target:
                    best = dict(p)
                    return True
        return False

    if d % 2 == 0 and d >= 2:
        descend(0, {"q": q, "n": n, "d": d, "k": k, "h": d // 2}, 0)
    del descend  # the closure refers to itself
    if best is None:
        if evaluated == 0:
            raise EmptyGrid(f"no admissible tuple for ({q},{n},{d},{k}) {family}")
        raise EmptyGrid(f"no tuple reaches the target for ({q},{n},{d},{k}) {family}")
    return spec.bound(best, registry)

"""End-to-end construction pipelines: explicit codes plus exact counts.

Each family builds the insert sets of its defining layout and, when the
predicted size stays under the explicit-build cutoff, materializes every
codeword so the verifier can check distances exhaustively.  Counts are
always computed (exactly) whether or not codewords are materialized, and
they must agree with the closed-form bound evaluations in `bounds`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .counting import bounded_rank_size, mrd_size
from .errors import (
    EnumerationLimitExceeded,
    HammingDistanceViolated,
    HypothesisViolated,
    MissingSubcode,
)
from .gf import factor_prime_power, gf
from .matrices import Matrix, hstack, vstack
from .rankcodes import FerrersShape, enumerate_code, fdrm_subcode_union, fdrm_union, \
    gabidulin_mrd, subcode_cosets
from .registry import BaseBoundRegistry, shipped_registry
from .subspaces import CDC, IdentifyingVector, Subspace, cdc_from_text, \
    lift_special_form, special_form_bits, subspace_from_rows

FAMILIES = ("linkage", "blocks", "multiblocks", "parallel_blocks",
            "multilevel_I", "multilevel_II")


def explicit_cutoff() -> int:
    return int(os.environ.get("CDCKIT_EXPLICIT_CUTOFF", 10**6))


@dataclass
class ConstructionPlan:
    family: str
    q: int
    n: int
    d: int
    k: int
    params: Dict[str, int] = field(default_factory=dict)
    files: Dict[str, str] = field(default_factory=dict)

    def p(self, name: str, default: Optional[int] = None) -> int:
        if name in self.params:
            return self.params[name]
        if default is None:
            raise HypothesisViolated(f"plan is missing parameter {name!r}")
        return default


def parse_plan(text: str) -> ConstructionPlan:
    """Plans are `key = value` lines; *_file keys reference CDC files."""
    kv: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    missing = [name for name in ("family", "q", "n", "d", "k") if name not in kv]
    if missing:
        raise HypothesisViolated(f"plan is missing {', '.join(missing)}")
    family = kv.pop("family")
    if family not in FAMILIES:
        raise HypothesisViolated(f"unknown family {family!r}")
    files = {k[: -len("_file")]: v for k, v in kv.items() if k.endswith("_file")}
    params = {k: int(v) for k, v in kv.items() if not k.endswith("_file")}
    core = {name: params.pop(name) for name in ("q", "n", "d", "k")}
    factor_prime_power(core["q"])  # a q that is not a prime power is refused here
    return ConstructionPlan(family=family, params=params, files=files, **core)


def plan_to_text(plan: ConstructionPlan) -> str:
    lines = [f"family = {plan.family}"]
    for name in ("q", "n", "d", "k"):
        lines.append(f"{name} = {getattr(plan, name)}")
    for key, value in sorted(plan.params.items()):
        lines.append(f"{key} = {value}")
    for key, value in sorted(plan.files.items()):
        lines.append(f"{key}_file = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class BuildOutput:
    cdc: Optional[CDC]
    component_counts: Dict[str, int]
    total: int

    def check(self) -> "BuildOutput":
        if self.cdc is not None and len(self.cdc) != self.total:
            raise AssertionError(
                f"explicit build produced {len(self.cdc)} codewords, expected {self.total}"
            )
        return self


def _trivial_cdc(q: int, n: int, d: int, k: int) -> CDC:
    """Canonical one-codeword code: the row space of (I_k | 0)."""
    word = subspace_from_rows(
        hstack(Matrix.identity(gf(q), k), Matrix.zero(gf(q), k, n - k))
        if n > k else Matrix.identity(gf(q), k)
    )
    return CDC(q, n, k, d, [word], provenance="trivial")


def resolve_subcdc(q: int, n: int, d: int, k: int, file: Optional[str],
                   registry: BaseBoundRegistry, explicit: bool) -> Tuple[Optional[CDC], int]:
    """Resolve a sub-code reference: explicit file, else the canonical
    one-codeword code when the registry proves size 1, else count-only."""
    if file is not None:
        with open(file, "r", encoding="utf-8") as fh:
            cdc = cdc_from_text(fh.read(), provenance=file)
        if (cdc.q, cdc.n, cdc.k) != (q, n, k) or cdc.d < d:
            raise MissingSubcode(
                f"{file} is a ({cdc.n},{len(cdc)},{cdc.d},{cdc.k})_{cdc.q} code, "
                f"need an ({n},*,{d},{k})_{q} code"
            )
        return cdc, len(cdc)
    count = registry.get(q, n, d, k)
    if explicit:
        if count == 1:
            return _trivial_cdc(q, n, d, k), 1
        raise MissingSubcode(
            f"explicit build needs a ({n},*,{d},{k})_{q} sub-code file "
            f"(registry only records its size {count})"
        )
    return None, count


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolated(msg)


def _coset_lists(q: int, a: int, b: int, b_dist: int, h: int, s: int) -> List[List[Matrix]]:
    """First s coset member-lists at ambient distance b_dist, subcode h."""
    if b_dist == h:
        members = sorted(enumerate_code(gabidulin_mrd(q, a, b, h)), key=Matrix.key)
        return [members]
    fam = subcode_cosets(q, a, b, b_dist, h)
    return [members for _, members in fam.materialize()[:s]]


# -- two-block linkage ---------------------------------------------------------


def build_linkage(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
                  explicit: bool = False) -> BuildOutput:
    registry = registry or shipped_registry()
    q, n, d, k = plan.q, plan.n, plan.d, plan.k
    h = d // 2
    n1 = plan.p("n1")
    n2 = n - n1
    _need(d % 2 == 0, "d must be even")
    _need(n1 >= k and n2 >= k, "need n1 >= k and n2 >= k")
    c1, count1 = resolve_subcdc(q, n1, d, k, plan.files.get("C1"), registry, explicit)
    c2, count2 = resolve_subcdc(q, n2, d, k, plan.files.get("C2"), registry, explicit)
    part1 = count1 * mrd_size(q, k, n2, h)
    part2 = bounded_rank_size(q, k, n1, h, k - h) * count2
    counts = {"C1_part": part1, "C2_part": part2}
    total = part1 + part2
    if not explicit:
        return BuildOutput(None, counts, total)
    if total > explicit_cutoff():
        raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")
    words: List[Subspace] = []
    for u1 in c1:
        for m2 in enumerate_code(gabidulin_mrd(q, k, n2, h)):
            words.append(Subspace(hstack(u1.mat, m2), u1.pivots))
    for m1 in enumerate_code(gabidulin_mrd(q, k, n1, h), rank_cap=k - h):
        for u2 in c2:
            words.append(subspace_from_rows(hstack(m1, u2.mat)))
    cdc = CDC(q, n, k, d, words, provenance="linkage")
    return BuildOutput(cdc, counts, total).check()


# -- standalone blocks construction ---------------------------------------------


def build_blocks(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
                 explicit: bool = True) -> BuildOutput:
    q, n, d, k = plan.q, plan.n, plan.d, plan.k
    h = d // 2
    n1 = plan.p("n1")
    n2 = n - n1
    a1 = plan.p("a1")
    a2 = k - a1
    b1, b2 = plan.p("b1"), plan.p("b2")
    _need(d % 2 == 0, "d must be even")
    _need(n1 >= k and n2 >= k, "need n_i >= k")
    _need(a1 >= h and a2 >= h, "need a_i >= d/2")
    _need(1 <= b1 <= h and 1 <= b2 <= h and b1 + b2 >= h, "need 1 <= b_i <= d/2, sum >= d/2")
    s = min(
        mrd_size(q, a1, n1 - a1, b1) // mrd_size(q, a1, n1 - a1, h),
        mrd_size(q, a2, n2 - a2, b2) // mrd_size(q, a2, n2 - a2, h),
    )
    per_coset = mrd_size(q, a1, n1 - a1, h) * mrd_size(q, a2, n2 - a2, h)
    off_diag = mrd_size(q, a1, n2 - a2, h) * mrd_size(q, a2, n1 - a1, h)
    total = s * per_coset * off_diag
    counts = {"s": s, "per_r": per_coset * off_diag, "N": total}
    if not explicit:
        return BuildOutput(None, counts, total)
    if total > explicit_cutoff():
        raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")
    f = gf(q)
    fam1 = _coset_lists(q, a1, n1 - a1, b1, h, s)
    fam2 = _coset_lists(q, a2, n2 - a2, b2, h, s)
    m12s = list(enumerate_code(gabidulin_mrd(q, a1, n2 - a2, h)))
    m21s = list(enumerate_code(gabidulin_mrd(q, a2, n1 - a1, h)))
    i1, i2 = Matrix.identity(f, a1), Matrix.identity(f, a2)
    o_top, o_bot = Matrix.zero(f, a1, a2), Matrix.zero(f, a2, a1)
    words = []
    for r in range(s):
        for m11 in fam1[r]:
            for m22 in fam2[r]:
                for m12 in m12s:
                    for m21 in m21s:
                        top = hstack(i1, m11, o_top, m12)
                        bot = hstack(o_bot, m21, i2, m22)
                        words.append(subspace_from_rows(vstack(top, bot)))
    cdc = CDC(q, n, k, d, words, provenance="blocks")
    return BuildOutput(cdc, counts, total).check()


# -- multi-blocks insert into the linkage code -----------------------------------


def build_multiblocks(plan: ConstructionPlan, base: Optional[BuildOutput] = None,
                      registry: Optional[BaseBoundRegistry] = None,
                      explicit: bool = False) -> BuildOutput:
    """Insert set B; returns B alone, or B united with `base` when given."""
    registry = registry or shipped_registry()
    q, n, d, k = plan.q, plan.n, plan.d, plan.k
    h = d // 2
    n1 = plan.p("n1")
    n2 = n - n1
    a1 = plan.p("a1")
    a2 = k - a1
    b1, b2 = plan.p("b1"), plan.p("b2")
    t1, t2 = plan.p("t1"), plan.p("t2")
    _need(d % 2 == 0, "d must be even")
    _need(n1 >= k and n2 >= k, "need n_i >= k")
    _need(a1 >= h and a2 >= h, "need a_i >= d/2")
    _need(1 <= b1 <= h and 1 <= b2 <= h and b1 + b2 >= h, "need 1 <= b_i <= d/2, sum >= d/2")
    _need(a1 <= t1 <= n1 - h and a2 <= t2 <= n2 - h, "need a_i <= t_i <= n_i - d/2")
    q1, nq1 = resolve_subcdc(q, t1, d, a1, plan.files.get("Q1"), registry, explicit)
    q2, nq2 = resolve_subcdc(q, t2, d, a2, plan.files.get("Q2"), registry, explicit)
    s = min(
        mrd_size(q, a1, n1 - t1, b1) // mrd_size(q, a1, n1 - t1, h),
        mrd_size(q, a2, n2 - t2, b2) // mrd_size(q, a2, n2 - t2, h),
    )
    delta1 = bounded_rank_size(q, a1, n2 - t2, h, min(a1 - h, a1, n2 - t2))
    delta2 = bounded_rank_size(q, a2, n1 - t1, h, min(a2 - h, a2, n1 - t1))
    b_count = (nq1 * nq2 * s * mrd_size(q, a1, n1 - t1, h)
               * mrd_size(q, a2, n2 - t2, h) * delta1 * delta2)
    counts = {"B": b_count, "s": s, "Delta_1": delta1, "Delta_2": delta2}
    if base is not None:
        counts["C"] = base.total
    total = b_count + (base.total if base is not None else 0)
    if not explicit:
        return BuildOutput(None, counts, total)
    if total > explicit_cutoff():
        raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")
    f = gf(q)
    fam1 = _coset_lists(q, a1, n1 - t1, b1, h, s)
    fam2 = _coset_lists(q, a2, n2 - t2, b2, h, s)
    m12s = list(enumerate_code(gabidulin_mrd(q, a1, n2 - t2, h), rank_cap=a1 - h))
    m21s = list(enumerate_code(gabidulin_mrd(q, a2, n1 - t1, h), rank_cap=a2 - h))
    o_top, o_bot = Matrix.zero(f, a1, t2), Matrix.zero(f, a2, t1)
    words = []
    for r in range(s):
        for u1 in q1:
            for u2 in q2:
                for m11 in fam1[r]:
                    for m22 in fam2[r]:
                        for m12 in m12s:
                            for m21 in m21s:
                                top = hstack(u1.mat, m11, o_top, m12)
                                bot = hstack(o_bot, m21, u2.mat, m22)
                                words.append(subspace_from_rows(vstack(top, bot)))
    if base is not None and base.cdc is not None:
        words.extend(base.cdc)
        provenance = "multiblocks+linkage"
    else:
        provenance = "multiblocks-insert"
    cdc = CDC(q, n, k, d, words, provenance=provenance)
    return BuildOutput(cdc, counts, total).check()


# -- parallel blocks insert -------------------------------------------------------


def build_parallel_blocks(plan: ConstructionPlan, prior: Optional[BuildOutput] = None,
                          registry: Optional[BaseBoundRegistry] = None,
                          explicit: bool = False) -> BuildOutput:
    """Insert set E; returns E alone, or E united with `prior` (B u C)."""
    registry = registry or shipped_registry()
    q, n, d, k = plan.q, plan.n, plan.d, plan.k
    h = d // 2
    n1 = plan.p("n1")
    n2 = n - n1
    a1 = plan.p("a1")
    a2 = k - a1
    b1, b2 = plan.p("b1"), plan.p("b2")
    t1, t2 = plan.p("t1"), plan.p("t2")
    c1, c2 = plan.p("c1"), plan.p("c2")
    _need(d % 2 == 0, "d must be even")
    _need(n1 >= k and n2 >= k, "need n_i >= k")
    _need(a1 >= h and a2 >= h, "need a_i >= d/2")
    _need(1 <= b1 <= h and 1 <= b2 <= h and b1 + b2 >= h, "need 1 <= b_i <= d/2, sum >= d/2")
    _need(a1 <= t1 <= n1 - a1 and a2 <= t2 <= n2 - a2, "need a_i <= t_i <= n_i - a_i")
    _need(b1 <= c1 <= a1 and b2 <= c2 <= a2, "need b_i <= c_i <= a_i")
    _need(c1 + c2 <= k - h, "need c1 + c2 <= k - d/2")
    d1, nd1 = resolve_subcdc(q, n1 - t1, d, a1, plan.files.get("D1"), registry, explicit)
    d2, nd2 = resolve_subcdc(q, n2 - t2, d, a2, plan.files.get("D2"), registry, explicit)
    m1_count = bounded_rank_size(q, a1, t1, b1, c1)
    m2_count = bounded_rank_size(q, a2, t2, b2, c2)
    if b1 == h and b2 == h:
        e_count = m1_count * m2_count * nd1 * nd2
    else:
        e_count = min(m1_count, m2_count) * nd1 * nd2
    counts = {"E": e_count, "M1": m1_count, "M2": m2_count}
    if prior is not None:
        counts["prior"] = prior.total
    total = e_count + (prior.total if prior is not None else 0)
    if not explicit:
        return BuildOutput(None, counts, total)
    if total > explicit_cutoff():
        raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")
    f = gf(q)
    m1s = sorted(enumerate_code(gabidulin_mrd(q, a1, t1, b1), rank_cap=c1),
                 key=Matrix.key)
    m2s = sorted(enumerate_code(gabidulin_mrd(q, a2, t2, b2), rank_cap=c2),
                 key=Matrix.key)
    if b1 == h and b2 == h:
        pairs = [(x, y) for x in m1s for y in m2s]
    else:
        pairs = list(zip(m1s, m2s))
    o1 = Matrix.zero(f, a1, t2)
    o2 = Matrix.zero(f, a1, n2 - t2)
    o3 = Matrix.zero(f, a2, t1)
    o4 = Matrix.zero(f, a2, n1 - t1)
    words = []
    for m1, m2 in pairs:
        for u1 in d1:
            for u2 in d2:
                top = hstack(m1, u1.mat, o1, o2)
                bot = hstack(o3, o4, m2, u2.mat)
                words.append(subspace_from_rows(vstack(top, bot)))
    if prior is not None and prior.cdc is not None:
        words.extend(prior.cdc)
        provenance = "parallel-blocks+prior"
    else:
        provenance = "parallel-blocks-insert"
    cdc = CDC(q, n, k, d, words, provenance=provenance)
    return BuildOutput(cdc, counts, total).check()


# -- multilevel inserts ---------------------------------------------------------


def special_form_vector(delta1: int, delta2: int, u1: int, u2: int, Delta: int,
                        d_f: Optional[int] = None) -> IdentifyingVector:
    if d_f is not None and (u1 < d_f or u2 < d_f or delta2 < u2 + d_f):
        raise HypothesisViolated("special-form blocks too small for d_f")
    return IdentifyingVector(special_form_bits(delta1, delta2, u1, u2, Delta))


def _multilevel_vectors(plan: ConstructionPlan) -> List[Tuple[IdentifyingVector, FerrersShape, Dict[str, int]]]:
    """The vector set H with its shapes and per-vector subcode parameters."""
    q, n, d, k = plan.q, plan.n, plan.d, plan.k
    h = d // 2
    n1 = plan.p("n1")
    n2 = n - n1
    _need(n1 >= k and n2 >= k, "need n_i >= k")
    out = []
    if plan.family == "multilevel_I":
        u1, u2 = plan.p("u1"), plan.p("u2")
        c1, c2 = plan.p("c1"), plan.p("c2")
        _need(u1 + u2 == k, "need u1 + u2 = k")
        _need(u1 >= d and u2 >= h, "need u1 >= d and u2 >= d/2")
        _need(1 <= c1 <= h and 1 <= c2 <= h and c1 + c2 >= h, "need 1 <= c_i <= d/2, sum >= d/2")
        _need(n1 - u1 >= h and n2 - u2 >= h and n2 - u2 - h >= h,
              "need n_i - u_i >= d/2 on both vectors")
        for v1, v2 in ((u1, u2), (u1 - h, u2 + h)):
            shape = FerrersShape(n1, n2, v1, v2, 0, h)
            vec = IdentifyingVector(special_form_bits(n1, n2, v1, v2, 0))
            out.append((vec, shape, {"c1": c1, "c2": c2}))
    else:
        u1, u2 = plan.p("u1"), plan.p("u2")
        b1, b2 = plan.p("b1"), plan.p("b2")
        _need(u1 + u2 == k, "need u1 + u2 = k")
        _need(u1 >= h and u2 >= h, "need u_i >= d/2")
        _need(1 <= b1 <= h and 1 <= b2 <= h and b1 + b2 >= h, "need 1 <= b_i <= d/2, sum >= d/2")
        _need(n2 - u2 >= h, "need n2 - u2 >= d/2")
        lam = plan.p("lam", n1 // u1)
        _need(1 <= lam <= n1 // u1, "need 1 <= lambda <= floor(n1/u1)")
        for i in range(1, lam + 1):
            shape = FerrersShape(n1, n2, u1, u2, (i - 1) * u1, h)
            vec = IdentifyingVector(special_form_bits(n1, n2, u1, u2, (i - 1) * u1))
            out.append((vec, shape, {"c1": b1, "c2": b2}))
    for i, (va, _, _) in enumerate(out):
        for vb, _, _ in out[i + 1:]:
            dist = sum(x != y for x, y in zip(va.bits, vb.bits))
            if dist < d:
                raise HammingDistanceViolated(
                    f"vectors {va.bits} and {vb.bits} are at Hamming distance {dist} < {d}"
                )
    return out


def build_multilevel_insert(plan: ConstructionPlan, base: Optional[BuildOutput] = None,
                            registry: Optional[BaseBoundRegistry] = None,
                            explicit: bool = False) -> BuildOutput:
    """Union of lifted Ferrers-supported codes, one per special-form vector."""
    registry = registry or shipped_registry()
    q, d, h = plan.q, plan.d, plan.d // 2
    vectors = _multilevel_vectors(plan)
    counts: Dict[str, int] = {}
    fdrms = []
    for j, (vec, shape, cc) in enumerate(vectors, start=1):
        cap = shape.u1 - h
        if shape.w1 >= h:
            code = fdrm_subcode_union(q, shape, cc["c1"], cc["c2"], rank3_cap=cap)
        else:
            code = fdrm_union(q, shape, cc["c1"], cc["c2"], rank3_cap=cap)
        fdrms.append((vec, shape, code))
        counts[f"L_{j}"] = code.count
    insert_total = sum(code.count for _, _, code in fdrms)
    if base is not None:
        counts["C"] = base.total
    total = insert_total + (base.total if base is not None else 0)
    if not explicit:
        return BuildOutput(None, counts, total)
    if total > explicit_cutoff():
        raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")
    words: List[Subspace] = []
    for vec, shape, code in fdrms:
        for m in code:
            words.append(lift_special_form(vec, m, shape))
    if base is not None and base.cdc is not None:
        words.extend(base.cdc)
        provenance = f"{plan.family}+linkage"
    else:
        provenance = f"{plan.family}-insert"
    cdc = CDC(plan.q, plan.n, plan.k, plan.d, words, provenance=provenance)
    return BuildOutput(cdc, counts, total).check()


# -- one-call driver ------------------------------------------------------------


def run_plan(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
             explicit: bool = True) -> BuildOutput:
    """Build a plan end to end (base linkage plus the family's insert)."""
    registry = registry or shipped_registry()
    if plan.family == "linkage":
        return build_linkage(plan, registry, explicit)
    if plan.family == "blocks":
        return build_blocks(plan, registry, explicit)
    base = build_linkage(plan, registry, explicit)
    if plan.family == "multiblocks":
        return build_multiblocks(plan, base, registry, explicit)
    if plan.family == "parallel_blocks":
        prior = build_multiblocks(plan, base, registry, explicit)
        return build_parallel_blocks(plan, prior, registry, explicit)
    if plan.family in ("multilevel_I", "multilevel_II"):
        return build_multilevel_insert(plan, base, registry, explicit)
    raise HypothesisViolated(f"unknown family {plan.family!r}")

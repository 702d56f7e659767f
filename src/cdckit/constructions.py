"""End-to-end construction pipelines: explicit codes plus exact counts.

A plan's family, parameters, hypotheses and count formulas are the family
spec in `bounds` (`PLAN_FAMILIES`): the count half of every `build_*` is
the bound's own count part, with sub-code sizes taken from the plan's
files where given and from the registry otherwise.  For a plan without
files, `build --count-only` therefore equals `bound --plan` by
construction.  What this module adds
are the materializers: when the predicted size stays under the
explicit-build cutoff, each family assembles every codeword from
Gabidulin codes, their coset lists and FDRM words (`rankcodes`) so the
verifier can check distances exhaustively, and `BuildOutput.check` holds
the materialized size to the count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .bounds import PLAN_FAMILIES, blocks_insert_part, blocks_part, insert_vectors, \
    lifted_inserts_part, linkage_part, parallel_insert_part
from .errors import EnumerationLimitExceeded, HypothesisViolated, MissingSubcode
from .gf import factor_prime_power, gf
from .matrices import Matrix, hstack, vstack
from .rankcodes import FerrersShape, coset_lists, enumerate_code, fdrm_words, gabidulin_mrd
from .registry import BaseBoundRegistry, shipped_registry
from .subspaces import CDC, Subspace, cdc_from_text, lift_special_form, subspace_from_rows

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
    if family not in PLAN_FAMILIES:
        raise HypothesisViolated(f"unknown family {family!r}")
    files = {k[: -len("_file")]: v for k, v in kv.items() if k.endswith("_file")}
    params = {k: int(v) for k, v in kv.items() if not k.endswith("_file")}
    core = {name: params.pop(name) for name in ("q", "n", "d", "k")}
    factor_prime_power(core["q"])  # a q that is not a prime power is refused here
    return ConstructionPlan(family=family, params=params, files=files, **core)


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
    return CDC(q, n, k, d, [word])


def resolve_subcdc(q: int, n: int, d: int, k: int, file: Optional[str],
                   registry: BaseBoundRegistry, explicit: bool) -> Tuple[Optional[CDC], int]:
    """Resolve a sub-code reference: explicit file, else the canonical
    one-codeword code when the registry proves size 1, else count-only."""
    if file is not None:
        with open(file, "r", encoding="utf-8") as fh:
            cdc = cdc_from_text(fh.read())
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


def _count(plan: ConstructionPlan, part, registry: BaseBoundRegistry, explicit: bool):
    """Check the plan against its family spec and evaluate one count part.

    Returns the resolved parameters, the part's size and terms, and the
    sub-codes it consumed by slot (None where only the size is known).
    """
    if plan.family not in PLAN_FAMILIES:
        raise HypothesisViolated(f"unknown family {plan.family!r}")
    p = PLAN_FAMILIES[plan.family].resolve(plan.q, plan.n, plan.d, plan.k, plan.params)
    subs: Dict[str, Optional[CDC]] = {}

    def a(slot: str, n: int, k: int) -> int:
        subs[slot], count = resolve_subcdc(plan.q, n, plan.d, k, plan.files.get(slot),
                                           registry, explicit)
        return count

    size, terms = part(p, a)
    return p, size, terms, subs


def _check_cutoff(total: int) -> None:
    if total > explicit_cutoff():
        raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")


def _with_base(counts: Dict[str, int], size: int, base: Optional[BuildOutput],
               name: str) -> int:
    """The insert's total, plus the base's when there is one."""
    if base is None:
        return size
    counts[name] = base.total
    return size + base.total


def _insert_output(plan: ConstructionPlan, words: List[Subspace], base: Optional[BuildOutput],
                   counts: Dict[str, int], total: int) -> BuildOutput:
    """The materialized insert, united with the base's code when given."""
    cdc = CDC(plan.q, plan.n, plan.k, plan.d, words, base=base.cdc if base else None)
    return BuildOutput(cdc, counts, total).check()


# -- two-block linkage ---------------------------------------------------------


def build_linkage(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
                  explicit: bool = False) -> BuildOutput:
    registry = registry or shipped_registry()
    p, total, terms, subs = _count(plan, linkage_part, registry, explicit)
    counts = {"C1_part": terms["term:C1"], "C2_part": terms["term:C2"]}
    if not explicit:
        return BuildOutput(None, counts, total)
    _check_cutoff(total)
    q, k, h, n1, n2 = p["q"], p["k"], p["h"], p["n1"], p["n2"]
    words: List[Subspace] = []
    for u1 in subs["C1"]:
        for m2 in enumerate_code(gabidulin_mrd(q, k, n2, h)):
            words.append(Subspace(hstack(u1.mat, m2), u1.pivots))
    for m1 in enumerate_code(gabidulin_mrd(q, k, n1, h), rank_cap=k - h):
        for u2 in subs["C2"]:
            words.append(subspace_from_rows(hstack(m1, u2.mat)))
    cdc = CDC(q, plan.n, k, plan.d, words)
    return BuildOutput(cdc, counts, total).check()


# -- standalone blocks construction ---------------------------------------------


def build_blocks(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
                 explicit: bool = True) -> BuildOutput:
    p, total, terms, _ = _count(plan, blocks_part, registry, explicit)
    s = terms["s"]
    counts = {"s": s, "per_r": terms["per_r"], "N": total}
    if not explicit:
        return BuildOutput(None, counts, total)
    _check_cutoff(total)
    q, h, a1, a2, n1, n2 = p["q"], p["h"], p["a1"], p["a2"], p["n1"], p["n2"]
    f = gf(q)
    fam1 = coset_lists(q, a1, n1 - a1, p["b1"], h)
    fam2 = coset_lists(q, a2, n2 - a2, p["b2"], h)
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
    cdc = CDC(q, plan.n, plan.k, plan.d, words)
    return BuildOutput(cdc, counts, total).check()


# -- multi-blocks insert into the linkage code -----------------------------------


def build_multiblocks(plan: ConstructionPlan, base: Optional[BuildOutput] = None,
                      registry: Optional[BaseBoundRegistry] = None,
                      explicit: bool = False) -> BuildOutput:
    """Insert set B; returns B alone, or B united with `base` when given."""
    registry = registry or shipped_registry()
    p, size, terms, subs = _count(plan, blocks_insert_part, registry, explicit)
    s = terms["s"]
    counts = {"B": size, "s": s, "Delta_1": terms["Delta_1"], "Delta_2": terms["Delta_2"]}
    total = _with_base(counts, size, base, "C")
    if not explicit:
        return BuildOutput(None, counts, total)
    _check_cutoff(total)
    q, h, a1, a2, t1, t2 = p["q"], p["h"], p["a1"], p["a2"], p["t1"], p["t2"]
    n1, n2 = p["n1"], p["n2"]
    f = gf(q)
    fam1 = coset_lists(q, a1, n1 - t1, p["b1"], h)
    fam2 = coset_lists(q, a2, n2 - t2, p["b2"], h)
    m12s = list(enumerate_code(gabidulin_mrd(q, a1, n2 - t2, h), rank_cap=a1 - h))
    m21s = list(enumerate_code(gabidulin_mrd(q, a2, n1 - t1, h), rank_cap=a2 - h))
    o_top, o_bot = Matrix.zero(f, a1, t2), Matrix.zero(f, a2, t1)
    words = []
    for r in range(s):
        for u1 in subs["Q1"]:
            for u2 in subs["Q2"]:
                for m11 in fam1[r]:
                    for m22 in fam2[r]:
                        for m12 in m12s:
                            for m21 in m21s:
                                top = hstack(u1.mat, m11, o_top, m12)
                                bot = hstack(o_bot, m21, u2.mat, m22)
                                words.append(subspace_from_rows(vstack(top, bot)))
    return _insert_output(plan, words, base, counts, total)


# -- parallel blocks insert -------------------------------------------------------


def build_parallel_blocks(plan: ConstructionPlan, prior: Optional[BuildOutput] = None,
                          registry: Optional[BaseBoundRegistry] = None,
                          explicit: bool = False) -> BuildOutput:
    """Insert set E; returns E alone, or E united with `prior` (B u C)."""
    registry = registry or shipped_registry()
    p, size, terms, subs = _count(plan, parallel_insert_part, registry, explicit)
    counts = {"E": size, "M1": terms["Delta_3"], "M2": terms["Delta_4"]}
    total = _with_base(counts, size, prior, "prior")
    if not explicit:
        return BuildOutput(None, counts, total)
    _check_cutoff(total)
    q, a1, a2, t1, t2 = p["q"], p["a1"], p["a2"], p["t1"], p["t2"]
    n1, n2, b1, b2 = p["n1"], p["n2"], p["b1"], p["b2"]
    f = gf(q)
    m1s = sorted(enumerate_code(gabidulin_mrd(q, a1, t1, b1), rank_cap=p["c1"]),
                 key=Matrix.key)
    m2s = sorted(enumerate_code(gabidulin_mrd(q, a2, t2, b2), rank_cap=p["c2"]),
                 key=Matrix.key)
    if b1 == b2 == p["h"]:
        pairs = [(x, y) for x in m1s for y in m2s]
    else:
        pairs = list(zip(m1s, m2s))
    o1 = Matrix.zero(f, a1, t2)
    o2 = Matrix.zero(f, a1, n2 - t2)
    o3 = Matrix.zero(f, a2, t1)
    o4 = Matrix.zero(f, a2, n1 - t1)
    words = []
    for m1, m2 in pairs:
        for u1 in subs["D1"]:
            for u2 in subs["D2"]:
                top = hstack(m1, u1.mat, o1, o2)
                bot = hstack(o3, o4, m2, u2.mat)
                words.append(subspace_from_rows(vstack(top, bot)))
    return _insert_output(plan, words, prior, counts, total)


# -- multilevel inserts ---------------------------------------------------------


def build_multilevel_insert(plan: ConstructionPlan, base: Optional[BuildOutput] = None,
                            registry: Optional[BaseBoundRegistry] = None,
                            explicit: bool = False) -> BuildOutput:
    """Union of lifted Ferrers-supported codes, one per special-form vector.

    The vectors lie at Hamming distance d or more from each other by the
    family's hypotheses, so the lifted codes combine.
    """
    registry = registry or shipped_registry()
    p, size, terms, _ = _count(plan, lifted_inserts_part, registry, explicit)
    vectors = insert_vectors(p)
    counts = {f"L_{j}": terms[f"term:L{j}"] for j in range(1, len(vectors) + 1)}
    total = _with_base(counts, size, base, "C")
    if not explicit:
        return BuildOutput(None, counts, total)
    _check_cutoff(total)
    q, h, n1, n2 = p["q"], p["h"], p["n1"], p["n2"]
    words: List[Subspace] = []
    for v1, v2, shift, c1, c2 in vectors:
        shape = FerrersShape(n1, n2, v1, v2, shift, h)
        for m in fdrm_words(q, shape, c1, c2):
            words.append(lift_special_form(m, shape))
    return _insert_output(plan, words, base, counts, total)


# -- one-call driver ------------------------------------------------------------


def run_plan(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
             explicit: bool = True) -> BuildOutput:
    """Build a plan end to end (base linkage plus the family's insert)."""
    registry = registry or shipped_registry()
    if explicit:
        gf(plan.q)  # refuses a field with no row encoding before any count
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

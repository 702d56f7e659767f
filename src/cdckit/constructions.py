"""Plan builds: exact counts part by part, and explicit codes built once.

A plan's family, parameters, hypotheses and count parts are the family
spec in `bounds` (`PLAN_FAMILIES`), and `run_plan` is the one function that
walks it.  It checks the family's hypotheses once, then takes the family's
count parts in order.  Each part is counted with sub-code sizes taken from
the plan's files where given and from the registry otherwise, so for a
plan without files `build --count-only` equals `bound --plan` by
construction.  An explicit build holds the running total to the
explicit-build cutoff after each part, and only then materializes every
part into one code, whose size must equal the total.  Each codeword is
one int, its rows end to end, and the OR of its blocks.  Each block is
placed once in the rows and columns it takes: Gabidulin words, coset
lists and FDRM words by `rankcodes`, and sub-code words re-slotted from
their `CDC.packed` ints by `_placed`.  A lifted insert's identity blocks,
one constant word, take widths that `bounds.insert_vectors` gives the
count and the build alike.  Every materializer yields bare ints, and the
`CDC` decides each word's RREF and pivots: a linkage word (U1 | M2) or a
lifted FDRM word is in RREF on the pivots of the word before it and
costs one masked test; any other is checked by its rows' shape or
reduced.  The verifier can then check distances exhaustively.

`_PARTS` pairs each count part with its materializer and the components a
build reports for it.  A build reports the components of its family's last
part, and the total of the parts before it under that part's base name:

  count part            components                          base
  linkage_part          C1_part, C2_part
  blocks_part           s, per_r, N
  blocks_insert_part    B, s, Delta_1, Delta_2              C
  parallel_insert_part  E, M1 (= Delta_3), M2 (= Delta_4)   prior
  lifted_inserts_part   L_1, L_2, ...                       C
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from itertools import repeat
from operator import or_
from typing import Dict, Iterator, List, Optional, Tuple

from .bounds import PLAN_FAMILIES, blocks_insert_part, blocks_part, insert_vectors, \
    lifted_inserts_part, linkage_part, parallel_insert_part
from .errors import EnumerationLimitExceeded, HypothesisViolated, MissingSubcode
from .gf import factor_prime_power, gf, join_rows, split_rows
from .matrices import rref_mask
from .rankcodes import code_words, coset_lists, fdrm_words, gabidulin_mrd
from .registry import BaseBoundRegistry, shipped_registry
from .subspaces import CDC, cdc_from_text, verify_min_distance

# a plan reads no value of more digits than an argv int may have: Python's
# default int-string limit, which the CLI lifts while a command runs
PLAN_MAX_DIGITS = 4300


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
    params = {k: v for k, v in kv.items() if not k.endswith("_file")}
    for key, value in params.items():
        digits = len(value.lstrip("+-"))
        if digits > PLAN_MAX_DIGITS:
            raise HypothesisViolated(f"plan value {key} has {digits:,} digits; "
                                     f"at most {PLAN_MAX_DIGITS:,} are read")
        params[key] = int(value)
    core = {name: params.pop(name) for name in ("q", "n", "d", "k")}
    factor_prime_power(core["q"])  # a q that is not a prime power is refused here
    return ConstructionPlan(family=family, params=params, files=files, **core)


@dataclass
class BuildOutput:
    cdc: Optional[CDC]
    component_counts: Dict[str, int]
    total: int


def _trivial_cdc(q: int, n: int, d: int, k: int) -> CDC:
    """Canonical one-codeword code: the row space of (I_k | 0)."""
    return CDC(q, n, k, d, [rref_mask(gf(q), range(k), n)[1]])


def resolve_subcdc(q: int, n: int, d: int, k: int, file: Optional[str],
                   registry: BaseBoundRegistry, explicit: bool) -> Tuple[Optional[CDC], int]:
    """Resolve a sub-code reference: explicit file, else the canonical
    one-codeword code when the registry proves size 1, else count-only.
    A file's claimed d is not trusted: its words are verified to be at
    distance >= d (a file of fewer than two words is)."""
    if file is not None:
        with open(file, "r", encoding="utf-8") as fh:
            cdc = cdc_from_text(fh)
        if (cdc.q, cdc.n, cdc.k) != (q, n, k) or cdc.d < d:
            raise MissingSubcode(
                f"{file} is a ({cdc.n},{len(cdc)},{cdc.d},{cdc.k})_{cdc.q} code, "
                f"need an ({n},*,{d},{k})_{q} code"
            )
        found = verify_min_distance(cdc).min_found
        if found < d:
            raise MissingSubcode(f"{file} claims d = {cdc.d}, but two of its words are at "
                                 f"distance {found}; need an ({n},*,{d},{k})_{q} code")
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


# -- materializers ------------------------------------------------------------
#
# A materializer maps the resolved parameters p, the sub-codes by slot and
# the part's terms to the words of that part's code.


def _placed(code: CDC, width: int, shift: int = 0) -> List[int]:
    """A sub-code's words re-slotted: rows in `width`-bit slots, moved `shift` bits left."""
    rows = split_rows(code.packed, code.k, code.n * code.field.width)
    return [join_rows(r, width) << shift for r in rows]


def _linkage_words(p, subs, terms) -> Iterator[int]:
    """(U1 | M2) over C1 and the MRD code, then (M1 | U2) over the
    rank-capped MRD code and C2: each U1 is one placed word, ORed onto the
    MRD code's words, placed in the right block."""
    q, n, k, h, n1, n2 = p["q"], p["n"], p["k"], p["h"], p["n1"], p["n2"]
    w = gf(q).width
    shift, width = n2 * w, n * w  # the left block moves past the right's n2 columns
    mrd = gabidulin_mrd(q, k, n2, h)
    for u1 in _placed(subs["C1"], width, shift):
        yield from map(or_, code_words(mrd, width), repeat(u1))
    c2 = _placed(subs["C2"], width)
    m1s = code_words(gabidulin_mrd(q, k, n1, h), width, shift, rank_cap=k - h)
    yield from (m | u for m in m1s for u in c2)


def _block_words(p, s: int, diag1: CDC, diag2: CDC, t1: int, t2: int,
                 cap1: Optional[int], cap2: Optional[int]) -> Iterator[int]:
    """Rows (U1 | M11 | 0 | M12) over (0 | M21 | U2 | M22): U1, U2 from the
    diagonal codes (t1, t2 columns wide), M11 and M22 from the r-th paired
    cosets for r < s, and M12, M21 from MRD codes under the rank caps.
    Each block is placed once, and a word is the OR of its blocks."""
    q, n, h, a1, a2, n1, n2 = p["q"], p["n"], p["h"], p["a1"], p["a2"], p["n1"], p["n2"]
    w = gf(q).width
    width, top = n * w, a2 * n * w  # top: the a1 rows above the a2
    fam1 = coset_lists(q, a1, n1 - t1, p["b1"], h, width, top + n2 * w)
    fam2 = coset_lists(q, a2, n2 - t2, p["b2"], h, width)
    m12s = list(code_words(gabidulin_mrd(q, a1, n2 - t2, h), width, top, rank_cap=cap1))
    m21s = list(code_words(gabidulin_mrd(q, a2, n1 - t1, h), width, n2 * w, rank_cap=cap2))
    us1, us2 = _placed(diag1, width, top + (n - t1) * w), _placed(diag2, width, (n2 - t2) * w)
    for r in range(s):  # the blocks are disjoint, so their sum is their OR
        yield from map(sum, itertools.product(us1, us2, fam1[r], fam2[r], m12s, m21s))


def _blocks_words(p, subs, terms) -> Iterator[int]:
    """The standalone blocks code: identity diagonal blocks, t = a, no cap."""
    q, d, a1, a2 = p["q"], p["d"], p["a1"], p["a2"]
    return _block_words(p, terms["s"], _trivial_cdc(q, a1, d, a1), _trivial_cdc(q, a2, d, a2),
                        a1, a2, None, None)


def _blocks_insert_words(p, subs, terms) -> Iterator[int]:
    """Insert B: diagonal blocks from Q1, Q2, off-diagonal ranks <= a - d/2."""
    h, a1, a2 = p["h"], p["a1"], p["a2"]
    return _block_words(p, terms["s"], subs["Q1"], subs["Q2"], p["t1"], p["t2"],
                        a1 - h, a2 - h)


def _parallel_words(p, subs, terms) -> Iterator[int]:
    """Insert E: rows (M1 | U1 | 0) over (0 | M2 | U2), U1 in D1, U2 in D2,
    with (M1, M2) every pair in the product form, else paired in order."""
    q, n, a1, a2, b1, b2 = p["q"], p["n"], p["a1"], p["a2"], p["b1"], p["b2"]
    t1, t2, n2 = p["t1"], p["t2"], p["n2"]
    w = gf(q).width
    width, top = n * w, a2 * n * w  # top: the a1 rows above the a2
    m1s = sorted(code_words(gabidulin_mrd(q, a1, t1, b1), width, top + (n - t1) * w,
                            rank_cap=p["c1"]))
    m2s = sorted(code_words(gabidulin_mrd(q, a2, t2, b2), width, (n2 - t2) * w, rank_cap=p["c2"]))
    pairs = itertools.product(m1s, m2s) if b1 == b2 == p["h"] else zip(m1s, m2s)
    d1, d2 = _placed(subs["D1"], width, top + n2 * w), _placed(subs["D2"], width)
    yield from (m1 | m2 | u1 | u2 for (m1, m2), u1, u2 in itertools.product(pairs, d1, d2))


def _lifted_words(p, subs, terms) -> Iterator[int]:
    """The lifted FDRM codes, one per special-form vector: shift zeros, v1
    ones, w1 zeros, then v2 ones and w2 zeros.  Each word is the vector's
    identity rows, one constant word, ORed onto the FDRM word
    [[M1, M3], [0, M2]] placed in rows of n entries: M1 moved past the n2
    columns of the second block, M3 and M2 in the last w2 entries.  The
    vectors lie at Hamming distance d or more from each other by the
    family's hypotheses, so the lifted codes combine."""
    q, n, n1, n2, h = p["q"], p["n"], p["n1"], p["n2"], p["h"]
    w = gf(q).width
    for v1, v2, shift, w1, w2, c1, c2 in insert_vectors(p):
        ones = rref_mask(gf(q), [*range(shift, shift + v1), *range(n1, n1 + v2)], n)[1]
        yield from map(or_, fdrm_words(q, v1, v2, w1, w2, h, c1, c2, n * w, (n2 - w2) * w),
                       repeat(ones))


def _named(**terms: str):
    """Components read from the part's terms: name = term key."""
    return lambda found: {name: found[key] for name, key in terms.items()}


def _lifted_components(found: Dict[str, int]) -> Dict[str, int]:
    return {"L_" + key[len("term:L"):]: size for key, size in found.items()
            if key.startswith("term:L")}


# count part -> (materializer, its components from its terms, base name)
_PARTS = {
    linkage_part: (_linkage_words, _named(C1_part="term:C1", C2_part="term:C2"), None),
    blocks_part: (_blocks_words, _named(s="s", per_r="per_r", N="term:N"), None),
    blocks_insert_part: (_blocks_insert_words, _named(
        B="term:B", s="s", Delta_1="Delta_1", Delta_2="Delta_2"), "C"),
    parallel_insert_part: (_parallel_words, _named(E="term:E", M1="Delta_3", M2="Delta_4"),
                           "prior"),
    lifted_inserts_part: (_lifted_words, _lifted_components, "C"),
}


def run_plan(plan: ConstructionPlan, registry: Optional[BaseBoundRegistry] = None,
             explicit: bool = True) -> BuildOutput:
    """Count a plan part by part and, when explicit, build its code.

    The family's hypotheses are checked before any part runs; each part
    resolves its sub-codes before the cutoff check on the running total,
    and no word is built before every part has passed both.
    """
    registry = registry or shipped_registry()
    if explicit:
        gf(plan.q)  # refuses a field with no row encoding before any count
    spec = PLAN_FAMILIES.get(plan.family)
    if spec is None:
        raise HypothesisViolated(f"unknown family {plan.family!r}")
    p = spec.resolve(plan.q, plan.n, plan.d, plan.k, plan.params)
    subs: Dict[str, Optional[CDC]] = {}

    def a(slot: str, n: int, k: int) -> int:
        subs[slot], count = resolve_subcdc(plan.q, n, plan.d, k, plan.files.get(slot),
                                           registry, explicit)
        return count

    total, words = 0, []
    for part in spec.parts:
        materialize, components, base = _PARTS[part]
        size, terms = part(p, a)
        counts = components(terms)
        if base is not None:
            counts[base] = total
        total += size
        if explicit:
            if total > int(os.environ.get("CDCKIT_EXPLICIT_CUTOFF", 10**6)):
                raise EnumerationLimitExceeded(f"{total} codewords exceed the explicit cutoff")
            words.append(materialize(p, subs, terms))  # a generator: nothing is built yet
    if not explicit:
        return BuildOutput(None, counts, total)
    cdc = CDC(plan.q, plan.n, plan.k, plan.d, itertools.chain.from_iterable(words))
    if len(cdc) != total:
        raise AssertionError(f"explicit build produced {len(cdc)} codewords, expected {total}")
    return BuildOutput(cdc, counts, total)

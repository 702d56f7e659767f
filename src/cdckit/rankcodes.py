"""Concrete rank-metric codes.

Gabidulin codes realize every MRD parameter set we need; their cosets
split them into translate classes with two-level distance guarantees, and
`fdrm_words` assembles the Ferrers-diagram rank-metric (FDRM) codes on the
two-block staircase shape that the multilevel inserts lift.  Their sizes
are counted by the family spec in `bounds`, not here.  A generator is the
tuple of its packed rows (`gf.pack_row`); enumeration adds and scales
words, the rows end to end in one int (`gf.join_rows`): a span's words
are sums of the leading generators' multiples plus tabulated words.
Every word leaves here as one int, placed: `code_words`, `coset_lists` and
`fdrm_words` lay its rows in slots of a given width and shift it left, so
that a construction ORs it into a codeword as it is.  Under a rank cap,
`code_words` visits no word of rank above it: it lists the low-rank words
through the subspaces that kill their rows (`_low_rank`), at a cost set
by the cap, not by the code's size.  `enumerate_code` is a `Matrix` view
of `code_words`, for readers of entries."""

from __future__ import annotations

import os
from functools import lru_cache, reduce
from itertools import product, repeat
from operator import and_
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import EnumerationLimitExceeded, InvalidDistance, InvalidDistances
from .gf import GF, field_modulus, gf, join_rows, pack_row, row_codes, split_rows, times_x, \
    x_power
from .matrices import Matrix, rank_added, rref_spaces


def enumeration_limit() -> int:
    return int(os.environ.get("CDCKIT_ENUM_LIMIT", 1 << 24))


class LinearRankCode:
    """A linear rank-metric code given by a GF(q)-basis of a x b generator
    matrices, each the tuple of its packed rows."""

    def __init__(self, q: int, a: int, b: int, d: int, generators: Sequence[Tuple[int, ...]]):
        self.q = q
        self.a = a
        self.b = b
        self.d = d
        self.field = gf(q)
        self.generators = list(generators)
        width = b * self.field.width
        for g in self.generators:
            if len(g) != a or any(v >> width for v in g):
                raise ValueError("generator shape mismatch")
        self.cardinality = q ** len(self.generators)

    def __repr__(self):
        return f"LinearRankCode(q={self.q}, {self.a}x{self.b}, d={self.d}, #={self.cardinality})"


def gabidulin_mrd(q: int, a: int, b: int, d: int) -> LinearRankCode:
    """MRD code of minimum rank distance exactly d in a x b matrices.

    Evaluates the q-polynomials of q-degree <= s - d over GF(q^t), with
    s = min(a,b) and t = max(a,b), on the points 1, x, ..., x^(s-1), where
    GF(q^t) is GF(q)[x] mod f for f = `field_modulus(q, t)`.  The generator
    for q-degree i and coefficient x^l maps point x^j to x^(l + j q^i), so
    its entry at point j and coordinate r is the coefficient of x^r in
    x^(l + j q^i) mod f.  That power is a packed row over GF(q), x^r its
    r-th entry from the right: `x_power` gives the one for l = 0, and each
    next l is one `times_x`.  Points index the columns when a >= b and the
    rows otherwise, so the output shape is a x b.
    """
    if not 1 <= d <= min(a, b):
        raise InvalidDistance(f"need 1 <= d <= min(a,b), got d={d}, a={a}, b={b}")
    s, t = min(a, b), max(a, b)
    field, f = gf(q), field_modulus(q, t)
    gens = []
    for i in range(s - d + 1):  # q-degree of the monomial
        images = [x_power(j * q**i, field, f) for j in range(s)]
        for l in range(t):  # basis coefficient x^l; images[j] is x^(l + j q^i)
            digits = [row_codes(field, v, t)[::-1] for v in images]  # [j][r]
            rows = zip(*digits) if a >= b else digits
            gens.append(tuple(pack_row(field, row) for row in rows))
            if l < t - 1:
                images = [times_x(field, v, f) for v in images]
    return LinearRankCode(q, a, b, d, gens)


_LOW_WORDS = 1 << 10  # at most this many words of the last generators' span are tabulated


def span_iter(field: GF, gens: Sequence[int]) -> Iterator[int]:
    """Each GF(q)-combination of the words `gens`, in coefficient-counter
    order (deterministic): the first generator's coefficient changes
    slowest, each running through the element codes 0, ..., q - 1.  The
    last generators' span is tabulated in that order; each combination of
    the others' multiples is summed once, then added to every word of it."""
    q, add, scale = field.q, field.row_add, field.row_scale
    split, low = len(gens), [0]
    while split and len(low) * q <= _LOW_WORDS:
        split -= 1
        low += [add(m, v) for m in [scale(gens[split], c) for c in range(1, q)] for v in low]
    for high in product(*([scale(g, c) for c in range(q)] for g in gens[:split])):
        yield from map(add, repeat(reduce(add, high, 0)), low)


def code_words(code: LinearRankCode, width: Optional[int] = None, shift: int = 0,
               rank_cap: Optional[int] = None, streaming: bool = False) -> Iterator[int]:
    """Each word of the code as one int, in `span_iter`'s order: its rows
    end to end in slots of `width` bits (b entries), the word moved left by
    `shift` bits, so that it lies in its rows and columns of a larger word.
    With `rank_cap` below min(a, b), only the words of rank <= cap, listed
    through their left kernels (`_low_rank`).  The enumeration limit applies
    to the code's size unless `streaming`."""
    if not streaming and code.cardinality > enumeration_limit():
        raise EnumerationLimitExceeded(f"{code.cardinality} codewords exceed the "
                                       f"{enumeration_limit()} limit")
    f, a = code.field, code.a
    width = code.b * f.width if width is None else width
    # only the generators are placed: row arithmetic acts on whole words
    placed = [join_rows(g, width) << shift for g in code.generators]
    if rank_cap is None or rank_cap >= min(a, code.b):
        return span_iter(f, placed)
    return _low_rank(code, placed, shift + a * width, rank_cap)


def _low_rank(code: LinearRankCode, placed: List[int], top: int, cap: int) -> Iterator[int]:
    """The words of rank <= cap < min(a, b) in the span of the placed
    generators g_l, each below 2^top, in span order.  A word has rank <= cap
    iff some (a - cap)-dimensional K in GF(q)^a kills its rows.  For each K,
    in RREF (`matrices.rref_spaces`), one elimination of the rows [K g_l |
    e_l | g_l], e_l the l-th unit coefficient vector, first generator
    highest, leaves the rows with no K g part as a basis of the words K
    kills.  The union of their spans, sorted by coefficients, is in span
    order.  The cost is [a cap]_q eliminations whatever the code's size:
    below its q^G words at every cap the families pass, but 200,787 for the
    256 words of an 8 x 8 code at d = 8 and cap 4."""
    f, a, w, own = code.field, code.a, code.field.width, code.b * code.field.width
    m, count = a - cap, len(placed)
    rows = [1 << (count - 1 - l) * w + top | g for l, g in enumerate(placed)]
    high = top + count * w  # K g lies above the coefficients

    @lru_cache(maxsize=None)
    def image(p: int, row: int) -> List[int]:
        """K's row p times each generator, moved to its slot of K g."""
        codes = row_codes(f, row, a)
        return [reduce(f.row_add, map(f.row_scale, g, codes)) << (m - 1 - p) * own + high
                for g in code.generators]

    kept = set()
    for kernel in rref_spaces(f, a, m, range((a - 1) * w, -1, -w)):
        basis = [0] * (high // w + m * code.b + 1)
        rank_added(f, basis, map(sum, zip(rows, *map(image, range(m), kernel))))
        kept.update(span_iter(f, [v for v in basis[:high // w + 1] if v]))
    return map(and_, sorted(kept), repeat((1 << top) - 1))


def enumerate_code(code: LinearRankCode, rank_cap: Optional[int] = None,
                   streaming: bool = False) -> Iterator[Matrix]:
    """`code_words`'s words, in its order, as `Matrix` views."""
    words = code_words(code, rank_cap=rank_cap, streaming=streaming)
    return map(Matrix.from_packed, repeat(code.field), repeat(code.b),
               split_rows(words, code.a, code.b * code.field.width))


def coset_lists(q: int, a: int, b: int, d_m: int, d_s: int, width: Optional[int] = None,
                shift: int = 0) -> List[List[int]]:
    """The cosets of the (q,a,b,d_s) Gabidulin subcode in the (q,a,b,d_m)
    Gabidulin code, each as its members sorted, ordered by their least
    members.  Members are placed as `code_words` places them.

    Within a coset distinct members differ by rank >= d_s, across cosets by
    rank >= d_m; d_m = d_s gives the one coset, the code itself.
    """
    if not 1 <= d_m <= d_s <= min(a, b):
        raise InvalidDistances(f"need d_m <= d_s <= min(a,b), got {d_m}, {d_s}")
    ambient = gabidulin_mrd(q, a, b, d_m)
    if ambient.cardinality > enumeration_limit():
        raise EnumerationLimitExceeded("coset family too large to materialize")
    # generators are ordered by q-degree, so the subcode's basis is a prefix
    n_sub = max(a, b) * (min(a, b) - d_s + 1)
    f, width = ambient.field, b * ambient.field.width if width is None else width
    gens = [join_rows(g, width) << shift for g in ambient.generators]
    sub = list(span_iter(f, gens[:n_sub]))
    # placed words sort as their rows do; cosets are disjoint, so their least members decide
    return sorted(sorted(map(f.row_add, repeat(rep), sub)) for rep in span_iter(f, gens[n_sub:]))


def fdrm_words(q: int, u1: int, u2: int, w1: int, w2: int, d_f: int, c1: int, c2: int,
               width: Optional[int] = None, gap: int = 0) -> Iterator[int]:
    """The words [[M1, M3], [0, M2]] of the FDRM code with minimum rank
    distance d_f on the two-block staircase shape, each one int: M1 is u1 x
    w1, M3 is u1 x w2 of rank <= u1 - d_f, and M2 is u2 x w2.  Rows lie in
    slots of `width` bits (w1 + w2 entries), M3 and M2 in their last w2
    entries and M1 `gap` bits left of them.

    The width w1 of M1 picks the branch, as in the count of `bounds._lifted`:
    w1 < c1 leaves M1 zero and M2 runs through an MRD code; w1 < d_f pairs
    the distance-c1 and distance-c2 MRD codes for M1 and M2 member by member;
    otherwise M1 and M2 run through paired cosets of their distance-d_f
    subcodes in the distance-c1 and distance-c2 codes.  The shape's
    hypotheses are the family's, checked before any count.
    """
    e = gf(q).width
    width = (w1 + w2) * e if width is None else width
    upper, left = u2 * width, u2 * width + w2 * e + gap  # M3's shift, and M1's
    if w1 < c1:
        groups = [([0], coset_lists(q, u2, w2, d_f, d_f, width)[0])]
    elif w1 < d_f:
        pairs = zip(coset_lists(q, u1, w1, c1, c1, width, left)[0],
                    coset_lists(q, u2, w2, c2, c2, width)[0])
        groups = [([m1], [m2]) for m1, m2 in pairs]
    else:
        groups = list(zip(coset_lists(q, u1, w1, c1, d_f, width, left),
                          coset_lists(q, u2, w2, c2, d_f, width)))
    m3s = list(code_words(gabidulin_mrd(q, u1, w2, d_f), width, upper, rank_cap=u1 - d_f))
    for m1s, m2s in groups:
        for m1 in m1s:
            uppers = [m1 | m3 for m3 in m3s]
            yield from (upper | m2 for m2 in m2s for upper in uppers)

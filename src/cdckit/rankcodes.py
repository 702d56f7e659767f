"""Concrete rank-metric codes.

Gabidulin codes realize every MRD parameter set we need; coset families
split them into translate classes with two-level distance guarantees, and
the Ferrers-diagram unions assemble block codes supported on the two-block
staircase shape used by the multilevel inserts.
"""

from __future__ import annotations

import os
from operator import xor
from typing import Iterator, List, Optional, Sequence, Tuple

from .counting import bounded_rank_size, mrd_size
from .errors import (
    EnumerationLimitExceeded,
    InvalidDistance,
    InvalidDistances,
    InvalidParameters,
)
from .gf import ExtField, GF, gf
from .matrices import Matrix, hstack, mat_add, mat_rank, pack_rows_gf2, vstack


def enumeration_limit() -> int:
    return int(os.environ.get("CDCKIT_ENUM_LIMIT", 1 << 24))


class LinearRankCode:
    """A linear rank-metric code given by a GF(q)-basis of generator matrices."""

    def __init__(self, q: int, a: int, b: int, d: int, generators: Sequence[Matrix]):
        self.q = q
        self.a = a
        self.b = b
        self.d = d
        self.field = gf(q)
        self.generators = list(generators)
        for g in self.generators:
            if (g.nrows, g.ncols) != (a, b):
                raise ValueError("generator shape mismatch")
        self.cardinality = q ** len(self.generators)

    def __repr__(self):
        return f"LinearRankCode(q={self.q}, {self.a}x{self.b}, d={self.d}, #={self.cardinality})"


def gabidulin_mrd(q: int, a: int, b: int, d: int) -> LinearRankCode:
    """MRD code of minimum rank distance exactly d in a x b matrices.

    Evaluates q-polynomials of q-degree <= min(a,b) - d over GF(q^max(a,b))
    on the points 1, x, x^2, ..., expands coordinates over GF(q), and
    transposes when a <= b so the output shape is a x b.
    """
    if not 1 <= d <= min(a, b):
        raise InvalidDistance(f"need 1 <= d <= min(a,b), got d={d}, a={a}, b={b}")
    s, t = min(a, b), max(a, b)
    ext = ExtField(gf(q), t)
    points = [ext.pow(q if t > 1 else 1, j) for j in range(s)]
    gens = []
    for i in range(s - d + 1):  # q-degree of the monomial
        qi = q**i
        for l in range(t):  # basis coefficient beta = x^l
            beta = ext.pow(q if t > 1 else 1, l)
            cols = [ext.expand(ext.mul(beta, ext.pow(p, qi))) for p in points]
            entries = [cols[j][r] for r in range(t) for j in range(s)]
            mat = Matrix(gf(q), t, s, entries)
            gens.append(mat if a >= b else mat.transpose())
    return LinearRankCode(q, a, b, d, gens)


def _span_iter(field: GF, generators: Sequence[Matrix], shape: Tuple[int, int]) -> Iterator[Matrix]:
    """All GF(q)-combinations in coefficient-counter order (deterministic):
    the first generator's coefficient changes slowest."""
    a, b = shape
    if field.q == 2:
        yield from _span_gf2([pack_rows_gf2(g) for g in generators], a, b)
        return
    zero = Matrix.zero(field, a, b)
    if not generators:
        yield zero
        return
    scaled = [[None] * field.q for _ in generators]
    for gi, g in enumerate(generators):
        for c in field.elements():
            scaled[gi][c] = Matrix(field, a, b, tuple(field.mul(c, e) for e in g.entries))

    def rec(i: int, acc: Matrix) -> Iterator[Matrix]:
        if i == len(generators):
            yield acc
            return
        for c in field.elements():
            yield from rec(i + 1, acc if c == 0 else mat_add(acc, scaled[i][c]))

    yield from rec(0, zero)


_LOW_GENERATORS = 10  # the last generators, whose span _span_gf2 tabulates


def _span_gf2(gens: List[Tuple[int, ...]], a: int, b: int) -> Iterator[Matrix]:
    """`_span_iter` over GF(2): each word XORs packed generator rows.

    The span of the last generators is tabulated in counter order.  For the
    others, counting up flips the coefficients of the trailing run of
    generators that carries, so `flips[t]` XORs the last t + 1 of them.
    """
    split = max(0, len(gens) - _LOW_GENERATORS)
    low = [(0,) * a]
    for g in reversed(gens[split:]):
        low += [tuple(map(xor, g, v)) for v in low]
    flips, acc = [], (0,) * a
    for g in reversed(gens[:split]):
        acc = tuple(map(xor, acc, g))
        flips.append(acc)
    base = (0,) * a
    for high in range(1 << split):
        if high:
            base = tuple(map(xor, base, flips[(high & -high).bit_length() - 1]))
        for v in low:
            yield Matrix.from_packed(b, tuple(map(xor, base, v)))


def enumerate_code(
    code: LinearRankCode,
    rank_cap: Optional[int] = None,
    streaming: bool = False,
) -> Iterator[Matrix]:
    """Yield each codeword once; with rank_cap keep only ranks <= cap."""
    if not streaming and code.cardinality > enumeration_limit():
        raise EnumerationLimitExceeded(
            f"{code.cardinality} codewords exceed the {enumeration_limit()} limit"
        )
    for m in _span_iter(code.field, code.generators, (code.a, code.b)):
        if rank_cap is None or mat_rank(m) <= rank_cap:
            yield m


class CosetFamily:
    """Translates of a distance-d_s subcode inside a distance-d_m code.

    Within one coset distinct members differ by rank >= d_s; across cosets
    by rank >= d_m.  Cosets are ordered by their lexicographically smallest
    member, which also serves as the stored representative.
    """

    def __init__(self, ambient: LinearRankCode, subcode: LinearRankCode,
                 extra_generators: Sequence[Matrix]):
        self.ambient = ambient
        self.subcode = subcode
        self.extra_generators = list(extra_generators)
        self.s = ambient.q ** len(self.extra_generators)
        self._materialized: Optional[List[Tuple[Matrix, List[Matrix]]]] = None

    def materialize(self) -> List[Tuple[Matrix, List[Matrix]]]:
        """(leader, members) per coset, sorted by leader entries."""
        if self._materialized is not None:
            return self._materialized
        if self.ambient.cardinality > enumeration_limit():
            raise EnumerationLimitExceeded("coset family too large to materialize")
        sub = list(enumerate_code(self.subcode))
        cosets = []
        shape = (self.ambient.a, self.ambient.b)
        for rep in _span_iter(self.ambient.field, self.extra_generators, shape):
            members = [mat_add(rep, m) for m in sub]
            members.sort(key=Matrix.key)
            cosets.append((members[0], members))
        cosets.sort(key=lambda lm: lm[0].key())
        self._materialized = cosets
        return cosets


def subcode_cosets(q: int, a: int, b: int, d_m: int, d_s: int) -> CosetFamily:
    """Split the (q,a,b,d_m) Gabidulin code into cosets of its (q,a,b,d_s)
    subcode (shared construction, fewer q-polynomial coefficients)."""
    if not (1 <= d_m < d_s <= min(a, b)):
        raise InvalidDistances(f"need d_m < d_s <= min(a,b), got {d_m}, {d_s}")
    ambient = gabidulin_mrd(q, a, b, d_m)
    subcode = gabidulin_mrd(q, a, b, d_s)
    t = max(a, b)
    n_sub = t * (min(a, b) - d_s + 1)
    # generator list is ordered by q-degree, so the subcode basis is a prefix
    extras = ambient.generators[n_sub:]
    fam = CosetFamily(ambient, subcode, extras)
    assert fam.s == mrd_size(q, a, b, d_m) // mrd_size(q, a, b, d_s)
    return fam


class FerrersShape:
    """Two-block staircase Ferrers shape with blocks F1, F2, F3.

    F1 is u1 x (delta1 - Delta - u1), F2 is u2 x (delta2 - u2) and F3 is
    u1 x (delta2 - u2); F3 sits above F2, F1 to its left.
    """

    def __init__(self, delta1: int, delta2: int, u1: int, u2: int, Delta: int, d_f: int):
        if u1 < d_f or u2 < d_f:
            raise InvalidParameters("need u1 >= d_f and u2 >= d_f")
        if delta1 < Delta + u1:
            raise InvalidParameters("need delta1 >= Delta + u1")
        if delta2 < u2 + d_f:
            raise InvalidParameters("need delta2 >= u2 + d_f")
        if min(delta1, delta2, u1, u2, Delta, d_f) < 0:
            raise InvalidParameters("shape parameters must be nonnegative")
        self.delta1 = delta1
        self.delta2 = delta2
        self.u1 = u1
        self.u2 = u2
        self.Delta = Delta
        self.d_f = d_f
        self.w1 = delta1 - Delta - u1
        self.w2 = delta2 - u2
        self.k = u1 + u2
        self.width = self.w1 + self.w2

    def __repr__(self):
        return (
            f"FerrersShape(d1={self.delta1}, d2={self.delta2}, u1={self.u1}, "
            f"u2={self.u2}, Delta={self.Delta}, d_f={self.d_f})"
        )


class FdrmCode:
    """A (possibly non-linear) FDRM code on a FerrersShape: exact count plus
    a deterministic streaming enumeration of its members."""

    def __init__(self, shape: FerrersShape, case: int, count: int, iterator_factory):
        self.shape = shape
        self.case = case
        self.count = count
        self._factory = iterator_factory

    def __iter__(self) -> Iterator[Matrix]:
        return self._factory()


def _uppers(shape: FerrersShape, field: GF, m1: Optional[Matrix],
            m3s: List[Matrix]) -> List[Matrix]:
    """The upper rows [M1, M3] of the block matrices, one per M3; no M1
    leaves its columns zero."""
    left = m1 if m1 is not None else Matrix.zero(field, shape.u1, shape.w1)
    return [hstack(left, m3) for m3 in m3s]


def _assemble(shape: FerrersShape, field: GF, uppers: List[Matrix],
              m2: Matrix) -> Iterator[Matrix]:
    """k x (w1 + w2) matrices [[M1, M3], [0, M2]] on the Ferrers support,
    one per upper block [M1, M3]."""
    lower = hstack(Matrix.zero(field, shape.u2, shape.w1), m2)
    for upper in uppers:
        yield vstack(upper, lower)


def _sorted_members(code: LinearRankCode) -> List[Matrix]:
    members = list(enumerate_code(code))
    members.sort(key=Matrix.key)
    return members


def _lam3(q: int, shape: FerrersShape, rank3_cap: Optional[int]) -> int:
    if rank3_cap is None:
        return mrd_size(q, shape.u1, shape.w2, shape.d_f)
    return bounded_rank_size(q, shape.u1, shape.w2, shape.d_f, rank3_cap)


def _m3_list(q: int, shape: FerrersShape, rank3_cap: Optional[int]) -> List[Matrix]:
    code = gabidulin_mrd(q, shape.u1, shape.w2, shape.d_f)
    return list(enumerate_code(code, rank_cap=rank3_cap))


def fdrm_union(q: int, shape: FerrersShape, b1: int, b2: int,
               rank3_cap: Optional[int] = None) -> FdrmCode:
    """FDRM code on `shape` with minimum rank distance d_f.

    The case follows from where w1 = delta1 - Delta - u1 falls against b1
    and d_f; inside cases 1 and 3 the construction pins b2 (resp. b1 and
    b2) to d_f, so the passed values only steer case 2.
    """
    d_f = shape.d_f
    if not (1 <= b1 <= d_f and 1 <= b2 <= d_f and b1 + b2 >= d_f):
        raise InvalidParameters("need 1 <= b_i <= d_f and b1 + b2 >= d_f")
    w1 = shape.w1
    case = 1 if w1 < b1 else (2 if w1 < d_f else 3)
    field = gf(q)
    lam3 = _lam3(q, shape, rank3_cap)

    if case == 1:
        count = mrd_size(q, shape.u2, shape.w2, d_f) * lam3

        def factory() -> Iterator[Matrix]:
            m3s = _m3_list(q, shape, rank3_cap)
            m2code = gabidulin_mrd(q, shape.u2, shape.w2, d_f)
            uppers = _uppers(shape, field, None, m3s)
            for m2 in enumerate_code(m2code):
                yield from _assemble(shape, field, uppers, m2)

        return FdrmCode(shape, 1, count, factory)

    if case == 2:
        n1 = mrd_size(q, shape.u1, w1, b1)
        n2 = mrd_size(q, shape.u2, shape.w2, b2)
        count = min(n1, n2) * lam3

        def factory() -> Iterator[Matrix]:
            h1 = _sorted_members(gabidulin_mrd(q, shape.u1, w1, b1))
            h2 = _sorted_members(gabidulin_mrd(q, shape.u2, shape.w2, b2))
            m3s = _m3_list(q, shape, rank3_cap)
            for m1, m2 in zip(h1, h2):
                yield from _assemble(shape, field, _uppers(shape, field, m1, m3s), m2)

        return FdrmCode(shape, 2, count, factory)

    count = (
        mrd_size(q, shape.u1, w1, d_f)
        * mrd_size(q, shape.u2, shape.w2, d_f)
        * lam3
    )

    def factory() -> Iterator[Matrix]:
        m1code = gabidulin_mrd(q, shape.u1, w1, d_f)
        m2s = list(enumerate_code(gabidulin_mrd(q, shape.u2, shape.w2, d_f)))
        m3s = _m3_list(q, shape, rank3_cap)
        for m1 in enumerate_code(m1code):
            uppers = _uppers(shape, field, m1, m3s)
            for m2 in m2s:
                yield from _assemble(shape, field, uppers, m2)

    return FdrmCode(shape, 3, count, factory)


def fdrm_subcode_union(q: int, shape: FerrersShape, c1: int, c2: int,
                       rank3_cap: Optional[int] = None) -> FdrmCode:
    """Coset-enlarged FDRM code (requires w1 >= d_f): a union of s block
    codes whose diagonal blocks run through paired coset families."""
    d_f = shape.d_f
    if shape.w1 < d_f:
        raise InvalidParameters("need delta1 >= Delta + u1 + d_f")
    if not (1 <= c1 <= d_f and 1 <= c2 <= d_f and c1 + c2 >= d_f):
        raise InvalidParameters("need 1 <= c_i <= d_f and c1 + c2 >= d_f")
    field = gf(q)
    lam1 = mrd_size(q, shape.u1, shape.w1, d_f)
    lam2 = mrd_size(q, shape.u2, shape.w2, d_f)
    lam3 = _lam3(q, shape, rank3_cap)
    r1 = mrd_size(q, shape.u1, shape.w1, c1) // lam1
    r2 = mrd_size(q, shape.u2, shape.w2, c2) // lam2
    assert r1 * lam1 == mrd_size(q, shape.u1, shape.w1, c1)
    assert r2 * lam2 == mrd_size(q, shape.u2, shape.w2, c2)
    s = min(r1, r2)
    count = s * lam1 * lam2 * lam3

    def cosets(u: int, w: int, c: int) -> List[List[Matrix]]:
        if c == d_f:
            return [_sorted_members(gabidulin_mrd(q, u, w, d_f))]
        fam = subcode_cosets(q, u, w, c, d_f)
        return [members for _, members in fam.materialize()]

    def factory() -> Iterator[Matrix]:
        fam1 = cosets(shape.u1, shape.w1, c1)
        fam2 = cosets(shape.u2, shape.w2, c2)
        m3s = _m3_list(q, shape, rank3_cap)
        for j in range(s):
            for m1 in fam1[j]:
                uppers = _uppers(shape, field, m1, m3s)
                for m2 in fam2[j]:
                    yield from _assemble(shape, field, uppers, m2)

    return FdrmCode(shape, 3, count, factory)


# -- rank-metric code file format -------------------------------------------


def rmc_to_text(code: LinearRankCode) -> str:
    lines = [f"RMC {code.q} {code.a} {code.b} {code.d} {code.cardinality}"]
    for g in code.generators:
        lines.append("")
        for i in range(g.nrows):
            lines.append(" ".join(str(x) for x in g.row(i)))
    return "\n".join(lines) + "\n"


def rmc_from_text(text: str) -> LinearRankCode:
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "RMC":
        raise ValueError("not an RMC file")
    q, a, b, d, card = (int(x) for x in head[1:6])
    rows: List[List[int]] = []
    gens: List[Matrix] = []
    field = gf(q)
    for ln in lines[1:] + [""]:
        if ln.strip():
            rows.append([int(t) for t in ln.split()])
            if len(rows) == a:
                gens.append(Matrix.from_rows(field, rows))
                rows = []
        elif rows:
            raise ValueError("truncated generator block")
    code = LinearRankCode(q, a, b, d, gens)
    if code.cardinality != card:
        raise ValueError("cardinality header does not match generator count")
    return code

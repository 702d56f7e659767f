"""Elimination over GF(q) on packed rows, and the `Matrix` view.

Every operation works on packed rows, `gf`'s encoding: the field's
`row_add` adds rows (XOR in characteristic 2), `row_scale` scales a row by
one `translate`, and the bit length finds a row's pivot.  Rows of equal
width compare as ints exactly as their entry tuples do.  `rank_added`
and `rref` take bare packed rows.  `rref_mask` tests a word, rows end to
end, for RREF on given pivots.  It and `rref` decide a codeword's pivots,
in `subspaces._canonical`, where every word enters a code.
`rref_spaces` lists the subspaces of one dimension by their RREF rows.

A `Matrix` is a view of packed rows with their column count: its `nrows`,
`entries` and `rows()` are decoded from the rows on each read.  One is made
only where a caller reads entries: the words `rankcodes.enumerate_code`
yields, `mat_rref`'s result, and the `Subspace.mat` view.  The public
constructor packs and checks every entry; `from_packed` trusts its rows.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import lshift
from typing import Iterable, Iterator, List, Sequence, Tuple

from .gf import GF, join_rows, pack_row, row_codes


class Matrix:
    __slots__ = ("field", "ncols", "packed")

    def __init__(self, field: GF, nrows: int, ncols: int, entries: Sequence[int]):
        entries = [int(e) for e in entries]
        if len(entries) != nrows * ncols:
            raise ValueError(f"need {nrows * ncols} entries, got {len(entries)}")
        self.field, self.ncols = field, ncols
        self.packed = tuple(pack_row(field, entries[i * ncols : (i + 1) * ncols])
                            for i in range(nrows))

    @classmethod
    def from_packed(cls, field: GF, ncols: int, rows: Sequence[int]) -> "Matrix":
        """Matrix with the given packed rows, each trusted to hold ncols
        encoded entries of `field`."""
        m = cls.__new__(cls)
        m.field, m.ncols, m.packed = field, ncols, tuple(rows)
        return m

    @property
    def nrows(self) -> int:
        return len(self.packed)

    @property
    def entries(self) -> Tuple[int, ...]:
        return tuple(x for row in self.rows() for x in row)

    def rows(self) -> List[Tuple[int, ...]]:
        return [row_codes(self.field, v, self.ncols) for v in self.packed]

    def __repr__(self):
        return f"Matrix(GF({self.field.q}), {self.nrows}x{self.ncols})"


def rank_added(f: GF, basis: List[int], rows: Iterable[int], stop: int = -1) -> int:
    """How many of the packed `rows` lie outside the span of `basis`, where
    `basis[b]` is the basis row whose leading entry, a 1, sits in the b-th
    entry from the right, or 0; the rows that do are added to `basis`,
    scaled to a leading 1.  On a fresh basis of ncols + 1 zeros, the rank.
    With `stop` > 0, returns `stop` as soon as that many rows are added."""
    r = 0
    if f.q == 2:  # leading entries are 1 and XOR adds: 1.6 times faster on GF(2) pairs
        for v in rows:
            while v:
                b = v.bit_length()
                u = basis[b]
                if u:
                    v ^= u
                else:
                    basis[b] = v
                    r += 1
                    break
            if r == stop:
                break
        return r
    w, dec, negs, invs, add, scale = f.width, f.dec, f.negs, f.invs, f.row_add, f.row_scale
    for v in rows:
        while v:
            b = (v.bit_length() + w - 1) // w
            lead = dec[v >> (b - 1) * w]
            u = basis[b]
            if u:
                v = add(v, scale(u, negs[lead]))
            else:
                basis[b] = scale(v, invs[lead])
                r += 1
                break
        if r == stop:
            break
    return r


def rref(f: GF, rows: Iterable[int], ncols: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form of packed rows of
    ncols entries, and their pivot columns."""
    basis = [0] * (ncols + 1)
    rank_added(f, basis, rows)
    w, dec, negs = f.width, f.dec, f.negs
    mask = (1 << w) - 1
    reduced: List[Tuple[int, int]] = []  # (leading entry's place from the right, row)
    for b, v in enumerate(basis):  # rightmost pivot first; clear the pivots right of it
        if v:
            for c, u in reduced:
                x = v >> (c - 1) * w & mask
                if x:
                    v = f.row_add(v, f.row_scale(u, negs[dec[x]]))
            reduced.append((b, v))
    reduced.reverse()
    # from lists, not generators: a tuple of unknown length is made long and
    # shrunk, and the shrunk ones, once freed, pile up unused on a free list
    return tuple([v for _, v in reduced]), tuple([ncols - b for b, _ in reduced])


def mat_rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form, padded with zero rows to m's, and its pivot columns."""
    rows, pivots = rref(m.field, m.packed, m.ncols)
    return Matrix.from_packed(m.field, m.ncols, rows + (0,) * (m.nrows - len(rows))), pivots


def rref_mask(f: GF, pivots: Sequence[int], ncols: int) -> Tuple[int, int]:
    """(mask, ones) such that rows of ncols entries laid end to end
    (`gf.join_rows`) are in RREF with these pivot columns iff their word &
    mask == ones: the mask covers each row's entries left of its pivot and
    every row's entries in the pivot columns, where an RREF shows only the
    leading 1s."""
    w, width = f.width, ncols * f.width
    pivot_bits = sum(((1 << w) - 1) << (ncols - 1 - c) * w for c in pivots)
    mask = join_rows([(1 << width) - (1 << (ncols - c) * w) | pivot_bits for c in pivots], width)
    return mask, join_rows([1 << (ncols - 1 - c) * w for c in pivots], width)


def rref_spaces(f: GF, k: int, r: int, places: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """The [k r]_q r-dimensional subspaces of GF(q)^k, each as the tuple of
    its RREF rows: for pivot columns c_1 < ... < c_r, row p has a 1 in
    column c_p and any entries right of it off the pivots.  A row is one
    int, the entry of column j at `places[j]` bits."""
    for pivots in combinations(range(k), r):
        each = []
        for c in pivots:
            free = [places[j] for j in range(c + 1, k) if j not in pivots]
            each.append([sum(map(lshift, e, free), 1 << places[c])  # the encoded 1 is 1
                         for e in product(f.enc, repeat=len(free))])
        yield from product(*each)


def mat_rank(m: Matrix) -> int:
    return rank_added(m.field, [0] * (m.ncols + 1), m.packed)

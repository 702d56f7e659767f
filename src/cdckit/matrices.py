"""Elimination over GF(q) on packed rows, and the `Matrix` view.

Every operation works on packed rows, `gf`'s encoding: the field's
`row_add` adds rows (XOR in characteristic 2), `row_scale` scales a row by
one `translate`, and the bit length finds a row's pivot.  Rows of equal
width compare as ints exactly as their entry tuples do.  `rank_added`,
`rref` and `rref_pivots` take bare packed rows, and calls of `rref_pivots`
share what the bit lengths fix; `subspaces.codeword` reduces through `rref`.

A `Matrix` is a view of packed rows with their column count: its `nrows`,
`entries` and `rows()` are decoded from the rows on each read.  One is made
only where a caller reads entries: the words `rankcodes.enumerate_code`
yields, `mat_rref`'s result, and the `Subspace.mat` view.  The public
constructor packs and checks every entry; `from_packed` trusts its rows.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .gf import GF, pack_row, row_codes


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
    return tuple(v for _, v in reduced), tuple(ncols - b for b, _ in reduced)


def mat_rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form, padded with zero rows to m's, and its pivot columns."""
    rows, pivots = rref(m.field, m.packed, m.ncols)
    return Matrix.from_packed(m.field, m.ncols, rows + (0,) * (m.nrows - len(rows))), pivots


def _rref_shape(f: GF, lengths: Sequence[int], ncols: int):
    """For rows of these bit lengths, their pivot columns, the mask of the
    entries in those columns and the leading 1s that an RREF's rows sum to
    under it; None unless the leading entries strictly move right.  Each row
    meets the pivot columns in at least its own leading entry, so the sums
    agree only if each meets them in a leading 1 alone."""
    w = f.width
    prev, pivot_bits, ones = ncols + 1, 0, 0
    for length in lengths:
        b = (length + w - 1) // w
        if not 0 < b < prev:
            return None
        prev, one = b, 1 << (b - 1) * w
        pivot_bits, ones = pivot_bits | one * ((1 << w) - 1), ones | one
    return tuple(ncols - (length + w - 1) // w for length in lengths), pivot_bits, ones


def rref_pivots(f: GF, rows: Sequence[int], ncols: int,
                shapes: dict) -> Optional[Tuple[int, ...]]:
    """The pivot columns of the packed rows if they are in RREF with no zero
    row, else None.  `shapes` keeps each `_rref_shape` of rows of this field
    and width, so that rows whose bit lengths repeat cost one masked sum,
    and share one pivot tuple."""
    lengths = tuple(map(int.bit_length, rows))
    if lengths not in shapes:
        shapes[lengths] = _rref_shape(f, lengths, ncols)
    shape = shapes[lengths]
    return shape[0] if shape and sum(v & shape[1] for v in rows) == shape[2] else None


def mat_rank(m: Matrix) -> int:
    return rank_added(m.field, [0] * (m.ncols + 1), m.packed)

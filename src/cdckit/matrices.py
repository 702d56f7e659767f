"""Dense matrices over GF(q): packed rows, RREF and rank.

A row over GF(q) is packed into one int: each entry takes a fixed field of
`field.width` bits, column 0 in the highest bits (the encoding is `gf`'s).
Rows of equal width compare as ints exactly as their entry tuples do.
Every operation works on those ints: the field's `row_add` adds rows (XOR
in characteristic 2), `row_scale` scales a row by one `translate`, and the
bit length finds a row's pivot.  `rank_added` and `rref_pivots` take bare
packed rows, and calls of `rref_pivots` share what the bit lengths fix.
`pack_row` packs element codes and checks each one; the CDC parser, the
Gabidulin generators and the `Matrix` constructor use it.

A `Matrix` wraps packed rows with their shape, and decodes its entry tuple
only when a caller reads `entries`.  One is made only where entries are
read or a matrix is the result: the words `rankcodes.enumerate_code`
yields, `mat_rref`'s result (through which `subspaces.codeword` reduces
rows given without pivots), and the `Subspace.mat` view.  The public
constructor checks every entry; `from_packed` trusts its rows.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .gf import GF


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "packed", "entries")

    def __init__(self, field: GF, nrows: int, ncols: int, entries: Sequence[int]):
        entries = tuple(int(e) for e in entries)
        if len(entries) != nrows * ncols:
            raise ValueError(f"need {nrows * ncols} entries, got {len(entries)}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries
        self.packed = tuple(pack_row(field, entries[i * ncols : (i + 1) * ncols])
                            for i in range(nrows))

    @classmethod
    def from_packed(cls, field: GF, ncols: int, rows: Sequence[int]) -> "Matrix":
        """Matrix with the given packed rows, each trusted to hold ncols
        encoded entries of `field`."""
        m = cls.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = ncols
        m.packed = tuple(rows)
        return m

    def __getattr__(self, name: str):
        # reached only for an unset slot: the entries of a matrix built by
        # `from_packed`, read for the first time
        if name != "entries":
            raise AttributeError(name)
        self.entries = tuple(x for v in self.packed for x in row_codes(self.field, v, self.ncols))
        return self.entries

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def rows(self) -> List[Tuple[int, ...]]:
        return [self.row(i) for i in range(self.nrows)]

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.ncols + c]

    def __repr__(self):
        return f"Matrix(GF({self.field.q}), {self.nrows}x{self.ncols})"


def pack_row(field: GF, codes: Sequence[int]) -> int:
    """The packed row of the element codes `codes`, each checked to lie in
    [0, q)."""
    q, w, enc, v = field.q, field.width, field.enc, 0
    for x in codes:
        if not 0 <= x < q:
            raise ValueError(f"entry {x} outside GF({q})")
        v = v << w | enc[x]
    return v


def row_codes(field: GF, row: int, ncols: int) -> Tuple[int, ...]:
    """The element codes of the ncols entries of a packed row."""
    w, dec = field.width, field.dec
    mask = (1 << w) - 1
    return tuple(dec[row >> s & mask] for s in range((ncols - 1) * w, -1, -w))


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


def mat_rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    f, ncols = m.field, m.ncols
    basis = [0] * (ncols + 1)
    rank_added(f, basis, m.packed)
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
    rows = tuple(v for _, v in reduced) + (0,) * (m.nrows - len(reduced))
    return Matrix.from_packed(f, ncols, rows), tuple(ncols - b for b, _ in reduced)


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

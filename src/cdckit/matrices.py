"""Dense matrices over GF(q): RREF and rank.

Matrices are immutable and row-major, and keep their rows packed: one int
per row, each entry in a fixed field of `field.width` bits, column 0 in the
highest bits (the encoding is `gf`'s).  Every operation works on those
ints: the field's `row_add` adds rows (XOR in characteristic 2),
`row_scale` scales a row by one `translate`, and the bit length finds a
row's pivot.  Blocks are joined side by side by shift-or on the rows
themselves, where the constructions assemble their codewords.  Rows of equal width compare as ints
exactly as their entry tuples do.  The entry tuple is decoded only when a
caller reads `entries`.  The public constructor checks every entry;
`from_packed` trusts rows derived from checked matrices.
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
        for e in entries:
            if not 0 <= e < field.q:
                raise ValueError(f"entry {e} outside GF({field.q})")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries
        w, enc, packed = field.width, field.enc, []
        for i in range(nrows):
            v = 0
            for x in entries[i * ncols : (i + 1) * ncols]:
                v = (v << w) | enc[x]
            packed.append(v)
        self.packed = tuple(packed)

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

    def key(self) -> tuple:
        """A tuple that orders matrices of one shape as their entries do."""
        return self.packed

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def rows(self) -> List[Tuple[int, ...]]:
        return [self.row(i) for i in range(self.nrows)]

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.ncols + c]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.field.q, self.nrows, self.ncols, self.packed))

    def __repr__(self):
        return f"Matrix(GF({self.field.q}), {self.nrows}x{self.ncols})"


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


def rref_pivots(f: GF, rows: Sequence[int], ncols: int) -> Optional[Tuple[int, ...]]:
    """The pivot columns of the packed rows if they are in RREF with no zero
    row, else None."""
    w = f.width
    prev, pivot_bits, ones = ncols + 1, 0, 0
    for v in rows:  # leading entries strictly move right
        b = (v.bit_length() + w - 1) // w
        if not 0 < b < prev:
            return None
        prev, one = b, 1 << (b - 1) * w
        pivot_bits, ones = pivot_bits | one * ((1 << w) - 1), ones | one
    # each row meets the pivot columns in at least its own leading entry, so
    # the sums agree only if each meets them in a leading 1 alone
    if sum(v & pivot_bits for v in rows) != ones:
        return None
    return tuple(ncols - (v.bit_length() + w - 1) // w for v in rows)


def mat_rank(m: Matrix) -> int:
    return rank_added(m.field, [0] * (m.ncols + 1), m.packed)

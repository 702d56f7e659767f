"""Dense matrices over GF(q): RREF, rank and block assembly.

Matrices are immutable and row-major.  Over GF(2) a matrix keeps its rows
packed, one int per row with column 0 as the highest bit, and the build path
works on those ints: XOR adds matrices, shift-or joins blocks side by side
and `bit_length` finds pivots.  The entry tuple is built from the packed
rows only when a caller reads `entries`.  Over other fields the entry tuple
is the only representation and the field's own operations do the
arithmetic.  The public constructor checks every entry; `from_packed` trusts
rows derived from checked matrices.
"""

from __future__ import annotations

from itertools import chain
from operator import xor
from typing import Iterable, List, Optional, Sequence, Tuple

from .gf import GF, gf, same_field

_GF2 = gf(2)


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries", "_packed")

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
        self._packed = None
        if field.q == 2:
            packed = []
            for i in range(nrows):
                v = 0
                for x in entries[i * ncols : (i + 1) * ncols]:
                    v = (v << 1) | x
                packed.append(v)
            self._packed = tuple(packed)

    @classmethod
    def from_packed(cls, ncols: int, rows: Sequence[int]) -> "Matrix":
        """GF(2) matrix with the given packed rows (see `pack_rows_gf2`),
        each trusted to lie in [0, 2**ncols)."""
        m = cls.__new__(cls)
        m.field = _GF2
        m.nrows = len(rows)
        m.ncols = ncols
        m._packed = tuple(rows)
        return m

    @classmethod
    def zero(cls, field: GF, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, (0,) * (nrows * ncols))

    @classmethod
    def identity(cls, field: GF, k: int) -> "Matrix":
        e = [0] * (k * k)
        for i in range(k):
            e[i * k + i] = 1
        return cls(field, k, k, e)

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]]) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        flat: List[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(field, len(rows), ncols, flat)

    def __getattr__(self, name: str):
        # reached only for an unset slot: the entries of a matrix built by
        # `from_packed`, read for the first time
        if name != "entries":
            raise AttributeError(name)
        width = self.ncols
        bits = "".join(format(v, "b").zfill(width) for v in self._packed) if width else ""
        self.entries = tuple(map(int, bits))
        return self.entries

    def key(self) -> tuple:
        """A tuple that orders matrices of one shape as their entries do:
        the packed rows over GF(2), the entries otherwise."""
        return self.entries if self._packed is None else self._packed

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
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.field.q, self.nrows, self.ncols, self.key()))

    def __repr__(self):
        return f"Matrix(GF({self.field.q}), {self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        e = tuple(
            self.entries[r * self.ncols + c]
            for c in range(self.ncols)
            for r in range(self.nrows)
        )
        return Matrix(self.field, self.ncols, self.nrows, e)

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "Matrix":
        rows = list(rows)
        cols = list(cols)
        e = [self.entries[r * self.ncols + c] for r in rows for c in cols]
        return Matrix(self.field, len(rows), len(cols), e)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    if a._packed is not None:
        return Matrix.from_packed(a.ncols, tuple(map(xor, a._packed, b._packed)))
    return Matrix(f, a.nrows, a.ncols, tuple(f.add(x, y) for x, y in zip(a.entries, b.entries)))


def hstack(*mats: Matrix) -> Matrix:
    f = mats[0].field
    nrows = mats[0].nrows
    for m in mats[1:]:
        same_field(f, m.field)
        if m.nrows != nrows:
            raise ValueError("row-count mismatch in hstack")
    if f.q == 2:
        rows = mats[0]._packed
        for m in mats[1:]:
            width = m.ncols
            rows = [(r << width) | x for r, x in zip(rows, m._packed)]
        return Matrix.from_packed(sum(m.ncols for m in mats), rows)
    rows = []
    for i in range(nrows):
        row: List[int] = []
        for m in mats:
            row.extend(m.row(i))
        rows.append(row)
    return Matrix.from_rows(f, rows) if rows else Matrix(f, 0, sum(m.ncols for m in mats), ())


def vstack(*mats: Matrix) -> Matrix:
    f = mats[0].field
    ncols = mats[0].ncols
    for m in mats:
        same_field(f, m.field)
        if m.ncols != ncols:
            raise ValueError("column-count mismatch in vstack")
    if f.q == 2:
        return Matrix.from_packed(ncols, sum([m._packed for m in mats], ()))
    entries = chain.from_iterable(m.entries for m in mats)
    return Matrix(f, sum(m.nrows for m in mats), ncols, entries)


def _rref_rows(field: GF, rows: List[List[int]], ncols: int):
    """In-place Gaussian elimination; returns pivot column list."""
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f_ = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f_, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _rref_gf2(rows: Sequence[int], ncols: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Nonzero rows of the RREF of packed GF(2) rows, and their pivots."""
    basis = {}  # bit length of a row's leading bit -> row
    for v in rows:
        while v:
            b = v.bit_length()
            w = basis.get(b)
            if w is None:
                basis[b] = v
                break
            v ^= w
    reduced = {}
    for b in sorted(basis):  # rightmost pivot first; clear the lower pivots
        v = basis[b]
        for c, w in reduced.items():
            if v >> (c - 1) & 1:
                v ^= w
        reduced[b] = v
    leads = sorted(reduced, reverse=True)
    return tuple(reduced[b] for b in leads), tuple(ncols - b for b in leads)


def mat_rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    if m._packed is not None:
        rows, pivots = _rref_gf2(m._packed, m.ncols)
        return Matrix.from_packed(m.ncols, rows + (0,) * (m.nrows - len(rows))), pivots
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = _rref_rows(m.field, rows, m.ncols)
    return Matrix.from_rows(m.field, rows) if rows else m, tuple(pivots)


def rref_pivots_gf2(rows: Sequence[int], ncols: int) -> Optional[Tuple[int, ...]]:
    """The pivot columns of the packed GF(2) rows if they are in RREF with no
    zero row, else None."""
    # leading bits strictly move right, and each row meets the set of
    # leading bits in its own one only
    prev, pivot_bits = ncols + 1, 0
    for v in rows:
        b = v.bit_length()
        if not 0 < b < prev:
            return None
        prev, pivot_bits = b, pivot_bits | 1 << (b - 1)
    if sum((v & pivot_bits).bit_count() for v in rows) != len(rows):
        return None
    return tuple(ncols - v.bit_length() for v in rows)


def mat_rank(m: Matrix) -> int:
    if m._packed is not None:
        return rank_added_gf2([0] * (m.ncols + 1), m._packed)
    rows = [list(m.row(i)) for i in range(m.nrows)]
    return len(_rref_rows(m.field, rows, m.ncols))


# -- packed GF(2) rows ----------------------------------------------------------


def pack_rows_gf2(m: Matrix) -> Tuple[int, ...]:
    """Rows of a GF(2) matrix as ints; column 0 is the highest bit, so the
    leading set bit of a packed row is its leftmost nonzero column."""
    if m._packed is None:
        raise ValueError(f"{m!r} is not over GF(2)")
    return m._packed


def rank_added_gf2(basis: List[int], rows: Iterable[int]) -> int:
    """How many of the packed `rows` lie outside the span of `basis`, where
    `basis[b]` is the basis row of bit length b, or 0; the rows that do are
    added to `basis`.  On a fresh basis of ncols + 1 zeros, the rank."""
    r = 0
    for v in rows:
        while v:
            b = v.bit_length()
            w = basis[b]
            if w:
                v ^= w
            else:
                basis[b] = v
                r += 1
                break
    return r

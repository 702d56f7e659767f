"""Dense matrices over GF(q): RREF, rank, kernels, block assembly.

Matrices are immutable, row-major, and small; everything here favours
exactness and canonical output over speed.  The hot pairwise-distance path
lives in `subspaces` and packs GF(2) rows into integers instead.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .gf import GF, gf, same_field


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

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
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field.q, self.nrows, self.ncols, self.entries))

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

    def to_text(self) -> str:
        lines = [f"{self.field.q} {self.nrows} {self.ncols}"]
        for i in range(self.nrows):
            lines.append(" ".join(str(x) for x in self.row(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        q, nrows, ncols = (int(t) for t in lines[0].split())
        rows = [[int(t) for t in ln.split()] for ln in lines[1 : 1 + nrows]]
        return cls.from_rows(gf(q), rows) if rows else cls(gf(q), 0, ncols, ())


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return Matrix(f, a.nrows, a.ncols, tuple(f.add(x, y) for x, y in zip(a.entries, b.entries)))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return Matrix(f, a.nrows, a.ncols, tuple(f.sub(x, y) for x, y in zip(a.entries, b.entries)))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    out = [0] * (a.nrows * b.ncols)
    for i in range(a.nrows):
        arow = a.row(i)
        for j in range(b.ncols):
            acc = 0
            for t, av in enumerate(arow):
                if av:
                    acc = f.add(acc, f.mul(av, b.entries[t * b.ncols + j]))
            out[i * b.ncols + j] = acc
    return Matrix(f, a.nrows, b.ncols, out)


def hstack(*mats: Matrix) -> Matrix:
    f = mats[0].field
    nrows = mats[0].nrows
    for m in mats[1:]:
        same_field(f, m.field)
        if m.nrows != nrows:
            raise ValueError("row-count mismatch in hstack")
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
    entries: List[int] = []
    for m in mats:
        same_field(f, m.field)
        if m.ncols != ncols:
            raise ValueError("column-count mismatch in vstack")
        entries.extend(m.entries)
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


def mat_rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = _rref_rows(m.field, rows, m.ncols)
    return Matrix.from_rows(m.field, rows) if rows else m, tuple(pivots)


def mat_rank(m: Matrix) -> int:
    if m.field.p == 2 and m.field.degree == 1:
        return rank_gf2(pack_rows_gf2(m), m.ncols)
    rows = [list(m.row(i)) for i in range(m.nrows)]
    return len(_rref_rows(m.field, rows, m.ncols))


def mat_kernel(m: Matrix) -> Matrix:
    """Basis of the left null space {v : v m = 0}, one vector per row."""
    t = m.transpose()
    red, pivots = mat_rref(t)
    free = [c for c in range(t.ncols) if c not in pivots]
    rows = []
    f = m.field
    for fc in free:
        v = [0] * t.ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r, fc])
        rows.append(v)
    if not rows:
        return Matrix(f, 0, m.nrows, ())
    return Matrix.from_rows(f, rows)


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    aug = hstack(m, Matrix.identity(m.field, m.nrows))
    red, pivots = mat_rref(aug)
    if list(pivots) != list(range(m.nrows)):
        raise ValueError("matrix is singular")
    return red.submatrix(range(m.nrows), range(m.nrows, 2 * m.nrows))


# -- packed GF(2) helpers (hot path for rank computations) ------------------


def pack_rows_gf2(m: Matrix) -> List[int]:
    """Rows as ints; column 0 is the highest bit, so the leading set bit
    of a packed row is its leftmost nonzero column."""
    out = []
    for i in range(m.nrows):
        v = 0
        for x in m.row(i):
            v = (v << 1) | x
        out.append(v)
    return out


def rank_gf2(packed_rows: Sequence[int], ncols: int) -> int:
    """Rank of packed GF(2) rows."""
    basis = [0] * (ncols + 1)
    r = 0
    for v in packed_rows:
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

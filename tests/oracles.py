"""Independent checks of the paper's objects, kept beside the tests.

The package builds codes without these: identifying vectors, Ferrers
diagrams, the Hamming lower bound, the insertion predicate and plain
lifting are how the tests check what the constructions produce.  The
matrix and field helpers serve those checks (row operations, rank
distances, rank-nullity, field addition in GF(q^m)), and so do the
whole-matrix helpers the package assembles without: zero and identity
matrices, `mat_add`, `hstack`, `vstack`, `subspace_from_rows` (a matrix's
row space through `codeword`) and the mixed-field guard `same_field`.
`codeword` makes the `Subspace` of packed rows, trusting rows given with
their pivots and reducing others by `matrices.rref`: the reference the
words a `CDC` canonicalizes are checked against, and the way tests make
a `Subspace` whose `word` a `CDC` takes (`words_of`).
`row_of` and `entry` read one row or entry of a `Matrix` view, decoded
from its packed row by `gf.row_codes`.
`sub` and `neg` subtract and negate element codes digit by digit mod p,
with no table or kernel of the field, so that no reference reads a
kernel it checks.  `rref_rows` is a per-entry Gaussian elimination
through them, the field's scalar `add` and `mul` and its table of
inverses `invs`, not the packed-row kernels it checks; `add` and `mul`
read the kernels' tables, which `test_gf` checks against `ExtField` and
integer arithmetic.  `ExtField` is GF(q^m) with full exp/log tables, built
from its own schoolbook polynomial multiply over base-q codes.  It is the
reference the Gabidulin generators and the field's own row tables are
checked against, over the pinned modulus table `_MODULUS_TABLE`.
`bytes_row_add` and `bytes_row_scale` are the row arithmetic by bytes
and 256-byte `translate` tables: the reference for `GF.row_add`,
`GF.add_rows`, `GF.row_scale` by -1 and `GF.row_sub` (a plus b scaled by
-1) over odd p, which reduce digits on the int itself.
`search_modulus` finds the lex-smallest
monic irreducible by scalar trial division, one coefficient at a time:
the reference for `gf.field_modulus`, which divides whole rows.
`trial_factor_prime_power` factors a prime power by trial
division up to sqrt(q), the reference for `factor_prime_power`.
`lifted_with_vectors` pairs each lifted insert word of a cor43 or cor44
tuple with the special-form vector it should lift on, for the identifying
vector and insertion predicate checks.
`settled_groups` names, by per-entry elimination, the pivot groups that
exhaustive verification settles with no key: the reference for
`subspaces._affine_clean`, which tests one group by its pivot tuple and
word count, and for the isolation test beside it in `verify_min_distance`.
`rank_filtered_words` rank-tests every word of a rank code's span, in
order, and keeps those within a cap: the reference for `rankcodes.code_words`
under a cap, which lists them through their left kernels instead.
`row_by_row_keys` builds a word's t-subspace keys for one pivot choice a
row at a time, each row the span of its free rows: the reference for
`subspaces.keys_of`, which builds them for a batch of words at once.
`grid` lists a family's admissible parameters, and `blocks_insert_oracle`
is the block insert's size as one expression.  `randrange_pairs` draws
the verifier's sampled pairs by plain `random.Random.randrange`.
`bound_cor45_poly` evaluates the cor45 records from their closed-form
polynomials, the reference for the family tuples that `bound` evaluates.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import chain, repeat, zip_longest
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from cdckit.errors import CdckitError, HypothesisViolated, InvalidParameters
from cdckit.bounds import FAMILIES, Family, _bounded, _exact_div, _lifted, insert_vectors
from cdckit.constructions import _lifted_words
from cdckit.counting import mrd_size
from cdckit.gf import GF, gf, join_rows, row_codes, split_rows
from cdckit.matrices import Matrix, mat_rank, mat_rref, rank_added, rref
from cdckit.rankcodes import LinearRankCode, span_iter
from cdckit.registry import BaseBoundRegistry
from cdckit.subspaces import Subspace


class AmbientMismatch(CdckitError):
    """Subspaces of different ambient spaces compared."""


class MixedFields(CdckitError):
    """Operands from two different fields."""


def same_field(a: GF, b: GF) -> GF:
    if a is not b:
        raise MixedFields(f"operands from {a} and {b}")
    return a


def sub(field: GF, a: int, b: int) -> int:
    """a - b in the field, by element codes: each base-p digit of a minus
    that of b, mod p."""
    p = field.p
    return sum((a // p**i - b // p**i) % p * p**i for i in range(field.degree))


def neg(field: GF, a: int) -> int:
    """-a in the field, by element codes: 0 - a digit by digit."""
    return sub(field, 0, a)


# -- matrices -------------------------------------------------------------------


def rref_rows(field: GF, rows: List[List[int]], ncols: int) -> List[int]:
    """In-place Gaussian elimination of entry lists; returns the pivot columns."""
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
        inv = field.invs[rows[r][c]]
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f_ = rows[i][c]
                rows[i] = [sub(field, x, field.mul(f_, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def row_of(m: Matrix, i: int) -> Tuple[int, ...]:
    """The element codes of row i of m."""
    return row_codes(m.field, m.packed[i], m.ncols)


def entry(m: Matrix, r: int, c: int) -> int:
    """The entry of m in row r and column c."""
    return row_of(m, r)[c]


def zero_matrix(field: GF, nrows: int, ncols: int) -> Matrix:
    return Matrix.from_packed(field, ncols, (0,) * nrows)


def identity_matrix(field: GF, k: int) -> Matrix:
    return Matrix.from_packed(field, k, [1 << (k - 1 - i) * field.width for i in range(k)])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return Matrix.from_packed(f, a.ncols, tuple(map(f.row_add, a.packed, b.packed)))


def hstack(*mats: Matrix) -> Matrix:
    """The blocks side by side, joined by shift-or on their packed rows."""
    f = mats[0].field
    for m in mats[1:]:
        same_field(f, m.field)
        if m.nrows != mats[0].nrows:
            raise ValueError("row-count mismatch in hstack")
    rows = mats[0].packed
    for m in mats[1:]:
        shift = m.ncols * f.width
        rows = [(r << shift) | x for r, x in zip(rows, m.packed)]
    return Matrix.from_packed(f, sum(m.ncols for m in mats), rows)


def vstack(*mats: Matrix) -> Matrix:
    f = mats[0].field
    for m in mats:
        same_field(f, m.field)
        if m.ncols != mats[0].ncols:
            raise ValueError("column-count mismatch in vstack")
    return Matrix.from_packed(f, mats[0].ncols, sum([m.packed for m in mats], ()))


def codeword(f: GF, n: int, rows: Sequence[int],
             pivots: Optional[Tuple[int, ...]] = None) -> Subspace:
    """The subspace spanned by packed rows of n entries of f.  Rows given
    with their `pivots` are trusted to be in RREF with those pivot columns;
    any others are reduced, and rank-deficient rows are refused."""
    if pivots is None:
        reduced, pivots = rref(f, rows, n)
        if len(reduced) < len(rows):
            raise ValueError("rows are linearly dependent")
        rows = reduced
    return Subspace(f, n, join_rows(rows, n * f.width), pivots)


def words_of(subspaces: Iterable[Subspace]) -> List[int]:
    """The words of `Subspace`s, packed rows end to end, as a `CDC` takes them."""
    return [s.word for s in subspaces]


def subspace_from_rows(m: Matrix) -> Subspace:
    """The row space of m, reduced by `codeword`; rank-deficient m is refused."""
    return codeword(m.field, m.ncols, m.packed)


def from_rows(field: GF, rows: Sequence[Sequence[int]]) -> Matrix:
    rows = [tuple(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    flat: List[int] = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged rows")
        flat.extend(r)
    return Matrix(field, len(rows), ncols, flat)


def transpose(m: Matrix) -> Matrix:
    e = tuple(m.entries[r * m.ncols + c] for c in range(m.ncols) for r in range(m.nrows))
    return Matrix(m.field, m.ncols, m.nrows, e)


def submatrix(m: Matrix, rows, cols) -> Matrix:
    rows, cols = list(rows), list(cols)
    return Matrix(m.field, len(rows), len(cols), [entry(m, r, c) for r in rows for c in cols])


def oracle_rref(m: Matrix) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The entries of the RREF of m and its pivot columns, by `rref_rows`."""
    rows = [list(r) for r in m.rows()]
    pivots = rref_rows(m.field, rows, m.ncols)
    return tuple(x for r in rows for x in r), tuple(pivots)



def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    if f.q == 2:
        return mat_add(a, b)
    return Matrix(f, a.nrows, a.ncols, tuple(sub(f, x, y) for x, y in zip(a.entries, b.entries)))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    f = same_field(a.field, b.field)
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    out = [0] * (a.nrows * b.ncols)
    for i in range(a.nrows):
        arow = row_of(a, i)
        for j in range(b.ncols):
            acc = 0
            for t, av in enumerate(arow):
                if av:
                    acc = f.add(acc, f.mul(av, b.entries[t * b.ncols + j]))
            out[i * b.ncols + j] = acc
    return Matrix(f, a.nrows, b.ncols, out)


def mat_kernel(m: Matrix) -> Matrix:
    """Basis of the left null space {v : v m = 0}, one vector per row."""
    t = transpose(m)
    red, pivots = mat_rref(t)
    free = [c for c in range(t.ncols) if c not in pivots]
    rows = []
    f = m.field
    for fc in free:
        v = [0] * t.ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg(f, entry(red, r, fc))
        rows.append(v)
    if not rows:
        return Matrix(f, 0, m.nrows, ())
    return from_rows(f, rows)


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    aug = hstack(m, identity_matrix(m.field, m.nrows))
    red, pivots = mat_rref(aug)
    if list(pivots) != list(range(m.nrows)):
        raise ValueError("matrix is singular")
    return submatrix(red, range(m.nrows), range(m.nrows, 2 * m.nrows))


# -- fields ---------------------------------------------------------------------


def field_pow(f: GF, a: int, e: int) -> int:
    """a^e in GF(q) for e >= 0, by square-and-multiply through `f.mul`."""
    out = 1
    while e:
        if e & 1:
            out = f.mul(out, a)
        a = f.mul(a, a)
        e >>= 1
    return out


def bytes_row_add(f: GF, a: int, b: int) -> int:
    """The sum of two packed rows over odd p by bytes: the int sum, whose
    base-p digits sit in nibbles (p <= 7) or bytes and never carry, made
    bytes, each byte's digits reduced mod p by one 256-byte `translate`
    table, and read back as an int."""
    s = a + b
    return int.from_bytes(s.to_bytes((s.bit_length() + 7) >> 3, "big")
                          .translate(_digits_mod(f.p)), "big")


@lru_cache(maxsize=None)
def _digits_mod(p: int) -> bytes:
    """The 256-byte table reducing each base-p digit of a byte mod p."""
    digit = 4 if p <= 7 else 8
    return bytes(sum((e >> i & (1 << digit) - 1) % p << i for i in range(0, 8, digit))
                 for e in range(256))


def bytes_row_scale(f: GF, row: int, c: int) -> int:
    """The packed row times the element c by bytes: one `translate` by the
    field's table `mul_rows[c]`, which scales each entry of a byte."""
    return int.from_bytes(row.to_bytes((row.bit_length() + 7) >> 3, "big")
                          .translate(f.mul_rows[c]), "big")


# (p, degree) -> coefficients (c_0, ..., c_{deg-1}) of the monic modulus
# x^deg + c_{deg-1} x^{deg-1} + ... + c_0.  Lex-smallest irreducible by code
# sum(c_i * p^i), the pinned reference for `gf.field_modulus`.
_MODULUS_TABLE = {
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 2): (1, 0),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 1, 0, 0),
    (3, 5): (1, 2, 0, 0, 0),
    (3, 6): (2, 1, 0, 0, 0, 0),
    (5, 2): (2, 0),
    (5, 3): (1, 1, 0),
    (5, 4): (2, 0, 0, 0),
    (7, 2): (1, 0),
    (7, 3): (2, 0, 0),
    (7, 4): (1, 1, 0, 0),
}


# -- polynomials over GF(q), one coefficient at a time ---------------------------
#
# The scalar reference for `gf`'s row arithmetic: a polynomial is a list of
# coefficient codes, lowest first, or the base-q code sum(c_i q^i).


def _code_to_poly(code: int, q: int) -> list:
    out = []
    while code:
        out.append(code % q)
        code //= q
    return out


def _poly_to_code(poly: Sequence[int], q: int) -> int:
    code = 0
    for c in reversed(poly):
        code = code * q + c
    return code


def _poly_mod(num: list, den: list, base: GF) -> list:
    """The remainder of num divided by den, coefficient lists over `base`."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = base.invs[den[-1]]
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = base.mul(c, lead_inv)
        for j, cj in enumerate(den):
            num[i - dd + j] = sub(base, num[i - dd + j], base.mul(f, cj))
    while num and num[-1] == 0:
        num.pop()
    return num


def _scalar_irreducible(coeffs: Sequence[int], base: GF) -> bool:
    """Trial division of the monic x^deg + sum(coeffs[i] x^i) by every
    monic polynomial of degree 1 to deg / 2, coefficient by coefficient."""
    deg = len(coeffs)
    poly = list(coeffs) + [1]
    if deg == 0:
        return False
    if poly[0] == 0:
        return deg == 1
    q = base.q
    for ddeg in range(1, deg // 2 + 1):
        for code in range(q**ddeg):
            den = _code_to_poly(code, q)
            den += [0] * (ddeg - len(den)) + [1]
            if not _poly_mod(poly, den, base):
                return False
    return True


def search_modulus(base: GF, degree: int) -> Tuple[int, ...]:
    """The lex-smallest (by digit code) monic irreducible of the degree
    over `base`, by scalar trial division: the reference for
    `gf.field_modulus`."""
    q = base.q
    for code in range(q**degree):
        poly = _code_to_poly(code, q)
        coeffs = tuple(poly) + (0,) * (degree - len(poly))
        if _scalar_irreducible(coeffs, base):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def _build_log_tables(q: int, mul):
    """exp/log tables from the smallest primitive element code: the first g
    with g^i != 1 for 0 < i < q - 1."""
    for g in range(2, q):
        exp = [1]
        while len(exp) < q - 1 and (x := mul(exp[-1], g)) != 1:
            exp.append(x)
        if len(exp) == q - 1:
            log = [0] * q
            for i, x in enumerate(exp):
                log[x] = i
            return exp, log
    raise RuntimeError("no primitive element found")  # pragma: no cover


def trial_factor_prime_power(q: int) -> Tuple[int, int]:
    """(p, degree) with p prime and p**degree == q, by trial division up to
    sqrt(q); ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    degree, m = 0, q
    while m % p == 0:
        m //= p
        degree += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, degree


class ExtField:
    """GF(q^m) built over a base GF(q), with multiplication, powers and
    expansion over GF(q), the operations the Gabidulin generators need.

    Elements are coded in [0, q^m) as base-q digit vectors over the
    polynomial basis (1, x, ..., x^{m-1}).
    """

    def __init__(self, base: GF, m: int):
        if m < 1:
            raise ValueError("extension degree must be positive")
        self.base = base
        self.m = m
        self.order = base.q**m
        if m == 1:
            self.modulus: Tuple[int, ...] = ()
        elif base.degree == 1 and (base.p, m) in _MODULUS_TABLE:
            self.modulus = _MODULUS_TABLE[(base.p, m)]
        else:
            self.modulus = search_modulus(base, m)
        if m == 1:
            self._exp, self._log = None, None
        else:
            self._exp, self._log = _build_log_tables(self.order, self._poly_mul)

    def __repr__(self):
        return f"ExtField(GF({self.base.q}), m={self.m})"

    def _poly_mul(self, a: int, b: int) -> int:
        """a b mod the modulus, schoolbook over the base-q digits of the
        codes, then reduced by x^m = -(the modulus's lower terms)."""
        base, q, deg = self.base, self.base.q, self.m
        pa, pb = _code_to_poly(a, q), _code_to_poly(b, q)
        prod = [0] * (len(pa) + len(pb) - 1) if pa and pb else []
        for i, ca in enumerate(pa):
            if ca == 0:
                continue
            for j, cb in enumerate(pb):
                if cb:
                    prod[i + j] = base.add(prod[i + j], base.mul(ca, cb))
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j, mj in enumerate(self.modulus):
                if mj:
                    prod[i - deg + j] = sub(base, prod[i - deg + j], base.mul(c, mj))
        return _poly_to_code(prod, q)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return self.base.mul(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0."""
        if self.m == 1:
            return field_pow(self.base, a, e)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def expand(self, a: int) -> Tuple[int, ...]:
        """Coordinates of `a` over the polynomial basis, as GF(q) element codes."""
        q = self.base.q
        return tuple((a // q**i) % q for i in range(self.m))


def ext_add(ext: ExtField, a: int, b: int) -> int:
    """a + b in GF(q^m): the GF(q) sum of each base-q digit of the codes."""
    q, out, shift = ext.base.q, 0, 1
    while a or b:
        out += ext.base.add(a % q, b % q) * shift
        a //= q
        b //= q
        shift *= q
    return out


# -- subspaces --------------------------------------------------------------------


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """2 dim(U + V) - dim U - dim V, the rank by `rref_rows`."""
    if u.n != v.n:
        raise AmbientMismatch(f"ambient dimensions {u.n} and {v.n}")
    f = same_field(u.field, v.field)
    rows = [list(r) for r in u.mat.rows() + v.mat.rows()]
    return 2 * len(rref_rows(f, rows, u.n)) - u.k - v.k


def settled_groups(code, best: int) -> set:
    """The pivot tuples whose words exhaustive verification may leave
    unkeyed once its first pairs bound the minimum at `best`: groups
    of q^D words, D >= 1, whose pivot set is at symmetric difference
    >= `best` from every other tuple of the code, whose entry vectors (rows
    end to end) minus the first word's have rank D by `rref_rows`, so that
    they are the first word plus that span, and whose differences from the
    first word, as k x n matrices, have rank >= best / 2."""
    f, k, n = code.codewords[0].field, code.k, code.n
    groups: Dict[Tuple[int, ...], list] = {}
    for w in code:
        groups.setdefault(w.pivots, []).append([x for row in w.mat.rows() for x in row])
    settled = set()
    for piv, vectors in groups.items():
        dim = round(math.log(len(vectors), f.q))
        if dim < 1 or f.q ** dim != len(vectors) or any(
                len(set(piv) ^ set(other)) < best for other in groups if other != piv):
            continue
        diffs = [[sub(f, x, y) for x, y in zip(v, vectors[0])] for v in vectors[1:]]
        if all(len(rref_rows(f, [d[r * n:(r + 1) * n] for r in range(k)], n)) >= best // 2
               for d in diffs) and len(rref_rows(f, [d[:] for d in diffs], k * n)) == dim:
            settled.add(piv)
    return settled


def randrange_pairs(n_words: int, count: int, seed) -> List[Tuple[int, int]]:
    """`count` seeded pairs i < j: i by randrange(n_words), then j by
    randrange(n_words - 1) over the indices other than i."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        i, j = rng.randrange(n_words), rng.randrange(n_words - 1)
        if j >= i:
            j += 1
        pairs.append((min(i, j), max(i, j)))
    return pairs


def rank_filtered_words(code: LinearRankCode, width: int, shift: int, cap: int) -> List[int]:
    """The words of rank <= cap among `span_iter`'s words of the code, in
    its order, each placed as `rankcodes.code_words` places it: rows in
    slots of `width` bits, the word moved left by `shift` bits.  Each word's
    a rows of b entries are rank-tested, the count stopped at cap + 1."""
    f, own = code.field, code.b * code.field.width
    words = split_rows(span_iter(f, [join_rows(g, own) for g in code.generators]), code.a, own)
    return [join_rows(rows, width) << shift for rows in words
            if rank_added(f, [0] * (code.b + 1), rows, cap + 1) <= cap]


def row_by_row_keys(f: GF, n: int, g: Tuple[int, ...], c: Tuple[int, ...]) -> List[int]:
    """The keys of the t-subspaces C*G of the word with RREF rows g, for the
    pivot choice C with pivot columns c: row r of C*G is g[r] plus any
    combination of the rows g[j], j > r outside c, and a key concatenates
    the t rows of n entries each."""
    keys = [0]
    for r in c:
        vals = [g[r]]
        for j in range(r + 1, len(g)):
            if j not in c:
                multiples = [f.row_scale(g[j], a) for a in range(1, f.q)]
                vals += [f.row_add(v, m) for m in multiples for v in vals]
        keys = [key << n * f.width | v for key in keys for v in vals]
    return keys


def first_minimum(dists: List[int], pairs: List[Tuple[int, int]]):
    """The least of `dists` and the first of `pairs` at it."""
    best = min(dists)
    return best, pairs[dists.index(best)]


def identifying_vector(u: Subspace) -> Tuple[int, ...]:
    """1 at each pivot column of the RREF, 0 elsewhere."""
    bits = [0] * u.n
    for p in u.pivots:
        bits[p] = 1
    return tuple(bits)


def hamming_lb_check(u: Subspace, v: Subspace) -> bool:
    """Subspace distance is bounded below by the Hamming distance of the
    identifying vectors; returns whether that held for this pair."""
    if u.k != v.k:
        raise InvalidParameters("equal dimensions required")
    dh = sum(x != y for x, y in zip(identifying_vector(u), identifying_vector(v)))
    return subspace_distance(u, v) >= dh


def ferrers_of(u: Subspace) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """Dots per row of the Ferrers diagram, and the tableaux entries."""
    pivset, m = set(u.pivots), u.mat
    lengths = []
    tableaux = []
    for i in range(u.k):
        p = u.pivots[i]
        cols = [c for c in range(p + 1, u.n) if c not in pivset]
        lengths.append(len(cols))
        tableaux.append(tuple(entry(m, i, c) for c in cols))
    return tuple(lengths), tuple(tableaux)


def lift_matrix(a: Matrix) -> Subspace:
    """Row space of (I_k | A); already in RREF with pivots 0..k-1."""
    k = a.nrows
    return codeword(a.field, a.ncols + k, hstack(identity_matrix(a.field, k), a).packed,
                    tuple(range(k)))


def special_form_vector(delta1: int, delta2: int, u1: int, u2: int, Delta: int,
                        d_f: Optional[int] = None) -> Tuple[int, ...]:
    """Delta zeros, u1 ones and zeros to delta1, then u2 ones and zeros to
    delta1 + delta2: the identifying vector a multilevel insert lifts on."""
    if d_f is not None and (u1 < d_f or u2 < d_f or delta2 < u2 + d_f):
        raise HypothesisViolated("special-form blocks too small for d_f")
    if delta1 < Delta + u1 or delta2 < u2:
        raise HypothesisViolated("identifying vector does not fit its blocks")
    return (
        (0,) * Delta + (1,) * u1 + (0,) * (delta1 - Delta - u1)
        + (1,) * u2 + (0,) * (delta2 - u2)
    )


# a cor43 and a cor44 tuple (family, q, n, d, k, params) at q = 2 and at q = 3;
# the first is the (12, 4, 6)_2 record, whose first insert has 2,154,496 words
MULTILEVEL_TUPLES = (
    ("cor43", 2, 12, 4, 6, {"n1": 6, "u1": 4, "c1": 1, "c2": 1}),
    ("cor43", 3, 6, 2, 3, {"n1": 3, "u1": 2, "c1": 1, "c2": 1}),
    ("cor44", 2, 8, 4, 4, {"n1": 4, "u1": 2, "b1": 1, "b2": 1}),
    ("cor44", 3, 4, 2, 2, {"n1": 2, "u1": 1, "b1": 1, "b2": 1}),
)


def lifted_with_vectors(family: str, q: int, n: int, d: int, k: int, params: Dict[str, int]
                        ) -> Tuple[Dict[str, int], Iterator[Tuple[Subspace, Tuple[int, ...]]]]:
    """A multilevel tuple's resolved parameters, and the words of its lifted
    inserts from the materializer, each reduced by `codeword` and paired
    with the special-form vector it should lift on: the words come vector
    by vector, as many for each as the family spec counts.  A word or a
    vector left over is paired with None."""
    p = FAMILIES[family].resolve(q, n, d, k, params)
    vectors = chain.from_iterable(
        repeat(special_form_vector(p["n1"], p["n2"], v[0], v[1], v[2], p["h"]), _lifted(p, *v)[1])
        for v in insert_vectors(p))
    f = gf(q)
    words = split_rows(_lifted_words(p, {}, {}), k, n * f.width)
    return p, zip_longest(map(codeword, repeat(f), repeat(n), words), vectors)


def insertion_predicate(u: Subspace, n1: int, n2: int, d: int) -> bool:
    """True iff u meets both coordinate subspaces S1 = R(0 | I_{n2}) and
    S2 = R(I_{n1} | 0) in dimension >= d/2."""
    if n1 + n2 != u.n:
        raise AmbientMismatch(f"n1 + n2 = {n1 + n2} != ambient {u.n}")
    if d % 2:
        raise InvalidParameters("subspace distances are even")
    left = submatrix(u.mat, range(u.k), range(n1))
    right = submatrix(u.mat, range(u.k), range(n1, u.n))
    dim_s2 = u.k - mat_rank(right)  # vectors of u supported on first n1 coords
    dim_s1 = u.k - mat_rank(left)
    return dim_s1 >= d // 2 and dim_s2 >= d // 2


# -- families ------------------------------------------------------------------


def grid(spec: Family, q: int, n: int, d: int, k: int) -> List[Dict[str, int]]:
    """Every admissible p, in lexicographic order of `spec.names`, a fill
    parameter at its default (the top of its range) only: the order the
    search descends in."""
    out: List[Dict[str, int]] = []

    def descend(i: int, p: Dict[str, int]) -> None:
        if i == len(spec.params):
            out.append(dict(p))
            return
        par = spec.params[i]
        lo, hi = par.lo(p), par.hi(p)
        for p[par.name] in range(max(lo, hi) if par.fill else lo, hi + 1):
            descend(i + 1, p)

    if d % 2 == 0 and d >= 2:
        descend(0, {"q": q, "n": n, "d": d, "k": k, "h": d // 2})
    return out


def blocks_insert_oracle(p, a):
    """Insert B as one expression, the reference for `blocks_insert_part`,
    which takes each side's factors from a cached helper."""
    q, h, a1, a2, t1, t2 = p["q"], p["h"], p["a1"], p["a2"], p["t1"], p["t2"]
    w1, w2 = p["n1"] - t1, p["n2"] - t2
    m1, m2 = mrd_size(q, a1, w1, h), mrd_size(q, a2, w2, h)
    s = min(_exact_div(mrd_size(q, a1, w1, p["b1"]), m1),
            _exact_div(mrd_size(q, a2, w2, p["b2"]), m2))
    d1 = _bounded(q, a1, w2, h, a1 - h)
    d2 = _bounded(q, a2, w1, h, a2 - h)
    size = s * a("Q1", t1, a1) * m1 * d1 * a("Q2", t2, a2) * m2 * d2
    return size, {"term:B": size, "s": s, "Delta_1": d1, "Delta_2": d2}


# -- cor45 polynomials -----------------------------------------------------------
#
# The seven cor45 records as polynomials in q, each times at most one
# registry value; `bounds.COR45` names the family tuple each one equals.

# (n, d, k) -> [(registry key or None, {exponent: coefficient})]
POLY_FAMILIES: Dict[Tuple[int, int, int], List[Tuple[Optional[Tuple[int, int, int]], Dict[int, int]]]] = {
    (12, 4, 6): [
        (None, {30: 1, 26: 1, 25: 1, 24: 2, 23: 1, 22: 1, 21: -1, 20: -2, 19: -3,
                18: -1, 17: -1, 15: 3, 14: 3, 13: 4, 12: 4, 11: 1, 10: -1, 9: -3,
                8: -3, 7: -2, 6: -1}),
    ],
    (14, 6, 7): [
        (None, {35: 1, 26: 1, 25: 1, 24: 2, 23: 3, 22: 3, 21: 2, 20: 1, 19: -2,
                18: -5, 17: -8, 16: -11, 15: -11, 14: -10, 13: -7, 12: -3, 11: 2,
                10: 5, 9: 8, 8: 8, 7: 9, 6: 6, 5: 5, 4: 3, 3: 1}),
    ],
    (15, 4, 5): [
        (None, {40: 1}),
        ((10, 4, 5), {16: 1, 15: 1, 14: 2, 13: 1, 11: -2, 10: -3, 9: -4, 8: -2,
                      6: 1, 5: 3, 4: 2, 3: 1}),
        ((7, 4, 3), {12: 1}),
    ],
    (16, 6, 8): [
        (None, {48: 1, 39: 1, 38: 1, 37: 2, 36: 3, 35: 3, 34: 3, 33: 2, 31: -4,
                30: -6, 29: -10, 28: -10, 27: -11, 26: -7, 25: -3, 24: 6, 23: 12,
                22: 19, 21: 23, 20: 25, 19: 22, 18: 16, 17: 9, 15: -7, 14: -13,
                13: -15, 12: -17, 11: -13, 10: -11, 9: -8, 8: -5, 7: -4, 6: -2,
                4: 1, 3: 1}),
    ],
    (18, 4, 6): [
        (None, {60: 1}),
        ((12, 4, 6), {26: 1, 25: 1, 24: 2, 23: 1, 22: 1, 21: -1, 20: -3, 19: -4,
                      18: -3, 17: -2, 15: 4, 14: 5, 13: 5, 12: 3, 11: 1, 10: -1,
                      9: -3, 8: -3, 7: -2, 6: -1}),
        ((8, 4, 4), {28: 1, 27: 1, 26: 2, 25: 1, 23: -1, 22: -2, 21: -1}),
    ],
    (18, 6, 6): [
        ((12, 6, 6), {24: 1}),
        ((6, 6, 3), {15: 1}),
        (None, {21: 1, 20: 1, 19: 2, 18: 3, 17: 3, 16: 3, 15: 3, 14: 2, 13: 1,
                12: 1, 9: -1, 8: -1, 7: -2, 6: -3, 5: -3, 4: -3, 3: -3, 2: -2,
                1: -1}),
    ],
    (18, 6, 9): [
        (None, {63: 1, 54: 1, 53: 1, 52: 2, 51: 3, 50: 3, 49: 3, 48: 3, 47: 1,
                46: -2, 45: -5, 44: -9, 43: -11, 42: -13, 41: -12, 40: -10,
                39: -3, 38: 3, 37: 12, 36: 18, 35: 24, 34: 24, 33: 23, 32: 15,
                31: 6, 30: -7, 29: -19, 28: -29, 27: -37, 26: -39, 25: -39,
                24: -31, 23: -22, 22: -8, 21: 2, 20: 14, 19: 20, 18: 27, 17: 24,
                16: 23, 15: 17, 14: 14, 13: 8, 12: 5, 11: 2, 10: 1}),
    ],
}


def bound_cor45_poly(n: int, d: int, k: int, q: int, registry: BaseBoundRegistry) -> int:
    """Evaluate one of the seven closed-form polynomial bounds at integer q."""
    try:
        parts = POLY_FAMILIES[(n, d, k)]
    except KeyError:
        raise HypothesisViolated(f"no polynomial bound for ({n},{d},{k})") from None
    total = 0
    for key, coeffs in parts:
        value = sum(c * q**e for e, c in coeffs.items())
        if key is not None:
            nn, dd, kk = key
            value *= registry.get(q, nn, dd, kk)
        total += value
    return total

"""Exact arithmetic over GF(q), and the packed rows every layer works on.

Field elements are integer codes.  For GF(p^d) the code in [0, p^d) is read
as the base-p digit vector of the residue polynomial: digit i is the
coefficient of x^i.

A row over GF(q) is packed into one int, each entry in a fixed `width` of
1, 2, 4 or 8 bits, column 0 highest: `pack_row` packs element codes,
checking each, and `row_codes` reads them back.  In characteristic 2 an
entry is stored as its element code, so XOR adds rows.  For odd p each
base-p digit takes its own nibble, or its own byte when 2(p - 1) > 15, so
an int sum adds digit-wise without carries, and five int operations on it
reduce every digit mod p (`GF._digit_sums`).  Both encodings increase with
the element code, so packed rows order as their entries do.  A width
dividing 8 keeps whole entries in each byte, and scaling a row by c is one
`translate` by a 256-byte table.  No entry straddles a byte, so rows laid
end to end in one int, a word (`join_rows`, `split_rows`), are added and
scaled as one row.  `row_add`, `row_sub` and `row_scale` do all row
arithmetic; the scalar `add` and `mul` use `row_add` and the scaling tables.
Only fields with such an encoding are supported: q = 2^m <= 256, q in
{3, 5, 7, 9, 25, 49} and the primes 11 <= p <= 127.

A polynomial of degree < t over GF(q) is a row of t entries, the
coefficient of x^i the i-th from the right, so an element's `enc` is the
row of its residue polynomial over GF(p).  `times_x` shifts a row one entry
and reduces the spill by the modulus; `x_power` squares and multiplies
rows.  One rule picks every modulus: `field_modulus(q, t)` is the
lex-smallest monic irreducible of degree t over GF(q) by digit code, found
by trial division on rows, so encodings are bit-exact across runs.
Multiplication in GF(p^d) is GF(p)-linear: c b is the sum of c_i (x^i b)
over the digits c_i of c, and the product table is built from these sums,
the list of x^i b for every b taken by `times_x` from that of x^(i-1) b.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product, repeat, tee
from operator import add, and_, lshift, rshift, xor
from typing import Iterable, Iterator, List, Sequence, Tuple

# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_LONG = 10**30  # an error names an int this long by its length (`_named`)


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division by the bases, then Miller-Rabin
    to each base.  ValueError for an n with no such factor at or above
    `_MR_EXACT_BELOW`, where the test is not exact."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{_named(n, 'number')} is too large to test: primality is exact "
                         "only below 3.317e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GF:
    """The field GF(p^degree) with integer-coded elements.

    Use the :func:`gf` factory: it makes one instance per q.
    """

    def __init__(self, p: int, degree: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("degree must be positive")
        self.p = p
        self.degree = degree
        self.q = p**degree
        self.modulus = field_modulus(p, degree)
        self._row_tables()

    def _row_tables(self) -> None:
        """The row encoding and its tables: `enc` and `dec` between element
        codes and entry values, `mul_rows[c]` scaling each entry of a byte
        by c, and `invs`.  `row_add` and `row_sub` add and subtract packed
        rows, and `add_rows` adds two lists of them, pairwise."""
        p, q = self.p, self.q
        if p == 2:
            digit, self.width = 1, next(w for w in (1, 2, 4, 8) if self.degree <= w)
            self.row_add, self.row_sub, self.add_rows = xor, xor, lambda a, b: list(map(xor, a, b))
        else:
            digit = 4 if p <= 7 else 8
            self.width = digit * self.degree
            self._digit_sums(digit)
        w = self.width
        enc = self.enc = [sum((x // p**i % p) << digit * i for i in range(self.degree))
                          for x in range(q)]
        dec = self.dec = [0] * (1 << w)
        for x, e in enumerate(enc):
            dec[e] = x

        def per_byte(one):
            """The byte table applying one[e] to each w-bit entry e of a byte."""
            table = one
            for _ in range(8 // w - 1):
                table = [(hi << w) | lo for hi in table for lo in one]
            return bytes(table)

        products = self._products()
        self.mul_rows = [per_byte([row[e] for e in self.dec]) for row in products]
        self.invs = [0] + [products[a].index(self.enc[1]) for a in range(1, q)]

    def _digit_sums(self, digit: int) -> None:
        """`row_add`, `row_sub` and `add_rows` over odd p on the int itself,
        with no bytes round trip (SWAR; Lamport, CACM 1975).  With T = digit
        - 1, O the int with a 1 at the bottom of each digit and K = (2^T - p)
        O, an int s of digits below 2p reduces as s - ((s + K) >> T & O) p:
        digit i of s + K, s_i + 2^T - p <= 2^T + p - 1 < 2^digit, has bit T
        set iff s_i >= p, and carries into no other digit.  So do a sum and
        a + P - b, P = p O, of digits in [1, 2p - 1]: nothing borrows.  K, O
        and P are kept by size class: `consts[n]` spans 2^n bits, at least a
        digit, for an operand (the sum, or b) of 2^(n-1) to 2^n - 1 bits;
        digits of a above b's are below p.  So an operation reads constants
        under twice an operand's length, in memory linear in the longest."""
        p, t = self.p, digit - 1
        consts = []

        def grow(s: int) -> int:  # the class n of s, its constants made if new
            n = s.bit_length().bit_length()
            while len(consts) <= n:
                ones = ((1 << max(1 << len(consts), digit)) - 1) // ((1 << digit) - 1)
                consts.append((((1 << t) - p) * ones, ones, p * ones))
            return n

        def row_add(a: int, b: int) -> int:
            s = a + b
            try:
                k, ones, _ = consts[s.bit_length().bit_length()]
            except IndexError:
                k, ones, _ = consts[grow(s)]
            return s - ((s + k) >> t & ones) * p

        def row_sub(a: int, b: int) -> int:
            try:
                k, ones, big = consts[b.bit_length().bit_length()]
            except IndexError:
                k, ones, big = consts[grow(b)]
            s = a + big - b
            return s - ((s + k) >> t & ones) * p

        def add_rows(a: Iterable[int], b: Iterable[int]) -> List[int]:
            s = list(map(add, a, b))
            k, ones, _ = consts[grow(max(s, default=0))]
            # a comprehension: map chains of the bound int operators cost more
            return [x - ((x + k) >> t & ones) * p for x in s]

        self.row_add, self.row_sub, self.add_rows = row_add, row_sub, add_rows

    def _products(self) -> list:
        """The multiplication table: row c lists enc[c b] for b = 0, ..., q - 1,
        made as the GF(p)-span of the lists of enc[x^i b], digit 0 of c the
        fastest.  Entry b of the list of x^(i+1) b is `times_x` over GF(p) of
        entry b of the list of x^i b."""
        xb, out = self.enc, [[0] * self.q]
        for i in range(self.degree):
            if i:
                xb = [times_x(gf(self.p), e, self.modulus) for e in xb]
            layer = out
            for _ in range(self.p - 1):
                layer = [list(map(self.row_add, row, xb)) for row in layer]
                out += layer
        return out

    def row_scale(self, row: int, c: int) -> int:
        """The packed row times the element c."""
        if c < 2:  # 0 or 1
            return row * c
        return int.from_bytes(row.to_bytes((row.bit_length() + 7) >> 3, "big")
                              .translate(self.mul_rows[c]), "big")

    def __repr__(self):
        return f"GF({self.q})"

    def add(self, a: int, b: int) -> int:
        return self.dec[self.row_add(self.enc[a], self.enc[b])]

    def mul(self, a: int, b: int) -> int:
        return self.dec[self.mul_rows[a][self.enc[b]]]


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    """The GF(q) of a prime power q with a one-byte row encoding (see the
    module docstring); one instance per q."""
    # no field above 256 has a row encoding
    p, degree = factor_prime_power(q) if q <= 256 else (0, 0)
    if not (p == 2 or 2 < p <= 7 and degree <= 2 or 11 <= p <= 127 and degree == 1):
        raise ValueError(f"GF({q}) is not supported: build and verify need q = 2^m <= 256, "
                         f"q in {{3, 5, 7, 9, 25, 49}} or a prime 11 <= q <= 127")
    return GF(p, degree)


_TRIAL = 1 << 16  # factor_prime_power divides by every f below this


def factor_prime_power(q: int) -> Tuple[int, int]:
    """(p, degree) with p prime and p**degree == q; ValueError when q is not
    a prime power.  Trial division finds a factor below 2^16.  Failing that,
    every prime factor exceeds 2^16, so an e-th power has over 16e bits:
    while q is a perfect e-th power for a prime e that allows, q is
    replaced by its root, and `is_prime` decides what is left.  The error
    names a q of over 30 digits by its length (`_named`)."""
    if q < 2:
        raise ValueError(f"{_named(q, 'q')} is not a prime power")
    root = math.isqrt(q)
    p = next((f for f in range(2, min(root, _TRIAL) + 1) if q % f == 0), q)
    if p == q and root > _TRIAL:
        degree, e = 1, 2
        while 16 * e < p.bit_length():
            if is_prime(e) and (r := _iroot(p, e)) ** e == p:
                p, degree = r, degree * e
            else:
                e += 1
        if not is_prime(p):
            raise ValueError(f"{_named(q, 'q')} is not a prime power")
        return p, degree
    degree, m = 0, q
    while m % p == 0:
        m //= p
        degree += 1
    if m != 1:
        raise ValueError(f"{_named(q, 'q')} is not a prime power")
    return p, degree


def _named(n: int, noun: str) -> str:
    """n for an error message: itself, or "a D-digit <noun>" when it has
    over 30 digits (D counted without `str`, which refuses an int of over
    4,300 digits by default)."""
    if -_LONG < n < _LONG:
        return str(n)
    m, sign = abs(n), "negative " if n < 0 else ""
    digits = int(m.bit_length() * math.log10(2)) - 1  # one or two short
    while 10**digits <= m:
        digits += 1
    return f"a {digits}-digit {sign}{noun}"


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)): a float estimate of the root of n's top bits, raised
    to a sure upper bound (its error is below 2^-40), then Newton's method
    from above."""
    k = max(n.bit_length() // e - 60, 0)
    r = (int(math.exp(math.log(n >> e * k) / e) * (1 + 2**-40)) + 1) << k
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


@lru_cache(maxsize=None)
def field_modulus(q: int, t: int) -> Tuple[int, ...]:
    """The coefficients (c_0, ..., c_{t-1}) of the monic irreducible f of
    degree t over GF(q) that defines GF(q^t): none for t = 1, else the
    lex-smallest by digit code sum(c_i q^i)."""
    if t == 1:
        return ()
    base = gf(q)
    for digits in product(range(q), repeat=t):  # the last place, c_0, runs fastest
        if is_irreducible(digits[::-1], base):
            return digits[::-1]
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def pack_row(field: GF, codes: Sequence[int]) -> int:
    """The packed row of the element codes `codes`, column 0 highest, each
    checked to lie in [0, q)."""
    q, w, enc, v = field.q, field.width, field.enc, 0
    for x in codes:
        if not 0 <= x < q:
            raise ValueError(f"entry {x} outside GF({q})")
        v = v << w | enc[x]
    return v


def row_codes(field: GF, row: int, ncols: int) -> Tuple[int, ...]:
    """The element codes of the ncols entries of a packed row."""
    w, dec, mask = field.width, field.dec, (1 << field.width) - 1
    return tuple([dec[row >> s & mask] for s in range((ncols - 1) * w, -1, -w)])


def join_rows(rows: Sequence[int], width: int) -> int:
    """The word of packed rows of `width` bits each, laid end to end, the
    first row highest.  Over 8 rows, the halves are joined and the upper
    moved past the lower, so that no partial sum is copied once per row."""
    k = len(rows)
    if k <= 8:
        return sum(map(lshift, rows, range((k - 1) * width, -1, -width)))
    half = k // 2
    return join_rows(rows[:half], width) << (k - half) * width | join_rows(rows[half:], width)


def split_rows(words: Iterable[int], k: int, width: int) -> Iterator[Tuple[int, ...]]:
    """The k rows of `width` bits of each word, a tuple per word, made as
    they are read (the inverse of `join_rows`)."""
    mask = (1 << width) - 1
    return zip(*[map(and_, map(rshift, each, repeat(s)), repeat(mask))
                 for each, s in zip(tee(words, k), range((k - 1) * width, -1, -width))])


@lru_cache(maxsize=None)  # one entry per field and modulus in use
def _modulus_row(f: GF, modulus: Tuple[int, ...]) -> int:
    return pack_row(f, modulus[::-1])


def times_x(f: GF, v: int, modulus: Sequence[int]) -> int:
    """x v mod the modulus, v and the result rows of t = len(modulus)
    entries over f: v moves up one entry, and an entry c that spills past
    t comes back as c x^t = -c (the modulus's lower terms)."""
    shift = (len(modulus) - 1) * f.width
    top = v >> shift
    v = (v ^ top << shift) << f.width
    if top:
        v = f.row_sub(v, f.row_scale(_modulus_row(f, modulus), f.dec[top]))
    return v


def x_power(e: int, f: GF, modulus: Sequence[int]) -> int:
    """x^e mod the modulus, a row as for `times_x` (the row 1 is the
    polynomial 1), by square-and-multiply."""
    v, square = 1, 1 << f.width  # the rows of 1 and x
    while e:
        if e & 1:
            v = _times(f, v, square, modulus)
        e >>= 1
        if e:
            square = _times(f, square, square, modulus)
    return v


def _times(f: GF, a: int, b: int, modulus: Sequence[int]) -> int:
    """a b mod the modulus by Horner's rule: for each entry c of b, highest
    first, the running sum is multiplied by x and c a is added."""
    w = f.width
    out, mask = 0, (1 << w) - 1
    for i in range((len(modulus) - 1) * w, -1, -w):
        out = times_x(f, out, modulus)
        c = b >> i & mask
        if c:
            out = f.row_add(out, f.row_scale(a, f.dec[c]))
    return out


def is_irreducible(coeffs: Sequence[int], base: GF) -> bool:
    """Whether the monic x^deg + sum(coeffs[i] x^i) over `base`, deg >= 1,
    is irreducible, by trial division on rows by every monic polynomial of
    degree 1 to deg / 2.  A monic divisor needs no inverse: each step
    subtracts the divisor, times the leading entry, shifted under it."""
    deg, w, dec = len(coeffs), base.width, base.dec
    if coeffs[0] == 0:  # x divides it
        return deg == 1
    poly, mask = pack_row(base, (1, *coeffs[::-1])), (1 << w) - 1
    for dd in range(1, deg // 2 + 1):
        for lower in product(base.enc, repeat=dd):
            den, num = 1, poly
            for e in lower:
                den = den << w | e
            for i in range((deg - dd) * w, -1, -w):
                top = num >> i + dd * w & mask
                if top:
                    num = base.row_sub(num, base.row_scale(den, dec[top]) << i)
            if not num:
                return False
    return True

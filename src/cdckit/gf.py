"""Exact arithmetic over GF(q) and its extensions GF(q^m).

Field elements are integer codes.  For GF(p^d) the code in [0, p^d) is read
as the base-p digit vector of the residue polynomial: digit i is the
coefficient of x^i.  For ExtField(GF(q), m) the code in [0, q^m) is read the
same way with base-q digits, each digit itself a GF(q) element code.

Moduli come from a fixed table (lexicographically smallest monic irreducible
polynomial, by digit code) so that element encodings are bit-exact across
runs; anything not in the table is found by the same deterministic search.

Matrix rows over GF(q) are packed ints (see `matrices`): each entry takes a
fixed `width` of 1, 2, 4 or 8 bits, column 0 highest.  In characteristic 2
an entry is stored as its element code, so XOR adds rows.  For odd p each
base-p digit takes its own nibble, or its own byte when 2(p - 1) > 15, so an
int sum adds digit-wise without carries and one `translate` reduces every
digit mod p.  Both encodings increase with the element code, so packed rows
order as their entries do.  A width dividing 8 keeps whole entries in each
byte, and scaling a row by c is one `translate` by a 256-byte table.  Only
fields with such an encoding are supported: q = 2^m <= 256, q in
{3, 5, 7, 9, 25, 49} and the primes 11 <= p <= 127.
"""

from __future__ import annotations

import math
from operator import xor
from typing import Sequence, Tuple

from .errors import InversionOfZero, MixedFields

# (p, degree) -> coefficients (c_0, ..., c_{deg-1}) of the monic modulus
# x^deg + c_{deg-1} x^{deg-1} + ... + c_0.  Lex-smallest irreducible by code
# sum(c_i * p^i); verified by trial division in the test suite.
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


def _small_prime(p: int) -> bool:
    if p < 2:
        return False
    for f in range(2, int(p**0.5) + 1):
        if p % f == 0:
            return False
    return True


class GF:
    """The field GF(p^degree) with integer-coded elements.

    Use the :func:`gf` factory to get cached canonical instances.
    """

    def __init__(self, p: int, degree: int = 1):
        if not _small_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("degree must be positive")
        q = p**degree
        self.p = p
        self.degree = degree
        self.q = q
        if degree == 1:
            self.modulus: Tuple[int, ...] = ()
        elif (p, degree) in _MODULUS_TABLE:
            self.modulus = _MODULUS_TABLE[(p, degree)]
        else:
            self.modulus = _search_modulus(gf(p), degree)
        if degree > 1:
            base = gf(p)
            self._exp, self._log = _build_log_tables(
                q, lambda a, b: _poly_mul_code(a, b, base, self.modulus)
            )
        self._row_tables()

    def _row_tables(self) -> None:
        """The row encoding and its tables: `enc` and `dec` between element
        codes and entry values, `mul_rows[c]` scaling each entry of a byte
        by c, `negs` and `invs` of each element, and for odd p `mod_rows`,
        reducing each digit of a byte mod p.  `row_add` adds two packed rows."""
        p, q = self.p, self.q
        if p == 2:
            digit, self.width = 1, next(w for w in (1, 2, 4, 8) if self.degree <= w)
        else:
            digit = 4 if p <= 7 else 8
            self.width = digit * self.degree
        w = self.width
        self.enc = [sum((x // p**i % p) << digit * i for i in range(self.degree))
                    for x in range(q)]
        self.dec = [0] * (1 << w)
        for x, e in enumerate(self.enc):
            self.dec[e] = x

        def per_byte(entry):
            """The byte table applying `entry` to each w-bit entry of a byte."""
            table = one = [entry(e) for e in range(1 << w)]
            for _ in range(8 // w - 1):
                table = [(hi << w) | lo for hi in table for lo in one]
            return bytes(table)

        self.mul_rows = [per_byte(lambda e: self.enc[self.mul(c, self.dec[e])])
                         for c in range(q)]
        self.negs = [self.neg(x) for x in range(q)]
        self.invs = [0] + [self.inv(x) for x in range(1, q)]
        if p == 2:
            self.row_add = xor
        else:
            ones = (1 << digit) - 1
            self.mod_rows = per_byte(lambda e: sum(
                (e >> i & ones) % p << i for i in range(0, w, digit)))
            self.row_add = self._add_digits

    def _add_digits(self, a: int, b: int) -> int:
        """The sum of two packed rows over odd p: digit-wise, then mod p."""
        s = a + b
        return int.from_bytes(s.to_bytes((s.bit_length() + 7) >> 3, "big")
                              .translate(self.mod_rows), "big")

    def row_scale(self, row: int, c: int) -> int:
        """The packed row times the element c."""
        if c == 1:
            return row
        return int.from_bytes(row.to_bytes((row.bit_length() + 7) >> 3, "big")
                              .translate(self.mul_rows[c]), "big")

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, shift = self.p, 0, 1
        while a or b:
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, shift = self.p, 0, 1
        while a:
            out += (-a % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InversionOfZero("0 has no multiplicative inverse")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.degree == 1:
            return pow(a, e, self.p) if e else 1 % self.p
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self):
        return range(self.q)


def same_field(a: GF, b: GF) -> GF:
    if a is not b and a != b:
        raise MixedFields(f"operands from {a} and {b}")
    return a


_CACHE: dict = {}


def gf(q: int) -> GF:
    """Canonical GF(q) for a prime power q with a one-byte row encoding (see
    the module docstring), with the fixed modulus table."""
    if q in _CACHE:
        return _CACHE[q]
    # q <= 256 before factoring, which takes sqrt(q) steps for a prime q
    p, degree = factor_prime_power(q) if q <= 256 else (0, 0)
    if not (p == 2 or 2 < p <= 7 and degree <= 2 or 11 <= p <= 127 and degree == 1):
        raise ValueError(f"GF({q}) is not supported: build and verify need q = 2^m <= 256, "
                         f"q in {{3, 5, 7, 9, 25, 49}} or a prime 11 <= q <= 127")
    fld = GF(p, degree)
    _CACHE[q] = fld
    return fld


def factor_prime_power(q: int) -> Tuple[int, int]:
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


# -- polynomial helpers over an arbitrary coefficient field -----------------


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


def _poly_mul_code(a: int, b: int, base: GF, modulus: Sequence[int]) -> int:
    """Multiply residue polynomials given as base-q digit codes."""
    q = base.q
    deg = len(modulus)
    pa = _code_to_poly(a, q)
    pb = _code_to_poly(b, q)
    prod = [0] * (len(pa) + len(pb) - 1) if pa and pb else []
    for i, ca in enumerate(pa):
        if ca == 0:
            continue
        for j, cb in enumerate(pb):
            if cb:
                prod[i + j] = base.add(prod[i + j], base.mul(ca, cb))
    # reduce by x^deg = -modulus
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        prod[i] = 0
        for j, mj in enumerate(modulus):
            if mj:
                prod[i - deg + j] = base.sub(prod[i - deg + j], base.mul(c, mj))
    return _poly_to_code(prod, q)


def _poly_divmod(num: list, den: list, base: GF):
    num = list(num)
    dd = len(den) - 1
    lead_inv = base.inv(den[-1])
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = base.mul(c, lead_inv)
        quot[i - dd] = f
        for j, cj in enumerate(den):
            num[i - dd + j] = base.sub(num[i - dd + j], base.mul(f, cj))
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def is_irreducible(coeffs: Sequence[int], base: GF) -> bool:
    """Trial division of the monic poly x^deg + sum(coeffs[i] x^i)."""
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
            _, rem = _poly_divmod(poly, den, base)
            if not rem:
                return False
    return True


def _search_modulus(base: GF, degree: int) -> Tuple[int, ...]:
    """Lex-smallest (by digit code) monic irreducible of given degree."""
    q = base.q
    for code in range(q**degree):
        poly = _code_to_poly(code, q)
        coeffs = tuple(poly) + (0,) * (degree - len(poly))
        if is_irreducible(coeffs, base):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def _factorize(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _build_log_tables(q: int, mul):
    """exp/log tables from the smallest primitive element code."""
    factors = _factorize(q - 1)
    for g in range(2, q):
        ok = True
        for f in factors:
            e = (q - 1) // f
            # compute g^e by square-and-multiply with `mul`
            acc, b, ee = 1, g, e
            while ee:
                if ee & 1:
                    acc = mul(acc, b)
                b = mul(b, b)
                ee >>= 1
            if acc == 1:
                ok = False
                break
        if ok:
            exp = [1] * (q - 1)
            log = [0] * q
            x = 1
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                x = mul(x, g)
            return exp, log
    raise RuntimeError("no primitive element found")  # pragma: no cover


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
            self.modulus = _search_modulus(base, m)
        if m == 1:
            self._exp, self._log = None, None
        else:
            self._exp, self._log = _build_log_tables(
                self.order, lambda a, b: _poly_mul_code(a, b, base, self.modulus)
            )

    def __repr__(self):
        return f"ExtField(GF({self.base.q}), m={self.m})"

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return self.base.mul(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0."""
        if self.m == 1:
            return self.base.pow(a, e)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def expand(self, a: int) -> Tuple[int, ...]:
        """Coordinates of `a` over the polynomial basis, as GF(q) element codes."""
        q = self.base.q
        return tuple((a // q**i) % q for i in range(self.m))

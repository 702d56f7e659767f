"""Field arithmetic: axioms, moduli, tables, prime powers, Frobenius, expansion.

The package's polynomials over GF(q) are packed rows, and its only GF(q^m)
arithmetic is multiplication by x (`gf.times_x`) and powers of x
(`gf.x_power`).  Each GF(q) is its row tables; every supported field's
tables are checked against integers mod p or `oracles.ExtField`.  The
row-wise modulus search is checked against the pinned
`oracles._MODULUS_TABLE` and the scalar trial division
`oracles.search_modulus`, and the row powers of x against `ExtField`'s.
The Frobenius and expansion tests check `oracles.ExtField`, the exp/log
table field the Gabidulin generators are compared against.  They add in
GF(q^m) coordinate-wise with `oracles.ext_add`, and take the Frobenius
x -> x^q as a power.  `factor_prime_power` and `is_prime` are checked
against trial division and a sieve, and on primes far beyond either.
"""

from __future__ import annotations

import random
import time
from itertools import product, repeat

import pytest

from cdckit.gf import _MR_EXACT_BELOW, GF, _iroot, _times, factor_prime_power, field_modulus, \
    gf, is_irreducible, is_prime, join_rows, pack_row, row_codes, split_rows, times_x, x_power
from oracles import _MODULUS_TABLE, ExtField, MixedFields, bytes_row_add, bytes_row_scale, \
    ext_add, neg, same_field, search_modulus, sub, trial_factor_prime_power

SMALL_Q = (2, 3, 4, 5, 7, 8, 9)
# every q with a row encoding: 2^m <= 256, 3, 5, 7, 9, 25, 49, primes to 127
SUPPORTED_Q = sorted({2**m for m in range(1, 9)} | {3, 5, 7, 9, 25, 49}
                     | {p for p in range(11, 128) if is_prime(p)})


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = gf(q)
    els = list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, neg(f, a)) == 0
        if a:
            assert f.mul(a, f.invs[a]) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf2_add():
    assert gf(2).add(1, 1) == 0


def test_gf4_mul_example():
    # elements as polynomial codes {0, 1, 2=x, 3=x+1}; x*x = x+1 mod x^2+x+1
    assert gf(4).mul(2, 2) == 3


def test_gf7_inverse():
    assert gf(7).invs[3] == 5
    assert 3 * 5 % 7 == 1


def test_same_field_rejects_mixed_fields():
    with pytest.raises(MixedFields):
        same_field(gf(4), gf(8))


def test_elements_stay_in_range():
    for q in SMALL_Q:
        f = gf(q)
        for a in range(q):
            for b in range(q):
                assert 0 <= f.add(a, b) < q
                assert 0 <= f.mul(a, b) < q


def test_modulus_table_irreducible():
    # trial division confirms every fixed modulus; degrees beyond 8 are
    # cheap over GF(2)/GF(3) so check them all
    for (p, deg), coeffs in _MODULUS_TABLE.items():
        assert is_irreducible(coeffs, gf(p)), (p, deg)


@pytest.mark.parametrize("p,deg", sorted(_MODULUS_TABLE))
def test_modulus_table_is_lex_smallest(p, deg):
    assert _MODULUS_TABLE[(p, deg)] == search_modulus(gf(p), deg)
    assert field_modulus(p, deg) == _MODULUS_TABLE[(p, deg)]


def test_one_field_per_q():
    assert len(SUPPORTED_Q) == 41
    for q in SUPPORTED_Q:
        assert gf(q) is gf(q)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_tables_match_independent_arithmetic(q):
    # the scalar ops read the row tables the kernels use; here they meet
    # arithmetic that shares no table of GF(q) with them: integers mod p,
    # and for p^e the exp/log field over the pinned modulus with digit-wise
    # sums, whose digit arithmetic is GF(p)'s, checked by the prime case
    f = gf(q)
    p, e = factor_prime_power(q)
    els = range(q)
    # `row_scale` on rows of several entries reads whole bytes of mul_rows,
    # so every entry of a byte must be scaled, checked against `mul`
    rng = random.Random(-q)
    for _ in range(40):
        a, c = [rng.randrange(q) for _ in range(9)], rng.randrange(q)
        scaled = f.row_scale(pack_row(f, a), c)
        assert row_codes(f, scaled, 9) == tuple(f.mul(c, x) for x in a)
    # `row_add` and `row_sub` on rows of one byte and of several (over odd
    # p entries are 4 or 8 bits wide): digit-wise sums and differences mod
    # p, and in characteristic 2 both XOR
    rng = random.Random(q)
    for n in (1, 2, 3, 9):
        for _ in range(60):
            a, b = ([rng.randrange(q) for _ in range(n)] for _ in "ab")
            x, y = pack_row(f, a), pack_row(f, b)
            if p == 2:
                assert f.row_add(x, y) == f.row_sub(x, y) == x ^ y
                continue
            assert row_codes(f, f.row_add(x, y), n) == tuple(
                sum((u // p**i + v // p**i) % p * p**i for i in range(e)) for u, v in zip(a, b))
            assert row_codes(f, f.row_sub(x, y), n) == tuple(map(sub, repeat(f), a, b))

    def minus(a, b):  # a - b by `row_sub` on one-entry rows
        return f.dec[f.row_sub(f.enc[a], f.enc[b])]

    if e == 1:
        for a in els:
            if a:
                assert f.invs[a] == pow(a, p - 2, p)
            for b in els:
                assert (f.add(a, b), minus(a, b), sub(f, a, b), f.mul(a, b)) == \
                    ((a + b) % p, (a - b) % p, (a - b) % p, a * b % p)
        return
    ext = ExtField(gf(p), e)
    assert ext.modulus == _MODULUS_TABLE[p, e] == f.modulus
    for a in els:
        assert ext_add(ext, a, neg(f, a)) == 0
        if a:
            assert f.invs[a] == ext.pow(a, q - 2)
        for b in els:
            assert f.add(a, b) == ext_add(ext, a, b)
            assert ext_add(ext, minus(a, b), b) == ext_add(ext, sub(f, a, b), b) == a
            assert f.mul(a, b) == ext.mul(a, b)


@pytest.mark.parametrize("q", [q for q in SUPPORTED_Q if q % 2])
def test_odd_p_row_arithmetic_matches_the_byte_tables(q):
    # over odd p, `row_add`, `row_sub` and `add_rows` reduce every digit on
    # the int itself; the byte-table formulas they replaced are the
    # reference, for them and for `row_scale` by -1: a - b is a plus b
    # scaled by -1 = p - 1.  Operands, in both orders: every pair of
    # one-byte rows (sums below 256), zero rows, seeded rows of 1 to 300
    # entries, and words of k rows end to end.  A fresh field, whose
    # constants are made by size class as its operands need them, meets
    # short rows, then long ones, then short ones again; another subtracts
    # a long row first
    p, e = factor_prime_power(q)
    rng = random.Random(7100 + q)
    short = [pack_row(gf(q), codes) for codes in product(range(q), repeat=8 // gf(q).width)]
    rows = [0]
    for n in (1, 2, 3, 7, 300, 1, 40, 300):
        rows += [pack_row(gf(q), [rng.randrange(q) for _ in range(n)]) for _ in range(4)]
    for k, n in ((3, 6), (4, 8), (6, 9)):
        rows += [join_rows([pack_row(gf(q), [rng.randrange(q) for _ in range(n)])
                            for _ in range(k)], n * gf(q).width) for _ in range(4)]
    pairs = [(a, b) for a in short for b in short] + [(0, x) for x in rows] + \
        list(zip(rows, rows[1:])) + [(x, x) for x in rows]
    minus = p - 1
    for f in (GF(p, e), gf(q)):
        for a, b in pairs:
            assert f.row_add(a, b) == bytes_row_add(f, a, b)
            assert f.row_sub(a, b) == bytes_row_add(f, a, bytes_row_scale(f, b, minus))
            assert f.row_sub(b, a) == bytes_row_add(f, b, bytes_row_scale(f, a, minus))
        for x in short + rows:
            assert f.row_scale(x, minus) == bytes_row_scale(f, x, minus)
            assert f.row_add(x, f.row_scale(x, minus)) == f.row_sub(x, x) == 0
        for c in range(q):
            assert f.row_scale(rows[-1], c) == bytes_row_scale(f, rows[-1], c)
        left, right = zip(*pairs)
        assert f.add_rows(left, right) == [bytes_row_add(f, a, b) for a, b in pairs]
        assert f.add_rows([], []) == []
    # a fresh field whose first long operand is a batch
    fresh = GF(p, e)
    assert fresh.add_rows(rows, rows[1:]) == list(map(bytes_row_add, repeat(fresh), rows, rows[1:]))
    # a fresh field whose first operand is a long subtrahend
    fresh = GF(p, e)
    for a in (rows[1], rows[-1]):
        assert fresh.row_sub(a, rows[-1]) == \
            bytes_row_add(fresh, a, bytes_row_scale(fresh, rows[-1], minus))


def test_field_modulus_is_the_fields_own():
    # one rule for GF(p^e) over GF(p) and GF(q^t) over GF(q): t = 1 has none
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 49, 256):
        assert field_modulus(q, 1) == ()
        p, e = factor_prime_power(q)
        assert gf(q).modulus == field_modulus(p, e)
    assert all(is_prime(p) for p, _ in _MODULUS_TABLE)  # the table is over prime bases
    assert field_modulus(2, 8) == _MODULUS_TABLE[2, 8]
    assert is_irreducible(field_modulus(16, 5), gf(16))


# every (q, t) with t >= 2 and q^t <= 4096, non-prime bases 4, 8, 9 and 16 too
ROW_CASES = [(q, t) for q in SUPPORTED_Q for t in range(2, 13) if q**t <= 4096]


def test_row_modulus_search_matches_the_scalar_search():
    # the package divides whole rows; the oracle divides coefficient by
    # coefficient through the scalar ops and `invs`
    assert len(ROW_CASES) == 56 and {4, 8, 9, 16} <= {q for q, _ in ROW_CASES}
    for q, t in ROW_CASES:
        assert field_modulus(q, t) == search_modulus(gf(q), t), (q, t)


@pytest.mark.parametrize("q,t", ROW_CASES)
def test_row_powers_of_x_match_the_table_field(q, t):
    # x_power and times_x on rows against the exp/log field's powers of x
    # (the code q) and products: seeded exponents, some beyond q^t, and the
    # Gabidulin exponents l + j q^i
    f, modulus, ext = gf(q), field_modulus(q, t), ExtField(gf(q), t)
    assert ext.modulus == modulus

    def as_row(code):
        return sum(f.enc[c] << i * f.width for i, c in enumerate(ext.expand(code)))

    rng = random.Random(q * 100 + t)
    exponents = [0, 1, t, q**t - 1, q**t, q**t + 1] + [rng.randrange(3 * q**t) for _ in range(8)]
    exponents += [l + j * q**i for i in range(t) for j in range(t) for l in range(t)
                  if l + j * q**i < 4 * q**t]
    for e in exponents:
        v = rng.randrange(1, q**t)
        assert x_power(e, f, modulus) == as_row(ext.pow(q, e)), (q, t, e)
        assert (_times(f, as_row(v), x_power(e, f, modulus), modulus)
                == as_row(ext.mul(v, ext.pow(q, e))))
        assert times_x(f, as_row(v), modulus) == as_row(ext.mul(v, q))


def test_join_rows_is_the_sum_of_the_moved_rows():
    # past 8 rows the halves are joined and the upper moved past the lower:
    # at every k the word is each row moved to its slot, summed, and
    # `split_rows` gives the rows back.  2,000 rows of 8,008 bits join in
    # linear time, not in the seconds a running sum takes
    rng = random.Random(35)
    for k in [*range(21), 1000]:
        for width in (1, 8, 13):
            rows = tuple(rng.getrandbits(width) for _ in range(k))
            word = join_rows(rows, width)
            assert word == sum(r << (k - 1 - i) * width for i, r in enumerate(rows)), (k, width)
            assert list(split_rows([word], k, width)) == ([rows] if k else []), (k, width)
    rows = [rng.getrandbits(8008) for _ in range(2000)]
    t0 = time.perf_counter()
    word = join_rows(rows, 8008)
    assert time.perf_counter() - t0 < 0.25
    assert word >> 1999 * 8008 == rows[0] and word & (1 << 8008) - 1 == rows[-1]


def _sieve(limit):
    prime = [False, False] + [True] * (limit - 2)
    for f in range(2, int(limit**0.5) + 1):
        if prime[f]:
            prime[f * f::f] = [False] * len(range(f * f, limit, f))
    return prime


def _outcome(fn, q):
    try:
        return fn(q)
    except ValueError as exc:
        return str(exc)


def test_factor_prime_power_matches_trial_division():
    for q in range(-2, 200_000):
        assert _outcome(factor_prime_power, q) == _outcome(trial_factor_prime_power, q), q


def test_is_prime_matches_a_sieve():
    prime = _sieve(200_000)
    assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if prime[n]]


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    561, 1105, 2**32 + 1, 65537 * 65539,
])
def test_is_prime_rejects_pseudoprimes_and_composites(n):
    assert not is_prime(n)


# 2^64 - 59, 2^79 - 67 and bound - 168 are the largest primes below 2^64,
# 2^79 and the bound of the exact range
@pytest.mark.parametrize("p", [65537, 2**31 - 1, 4294967311, 2**61 - 1, 2**64 - 59,
                               2**79 - 67, _MR_EXACT_BELOW - 168])
def test_large_prime_powers_are_factored(p):
    # p^e has no factor below 2^16, so above 2^32 the root test decides it
    assert is_prime(p)
    for e in (1, 2, 3, 6, 35):
        assert factor_prime_power(p**e) == (p, e)


def test_iroot_is_the_floor_of_the_root():
    # the float estimate must start Newton's method above the root: checked
    # at exact powers, one either side of them, and random n up to 4000 bits
    rng = random.Random(11)
    for _ in range(1500):
        e = rng.randrange(1, 60)
        n = rng.getrandbits(rng.randrange(1, 4000)) + 1
        if rng.random() < 0.5:
            n = max(1, (rng.getrandbits(rng.randrange(1, 200)) + 1)**e + rng.choice((-1, 0, 1)))
        r = _iroot(n, e)
        assert r**e <= n < (r + 1)**e, (n, e)


def test_large_q_that_are_not_prime_powers_are_refused():
    # below 2^32 trial division decides; above, a root below the bound
    for q in (0, 1, 65537 * 65539, 65537**2 * 65539, (65537 * 65539)**6,
              65537**5 * 65539**10, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(q)


def test_a_root_beyond_the_exact_range_is_refused():
    # the bound is itself a composite that passes Miller-Rabin to all 13
    # bases; no root at or above it is tested, prime (2^89 - 1) or not
    p = 2**89 - 1
    for q in (_MR_EXACT_BELOW, (2**31 - 1) * (2**61 - 1), (2**61 - 1)**2 * (2**31 - 1),
              p, p**2):
        with pytest.raises(ValueError, match="too large to test"):
            factor_prime_power(q)


def test_a_long_int_is_named_by_its_length_in_errors():
    # up to 30 digits an error shows the int as before; beyond, it gives the
    # digit count, which is exact on both sides of each power of ten and
    # is counted without str, so past Python's 4,300-digit limit too
    assert _outcome(factor_prime_power, 10**30 - 1) == f"{10**30 - 1} is not a prime power"
    assert _outcome(factor_prime_power, -(10**30 - 1)) == f"{-(10**30 - 1)} is not a prime power"
    assert _outcome(factor_prime_power, 2**89 - 1) == \
        f"{2**89 - 1} is too large to test: primality is exact only below 3.317e24"
    for digits in (31, 32, 100, 4000, 4301, 9000):
        for q in (10**(digits - 1), 10**digits - 1, 2 * 10**(digits - 1) + 2):
            assert _outcome(factor_prime_power, q) == f"a {digits}-digit q is not a prime power"
        assert _outcome(factor_prime_power, -10**(digits - 1)) == \
            f"a {digits}-digit negative q is not a prime power"
    # a composite of two primes beyond 2^16 reaches the primality test
    q = (2**127 - 1) * (2**521 - 1)
    assert _outcome(factor_prime_power, q) == (
        "a 196-digit number is too large to test: primality is exact only below 3.317e24")


def _frobenius(ext, x):
    return ext.pow(x, ext.base.q)


def test_frobenius_fixed_points():
    ext = ExtField(gf(2), 3)
    assert _frobenius(ext, 0) == 0
    assert _frobenius(ext, 1) == 1


def test_frobenius_is_squaring_on_gf4():
    ext = ExtField(gf(2), 2)
    for x in range(ext.order):
        assert _frobenius(ext, x) == ext.mul(x, x)
        assert _frobenius(ext, _frobenius(ext, x)) == x


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 6), (2, 12), (3, 4), (3, 7),
                                 (4, 3), (5, 3), (8, 2), (9, 2)])
def test_frobenius_periodicity(q, m):
    ext = ExtField(gf(q), m)
    assert ext.order <= 4096 * 2048  # sanity on the test itself
    step = max(1, ext.order // 97)
    for x in range(0, ext.order, step):
        y = x
        for _ in range(m):
            y = _frobenius(ext, y)
        assert y == x


def test_frobenius_linearity():
    ext = ExtField(gf(3), 3)
    for x in range(0, ext.order, 5):
        for y in range(0, ext.order, 7):
            assert _frobenius(ext, ext_add(ext, x, y)) == ext_add(
                ext, _frobenius(ext, x), _frobenius(ext, y))


def test_expand_injective_on_gf8():
    ext = ExtField(gf(2), 3)
    images = {ext.expand(x) for x in range(ext.order)}
    assert len(images) == 8
    assert all(len(t) == 3 for t in images)


def test_expand_linear():
    ext = ExtField(gf(3), 2)
    f = gf(3)
    for x in range(ext.order):
        for y in range(ext.order):
            left = ext.expand(ext_add(ext, x, y))
            right = tuple(f.add(a, b) for a, b in zip(ext.expand(x), ext.expand(y)))
            assert left == right


def test_non_prime_base_extension():
    ext = ExtField(gf(4), 2)  # GF(16) as a degree-2 extension of GF(4)
    assert ext.order == 16
    for x in range(1, ext.order):
        assert ext.mul(x, ext.pow(x, ext.order - 2)) == 1
    for x in range(ext.order):
        y = _frobenius(ext, _frobenius(ext, x))  # q=4 Frobenius has order 2
        assert y == x

"""Exact q-combinatorics: Gauss coefficients, MRD sizes, rank distributions.

Everything returns plain Python ints; the table values downstream reach
~10^52 so nothing here may round or overflow.  All four are pure and
cached per process: the parameter search asks for the same few thousand
arguments hundreds of thousands of times.  An error is not cached, so an
argument out of range raises on every call.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidDistance, OutOfRange


@lru_cache(maxsize=None)
def gauss_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):  # [n choose k]_q = [n choose n-k]_q
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


@lru_cache(maxsize=None)
def mrd_size(q: int, a: int, b: int, d: int) -> int:
    """Cardinality of a maximum rank-distance code in a x b matrices."""
    if not 1 <= d <= min(a, b):
        raise InvalidDistance(f"need 1 <= d <= min(a,b), got d={d}, a={a}, b={b}")
    return q ** (max(a, b) * (min(a, b) - d + 1))


@lru_cache(maxsize=None)
def delsarte_rank_count(q: int, a: int, b: int, d: int, u: int) -> int:
    """Number of rank-u codewords in an MRD code of minimum distance d."""
    if d < 1:
        raise InvalidDistance(f"need d >= 1, got d={d}")
    lo, hi = d, min(a, b)
    if not lo <= u <= hi:
        raise OutOfRange(f"need d <= u <= min(a,b), got u={u}, d={d}, a={a}, b={b}")
    mx = max(a, b)
    acc = 0
    for s in range(u - d + 1):
        term = q ** (s * (s - 1) // 2) * gauss_binomial(u, s, q) * (q ** (mx * (u - s - d + 1)) - 1)
        acc += -term if s & 1 else term
    return gauss_binomial(min(a, b), u, q) * acc


@lru_cache(maxsize=None)
def bounded_rank_size(q: int, a: int, b: int, d: int, u: int) -> int:
    """1 + sum of rank-i counts for d <= i <= u; the `+1` is the zero matrix.

    0 <= u < d leaves only the zero matrix; u = min(a,b) recovers the full
    MRD cardinality.
    """
    if d < 1:
        raise InvalidDistance(f"need d >= 1, got d={d}")
    if u < 0:
        raise OutOfRange(f"rank cap u={u} is negative")
    if u > min(a, b):
        raise OutOfRange(f"rank cap u={u} exceeds min(a,b)={min(a, b)}")
    total = 1
    for i in range(d, u + 1):
        total += delsarte_rank_count(q, a, b, d, i)
    return total

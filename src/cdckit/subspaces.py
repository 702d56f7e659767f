"""Canonical subspaces, subspace distance and distance verification.

A subspace is stored by the unique RREF of any generator matrix, so equal
subspaces have equal rows.  A `Subspace` holds its field, n, the packed
rows of its RREF (see `matrices`) as a tuple, and their pivot columns;
`Subspace.mat` makes a `Matrix` view on each read, for readers of entries.
`codeword` is the one way a subspace is made from packed rows: rows given
with their pivots are trusted to be in RREF, and any others are reduced.
The constructions do their own lifting: a linkage word's (U1 | M2) rows
and a multilevel insert's rows beside the identity blocks of its
special-form vector come with their pivots.  A `CDC` sorts its words by
their rows and finds duplicates as equal neighbours.

A pair's distance 2*rank(stack) - dim U - dim V takes one elimination of
V's rows against U's, which already form a reduced basis, and a pair stops
once it cannot beat the running minimum.  Sampled verification draws its
pairs by `getrandbits` with rejection, the same pairs `randrange` draws.
Exhaustive verification instead finds the highest t at which two
codewords share a t-subspace, and compares pairs only when they are fewer
than the keys.  At t = k, equal words are sorted neighbours.  Below it,
each codeword's [k t]_q t-subspaces are keyed by their concatenated packed
rows: for each choice of t of its rows, one base plus every combination of
the rows they may add, each shifted to its place in the key, for up to 128
words of one pivot tuple at once; a group is keyed again, for holders, only
where a pass at one bit per key finds a repeat.  For a code of N words, the
first N pairs bound the minimum beforehand, and only the levels whose
distance is below that bound are keyed.  The CDC file format
renders and checks each distinct row once, checks the RREF of each
record through a mask shared by every record of its rows' bit lengths,
keeps a record that is already in RREF as it is, and refuses a header
that claims d < 1, which any two words would meet.  A file is written to
and read from an open text file about 64 KiB at a time, so neither its
whole text nor a list of its lines is held: at 10^6 words the text alone
is over 100 MB.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, cycle, islice
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .counting import gauss_binomial
from .errors import InvalidParameters, PairLimitExceeded
from .gf import GF, gf
from .matrices import Matrix, mat_rref, pack_row, rank_added, row_codes, rref_pivots

_BATCH = 128  # the words keyed at a time, which bounds the transient key lists


def pair_limit() -> int:
    return int(os.environ.get("CDCKIT_PAIR_LIMIT", 10**9))


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical RREF form: the
    packed rows of its RREF, a tuple, and their pivot columns."""

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field: GF, n: int, rows: Tuple[int, ...], pivots: Tuple[int, ...]):
        self.field = field
        self.n = n
        self.rows = rows
        self.pivots = pivots

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def mat(self) -> Matrix:
        """The RREF as a `Matrix`, made anew on each read, for readers of
        entries."""
        return Matrix.from_packed(self.field, self.n, self.rows)

    def key(self) -> tuple:
        """Orders subspaces of one (n, k) as their RREF entry tuples do."""
        return self.rows

    def __repr__(self):
        return f"Subspace(GF({self.field.q})^{self.n}, dim={self.k})"


def codeword(f: GF, n: int, rows: Sequence[int],
             pivots: Optional[Tuple[int, ...]] = None) -> Subspace:
    """The subspace spanned by packed rows of n entries of f.  Rows given
    with their `pivots` are trusted to be in RREF with those pivot columns;
    any others are reduced, and rank-deficient rows are refused."""
    if pivots is None:
        mat, pivots = mat_rref(Matrix.from_packed(f, n, rows))
        if len(pivots) < mat.nrows:
            raise ValueError("rows are linearly dependent")
        rows = mat.packed
    return Subspace(f, n, tuple(rows), pivots)


class CDC:
    """Container for a constant-dimension code; codewords kept sorted by
    their RREF rows so files and comparisons are canonical.

    Constructions require distinct codewords; files loaded for verification
    may carry duplicates (strict=False), which the verifier then reports as
    distance-0 witnesses.
    """

    def __init__(self, q: int, n: int, k: int, d: int, codewords: Iterable[Subspace],
                 strict: bool = True):
        self.q = q
        self.n = n
        self.k = k
        self.d = d
        words = sorted(codewords, key=attrgetter("rows"))
        prev = None
        for w in words:
            if w.n != n or w.k != k or w.field.q != q:
                raise InvalidParameters("codeword does not match container parameters")
            if strict and w.rows == prev:  # sorted, so equal words are neighbours
                raise InvalidParameters("duplicate codeword")
            prev = w.rows
        self.codewords = words

    def __len__(self):
        return len(self.codewords)

    def __iter__(self):
        return iter(self.codewords)

    def __repr__(self):
        return f"CDC(({self.n}, {len(self)}, {self.d}, {self.k})_{self.q})"


@dataclass
class VerifyReport:
    """The least distance found and its witness pair.  `pairs_checked` is
    N(N-1)/2 in exhaustive mode; in sample mode it is the number of draws,
    which are made with replacement, so a pair drawn twice counts twice
    (three draws on a two-word code report 3)."""

    min_found: float
    witness: Optional[Tuple[int, int]]
    pairs_checked: int
    mode: str
    seed: Optional[int] = None

    def ok(self, claimed_d: int) -> bool:
        """A verification that checked no pair proves nothing, so it fails."""
        return self.pairs_checked > 0 and self.min_found >= claimed_d


def _min_pair(code: CDC, pairs: Iterable[Tuple[int, int]]):
    """Least distance over `pairs` and the first pair that reaches it."""
    words, k = code.codewords, code.k
    f, rows = words[0].field, [w.rows for w in words]
    w = f.width
    zero = [0] * (code.n + 1)
    best, witness = math.inf, None
    stop = k + 1  # best / 2: a pair that adds this many of V's rows cannot win
    for i, j in pairs:
        # d(U, V) = 2 dim(U + V) - 2k = 2 * (rows of V outside U).  U's rows
        # are in RREF with leading 1s, so each goes straight into the basis
        # slot of its leading entry, and only V's rows are reduced
        basis = zero[:]
        for row in rows[i]:
            basis[(row.bit_length() + w - 1) // w] = row
        added = rank_added(f, basis, rows[j], stop)
        if added < stop:
            best, witness, stop = 2 * added, (i, j), added
            if added == 0:
                break
    return best, witness


def _sampled_pairs(n_words: int, count: int, seed: Optional[int]):
    """`count` seeded pairs i < j.  Each index is drawn as `randrange` draws
    it, by `getrandbits` of the bound's bit length, rejecting values at or
    above the bound, so the pairs are `randrange`'s at a fraction of the
    call cost."""
    bits = random.Random(seed).getrandbits
    m = n_words - 1
    wi, wj = n_words.bit_length(), m.bit_length()
    for _ in range(count):
        i = bits(wi)
        while i >= n_words:
            i = bits(wi)
        j = bits(wj)
        while j >= m:
            j = bits(wj)
        # j is drawn from the other n_words - 1 indices
        yield (i, j + 1) if j >= i else (j, i)


def verify_min_distance(
    code: CDC,
    mode: str = "exhaustive",
    sample_count: int = 0,
    seed: Optional[int] = None,
) -> VerifyReport:
    """Exhaustive or seeded-sample minimum-distance check.

    Exhaustive mode returns the true minimum and the lexicographically
    first witness pair (indices into the sorted codeword list), and counts
    all N(N-1)/2 pairs as checked; sample mode returns the minimum over
    `sample_count` seeded pairs.
    """
    if mode == "sample":
        if sample_count < 1:
            raise InvalidParameters(f"sample count {sample_count} is below 1")
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    n_words = len(code)
    total_pairs = n_words * (n_words - 1) // 2
    if n_words < 2:
        return VerifyReport(math.inf, None, 0, mode, seed)
    if mode == "sample":
        best, witness = _min_pair(code, _sampled_pairs(n_words, sample_count, seed))
        return VerifyReport(best, witness, sample_count, "sample", seed)

    keys = n_words * sum(gauss_binomial(code.k, t, code.q) for t in range(1, code.k + 1))
    if min(total_pairs, keys) > pair_limit():
        raise PairLimitExceeded(f"{total_pairs} pairs and {keys} keys both exceed "
                                f"the limit {pair_limit()}")
    best, witness = _collision_scan(code)
    return VerifyReport(best, witness, total_pairs, "exhaustive")


def _collision_scan(code: CDC) -> Tuple[int, Tuple[int, int]]:
    """Minimum distance of a code with two or more words, and the
    lexicographically first pair at that distance.

    Words U, V share a t-subspace iff d(U, V) <= 2(k - t), so the first
    level t = k, k-1, ..., 1 at which two words share one gives the minimum.
    Level k is read off the sorted words, where equal words are neighbours.
    Below it, for a word's RREF G and a t x k RREF matrix C, C*G is the RREF
    of a t-subspace whose pivots are G's at C's pivot columns c; keys are
    grouped by that pivot set, one group held at a time, and `keys_of`
    keys a batch of words of one pivot tuple for one c.  A first pass finds
    a group's repeated keys; only then a second keys it again for their
    holders, and the first pair is the least (lowest, second-lowest) one.
    The levels hold up to N * sum_t [k t]_q keys; when the N(N-1)/2 pairs
    are fewer, they are compared instead.

    Before any level below k is keyed, the first N pairs in i-major order
    give an upper bound m on the minimum and w, the first of them at
    distance m, and the scan stops before the first level with
    2(k - t) >= m.  This is exact: a level with 2(k - t) < m that collides
    gives its result as before; if none does, no pair is closer than m, so
    m is the minimum; and every pair before w lies in the prefix at a
    distance above m, so w is the first pair at distance m.
    """
    k, q, words = code.k, code.q, code.codewords
    if 2 * sum(gauss_binomial(k, t, q) for t in range(1, k + 1)) >= len(words):
        return _min_pair(code, combinations(range(len(words)), 2))
    # level k: the words' own rows, and equal words sort together
    i = next((i for i in range(len(words) - 1) if words[i].rows == words[i + 1].rows), None)
    if i is not None:
        return 0, (i, i + 1)
    best, witness = _min_pair(code, islice(combinations(range(len(words)), 2), len(words)))
    f = words[0].field
    by_pivots: dict = {}
    for i, w in enumerate(words):
        by_pivots.setdefault(w.pivots, []).append(i)
    shift = code.n * f.width

    def level(t: int) -> Optional[Tuple[int, int]]:
        """The lexicographically first pair sharing a t-subspace, if any."""
        groups: dict = {}
        for c in combinations(range(k), t):
            # row p of C*G, shifted to its place in the key, is G's row c_p
            # plus any combination of G's rows j > c_p outside c
            places = [(r, (t - 1 - p) * shift) for p, r in enumerate(c)]
            spec = (places, [(j, s) for r, s in places for j in range(r + 1, k) if j not in c])
            for piv in by_pivots:
                groups.setdefault(tuple(piv[r] for r in c), {})[piv] = spec

        def keyed(specs):  # each batch of a group's words, and their keys
            for piv, spec in specs.items():
                held = by_pivots[piv]
                for b in range(0, len(held), _BATCH):
                    batch = held[b:b + _BATCH]
                    yield batch, keys_of(f, [words[i].rows for i in batch], spec)

        found = []
        while groups:
            specs = groups.popitem()[1]
            # a key is stored as one bit of a 64-bit mask under key >> 6
            seen, repeated, last = {}, set(), -1
            get = seen.get
            for b, (_, keys) in enumerate(keyed(specs)):
                for key in keys:
                    high = key >> 6
                    old = get(high, 0)
                    new = old | 1 << (key & 63)
                    if new == old:
                        repeated.add(key)
                        last = b
                    else:
                        seen[high] = new
            # every holder is keyed by batch `last`, as a later one would repeat
            holders: dict = {}
            for batch, keys in islice(keyed(specs), last + 1):
                if not repeated.isdisjoint(keys):
                    for x, key in enumerate(keys):
                        if key in repeated:
                            holders.setdefault(key, []).append(batch[x % len(batch)])
            found += [tuple(sorted(h)[:2]) for h in holders.values()]  # first pairs
        return min(found, default=None)

    for t in range(k - 1, k - best // 2, -1):  # the levels below k with 2(k - t) < best
        found = level(t)
        if found is not None:
            return 2 * (k - t), found
    return best, witness


def keys_of(f: GF, rows: List[Tuple[int, ...]], spec) -> List[int]:
    """The keys of the t-subspaces C*G of the words with RREF rows G in
    `rows`, words of one pivot tuple, for one pivot choice C: `spec` is the
    (row, shift) pairs of C's rows and the (row, shift) pairs of the rows
    each may add.  A key concatenates t packed rows, and concatenation is a
    shift, so a key is the base sum of the shifted rows plus any combination
    of the shifted generators.  Word w's key for combination x is at
    x * len(rows) + w."""
    places, gens = spec
    keys = [0] * len(rows)
    for r, s in places:
        keys = [key | g[r] << s for key, g in zip(keys, rows)]
    if f.q == 2:  # a row's one nonzero multiple is itself, and XOR adds
        for j, s in gens:
            keys += [v ^ x for v, x in zip(keys, cycle([g[j] << s for g in rows]))]
        return keys
    add, scale = f.row_add, f.row_scale
    for j, s in gens:
        multiples = [[scale(g[j] << s, c) for g in rows] for c in range(1, f.q)]
        keys += [add(v, x) for m in multiples for v, x in zip(keys, cycle(m))]
    return keys


# -- CDC file format ---------------------------------------------------------


_BLOCK = 1 << 16  # characters a file is written and read in at a time


def cdc_to_text(code: CDC, out: Optional[TextIO] = None) -> Optional[str]:
    """The file text, or, given an open text file `out`, None once the text
    is written to it: the header line, then blocks of about 64 KiB of whole
    records, each record a blank line and its rows.  Each distinct row is
    rendered once."""
    blocks: List[str] = []
    write = blocks.append if out is None else out.write
    write(f"CDC {code.q} {code.n} {code.k} {code.d} {len(code)}\n")
    rendered: dict = {}
    # a record takes at most this many characters
    step = max(_BLOCK // (1 + code.k * code.n * (len(str(code.q - 1)) + 1)), 1)
    words = code.codewords
    for start in range(0, len(words), step):
        lines = [""]
        for w in words[start:start + step]:
            for row in w.rows:
                text = rendered.get(row)
                if text is None:
                    text = rendered[row] = " ".join(map(str, row_codes(w.field, row, code.n)))
                lines.append(text)
            lines.append("")
        write("\n".join(lines))
    return "".join(blocks) if out is None else None


def _lines(source: Union[str, TextIO]) -> Iterator[List[str]]:
    """The lines of a str or of an open text file, as `split("\\n")` gives
    them, in one list per block of 64 KiB, so neither a list of every line
    nor a file's whole text is held.  A line met in pieces is joined once,
    so a line of many blocks costs its length."""
    if isinstance(source, str):
        blocks: Iterable[str] = (source[i:i + _BLOCK] for i in range(0, len(source), _BLOCK))
    else:
        blocks = iter(partial(source.read, _BLOCK), "")
    pieces: List[str] = []  # of the line that the last block left open
    try:
        for block in blocks:
            lines = block.split("\n")
            pieces.append(lines[0])
            if len(lines) > 1:
                lines[0] = "".join(pieces)
                pieces = [lines.pop()]
                yield lines
    except UnicodeDecodeError:  # its position counts from the block's start
        if hasattr(source, "buffer") and source.buffer.seekable():
            source.buffer.seek(0)  # decoded again, it counts from the file's
            source.buffer.read().decode(source.encoding, source.errors)
        raise
    yield ["".join(pieces)]


def cdc_from_text(source: Union[str, TextIO]) -> CDC:
    """Parse a CDC file from its text or from an open text file.  Each
    distinct row text is checked once (n entries, each in [0, q)).  A record
    already in RREF is checked as such and kept; any other record is
    reduced, and a rank-deficient one is refused."""
    lines = chain.from_iterable(_lines(source))  # no generator step per line
    head = next(lines, "").split()
    if not head or head[0] != "CDC":
        raise ValueError("not a CDC file")
    q, n, k, d, count = (int(x) for x in head[1:6])
    if d < 1:  # every pair of codewords would meet a claimed d <= 0
        raise ValueError(f"claimed distance {d} is below 1")
    field = gf(q)
    parsed: dict = {}  # line -> packed row
    shapes: dict = {}  # for rref_pivots

    def parse_row(ln: str):
        entries = ln.split()
        if len(entries) != n:
            raise ValueError(f"a row has {len(entries)} entries, need {n}")
        return pack_row(field, [int(e) for e in entries])

    words = []
    rows: list = []
    for ln in lines:
        row = parsed.get(ln)
        if row is None:
            if not ln.strip():
                if rows:
                    raise ValueError("truncated codeword record")
                continue
            row = parsed[ln] = parse_row(ln)
        rows.append(row)
        if len(rows) == k:
            words.append(codeword(field, n, rows, rref_pivots(field, rows, n, shapes)))
            rows = []
    if rows:
        raise ValueError("truncated codeword record")
    if len(words) != count:
        raise ValueError(f"header says {count} codewords, file has {len(words)}")
    return CDC(q, n, k, d, words, strict=False)

"""Canonical subspaces, subspace distance and distance verification.

A subspace is stored by the unique RREF of any generator matrix, so equal
subspaces have equal rows.  Every word enters a `CDC` as one int, k
packed rows of n entries end to end (`gf.join_rows`, row 0 highest), and
one function, `_canonical`, decides its RREF and its pivots: a word in
RREF on the last word's pivots costs one masked test (`rref_mask`), and
any other is cut into rows and reduced (`rref`).  The constructions and
the parser hand it bare ints.  A `CDC` keeps each word's int in a sorted
list beside its pivot-group number, an index into a table of the
distinct pivot tuples.  Rows of one width compare as their concatenation
does, so the order is the rows' order and equal words are neighbours.
The readers below take a word's rows from its int by shift and mask;
reading the code as a sequence makes each word's `Subspace`, a read view
of its int and pivots.

Two facts bound a pair's distance from below.  For pivot sets P,
d(U, V) >= |P_U ^ P_V| (Etzion and Silberstein, IEEE Trans. IT 2009,
Lemma 2), and words of one pivot tuple lie 2 rank(U - V) apart (Silva,
Kschischang and Kotter, IEEE Trans. IT 2008).  The words of one pivot
tuple form a pivot group.  Each verification indexes its groups once, in
two lists by group number: the masks of their columns and their floors,
0 until a group is settled.  A group is clean at b, by `_affine_clean`,
when its q^D words, D >= 1, are distinct and an affine space v0 + L with
no nonzero element of rank below b / 2: none of its pairs lies below b.
`_settle` tests each group at most once per verification, at one bound
b, and sets a clean group's floor to b.  It tests a group of S words in
a code of N when the P pairs to come are expected to compute its inner
pairs at least as often as the test costs, one pass over the N group
numbers and [k r]_q rank tests, r = (b - 1) // 2:
P S (S - 1) >= N (N - 1) (N + [k r]_q).  Sample mode settles at the
claimed d before the first of its P draws.  A pair is skipped when it
cannot lower the running minimum m: when its pivot sets differ in at
least m columns, or when its words share a group whose floor is m or
more.  Exhaustive verification reads level k off the sorted words,
computes the first N pairs and settles at their bound m, with P the
N (N - 1) / 2 pairs.  A group is isolated when its pivot set differs from
every other in at least m columns: none of its cross pairs lies below m.
The words outside the groups isolated and settled at m are keyed at the
levels t with 2 (k - t) < m (`_collision_scan`), or, when the pairs are
fewer than those keys, every pair is computed.
The CDC file format renders and checks each distinct row once, and hands
each record's rows, joined into one int, to the `CDC`: runs of up to 8
rows by shift and OR, and a longer record's runs by halves
(`join_rows`), so a long record is not copied once per row.  Its header
is CDC and the integers q, n, k, d and the word count, with
1 <= k <= n, count >= 0 and d >= 1 (any two words meet d <= 0).  A file
is written and read about 64 KiB at a time, so neither its whole text
nor a list of its lines is held.
"""
from __future__ import annotations

import io
import math
import os
import random
from collections import Counter
from collections.abc import Sequence
from functools import partial
from itertools import chain, combinations, compress, count, cycle, islice, repeat, takewhile, tee
from operator import and_, eq, rshift
from typing import Iterable, Iterator, List, NamedTuple, Optional, TextIO, Tuple, Union

from .counting import gauss_binomial
from .errors import InvalidParameters, PairLimitExceeded
from .gf import GF, _named, gf, join_rows, pack_row, row_codes, split_rows
from .matrices import Matrix, rank_added, rref, rref_mask, rref_spaces

_BATCH = 128  # the words keyed at a time, which bounds the transient key lists


class Subspace:
    """A k-dimensional subspace of GF(q)^n in canonical RREF form, as a
    `CDC` reads it: `word`, the packed rows of its RREF end to end
    (`gf.join_rows`, row 0 highest), and their pivot columns.  Two are
    equal when they are one subspace of one GF(q)^n."""

    __slots__ = ("field", "n", "word", "pivots")

    def __init__(self, field: GF, n: int, word: int, pivots: Tuple[int, ...]):
        self.field, self.n, self.word, self.pivots = field, n, word, pivots

    @property
    def k(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> Tuple[int, ...]:
        """The packed RREF rows, decoded from `word` on each read."""
        rows, = split_rows([self.word], self.k, self.n * self.field.width)
        return rows

    @property
    def mat(self) -> Matrix:
        """The RREF as a `Matrix`, made anew on each read."""
        return Matrix.from_packed(self.field, self.n, self.rows)

    def key(self) -> int:
        """Orders subspaces of one (n, k) as their RREF entry tuples do."""
        return self.word

    def __eq__(self, other):
        return isinstance(other, Subspace) and (self.field.q, self.n, self.k, self.word) == \
            (other.field.q, other.n, other.k, other.word)

    def __repr__(self):
        return f"Subspace(GF({self.field.q})^{self.n}, dim={self.k})"


def _canonical(f: GF, n: int, k: int, words: Iterable[int], tuples: list) -> Iterator[int]:
    """Each word, k packed rows of n entries end to end, as its RREF moved
    n bits left past the number of its pivot tuple, the tuple's index in
    `tuples`, which is appended to as new tuples are met: the one place a
    word's pivots are decided.  A word in RREF on the last word's pivots is
    known by one AND with their `rref_mask`, whose negative part also
    catches bits above the k rows and negative ints; another is cut into
    rows and reduced by `rref`."""
    width = n * f.width  # a header's n may be of any size while no word comes
    top, places = k * width, range((k - 1) * width, -1, -width)
    known = {}  # pivot tuple -> (mask, ones, number)
    mask, ones, number = 0, -1, 0  # no word is known before the first
    for w in words:
        if w & mask != ones:
            if w >> top:
                raise InvalidParameters("codeword does not match container parameters")
            row = (1 << width) - 1
            rows, pivots = rref(f, [w >> s & row for s in places], n)
            if len(rows) < k:
                raise ValueError("rows are linearly dependent")
            w = join_rows(rows, width)
            if pivots not in known:
                bits, ones = rref_mask(f, pivots, n)
                known[pivots] = bits | -(1 << top), ones, len(tuples)
                tuples.append(pivots)
            mask, ones, number = known[pivots]
        yield w << n | number


class CDC(Sequence):
    """A constant-dimension code, its words sorted by their RREF rows so
    that files and witnesses are canonical.  The words come in as ints, k
    packed rows of n entries end to end (`gf.join_rows`), each reduced to
    its RREF by `_canonical`.  Word i is `packed[i]`, row r shifted by
    `places[r]`, on the pivot tuple `pivot_tuples[group[i]]`; as a
    sequence, the code reads its words as `Subspace`s, each made on read.
    Constructions require distinct codewords; files loaded for verification
    may carry duplicates (strict=False), which the verifier then reports as
    distance-0 witnesses."""

    def __init__(self, q: int, n: int, k: int, d: int, codewords: Iterable[int],
                 strict: bool = True):
        self.q, self.n, self.k, self.d, self.field = q, n, k, d, gf(q)
        # while the words sort, each carries its group number in n low bits:
        # a code has at most C(n, k) < 2^n pivot tuples
        tuples: list = []  # by number in the input
        packed = list(_canonical(self.field, n, k, codewords, tuples))
        # a code with no word reads no row, so its header's n and k may be of any size
        width = n * self.field.width  # a row's bits
        self.places = [(k - 1 - r) * width for r in range(k if packed else 0)]
        self.row_mask = (1 << width) - 1 if packed else 0
        packed.sort()
        low = (1 << len(tuples).bit_length()) - 1  # the bits of the input numbers
        first = dict.fromkeys(map(and_, packed, repeat(low)))  # numbers, by first word
        renumber = dict(zip(first, range(len(first))))
        self.pivot_tuples = [tuples[old] for old in first]
        self.group = list(map(renumber.__getitem__, map(and_, packed, repeat(low))))
        for i in range(0, len(packed), 4096):  # in place: no second list is held
            packed[i:i + 4096] = map(rshift, packed[i:i + 4096], repeat(n))
        if strict and any(map(eq, packed, islice(packed, 1, None))):
            raise InvalidParameters("duplicate codeword")  # sorted, so equal words are neighbours
        self.packed = packed

    # the words, each a `Subspace` made on read: the code itself
    codewords = property(lambda self: self)

    def __len__(self):
        return len(self.packed)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Subspace(self.field, self.n, self.packed[i], self.pivot_tuples[self.group[i]])

    def __iter__(self):
        return map(Subspace, repeat(self.field), repeat(self.n), self.packed,
                   map(self.pivot_tuples.__getitem__, self.group))

    def __repr__(self):
        return f"CDC(({self.n}, {len(self)}, {self.d}, {self.k})_{self.q})"


class VerifyReport(NamedTuple):
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


def _min_pair(code: CDC, pairs: Iterable[Tuple[int, int]], masks: list, floors: list,
              best: float = math.inf, witness: Optional[Tuple[int, int]] = None):
    """Least distance over `pairs` and the first pair at it, or `best` and
    `witness` if none lies below.  A pair that cannot lower the running
    minimum is skipped: its pivot sets (column `masks`, by group) differ in at
    least as many columns, or its words share a group whose floor is at or above it."""
    words, numbers, places, f = code.packed, code.group, code.places, code.field
    mask, sub = code.row_mask, f.row_sub
    # by group, each row's basis slot (its pivot's place from the right) and shift
    slots = [[(code.n - c, s) for c, s in zip(piv, places)] for piv in code.pivot_tuples]
    zero = [0] * (code.n + 1)
    stop = code.k + 1 if witness is None else best // 2  # a pair adding this many V rows loses
    for i, j in pairs:
        g, h = numbers[i], numbers[j]
        if g == h:
            if best <= floors[g]:  # no inner pair of the group lies below its floor
                continue
        elif (masks[g] ^ masks[h]).bit_count() >= best:
            continue
        u, v, basis, rows = words[i], words[j], zero[:], []
        if g == h:  # one pivot tuple: d = 2 rank(U - V), and U - V is 0 at the pivots
            v = sub(u, v)
        else:  # d = 2 dim(U + V) - 2k = 2 * (rows of V outside U).  U's rows
            # are in RREF with leading 1s, so each goes straight into the basis
            # slot of its leading entry, and only V's rows are reduced
            for b, s in slots[g]:
                basis[b] = u >> s & mask
        for s in places:  # a loop, as a comprehension costs a call
            rows.append(v >> s & mask)
        added = rank_added(f, basis, rows, stop)
        if added < stop:
            best, witness, stop = 2 * added, (i, j), added
            if added == 0:
                break
    return best, witness


def _settle(code: CDC, sizes: Counter, floors: list, b: int, pairs: int) -> None:
    """Tests the pivot groups, of `sizes` words by group number, at b by the
    rule of the module docstring for the `pairs` to come, and sets the
    floor of each clean one to b.  No group is clean at b <= 0 or b > 2k."""
    n_words, r = len(code), (b - 1) // 2
    if not 0 <= r < code.k:
        return
    cost = n_words * (n_words - 1) * (n_words + gauss_binomial(code.k, r, code.q))
    for g, size in sizes.items():
        if pairs * size * (size - 1) >= cost and \
                _affine_clean(code, g, size, b):
            floors[g] = b


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


def verify_min_distance(code: CDC, mode: str = "exhaustive", sample_count: int = 0,
                        seed: Optional[int] = None) -> VerifyReport:
    """Exhaustive or seeded-sample minimum-distance check.

    Exhaustive mode returns the true minimum and the lexicographically
    first witness pair (indices into the sorted codeword list), and counts
    all N(N-1)/2 pairs as checked; sample mode returns the minimum over
    `sample_count` seeded pairs.  Past CDCKIT_PAIR_LIMIT (default 10^9)
    draws, or both the pairs and the keys the scan would make, raise
    `PairLimitExceeded`.
    """
    limit = int(os.environ.get("CDCKIT_PAIR_LIMIT", 10**9))
    if mode == "sample":
        if sample_count < 1:
            raise InvalidParameters(f"sample count {sample_count} is below 1")
        if sample_count > limit:  # refused before the first draw
            raise PairLimitExceeded(f"{_named(sample_count, 'number of')} draws exceed "
                                    f"the limit {limit}")
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    n_words = len(code)
    total_pairs = n_words * (n_words - 1) // 2
    if n_words < 2:
        return VerifyReport(math.inf, None, 0, mode, seed)
    # the pivot-group index of the module docstring
    masks = [sum(1 << c for c in piv) for piv in code.pivot_tuples]
    floors, sizes = [0] * len(masks), Counter(code.group)
    if mode == "sample":
        _settle(code, sizes, floors, code.d, sample_count)
        best, witness = _min_pair(code, _sampled_pairs(n_words, sample_count, seed), masks, floors)
        return VerifyReport(best, witness, sample_count, "sample", seed)

    # level k: the words themselves, and equal words sort together
    words = code.packed
    i = next(compress(count(), map(eq, words, islice(words, 1, None))), None)
    if i is not None:
        return VerifyReport(0, (i, i + 1), total_pairs, "exhaustive")
    # the first N pairs, (0, 1), ..., (0, N - 1), (1, 2), with no tuple of N
    # indices, which `combinations` would make
    best, witness = _min_pair(code, islice(chain(zip(repeat(0), range(1, n_words)),
                                                 zip(repeat(1), range(2, n_words))), n_words),
                              masks, floors)
    if best >= 4:  # below 4, no level below k lies below the bound
        _settle(code, sizes, floors, best, total_pairs)
        # the groups keyed: not those isolated and settled at best
        kept = [g for g, mask in enumerate(masks) if floors[g] < best or any(
            (mask ^ other).bit_count() < best for h, other in enumerate(masks) if h != g)]
        # the keys are only compared with the pairs and the limit: the sum stops past both
        held, keys, most = sum(map(sizes.__getitem__, kept)), 0, max(total_pairs, limit)
        for t in range(code.k - 1, code.k - best // 2, -1):  # the levels with 2(k - t) < best
            keys += held * gauss_binomial(code.k, t, code.q)
            if keys > most:
                break
        if min(total_pairs, keys) > limit:
            raise PairLimitExceeded(f"{total_pairs} pairs and {keys if keys <= most else 'more'} "
                                    f"keys both exceed the limit {limit}")
        best, witness = (_min_pair(code, islice(combinations(range(n_words), 2), n_words, None),
                                   masks, floors, best, witness)  # past the first N pairs
                         if total_pairs < keys else _collision_scan(code, kept, best, witness))
    return VerifyReport(best, witness, total_pairs, "exhaustive")


def _collision_scan(code: CDC, kept: List[int], best: int,
                    witness: Tuple[int, int]) -> Tuple[int, Tuple[int, int]]:
    """The minimum distance of a code of distinct words, and the
    lexicographically first pair at it, given an upper bound `best` and
    `witness`, the first of the first N pairs at `best`.

    Words U, V share a t-subspace iff d(U, V) <= 2(k - t), so the first
    level t = k - 1, k - 2, ... at which two words share one gives the
    minimum.  For a word's RREF G and a t x k RREF matrix C, C*G is the
    RREF of a t-subspace whose pivots are G's at C's pivot columns c; keys
    are grouped by that pivot set, one group held at a time, and `keys_of`
    keys a batch of packed words of one pivot tuple for one c, moving rows
    from word to key by shift and mask.  A first pass finds a key group's
    repeated keys; a second keys again the batches up to the last with a
    repeat, by first word across the key group's pivot groups, and records
    the holders; a key's pair is its (lowest, second).  It stops before a
    batch that starts past the second index of the least pair met, unless a
    key with one holder met, below that pair's first index, waits for its
    second: every holder to come lies at or past the batch's start, so that
    pair is the key group's first, and the level's is the least of these.

    The scan stops before the first level with 2(k - t) >= best.  This is
    exact: a level with 2(k - t) < best that collides gives its result as
    before; if none does, best is the minimum, and every pair before the
    witness lies in the first N pairs at a distance above best.  Only the
    words of the pivot groups `kept` are keyed.
    """
    k, words, tuples = code.k, code.packed, code.pivot_tuples
    by_group = {g: [] for g in kept}  # the word indices of each group kept
    for i, g in enumerate(code.group):
        if g in by_group:
            by_group[g].append(i)
    shift, places, mask = code.n * code.field.width, code.places, code.row_mask

    def level(t: int) -> Optional[Tuple[int, int]]:
        """The lexicographically first pair sharing a t-subspace, if any."""
        groups: dict = {}
        for c in combinations(range(k), t):
            # row p of C*G is G's row c_p plus any combination of G's rows
            # j > c_p outside c, each moved from its place in the word to row p's in the key
            chosen = [(r, (t - 1 - p) * shift) for p, r in enumerate(c)]
            free = [(j, s) for r, s in chosen for j in range(r + 1, k) if j not in c]
            spec = [[(places[j], s, mask << s) for j, s in x] for x in (chosen, free)]
            for g in by_group:
                groups.setdefault(tuple(tuples[g][r] for r in c), {})[g] = spec

        def keyed(g, b, spec):  # group g's batch from its b-th word, and its keys
            batch = by_group[g][b:b + _BATCH]
            return batch, keys_of(code.field, [words[i] for i in batch], spec)

        found = []  # each colliding key group's first pair
        while groups:
            specs = groups.popitem()[1]
            order = [(g, b) for g in specs for b in range(0, len(by_group[g]), _BATCH)]
            # a key is stored as one bit of a 64-bit mask under key >> 6
            seen, repeated, last = {}, set(), -1
            get = seen.get
            for x, (g, b) in enumerate(order):
                for key in keyed(g, b, specs[g])[1]:
                    high = key >> 6
                    old = get(high, 0)
                    new = old | 1 << (key & 63)
                    if new == old:
                        repeated.add(key)
                        last = x
                    else:
                        seen[high] = new
            if last < 0:
                continue
            # every holder is keyed by batch `last`, as a later one would
            # repeat; those batches are keyed again in order of their first word
            holders, first = {}, (math.inf, math.inf)  # first: the least pair met
            for start, g, b in sorted((by_group[g][b], g, b) for g, b in order[:last + 1]):
                if start > first[1] and all(len(h) > 1 or h[0] >= first[0]
                                            for h in holders.values()):
                    break  # no holder still to come is in a pair below `first`
                batch, keys = keyed(g, b, specs[g])
                for x in compress(count(), map(repeated.__contains__, keys)):
                    h = holders.setdefault(keys[x], [])
                    h.append(batch[x % len(batch)])
                    if len(h) > 1:
                        first = min(first, tuple(sorted(h)[:2]))
            found.append(first)
        return min(found, default=None)

    for t in range(k - 1, k - best // 2, -1):  # the levels below k with 2(k - t) < best
        found = level(t)
        if found is not None:
            return 2 * (k - t), found
    return best, witness


def _affine_clean(code: CDC, g: int, size: int, best: int) -> bool:
    """Whether the `size` words of pivot group g are settled at `best`:
    q^D of them, D >= 1, distinct and an affine space v0 + L with no pair
    closer than `best`.  A word's vector v is its packed int, its RREF rows
    end to end.  The differences of neighbours span L and the words lie in
    v0 + L, so rank D and no zero difference (sorted, equal words are
    neighbours) give S = v0 + L.  Words of one pivot tuple lie 2 rank(U - V)
    apart, so S is clean iff no nonzero element of L has its columns in an
    r-dimensional W, r = best / 2 - 1: iff, for each W, L's basis stays
    independent of the matrices that put an RREF row of W down a column off
    the pivots: [k r]_q rank tests at any |L|.  The words are streamed."""
    f, k, n, places, piv = code.field, code.k, code.n, code.places, code.pivot_tuples[g]
    dim, r = round(math.log(size, f.q)), (best - 1) // 2  # r: the highest rank below best / 2
    # at r >= k, every element is of rank r or less; at best <= 0 nothing is tested
    if dim < 1 or f.q ** dim != size or not 0 <= r < k:
        return False
    before, after = tee(compress(code.packed, map(g.__eq__, code.group)))
    next(after)
    basis = [0] * (k * n + 1)
    # a zero difference, a repeated word, ends `takewhile` before the closing 0
    diffs = chain(map(f.row_sub, after, before), (0,))
    rank = rank_added(f, basis, takewhile(bool, diffs), dim + 1)
    if rank != dim or next(diffs, None) is not None:
        return False
    free = [(n - 1 - c) * f.width for c in range(n) if c not in piv]  # a free column's shift
    for down in rref_spaces(f, k, r, places):  # W's RREF rows, down the last column
        if rank_added(f, basis[:], [x << s for x in down for s in free]) < r * len(free):
            return False  # L meets the matrices whose columns lie in W
    return True


def keys_of(f: GF, words: List[int], spec) -> List[int]:
    """The keys of the t-subspaces C*G of `words`, packed words of one pivot
    tuple with RREF rows G, for one pivot choice C.  `spec` is the moves of
    C's rows and of the rows each may add: a row at `right` bits in word w
    lies at `left` bits in the key, `w >> right << left & mask`.  A key is
    the sum of C's moved rows and any combination of the moved generators;
    word w's key for combination x is at x * len(words) + w."""
    moves, gens = spec
    keys = [0] * len(words)
    for right, left, mask in moves:
        keys = [key | (w >> right << left & mask) for key, w in zip(keys, words)]
    for right, left, mask in gens:
        shifted, before = [w >> right << left & mask for w in words], keys[:]  # the multiples by 1
        for m in [shifted] + [[f.row_scale(x, c) for x in shifted] for c in range(2, f.q)]:
            keys += f.add_rows(before, cycle(m))  # c-major, then key index
    return keys


# -- CDC file format ---------------------------------------------------------


_BLOCK = 1 << 16  # characters a file is written and read in at a time


def cdc_to_text(code: CDC, out: Optional[TextIO] = None) -> Optional[str]:
    """The file text, or, given an open text file `out`, None once the text
    is written to it: the header line, then blocks of about 64 KiB of whole
    records, each record a blank line and its rows.  Each distinct row is
    rendered once."""
    buffer, rendered = io.StringIO() if out is None else out, {}
    buffer.write(f"CDC {code.q} {code.n} {code.k} {code.d} {len(code)}\n")
    # a record takes at most this many characters
    step = max(_BLOCK // (1 + code.k * code.n * (len(str(code.q - 1)) + 1)), 1)
    words, places, mask = code.packed, code.places, code.row_mask
    for start in range(0, len(words), step):
        lines = [""]
        for x in words[start:start + step]:
            for s in places:
                row = x >> s & mask
                text = rendered.get(row)
                if text is None:
                    text = rendered[row] = " ".join(map(str, row_codes(code.field, row, code.n)))
                lines.append(text)
            lines.append("")
        buffer.write("\n".join(lines))
    return buffer.getvalue() if out is None else None


def _lines(source: Union[str, TextIO]) -> Iterator[List[str]]:
    """The lines of a str or of an open text file, as `split("\\n")` gives
    them, in one list per block of 64 KiB sliced from the str or read from
    the file.  A line met in pieces is joined once, at the cost of its length."""
    blocks = ((source[i:i + _BLOCK] for i in range(0, len(source), _BLOCK))
              if isinstance(source, str) else iter(partial(source.read, _BLOCK), ""))
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
    distinct row text is checked once (n entries, each in [0, q)).  Each
    record's rows are joined into one int as they are read, which the `CDC`
    keeps if it is in RREF and reduces if not; a rank-deficient record is
    refused."""
    lines = chain.from_iterable(_lines(source))  # no generator step per line
    head = next(lines, "").split()
    if not head or head[0] != "CDC":
        raise ValueError("not a CDC file")
    if len(head) != 6:
        raise ValueError(f"a CDC header is the six fields CDC q n k d count, not {len(head)}")
    for name, x in zip(("q", "n", "k", "d", "count"), head[1:]):
        if not (x[1:] if x[:1] in "+-" else x).isdecimal():
            raise ValueError(f"header field {name} is not an integer")
    q, n, k, d, count = map(int, head[1:])
    for name, rule, ok in (("k", "1 <= k <= n", 1 <= k <= n), ("count", "count >= 0", count >= 0)):
        if not ok:
            raise ValueError(f"header field {name} does not meet {rule}")
    if d < 1:  # every pair of codewords would meet a claimed d <= 0
        raise ValueError(f"claimed distance {d} is below 1")
    field = gf(q)
    width = n * field.width
    parsed = {}  # line -> packed row
    first = (k - 1) % 8 + 1  # the rows of a record's first run; each later run has 8

    def words() -> Iterator[int]:  # each record's rows, end to end
        # a record is shift-ored a run of at most 8 rows at a time, and the
        # runs of a longer one are joined by halves (`join_rows`)
        word, left, rest, runs = 0, first, k - first, []
        for ln in lines:
            row = parsed.get(ln)
            if row is None:
                entries = ln.split()
                if not entries:
                    if runs or left < first:
                        raise ValueError("truncated codeword record")
                    continue
                if len(entries) != n:
                    raise ValueError(f"a row has {len(entries)} entries, need {n}")
                row = parsed[ln] = pack_row(field, [int(e) for e in entries])
            word = word << width | row
            left -= 1
            if not left:
                if rest:  # a run ends inside the record
                    runs.append(word)
                    word, left, rest = 0, 8, rest - 8
                    continue
                if runs:
                    runs.append(word)
                    word, runs, rest = join_rows(runs, 8 * width), [], k - first
                yield word
                word, left = 0, first
        if runs or left < first:
            raise ValueError("truncated codeword record")

    code = CDC(q, n, k, d, words(), strict=False)
    if len(code) != count:
        raise ValueError(f"header says {count} codewords, file has {len(code)}")
    return code

"""Reference checker for CDC files and `cdckit verify` reports.

It shares no code with cdckit: it parses the CDC text format itself and
computes subspace distances with its own elimination, over GF(2) with rows
packed into ints and over GF(3) with lists of residues.  Each check returns
a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

Word = Tuple[Tuple[int, ...], ...]  # k rows of n field elements


class RefCode:
    """A parsed CDC file: header fields plus the codewords in file order."""

    def __init__(self, q: int, n: int, k: int, d: int, words: Sequence[Word]):
        if q not in (2, 3):
            raise ValueError(f"the reference checker handles q = 2 and 3, not {q}")
        self.q, self.n, self.k, self.d = q, n, k, d
        self.words = list(words)
        self._packed = [_pack(w) for w in self.words] if q == 2 else None

    def distance(self, i: int, j: int) -> int:
        """Subspace distance 2 dim(U + V) - dim U - dim V of words i and j."""
        if self._packed is not None:
            rank = _rank_gf2(self._packed[i] + self._packed[j])
        else:
            rank = _rank_gf3(self.words[i] + self.words[j], self.n)
        return 2 * rank - 2 * self.k


def rank(rows: Sequence[Sequence[int]], q: int) -> int:
    """Rank of a matrix over GF(q), q in {2, 3}."""
    if q == 2:
        return _rank_gf2(_pack(rows))
    return _rank_gf3(rows, len(rows[0]) if rows else 0)


def parse_cdc(text: str) -> RefCode:
    lines = text.splitlines()
    if not lines or lines[0].split()[:1] != ["CDC"]:
        raise ValueError("not a CDC file")
    q, n, k, d, count = (int(x) for x in lines[0].split()[1:6])
    words: List[Word] = []
    rows: List[Tuple[int, ...]] = []
    for line in lines[1:] + [""]:
        if line.strip():
            rows.append(tuple(int(t) for t in line.split()))
            if len(rows) == k:
                words.append(tuple(rows))
                rows = []
        elif rows:
            raise ValueError("truncated codeword record")
    if len(words) != count:
        raise ValueError(f"header says {count} codewords, file has {len(words)}")
    return RefCode(q, n, k, d, words)


def cdc_text(q: int, n: int, k: int, d: int, words: Sequence[Word]) -> str:
    lines = [f"CDC {q} {n} {k} {d} {len(words)}"]
    for w in words:
        lines.append("")
        lines.extend(" ".join(str(x) for x in row) for row in w)
    return "\n".join(lines) + "\n"


def _pack(word: Word) -> List[int]:
    out = []
    for row in word:
        v = 0
        for x in row:
            v = (v << 1) | x
        out.append(v)
    return out


def _rank_gf2(rows: Sequence[int]) -> int:
    basis: Dict[int, int] = {}
    for v in rows:
        while v:
            lead = v.bit_length()
            if lead in basis:
                v ^= basis[lead]
            else:
                basis[lead] = v
                break
    return len(basis)


def _rank_gf3(rows: Sequence[Sequence[int]], ncols: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % 3), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = rows[rank][c] % 3  # 1 and 2 are their own inverses mod 3
        prow = [(x * scale) % 3 for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] % 3
            if f:
                rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def pivots_of(word: Word) -> Optional[Tuple[int, ...]]:
    """Pivot columns if `word` is a full-rank RREF matrix, else None."""
    pivots = []
    for r, row in enumerate(word):
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return None
        if any(other[lead] for i, other in enumerate(word) if i != r):
            return None
        pivots.append(lead)
    return tuple(pivots)


def check_words(code: RefCode) -> List[str]:
    """Every stored codeword is a k x n RREF of rank k, distinct, in canonical order."""
    problems = []
    for idx, w in enumerate(code.words):
        if len(w) != code.k or any(len(r) != code.n for r in w):
            problems.append(f"word {idx} is not {code.k} x {code.n}")
        elif any(not 0 <= x < code.q for r in w for x in r):
            problems.append(f"word {idx} has an entry outside GF({code.q})")
        elif pivots_of(w) is None:
            problems.append(f"word {idx} is not a full-rank RREF")
        if idx and code.words[idx - 1] >= w:
            problems.append(f"word {idx} is a duplicate or out of canonical order")
        if len(problems) >= 5:
            break
    return problems


def _pairs_before(i: int, j: int, n_words: int):
    for a in range(i + 1):
        for b in range(a + 1, j if a == i else n_words):
            yield a, b


def check_report(code: RefCode, report: dict, sample_pairs: int, seed: int,
                 mode: str = "exhaustive") -> List[str]:
    """Check a `cdckit verify` JSON payload against this code.

    The witness distance is recomputed.  In exhaustive mode every pair
    before the witness, in i-major order, must be farther apart, and the
    pair count must be N(N-1)/2.  In both modes a seeded sample of pairs
    must lie at or above `min_found`.
    """
    problems = []
    n_words = len(code.words)
    if report.get("mode") != mode:
        problems.append(f"mode {report.get('mode')!r} != {mode!r}")
    if report.get("claimed_d") != code.d:
        problems.append(f"claimed_d {report.get('claimed_d')} != header d {code.d}")
    if mode == "exhaustive" and report.get("pairs_checked") != n_words * (n_words - 1) // 2:
        problems.append(f"pairs_checked {report.get('pairs_checked')} != N(N-1)/2 "
                        f"for N = {n_words}")
    min_found = report.get("min_found")
    if not isinstance(min_found, int):
        return problems + [f"min_found {min_found!r} is not a distance"]
    if report.get("ok") != (min_found >= code.d):
        problems.append(f"ok {report.get('ok')} disagrees with min_found {min_found}")
    wit = report.get("witness") or {}
    try:
        i, j = wit["indices"]
    except (KeyError, TypeError, ValueError):
        return problems + ["report has no witness pair"]
    if not 0 <= i < j < n_words:
        return problems + [f"witness {i, j} is not a pair of distinct indices"]
    if [tuple(r) for r in wit.get("rows_i", ())] != list(code.words[i]) or \
            [tuple(r) for r in wit.get("rows_j", ())] != list(code.words[j]):
        problems.append(f"witness rows differ from words {i} and {j} of the file")
    dist = code.distance(i, j)
    if dist != min_found:
        problems.append(f"witness {i, j} is at distance {dist}, report says {min_found}")
    if mode == "exhaustive":
        for a, b in _pairs_before(i, j, n_words):
            if code.distance(a, b) <= min_found:
                problems.append(f"pair {a, b} precedes witness {i, j} and is at "
                                f"distance {code.distance(a, b)} <= {min_found}")
                break
    rng = random.Random(seed)
    for _ in range(sample_pairs):
        a, b = rng.sample(range(n_words), 2)
        if code.distance(a, b) < min_found:
            problems.append(f"sampled pair {a, b} is at distance "
                            f"{code.distance(a, b)} < min_found {min_found}")
            break
    return problems


def plant_defect(code: RefCode, seed: int, first: int = 16) -> Tuple[RefCode, int, Tuple[int, int]]:
    """Copy of `code` with one codeword added at distance 2 from an existing one.

    The seed picks an existing word U among the first `first` words, one
    free (non-pivot) entry right of a row's pivot, and a nonzero
    increment; changing that entry gives a new RREF word V with
    dim(U n V) = k - 1.  Planting next to an early word keeps the witness
    near the start of the i-major scan, so the time of the reject path does
    not depend on the seed.  Returns the planted copy (canonical order),
    its expected minimum distance and its expected witness, computed here
    from V's distance to every other word.
    """
    rng = random.Random(seed)
    spots = []
    for ui in range(min(first, len(code.words))):
        pivots = pivots_of(code.words[ui])
        spots += [(ui, r, c) for r, p in enumerate(pivots)
                  for c in range(p + 1, code.n) if c not in pivots]
    ui, r, c = rng.choice(spots)
    u = code.words[ui]
    row = list(u[r])
    row[c] = (row[c] + rng.randrange(1, code.q)) % code.q
    v = u[:r] + (tuple(row),) + u[r + 1:]
    words = sorted(code.words + [v])
    planted = RefCode(code.q, code.n, code.k, code.d, words)
    iv = words.index(v)
    best, witness = None, None
    for iw in range(len(words)):
        if iw == iv:
            continue
        dist = planted.distance(iv, iw)
        pair = (min(iv, iw), max(iv, iw))
        if best is None or (dist, pair) < (best, witness):
            best, witness = dist, pair
    if best >= code.d:
        raise ValueError("the planted word is not a defect")
    return planted, best, witness


def check_planted(planted: RefCode, expect_min: int, expect_witness: Tuple[int, int],
                  report: dict, sample_pairs: int, seed: int) -> List[str]:
    """A report on a planted copy must name the planted minimum and witness."""
    got = (report.get("min_found"), tuple((report.get("witness") or {}).get("indices", ())))
    problems = []
    if got != (expect_min, expect_witness):
        problems.append(f"planted copy reported min/witness {got}, "
                        f"expected {(expect_min, expect_witness)}")
    return problems + check_report(planted, report, sample_pairs, seed)

"""Seeded fuzzing of `cdckit verify` on mutated CDC files.

Valid files over GF(2), GF(3) and GF(4) are cut, given short, non-integer
or out-of-range headers, entries at or above q or not integers,
rank-deficient records, duplicate records, a claimed distance at or below
0 and a dimension above the length, one or two of these at a time.  Each mutant is verified in process.  Whatever the input, the exit
code is 0, 2 or 4; a nonzero exit prints exactly one stderr line and no
traceback; stdout on exit 0 or 4 is JSON; and `ok` is never true for a
file in which two records span the same subspace.  Each mutant is also
parsed as its text and from the open file, which give the same code or
the same error.
"""

from __future__ import annotations

import json
import random
import time

from cdckit.cli import main
from cdckit.constructions import parse_plan, run_plan
from cdckit.gf import gf
from cdckit.subspaces import cdc_from_text, cdc_to_text
from oracles import rref_rows

# desk plans whose first words make the base files
_PLANS = (
    "family = linkage\nq = 2\nn = 6\nd = 4\nk = 3\nn1 = 3\n",
    "family = multilevel_II\nq = 3\nn = 4\nd = 2\nk = 2\nn1 = 2\nu1 = 1\nb1 = 1\nb2 = 1\n",
    "family = linkage\nq = 4\nn = 5\nd = 4\nk = 2\nn1 = 2\n",
)
CASES = 400


def _base_files(rng):
    """(q, header fields, records) of each base file: up to 12 words of a
    built code, some records scrambled out of RREF without changing their
    span, so the parser reduces them."""
    files = []
    for plan in _PLANS:
        code = run_plan(parse_plan(plan)).cdc
        lines = cdc_to_text(code).split("\n")
        head = lines[0].split()
        records = [r.split("\n") for r in "\n".join(lines[2:]).strip("\n").split("\n\n")][:12]
        records = [_scrambled(rng, gf(code.q), rec) if rng.random() < 0.3 else rec
                   for rec in records]
        head[5] = str(len(records))
        files.append((code.q, head, records))
    return files


def _scrambled(rng, f, record):
    """The record with one row plus a nonzero multiple of another added to
    it: the same span, another text."""
    rows = [[int(x) for x in ln.split()] for ln in record]
    if len(rows) < 2:
        return record
    i, j = rng.sample(range(len(rows)), 2)
    c = rng.randrange(1, f.q)
    rows[i] = [f.add(x, f.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    return [" ".join(map(str, r)) for r in rows]


def _text(head, records):
    return " ".join(head) + "\n" + "".join("\n" + "\n".join(rec) + "\n" for rec in records)


def _mutant(rng, q, head, records):
    """One or two mutations of a base file, as its text."""
    head, records = list(head), [list(rec) for rec in records]
    for _ in range(rng.choice((1, 2))):
        kind = rng.randrange(10)
        if kind == 0:  # cut at a random character
            text = _text(head, records)
            return text[:rng.randrange(len(text))]
        if kind == 1:  # a short header
            return _text(head[:rng.randrange(1, 6)], records)
        if kind == 2:  # a header field that is not an integer
            head[rng.randrange(1, 6)] = rng.choice(("x", "1.5", "0x2", "-", "2e1"))
        elif kind == 3:  # a header field set to a small integer, d <= 0 and k > n among them
            head[rng.randrange(1, 6)] = str(rng.randrange(-3, 12))
        elif kind == 4:  # an entry at or above q, negative or not an integer
            rec = rng.choice(records)
            r = rng.randrange(len(rec))
            entries = rec[r].split()
            entries[rng.randrange(len(entries))] = rng.choice(
                (str(q + rng.randrange(4)), "-1", "a", "1.0", ""))
            rec[r] = " ".join(entries)
        elif kind == 5:  # a rank-deficient record: a row repeated or zeroed
            rec = rng.choice(records)
            if len(rec) > 1 and rng.random() < 0.5:
                rec[1] = rec[0]
            else:
                rec[0] = " ".join(["0"] * len(rec[0].split()))
        elif kind == 6:  # a duplicate record, as is or scrambled, with the count raised
            twin = rng.choice(records)
            records.insert(rng.randrange(len(records) + 1),
                           _scrambled(rng, gf(q), twin) if rng.random() < 0.5 else list(twin))
            head[5] = str(len(records))
        elif kind == 7:  # a claimed distance at or below 0
            head[4] = str(rng.randrange(-2, 1))
        elif kind == 8:  # k above n, the records left as they are
            head[3] = str(int(head[2]) + rng.randrange(1, 3))
        elif rng.random() < 0.5:  # a record cut short
            records[-1] = records[-1][:-1]
        else:  # the count off by one
            head[5] = str(int(head[5]) + rng.choice((-1, 1)))
    return _text(head, records)


def _has_equal_spans(text):
    """Whether two of the file's records span the same subspace, by the
    per-entry elimination of `oracles`; only called on files `verify`
    accepted, so the header and rows are well formed."""
    lines = text.split("\n")
    q, n, k = (int(x) for x in lines[0].split()[1:4])
    rows = [[int(x) for x in ln.split()] for ln in lines[1:] if ln.strip()]
    f, spans = gf(q), set()
    for i in range(0, len(rows), k):
        rec = [list(r) for r in rows[i:i + k]]
        rref_rows(f, rec, n)
        spans.add(tuple(map(tuple, rec)))
    return len(spans) < len(rows) // k


def _parse_outcome(source):
    """The parsed code's header and words, or the error's class and message."""
    try:
        code = cdc_from_text(source)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return (code.q, code.n, code.k, code.d), [(w.rows, w.pivots) for w in code]


def test_verify_survives_mutated_files(tmp_path, capsys):
    rng = random.Random(16)
    bases = _base_files(rng)
    path = tmp_path / "mutant.cdc"
    exits = {0: 0, 2: 0, 4: 0}
    start = time.perf_counter()
    for _ in range(CASES):
        q, head, records = rng.choice(bases)
        text = _mutant(rng, q, head, records)
        path.write_text(text)
        with open(path, encoding="utf-8") as fh:
            assert _parse_outcome(fh) == _parse_outcome(text), text
        code = main(["verify", "--in", str(path)])
        out, err = capsys.readouterr()
        assert code in exits, (text, err)
        exits[code] += 1
        assert "Traceback" not in err
        if code:
            assert len(err.splitlines()) == 1, (text, err)
        if code in (0, 4):
            report = json.loads(out)
            if report["ok"]:
                assert not _has_equal_spans(text), text
        else:
            assert out == ""
    # every outcome is reached, and the run stays short
    assert all(exits.values()), exits
    assert time.perf_counter() - start < 5

"""Seeded fuzzing of the CLI contract: mutated argv and plan files.

Valid command lines of every subcommand are mutated: a token dropped,
repeated or swapped with another, an integer made negative, zero, huge or
not an integer, and stray flags inserted.  Valid plan files of every
family lose a key, repeat one (with the same or another value), gain an
unknown one, or get a value that is negative, huge or not an integer, and
run through `bound --plan`, `build --count-only` or an explicit
`build --out`.  Apart, with its own seed, `table --registry` command lines
over a doctored registry file are mutated the same way.  One or two
mutations are made at a time, and each input runs through `cli.main` in
process.  Whatever the input, the exit code is 0, 2, 3 or 4; a nonzero
exit prints exactly one stderr line and no traceback; and stdout that
promises JSON (`bound`, `build`, `table`, `verify`) parses line by line,
as `count`'s parses as an integer.  With CDCKIT_LONG_TESTS=1, each loop
also runs 4,000 cases for each of four more seeds.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from cdckit.cli import main

CASES = 300
LONG_CASES = 4000  # a case count and the seeds of the runs marked `long`
LONG_SEEDS = (101, 102, 103, 104)

PLANS = (
    "family = linkage\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\n",
    "family = linkage\nq = 3\nn = 6\nd = 4\nk = 3\nn1 = 3\n",
    "family = blocks\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\na1 = 2\nb1 = 1\nb2 = 1\n",
    "family = multiblocks\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\na1 = 2\nb1 = 1\nb2 = 1\n"
    "t1 = 2\nt2 = 2\n",
    "family = multilevel_I\nq = 2\nn = 12\nd = 4\nk = 6\nn1 = 6\nu1 = 4\nu2 = 2\nc1 = 1\n"
    "c2 = 1\n",
    "family = multilevel_II\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\nu1 = 2\nu2 = 2\nb1 = 1\n"
    "b2 = 1\n",
)
# a (4, 2, 2, 2)_2 file: two words at distance 4, claimed d 2, then 4 and 6
WORDS = "\n1 0 0 0\n0 1 0 0\n\n0 0 1 0\n0 0 0 1\n"
CDC_FILES = {"d2.cdc": "CDC 2 4 2 2 2\n" + WORDS, "d6.cdc": "CDC 2 4 2 6 2\n" + WORDS}

ARGVS = (
    ["count", "gauss", "6", "3", "2"],
    ["count", "mrd", "2", "3", "3", "2"],
    ["count", "delsarte", "2", "3", "3", "2", "2"],
    ["count", "bounded", "2", "4", "4", "2", "3"],
    ["bound", "--family", "linkage", "--q", "2", "--n", "8", "--d", "4", "--k", "4",
     "--n1", "4"],
    ["bound", "--family", "cor43", "--q", "2", "--n", "12", "--d", "4", "--k", "6",
     "--n1", "6", "--u1", "4", "--c1", "1", "--c2", "1"],
    ["bound", "--family", "cor45", "--q", "3", "--n", "12", "--d", "4", "--k", "6"],
    ["table", "--id", "4", "--q", "2"],
    ["registry", "get", "2", "8", "4", "4"],
    ["registry", "list"],
    ["verify", "--in", "d2.cdc"],
    ["verify", "--in", "d6.cdc"],
    ["verify", "--in", "d2.cdc", "--mode", "sample:5:1"],
    ["verify", "--in", "d2.cdc", "--mode", "sample:5", "--seed", "3"],
    ["bound", "--plan", "p.plan"],
    ["build", "--count-only", "--plan", "p.plan"],
    ["build", "--plan", "p.plan", "--out", "out.cdc"],
)
JSON_COMMANDS = {"bound", "build", "table", "verify"}
TABLE_CASES = 100
# wrong values for an input of table 6 at q = 2 and one of table 8
DOCTORED = "2 12 4 4 1 doctored\n2 10 4 5 7 doctored\n"
TABLE_ARGVS = (
    ["table", "--id", "6", "--q", "2", "--registry", "reg.txt"],
    ["table", "--id", "8", "--registry", "reg.txt"],
    ["table", "--registry", "reg.txt"],
)
STRAY = ("--bogus", "-x", "--q", "--n1", "--count-only", "--seed", "--mode", "--jobs",
         "--registry", "--in", "--plan", "--out", "--id", "--family", "linkage", "7")
INTS = ("-1", "0", "1", "2", "3", "5", "16", "-7", str(10**30), str(2**64 + 1),
        "9" * 5000, "1.5", "x", "", "0x10", "2e3", "+4", " 3")


def _mutant_argv(rng, argv):
    argv = list(argv)
    for _ in range(rng.choice((1, 2))):
        kind = rng.randrange(5)
        ints = [i for i, tok in enumerate(argv) if tok.lstrip("-").isdigit()]
        if kind == 0 and len(argv) > 1:  # an arity off: a token dropped
            del argv[rng.randrange(1, len(argv))]
        elif kind == 1:  # a token repeated
            i = rng.randrange(1, len(argv)) if len(argv) > 1 else 0
            argv.insert(i, argv[i])
        elif kind == 2 and ints:  # an integer made negative, huge or not an integer
            argv[rng.choice(ints)] = rng.choice(INTS)
        elif kind == 3:  # a stray flag, with or without a value
            stray = [rng.choice(STRAY)] + ([rng.choice(INTS)] if rng.random() < 0.5 else [])
            i = rng.randrange(1, len(argv) + 1)
            argv[i:i] = stray
        elif len(argv) > 2:  # two tokens swapped
            i, j = rng.sample(range(1, len(argv)), 2)
            argv[i], argv[j] = argv[j], argv[i]
    return argv


def _mutant_plan(rng, plan):
    lines = plan.splitlines()
    for _ in range(rng.choice((1, 2))):
        kind = rng.randrange(5)
        i = rng.randrange(len(lines))
        key = lines[i].partition("=")[0].strip()
        if kind == 0:  # a key missing
            del lines[i]
        elif kind == 1:  # a key repeated, with its value or another
            lines.append(f"{key} = {rng.choice(INTS)}" if rng.random() < 0.5 else lines[i])
        elif kind == 2:  # an unknown key, a line without "=", a stray file slot
            lines.insert(i, rng.choice(("foo = 1", "n3 = 2", "junk", "= 4", "C3_file = x.cdc",
                                        "C1_file = missing.cdc", "# comment", "")))
        elif kind == 3:  # a value negative, huge or not an integer
            lines[i] = f"{key} = {rng.choice(INTS)}"
        else:  # a small integer value, in range or not
            lines[i] = f"{key} = {rng.randrange(-2, 14)}"
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _check(argv, capsys, case) -> int:
    """Run argv and check the contract; returns the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a usage error, or --help
        code = exc.code or 0
    out, err = capsys.readouterr()
    where = case + (err,)
    assert code in (0, 2, 3, 4), where
    assert "Traceback" not in err, where
    if code:
        assert len(err.strip().splitlines()) == 1, where
    if code in (0, 3, 4):
        if argv[0] in JSON_COMMANDS:
            for line in out.splitlines():
                json.loads(line)
        elif argv[0] == "count" and code == 0:
            int(out)
    if code == 2:
        assert out == "", where
    return code


def _fuzz_argv(tmp_path, capsys, monkeypatch, seed, cases):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CDCKIT_EXPLICIT_CUTOFF", "5000")  # explicit builds stay small
    for name, text in CDC_FILES.items():
        (tmp_path / name).write_text(text)
    rng = random.Random(seed)
    exits = {0: 0, 2: 0, 3: 0, 4: 0}
    start = time.perf_counter()
    for case in range(cases):
        plan = rng.choice(PLANS)
        argv = rng.choice(ARGVS)
        if "p.plan" in argv:
            plan = _mutant_plan(rng, plan) if rng.random() < 0.8 else plan
            if rng.random() < 0.2:
                argv = _mutant_argv(rng, argv)
        else:
            argv = _mutant_argv(rng, argv)
        (tmp_path / "p.plan").write_text(plan)
        exits[_check(argv, capsys, (case, argv, plan))] += 1
    # every exit code is reached, and the run stays short
    assert all(exits.values()), exits
    assert time.perf_counter() - start < 5 * cases / CASES


def _fuzz_table_argv(tmp_path, capsys, monkeypatch, seed, cases):
    # a registry file that overrides two inputs of the tables with wrong
    # values: a table that reads them exits 4 with one stderr line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reg.txt").write_text(DOCTORED)
    rng = random.Random(seed)
    exits = {0: 0, 2: 0, 3: 0, 4: 0}
    start = time.perf_counter()
    for case in range(cases):
        argv = rng.choice(TABLE_ARGVS)
        argv = _mutant_argv(rng, argv) if rng.random() < 0.8 else argv
        exits[_check(argv, capsys, (case, argv))] += 1
    assert exits[0] and exits[2] and exits[4], exits
    assert time.perf_counter() - start < 5 * cases / TABLE_CASES


def test_cli_survives_mutated_argv_and_plans(tmp_path, capsys, monkeypatch):
    _fuzz_argv(tmp_path, capsys, monkeypatch, 17, CASES)


def test_cli_survives_mutated_table_argv_over_a_doctored_registry(tmp_path, capsys,
                                                                  monkeypatch):
    _fuzz_table_argv(tmp_path, capsys, monkeypatch, 18, TABLE_CASES)


@pytest.mark.long
@pytest.mark.parametrize("seed", LONG_SEEDS)
def test_cli_survives_a_long_fuzz_run(seed, tmp_path, capsys, monkeypatch):
    _fuzz_argv(tmp_path, capsys, monkeypatch, seed, LONG_CASES)
    _fuzz_table_argv(tmp_path, capsys, monkeypatch, seed, LONG_CASES)

"""CLI contract: arguments, exit codes, round trips, determinism."""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

from cdckit.cli import main
from cdckit.counting import gauss_binomial
from cdckit.registry import shipped_registry

BLOCKS_PLAN = """\
family = blocks
q = 2
n = 8
d = 4
k = 4
n1 = 4
a1 = 2
b1 = 1
b2 = 1
"""


def _json_lines(out: str):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_count_examples(capsys):
    # the README's examples
    assert main(["count", "gauss", "4", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "35"
    assert main(["count", "delsarte", "2", "3", "3", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "49"
    assert main(["count", "gauss", "4", "0", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["count", "bounded", "2", "4", "4", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2776"
    assert main(["count", "mrd", "2", "3", "3", "2"]) == 0
    assert capsys.readouterr().out.strip() == "64"


def test_count_prints_values_beyond_the_int_str_limit(capsys):
    # [200 choose 100]_9 has about 9,500 digits, more than the 4,300 that
    # Python converts to str by default; the command prints it whole
    assert main(["count", "gauss", "200", "100", "9"]) == 0
    out = capsys.readouterr().out.strip()
    parsed = 0
    for i in range(0, len(out), 1000):  # parsed in chunks, under the limit
        parsed = parsed * 10 ** len(out[i:i + 1000]) + int(out[i:i + 1000])
    assert len(out) > 4300 and parsed == gauss_binomial(200, 100, 9)


@pytest.mark.parametrize("argv", [
    ["mrd", "2", "100000", "100000", "1"],
    ["gauss", "100000", "50000", "2"],
    ["delsarte", "3", "100000", "100000", "1", "1"],
    ["bounded", "2", "100000", "100000", "1", "1"],
    ["gauss", "200", "100", "2147483647"],  # q = 2^31 - 1, a prime
])
def test_count_refuses_a_value_over_the_size_cap(capsys, argv):
    # each would build an integer of billions of bits; it exits 2 at once
    t0 = time.monotonic()
    assert main(["count"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1 and "-bit cap" in err
    assert time.monotonic() - t0 < 1.0


def test_count_at_the_size_cap(capsys):
    # [n choose 1]_2 = 2^n - 1 has n bits: printed at the cap, refused past it
    from cdckit.cli import COUNT_MAX_BITS

    n = COUNT_MAX_BITS + 1  # k (n - k) = COUNT_MAX_BITS
    assert main(["count", "gauss", str(n), "1", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip()) > 39000
    # [n choose n-1]_2 is the same value, counted in one step, not n - 1
    assert main(["count", "gauss", str(n), str(n - 1), "2"]) == 0
    assert capsys.readouterr().out == out
    assert main(["count", "gauss", str(n + 1), "1", "2"]) == 2
    assert "-bit cap" in capsys.readouterr().err


def test_count_usage_errors(capsys):
    assert main(["count", "gauss", "4", "0"]) == 2
    assert "3 integers" in capsys.readouterr().err
    assert main(["count", "nonsense", "1"]) == 2
    capsys.readouterr()
    assert main(["count", "mrd", "2", "3", "3", "9"]) == 2
    assert "min(a,b)" in capsys.readouterr().err


def test_bound_linkage_and_cor43(capsys):
    assert main(["bound", "--family", "linkage", "--q", "2", "--n", "12",
                 "--d", "4", "--k", "6", "--n1", "6"]) == 0
    payload = _json_lines(capsys.readouterr().out)[0]
    assert payload["total"] == 1212418496
    assert main(["bound", "--family", "cor43", "--q", "2", "--n", "12", "--d", "4",
                 "--k", "6", "--n1", "6", "--u1", "4", "--c1", "1", "--c2", "1"]) == 0
    payload = _json_lines(capsys.readouterr().out)[0]
    assert payload["total"] == 1214577088
    assert payload["terms"]["term:L1"] == 2154496


def test_bound_registry_miss_names_entry(capsys):
    code = main(["bound", "--family", "cor45", "--q", "3", "--n", "15",
                 "--d", "4", "--k", "5"])
    assert code == 3
    assert "(3,7,4,3)" in capsys.readouterr().err


_COR45_Q2 = {
    (12, 4, 6): 1214577088,
    (14, 6, 7): 34532242136,
    (15, 4, 5): 1252448902208,
    (16, 6, 8): 282927684887704,
    (18, 4, 6): 1321068380545845184,
    (18, 6, 6): 282958323493518,
    (18, 6, 9): 9271545179590910976,
}


@pytest.mark.parametrize("q, n, d, k", [(2,) + key for key in _COR45_Q2]
                         + [(3, 15, 4, 5), (2, 12, 4, 5)])
def test_bound_cor45_stdout_is_pinned(capsys, q, n, d, k):
    # the exact stdout line of each of the seven (n,d,k) at q = 2; at q = 3
    # (15,4,5) needs A_3(7,4,3), a registry miss; (12,4,5) is not one of the
    # seven and exits 2 with one line
    code = main(["bound", "--family", "cor45", "--q", str(q), "--n", str(n),
                 "--d", str(d), "--k", str(k)])
    out, err = capsys.readouterr()
    if (n, d, k) not in _COR45_Q2:
        assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    elif q == 3:
        assert code == 3 and out == "" and err == "registry miss: (3,7,4,3)\n"
    else:
        total = _COR45_Q2[n, d, k]
        assert code == 0
        assert out == (f'{{"d": {d}, "family": "cor45", "k": {k}, "n": {n}, '
                       f'"q": 2, "total": {total}}}\n')


def test_bound_hypothesis_violation_exits_2(capsys):
    code = main(["bound", "--family", "cor43", "--q", "2", "--n", "12", "--d", "4",
                 "--k", "6", "--n1", "6", "--u1", "3", "--c1", "1", "--c2", "1"])
    assert code == 2
    assert "u1 >= d" in capsys.readouterr().err


def test_bound_linkage_below_half_d_names_the_hypothesis(capsys):
    # k = 1 < d/2 = 2 once reached the MRD code's own distance check
    assert main(["bound", "--family", "linkage", "--q", "2", "--n", "4", "--d", "4",
                 "--k", "1", "--n1", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need k >= d/2, n1 >= k and n2 >= k\n"


def test_bound_cor42_b_sum_past_the_c_budget_names_the_hypothesis(capsys):
    # c1 >= b1 and c2 >= b2 with c1 + c2 <= k - d/2 leave b2 no value when
    # b1 + b2 > k - d/2, so the b2 range names it; CI runs the same argv
    # through the installed script
    assert main(["bound", "--family", "cor42", "--q", "2", "--n", "12", "--d", "6", "--k", "6",
                 "--n1", "6", "--a1", "3", "--b1", "2", "--b2", "2", "--t1", "3", "--t2", "3",
                 "--c1", "2", "--c2", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need 1 <= b2 <= d/2 and d/2 <= b1 + b2 <= k - d/2\n"


def test_table_subcommand(capsys):
    assert main(["table", "--id", "6", "--q", "2"]) == 0
    rows = _json_lines(capsys.readouterr().out)
    assert all(r["match"] for r in rows)
    assert {r["n"] for r in rows} == {10, 16}


def test_table_mismatch_exits_4(tmp_path, capsys):
    # override a consumed input with a wrong value
    extra = tmp_path / "reg.txt"
    extra.write_text("2 12 4 4 1 doctored\n")
    code = main(["table", "--id", "6", "--q", "2", "--registry", str(extra)])
    assert code == 4
    out, err = capsys.readouterr()
    assert "MISMATCH" in err
    # one stderr line names every mismatched row; every row is on stdout
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    rows = _json_lines(out)
    bad = [r for r in rows if not r["match"]]
    assert len(rows) == 2 and len(bad) == 1
    assert f"in 1 of 2 rows: table 6 row {bad[0]['row']} A_2(16,4,4)" in err


@pytest.mark.parametrize("line, named", [
    ("2 8 4 4 -5 doctored", "A_2(8,4,4) = -5 is below 1"),
    ("2 8 4 4 0 doctored", "A_2(8,4,4) = 0 is below 1"),
    ("2 8 4 4 -" + "9" * 5000 + " doctored", "A_2(8,4,4) = a 5000-digit negative value"),
    ("2 8 4", "need q n d k value, got 3 fields"),
    ("2 8 4 4 many doctored", "invalid literal for int()"),
])
def test_a_refused_registry_line_is_named_by_its_number(tmp_path, capsys, line, named):
    # every A_q(n, d, k) is at least 1, and the search's insert bounds rely
    # on it: a registry file with a value below 1 or a malformed line exits
    # 2 with one stderr line naming the line, and nothing on stdout.  The
    # shipped registry's 31 entries load as they are
    extra = tmp_path / "reg.txt"
    extra.write_text(f"# q n d k value source\n2 9 4 4 1033 fine\n{line}\n")
    code = main(["bound", "--family", "linkage", "--q", "2", "--n", "12", "--d", "4",
                 "--k", "4", "--n1", "8", "--registry", str(extra)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: registry line 3: ") and named in err
    assert len(err.splitlines()) == 1
    assert len(shipped_registry().entries) == 31


def test_build_verify_round_trip(tmp_path, capsys):
    plan = tmp_path / "blocks.plan"
    plan.write_text(BLOCKS_PLAN)
    out = tmp_path / "blocks.cdc"
    assert main(["build", "--plan", str(plan), "--out", str(out)]) == 0
    lines = _json_lines(capsys.readouterr().out)
    assert {"total": 1024, "explicit": True} in [
        {k: line[k] for k in ("total", "explicit")} for line in lines if "total" in line
    ]
    assert main(["verify", "--in", str(out)]) == 0
    payload = _json_lines(capsys.readouterr().out)[0]
    assert payload["min_found"] == 4 and payload["ok"]
    # round trip: reading and re-writing is byte-identical
    from cdckit.subspaces import cdc_from_text, cdc_to_text

    text = out.read_text()
    assert cdc_to_text(cdc_from_text(text)) == text


def test_bound_plan_without_closed_form(tmp_path, capsys):
    plan = tmp_path / "blocks.plan"
    plan.write_text(BLOCKS_PLAN)
    assert main(["bound", "--plan", str(plan)]) == 2
    assert "count-only" in capsys.readouterr().err


def test_build_count_only(capsys, tmp_path):
    plan = tmp_path / "ml.plan"
    plan.write_text(
        "family = multilevel_I\nq = 2\nn = 12\nd = 4\nk = 6\n"
        "n1 = 6\nu1 = 4\nu2 = 2\nc1 = 1\nc2 = 1\n"
    )
    assert main(["build", "--plan", str(plan), "--count-only"]) == 0
    lines = _json_lines(capsys.readouterr().out)
    counts = {l["component"]: l["count"] for l in lines if "component" in l}
    assert counts["L_1"] == 2154496 and counts["L_2"] == 4096


def test_build_out_into_a_missing_directory_prints_nothing(tmp_path, capsys):
    # the file is written before any report: a failed write exits 2 with an
    # empty stdout and one stderr line, and a good one prints the report
    plan = tmp_path / "blocks.plan"
    plan.write_text(BLOCKS_PLAN)
    assert main(["build", "--plan", str(plan), "--out", str(tmp_path / "no" / "x.cdc")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert main(["build", "--plan", str(plan), "--out", str(tmp_path / "x.cdc")]) == 0
    wrote = capsys.readouterr().out
    assert main(["build", "--plan", str(plan)]) == 0
    assert capsys.readouterr().out == wrote and (tmp_path / "x.cdc").exists()


# two words of a (4, *, *, 2)_2 file, at distance 2
WORD_A, WORD_B = "1 0 0 0\n0 1 0 0\n", "1 0 0 0\n0 0 1 0\n"


@pytest.mark.parametrize("flag", ["--out", "--count-only"])
def test_build_refuses_a_subcode_file_below_its_claimed_distance(tmp_path, capsys, flag):
    # the header's d is not trusted: the words are verified, and a pair
    # closer than the slot's d exits 2 before anything is written
    c1 = tmp_path / "c1.cdc"
    c1.write_text(f"CDC 2 4 2 4 2\n{WORD_A}\n{WORD_B}")
    plan = tmp_path / "link.plan"
    plan.write_text(f"family = linkage\nq = 2\nn = 6\nd = 4\nk = 2\nn1 = 4\nC1_file = {c1}\n")
    out = tmp_path / "out.cdc"
    argv = ["build", "--plan", str(plan)] + ([flag, str(out)] if flag == "--out" else [flag])
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and len(err.strip().splitlines()) == 1
    assert "distance 2" in err and not out.exists()
    # the same slot takes a file of one word or of none: no pair falls short
    for words, text in ((1, WORD_A), (0, "")):
        c1.write_text(f"CDC 2 4 2 4 {words}\n{text}")
        assert main(argv) == 0
        assert {"component": "C1_part", "count": 4 * words} in _json_lines(capsys.readouterr().out)


def test_verify_duplicate_codeword_exits_4(tmp_path, capsys):
    base = (
        "CDC 2 4 2 2 3\n"
        "\n1 0 0 0\n0 1 0 0\n"
        "\n1 0 0 0\n0 1 0 0\n"
        "\n1 0 0 1\n0 1 1 0\n"
    )
    path = tmp_path / "dup.cdc"
    path.write_text(base)
    assert main(["verify", "--in", str(path)]) == 4
    payload = _json_lines(capsys.readouterr().out)[0]
    assert payload["min_found"] == 0
    assert payload["witness"]["rows_i"] == payload["witness"]["rows_j"]


def test_verify_witness_rows_are_element_codes(tmp_path, capsys):
    # over GF(9) a packed entry is not its element code (code 8 packs as
    # 34), so the witness rows must be decoded: both equal the duplicated
    # last record's text entries
    last = [[1, 0, 5, 8], [0, 1, 7, 3]]
    records = ["1 0 0 0\n0 1 0 0\n", "1 0 2 4\n0 1 6 0\n",
               "".join(" ".join(map(str, row)) + "\n" for row in last)]
    path = tmp_path / "dup9.cdc"
    path.write_text("CDC 9 4 2 2 4\n" + "".join("\n" + r for r in records + records[-1:]))
    assert main(["verify", "--in", str(path)]) == 4
    payload = _json_lines(capsys.readouterr().out)[0]
    assert payload["min_found"] == 0
    assert payload["witness"]["rows_i"] == payload["witness"]["rows_j"] == last


def test_verify_sample_mode(tmp_path, capsys):
    plan = tmp_path / "blocks.plan"
    plan.write_text(BLOCKS_PLAN)
    out = tmp_path / "blocks.cdc"
    main(["build", "--plan", str(plan), "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--mode", "sample:500:11"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--in", str(out), "--mode", "sample:500:11"]) == 0
    assert capsys.readouterr().out == first
    assert main(["verify", "--in", str(out), "--mode", "bogus"]) == 2


def test_determinism_byte_identical(tmp_path, capsys):
    plan = tmp_path / "blocks.plan"
    plan.write_text(BLOCKS_PLAN)
    out1, out2 = tmp_path / "a.cdc", tmp_path / "b.cdc"
    main(["build", "--plan", str(plan), "--out", str(out1)])
    first_report = capsys.readouterr().out
    main(["build", "--plan", str(plan), "--out", str(out2)])
    second_report = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first_report == second_report


def test_registry_subcommand(capsys):
    assert main(["registry", "get", "2", "7", "4", "3"]) == 0
    assert capsys.readouterr().out.startswith("333 ")
    assert main(["registry", "get", "3", "11", "4", "4"]) == 3
    capsys.readouterr()
    assert main(["registry", "list"]) == 0
    assert "2 7 4 3 333" in capsys.readouterr().out
    # a q that is not a prime power is refused as `count` and `bound` refuse it
    for argv in (["registry", "get", "6", "8", "2", "4"], ["table", "--q", "6"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: 6 is not a prime power\n")
    # a wrong count of integers is named as `count` names it
    assert main(["registry", "get", "2", "8"]) == 2
    assert capsys.readouterr() == ("", "get takes 4 integers, got 2\n")
    assert main(["registry", "list", "5"]) == 2
    assert capsys.readouterr() == ("", "list takes 0 integers, got 1\n")


def test_verify_jobs_flag(tmp_path, capsys):
    # --jobs is accepted and has no effect: output is identical for every
    # value
    plan = tmp_path / "blocks.plan"
    plan.write_text(BLOCKS_PLAN)
    out = tmp_path / "blocks.cdc"
    main(["build", "--plan", str(plan), "--out", str(out)])
    capsys.readouterr()
    payloads = []
    for jobs in ("1", "2", "5"):
        assert main(["verify", "--in", str(out), "--jobs", jobs]) == 0
        payloads.append(capsys.readouterr().out)
    assert payloads[0] == payloads[1] == payloads[2]
    assert _json_lines(payloads[0])[0]["min_found"] == 4


def test_verify_vacuous_file_fails(tmp_path, capsys):
    for count, body in ((0, ""), (1, "\n1 0 0 0\n0 1 0 0\n")):
        path = tmp_path / f"{count}.cdc"
        path.write_text(f"CDC 2 4 2 4 {count}\n{body}")
        assert main(["verify", "--in", str(path)]) == 4
        out, err = capsys.readouterr()
        payload = _json_lines(out)[0]
        assert payload["ok"] is False and payload["pairs_checked"] == 0
        assert "no pair to check" in err


@pytest.mark.parametrize("d", [0, -2])
def test_verify_refuses_a_claimed_distance_below_one(tmp_path, capsys, d):
    # any two words, even one word twice, are at distance >= d <= 0, so such
    # a header would verify nothing; it is refused before any record is read
    path = tmp_path / "d.cdc"
    path.write_text(f"CDC 2 4 2 {d} 2\n1 0 0 0\n0 1 0 0\n\n1 0 0 0\n0 1 0 0\n")
    assert main(["verify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: claimed distance {d} is below 1\n"


@pytest.mark.parametrize("head, named", [
    ("CDC 2 4 2 2", "six fields"),  # no count
    ("CDC 2 4 2 2 1 junk", "six fields"),  # a seventh field
    ("CDC 2 4 two 2 1", "field k"),
    ("CDC 2 4 2 2 1.0", "field count"),
    ("CDC 2 4 0 2 1", "field k"),  # k = 0
    ("CDC 2 4 0 2 0", "field k"),  # k = 0 and no record
    ("CDC 2 3 5 2 1", "field k"),  # k > n
    ("CDC 2 0 0 2 0", "field k"),  # n = 0
    ("CDC 2 0 1 2 0", "field k"),
    ("CDC 2 4 2 2 -1", "field count"),
])
def test_verify_refuses_a_malformed_header(tmp_path, capsys, head, named):
    # the header is CDC and five integers, q n k d count, with 1 <= k <= n
    # and count >= 0.  Any other exits 2 before a record is read, with one
    # stderr line naming the field (a packed word of k = 0 would be 0)
    path = tmp_path / "head.cdc"
    path.write_text(f"{head}\n\n1 0 0 0\n0 1 0 0\n")
    assert main(["verify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and named in err, err


def test_verify_reads_a_wordless_header_of_any_size(tmp_path, capsys):
    # a file of no word reads no row, so n and k of any size cost nothing:
    # no mask or shift of n or k bits is made, and it fails with no pair
    path = tmp_path / "none.cdc"
    for n, k in ((10**30, 3), (10**30, 10**30)):
        path.write_text(f"CDC 2 {n} {k} 4 0\n")
        assert main(["verify", "--in", str(path)]) == 4
        out, err = capsys.readouterr()
        assert _json_lines(out)[0]["pairs_checked"] == 0 and "no pair to check" in err


def test_verify_empty_or_headerless_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cdc"
    for text in ("", "\n", "1 0 0 0\n0 1 0 0\n"):
        path.write_text(text)
        assert main(["verify", "--in", str(path)]) == 2
        assert "not a CDC file" in capsys.readouterr().err


def test_verify_refuses_a_sample_past_the_pair_limit(tmp_path, capsys, monkeypatch):
    # 10^20 draws on a two-word file exceed the default limit of 10^9: exit
    # 2 at once, with one stderr line, as exhaustive mode does
    monkeypatch.delenv("CDCKIT_PAIR_LIMIT", raising=False)
    path = tmp_path / "two.cdc"
    path.write_text("CDC 2 4 2 2 2\n\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 1 0\n")
    t0 = time.perf_counter()
    assert main(["verify", "--in", str(path), "--mode", f"sample:{10**20}:1"]) == 2
    assert time.perf_counter() - t0 < 5
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "exceed the limit 1000000000" in err


def test_verify_names_a_long_refused_sample_count_by_its_length(tmp_path, capsys):
    # a count of 5,000 nines is refused as past the pair limit, named by its
    # length: exit 2 and one short stderr line
    path = tmp_path / "two.cdc"
    path.write_text("CDC 2 4 2 2 2\n\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 1 0\n")
    assert main(["verify", "--in", str(path), "--mode", f"sample:{'9' * 5000}:1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert "a 5000-digit number of draws exceed the limit" in err


def test_verify_of_two_words_of_dimension_300_takes_the_one_pair(tmp_path, capsys):
    # two lines of GF(256)^301 of dimension 300, (I | 0) and (I | e_0): the
    # one pair bounds the minimum at 2, below which no level is keyed, so no
    # key is counted and the file verifies at once, with the one pair's
    # report
    n, k = 301, 300

    def record(last):  # the identity rows, with a last entry 1 in row 0 of the second
        return "\n".join(" ".join("1" if c == r or (last and r == 0 and c == n - 1) else "0"
                                   for c in range(n)) for r in range(k))

    path = tmp_path / "k300.cdc"
    path.write_text(f"CDC 256 {n} {k} 2 2\n\n{record(False)}\n\n{record(True)}\n")
    t0 = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 0
    assert time.perf_counter() - t0 < 1
    payload = _json_lines(capsys.readouterr().out)[0]
    rows = [[int(r == c) for c in range(n)] for r in range(k)]
    assert {key: payload[key] for key in ("min_found", "pairs_checked", "mode", "ok")} == \
        {"min_found": 2, "pairs_checked": 1, "mode": "exhaustive", "ok": True}
    assert payload["witness"] == {"indices": [0, 1], "rows_i": rows,
                                  "rows_j": [rows[0][:-1] + [1]] + rows[1:]}


def test_verify_sample_count_below_one_exits_2(tmp_path, capsys):
    path = tmp_path / "two.cdc"
    path.write_text("CDC 2 4 2 2 2\n\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 1 0\n")
    for mode in ("sample:0:1", "sample:-3:1"):
        assert main(["verify", "--in", str(path), "--mode", mode]) == 2
        assert capsys.readouterr().out == ""


def test_verify_sample_mode_with_extra_fields_exits_2(tmp_path, capsys):
    # a field after the seed is refused, not dropped
    path = tmp_path / "two.cdc"
    path.write_text("CDC 2 4 2 2 2\n\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 1 0\n")
    for mode in ("sample:5:7:9", "sample:5:7:"):
        assert main(["verify", "--in", str(path), "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        assert mode in err
    assert main(["verify", "--in", str(path), "--mode", "sample:5:7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7


def test_sample_mode_counts_draws_with_replacement(tmp_path, capsys):
    # a two-word file has one pair; three draws report three pairs checked
    path = tmp_path / "two.cdc"
    path.write_text(TWO_WORDS)
    assert main(["verify", "--in", str(path), "--mode", "sample:3:1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["pairs_checked"], payload["seed"], payload["min_found"]) == (3, 1, 4)


LINKAGE_PLAN = "family = linkage\nq = 2\nn = 8\nd = 4\nk = 4\nn1 = 4\n"
TWO_WORDS = "CDC 2 4 2 2 2\n\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 1 0\n"


_NO_FAMILY = LINKAGE_PLAN.replace("family = linkage\n", "")
_NO_Q = LINKAGE_PLAN.replace("q = 2\n", "")
_Q6 = LINKAGE_PLAN.replace("q = 2", "q = 6")
_BOUND_LINKAGE = ["bound", "--family", "linkage", "--q", "2", "--n", "8", "--d", "4", "--k", "4",
                  "--n1", "4"]
_BOUND_12_4_6 = ["bound", "--q", "2", "--n", "12", "--d", "4", "--k", "6", "--family"]


@pytest.mark.parametrize("argv, plan", [
    pytest.param(["count", "gauss", "4", "2", "1"], None, id="count-q1"),
    pytest.param(["count", "mrd", "6", "2", "2", "1"], None, id="count-q6"),
    pytest.param(["registry", "get", "6", "8", "2", "4"], None, id="registry-get-q6"),
    pytest.param(["registry", "get", "1", "8", "4", "4"], None, id="registry-get-q1"),
    pytest.param(["registry", "get", "2", "8"], None, id="registry-get-arity"),
    pytest.param(["registry", "list", "5"], None, id="registry-list-stray"),
    pytest.param(["table", "--q", "6"], None, id="table-q6"),
    pytest.param(["bound", "--family", "linkage", "--q", "6", "--n", "8", "--d", "4",
                  "--k", "4", "--n1", "4"], None, id="bound-q6"),
    pytest.param(["bound", "--q", "2", "--n", "8", "--d", "4", "--k", "4"], None,
                 id="bound-no-family"),
    pytest.param(["bound", "--plan"], _NO_FAMILY, id="bound-plan-no-family"),
    pytest.param(["build", "--count-only", "--plan"], _NO_FAMILY, id="build-plan-no-family"),
    pytest.param(["bound", "--plan"], _NO_Q, id="bound-plan-no-q"),
    pytest.param(["build", "--count-only", "--plan"], _NO_Q, id="build-plan-no-q"),
    pytest.param(["bound", "--plan"], LINKAGE_PLAN.replace("n1 = 4\n", ""),
                 id="bound-plan-no-n1"),
    pytest.param(["bound", "--plan"], _Q6, id="bound-plan-q6"),
    pytest.param(["build", "--count-only", "--plan"], _Q6, id="build-plan-q6"),
    pytest.param(["count", "delsarte", "2", "3", "3", "0", "1"], None, id="delsarte-d0"),
    pytest.param(["count", "bounded", "2", "3", "3", "0", "2"], None, id="bounded-d0"),
    pytest.param(["count", "bounded", "2", "3", "3", "1", "-5"], None, id="bounded-negative-cap"),
    pytest.param(_BOUND_LINKAGE + ["--n2", "9"], None, id="linkage-n2"),
    pytest.param(_BOUND_LINKAGE + ["--a1", "2"], None, id="linkage-foreign-flag"),
    pytest.param(_BOUND_12_4_6 + ["cor41", "--n1", "6", "--n2", "5", "--a1", "4", "--b1", "1",
                                  "--b2", "1", "--t1", "4", "--t2", "2"], None, id="cor41-n2"),
    pytest.param(_BOUND_12_4_6 + ["cor42", "--n1", "6", "--a1", "3", "--a2", "2", "--b1", "1",
                                  "--b2", "1", "--t1", "3", "--t2", "3", "--c1", "1",
                                  "--c2", "1"], None, id="cor42-a2"),
    pytest.param(_BOUND_12_4_6 + ["cor43", "--n1", "6", "--u1", "4", "--u2", "3", "--c1", "1",
                                  "--c2", "1"], None, id="cor43-u2"),
    pytest.param(_BOUND_12_4_6 + ["cor44", "--n1", "6", "--u1", "2", "--u2", "3", "--b1", "1",
                                  "--b2", "1"], None, id="cor44-u2"),
    pytest.param(["bound", "--family", "cor45", "--q", "2", "--n", "14", "--d", "6", "--k", "7",
                  "--n1", "7"], None, id="cor45-foreign-flag"),
    pytest.param(["bound", "--plan"], LINKAGE_PLAN + "n2 = 5\n", id="bound-plan-n2"),
    pytest.param(["build", "--count-only", "--plan"], LINKAGE_PLAN + "n2 = 5\n",
                 id="build-plan-n2"),
    pytest.param(["verify", "--seed", "5", "--in"], TWO_WORDS, id="verify-exhaustive-seed"),
    pytest.param(["verify", "--mode", "sample:3:1", "--seed", "5", "--in"], TWO_WORDS,
                 id="verify-two-seeds"),
    # values of order q^(k(n-k)) over the cap of count are refused, not computed
    pytest.param(["bound", "--family", "linkage", "--q", "2", "--n", str(10**21), "--d", "4",
                  "--k", "4", "--n1", "4"], None, id="bound-huge-n"),
    pytest.param(["bound", "--plan"], LINKAGE_PLAN.replace("n = 8", "n = 100000"),
                 id="bound-plan-huge-n"),
    pytest.param(["build", "--count-only", "--plan"], LINKAGE_PLAN.replace("n = 8", "n = 100000"),
                 id="build-plan-huge-n"),
    pytest.param(["registry", "get", "2", "100000", "2", "50000"], None, id="registry-get-huge-n"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, plan):
    # `plan` is the text of the file whose path ends argv (a CDC file for verify)
    if plan is not None:
        path = tmp_path / "bad.plan"
        path.write_text(plan)
        argv = argv + [str(path)]
    t0 = time.monotonic()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("argv", [["count", "gauss", "x"], ["verify"], ["bogus"],
                                  ["build", "--plan", "p", "--stray"]])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    # argparse's own errors too: one line naming the problem, no usage block
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert "error: " in err


@pytest.mark.parametrize("record", [
    pytest.param("1 0 0 0\n1 0 0 0\n", id="rank-deficient"),
    pytest.param("1 0 0 2\n0 1 0 0\n", id="entry-outside-field"),
    pytest.param("1 0 0\n0 1 0 0\n", id="short-row"),
])
def test_verify_bad_record_exits_2(tmp_path, capsys, record):
    path = tmp_path / "bad.cdc"
    path.write_text(f"CDC 2 4 2 2 2\n\n0 0 1 0\n0 0 0 1\n\n{record}")
    assert main(["verify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_count_and_bound_take_a_prime_power_above_the_field_limit(tmp_path, capsys):
    # the formula commands build no field, so any prime power is fine there
    for q in (65537, 2**20):
        assert main(["count", "gauss", "4", "2", str(q)]) == 0
        assert int(capsys.readouterr().out) == gauss_binomial(4, 2, q)
    assert main(["bound", "--family", "linkage", "--q", "65537", "--n", "8", "--d", "4",
                 "--k", "4", "--n1", "4"]) == 0
    assert _json_lines(capsys.readouterr().out)[0]["total"] > 65537**8
    path = tmp_path / "big.plan"
    path.write_text(LINKAGE_PLAN.replace("q = 2", "q = 131072"))
    assert main(["build", "--count-only", "--plan", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("q", [2**61 - 1, (2**31 - 1)**2])
def test_a_large_prime_power_q_is_answered_at_once(capsys, q):
    # q has no factor below 2^16; the root and Miller-Rabin test decide it
    t0 = time.monotonic()
    assert main(["count", "mrd", str(q), "1", "1", "1"]) == 0
    assert capsys.readouterr().out == f"{q}\n"
    assert main(["bound", "--family", "linkage", "--q", str(q), "--n", "8", "--d", "4",
                 "--k", "4", "--n1", "4"]) in (0, 3)
    capsys.readouterr()
    assert time.monotonic() - t0 < 5.0


def test_a_large_q_not_shown_to_be_a_prime_power_is_refused(capsys):
    # a composite with no small factor, and a prime above the exact range
    for q in ((2**31 - 1) * (2**61 - 1), 2**89 - 1):
        assert main(["count", "mrd", str(q), "1", "1", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1


def test_a_long_q_is_refused_in_one_short_line(capsys):
    # the refusal names a q of over 30 digits by its length, not in full
    q = str(10**3999)
    for argv in (["count", "mrd", q, "1", "1", "1"],
                 ["bound", "--family", "linkage", "--q", q, "--n", "8", "--d", "4", "--k", "4"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and len(err) < 200, argv
        assert err == "error: a 4000-digit q is not a prime power\n"
    # argparse refuses an int of over 4,300 digits before cdckit reads it
    # (Python 3.10.7 on), and its message names the value by its length
    n = "1" + "0" * 4999  # 10^4999
    for argv in (["count", "mrd", n, "1", "1", "1"], ["bound", "--n", n],
                 ["registry", "get", "2", n, "2", "4"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and len(err) < 200, argv


def test_a_long_stray_argument_is_named_by_its_length(capsys):
    # argparse's refusal of stray arguments quotes none of them: a token of
    # over 30 characters is named by its length, and shorter ones are kept
    for argv, message in (
            (["table", "1" * 5000], "a 5,000-character argument"),
            (["table", "abc", "x" * 31, "y" * 30],
             "abc a 31-character argument " + "y" * 30),
            (["bound", "--family", "linkage", "extra"], "extra")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err == f"cdckit: error: unrecognized arguments: {message}\n"
        assert len(err) < 200


def test_a_plan_value_longer_than_an_argv_int_is_refused_at_once(tmp_path, capsys):
    # a random 100,000-bit q with no factor below 2^16 would stall the
    # prime-power test; a plan reads no value of over 4,300 digits, as argv
    sieve = bytearray([1]) * (1 << 16)
    for f in range(2, 256):
        sieve[f * f::f] = bytes(len(range(f * f, 1 << 16, f)))
    primes = [f for f in range(2, 1 << 16) if sieve[f]]
    rng = random.Random(14)
    q = rng.getrandbits(100_000) | 1 << 99_999
    while any(q % f == 0 for f in primes):
        q += 1
    set_digits = getattr(sys, "set_int_max_str_digits", None)  # Python 3.10.7 on
    if set_digits:
        limit = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        text = LINKAGE_PLAN.replace("q = 2", f"q = {q}")
    finally:
        if set_digits:
            set_digits(limit)
    path = tmp_path / "long.plan"
    path.write_text(text)
    for argv in (["bound", "--plan", str(path)], ["build", "--count-only", "--plan", str(path)]):
        t0 = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - t0 < 2.0
        out, err = capsys.readouterr()
        assert out == "" and err == "error: plan value q has 30,103 digits; at most 4,300 are read\n"
    path.write_text(LINKAGE_PLAN.replace("n1 = 4", "n1 = " + "0" * 4299 + "4"))
    assert main(["bound", "--plan", str(path)]) == 0  # 4,300 digits are read
    capsys.readouterr()


def test_fields_with_no_byte_encoding_are_refused_by_build_and_verify(tmp_path, capsys):
    # GF(27) has no one-byte row encoding; build and verify refuse it with
    # one line, while count, bound and a count-only build take q = 27
    plan = tmp_path / "q27.plan"
    plan.write_text("family = linkage\nq = 27\nn = 4\nd = 4\nk = 2\nn1 = 2\n")
    cdc = tmp_path / "q27.cdc"
    cdc.write_text("CDC 27 4 2 4 2\n\n1 0 0 0\n0 1 0 0\n\n0 0 1 0\n0 0 0 1\n")
    for argv in (["build", "--plan", str(plan)], ["verify", "--in", str(cdc)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: GF(27) is not supported")
        assert len(err.splitlines()) == 1
    assert main(["count", "gauss", "4", "2", "27"]) == 0
    assert int(capsys.readouterr().out) == gauss_binomial(4, 2, 27)
    assert main(["bound", "--family", "linkage", "--q", "27", "--n", "8", "--d", "4",
                 "--k", "4", "--n1", "4"]) == 0
    assert main(["build", "--count-only", "--plan", str(plan)]) == 0
    assert _json_lines(capsys.readouterr().out)[-1] == {"explicit": False, "total": 730}


def test_bound_plan_equals_count_only_in_the_product_form(tmp_path, capsys):
    # parallel_blocks with b1 = b2 = d/2 counts every pair (M1, M2):
    # E = Delta_3 * Delta_4 * |D1| * |D2| = 50 * 50 * 1 * 1
    path = tmp_path / "pb.plan"
    path.write_text("family = parallel_blocks\nq = 2\nn = 12\nd = 4\nk = 6\nn1 = 6\n"
                    "a1 = 3\nb1 = 2\nb2 = 2\nt1 = 3\nt2 = 3\nc1 = 2\nc2 = 2\n")
    assert main(["bound", "--plan", str(path)]) == 0
    payload = _json_lines(capsys.readouterr().out)[0]
    assert payload["terms"]["term:E"] == 2500
    assert payload["total"] == 1212425092
    assert main(["build", "--count-only", "--plan", str(path)]) == 0
    lines = _json_lines(capsys.readouterr().out)
    assert {"total": 1212425092, "explicit": False} in lines
    assert {"component": "E", "count": 2500} in lines


def test_plan_derives_u2_for_build(tmp_path, capsys):
    # u2 = k - u1 is derived for builds as for bounds
    path = tmp_path / "ml.plan"
    path.write_text("family = multilevel_I\nq = 2\nn = 12\nd = 4\nk = 6\n"
                    "n1 = 6\nu1 = 4\nc1 = 1\nc2 = 1\n")
    assert main(["build", "--plan", str(path), "--count-only"]) == 0
    lines = _json_lines(capsys.readouterr().out)
    assert {"total": 1214577088, "explicit": False} in lines

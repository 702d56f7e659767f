"""The four workloads: inputs, the steps of one round, the checks on their
outputs, and the steps and per-layer metrics of a traced pass.

A round is what one fresh interpreter runs.  Its operations are the CLI
commands of the round (build workloads) or the searches, target recoveries
and table command (bound_search).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics

import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))

# plan name -> (q, plan text, codewords built)
PLANS = {
    # acceptance criterion 7's desk multilevel_II code, (8, 4690, 4, 4)_2
    "ml2_q2": (2, "family = multilevel_II\nq = 2\nn = 8\nd = 4\nk = 4\n"
                  "n1 = 4\nu1 = 2\nu2 = 2\nb1 = 1\nb2 = 1\n", 4690),
    # two-block linkage, (10, 33854, 4, 4)_2
    "link10_q2": (2, "family = linkage\nq = 2\nn = 10\nd = 4\nk = 4\nn1 = 5\n", 33854),
    # two-block linkage over GF(3), (6, 730, 4, 3)_3
    "link6_q3": (3, "family = linkage\nq = 3\nn = 6\nd = 4\nk = 3\nn1 = 3\n", 730),
}

# SHA-256 of the CDC file `cdckit build --plan P --out F` writes for each
# plan.  File bytes are part of cdckit's output contract.
BUILT_SHA256 = {
    "ml2_q2": "6edcbe1e21ecf13b6124ea3eccfb908c6c576b5339efb7578c393ae0c6e309c8",
    "link10_q2": "f901649aa89d369b7293b100d6f3d689b6db59720851210cca95bed330da127e",
    "link6_q3": "cb02f0de696dd49d17ddc8b8a9f927bc705bd20843563c4b534196aa180d7912",
}

# The Gabidulin code each linkage build enumerates under a rank cap:
# (q, k, n1, d/2), capped at rank k - d/2.
CAPPED_GABIDULIN = {"ml2_q2": (2, 4, 4, 2), "link10_q2": (2, 4, 5, 2), "link6_q3": (3, 3, 3, 2)}

SAMPLE_PAIRS = 200_000  # cdckit's sample size on roundtrip_gf2
REF_SAMPLE = 2000  # pairs the reference checker draws per verification
RREF_WORDS = 500  # codewords the traced mat_rref probe reduces

BUILD_WORKLOADS = {
    "verify_gf2": ("ml2_q2", "exhaustive"),
    "roundtrip_gf2": ("link10_q2", "sample"),
    "verify_q3": ("link6_q3", "exhaustive"),
}
NAMES = ("verify_gf2", "roundtrip_gf2", "verify_q3", "bound_search")

# Per-layer metrics of a traced pass, with their units.  A metric whose
# layer does no work on a workload reads 0 there.
LAYER_METRICS = {
    "gf.add_ns": "ns", "gf.mul_ns": "ns",
    "matrices.rref_us": "us", "matrices.rank_us": "us",
    "rankcodes.enum_s": "s", "rankcodes.enum_words": "count",
    "rankcodes.enum_us_per_word": "us", "rankcodes.cap_keep_ratio": "ratio",
    "constructions.build_s": "s", "constructions.words": "count",
    "constructions.us_per_word": "us", "constructions.self_s": "s",
    "constructions.build_peak_mb": "MB",
    "subspaces.write_s": "s", "subspaces.file_bytes": "bytes", "subspaces.parse_s": "s",
    "subspaces.parse_us_per_word": "us", "subspaces.sample_us_per_pair": "us",
    "subspaces.verify_s": "s", "subspaces.pairs_checked": "count",
    "subspaces.verify_ns_per_pair": "ns", "subspaces.reject_verify_s": "s",
    "subspaces.verify_peak_mb": "MB", "subspaces.verify_nproc_s": "s",
    "bounds.search_s": "s", "bounds.search_calls": "count", "bounds.search_ms_per_key": "ms",
    "bounds.target_s": "s", "bounds.table_s": "s", "bounds.table_rows": "count",
    "counting.delsarte_hits": "count", "counting.delsarte_misses": "count",
    "counting.gauss_misses": "count",
    "registry.load_ms": "ms", "cli.import_ms": "ms", "cli.self_s": "s",
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class BuildWorkload:
    """Build a plan with `--out`, verify the file, compare bound and count."""

    def __init__(self, name, out_dir, seed):
        self.plan_name, self.mode = BUILD_WORKLOADS[name]
        self.q, plan_text, self.words = PLANS[self.plan_name]
        self.seed = seed
        self.plan = os.path.join(out_dir, self.plan_name + ".plan")
        self.cdc = os.path.join(out_dir, self.plan_name + ".cdc")
        self.planted = os.path.join(out_dir, self.plan_name + ".planted.cdc")
        with open(self.plan, "w", encoding="utf-8") as fh:
            fh.write(plan_text)
        self.first_payloads = None

    def prepare_steps(self):
        """Untimed build whose file the defect recipe and the checks read."""
        return [{"kind": "cli", "argv": ["build", "--plan", self.plan, "--out", self.cdc]}]

    def prepare(self):
        """Check the built file and plant the defect; returns problems."""
        problems = []
        if sha256(self.cdc) != BUILT_SHA256[self.plan_name]:
            problems.append(f"{self.cdc} has SHA-256 {sha256(self.cdc)}, "
                            f"expected {BUILT_SHA256[self.plan_name]}")
        with open(self.cdc, encoding="utf-8") as fh:
            self.code = refcheck.parse_cdc(fh.read())
        problems += refcheck.check_words(self.code)
        if len(self.code.words) != self.words:
            problems.append(f"{len(self.code.words)} codewords, expected {self.words}")
        if self.plan_name == "link10_q2":
            first = sum(max(refcheck.pivots_of(w)) < 5 for w in self.code.words)
            # 2^(5*3) words over C1 = {(I_4 | 0)}, 1 + [4 2]_2 (2^5 - 1) over C2
            if (first, len(self.code.words) - first) != (32768, 1086):
                problems.append(f"{first} words with pivots in the first block and "
                                f"{len(self.code.words) - first} others, expected 32768 and 1086")
        if self.mode == "exhaustive":
            planted, self.expect_min, self.expect_witness = \
                refcheck.plant_defect(self.code, self.seed)
            self.planted_code = planted
            with open(self.planted, "w", encoding="utf-8") as fh:
                fh.write(refcheck.cdc_text(planted.q, planted.n, planted.k, planted.d,
                                           planted.words))
        return problems

    def _verify_argv(self, path, jobs=1):
        argv = ["verify", "--in", path, "--jobs", str(jobs)]
        if self.mode == "sample":
            argv += ["--mode", f"sample:{SAMPLE_PAIRS}:{self.seed}"]
        return argv

    def round_steps(self):
        steps = [["build", "--plan", self.plan, "--out", self.cdc], self._verify_argv(self.cdc)]
        if self.mode == "exhaustive":
            steps.append(self._verify_argv(self.planted))
        steps += [["bound", "--plan", self.plan], ["build", "--plan", self.plan, "--count-only"]]
        return [{"kind": "cli", "argv": argv} for argv in steps]

    def ops_per_round(self):
        return len(self.expected_exits())

    def expected_exits(self):
        return [0, 0] + ([4] if self.mode == "exhaustive" else []) + [0, 0]

    def check_round(self, steps):
        """Problems in a round's outputs, and the number of failed operations."""
        failed = [s["exit"] != want for s, want in zip(steps, self.expected_exits())]
        problems = []
        build, verify, *rest = steps
        if not failed[0]:
            last = _json_lines(build["stdout"])[-1]
            if last != {"total": self.words, "explicit": True}:
                problems.append(f"build printed {last}")
            if sha256(self.cdc) != BUILT_SHA256[self.plan_name]:
                problems.append(f"rebuilt {self.cdc} changed its SHA-256")
        payloads = []
        if not failed[1]:
            payloads.append(_json_lines(verify["stdout"])[0])
        if self.mode == "exhaustive" and not failed[2]:
            payloads.append(_json_lines(rest[0]["stdout"])[0])
        if self.first_payloads is None and len(payloads) == (2 if self.mode == "exhaustive" else 1):
            problems += self._check_verdicts(payloads)
            self.first_payloads = payloads
        elif self.first_payloads is not None and payloads != self.first_payloads[:len(payloads)]:
            problems.append("a verification report differs from the first round's")
        bound, count = rest[-2:]
        if not (failed[-2] or failed[-1]):
            totals = (json.loads(bound["stdout"])["total"], _json_lines(count["stdout"])[-1])
            if totals != (self.words, {"total": self.words, "explicit": False}):
                problems.append(f"bound --plan and build --count-only gave {totals}, "
                                f"expected {self.words} twice")
        return problems, sum(failed)

    def _check_verdicts(self, payloads):
        problems = refcheck.check_report(self.code, payloads[0], REF_SAMPLE, self.seed,
                                         mode=self.mode)
        if payloads[0].get("min_found") != self.code.d:
            problems.append(f"clean code verified at {payloads[0].get('min_found')}, "
                            f"claimed {self.code.d}")
        if self.mode == "sample" and payloads[0].get("pairs_checked") != SAMPLE_PAIRS:
            problems.append(f"sample checked {payloads[0].get('pairs_checked')} pairs")
        if self.mode == "exhaustive":
            problems += refcheck.check_planted(self.planted_code, self.expect_min,
                                               self.expect_witness, payloads[1],
                                               REF_SAMPLE, self.seed)
        return ["verify: " + p for p in problems]

    # -- traced pass -------------------------------------------------------

    def traced_groups(self, nproc):
        """One fresh traced interpreter per group."""
        cli = [s["argv"] for s in self.round_steps()]
        groups = [("build", cli[0:1]), ("verify", cli[1:2])]
        if self.mode == "exhaustive":
            groups += [("reject", cli[2:3]), ("nproc", [self._verify_argv(self.cdc, nproc)])]
        groups.append(("plan_counts", cli[-2:]))
        out = [(name, [{"kind": "cli", "argv": argv} for argv in argvs]) for name, argvs in groups]
        out.append(("probes", [
            {"kind": "probe_gf", "q": self.q, "seed": self.seed},
            {"kind": "probe_rref", "file": self.cdc, "seed": self.seed, "count": RREF_WORDS},
            {"kind": "probe_rank", "code": CAPPED_GABIDULIN[self.plan_name]},
            {"kind": "probe_roundtrip", "plan": self.plan, "file": self.cdc},
        ]))
        return out

    def traced_ops(self):
        return self.ops_per_round() + (self.mode == "exhaustive")

    def check_traced(self, groups):
        steps = [s for name, g in groups.items() if name not in REFERENCE_GROUPS
                 for s in g["steps"]]
        problems, failed = self.check_round(steps)
        if "nproc" in groups:
            nproc = groups["nproc"]["steps"][0]
            failed += nproc["exit"] != 0
            if nproc["exit"] == 0 and _json_lines(nproc["stdout"])[0] != self.first_payloads[0]:
                problems.append("verify --jobs nproc differs from --jobs 1")
        for probe in groups["probes"]["steps"]:
            if probe.get("wrong"):
                problems.append(f"probe {probe} found wrong results")
        return problems, failed

    def layer_metrics(self, groups):
        m = dict.fromkeys(LAYER_METRICS, 0)
        build = groups["build"]
        span = _spans(build)
        enum_s = span("rankcodes.enumerate_code")
        counts = build["counts"]
        m["rankcodes.enum_s"] = enum_s
        m["rankcodes.enum_words"] = counts.get("rankcodes.words", 0)
        m["rankcodes.enum_us_per_word"] = enum_s / max(1, m["rankcodes.enum_words"]) * 1e6
        m["rankcodes.cap_keep_ratio"] = (counts.get("rankcodes.cap_kept", 0)
                                         / max(1, counts.get("rankcodes.cap_enumerated", 0)))
        m["constructions.build_s"] = span("constructions.run_plan")
        m["constructions.words"] = counts.get("constructions.words", 0)
        m["constructions.us_per_word"] = m["constructions.build_s"] / max(1, m["constructions.words"]) * 1e6
        m["constructions.self_s"] = m["constructions.build_s"] - enum_s
        m["constructions.build_peak_mb"] = build["peak_rss_kb"] / 1024
        m["subspaces.write_s"] = span("subspaces.cdc_to_text")
        m["subspaces.file_bytes"] = os.path.getsize(self.cdc)
        verify = groups["verify"]
        vspan = _spans(verify)
        m["subspaces.parse_s"] = vspan("subspaces.cdc_from_text")
        m["subspaces.parse_us_per_word"] = m["subspaces.parse_s"] / self.words * 1e6
        if self.mode == "sample":
            m["subspaces.sample_us_per_pair"] = \
                vspan("subspaces.verify_min_distance:sample") / SAMPLE_PAIRS * 1e6
        else:
            pairs = verify["counts"].get("subspaces.pairs:exhaustive", 0)
            m["subspaces.verify_s"] = vspan("subspaces.verify_min_distance:exhaustive")
            m["subspaces.pairs_checked"] = pairs
            m["subspaces.verify_ns_per_pair"] = m["subspaces.verify_s"] / max(1, pairs) * 1e9
            m["subspaces.reject_verify_s"] = \
                _spans(groups["reject"])("subspaces.verify_min_distance:exhaustive")
            m["subspaces.verify_peak_mb"] = verify["peak_rss_kb"] / 1024
            m["subspaces.verify_nproc_s"] = \
                _spans(groups["nproc"])("subspaces.verify_min_distance:exhaustive")
        probes = {k: v for s in groups["probes"]["steps"] for k, v in s.items()}
        m["gf.add_ns"], m["gf.mul_ns"] = probes["add_ns"], probes["mul_ns"]
        m["matrices.rref_us"], m["matrices.rank_us"] = probes["rref_us"], probes["rank_us"]
        own = [g for name, g in groups.items() if name not in REFERENCE_GROUPS]
        _common_metrics(m, own, list(groups.values()))
        return m


class BoundSearch:
    """Best bound over all families for the 669 admitted keys, target
    recovery for the 122 manifest rows, and `cdckit table`."""

    q = None

    def __init__(self):
        with open(os.path.join(HERE, "data", "keys.txt"), encoding="utf-8") as fh:
            self.keys = [tuple(int(x) for x in line.split())
                         for line in fh if line.strip() and not line.startswith("#")]
        with open(os.path.join(HERE, "data", "published.txt"), encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
        self.published = {(int(t), int(r)): int(v) for t, r, *_, v in rows}
        self.targets = [[int(q), int(n), int(d), int(k), fam, int(v)]
                        for _t, _r, q, n, d, k, fam, v in rows]
        self.floor = {}
        for q, n, d, k, _fam, v in self.targets:
            self.floor[(q, n, d, k)] = max(v, self.floor.get((q, n, d, k), 0))

    def prepare_steps(self):
        return []

    def prepare(self):
        problems = []
        if len(self.keys) != 669 or len(self.targets) != 122:
            problems.append(f"{len(self.keys)} keys and {len(self.targets)} rows, "
                            f"expected 669 and 122")
        missing = set(self.floor) - set(self.keys)
        if missing:
            problems.append(f"manifest keys missing from the key list: {sorted(missing)}")
        return problems

    def round_steps(self):
        return [{"kind": "search", "keys": self.keys},
                {"kind": "targets", "rows": self.targets},
                {"kind": "cli", "argv": ["table"]}]

    def check_round(self, steps):
        search, targets, table = steps
        problems = search["errors"] + targets["errors"]
        failed = len(search["errors"]) + len(targets["errors"])
        for key, found in zip(self.keys, search["results"]):
            if not found:
                problems.append(f"search {key}: no family admitted")
                continue
            problems += [f"search {key} {fam}: terms do not sum to the total"
                         for fam, r in found.items() if not _terms_add_up(r)]
            best = max(r["total"] for r in found.values())
            if best < self.floor.get(key, 0):
                problems.append(f"search {key}: best {best} < published {self.floor[key]}")
        for row, r in zip(self.targets, targets["results"]):
            if r is not None and (r["total"] != row[-1] or not _terms_add_up(r)):
                problems.append(f"target {row}: recovered {r['total']}")
        if table["exit"] != 0:
            return problems, failed + 1
        rows = _json_lines(table["stdout"])
        got = {(r["table"], r["row"]): (r["computed"], r["match"]) for r in rows}
        want = {key: (v, True) for key, v in self.published.items()}
        if len(rows) != 122 or got != want:
            bad = sorted(k for k in want if got.get(k) != want[k])
            problems.append(f"table: {len(rows)} rows, rows differing from the published "
                            f"values: {bad[:5]}")
        return problems, failed

    def ops_per_round(self):
        return len(self.keys) + len(self.targets) + 1

    def traced_groups(self, _nproc):
        return [("search", self.round_steps())]

    def traced_ops(self):
        return self.ops_per_round()

    def check_traced(self, groups):
        return self.check_round(groups["search"]["steps"])

    def layer_metrics(self, groups):
        m = dict.fromkeys(LAYER_METRICS, 0)
        g = groups["search"]
        span = _spans(g)
        m["bounds.search_s"] = span("bounds.optimize_parameters")
        m["bounds.search_calls"] = g["spans"].get("bounds.optimize_parameters", {}).get("calls", 0)
        m["bounds.search_ms_per_key"] = m["bounds.search_s"] / len(self.keys) * 1e3
        m["bounds.target_s"] = span("bounds.optimize_parameters:target")
        m["bounds.table_s"] = span("bounds.reproduce_table")
        m["bounds.table_rows"] = g["counts"].get("bounds.table_rows", 0)
        _common_metrics(m, [g], [g])
        return m


# traced groups that are not operations of the untraced round
REFERENCE_GROUPS = ("nproc", "probes")


def traced_wall(groups):
    """Time of the round's operations in a traced pass; against `wall_s`
    it gives the tracing overhead."""
    return sum(s["elapsed_s"] for name, g in groups.items() if name not in REFERENCE_GROUPS
               for s in g["steps"])


def _terms_add_up(result):
    return sum(v for k, v in result["terms"].items() if k.startswith("term:")) == result["total"]


def _spans(result):
    return lambda name: result["spans"].get(name, {}).get("s", 0.0)


def _common_metrics(m, own, every):
    """Counting, registry and CLI metrics.  `own` are the groups that run the
    workload's own commands; `every` adds the reference groups."""
    info = [g["cache"] for g in own]
    m["counting.delsarte_hits"] = sum(c["delsarte_rank_count"]["hits"] for c in info)
    m["counting.delsarte_misses"] = sum(c["delsarte_rank_count"]["misses"] for c in info)
    m["counting.gauss_misses"] = sum(c["gauss_binomial"]["misses"] for c in info)
    m["registry.load_ms"] = statistics.median(g["registry_load_s"] for g in every) * 1e3
    m["cli.import_ms"] = statistics.median(g["import_s"] for g in every) * 1e3
    m["cli.self_s"] = sum(g["spans"].get("cli.main", {}).get("self_s", 0.0) for g in own)


def make(name, out_dir, seed):
    if name == "bound_search":
        return BoundSearch()
    return BuildWorkload(name, out_dir, seed)

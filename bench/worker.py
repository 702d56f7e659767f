"""One fresh interpreter running the steps of one workload round.

Usage: python3 bench/worker.py JOB.json

The job names cdckit's source directory, the workload's field, the steps
and the result file.  The worker imports cdckit, loads the shipped
registry, constructs the field, prints `ready` (the parent's set-up timer
stops there) and runs the steps.  CLI steps call `cdckit.cli.main` with
stdout and stderr captured.  It writes per-step times and outputs, its
peak resident memory and, when traced, the spans of tracing.py.  When not
traced, a SpeedMeter samples the machine's speed from start to end, and
the result carries its samples for the set-up and for each step.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time

METER_TICK_S = 0.005  # wall seconds between two calibration samples
METER_LOOP = 250  # iterations of the calibration loop (about 90 us here)


class SpeedMeter:
    """Times a fixed loop from a SIGALRM handler every METER_TICK_S
    seconds, so that the speed of the machine is sampled throughout the
    work instead of before or after it.  The loop does what cdckit's
    interpreter-bound kernels do (list copies, bit operations, dict
    stores); it tracked the host's slowdowns of the verify and bound
    kernels better than an arithmetic loop."""

    def __init__(self):
        self.count = 0
        self.loop_s = 0.0  # total time spent in calibration loops
        self.inv = 0.0  # sum of 1 / (loop time)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_TICK_S, METER_TICK_S)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        basis, table = [0] * 9, {}
        for i in range(METER_LOOP):
            row = basis.copy()
            v = (i * 2654435761) & 0xFF | 1
            row[v.bit_length()] ^= v
            table[i & 15] = row
        dt = time.perf_counter() - t0
        self.count += 1
        self.loop_s += dt
        self.inv += 1.0 / dt

    def read(self):
        return [self.count, self.loop_s, self.inv]

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _cli(argv, tracer):
    import cdckit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer:
                code = tracer.call("cli.main", cdckit.cli.main, argv)
            else:
                code = cdckit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def _search(keys, registry):
    """Best bound of every family the registry admits, per key."""
    from cdckit.bounds import FAMILY_EVALUATORS, optimize_parameters
    from cdckit.errors import EmptyGrid

    results, errors = [], []
    for q, n, d, k in keys:
        found = {}
        try:
            for family in FAMILY_EVALUATORS:
                try:
                    r = optimize_parameters(q, n, d, k, family, registry)
                except EmptyGrid:
                    continue
                found[family] = {"total": r.total, "terms": r.terms, "params": r.params}
        except Exception as exc:  # one failed key must not stop the others
            errors.append(f"search {(q, n, d, k)}: {type(exc).__name__}: {exc}")
        results.append(found)
    return {"results": results, "errors": errors}


def _targets(rows, registry):
    """Smallest parameter tuple of the row's family that hits its value."""
    from cdckit.bounds import optimize_parameters

    results, errors = [], []
    for q, n, d, k, family, target in rows:
        try:
            r = optimize_parameters(q, n, d, k, family, registry, target=target)
            results.append({"total": r.total, "terms": r.terms, "params": r.params})
        except Exception as exc:  # one failed row must not stop the others
            errors.append(f"target {(q, n, d, k, family)}: {type(exc).__name__}: {exc}")
            results.append(None)
    return {"results": results, "errors": errors}


def _probe_gf(q, seed, ops=20000, reps=5):
    """ns per GF(q) add and mul on seeded operands (median of reps)."""
    from cdckit.gf import gf

    f = gf(q)
    rng = random.Random(seed)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(ops)]
    out = {}
    for name in ("add", "mul"):
        op = getattr(f, name)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for a, b in pairs:
                op(a, b)
            times.append(time.perf_counter() - t0)
        out[name + "_ns"] = sorted(times)[reps // 2] / ops * 1e9
    return out


def _probe_rref(path, seed, count):
    """mat_rref on seeded codewords scrambled by seeded invertible matrices;
    each result must be the codeword again, since the RREF is unique."""
    import refcheck
    from cdckit.matrices import Matrix, mat_rref
    from cdckit.subspaces import cdc_from_text

    with open(path, encoding="utf-8") as fh:
        code = cdc_from_text(fh.read())
    q, k, n = code.q, code.k, code.n
    rng = random.Random(seed)
    cases = []
    for w in rng.sample(code.codewords, min(count, len(code))):
        while True:
            s = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
            if refcheck.rank(s, q) == k:
                break
        rows = w.mat.rows()
        entries = [sum(s[i][t] * rows[t][c] for t in range(k)) % q
                   for i in range(k) for c in range(n)]
        cases.append((Matrix(w.field, k, n, entries), w.mat.entries))
    t0 = time.perf_counter()
    reduced = [mat_rref(m)[0] for m, _ in cases]
    elapsed = time.perf_counter() - t0
    bad = sum(r.entries != want for r, (_, want) in zip(reduced, cases))
    return {"rref_us": elapsed / len(cases) * 1e6, "wrong": bad}


def _probe_rank(q, a, b, d):
    """mat_rank on every word of the Gabidulin code the build enumerates
    under a rank cap; nonzero words must have rank >= d."""
    from cdckit.matrices import mat_rank
    from cdckit.rankcodes import enumerate_code, gabidulin_mrd

    words = list(enumerate_code(gabidulin_mrd(q, a, b, d)))
    t0 = time.perf_counter()
    ranks = [mat_rank(m) for m in words]
    elapsed = time.perf_counter() - t0
    bad = sum((r < d) != (not any(m.entries)) for r, m in zip(ranks, words))
    return {"rank_us": elapsed / len(words) * 1e6, "words": len(words), "wrong": bad}


def _probe_roundtrip(plan_path, file_path):
    """Build the plan through the API, write it and parse it back: the
    parsed code must equal the built one and the text the CLI's file."""
    from cdckit.constructions import parse_plan, run_plan
    from cdckit.subspaces import cdc_from_text, cdc_to_text

    with open(plan_path, encoding="utf-8") as fh:
        built = run_plan(parse_plan(fh.read())).cdc
    text = cdc_to_text(built)
    parsed = cdc_from_text(text)
    with open(file_path, encoding="utf-8") as fh:
        on_disk = fh.read()
    keys = [w.key() for w in built.codewords]
    return {"wrong": int([w.key() for w in parsed.codewords] != keys) + int(text != on_disk)}


def _peak_rss_kb():
    """Peak resident set of this process image (VmHWM).  Not ru_maxrss:
    Linux carries the parent's high-water mark into it across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    meter = None if job["trace"] else SpeedMeter()
    src = job["src"]
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    import cdckit.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0
    import cdckit

    if not os.path.abspath(cdckit.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"cdckit was imported from {cdckit.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    from cdckit.gf import gf
    from cdckit.registry import shipped_registry

    t0 = time.perf_counter()
    registry = shipped_registry()
    load_s = time.perf_counter() - t0
    if job["q"]:
        gf(job["q"])
    setup_meter = meter.read() if meter else None
    print("ready", flush=True)

    steps = []
    for step in job["steps"]:
        kind = step["kind"]
        before = meter.read() if meter else None
        t0 = time.perf_counter()
        if kind == "cli":
            out = _cli(step["argv"], tracer)
        elif kind == "search":
            out = _search(step["keys"], registry)
        elif kind == "targets":
            out = _targets(step["rows"], registry)
        elif kind == "probe_gf":
            out = _probe_gf(step["q"], step["seed"])
        elif kind == "probe_rref":
            out = _probe_rref(step["file"], step["seed"], step["count"])
        elif kind == "probe_rank":
            out = _probe_rank(*step["code"])
        elif kind == "probe_roundtrip":
            out = _probe_roundtrip(step["plan"], step["file"])
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        out["elapsed_s"] = time.perf_counter() - t0
        if meter:
            out["meter"] = [b - a for a, b in zip(before, meter.read())]
        steps.append(out)
    if meter:
        meter.stop()

    from cdckit import counting

    result = {
        "setup_meter": setup_meter,
        "import_s": import_s,
        "registry_load_s": load_s,
        "peak_rss_kb": _peak_rss_kb(),
        "steps": steps,
        "cache": {name: getattr(counting, name).cache_info()._asdict()
                  for name in ("delsarte_rank_count", "gauss_binomial")},
    }
    if tracer:
        result.update(tracer.report())
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

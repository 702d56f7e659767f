"""cdckit's benchmark: four workloads, three gated end-to-end metrics and a
traced run for per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload verify_gf2 --seed 1 --seconds 15 --trace 0

Each round of a workload runs in a fresh interpreter (bench/worker.py),
which imports cdckit from ./src and drives its CLI and public API.  Rounds
repeat until --seconds have passed; every round runs the same operations.
Outputs are checked against bench/refcheck.py, pinned file hashes and the
published table values.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (bench/tracing.py spans) with --trace 1.
End-to-end times are speed-adjusted with the samples of the worker's
SpeedMeter (see bench/README.md, "Speed adjustment").
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SPAWNS = 5  # fresh interpreters that only set up, before the first round
SETUP_PER_ROUND = 3  # and before each later round
DEADLINE_S = 170  # a run must end within 180 s
REF_LOOP_S = 90e-6  # the worker's calibration loop time on the reference machine


class WorkerFailed(Exception):
    pass


def _worker_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CDCKIT_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(out_dir, name, q, steps, trace, timeout):
    """Run one worker; returns (set-up seconds, its result)."""
    job_path = os.path.join(out_dir, f"{name}.job.json")
    result_path = os.path.join(out_dir, f"{name}.result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "q": q, "trace": trace, "steps": steps,
                   "result": result_path}, fh)
    with open(os.path.join(out_dir, f"{name}.stderr"), "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                                stdout=subprocess.PIPE, stderr=err, env=_worker_env(),
                                cwd=ROOT, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"worker {name} ran out of time") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        with open(err.name, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise WorkerFailed(f"worker {name} exited with {proc.returncode}: {tail}")
    with open(result_path, encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def environment():
    lines = 0
    for base, _dirs, files in os.walk(os.path.join(SRC, "cdckit")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "src_lines": lines}


def _adjusted(elapsed, meter, inv_mean=None):
    """Seconds at the reference speed: the time outside the calibration
    loops, scaled by REF_LOOP_S over the loop time sampled meanwhile (or
    over `inv_mean` when no sample fell inside)."""
    count, loop_s, inv = meter
    if count:
        inv_mean = inv / count
    elif inv_mean is None:
        return elapsed
    return (elapsed - loop_s) * REF_LOOP_S * inv_mean


def _round_wall(steps):
    count = sum(s["meter"][0] for s in steps)
    inv_mean = sum(s["meter"][2] for s in steps) / count if count else None
    return sum(_adjusted(s["elapsed_s"], s["meter"], inv_mean) for s in steps)


def _another(t0, done, seconds, left):
    """Whether to start another round: at least one, then until `seconds`
    have passed, unless one more would overrun the deadline."""
    elapsed = time.perf_counter() - t0
    return not done or (elapsed < seconds and left > 1.5 * elapsed / done)


def run(args, out_dir, start):
    """Prepare the workload, then run traced passes or timed rounds."""
    wl = workloads.make(args.workload, out_dir, args.seed)
    left = lambda: DEADLINE_S - (time.perf_counter() - start)  # noqa: E731
    prep = wl.prepare_steps()
    if prep:
        spawn(out_dir, "prepare", wl.q, prep, False, left())
    problems = wl.prepare()
    return (_traced if args.trace else _rounds)(wl, args.seconds, out_dir, left, problems)


def _traced(wl, seconds, out_dir, left, problems):
    nproc = len(os.sched_getaffinity(0))
    attempted = failed = 0
    passes, traced_walls = [], []
    t0 = time.perf_counter()
    while _another(t0, len(passes), seconds, left()):
        groups = {name: spawn(out_dir, f"trace-{name}", wl.q, steps, True, left())[1]
                  for name, steps in wl.traced_groups(nproc)}
        p, f = wl.check_traced(groups)
        problems += p
        failed += f
        attempted += wl.traced_ops()
        passes.append(wl.layer_metrics(groups))
        traced_walls.append(workloads.traced_wall(groups))
    metrics = {name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
               for name, unit in workloads.LAYER_METRICS.items()}
    return problems, attempted, failed, metrics, {"traced_wall_s": traced_walls}


def _rounds(wl, seconds, out_dir, left, problems):
    attempted = failed = 0
    setups, walls, rss, step_s, raw_walls, raw_setups = [], [], [], [], [], []
    t0 = time.perf_counter()
    while _another(t0, len(walls), seconds, left()):
        # set-up samples spread over the run, so that they see the same
        # machine as the rounds
        for _ in range(SETUP_SPAWNS if not walls else SETUP_PER_ROUND):
            raw, res = spawn(out_dir, "setup", wl.q, [], False, left())
            raw_setups.append(raw)
            setups.append(_adjusted(raw, res["setup_meter"]))
        _setup, res = spawn(out_dir, "round", wl.q, wl.round_steps(), False, left())
        p, f = wl.check_round(res["steps"])
        problems += p
        failed += f
        attempted += wl.ops_per_round()
        step_s.append([s["elapsed_s"] for s in res["steps"]])
        raw_walls.append(sum(step_s[-1]))
        walls.append(_round_wall(res["steps"]))
        rss.append(res["peak_rss_kb"] / 1024)
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    return problems, attempted, failed, metrics, {"step_s": step_s, "raw_walls": raw_walls,
                                                 "raw_setups": raw_setups, "rss": rss}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "cdckit", "__init__.py")):
        print(f"no cdckit sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = environment()
    try:
        problems, attempted, failed, metrics, detail = run(args, out_dir, start)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "attempted": attempted, "failed": failed, "detail": detail,
              "problems": problems, "metrics": metrics}
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"# env nproc={env['nproc']} python={env['python']} src_lines={env['src_lines']}")
    print(f"# {args.workload}: attempted {attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"# unadjusted medians: wall {statistics.median(detail['raw_walls']):.6g} s, "
              f"setup {statistics.median(detail['raw_setups']):.6g} s")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

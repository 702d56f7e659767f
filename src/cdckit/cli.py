"""Batch command-line front end.

Exit codes are a contract for CI: 0 success, 2 usage or violated
hypothesis, 3 missing registry value (the key is named), 4 failed
verification or table mismatch (the witness or row is named).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import bounds
from .constructions import parse_plan, run_plan
from .counting import bounded_rank_size, delsarte_rank_count, gauss_binomial, mrd_size
from .errors import CdckitError, RegistryMiss
from .gf import factor_prime_power, row_codes
from .registry import BaseBoundRegistry, shipped_registry
from .subspaces import cdc_from_text, cdc_to_text, verify_min_distance

USAGE_EXIT, REGISTRY_EXIT, VERIFY_EXIT = 2, 3, 4
# `count` refuses a value of order q^e with e * ceil(log2 q) over this many
# bits (39,457 digits) before computing it; the table values have under 200
COUNT_MAX_BITS = 1 << 17


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one stderr line, exit 2
        # a quoted value of over 30 characters (an int past 4,300 digits) is named by its length
        message = re.sub(r"'([^']{31,})'", lambda m: f"a {len(m[1]):,}-character value", message)
        # and so is an unquoted stray token of over 30 characters
        stray = "unrecognized arguments: "
        if message.startswith(stray):
            message = stray + " ".join(t if len(t) <= 30 else f"a {len(t):,}-character argument"
                                       for t in message[len(stray):].split(" "))
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _check_cap(q: int, e: int, what: str) -> None:
    """Refuse `what`, of order q^e, before computing it when e * ceil(log2 q)
    is over the cap."""
    if e * (q - 1).bit_length() > COUNT_MAX_BITS:
        raise ValueError(f"{what} is over the {COUNT_MAX_BITS}-bit cap")


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_registry(path: Optional[str]) -> BaseBoundRegistry:
    reg = BaseBoundRegistry(dict(shipped_registry().entries))
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            reg.merge_text(fh.read())
    return reg


# expression -> (function, arity)
_COUNTS = {"gauss": (gauss_binomial, 3), "mrd": (mrd_size, 4),
           "delsarte": (delsarte_rank_count, 5), "bounded": (bounded_rank_size, 5)}


def _cmd_count(args) -> int:
    expr, vals = args.expr, args.args
    if expr not in _COUNTS:
        print(f"unknown expression {expr!r}", file=sys.stderr)
        return USAGE_EXIT
    fn, arity = _COUNTS[expr]
    if len(vals) != arity:
        print(f"{expr} takes {arity} integers, got {len(vals)}", file=sys.stderr)
        return USAGE_EXIT
    if expr == "gauss":
        n, k, q = vals
        log_q = k * (n - k)  # [n choose k]_q < 4 q^(k(n-k))
    else:
        q, a, b, d = vals[:4]
        log_q = max(a, b) * (min(a, b) - d + 1)  # each count here is <= m(q,a,b,d)
    factor_prime_power(q)  # q must be a prime power
    _check_cap(q, log_q, f"{expr} value")
    print(fn(*vals))
    return 0


# the `bound` flags: every family parameter, in the order the families list them
_BOUND_FLAGS = tuple(dict.fromkeys(
    name for fam in bounds.FAMILIES.values() for name in fam.names))


def _cmd_bound(args) -> int:
    registry = _load_registry(args.registry)
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = parse_plan(fh.read())
        family = bounds.PLAN_FAMILIES[plan.family].name
        if family not in bounds.FAMILIES:
            raise ValueError(
                f"family {plan.family!r} has no closed-form bound; evaluate it "
                f"with `build --count-only`"
            )
        q, n, d, k, given = plan.q, plan.n, plan.d, plan.k, plan.params
    else:
        family = args.family
        q, n, d, k = args.q, args.n, args.d, args.k
        if family is None or None in (q, n, d, k):
            print("--family --q --n --d --k are required without --plan", file=sys.stderr)
            return USAGE_EXIT
        factor_prime_power(q)
        given = {name: getattr(args, name) for name in _BOUND_FLAGS}
    _check_cap(q, k * (n - k), "a bound of order q^(k(n-k))")  # at most [n choose k]_q
    if family == "cor45":  # by flags only: no plan names it
        stray = [name for name, value in given.items() if value is not None]
        if stray:
            raise ValueError(f"cor45 takes no parameter {', '.join(stray)}")
        if (n, d, k) not in bounds.COR45:
            raise ValueError(f"cor45 has no tuple for ({n},{d},{k})")
        family, given = bounds.COR45[n, d, k]
        total = bounds.evaluate(family, q, n, d, k, given, registry).total
        _emit({"family": "cor45", "q": q, "n": n, "d": d, "k": k, "total": total})
        print(f"# A_{q}({n},{d},{k}) >= {total}", file=sys.stderr)
        return 0
    result = bounds.evaluate(family, q, n, d, k, given, registry)
    _emit({
        "family": result.family, "q": q, "n": n, "d": d, "k": k,
        "params": result.params, "total": result.total, "terms": result.terms,
        "registry_deps": [list(t) for t in sorted(set(result.registry_deps))],
    })
    print(f"# A_{q}({n},{d},{k}) >= {result.total} via {family} {result.params}",
          file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    if args.q is not None:
        factor_prime_power(args.q)
    registry = _load_registry(args.registry)
    ids = [args.id] if args.id else list(bounds.ALL_TABLE_IDS)
    rows, bad = 0, []
    for tid in ids:
        for row in bounds.reproduce_table(tid, q_filter=args.q, registry=registry):
            _emit(row)
            rows += 1
            if not row["match"]:
                bad.append(f"table {tid} row {row['row']} "
                           f"A_{row['q']}({row['n']},{row['d']},{row['k']}): "
                           f"computed {row['computed']} != {row['published_new']} "
                           f"(delta {row['computed'] - row['published_new']})")
    if bad:  # one stderr line names every mismatched row
        print(f"# MISMATCH in {len(bad)} of {rows} rows: " + "; ".join(bad), file=sys.stderr)
        return VERIFY_EXIT
    return 0


def _cmd_build(args) -> int:
    registry = _load_registry(args.registry)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = parse_plan(fh.read())
    _check_cap(plan.q, plan.k * (plan.n - plan.k), "a code of order q^(k(n-k))")
    out = run_plan(plan, registry, explicit=not args.count_only)
    if out.cdc is not None and args.out:  # first, so that a failed write leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as fh:
            cdc_to_text(out.cdc, fh)
        print(f"# wrote {len(out.cdc)} codewords to {args.out}", file=sys.stderr)
    for name, value in sorted(out.component_counts.items()):
        _emit({"component": name, "count": value})
    _emit({"total": out.total, "explicit": out.cdc is not None})
    return 0


def _cmd_verify(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        code = cdc_from_text(fh)
    mode, parts = args.mode, args.mode.split(":")
    if parts[0] == "sample" and len(parts) in (2, 3):
        count = int(parts[1])
        if (len(parts) > 2) == (args.seed is not None):
            print("sampling needs one seed: use sample:N:SEED or --seed", file=sys.stderr)
            return USAGE_EXIT
        seed = int(parts[2]) if len(parts) > 2 else args.seed
        report = verify_min_distance(code, mode="sample", sample_count=count, seed=seed)
    elif mode == "exhaustive":
        if args.seed is not None:
            print("--seed applies to sample mode only", file=sys.stderr)
            return USAGE_EXIT
        report = verify_min_distance(code)
    else:
        print(f"bad --mode {mode!r}; use exhaustive or sample:N[:SEED]", file=sys.stderr)
        return USAGE_EXIT
    payload = {
        "min_found": None if report.min_found == float("inf") else report.min_found,
        "pairs_checked": report.pairs_checked,
        "mode": report.mode,
        "seed": report.seed,
        "claimed_d": code.d,
        "ok": bool(report.ok(code.d)),
    }
    if report.witness is not None:
        i, j = report.witness
        payload["witness"] = {
            "indices": [i, j],
            "rows_i": [list(row_codes(code.field, row, code.n)) for row in code[i].rows],
            "rows_j": [list(row_codes(code.field, row, code.n)) for row in code[j].rows],
        }
    _emit(payload)
    if not report.ok(code.d):
        print(f"# FAIL no pair to check: the file has {len(code)} codewords"
              if report.pairs_checked == 0 else
              f"# FAIL min_found {report.min_found} < claimed {code.d}; "
              f"witness pair {report.witness}", file=sys.stderr)
        return VERIFY_EXIT
    return 0


def _cmd_registry(args) -> int:
    arity = 4 if args.action == "get" else 0
    if len(args.args) != arity:
        print(f"{args.action} takes {arity} integers, got {len(args.args)}", file=sys.stderr)
        return USAGE_EXIT
    registry = _load_registry(args.registry)
    if args.action == "list":
        sys.stdout.write(registry.to_text())
        return 0
    q, n, _, k = args.args
    factor_prime_power(q)  # q must be a prime power
    _check_cap(q, k * (n - k), "a value of order q^(k(n-k))")  # at most [n choose k]_q
    value, source = registry.lookup(*args.args)
    print(f"{value} {source}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cdckit", description="constant-dimension code workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="exact q-combinatorics")
    p.add_argument("expr", help="gauss|mrd|delsarte|bounded")
    p.add_argument("args", nargs="*", type=int)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("bound", help="evaluate a lower-bound family")
    p.add_argument("--family", choices=list(bounds.FAMILIES) + ["cor45"])
    p.add_argument("--plan")
    p.add_argument("--registry")
    for name in ("q", "n", "d", "k") + _BOUND_FLAGS:
        p.add_argument(f"--{name}", type=int)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("table", help="reproduce published table rows")
    p.add_argument("--id", type=int, choices=bounds.ALL_TABLE_IDS)
    p.add_argument("--q", type=int)
    p.add_argument("--registry")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("build", help="run a construction plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--registry")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("verify", help="check the minimum distance of a CDC file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", default="exhaustive", help="exhaustive | sample:N[:SEED]")
    p.add_argument("--seed", type=int, help="sampling seed (alternative to sample:N:SEED)")
    p.add_argument("--jobs", type=int, default=0,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("registry", help="inspect base code sizes")
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("args", nargs="*", type=int)
    p.add_argument("--registry")
    p.set_defaults(fn=_cmd_registry)

    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # exact values may have more digits than Python (3.10.7 on) converts to
    # str by default; output prints them whole, and the limit is restored
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits:
        limit = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.fn(args)
    except RegistryMiss as exc:
        q, n, d, k = exc.key
        print(f"registry miss: ({q},{n},{d},{k})", file=sys.stderr)
        return REGISTRY_EXIT
    except (CdckitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    finally:
        if set_digits:
            set_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

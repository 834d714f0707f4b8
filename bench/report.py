"""Repeated runs of the benchmark: stability of the end-to-end metrics and
the traced per-layer report.

    python3 bench/report.py stability [--runs 10] [--seconds T] [--out FILE]
    python3 bench/report.py trace [--seed 1] [--seconds T] [--out FILE]

``stability`` makes two sets of runs of the same code, one set after the
other, alternating workloads inside each set and giving every run its own
seed.  For each workload and end-to-end metric it prints each set's median
and spread (quartile distance over median), and whether the spread stays
within the metric's bound in ``BENCHMARK.json`` (``setup_s`` is exempt) and
the second median is no worse than the first by more than the bound.
``steady`` marks a spread below a third of the bound.  Exit code 1 means
some check failed or some run reported a failed operation.

``trace`` runs every workload once with ``--trace 1`` and prints each one's
tracing overhead and its heaviest layers by self time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SET_SEEDS = {"A": 1000, "B": 2000}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, check=True, timeout=300)
    lines = proc.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"python": platform.python_version(), "commit": commit,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list[dict]) -> tuple[list[dict], bool]:
    """Print and return, per workload and end-to-end metric, each set's
    median and spread and the verdict against the metric's bound."""
    ok = True
    rows = []
    print(f"\n{'workload':14} {'metric':12} {'unit':4} {'median A':>10} {'spread A':>8} "
          f"{'median B':>10} {'spread B':>8} {'worse':>7} {'bound':>5}  verdict")
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = {s: [r["metrics"][name]["value"] for r in mine if r["set"] == s]
                       for s in SET_SEEDS}
            med = {s: statistics.median(v) for s, v in per_set.items()}
            spr = {s: spread(v) for s, v in per_set.items()}
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (med["B"] - med["A"]) / med["A"]
            within = worse <= bound and (
                name == "setup_s" or max(spr.values()) <= bound)
            steady = max(spr.values()) < bound / 3
            ok = ok and within
            verdict = ("ok" if within else "FAIL") + (", steady" if steady else "")
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "median": med, "spread": spr, "worse": worse,
                         "bound": bound, "within": within, "steady": steady})
            print(f"{workload:14} {name:12} {metric['unit']:4} {med['A']:10.4g} "
                  f"{spr['A']:8.2%} {med['B']:10.4g} {spr['B']:8.2%} {worse:7.2%} "
                  f"{bound:5.2f}  {verdict}")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        ok = ok and failed == 0
        print(f"{workload:14} fail_ratio   {failed}/{attempted} = {failed / attempted:.3g}")
    return rows, ok


def stability(args) -> int:
    seconds = args.seconds or SPEC["run_seconds"]
    runs = []
    for set_name, base in SET_SEEDS.items():
        for i in range(args.runs):
            for workload in WORKLOADS:
                result = bench(workload, base + i, seconds, 0)
                runs.append({"set": set_name, "seed": base + i, "workload": workload,
                             **result})
                m = result["metrics"]
                print(f"set {set_name} run {i + 1}/{args.runs} {workload:14} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                      flush=True)
    rows, ok = summarize(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seconds": seconds, "runs_per_set": args.runs,
             "set_seeds": {s: [b, b + args.runs - 1] for s, b in SET_SEEDS.items()},
             "summary": rows, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


def trace(args) -> int:
    seconds = args.seconds or SPEC["run_seconds"]
    results = {w: bench(w, args.seed, seconds, 1) for w in WORKLOADS}
    for workload, result in results.items():
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"\n{workload}: tracing overhead {m['trace.overhead_ratio']:.3f}x, "
              f"{result['details']['spans']} spans, {result['details']['op_samples']} ops")
        shares = sorted(((v, k[:-len(".self_share")]) for k, v in m.items()
                         if k.endswith(".self_share")), reverse=True)
        for share, name in shares[:8]:
            print(f"  {name:46} self {share:7.2%}  calls/op "
                  f"{m[name + '.calls_per_op']:.4g}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seconds": seconds, "seed": args.seed,
             "results": results}, indent=1) + "\n")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("stability")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out")
    p.set_defaults(func=stability)
    p = sub.add_parser("trace")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out")
    p.set_defaults(func=trace)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

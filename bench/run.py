"""Benchmark of ``pipedreams``, driven only through its public functions
and its command line.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
``src/``, builds nothing and exits with code 2 when ``src/pipedreams`` is
missing.  Every session runs in a fresh interpreter (``worker.py``), one at
a time, because the machine the benchmark was sized on has two cores.

Every process of a run is pinned to one CPU.  The host speed changes every
few seconds, so sessions time a fixed reference loop between operations
and the end-to-end times are scaled by the host slowdown (see
``worker.Loop``); the details line keeps the raw values.

``--trace 0`` times ``setup_s`` as the median over several fresh sessions
(spawn to first operation), then measures the workload for T seconds and
prints the end-to-end metrics.  ``perm-queries`` never repeats an input in
one process: when a pass over S_7 ends before the window does, the next
pass runs in a new process with a new shuffle, so no cache carries over.

``--trace 1`` runs an untraced session for T/3 seconds, then replays the
same operations in a fresh session with the tracer installed, and prints
the per-layer metrics and the tracing overhead (traced over untraced wall
time of the same operations).  Spans are written to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (sample counts, work counts, first errors).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from worker import OUT, REFERENCE_NOMINAL_MS, ROOT, SRC, TRACED, WORKLOADS

SETUP_PROBES = 9
DEADLINE_S = 175
TRACE_SHARE = 1 / 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, names in TRACED.items():
        for name in names:
            if module == "verify":
                units[f"verify.{name}.total_s"] = "s"
            else:
                units[f"{module}.{name}.calls_per_op"] = "calls/op"
                units[f"{module}.{name}.self_share"] = "share"
    units.update({
        "rcgraph.fillings_per_call": "fillings/call",
        "rcgraph.us_per_filling": "us",
        "poly.terms_per_op": "terms/op",
        "catalan.q_catalan.hit_ratio": "share",
        "trace.overhead_ratio": "ratio",
        "workload.repeat_share": "share",
        "workload.mean_length": "count",
        "workload.fillings_per_op": "count",
        "workload.fillings_per_pass": "count",
        "workload.enumerate_calls_per_run": "count",
    })
    return units


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def session(self, seconds: float, **extra) -> dict:
        argv = [sys.executable, str(ROOT / "bench" / "worker.py"), "session",
                "--workload", self.workload, "--seed", str(self.seed),
                "--seconds", repr(seconds)]
        for key, value in extra.items():
            if value is True:
                argv.append(f"--{key.replace('_', '-')}")
            elif value is not None:
                argv += [f"--{key.replace('_', '-')}", str(value)]
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT,
                                  timeout=max(timeout, 1), check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"session {argv[3:]} ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"session {argv[3:]} exited with code {proc.returncode}")
        out = json.loads(proc.stdout.decode().splitlines()[-1])
        out["setup_s"] = out["ready_at"] - spawned
        return out

    def measure(self, seconds: float) -> list[dict]:
        """Sessions that together fill a window of ``seconds``."""
        sessions = [self.session(seconds, **{"pass": 0})]
        while sessions[-1]["exhausted"]:
            left = seconds - sum(s["window_s"] for s in sessions)
            if left <= 0:
                break
            sessions.append(self.session(left, **{"pass": len(sessions)}))
        return sessions


def tail(values: list[float]) -> tuple[float, float]:
    """Nearest-rank latency at the highest percentile, at most the 99th,
    that leaves at least ten samples beyond it, and that percentile.  A run
    too short to resolve any percentile above the median (fewer than 20
    samples, as on verify-cli) reports its median."""
    q = min(0.99, 1 - 10 / len(values))
    if q <= 0.5:
        return statistics.median(values), 50.0
    return sorted(values)[math.ceil(q * len(values)) - 1], q * 100


def timings(setup: list[float], sessions: list[dict], scaled: bool) -> dict:
    """setup_s, ops_per_s, op_p50_ms, op_p99_ms, raw or scaled by the run's
    host slowdown (set-up sessions are too short to calibrate, so their
    median is scaled by the median slowdown of the run)."""
    key = "scaled_" if scaled else ""
    lat = [x for s in sessions for x in s[key + "lat_ms"]]
    slowdown = host_slowdown(sessions) if scaled else 1.0
    return {
        "setup_s": statistics.median(setup) / slowdown,
        "ops_per_s": len(lat) / sum(s[key + "busy_s"] for s in sessions),
        "op_p50_ms": statistics.median(lat),
        "op_p99_ms": tail(lat)[0],
    }


def host_slowdown(sessions: list[dict]) -> float:
    return statistics.median(x for s in sessions for x in s["ref_ms"]) / REFERENCE_NOMINAL_MS


def untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = [runner.session(0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    sessions = runner.measure(seconds)
    setup += [s["setup_s"] for s in sessions]
    metrics = timings(setup, sessions, scaled=True)
    metrics["peak_rss_mb"] = max(s["peak_rss_kb"] for s in sessions) / 1024
    lat = [x for s in sessions for x in s["lat_ms"]]
    raw_tail, percentile = tail(lat)
    details = {
        "setup_samples": len(setup),
        "op_samples": len(lat),
        "tail_percentile": percentile,
        "samples_beyond_tail": sum(1 for x in lat if x > raw_tail),
        "sessions": len(sessions),
        "window_s": sum(s["window_s"] for s in sessions),
        "host_slowdown": host_slowdown(sessions),
        "calibrations": sum(len(s["ref_ms"]) for s in sessions),
        "raw": timings(setup, sessions, scaled=False),
        "properties": merge_properties(sessions),
    }
    return metrics, sessions_details(sessions, details)


def merge_properties(sessions: list[dict]) -> dict:
    props = [s["properties"] for s in sessions]
    if "queries" not in props[0]:
        return props[-1]
    queries = sum(p["queries"] for p in props)
    merged = {"queries": queries}
    for key in ("repeat_share", "mean_length", "fillings_per_op"):
        merged[key] = sum(p[key] * p["queries"] for p in props) / max(queries, 1)
    return merged


def sessions_details(sessions: list[dict], details: dict) -> dict:
    details["attempted"] = sum(s["attempted"] for s in sessions)
    details["failed"] = sum(s["failed"] for s in sessions)
    details["errors"] = [e for s in sessions for e in s["errors"]][:5]
    return details


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain = runner.session(seconds * TRACE_SHARE, **{"pass": 0})
    ops = len(plain["lat_ms"])
    prefix = OUT / f"spans-{runner.workload}-seed{runner.seed}"
    traced_run = runner.session(seconds, **{"pass": 0, "ops": ops, "trace": prefix})
    traces = traced_run["traces"]
    wall_ns = sum(t["wall_ns"] for t in traces)
    functions: dict[str, dict] = {}
    for t in traces:
        for name, entry in t["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value

    metrics: dict[str, float] = {}
    for module, names in TRACED.items():
        for qualname in names:
            f = functions[f"{module}.{qualname}"]
            if module == "verify":
                metrics[f"verify.{qualname}.total_s"] = f["total_ns"] / 1e9 / ops
            else:
                metrics[f"{module}.{qualname}.calls_per_op"] = f["calls"] / ops
                metrics[f"{module}.{qualname}.self_share"] = f["self_ns"] / wall_ns
    enum = functions["rcgraph.enumerate_rcgraphs"]
    cache_hits = sum(t["q_catalan_cache"]["hits"] for t in traces)
    cache_calls = cache_hits + sum(t["q_catalan_cache"]["misses"] for t in traces)
    props = traced_run["properties"]
    metrics.update({
        "rcgraph.fillings_per_call": enum["count"] / max(enum["calls"], 1),
        "rcgraph.us_per_filling": enum["total_ns"] / 1e3 / max(enum["count"], 1),
        "poly.terms_per_op": functions["poly.schubert_polynomial"]["count"] / ops,
        "catalan.q_catalan.hit_ratio": cache_hits / max(cache_calls, 1),
        "trace.overhead_ratio": traced_run["scaled_busy_s"] / plain["scaled_busy_s"],
        "workload.repeat_share": props.get("repeat_share", 0),
        "workload.mean_length": props.get("mean_length", 0),
        "workload.fillings_per_op": props.get("fillings_per_op", 0),
        "workload.fillings_per_pass": props.get("fillings_per_pass", 0),
        "workload.enumerate_calls_per_run": props.get("enumerate_calls_per_run", 0),
    })
    details = {
        "op_samples": ops,
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": traced_run["busy_s"],
        "host_slowdown": {"untraced": host_slowdown([plain]),
                          "traced": host_slowdown([traced_run])},
        "traced_wall_s": wall_ns / 1e9,
        "spans": sum(t["spans"] for t in traces),
        "spans_file_prefix": str(prefix.relative_to(ROOT)),
        "properties": props,
    }
    return metrics, sessions_details([plain, traced_run], details)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pipedreams" / "__init__.py").is_file():
        print(f"error: no pipedreams sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for every process of the run, so that the host speed measured
    # in a session is the speed its verify-cli children run at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, details = traced(runner, args.seconds)
            units = per_layer_units()
        else:
            values, details = untraced(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, python=sys.version.split()[0])
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

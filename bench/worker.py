"""One benchmark session, run in a fresh interpreter by ``run.py``.

    python3 bench/worker.py session --workload W --seed S --seconds T
                                    [--pass K] [--ops N] [--trace PREFIX]
                                    [--setup-only]
    python3 bench/worker.py cli-child --trace PREFIX [--only-enumerate]

A session imports ``pipedreams`` from ``src/``, generates its inputs from
the seed and notes the moment it is ready as ``time.monotonic()``, a clock
every process on the host shares, so the parent can time set-up from the
moment it spawned the session.  It then runs one operation at a time
(closed loop, one client) until its measuring window of T seconds or its
input pool ends, or, with ``--ops``, exactly N operations.  Each output is
checked after its operation's clock stops, unless the check is part of the
operation itself.  A raise or a failed check counts one failed operation
and the session carries on.  The session prints one JSON line.

``cli-child`` runs ``pipedreams verify --max-n 8`` through ``cli.main``
with the tracer installed (only around ``enumerate_rcgraphs`` with
``--only-enumerate``), prints the command's stdout unchanged and writes
the trace summary to PREFIX.json and the spans to PREFIX.tsv.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden" / "verify-max-n-8.stdout"
VERIFY_ARGS = ["verify", "--max-n", "8"]
CHILD_TIMEOUT_S = 150

WORKLOADS = ("perm-queries", "zigzag-family", "verify-cli")
PERM_SIZE = 7
ZIGZAG_N = 9
REFERENCE_LOOPS = 3_000
REFERENCE_NOMINAL_MS = 1.5
CALIBRATE_EVERY_S = 0.25

# Public functions wrapped by the traced run, per module of src/pipedreams.
TRACED = {
    "rcgraph": ["enumerate_rcgraphs", "RcGraph.permutation", "RcGraph.from_crosses",
                "inverse_chute_move", "split", "unsplit"],
    "poly": ["schubert_polynomial", "schubert_via_divided_differences",
             "SparsePolynomial.divided_difference", "SparsePolynomial.__mul__",
             "SparsePolynomial.principal_specialization"],
    "perm": ["Permutation.inverse"],
    "catalan": ["q_catalan", "q_catalan_via_partitions", "enumerate_staircase_partitions"],
    "bijections": ["partition_of", "rcgraph_of", "bracketing_of", "partition_to_dyck"],
    "eg": ["eg_word", "eg_insert", "evacuate", "eg_partition_of"],
    "multiplicity": ["verify_catalan_specialization", "schubert_multiplicity_at_identity"],
    "verify": ["check_figure_family", "check_specialization", "check_counting",
               "check_oracle", "check_partition_bijection", "check_dyck_transport",
               "check_eg", "check_transpose", "check_split", "check_multiplicity",
               "check_q_catalan"],
    "cli": ["main"],
}
# Result counts summed per traced function: fillings listed, terms produced.
RESULT_COUNTS = {
    "rcgraph.enumerate_rcgraphs": len,
    "poly.schubert_polynomial": lambda poly: len(poly.terms),
}


def import_pipedreams():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pipedreams

    return pipedreams


def install_tracer(only_enumerate: bool = False):
    from tracer import Tracer

    tracer = Tracer()
    for module in TRACED:
        importlib.import_module(f"pipedreams.{module}")
    for module, names in TRACED.items():
        for qualname in names:
            name = f"{module}.{qualname}"
            if only_enumerate and name != "rcgraph.enumerate_rcgraphs":
                continue
            tracer.install("pipedreams", module, qualname, RESULT_COUNTS.get(name))
    return tracer


def trace_report(tracer, wall_ns: int, prefix: str) -> dict:
    """Summary of a traced region, taken after ``uninstall``; the spans go
    to PREFIX.tsv."""
    cache = sys.modules["pipedreams.catalan"].q_catalan.cache_info()
    return {
        "wall_ns": wall_ns,
        "spans": tracer.write_spans(f"{prefix}.tsv"),
        "functions": tracer.summary(),
        "q_catalan_cache": {"hits": cache.hits, "misses": cache.misses},
    }


def reference() -> int:
    """Fixed pure-Python work that never touches pipedreams.  Its duration
    measures the host's speed at that moment."""
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(REFERENCE_LOOPS):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


class Loop:
    """Closed loop with one client: time each operation, then check it.

    The host this benchmark was sized on changes speed by up to 1.6x, per
    CPU, every few seconds, whatever runs on it.  So the loop times
    ``reference()`` at least every CALIBRATE_EVERY_S, and scales each
    operation's time by its host slowdown: the median reference time over
    REFERENCE_NOMINAL_MS, taken over the samples made during the operation
    (by ``sampling`` while a child process runs) or else over the last
    three made before it.  Raw and scaled times are both kept.
    """

    def __init__(self, seconds: float, max_ops: int | None) -> None:
        self.seconds = seconds
        self.max_ops = max_ops
        self.lat_ms: list[float] = []
        self.scaled_lat_ms: list[float] = []
        self.busy_s = 0.0
        self.scaled_busy_s = 0.0
        self.ref_ms: list[float] = []
        self.calibrated_at: float | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.start: float | None = None

    def more(self) -> bool:
        if self.max_ops is not None:
            return len(self.lat_ms) < self.max_ops
        return self.start is None or time.perf_counter() - self.start < self.seconds

    def calibrate(self) -> None:
        """Time one warm call of reference() in this thread's CPU time, which
        leaves out any time another process held the CPU meanwhile."""
        reference()
        t0 = time.thread_time()
        reference()
        self.ref_ms.append((time.thread_time() - t0) * 1e3)
        self.calibrated_at = time.perf_counter()

    @contextlib.contextmanager
    def sampling(self):
        """Calibrate on a thread while the caller waits on a child process
        pinned to the same CPU."""
        stop = threading.Event()

        def sample():
            while not stop.wait(CALIBRATE_EVERY_S):
                self.calibrate()

        thread = threading.Thread(target=sample)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def _timed(self, fn):
        """(result or None, exception or None, elapsed seconds, slowdown)."""
        now = time.perf_counter()
        if self.start is None:
            self.start = now
        if self.calibrated_at is None or now - self.calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrate()
        first = len(self.ref_ms)
        t0 = time.perf_counter()
        result = error = None
        try:
            result = fn()
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter() - t0
        slowdown = statistics.median(self.ref_ms[first:] or self.ref_ms[-3:]) / REFERENCE_NOMINAL_MS
        self.busy_s += elapsed
        self.scaled_busy_s += elapsed / slowdown
        return result, error, elapsed, slowdown

    def timed(self, fn):
        """Run fn in the busy time without counting an operation."""
        result, error, _, _ = self._timed(fn)
        if error is not None:
            raise error
        return result

    def op(self, fn, check) -> None:
        """Time one operation, then check its result outside the clock;
        ``check`` returns a problem description or None."""
        self.attempted += 1
        result, error, elapsed, slowdown = self._timed(fn)
        self.lat_ms.append(elapsed * 1e3)
        self.scaled_lat_ms.append(elapsed * 1e3 / slowdown)
        if error is not None:
            self.fail(f"raised {error!r}")
        else:
            self._check(check, result)

    def check(self, check, result) -> None:
        """A check that is not part of any operation counts as one attempt."""
        self.attempted += 1
        self._check(check, result)

    def _check(self, check, result) -> None:
        try:
            problem = check(result)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(problem)

    def window_s(self) -> float:
        return 0.0 if self.start is None else time.perf_counter() - self.start


# -- workloads ------------------------------------------------------------------
#
# Each workload's __init__ is its set-up (timed by the parent as setup_s) and
# run() its measured loop; properties() are work counts that repeat exactly
# for a fixed seed and list of operations.


class PermQueries:
    """One pass over a seeded shuffle of S_7, without replacement; each
    operation is the pipe-dream sum checked against divided differences,
    as ``pipedreams schubert --oracle`` does."""

    def __init__(self, seed: int, pass_index: int) -> None:
        pd = import_pipedreams()
        self.pd = pd
        words = list(itertools.permutations(range(1, PERM_SIZE + 1)))
        random.Random(f"perm-queries:{seed}:{pass_index}").shuffle(words)
        self.pool = [pd.Permutation(word) for word in words]
        self.done = 0
        self.seen: set = set()
        self.repeats = 0
        self.length_sum = 0
        self.fillings = 0

    def run(self, loop: Loop) -> bool:
        pd = self.pd
        for w in self.pool:
            if not loop.more():
                return False
            self.done += 1
            if w in self.seen:
                self.repeats += 1
            self.seen.add(w)

            def query(w=w):
                poly = pd.schubert_polynomial(w)
                return poly, poly == pd.schubert_via_divided_differences(w)

            def check(out, w=w):
                poly, agrees = out
                if not agrees:
                    return f"{w}: pipe-dream sum differs from divided differences"
                if any(sum(exp) != w.length for exp in poly.terms):
                    return f"{w}: a term's degree differs from l(w) = {w.length}"
                self.length_sum += w.length
                self.fillings += poly.evaluate_all_ones()
                return None

            loop.op(query, check)
        return True

    def properties(self) -> dict:
        n = max(self.done, 1)
        return {"queries": self.done, "repeat_share": self.repeats / n,
                "mean_length": self.length_sum / n, "fillings_per_op": self.fillings / n}


def eg_round_trip(pd, d, n: int):
    word = pd.eg_word(d)
    return word, pd.evacuate(pd.eg_insert(word)[1], n)


class ZigzagFamily:
    """Repeated passes over the fillings of the zigzag of 9: list them, then
    put each filling, in seeded order, through four round trips."""

    def __init__(self, seed: int, pass_index: int) -> None:
        pd = import_pipedreams()
        self.pd = pd
        self.w = pd.zigzag(ZIGZAG_N)
        self.expected = pd.catalan(ZIGZAG_N)
        self.rng = random.Random(f"zigzag-family:{seed}:{pass_index}")
        self.passes = 0
        self.pass_sizes: list[int] = []

    def run(self, loop: Loop) -> bool:
        pd, n = self.pd, ZIGZAG_N
        while loop.more():
            family = loop.timed(lambda: pd.enumerate_rcgraphs(self.w))
            self.passes += 1
            self.pass_sizes.append(len(family))
            loop.check(lambda size: None if size == self.expected else
                       f"pass {self.passes}: {size} fillings, expected {self.expected}",
                       len(family))
            order = list(range(len(family)))
            self.rng.shuffle(order)
            for idx in order:
                d = family[idx]
                trips = (
                    (lambda: pd.rcgraph_of(pd.partition_of(d), n),
                     lambda back: None if back == d else "rcgraph_of does not invert partition_of"),
                    (lambda: (pd.bracketing_of(d.transpose()),
                              pd.reverse_bracketing(pd.bracketing_of(d))),
                     lambda pair: None if pair[0] == pair[1] and str(pair[0]) == str(pair[1])
                     else "transpose does not reverse the bracketing"),
                    (lambda: eg_round_trip(pd, d, n),
                     lambda pair: None if pair[0] == pair[1] else "evacuate does not invert eg_insert"),
                    (lambda: pd.unsplit(n, *pd.split(d)),
                     lambda back: None if back == d else "unsplit does not invert split"),
                )
                for fn, check in trips:
                    if not loop.more():
                        return False
                    loop.op(fn, check)
        return False

    def properties(self) -> dict:
        return {"passes": self.passes,
                "fillings_per_pass": max(self.pass_sizes, default=0)}


class VerifyCli:
    """Each operation is a fresh ``python -m pipedreams.cli verify --max-n 8``
    whose exit code must be 0 and whose stdout must equal the golden copy."""

    def __init__(self, seed: int, pass_index: int) -> None:
        # The command is fixed: the seed changes no input of this workload.
        self.golden = GOLDEN.read_bytes()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = [sys.executable, "-m", "pipedreams.cli", *VERIFY_ARGS]
        self.traces: list[dict] = []
        self.enumerate_calls = 0

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, env=self.env,
                              timeout=CHILD_TIMEOUT_S, check=False)

    def timed_child(self, loop: Loop, argv: list[str]) -> subprocess.CompletedProcess:
        with loop.sampling():
            return self.child(argv)

    def check(self, proc: subprocess.CompletedProcess) -> str | None:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
        if proc.stdout != self.golden:
            return "stdout differs from the golden copy"
        return None

    def cli_child_argv(self, prefix: str, only_enumerate: bool) -> list[str]:
        argv = [sys.executable, str(BENCH / "worker.py"), "cli-child", "--trace", prefix]
        return argv + ["--only-enumerate"] if only_enumerate else argv

    def run(self, loop: Loop, trace_prefix: str | None = None) -> bool:
        while loop.more():
            if trace_prefix is None:
                loop.op(lambda: self.timed_child(loop, self.argv), self.check)
                continue
            prefix = f"{trace_prefix}-{len(loop.lat_ms)}"
            Path(f"{prefix}.json").unlink(missing_ok=True)
            argv = self.cli_child_argv(prefix, False)
            loop.op(lambda: self.timed_child(loop, argv), self.check)
            self.traces.append(self.read_trace(prefix))
        return False

    def read_trace(self, prefix: str) -> dict:
        report = json.loads(Path(f"{prefix}.json").read_text())
        self.enumerate_calls = report["functions"]["rcgraph.enumerate_rcgraphs"]["calls"]
        return report

    def count_enumerations(self, prefix: str) -> str | None:
        """Count enumerate_rcgraphs calls of one run, outside the window."""
        Path(f"{prefix}.json").unlink(missing_ok=True)
        problem = self.check(self.child(self.cli_child_argv(prefix, True)))
        self.read_trace(prefix)
        return problem

    def properties(self) -> dict:
        return {"enumerate_calls_per_run": self.enumerate_calls}


SESSIONS = {"perm-queries": PermQueries, "zigzag-family": ZigzagFamily,
            "verify-cli": VerifyCli}


def session(args) -> dict:
    work = SESSIONS[args.workload](args.seed, args.pass_index)
    ready_at = time.monotonic()
    if args.setup_only:
        return {"ready_at": ready_at}
    loop = Loop(args.seconds, args.ops)
    result: dict = {"ready_at": ready_at}
    if args.workload == "verify-cli":
        exhausted = work.run(loop, args.trace)
        window_s = loop.window_s()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if args.trace:
            result["traces"] = work.traces
        else:
            loop.check(work.count_enumerations, str(OUT / f"count-verify-cli-seed{args.seed}"))
    else:
        tracer = install_tracer() if args.trace else None
        exhausted = work.run(loop)
        window_s = loop.window_s()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            result["traces"] = [trace_report(tracer, round(loop.busy_s * 1e9), args.trace)]
    result.update(
        lat_ms=loop.lat_ms, scaled_lat_ms=loop.scaled_lat_ms, busy_s=loop.busy_s,
        scaled_busy_s=loop.scaled_busy_s, ref_ms=loop.ref_ms, window_s=window_s,
        attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
        exhausted=exhausted, properties=work.properties(),
    )
    return result


def cli_child(args) -> int:
    import_pipedreams()
    tracer = install_tracer(args.only_enumerate)
    cli = sys.modules["pipedreams.cli"]
    t0 = time.perf_counter_ns()
    code = cli.main(VERIFY_ARGS)
    wall_ns = time.perf_counter_ns() - t0
    tracer.uninstall()
    Path(f"{args.trace}.json").write_text(json.dumps(trace_report(tracer, wall_ns, args.trace)))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("session")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pass", type=int, default=0, dest="pass_index")
    p.add_argument("--ops", type=int)
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    p = sub.add_parser("cli-child")
    p.add_argument("--trace", required=True)
    p.add_argument("--only-enumerate", action="store_true")
    args = parser.parse_args()
    if args.mode == "cli-child":
        return cli_child(args)
    print(json.dumps(session(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

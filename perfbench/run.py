"""Benchmark of the rghw command line, run in-process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Writes the seeded config and point files of one workload, then calls
``rghw.cli.main(argv)`` on them one call at a time, in a closed loop from a
single thread, until --seconds have passed.  Every call's stdout is checked.
The last line of stdout is the result as JSON: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (a run that alternates untraced
and traced passes and writes its spans to perfbench/out/).  The line before
it records the seed, the environment and the raw pass times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from spans import Tracer, install  # noqa: E402
from workloads import WORKLOADS, WeightsExpect, check_output  # noqa: E402


def import_rghw():
    """Import rghw from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rghw" / "__init__.py").is_file():
        raise SystemExit(f"error: no rghw package under {src}")
    sys.path.insert(0, str(src))
    import rghw.cli

    if Path(rghw.cli.__file__).resolve().parent != src / "rghw":
        raise SystemExit(f"error: imported rghw from {rghw.cli.__file__}, not {src}")
    return rghw.cli


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def make_inputs(workload: str, seed: int, directory: Path):
    return WORKLOADS[workload](random.Random(seed), directory)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import rghw, write the
    seeded inputs and exit."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Runner:
    """Runs passes over one workload's calls and tallies failures."""

    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.rows = 0

    def run_pass(self, tracer=None) -> float:
        gc.collect()
        results = []
        started = time.perf_counter()
        for call in self.calls:
            out, err = io.StringIO(), io.StringIO()
            sid = tracer.open("cli.main") if tracer else None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = self.cli.main(call.argv)
            except Exception:
                status = traceback.format_exc()
            finally:
                if tracer:
                    tracer.close(sid)
            results.append((call, status, out.getvalue(), err.getvalue()))
        elapsed = time.perf_counter() - started
        for call, status, text, err in results:
            self.attempted += 1
            if isinstance(status, str):
                rows, problems = 0, ["raised:\n" + status]
            else:
                rows, problems = check_output(call, status, text)
            self.rows += rows
            if problems:
                self.failed += 1
                print(f"FAILED {call.label}: " + "; ".join(problems) + err, file=sys.stderr)
        return elapsed

    def rows_per_pass(self) -> int:
        return self.rows // max(1, self.attempted // len(self.calls))


def measure(runner: Runner, seconds: float) -> list[float]:
    """Untraced passes until the next one would end past `seconds`."""
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(passes) > seconds:
            return passes


def measure_traced(runner: Runner, seconds: float):
    """Alternating untraced and traced passes, at least one of each."""
    tracer = Tracer()
    started = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(runner.run_pass())
        restore = install(tracer)
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            restore()
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(plain) + statistics.mean(traced) > seconds:
            return plain, traced, tracer


def end_to_end(runner: Runner, passes: list[float], setup_s: float) -> dict:
    # The mean, not the median, of the passes: on a shared VM whose CPU
    # speed switches between two levels for tens of seconds at a time, the
    # median of a run reports one level or the other; the mean follows the mix.
    wall = statistics.mean(passes)
    return {
        "wall_s": (wall, "s"),
        "rows_per_s": (runner.rows_per_pass() / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner, plain, traced, tracer) -> dict:
    n = len(traced)
    spans = tracer.summary()
    counters = tracer.counters

    def span(name, key):
        return spans.get(name, {}).get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    scan_s = span("weights.CandidateScan", "s") + span("codes.rghw_bruteforce", "s")
    weights_rows = sum(
        len(call.expect.rows) for call in runner.calls if isinstance(call.expect, WeightsExpect)
    )
    metrics = {}
    for name in ("points.vanishing_ideal", "groebner.buchberger", "groebner.quotient_summary",
                 "linalg.rref", "weights.CandidateScan"):
        metrics[f"{name}.s"] = (span(name, "s"), "s")
        metrics[f"{name}.calls"] = (span(name, "calls"), "count")
    metrics["groebner.normal_form.calls"] = (counters["groebner.normal_form.calls"] / n, "count")
    for name in ("weights.FootprintProfile", "weights.rgmdf", "weights.vasconcelos",
                 "codes.rghw_bruteforce", "cli.load_problem"):
        metrics[f"{name}.s"] = (span(name, "s"), "s")
    metrics["footprint.subsets"] = (counters["footprint.subsets"] / n, "count")
    metrics["footprint.subsets_per_s"] = (
        ratio(counters["footprint.subsets"] / n, span("weights.FootprintProfile", "s")), "1/s")
    metrics["scan.subspaces"] = (counters["scan.subspaces"] / n, "count")
    metrics["scan.subspaces_per_s"] = (ratio(counters["scan.subspaces"] / n, scan_s), "1/s")
    metrics["scan.passes_per_row"] = (ratio(counters["scan.passes"] / n, weights_rows), "ratio")
    metrics["scan.admissible_ratio"] = (
        ratio(counters["scan.cand_poly"], counters["scan.candidate_subspaces"]), "ratio")
    metrics["codes.build_code.self_s"] = (span("codes.build_code", "self_s"), "s")
    metrics["cli.self_s"] = (span("cli.main", "self_s"), "s")
    metrics["trace.overhead"] = (statistics.mean(traced) / statistics.mean(plain), "ratio")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import rghw, write the inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_rghw()
    OUT.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        calls = make_inputs(args.workload, args.seed, inputs)
        if args.setup_only:
            return 0
        runner = Runner(cli, calls)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "env": environment()}
        if args.trace:
            plain, traced, tracer = measure_traced(runner, args.seconds)
            metrics = per_layer(runner, plain, traced, tracer)
            info.update(plain_pass_s=plain, traced_pass_s=traced, trace_errors=tracer.errors)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({**info, **tracer.dump()}))
            info["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            passes = measure(runner, args.seconds)
            metrics = end_to_end(runner, passes, setup_seconds(args.workload, args.seed))
            info["pass_s"] = passes
        info["failed_frac"] = runner.failed / runner.attempted
        print(json.dumps(info))
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""cmlab benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; cmlab is imported from its src/ tree.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
and installs no wrapper; --trace 1 alternates untraced and traced
operations and reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 3

def use_checkout_source() -> None:
    """Import cmlab from this checkout's src/ and nowhere else."""
    if not (SRC / "cmlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cmlab package under {SRC}")
    sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    """HEAD of this checkout's own .git, never of a repository above it."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp() -> dict:
    """Where the figures were measured; printed apart from every cmlab report."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": _git_commit(),
    }


def setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(int(tiny))],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class OpCount:
    """Attempted and failed operations; a failure is a raise or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def timed(self, wl, i: int, span) -> float | None:
        """Run operation i and check it; its wall time, or None if it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = wl.run(i, span)
            wall = perf_counter() - start
            problems = wl.check(i, out)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"op {i} failed its check: {'; '.join(problems)}", file=sys.stderr)
            return None
        return wall


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload for `seconds` and return the result object."""
    # both import cmlab, which use_checkout_source() has put on the path
    import workloads
    from tracing import Tracer, layer_metrics

    wl = workloads.make(name, seed, tiny)
    ops = OpCount()
    deadline = perf_counter() + seconds
    if not trace:
        wl.setup()
        walls = []
        while not ops.attempted or perf_counter() < deadline:
            wall = ops.timed(wl, ops.attempted, workloads.no_span)
            if wall is not None:
                walls.append(wall)
        # whole-run mean: a shared host's speed shifts in phases of 10-30 s,
        # and a median of ~15 operations snaps to the majority phase
        op_s = sum(walls) / len(walls) if walls else math.inf
        metrics = {
            "replicates_per_s": wl.replicates_per_op / op_s,
            "matchings_per_s": wl.matchings_per_op / op_s,
            "setup_s": setup_seconds(name, seed, tiny),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tracer = Tracer()
        wl.setup(tracer.span)
        plain, traced, enumerate_s = [], [], []
        while not ops.attempted or perf_counter() < deadline:
            wall = ops.timed(wl, ops.attempted, workloads.no_span)
            with tracer.installed():
                traced_wall = ops.timed(wl, ops.attempted, tracer.span)
            if wall is not None and traced_wall is not None:
                plain.append(wall)
                traced.append(traced_wall)
            enumerate_s.append(wl.enumerate_seconds())
        metrics = layer_metrics(tracer.table(), len(traced), statistics.median(enumerate_s))
        metrics["trace.overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1 if traced else 0.0
        )
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def metric_units(kind: str) -> dict[str, str]:
    """Unit of each metric of one kind, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    print(json.dumps({"env": environment_stamp()}))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"attempted {result['attempted']} operations, {result['failed']} failed")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

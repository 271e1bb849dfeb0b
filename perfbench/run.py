"""pasense benchmark: seeded workloads, output oracles, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload dump --seed 1 --seconds 30 --trace 0

``--workload all`` runs search, dump and contour one after another.
Each workload is a closed loop with one client in this process: CLI
operations call ``pasense.cli.main(argv)`` with ``--out`` into a
temporary directory, and search operations call the library.  Only the
set-up measurement starts fresh interpreters.  Every output is checked
after the timed loop; see ``oracles.py`` and ``README.md``.  After a
``dump`` run the reproducer of the known defect is run and checked on
its own, outside the counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 11
DENSE_SCAN_OPS = 3000  # search results also checked against a dense band scan

# Which unit of work each workload's throughput counts.
WORK_NAMES = {"dump": "rows_per_s", "contour": "cells_per_s", "search": "solves_per_s"}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, refused unless at least ten samples lie
    strictly beyond the rank it reports."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < 10:
        raise ValueError(f"p{q * 100:g} of {len(xs)} samples has fewer than 10 beyond it")
    return xs[rank - 1]


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from a fresh interpreter to ``pasense.cli`` imported, after
    one untimed start that brings the files into the page cache."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pasense.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times[1:]


def environment(seed: int, samples: dict) -> dict:
    """Where and on what a result was measured."""
    import numpy

    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pasense").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "samples": samples,
    }


def _out_path(tmp: Path, op) -> Path:
    return tmp / f"{op.index}.csv"


def _execute(op, tmp: Path) -> tuple[int, tuple[float, float]]:
    """Run one operation; return its nanoseconds and two result numbers:
    (omega_star, mu_star) for a search, (exit code, 0) for a CLI
    operation, whose output is the file at ``_out_path``."""
    import pasense.cli
    import pasense.explore
    import pasense.params

    if op.kind == "search":
        t0 = time.perf_counter_ns()
        rp = op.rp if op.physical is None else pasense.params.reduce(op.physical)
        result = pasense.explore.minimize_mu_over_frequency(rp, op.spec["band"])
        return time.perf_counter_ns() - t0, result
    argv = [*op.argv, "--out", str(_out_path(tmp, op))]
    t0 = time.perf_counter_ns()
    code = pasense.cli.main(argv)
    return time.perf_counter_ns() - t0, (code, 0.0)


class _Results:
    """Per-operation results in flat arrays, so that the benchmark's own
    memory does not grow with the operation count and show in peak_rss_mb.
    Operations are regenerated from the seed for verification."""

    def __init__(self):
        self.ns = array("q")
        self.values = array("d")
        self.errors = {}  # operation index -> exception it raised
        self.work = 0

    def __len__(self) -> int:
        return len(self.ns)

    def run(self, op, tmp: Path) -> int:
        """Execute and record one operation; return its nanoseconds."""
        t0 = time.perf_counter_ns()
        try:
            ns, out = _execute(op, tmp)
        except Exception as exc:  # an operation that crashes counts as failed
            ns, out = time.perf_counter_ns() - t0, (math.nan, math.nan)
            self.errors[op.index] = exc
        self.ns.append(ns)
        self.values.extend(out)
        self.work += op.work
        return ns


def _rows_and_bytes(path: Path) -> tuple[int, int]:
    data = path.read_bytes()
    lines = data.splitlines()
    return sum(1 for ln in lines if not ln.startswith(b"#")) - 1, len(data)


def _describe(op) -> str:
    if op.argv:
        return "argv: pasense " + shlex.join(op.argv)
    source = f" via reduce({op.physical!r})" if op.physical is not None else ""
    return f"params: {op.rp!r}{source}"


def _verify(name: str, seed: int, results: _Results, tmp: Path) -> tuple[int, list[int]]:
    """Check every output; return the failed operations and, for each
    operation that redrew out of the known defect class, how often."""
    import oracles
    import workloads

    failed = 0
    redrawn = []
    for i, op in zip(range(len(results)), workloads.stream(name, seed)):
        if op.kind == "sensitivity-opt":
            redrawn.append(op.redrawn)
        a, b = results.values[2 * i], results.values[2 * i + 1]
        if op.index in results.errors:
            exc = results.errors[op.index]
            verdict = oracles.Verdict()
            verdict.fail(f"raised {type(exc).__name__}: {exc}")
        elif op.kind == "search":
            verdict = oracles.check_search(op, (a, b), dense=i < DENSE_SCAN_OPS)
        elif a != 0:
            verdict = oracles.Verdict()
            verdict.fail(f"exit code {a:g}")
        else:
            verdict = oracles.check_cli(op, _out_path(tmp, op))
        if not verdict.ok:
            failed += 1
            tag = "known class" if verdict.known else "unexpected"
            print(f"FAILED op {op.index} {op.kind} [{tag}] {_describe(op)}")
            for problem in verdict.problems:
                print(f"    {problem}")
    return failed, redrawn


def _probe_known_defect(tmp: Path) -> list[str]:
    """Run the known defect's reproducer and say whether it still fails."""
    import oracles
    import pasense.cli
    import workloads

    op = workloads.DEFECT_REPRODUCER
    out = tmp / "known-defect.csv"
    code = pasense.cli.main([*op.argv, "--out", str(out)])
    verdict = oracles.check_sensitivity(op, out) if code == 0 else None
    head = "known defect: " + _describe(op)
    if verdict is None:
        return [f"{head}: exit code {code}"]
    if verdict.ok:
        return [f"{head}: now passes the 1e-9 check"]
    state = "still fails" if verdict.known else "fails in a new way"
    return [f"{head}: {state}", *(f"    {p}" for p in verdict.problems)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One closed-loop run; returns counts, metrics and their sample counts."""
    import tracing
    import workloads

    ops = workloads.stream(name, seed)
    results = _Results()
    untraced = _Results()  # the traced run's untraced twins
    tracer = tracing.Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        deadline = time.monotonic() + seconds
        with tracer or contextlib.nullcontext():
            while time.monotonic() < deadline or len(results) < MIN_OPS:
                op = next(ops)
                if tracer is None:
                    results.run(op, tmp)
                    continue
                # Run each operation untraced and traced, alternating the
                # order, so the difference is the tracing overhead.
                for traced in (op.index % 2 == 1, op.index % 2 == 0):
                    if not traced:
                        untraced.run(op, tmp)
                        continue
                    tracer.begin_op(op.index)
                    ns = results.run(op, tmp)
                    rows, nbytes = (0, 0)
                    if op.kind != "search" and op.index not in results.errors:
                        rows, nbytes = _rows_and_bytes(_out_path(tmp, op))
                    tracer.end_op(op.kind, ns, rows, nbytes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, redrawn = _verify(name, seed, results, tmp)
        notes = []
        if name == "dump":
            notes = [f"known defect class: {sum(redrawn)} draws redrawn for "
                     f"{len(redrawn)} sensitivity operations at the optimal angle",
                     *_probe_known_defect(tmp)]

    result = {"attempted": len(results), "failed": failed, "notes": notes}
    if tracer is not None:
        overhead = sum(results.ns) / sum(untraced.ns) - 1.0 if sum(untraced.ns) else 0.0
        result["metrics"] = tracer.metrics(overhead)
        result["splits"] = tracer.split_lines()
        return result
    n = len(results)
    latencies_ms = [ns / 1e6 for ns in results.ns]
    result["metrics"] = {
        "latency_p50_ms": (percentile(latencies_ms, 0.5), n),
        "latency_p90_ms": (percentile(latencies_ms, 0.9), n),
        "work_per_s": (results.work / (sum(latencies_ms) / 1e3), n),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    return result


def _report(name: str, result: dict, units: dict) -> None:
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed "
          f"(failed_ratio {result['failed'] / result['attempted']:.4g})")
    for line in result["notes"]:
        print(f"   {line}")
    for metric, (value, n) in result["metrics"].items():
        alias = f" ({WORK_NAMES[name]})" if metric == "work_per_s" else ""
        print(f"   {metric + alias:<58} {value:>14.6g} {units[metric]:<6} n={n}")
    for line in result.get("splits", ()):
        print(f"   {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("dump", "contour", "search", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pasense" / "__init__.py").is_file():
        print(f"error: no pasense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pasense

    if Path(pasense.__file__).resolve().parent != SRC / "pasense":
        print(f"error: imported pasense from {pasense.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing

    # peak_rss_mb is the process's high-water mark, so "all" runs the
    # workloads in order of increasing memory to read each one's own peak.
    names = ("search", "dump", "contour") if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    units = tracing.PER_LAYER if trace else END_TO_END
    setup = None if trace else measure_setup()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    samples = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace)
        if setup is not None:
            result["metrics"]["setup_s"] = (statistics.median(setup), len(setup))
        _report(name, result, units)
        prefix = "" if len(names) == 1 else f"{name}."
        combined["correct"] &= result["failed"] == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, (value, n) in result["metrics"].items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
            samples[prefix + metric] = n
    print("env " + json.dumps(environment(args.seed, samples), sort_keys=True))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

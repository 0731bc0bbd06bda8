#!/usr/bin/env python3
"""Run one workload of the qlll benchmark and print its metrics.

    python3 qlllbench/run.py --workload sample-classical --seed 1 --seconds 20 --trace 0

Run from the root of a qlll source tree; the program is imported from src/.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, which first runs
the timed units untraced for half the time and then repeats the same units
traced, so the tracing overhead is traced minus untraced wall time.  The last
line is {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every operation and every aggregate check passed.
"""

import os

# One BLAS thread: the figures must not depend on how many cores are idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"

# Host speed.  On a shared host the same code runs up to ~40 % slower for
# stretches of seconds to minutes, and CPU time slows with wall time, so raw
# timings of separate runs cannot be compared within the bounds.  Each
# workload has a fixed reference computation like its hot path but without
# qlll (workloads.py); it is timed before and after every timed unit, and the
# end-to-end times are scaled by the workload's reference_ms over the median
# reference time of the surrounding units.  So they are reported at the host
# speed where the reference takes reference_ms, its median on the reference
# host (README).  The unscaled figures are printed beside them.
REFERENCE_WINDOW = 3   # units on each side whose reference times are pooled
P99_WINDOW = 1000      # operations per window of op_ms_p99 (ten beyond the p99)


class Timing:
    """Wall times of timed units, the per-operation times inside them and the
    reference times taken before and after each unit."""

    def __init__(self, wl):
        self.wl = wl
        self.walls, self.ops, self.refs, self.digests = [], [], [], []

    def add(self, before_ms, wall_ns, ops=(), digest=None):
        self.walls.append(wall_ns)
        self.ops.append(list(ops))
        self.digests.append(digest)
        self.refs.append((before_ms, self.wl.reference_time_ms()))

    def factors(self) -> list:
        """Per unit, reference_ms over the median reference time nearby."""
        out = []
        for u in range(len(self.walls)):
            near = self.refs[max(0, u - REFERENCE_WINDOW):u + REFERENCE_WINDOW + 1]
            out.append(self.wl.reference_ms
                       / statistics.median(r for pair in near for r in pair))
        return out

    def wall_ns(self, scaled: bool) -> float:
        if not scaled:
            return sum(self.walls)
        return sum(w * f for w, f in zip(self.walls, self.factors()))

    def op_ns(self, scaled: bool) -> list:
        if not scaled:
            return [x for ops in self.ops for x in ops]
        return [x * f for ops, f in zip(self.ops, self.factors()) for x in ops]


def run_units(wl, budget_ns, units=None) -> Timing:
    """Timed units until the budget is spent (or exactly `units` of them,
    unchecked).  Each unit's outputs are checked, untimed, and dropped before
    the next unit, so the process peak memory is the program's."""
    tm = Timing(wl)
    while (len(tm.walls) < units) if units is not None else \
            (sum(tm.walls) < budget_ns or len(tm.walls) < wl.min_units):
        before = wl.reference_time_ms()
        wall, ops, digest, out = wl.unit(len(tm.walls))
        tm.add(before, wall, ops, digest)
        if units is None:
            wl.check(len(tm.walls) - 1, out)
        del out
    return tm


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS)}


def p99(wl, plain: Timing, scaled: bool) -> float:
    """99th percentile of the operation times.  With at least P99_WINDOW
    operations it is taken within each full window of P99_WINDOW consecutive
    operations, and the median over the windows is reported.  The times are
    scaled unless the workload's tail does not follow the host's speed
    (wl.tail_scaled)."""
    ops = plain.op_ns(scaled and wl.tail_scaled)
    if len(ops) < P99_WINDOW:
        return statistics.quantiles(ops, n=100, method="inclusive")[98]
    windows = [ops[i:i + P99_WINDOW]
               for i in range(0, len(ops) - P99_WINDOW + 1, P99_WINDOW)]
    return statistics.median(
        statistics.quantiles(w, n=100, method="inclusive")[98] for w in windows)


def end_to_end(wl, plain: Timing, setup: Timing, peak_kb: int,
               scaled: bool) -> dict:
    setup_ns = statistics.median(setup.walls)
    if scaled:
        setup_ns *= wl.reference_ms / statistics.median(
            r for pair in setup.refs for r in pair)
    return {
        "ops_per_s": {"value": (wl.attempted - wl.failed)
                      / (plain.wall_ns(scaled) / 1e9), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(plain.op_ns(scaled)) / 1e6,
                      "unit": "ms"},
        "op_ms_p99": {"value": p99(wl, plain, scaled) / 1e6, "unit": "ms"},
        "setup_s": {"value": setup_ns / 1e9, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "qlll" / "__init__.py").is_file():
        print(f"qlll sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    import tracer as tracing
    from qlll import backends, cli, instances, solver, verifiers

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"environment": environment()}), flush=True)

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tr = None
        if args.trace:
            per_child_ns = tracing.calibrate_ns()
            tr = tracing.Tracer(wl.op_span, wl.count_ops, wl.span_ops)
            tracing.install(tr, {"cli": cli, "instances": instances,
                                 "solver": solver, "verifiers": verifiers,
                                 "backends": backends}, workloads)
            tr.active = True
        setup = Timing(wl)
        for _ in range(workloads.SETUP_REPEATS):
            before = wl.reference_time_ms()
            start = time.perf_counter_ns()
            wl.setup()
            setup.add(before, time.perf_counter_ns() - start)
        if tr:
            tr.active = False
        wl.prepare()

        plain = run_units(wl, args.seconds * 1e9 / (2 if args.trace else 1))
        # before the aggregate checks, which call the program on inputs of
        # their own
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wl.finish()

        if args.trace:
            tr.active = True
            traced = run_units(wl, 0, len(plain.walls))
            tr.active = False
            if traced.digests != plain.digests:
                wl.fail_aggregate("traced_output_identical")
            overhead = traced.wall_ns(True) / plain.wall_ns(True) - 1.0
            metrics = tracing.layer_metrics(tr, workloads.SETUP_REPEATS,
                                            100.0 * overhead, per_child_ns)
            trace_path = WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl"
            tr.write(trace_path, metrics)
            print(f"trace written to {trace_path}", file=sys.stderr)
            if tr.missing:
                print(f"trace targets missing: {tr.missing}", file=sys.stderr)
        else:
            print(json.dumps({
                "raw_metrics": end_to_end(wl, plain, setup, peak_kb, scaled=False),
                "host_speed": plain.wall_ns(False) / plain.wall_ns(True),
                "reference_ms": statistics.median(
                    r for pair in plain.refs for r in pair)}))
            metrics = end_to_end(wl, plain, setup, peak_kb, scaled=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{args.workload:<20} {name:<58} {m['value']:>14.6g} {m['unit']}")
    if wl.problems:
        print(f"failed checks: {dict(wl.problems)}", file=sys.stderr)
    print(json.dumps({"correct": wl.aggregate_ok, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if wl.aggregate_ok and wl.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

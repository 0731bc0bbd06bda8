#!/usr/bin/env python3
"""Show that the benchmark's output checks can fail.

    python3 qlllbench/selftest.py

Each workload runs at a tiny size in this process, first on the program as
it is, where every check must pass, and then with one deliberately broken
piece patched in (in this process only), where the matching check must fail:

- DiagonalState.expectation returning 0: sample-classical's
  first-measurement binomial check;
- TrajectoryState sampling with its Born probability squared:
  sample-rotated's first-measurement binomial check;
- DensityState.measure_branches leaving its branches un-normalised:
  enumerate-stock's leaf unit-trace check and enumerate-outcomes' exact-law
  check.

It also checks that a trace target that no longer exists leaves its metrics
out instead of stopping the run.  Exits 0 when every case behaves so.
"""

import contextlib
import shutil
import sys
import types
from pathlib import Path

import run as bench  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(bench.ROOT / "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qlll import backends  # noqa: E402

TINY = {
    workloads.SampleClassical: {"gen_args": ["-n", 20, "-k", 4, "-m", 12, "-g", 5],
                                "batch": 800, "det_trials": 20, "min_units": 1},
    workloads.SampleRotated: {"gen_args": ["-n", 8, "-k", 3, "-m", 4, "-g", 2],
                              "pool_size": 2, "batch": 500, "det_trials": 20,
                              "core_trials": 2000, "min_units": 2},
    workloads.EnumerateStock: {"pool_size": 2, "min_units": 2},
    workloads.EnumerateOutcomes: {"gen_args": ["-n", 6, "-k", 2, "-m", 4, "-g", 3],
                                  "pool_size": 2, "min_units": 2},
}


def run_tiny(cls, workdir: Path):
    wl = type(f"Tiny{cls.__name__}", (cls,), TINY[cls])(3, workdir)
    wl.setup()
    wl.prepare()
    bench.run_units(wl, 0)
    wl.finish()
    return wl


@contextlib.contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def expectation_zero(self, spec):
    return 0.0


def squared_born(self, spec):
    projected = backends._apply_local(self.psi, spec.materialize(), spec.support)
    p = min(1.0, max(0.0, float(np.real(np.vdot(self.psi, projected)))))
    violated = int(self.rng.random() < p * p)  # the fault
    self.psi = projected if violated else self.psi - projected
    self.psi /= np.linalg.norm(self.psi)
    return backends.Outcome(violated=violated,
                            probability=p if violated else 1.0 - p)


def unnormalised(original):
    def measure_branches(self, spec):
        branches = original(self, spec)
        for outcome, state in branches:
            state.rho = state.rho * outcome.probability  # the fault
        return branches
    return measure_branches


def main() -> int:
    bench.WORK_ROOT.mkdir(exist_ok=True)
    workdir = bench.WORK_ROOT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    ok = True

    def report(label, wl, expected):
        nonlocal ok
        found = sorted(wl.problems)
        good = (not found and wl.failed == 0) if expected is None \
            else expected in found
        ok &= good
        want = "no failed check" if expected is None else f"{expected} fails"
        print(f"{'PASS' if good else 'FAIL'}  {label:<44} want {want}; "
              f"failed checks {found}")

    try:
        for cls in TINY:
            report(f"{cls.name} (program as it is)", run_tiny(cls, workdir), None)
        with patched(backends.DiagonalState, "expectation", expectation_zero):
            report("sample-classical, expectation -> 0",
                   run_tiny(workloads.SampleClassical, workdir),
                   "first_measurement_binomial")
        with patched(backends.TrajectoryState, "measure_projector", squared_born):
            report("sample-rotated, Born probability squared",
                   run_tiny(workloads.SampleRotated, workdir),
                   "first_measurement_binomial")
        original = backends.DensityState.measure_branches
        with patched(backends.DensityState, "measure_branches",
                     unnormalised(original)):
            report("enumerate-stock, branch un-normalised",
                   run_tiny(workloads.EnumerateStock, workdir), "leaf_unit_trace")
            report("enumerate-outcomes, branch un-normalised",
                   run_tiny(workloads.EnumerateOutcomes, workdir), "exact_law")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tr = tracing.Tracer(tracing.OP_SPAN, 1, 1)
    tr.wrap(types.SimpleNamespace(), "swap_qubits",
            "backends.DensityState.swap_qubits")
    metrics = tracing.layer_metrics(tr, 1, 0.0, 0.0)
    absent = "backends.DensityState.swap_qubits.calls_per_op" not in metrics
    ok &= absent and "trace.overhead_pct" in metrics
    print(f"{'PASS' if absent else 'FAIL'}  {'missing trace target':<44} "
          f"want its metrics absent; missing {tr.missing}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

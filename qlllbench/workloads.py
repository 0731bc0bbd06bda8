"""The four workloads of the qlll benchmark.

Each workload makes its inputs from the seed, runs the program on them in
timed units, and checks every output with oracles.py.  An operation is one
trial (sample-*), one history tree checked (enumerate-stock) or one exact
outcome law (enumerate-outcomes).  It fails when it raises, when the CLI
exits non-zero or when one of its output checks fails; a FIX "Failure" (abort
at t == T) is a valid output and not a failed operation.  Checks that pool
many operations (first-measurement law, unitary equivalence, determinism)
are aggregate checks: when one fails the run is not correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qlll import cli, instances, solver, verifiers
from qlll.solver import SolverConfig

import oracles

SETUP_REPEATS = 5


def quiet_cli(argv) -> int:
    """qlll's CLI in-process, its stdout discarded (the benchmark owns stdout)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def one_op(fn, *args):
    """One enumerate-* operation; the tracer names this call's span bench.op."""
    return fn(*args)


class OpTimer:
    """Times each call of solver.run, the public per-trial call of qlll run."""

    def __init__(self):
        self.on = False
        self.ns = []
        original = solver.run

        def timed_run(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            start = time.perf_counter_ns()
            result = original(*args, **kwargs)
            self.ns.append(time.perf_counter_ns() - start)
            return result

        solver.run = timed_run


# Reference work, timed around every timed unit to measure the host's speed
# for the kind of work a workload does (see run.py).  Each is written with
# numpy and the standard library only, after the workload's hot path, so a
# change to the program does not change it.

def reference_walk(data):
    """Steps of a classical resampling walk on fixed data: bit-string lookups
    and fresh random bits, like the diagonal backend's measure and replace."""
    start_bits, patterns = data
    bits = start_bits.copy()
    rng = np.random.default_rng(0)
    outcomes = []
    for i in range(3000):
        support = (i % 197, (i * 7) % 197, (i * 13) % 197, (i * 31) % 197)
        violated = "".join(str(int(bits[q])) for q in support) in patterns
        outcomes.append(violated)
        if violated:
            for q in support:
                bits[q] = int(rng.integers(0, 2))
    return outcomes


def reference_state_vector(data):
    """Measure-and-replace steps on a 14-qubit state vector: a 3-qubit
    operator applied with tensordot, Born weight, collapse, renormalisation,
    and per-qubit marginals."""
    op, psi = data
    for _ in range(6):
        out = np.moveaxis(np.tensordot(op, psi, axes=([3, 4, 5], [2, 7, 11])),
                          [0, 1, 2], [2, 7, 11])
        weight = float(np.real(np.vdot(psi, out)))
        rest = psi - out
        rest /= np.linalg.norm(rest) + abs(weight)
        for q in (2, 7, 11):
            marginal = np.moveaxis(rest, q, 0)
            float((np.abs(marginal[1]) ** 2).sum() / (np.abs(rest) ** 2).sum())
            keep = np.zeros_like(rest)
            np.moveaxis(keep, q, 0)[0] = marginal[0]


def reference_density(data):
    """Local operators applied to an 8-qubit density matrix."""
    op, rho, _ = data
    for _ in range(8):
        t = np.tensordot(op, rho, axes=([2, 3], [1, 5]))
        np.moveaxis(t, [0, 1], [1, 5]).reshape(256, 256)


def reference_entropy(data):
    """Density-matrix operators and one 8-qubit spectrum."""
    reference_density(data)
    np.linalg.eigvalsh(data[2])


def walk_input():
    rng = np.random.default_rng(0)
    return (np.asarray(rng.integers(0, 2, size=200), dtype=np.int8),
            frozenset({"0110"}))


def state_vector_input():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((2,) * 14) + 1j * rng.standard_normal((2,) * 14)
    return np.diag(np.eye(8, dtype=complex)[0]).reshape((2,) * 6), psi


def density_input():
    rng = np.random.default_rng(0)
    rho = rng.standard_normal((2,) * 16) + 1j * rng.standard_normal((2,) * 16)
    herm = rho.reshape(256, 256) + rho.reshape(256, 256).conj().T
    return np.eye(4, dtype=complex).reshape((2,) * 4), rho, herm


class Workload:
    op_span = "bench.op"   # tracer span that marks one operation
    count_ops = 8          # exact per-layer counts cover this many first ops
    span_ops = 4           # full spans are kept for this many first ops
    min_units = 2          # timed units run even when the budget is spent
    reference = staticmethod(reference_density)
    reference_input = staticmethod(density_input)
    reference_ms = 4.0     # typical time of the reference on the reference host
    tail_scaled = True     # op_ms_p99 follows the host's speed like the median

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = workdir
        self.problems = Counter()   # check name -> operations (or runs) failing it
        self.attempted = 0
        self.failed = 0
        self.aggregate_ok = True
        self.reference_data = self.reference_input()

    def reference_time_ms(self) -> float:
        start = time.perf_counter_ns()
        self.reference(self.reference_data)
        return (time.perf_counter_ns() - start) / 1e6

    def fail_aggregate(self, check: str) -> None:
        self.problems[check] += 1
        self.aggregate_ok = False

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed checks run before the timed units (they also warm up)."""

    def unit(self, u: int):
        """Run timed unit u; returns (wall ns, per-op ns, output digest,
        outputs for check)."""
        raise NotImplementedError

    def check(self, u: int, data) -> None:
        """Untimed per-operation checks on unit u's outputs."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed aggregate checks after the timed units."""


# ---------------------------------------------------------------------------
# sampled FIX runs through `qlll run`

class SampleWorkload(Workload):
    op_span = "solver.run"
    gen_args: list = []
    rotate = False
    backend = "diagonal"
    pool_size = 1     # instances; unit u runs instance u mod pool_size
    batch = 100       # trials per `qlll run` call (one timed unit)
    det_trials = 50   # trials of each determinism run
    count_ops = 100
    span_ops = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.timer = OpTimer()
        self.first = Counter()    # first-measurement p0 -> [violations, trials]
        self.first_trials = Counter()
        self.samples = [([], []) for _ in range(self.pool_size)]  # t, fix_calls

    def make_instance(self, i):
        seed = self.seed * 1000 + i
        base = self.work / f"classical-{i}.json"
        if quiet_cli(["gen", "--classical", *self.gen_args, "--seed", seed,
                      "-o", base]) != 0:
            raise RuntimeError("qlll gen --classical failed")
        path = base
        if self.rotate:
            path = self.work / f"rotated-{i}.json"
            if quiet_cli(["gen", "--rotate", base, "--seed", seed + 1,
                          "-o", path]) != 0:
                raise RuntimeError("qlll gen --rotate failed")
        instances.load_instance(path)
        with open(path) as fh:
            data = json.load(fh)
        facts = oracles.instance_facts(data)
        return path, data, facts, oracles.threshold_T(facts)

    def setup(self):
        self.pool = [self.make_instance(i) for i in range(self.pool_size)]

    def _run(self, path, out, trials, seed, backend) -> int:
        # one worker whatever QLLL_WORKERS says: the pool is not measured
        return quiet_cli(["run", path, "--trials", trials, "--seed", seed,
                          "--backend", backend, "--delta", oracles.DELTA,
                          "--workers", 1, "--no-timing", "-o", out])

    def prepare(self):
        outs = []
        for rep in range(2):
            out = self.work / f"determinism-{rep}.jsonl"
            if self._run(self.pool[0][0], out, self.det_trials,
                         self.seed * 100_000, self.backend) != 0:
                self.fail_aggregate("determinism_exit")
                return
            outs.append(out.read_bytes())
        if outs[0] != outs[1] or not outs[0]:
            self.fail_aggregate("determinism_identical_records")

    def unit(self, u):
        out = self.work / f"batch-{u % 2}.jsonl"
        self.timer.ns = []
        self.timer.on = True
        start = time.perf_counter_ns()
        try:
            rc = self._run(self.pool[u % self.pool_size][0], out, self.batch,
                           self.seed * 100_000 + 1 + u, self.backend)
        except Exception as exc:  # a raising program fails the batch's trials
            rc = f"raised {type(exc).__name__}"
        wall = time.perf_counter_ns() - start
        self.timer.on = False
        text = out.read_bytes() if rc == 0 else b""
        return wall, self.timer.ns, hashlib.sha256(text).hexdigest(), (rc, text)

    def check(self, u, data):
        rc, text = data
        _, _, facts, threshold = self.pool[u % self.pool_size]
        self.attempted += self.batch
        records = [json.loads(line) for line in text.splitlines()]
        if rc != 0 or len(records) != self.batch:
            self.failed += self.batch
            self.problems["cli_exit" if rc != 0 else "record_count"] += self.batch
            return
        p0 = oracles.first_violation_probability(facts)
        t_values, calls_values = self.samples[u % self.pool_size]
        for rec in records:
            problems = oracles.record_problems(rec, facts, threshold)
            if problems:
                self.failed += 1
                self.problems.update(problems)
                continue
            self.first[p0] += oracles.rle_bits(rec["outcome_rle"])[0]
            self.first_trials[p0] += 1
            t_values.append(rec["t"])
            calls_values.append(rec["fix_calls"])

    def finish(self):
        # trials whose first projector has the same violation probability
        # are pooled into one binomial check
        for p0, trials in self.first_trials.items():
            if not oracles.binomial_two_sided_ok(self.first[p0], trials, p0):
                self.fail_aggregate("first_measurement_binomial")


class SampleClassical(SampleWorkload):
    name = "sample-classical"
    reference = staticmethod(reference_walk)
    reference_input = staticmethod(walk_input)
    reference_ms = 5.0
    # Trials last about 1 ms, so the slowest 1 % are the ones a burst of host
    # contention hit; that tail did not slow with the reference (spread over
    # five runs 0.09-0.10 unscaled, 0.17-0.33 scaled), so it stays unscaled.
    tail_scaled = False
    gen_args = ["-n", 200, "-k", 4, "-m", 150, "-g", 5]
    backend = "diagonal"
    batch = 500
    det_trials = 200


class SampleRotated(SampleWorkload):
    name = "sample-rotated"
    reference = staticmethod(reference_state_vector)
    reference_input = staticmethod(state_vector_input)
    reference_ms = 5.0
    gen_args = ["-n", 14, "-k", 3, "-m", 8, "-g", 2]
    rotate = True
    backend = "trajectory"
    # the generator's cost at these sizes varies 4x between seeds, so one
    # instance would make setup_s a draw of a single seed
    pool_size = 8
    batch = 50
    det_trials = 20
    count_ops = 50
    core_trials = 10_000

    def finish(self):
        super().finish()
        # diagonal trials on each instance's core, k times as many as timed
        # trajectory trials on it, so both pooled samples mix the instances
        # in the same proportions
        timed = sum(len(t) for t, _ in self.samples)
        k = max(1, self.core_trials // max(1, timed))
        core_t, core_calls = [], []
        for i, (path, data, _, _) in enumerate(self.pool):
            if not self.samples[i][0]:
                continue
            core = self.work / f"core-{i}.json"
            with open(core, "w") as fh:
                json.dump(oracles.diagonal_core(data), fh)
            out = self.work / "core.jsonl"
            if self._run(core, out, k * len(self.samples[i][0]),
                         self.seed * 100_000 + 99_999 - i, "diagonal") != 0:
                self.fail_aggregate("unitary_equivalence_exit")
                return
            records = [json.loads(line) for line in out.read_text().splitlines()]
            core_t += [r["t"] for r in records]
            core_calls += [r["fix_calls"] for r in records]
        for field, sampled, core in (
                ("t", [x for t, _ in self.samples for x in t], core_t),
                ("fix_calls", [x for _, c in self.samples for x in c], core_calls)):
            ok, _, _ = oracles.same_law_ok(sampled, core)
            if not ok:
                self.fail_aggregate(f"unitary_equivalence_{field}")


# ---------------------------------------------------------------------------
# exact enumeration on the density backend

class EnumerateWorkload(Workload):
    pool_size = 32

    def setup(self):
        self.pool = [self.make_instance(i) for i in range(self.pool_size)]

    def load(self, path):
        inst = instances.load_instance(path)
        with open(path) as fh:
            return inst, oracles.instance_facts(json.load(fh))

    def unit(self, u):
        start = time.perf_counter_ns()
        try:
            out = one_op(self.op, self.pool[u % self.pool_size][0])
        except Exception as exc:  # a raising program fails the operation
            out = exc
        wall = time.perf_counter_ns() - start
        return wall, [wall], self.digest(out), out

    def prepare(self):
        # the same input enumerated twice must give the same output exactly
        if self.digest(self.op(self.pool[0][0])) != \
                self.digest(self.op(self.pool[0][0])):
            self.fail_aggregate("determinism_identical_output")

    def check(self, u, out):
        self.attempted += 1
        problems = (["raised"] if isinstance(out, Exception)
                    else self.problems_of(self.pool[u % self.pool_size][1], out))
        if problems:
            self.failed += 1
            self.problems.update(problems)


class EnumerateStock(EnumerateWorkload):
    name = "enumerate-stock"
    reference = staticmethod(reference_entropy)
    reference_ms = 15.0
    n, k, m, T = 4, 2, 3, 2
    pool_size = 48

    def make_instance(self, i):
        # rank and commutation alternate over a cycle of four instances
        inst = instances.random_instance(self.n, self.k, self.m,
                                         rank=1 + (i // 2) % 2,
                                         seed=self.seed * 1000 + i,
                                         commuting=i % 2 == 0)
        path = self.work / f"stock-{i}.json"
        instances.save_instance(inst, path)
        return self.load(path)

    def op(self, inst):
        tree = verifiers.enumerate_history_tree(
            inst, SolverConfig(seed=0, threshold_override=self.T,
                               backend="density_enumerate"))
        try:
            entropy = verifiers.check_entropy_claim(tree)
            counts = verifiers.check_history_count_bound(tree, inst.params)
        except Exception as exc:  # the tree is still checked below
            return tree, exc, None
        return tree, entropy, counts

    def digest(self, out):
        if isinstance(out, Exception):
            return repr(out)
        return repr([(leaf.branch_string, leaf.probability)
                     for leaf in out[0].leaves])

    def problems_of(self, facts, out):
        tree, entropy, counts = out
        problems = []
        if isinstance(entropy, Exception):
            problems.append("program_check_raised")
            entropy = None
        else:
            if not entropy["holds"]:
                problems.append("program_entropy_claim")
            if not counts["holds"]:
                problems.append("program_count_bound")
        register = facts["n"] + self.T * facts["k"]
        if entropy is not None and abs(entropy["lhs"] - register) > 1e-12:
            problems.append("entropy_lhs_agrees")
        leaves = [(leaf.branch_string, leaf.failures, leaf.probability,
                   leaf.state.rho) for leaf in tree.leaves]
        problems += oracles.tree_problems(
            leaves, tree.pruned_mass, register, facts,
            None if entropy is None else entropy["rhs"])
        return problems


class EnumerateOutcomes(EnumerateWorkload):
    name = "enumerate-outcomes"
    gen_args = ["-n", 8, "-k", 2, "-m", 5, "-g", 3]
    T = 3
    count_ops = 4
    span_ops = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.laws = {}

    def make_instance(self, i):
        base = self.work / f"outcomes-{i}.json"
        rotated = self.work / f"outcomes-{i}-rotated.json"
        # g=3 breaks the local-lemma condition at k=2, so gen needs --threshold
        if quiet_cli(["gen", "--classical", *self.gen_args,
                      "--seed", self.seed * 1000 + i, "--threshold", self.T,
                      "-o", base]) != 0 or \
                quiet_cli(["gen", "--rotate", base, "--seed", self.seed * 1000 + i,
                           "--threshold", self.T, "-o", rotated]) != 0:
            raise RuntimeError("qlll gen failed")
        return self.load(rotated)

    def op(self, inst):
        return verifiers.enumerate_outcome_distribution(inst, self.T,
                                                        backend="density")

    def digest(self, out):
        return repr(sorted(out.items())) if isinstance(out, dict) else repr(out)

    def problems_of(self, facts, law):
        key = id(facts)
        if key not in self.laws:
            self.laws[key] = oracles.classical_outcome_law(facts, self.T)
        problems = []
        if abs(sum(law.values()) - 1.0) > oracles.EXACT_ATOL:
            problems.append("law_mass")
        if oracles.law_distance(law, self.laws[key]) > oracles.EXACT_ATOL:
            problems.append("exact_law")
        first = sum(p for s, p in law.items() if s[0] == 1)
        if abs(first - oracles.first_violation_probability(facts)) > oracles.EXACT_ATOL:
            problems.append("first_measurement_exact")
        return problems


WORKLOADS = {w.name: w for w in (SampleClassical, SampleRotated,
                                 EnumerateStock, EnumerateOutcomes)}

"""The commuting local-lemma solver: parameter calculus (eta, T), the FIX
walker with a global failure budget, run records, and satisfaction checks.

FIX(j) measures projector j and, on a violation, replaces j's qubits and
calls FIX on every projector of j's neighborhood.  execute_fix_loop is the
one walker of that recursion, for sampled runs and for exact enumeration
alike: it keeps the pending calls on a list (depth can reach the order of
g*T, which a host call stack is not guaranteed to survive) and makes only
two calls on the state: measure_branches(spec) -> [(Outcome, state)], where
a sampling state returns the one branch the Born rule draws and an
enumerating state every branch it keeps (each but the last forks the walk),
and replace_qubits(support) after each violation that does not abort; where
the fresh qubits come from is the state's business.  The final satisfaction
check and the monotonicity probe read the state with expectation(spec).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolated
from .instances import Instance, InstanceParams, check_qlll_condition
from .backends import SAMPLING, init_fully_mixed

SATISFACTION_ATOL = 1e-8


@dataclass
class SolverConfig:
    delta: float = 0.25
    seed: int = 0
    traversal: str = "ascending"        # neighborhood order: ascending | random
    threshold_override: int | None = None
    backend: str = "trajectory"         # a key of backends.SAMPLING


@dataclass
class DerivedParams:
    eta: float        # nan when the condition fails but a threshold override is set
    threshold_T: int
    stock_size_N: int


@dataclass
class RunRecord:
    outcome_string: tuple   # one bit per measurement, 1 = violated
    failures_t: int
    fix_calls: int
    result: str             # "Success" | "Failure"
    final_expectations: list | None
    max_energy: float | None
    elapsed_ns: int
    seed: int


def compute_eta(k, g, r, delta) -> float:
    """eta = 1 / (delta * (k - log2(g e r))); requires a positive margin."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    check = check_qlll_condition(InstanceParams(k=k, r=r, g=g, m=0))
    if not check.satisfied:
        raise ConditionViolated(
            f"k - log2(g*e*r) = {check.margin:.6g} <= 0 for k={k}, g={g}, r={r}")
    return 1.0 / (delta * check.margin)


def compute_threshold(m, eta) -> int:
    """Failure budget T = ceil(4 m eta log2(eta + 2)).

    The delta-guarantee behind this choice needs m >= 2; smaller m still
    runs, so that case only warns.
    """
    if m < 2:
        warnings.warn(f"threshold guarantee requires m >= 2, got m={m}",
                      stacklevel=2)
    return max(1, math.ceil(4 * m * eta * math.log2(eta + 2)))


def derive_params(instance: Instance, config: SolverConfig) -> DerivedParams:
    p = instance.params
    if p.m == 0 and config.threshold_override is None:
        # nothing to fix; the budget is never consulted
        return DerivedParams(eta=float("nan"), threshold_T=1, stock_size_N=p.k)
    try:
        eta = compute_eta(p.k, p.g, p.r, config.delta)
    except ConditionViolated:
        if config.threshold_override is None:
            raise
        eta = float("nan")
    if config.threshold_override is not None:
        threshold = int(config.threshold_override)
        if threshold < 1:
            raise ValueError("threshold_override must be >= 1")
    else:
        threshold = compute_threshold(p.m, eta)
    return DerivedParams(eta=eta, threshold_T=threshold,
                         stock_size_N=threshold * p.k)


def neighborhood_orders(instance: Instance, traversal: str, rng):
    """Per-projector FIX traversal order over its neighborhood (self included)."""
    if traversal == "ascending":
        return instance.neighborhood
    if traversal == "random":
        orders = []
        for nb in instance.neighborhood:
            order = list(nb)
            rng.shuffle(order)
            orders.append(order)
        return orders
    raise ValueError(f"unknown traversal {traversal!r}")


def execute_fix_loop(instance, orders, threshold, state, on_leaf,
                     on_return=None) -> float:
    """Walk FIX(0), ..., FIX(m-1) from `state`, depth first.

    Each measurement goes through state.measure_branches.  A violation adds
    one to the failure count t; reaching the threshold aborts that branch at
    once, without the final qubit replacement.  Otherwise the measured
    qubits are replaced through state.replace_qubits.  Each branch
    that ends is handed to on_leaf(outcomes, probability, state, t, result)
    with outcomes a tuple of bits (1 = violated) and result "Success" or
    "Failure".  on_return(j) fires when FIX(j) completes, satisfied calls
    included, and never after an abort.  Returns the pruned mass: the
    probability of the branches measure_branches did not return.
    """
    projectors = instance.projectors
    pruned = 0.0
    # a walk: pending calls with the next one last (~j marks FIX(j)'s return),
    # outcomes, failures, probability, state
    walks = [(list(range(instance.m - 1, -1, -1)), [], 0, 1.0, state)]
    while walks:
        pending, outcomes, t, prob, state = walks.pop()
        while pending:
            j = pending.pop()
            if j < 0:
                on_return(~j)
                continue
            branches = state.measure_branches(projectors[j])
            kept = 0.0
            for outcome, _ in branches:
                kept += outcome.probability
            if kept < 1.0:
                pruned += prob * (1.0 - kept)
            # the last branch continues in place; every other one forks with
            # its own copies and is walked after it
            last = len(branches) - 1
            for b, (outcome, post) in enumerate(branches):
                fork = b < last
                pending_b = pending.copy() if fork else pending
                outcomes_b = outcomes.copy() if fork else outcomes
                outcomes_b.append(outcome.violated)
                t_b, prob_b = t, prob * outcome.probability
                if outcome.violated:
                    t_b += 1
                    if t_b == threshold:
                        on_leaf(tuple(outcomes_b), prob_b, post, t_b, "Failure")
                        post = None
                    else:
                        post.replace_qubits(projectors[j].support)
                        if on_return is not None:
                            pending_b.append(~j)
                        pending_b.extend(reversed(orders[j]))
                elif on_return is not None:
                    pending_b.append(~j)
                if not fork:
                    state, t, prob = post, t_b, prob_b
                elif post is not None:
                    walks.append((pending_b, outcomes_b, t_b, prob_b, post))
            if state is None:  # the walk in place aborted
                break
        else:
            on_leaf(tuple(outcomes), prob, state, t, "Success")
    return pruned


def run(instance: Instance, config: SolverConfig) -> RunRecord:
    """One full execution of the solver on a sampling backend."""
    if config.backend not in SAMPLING:
        raise ValueError(
            f"run() samples single executions; backend {config.backend!r} is "
            "enumeration-only (see verifiers.enumerate_history_tree)")
    started = time.perf_counter_ns()
    derived = derive_params(instance, config)
    rng = np.random.default_rng(config.seed)
    orders = neighborhood_orders(instance, config.traversal, rng)
    leaves = []
    execute_fix_loop(instance, orders, derived.threshold_T,
                     init_fully_mixed(config.backend, instance.n, rng=rng),
                     lambda *leaf: leaves.append(leaf))
    (outcomes, _, state, t, result), = leaves
    final_expectations = None
    max_energy = None
    if result == "Success":
        report = verify_satisfaction(instance, state)
        final_expectations, max_energy = report.energies, report.max_energy
    return RunRecord(outcome_string=outcomes, failures_t=t,
                     fix_calls=len(outcomes), result=result,
                     final_expectations=final_expectations,
                     max_energy=max_energy,
                     elapsed_ns=time.perf_counter_ns() - started,
                     seed=int(config.seed))


@dataclass
class SatisfactionReport:
    energies: list           # expectation of each projector, in order
    max_energy: float
    satisfied: bool
    no_guarantee: bool  # set for non-commuting instances


def verify_satisfaction(instance: Instance, state) -> SatisfactionReport:
    energies = [state.expectation(p) for p in instance.projectors]
    max_energy = max(energies, default=0.0)
    return SatisfactionReport(energies=energies, max_energy=max_energy,
                              satisfied=max_energy <= SATISFACTION_ATOL,
                              no_guarantee=not instance.commuting)


@dataclass
class MonotonicityReport:
    runs: int
    failures: int            # runs that ended in "Failure" (excluded from the probe)
    violations: list         # (run_index, detail) tuples
    holds: bool


def monotonicity_probe(instance: Instance, config: SolverConfig,
                       runs: int = 100) -> MonotonicityReport:
    """Instrument each FIX(j) call with the paper's invariant: a projector
    satisfied when FIX(j) starts is still satisfied when FIX(j) returns, and
    j is satisfied then.  The satisfied set is pushed when FIX(j) measures
    and popped when it returns."""
    if not instance.commuting:
        raise ValueError("monotonicity probe requires a commuting instance")
    if config.backend != "trajectory":
        raise ValueError("monotonicity probe requires the trajectory backend")
    base = np.random.SeedSequence(config.seed)
    derived = derive_params(instance, config)
    violations = []
    failures = 0
    for run_index, child in enumerate(base.spawn(runs)):
        rng = np.random.default_rng(child)
        orders = neighborhood_orders(instance, config.traversal, rng)
        state = init_fully_mixed("trajectory", instance.n, rng=rng)
        entered = []  # the satisfied set at the start of each open FIX call

        def satisfied():
            return {i for i, p in enumerate(instance.projectors)
                    if state.expectation(p) <= SATISFACTION_ATOL}

        def measure_branches(spec, measure=state.measure_branches):
            entered.append(satisfied())
            return measure(spec)

        def on_return(j):
            energy = state.expectation(instance.projectors[j])
            if energy > SATISFACTION_ATOL:
                violations.append((run_index, f"fix({j}) returned with energy {energy:.3g}"))
            lost = entered.pop() - satisfied()
            if lost:
                violations.append((run_index, f"satisfied set lost {sorted(lost)}"))

        state.measure_branches = measure_branches
        results = []
        execute_fix_loop(instance, orders, derived.threshold_T, state,
                         lambda *leaf: results.append(leaf[4]),
                         on_return=on_return)
        if results == ["Failure"]:
            failures += 1
    return MonotonicityReport(runs=runs, failures=failures,
                              violations=violations, holds=not violations)


# ---------------------------------------------------------------------------
# record serialization

def rle_encode(bits) -> str:
    """Run-length encode a bit sequence, e.g. (0,0,0,1) -> "0*3,1*1"."""
    if not bits:
        return ""
    parts = []
    current, count = bits[0], 0
    for b in bits:
        if b == current:
            count += 1
        else:
            parts.append(f"{current}*{count}")
            current, count = b, 1
    parts.append(f"{current}*{count}")
    return ",".join(parts)


def rle_decode(text: str) -> tuple:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        bit, count = part.split("*")
        out.extend([int(bit)] * int(count))
    return tuple(out)


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Stable per-trial seed stream for embarrassingly parallel batches."""
    return int(np.random.SeedSequence([int(base_seed), int(trial)])
               .generate_state(1, np.uint64)[0])


def record_to_dict(record: RunRecord, trial: int) -> dict:
    return {
        "trial": trial,
        "seed": record.seed,
        "result": record.result,
        "t": record.failures_t,
        "fix_calls": record.fix_calls,
        "outcome_rle": rle_encode(record.outcome_string),
        "max_energy": record.max_energy,
        "elapsed_ns": record.elapsed_ns,
    }

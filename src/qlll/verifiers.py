"""Numerical certification of the solver's guarantees.

Covers: the entropy inequality for adaptive projective measurements (checked
by exhaustive history-tree enumeration with the stock register materialized),
the per-branch counting and entropy bounds, the analytic failure-probability
bound, the exact binomial inequality C(m+gt, t) <= 2^m C(gt, t), and the
threshold inequality (log2 T + m)/T <= 1/eta with its three sub-bounds.

Enumeration is the solver's FIX walker, solver.execute_fix_loop, started
from a state whose measure_branches returns every branch it keeps
(DensityState or DiagonalDistribution); the same walker samples one run
from a trajectory or bit-string state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import InsufficientTrials
from .instances import Instance, InstanceParams, check_qlll_condition
from .backends import (ENUMERATING, DensityState, shannon_entropy,
                       von_neumann_entropy)
from .solver import (SolverConfig, compute_eta, compute_threshold,
                     derive_params, execute_fix_loop, neighborhood_orders)

ENTROPY_SLACK = 1e-9


@dataclass
class HistoryNode:
    branch_string: tuple
    probability: float
    state: object        # DensityState: enumerate_history_tree builds no other
    failures: int
    result: str          # "Success" | "Failure"

    @cached_property
    def entropy(self) -> float:
        """Von Neumann entropy of the leaf state, computed once and shared by
        the claim checks."""
        return von_neumann_entropy(self.state.rho)


@dataclass
class HistoryTree:
    leaves: list
    initial_entropy: float
    n: int
    stock_N: int
    pruned_mass: float


def enumerate_history_tree(instance: Instance, config: SolverConfig,
                           materialize_stock: bool = True) -> HistoryTree:
    """Exact branch enumeration on the density backend.

    With the stock materialized, the register holds n + N qubits, the last
    N = T*k of them maximally mixed stock that each replacement swaps in
    (DensityState(n + N, stock=N)), so branch entropies follow the same
    bookkeeping as the failure-probability argument.  The enumeration runs
    at any d while each density factor, the qubits FIX measured together,
    stays within DENSITY_CAP; the entropy checks read each leaf's `rho`, so
    they need d <= DENSITY_CAP.
    """
    derived = derive_params(instance, config)
    stock_n = derived.stock_size_N if materialize_stock else 0
    d = instance.n + stock_n
    root = DensityState(d, stock=stock_n)
    if config.traversal != "ascending":
        raise ValueError("history enumeration supports ascending traversal only")
    leaves = []
    pruned = execute_fix_loop(
        instance, neighborhood_orders(instance, "ascending", None),
        derived.threshold_T, root,
        lambda *leaf: leaves.append(HistoryNode(*leaf)))
    return HistoryTree(leaves=leaves, initial_entropy=float(d), n=instance.n,
                       stock_N=stock_n, pruned_mass=pruned)


def enumerate_outcome_distribution(instance: Instance, threshold: int,
                                   backend: str = "density") -> dict:
    """Exact outcome-string distribution {s_bar: probability} of the FIX loop.

    backend "density" works for any instance (no stock; probabilities are
    unaffected); "diagonal" runs the classical-distribution state and is
    defined for diagonal instances only.
    """
    if backend not in ENUMERATING:
        raise ValueError(f"unknown enumeration backend {backend!r}")
    dist = {}

    def fold(branch_string, probability, _state, _failures, _result):
        dist[branch_string] = dist.get(branch_string, 0.0) + probability

    execute_fix_loop(instance, neighborhood_orders(instance, "ascending", None),
                     threshold, ENUMERATING[backend](instance.n), fold)
    return dist


# ---------------------------------------------------------------------------
# claim checks on enumerated trees

def check_entropy_claim(tree: HistoryTree) -> dict:
    """Initial entropy vs. outcome entropy plus mean branch entropy:
    S(initial) <= H({p}) + sum p S(rho_branch), within 1e-9 slack."""
    probs = [leaf.probability for leaf in tree.leaves]
    outcome_entropy = shannon_entropy(probs, atol=ENTROPY_SLACK + tree.pruned_mass)
    mean_branch_entropy = sum(leaf.probability * leaf.entropy
                              for leaf in tree.leaves)
    lhs = tree.initial_entropy
    rhs = outcome_entropy + mean_branch_entropy
    return {"claim": "entropy", "lhs": lhs, "rhs": rhs,
            "tolerance": ENTROPY_SLACK, "holds": lhs <= rhs + ENTROPY_SLACK}


def check_history_count_bound(tree: HistoryTree, params: InstanceParams) -> dict:
    """Per-leaf structural bounds: branch length <= m + g*t and branch entropy
    <= N + n - t*(k - log2 r).  Also reports the stock size N beside the most
    stock qubits any leaf swapped in."""
    violations = []
    worst_length = -math.inf
    worst_entropy = -math.inf
    stock_used = 0
    for leaf in tree.leaves:
        t = leaf.failures
        stock_used = max(stock_used, leaf.state.stock_used)
        length_slack = len(leaf.branch_string) - (params.m + params.g * t)
        worst_length = max(worst_length, length_slack)
        if length_slack > 0:
            violations.append(("length", leaf.branch_string))
        entropy = leaf.entropy
        bound = tree.stock_N + tree.n - t * (params.k - math.log2(params.r))
        entropy_slack = entropy - bound
        worst_entropy = max(worst_entropy, entropy_slack)
        if entropy_slack > ENTROPY_SLACK:
            violations.append(("entropy", leaf.branch_string, entropy, bound))
    return {"claim": "history_counts", "leaves": len(tree.leaves),
            "worst_length_slack": worst_length,
            "worst_entropy_slack": worst_entropy,
            "tolerance": ENTROPY_SLACK,
            "stock_N": tree.stock_N, "stock_used": stock_used,
            "violations": violations, "holds": not violations}


# ---------------------------------------------------------------------------
# exact and analytic inequality checks

def check_binomial_inequality(m_range, g_range, t_range) -> dict:
    """Exhaustive exact-integer check of C(m+gt, t) <= 2^m * C(gt, t) over the
    grid, plus the follow-up bound C(gt, t) <= (ge)^t used in the same chain.
    Violations are reported, not raised: the stated validity range is g >= 2,
    t >= 1, and behavior outside it is worth inspecting."""
    violations = []
    chain_violations = []
    checked = 0
    for m in m_range:
        for g in g_range:
            for t in t_range:
                checked += 1
                lhs = math.comb(m + g * t, t)
                rhs = (2 ** m) * math.comb(g * t, t)
                if lhs > rhs:
                    violations.append((m, g, t, lhs, rhs))
                if math.log2(math.comb(g * t, t)) > t * math.log2(g * math.e) + 1e-9:
                    chain_violations.append((m, g, t))
    return {"claim": "binomial", "checked": checked,
            "violations": violations,
            "chain_violations": chain_violations,
            "holds": not violations and not chain_violations}


def check_threshold_inequality(k, g, r, delta, m_values) -> dict:
    """For each m >= 2: with eta and T = ceil(4 m eta log2(eta+2)), the bound
    (log2 T + m)/T <= 1/eta must hold; the three sub-bounds are checked at the
    un-ceiled T (the left side is decreasing in T, so dropping the ceiling is
    the harder case)."""
    rows = []
    ok = True
    for m in m_values:
        if m < 2:
            raise ValueError(f"threshold inequality requires m >= 2, got {m}")
        eta = compute_eta(k, g, r, delta)
        threshold = compute_threshold(m, eta)
        main_margin = 1.0 / eta - (math.log2(threshold) + m) / threshold
        t_real = 4 * m * eta * math.log2(eta + 2)
        sub1 = 2.0 - math.log2(4 * m) / m
        sub2 = 1.0 - (math.log2(eta) + math.log2(math.log2(eta + 2))) \
            / (m * math.log2(eta + 2))
        sub3 = 1.0 - 1.0 / math.log2(eta + 2)
        combined = 4.0 - (math.log2(4 * m) + math.log2(eta)
                          + math.log2(math.log2(eta + 2)) + m) \
            / (m * math.log2(eta + 2))
        row_ok = (main_margin > 0 and sub1 >= 0 and sub2 >= 0
                  and sub3 >= 0 and combined >= 0)
        ok = ok and row_ok
        rows.append({"m": m, "eta": eta, "T": threshold, "T_real": t_real,
                     "main_margin": main_margin,
                     "sub_margins": (sub1, sub2, sub3),
                     "combined_margin": combined, "holds": row_ok})
    return {"claim": "threshold", "k": k, "g": g, "r": r, "delta": delta,
            "rows": rows, "holds": ok}


def failure_probability_bound(k, g, r, m, threshold) -> float | None:
    """Analytic bound (log2 T + m) / (T * (k - log2(g e r))) on Pr(Failure);
    0 for m = 0, where FIX measures nothing and cannot fail, and otherwise
    None when the local-lemma condition fails, where the paper gives none."""
    if m == 0:
        return 0.0
    check = check_qlll_condition(InstanceParams(k=k, r=r, g=g, m=m))
    if not check.satisfied:
        return None
    return (math.log2(threshold) + m) / (threshold * check.margin)


def check_failure_bound(records, params: InstanceParams, delta: float,
                        threshold: int, min_trials: int = 100) -> dict:
    """Empirical failure rate of a trial batch (dict records, as
    solver.record_to_dict writes them) against the analytic bound and the
    3-sigma band around delta.  Without a bound (the condition fails)
    analytic_bound is None and the check does not hold."""
    trials = len(records)
    if trials < min_trials:
        raise InsufficientTrials(f"need >= {min_trials} records, got {trials}")

    failures = sum(1 for rec in records if rec["result"] == "Failure")
    empirical = failures / trials
    bound = failure_probability_bound(params.k, params.g, params.r,
                                      params.m, threshold)
    band = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    histogram = Counter(rec["t"] for rec in records)
    below = bound is not None and bound <= delta
    return {"claim": "failure_bound", "trials": trials,
            "empirical_failure_rate": empirical,
            "analytic_bound": bound, "delta": delta, "band": band,
            "t_histogram": dict(sorted(histogram.items())),
            "bound_below_delta": below,
            "empirical_within_band": empirical <= band,
            "holds": below and empirical <= band}

"""Output checks for the qlll benchmark, computed apart from the program.

Nothing here imports qlll: every reference value (the threshold T, the
first-measurement law, the classical FIX law, entropies) is recomputed from
the instance JSON or from raw matrices with numpy and the standard library,
so a fault in the program cannot hide itself by also breaking its oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Per-check false-alarm probability of the statistical checks.  Inputs are
# seeded, so a false alarm would repeat on its seed; 1e-8 keeps the chance of
# one across every run the benchmark is ever asked for negligible while a
# broken backend (see selftest.py) is still rejected by many orders.
ALPHA = 1e-8
EXACT_ATOL = 1e-9
DELTA = 0.25


# ---------------------------------------------------------------------------
# instance facts, from the saved JSON

def instance_facts(data: dict) -> dict:
    """n, supports, forbidden patterns and the derived k, r, g, m of an
    instance file, recomputed without the program's own parameter code.
    r counts forbidden patterns, so it is the rank of diagonal and rotated
    bodies only (0 for explicit ones)."""
    supports = [tuple(int(q) for q in p["support"]) for p in data["projectors"]]
    forbidden = [frozenset(p.get("forbidden", ())) for p in data["projectors"]]
    sets = [set(s) for s in supports]
    neighborhood = [[j for j, other in enumerate(sets) if s & other] for s in sets]
    return {
        "n": int(data["n"]),
        "supports": supports,
        "forbidden": forbidden,
        "neighborhood": neighborhood,
        "k": max((len(s) for s in supports), default=1),
        "r": max((len(f) for f in forbidden), default=1),
        "g": max((len(nb) for nb in neighborhood), default=1),
        "m": len(supports),
    }


def diagonal_core(data: dict) -> dict:
    """The instance with every rotated body replaced by its diagonal inner body."""
    core = {"n": data["n"], "meta": {"generator": "diagonal-core"},
            "projectors": []}
    for p in data["projectors"]:
        if p["kind"] not in ("diagonal", "rotated"):
            raise ValueError(f"no diagonal core for a {p['kind']!r} body")
        core["projectors"].append({"kind": "diagonal", "support": p["support"],
                                   "forbidden": p["forbidden"]})
    return core


def threshold_T(facts: dict, delta: float = DELTA) -> int:
    """T = ceil(4 m eta log2(eta + 2)), eta = 1 / (delta (k - log2(g e r)))."""
    margin = facts["k"] - math.log2(facts["g"] * facts["r"]) - math.log2(math.e)
    eta = 1.0 / (delta * margin)
    return max(1, math.ceil(4 * facts["m"] * eta * math.log2(eta + 2)))


def first_violation_probability(facts: dict) -> float:
    """Born probability that projector 0 is violated on the fully mixed state."""
    return len(facts["forbidden"][0]) / 2 ** len(facts["supports"][0])


# ---------------------------------------------------------------------------
# sampled records

def rle_bits(text: str) -> list:
    bits = []
    for part in filter(None, text.split(",")):
        bit, count = part.split("*")
        bits.extend([int(bit)] * int(count))
    return bits


def record_problems(rec: dict, facts: dict, threshold: int) -> list:
    """Names of the structural checks one `qlll run` record fails."""
    bits = rle_bits(rec["outcome_rle"])
    t, calls, m, g = rec["t"], rec["fix_calls"], facts["m"], facts["g"]
    success = rec["result"] == "Success"
    problems = []
    if rec["result"] not in ("Success", "Failure"):
        problems.append("record_result_value")
    if calls != len(bits):
        problems.append("record_fix_calls_eq_len")
    if t != sum(bits):
        problems.append("record_t_eq_ones")
    if calls > m + g * t:
        problems.append("record_calls_upper")
    if success and calls < m + t:
        problems.append("record_calls_lower")
    if success != (t < threshold):
        problems.append("record_success_iff_t_below_T")
    if success and not (rec["max_energy"] is not None
                        and rec["max_energy"] <= 1e-6):
        problems.append("record_success_satisfies")
    return problems


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_two_sided_ok(count: int, trials: int, p: float,
                          alpha: float = ALPHA) -> bool:
    """False when count is in either exact binomial tail of mass < alpha/2."""
    if p <= 0.0 or p >= 1.0:
        return count == round(p * trials)
    logs = [_log_binom_pmf(k, trials, p) for k in range(trials + 1)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    lower = sum(weights[:count + 1]) / total
    upper = sum(weights[count:]) / total
    return min(lower, upper) >= alpha / 2


def dkw_radius(samples: int, alpha: float) -> float:
    """eps with P(sup |F_n - F| > eps) <= alpha (Massart's DKW bound)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def same_law_ok(a: list, b: list, comparisons: int = 2,
                alpha: float = ALPHA) -> tuple:
    """Two-sample CDF check: sup |F_a - F_b| within the sum of both DKW radii,
    alpha split over `comparisons` checks and the two samples.  Returns
    (holds, distance, tolerance)."""
    per_sample = alpha / (2 * comparisons)
    tol = dkw_radius(len(a), per_sample) + dkw_radius(len(b), per_sample)
    values = sorted(set(a) | set(b))
    sa, sb = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    fa = np.searchsorted(sa, values, side="right") / len(a)
    fb = np.searchsorted(sb, values, side="right") / len(b)
    dist = float(np.max(np.abs(fa - fb))) if values else 0.0
    return dist <= tol, dist, tol


# ---------------------------------------------------------------------------
# exact classical law (the Moser walk on the diagonal core)

def classical_outcome_law(facts: dict, threshold: int) -> dict:
    """Exact {outcome string: probability} of the FIX loop on a diagonal
    instance, by carrying the joint law over all 2^n bit strings through
    every branch.  Qubit 0 is the most significant bit of the index."""
    n, m = facts["n"], facts["m"]
    index = np.arange(2 ** n)
    bit = [(index >> (n - 1 - q)) & 1 for q in range(n)]
    masks = []
    for support, forbidden in zip(facts["supports"], facts["forbidden"]):
        mask = np.zeros(2 ** n, dtype=bool)
        for pattern in forbidden:
            sel = np.ones(2 ** n, dtype=bool)
            for q, c in zip(support, pattern):
                sel &= bit[q] == int(c)
            mask |= sel
        masks.append(mask)

    def resample(joint, support):
        t = joint.reshape((2,) * n)
        marginal = t.sum(axis=tuple(support), keepdims=True) / 2 ** len(support)
        return np.broadcast_to(marginal, t.shape).reshape(-1)

    law = {}
    stack = [(np.full(2 ** n, 2.0 ** -n), tuple(range(m)), 0, ())]
    while stack:
        joint, work, t, sbar = stack.pop()
        if not work:
            law[sbar] = law.get(sbar, 0.0) + float(joint.sum())
            continue
        j = work[0]
        hit = np.where(masks[j], joint, 0.0)
        miss = joint - hit
        if hit.sum() > 0.0:
            if t + 1 == threshold:
                law[sbar + (1,)] = law.get(sbar + (1,), 0.0) + float(hit.sum())
            else:
                stack.append((resample(hit, facts["supports"][j]),
                              tuple(facts["neighborhood"][j]) + work[1:],
                              t + 1, sbar + (1,)))
        if miss.sum() > 0.0:
            stack.append((miss, work[1:], t, sbar + (0,)))
    return law


def law_distance(a: dict, b: dict) -> float:
    """Largest per-outcome-string difference between two laws."""
    return max((abs(a.get(s, 0.0) - b.get(s, 0.0)) for s in set(a) | set(b)),
               default=0.0)


# ---------------------------------------------------------------------------
# enumerated history trees

def entropy_bits(evals: np.ndarray) -> float:
    kept = evals[evals > 1e-12]
    return float(-(kept * np.log2(kept)).sum())


def tree_problems(leaves: list, pruned_mass: float, register: int,
                  facts: dict, program_rhs: float | None) -> list:
    """Checks on one enumerated tree.  leaves: (branch, t, probability, rho)."""
    problems = []
    probs = np.array([p for _, _, p, _ in leaves])
    if abs(probs.sum() - (1.0 - pruned_mass)) > EXACT_ATOL:
        problems.append("tree_mass")
    mean_entropy = 0.0
    for branch, t, p, rho in leaves:
        if rho.shape != (2 ** register, 2 ** register):
            problems.append("leaf_register")
            continue
        if abs(np.trace(rho).real - 1.0) > EXACT_ATOL:
            problems.append("leaf_unit_trace")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -EXACT_ATOL:
            problems.append("leaf_psd")
        if len(branch) > facts["m"] + facts["g"] * t:
            problems.append("leaf_length_bound")
        mean_entropy += p * entropy_bits(evals)
    kept = probs[probs > 0]
    outcome_entropy = float(-(kept * np.log2(kept)).sum())
    rhs = outcome_entropy + mean_entropy
    if register > rhs + EXACT_ATOL:
        problems.append("entropy_inequality")
    if program_rhs is not None and abs(program_rhs - rhs) > 1e-6:
        problems.append("entropy_rhs_agrees")
    return sorted(set(problems))

"""Acceptance suite: every headline guarantee checked at its stated tolerance.

Each test prints one PASS line on success; run with `pytest -s` to see them.
"""

import collections
import math

import numpy as np
import pytest

from qlll.instances import (
    Explicit,
    InstanceParams,
    ProjectorSpec,
    build_instance,
    check_qlll_condition,
    generate_classical_instance,
    random_instance,
    rotate_instance,
)
from qlll.solver import (
    SolverConfig,
    compute_eta,
    compute_threshold,
    derive_trial_seed,
    monotonicity_probe,
    run,
)
from qlll.verifiers import (
    check_binomial_inequality,
    check_entropy_claim,
    check_history_count_bound,
    check_threshold_inequality,
    enumerate_history_tree,
    enumerate_outcome_distribution,
    failure_probability_bound,
)


def _report(line):
    print(f"PASS {line}")


def _random_trees(count, threshold):
    """n <= 3, k <= 2 instances alternating commuting / non-commuting."""
    for i in range(count):
        inst = random_instance(3, 2, 2, rank=1 + i % 2, seed=1000 + i,
                               commuting=i % 2 == 0)
        config = SolverConfig(threshold_override=threshold,
                              backend="density_enumerate")
        yield inst, enumerate_history_tree(inst, config)


def test_criterion_1_success_guarantee():
    """1000 seeded trials on a (k=3, r=1, g<=2, m=12) diagonal instance at
    delta=0.25: failure rate within the 3-sigma band and every success
    satisfies every clause."""
    inst = generate_classical_instance(20, 3, 12, 2, seed=7)
    assert inst.params.k == 3 and inst.params.r == 1
    assert inst.params.g <= 2 and inst.params.m == 12
    trials = 1000
    delta = 0.25
    failures = 0
    for trial in range(trials):
        seed = derive_trial_seed(7, trial)
        rec = run(inst, SolverConfig(delta=delta, seed=seed, backend="diagonal"))
        if rec.result == "Failure":
            failures += 1
        else:
            assert rec.max_energy <= 1e-8
    band = delta + 3 * math.sqrt(delta * (1 - delta) / trials)
    rate = failures / trials
    assert rate <= band
    _report(f"criterion 1: failure rate {rate:.4f} <= {band:.4f} "
            f"over {trials} trials, all successes satisfied")


BINOMIAL_ALPHA = 1e-3


def _binomial_pmf(trials, p):
    k = np.arange(trials + 1)
    log_comb = np.array([math.lgamma(trials + 1) - math.lgamma(i + 1)
                         - math.lgamma(trials - i + 1) for i in k])
    return np.exp(log_comb + k * math.log(p) + (trials - k) * math.log1p(-p))


def _two_sided_p(pmf, observed):
    """Exact two-sided binomial p-value: the mass of the counts no likelier
    than the observed one."""
    return float(pmf[pmf <= pmf[observed] * (1 + 1e-7)].sum())


def test_criterion_1_quantum_failure_rate():
    """Criterion 1 on the trajectory backend: the rotated criterion-1
    instance (n = 20, six components of 3 qubits) at T = 3.  The failures
    of 2000 seeded trials against the exact Pr(F) of its density law, by an
    exact two-sided binomial test at alpha = 1e-3, which rejects a failure
    rate shifted by 0.05 either way with probability above 0.9; every
    success satisfies every projector."""
    inst = rotate_instance(generate_classical_instance(20, 3, 12, 2, seed=7),
                           seed=11)
    assert inst.n == 20 and not inst.is_diagonal()
    threshold, trials = 3, 2000
    law = enumerate_outcome_distribution(inst, threshold, backend="density")
    rate = sum(p for bits, p in law.items() if sum(bits) == threshold)
    assert rate == pytest.approx(0.27650, abs=5e-6)
    pmf = _binomial_pmf(trials, rate)
    rejected = np.array([_two_sided_p(pmf, k) <= BINOMIAL_ALPHA
                         for k in range(trials + 1)])
    for shifted in (rate - 0.05, rate + 0.05):
        assert _binomial_pmf(trials, shifted)[rejected].sum() > 0.9
    failures = 0
    for trial in range(trials):
        rec = run(inst, SolverConfig(seed=derive_trial_seed(7, trial),
                                     backend="trajectory",
                                     threshold_override=threshold))
        if rec.result == "Failure":
            failures += 1
        else:
            assert rec.max_energy <= 1e-8
    p_value = _two_sided_p(pmf, failures)
    assert p_value > BINOMIAL_ALPHA
    _report(f"criterion 1 (quantum): {failures} failures in {trials} trials "
            f"against {trials * rate:.1f} expected, two-sided p {p_value:.3f} "
            f"> {BINOMIAL_ALPHA}")


def test_criterion_2_analytic_failure_bound():
    """(k,g,r,delta,m) = (3,2,1,0.5,2): T = 72 and the analytic bound
    ~0.2036 <= delta, matching an independent 50-digit recomputation to
    6 significant digits."""
    mp = pytest.importorskip("mpmath")
    eta = compute_eta(3, 2, 1, 0.5)
    threshold = compute_threshold(2, eta)
    assert threshold == 72
    bound = failure_probability_bound(3, 2, 1, 2, threshold)
    assert bound <= 0.5

    mp.mp.dps = 50
    log2 = lambda x: mp.log(x) / mp.log(2)
    eta_hp = 1 / (mp.mpf("0.5") * (3 - log2(2 * mp.e)))
    t_hp = mp.ceil(4 * 2 * eta_hp * log2(eta_hp + 2))
    bound_hp = (log2(t_hp) + 2) / (t_hp * (3 - log2(2 * mp.e)))
    assert int(t_hp) == threshold
    assert abs(bound - float(bound_hp)) <= abs(float(bound_hp)) * 1e-6
    assert abs(eta - float(eta_hp)) <= abs(float(eta_hp)) * 1e-6
    _report(f"criterion 2: T = {threshold}, bound {bound:.6f} <= 0.5, "
            "matches 50-digit oracle to 6 significant digits")


def test_criterion_3_entropy_inequality():
    """>= 100 enumerated history trees (stock materialized, commuting and
    non-commuting alike) satisfy the entropy inequality within 1e-9."""
    worst = math.inf
    count = 0
    for inst, tree in _random_trees(100, threshold=2):
        report = check_entropy_claim(tree)
        assert report["holds"], (inst.meta, report)
        worst = min(worst, report["rhs"] - report["lhs"])
        count += 1
    assert count == 100
    _report(f"criterion 3: entropy inequality holds on {count} trees "
            f"(worst slack {worst:.3g} >= -1e-9)")


def test_criterion_4_counting_bounds():
    """Per-leaf branch-length and branch-entropy bounds on the same trees."""
    leaves = 0
    for inst, tree in _random_trees(100, threshold=2):
        report = check_history_count_bound(tree, inst.params)
        assert report["holds"], (inst.meta, report)
        leaves += report["leaves"]
    _report(f"criterion 4: length and entropy bounds hold on all {leaves} leaves")


def test_criterion_5_binomial_inequality():
    """Exact-integer check of C(m+gt,t) <= 2^m C(gt,t) over the full grid."""
    report = check_binomial_inequality(range(0, 31), range(2, 7), range(1, 21))
    assert report["violations"] == []
    assert report["chain_violations"] == []
    _report(f"criterion 5: binomial inequality exact on {report['checked']} "
            "grid points, zero violations")


def test_criterion_6_threshold_inequality():
    """All admissible (k, g, r, delta) with m in [2, 50]: the threshold
    inequality holds with strictly positive margin, and the three
    sub-inequalities hold individually."""
    combos = 0
    for k in range(3, 7):
        for g in range(2, 12):
            for r in (1, 2):
                if not check_qlll_condition(InstanceParams(k, r, g, 2)).satisfied:
                    continue
                for delta in (0.1, 0.25, 0.5, 0.9):
                    report = check_threshold_inequality(k, g, r, delta,
                                                        range(2, 51))
                    assert report["holds"], (k, g, r, delta)
                    assert all(row["main_margin"] > 0 for row in report["rows"])
                    combos += 1
    assert combos > 0
    _report(f"criterion 6: threshold inequality holds for {combos} admissible "
            "(k, g, r, delta) sweeps, m in [2, 50]")


def test_criterion_7_backend_oracle_equivalence():
    """Trajectory sampling matches exact density branch probabilities within
    total variation 0.02 at 10^4 samples; diagonal enumeration matches the
    density enumeration within 1e-9."""
    inst = generate_classical_instance(3, 2, 2, 3, seed=5)
    threshold = 3
    exact = enumerate_outcome_distribution(inst, threshold, backend="density")
    diagonal = enumerate_outcome_distribution(inst, threshold, backend="diagonal")
    assert set(exact) == set(diagonal)
    worst = max(abs(exact[k] - diagonal[k]) for k in exact)
    assert worst <= 1e-9

    samples = 10_000
    counts = collections.Counter()
    for trial in range(samples):
        rec = run(inst, SolverConfig(seed=derive_trial_seed(1, trial),
                                     backend="trajectory",
                                     threshold_override=threshold))
        counts[rec.outcome_string] += 1
    tv = 0.5 * sum(abs(counts.get(k, 0) / samples - exact.get(k, 0.0))
                   for k in set(counts) | set(exact))
    assert tv <= 0.02
    _report(f"criterion 7: trajectory-vs-density TV {tv:.4f} <= 0.02 at "
            f"{samples} samples; diagonal-vs-density max diff {worst:.2e}")


def test_criterion_8_monotonicity():
    """100 seeded runs over a rotated commuting instance: the satisfied set
    never shrinks at a FIX return and the fixed projector is satisfied."""
    inst = rotate_instance(generate_classical_instance(9, 3, 4, 2, seed=3),
                           seed=11)
    assert inst.commuting and not inst.is_diagonal()
    report = monotonicity_probe(
        inst, SolverConfig(delta=0.5, seed=42, backend="trajectory"), runs=100)
    assert report.holds, report.violations
    _report(f"criterion 8: monotonicity held in all {report.runs} runs "
            f"({report.failures} aborted)")


def test_criterion_8_monotonicity_entangled():
    """The commuting GHZ triple (1 - XXX)/2 on (0, 1, 2), (1 - ZZ)/2 on (0, 1)
    and on (1, 2), which no product rotation diagonalises: 200 runs at T = 3
    keep the invariant, aborted runs included up to their abort."""
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    xxx = (np.eye(8) - np.kron(np.kron(x, x), x)) / 2
    zz = (np.eye(4) - np.kron(z, z)) / 2
    inst = build_instance(3, [ProjectorSpec((0, 1, 2), Explicit(xxx)),
                              ProjectorSpec((0, 1), Explicit(zz)),
                              ProjectorSpec((1, 2), Explicit(zz))])
    assert inst.commuting
    report = monotonicity_probe(
        inst, SolverConfig(seed=0, threshold_override=3), runs=200)
    assert report.holds, report.violations
    _report(f"criterion 8: monotonicity held on the GHZ triple in all "
            f"{report.runs} runs ({report.failures} aborted)")


def _probe_violations(monkeypatch, orders):
    """Criterion 8's probe with every FIX(j) recursing into orders(j)."""
    inst = rotate_instance(generate_classical_instance(9, 3, 4, 2, seed=3),
                           seed=11)
    monkeypatch.setattr("qlll.solver.neighborhood_orders",
                        lambda instance, traversal, rng: [orders(j) for j in
                                                          range(instance.m)])
    report = monotonicity_probe(
        inst, SolverConfig(delta=0.5, seed=42, backend="trajectory"), runs=100)
    return [detail for _, detail in report.violations]


def test_criterion_8_probe_sees_a_lost_projector(monkeypatch):
    # FIX(j) re-checks only j: a replacement that breaks a satisfied
    # neighbour goes unrepaired
    violations = _probe_violations(monkeypatch, lambda j: (j,))
    assert any(d.startswith("satisfied set lost") for d in violations)


def test_criterion_8_probe_sees_an_unrepaired_projector(monkeypatch):
    # FIX(j) re-checks nothing: j returns with its fresh qubits unmeasured
    violations = _probe_violations(monkeypatch, lambda j: ())
    assert any("returned with energy" in d for d in violations)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlll import backends, verifiers
from qlll.errors import InsufficientTrials
from qlll.instances import (
    Diagonal,
    InstanceParams,
    ProjectorSpec,
    build_instance,
    generate_classical_instance,
    random_instance,
)
from qlll.solver import SolverConfig, run
from qlll.verifiers import (
    check_binomial_inequality,
    check_entropy_claim,
    check_failure_bound,
    check_history_count_bound,
    check_threshold_inequality,
    enumerate_history_tree,
    enumerate_outcome_distribution,
    failure_probability_bound,
)


def diag(support, *patterns):
    return ProjectorSpec(tuple(support), Diagonal(frozenset(patterns)))


def enum_config(threshold):
    return SolverConfig(threshold_override=threshold, backend="density_enumerate")


class TestHistoryTree:
    def test_empty_instance_single_leaf(self):
        tree = enumerate_history_tree(build_instance(1, []), enum_config(1))
        assert len(tree.leaves) == 1
        leaf = tree.leaves[0]
        assert leaf.branch_string == ()
        assert leaf.probability == pytest.approx(1.0)

    def test_single_projector_two_leaves(self):
        # Born rule by hand: forbidden |1> on a mixed qubit splits 1/2 : 1/2
        inst = build_instance(1, [diag([0], "1")])
        tree = enumerate_history_tree(inst, enum_config(1))
        assert sorted(leaf.probability for leaf in tree.leaves) == \
            pytest.approx([0.5, 0.5])
        results = {leaf.branch_string: leaf.result for leaf in tree.leaves}
        assert results[(1,)] == "Failure"
        assert results[(0,)] == "Success"

    @given(seed=st.integers(0, 10 ** 6), commuting=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_leaf_probabilities_sum_to_one(self, seed, commuting):
        inst = random_instance(3, 2, 2, seed=seed, commuting=commuting)
        tree = enumerate_history_tree(inst, enum_config(2))
        total = sum(leaf.probability for leaf in tree.leaves)
        assert total == pytest.approx(1.0, abs=1e-9 + tree.pruned_mass)

    def test_branch_length_bounded(self):
        inst = random_instance(3, 2, 3, seed=5, commuting=True)
        tree = enumerate_history_tree(inst, enum_config(2))
        g, m = inst.params.g, inst.params.m
        for leaf in tree.leaves:
            assert len(leaf.branch_string) <= m + g * leaf.failures


class TestEntropyClaim:
    def test_no_measurements_equality(self):
        tree = enumerate_history_tree(build_instance(2, []), enum_config(1))
        report = check_entropy_claim(tree)
        assert report["lhs"] == pytest.approx(report["rhs"])
        assert report["holds"]

    def test_single_measurement_equality(self):
        # lhs = 2 (system + one stock qubit); rhs = H(1/2,1/2) + 1
        inst = build_instance(1, [diag([0], "1")])
        report = check_entropy_claim(enumerate_history_tree(inst, enum_config(1)))
        assert report["lhs"] == pytest.approx(2.0)
        assert report["rhs"] == pytest.approx(2.0)
        assert report["holds"]

    @given(seed=st.integers(0, 10 ** 6), commuting=st.booleans(),
           rank=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_randomized_instances(self, seed, commuting, rank):
        inst = random_instance(3, 2, 2, rank=rank, seed=seed, commuting=commuting)
        report = check_entropy_claim(enumerate_history_tree(inst, enum_config(2)))
        assert report["holds"], report


class TestCountBound:
    def test_empty_tree_vacuous(self):
        tree = enumerate_history_tree(build_instance(1, []), enum_config(1))
        assert check_history_count_bound(tree, InstanceParams(1, 1, 1, 0))["holds"]

    def test_single_rank1_k1_violated_leaf(self):
        # the violated leaf is pure on the measured qubit: S <= N + n - 1
        inst = build_instance(1, [diag([0], "1")])
        tree = enumerate_history_tree(inst, enum_config(1))
        from qlll.backends import von_neumann_entropy
        for leaf in tree.leaves:
            if leaf.failures:
                assert von_neumann_entropy(leaf.state.rho) <= \
                    tree.stock_N + tree.n - 1 + 1e-9
        assert check_history_count_bound(tree, inst.params)["holds"]

    @given(seed=st.integers(0, 10 ** 6), commuting=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_randomized_instances(self, seed, commuting):
        inst = random_instance(3, 2, 2, seed=seed, commuting=commuting)
        tree = enumerate_history_tree(inst, enum_config(2))
        assert check_history_count_bound(tree, inst.params)["holds"]

    def test_length_and_entropy_violations_reported(self):
        # m = 2, g = 2, k = 2, r = 1 on n = 2 qubits with N = 4 stock qubits:
        # a leaf may be m + g*t long and hold N + n - t*k bits of entropy.
        # Every leaf below is maximally mixed on 6 qubits (entropy 6).
        params = InstanceParams(k=2, r=1, g=2, m=2)

        def leaf(branch, failures):
            return verifiers.HistoryNode(branch, 0.5, backends.DensityState(6),
                                         failures, "Success")

        too_long = leaf((0, 0, 0), 0)      # length 3 > 2; entropy 6 <= 6
        too_mixed = leaf((1, 0, 0), 1)     # length 3 <= 4; entropy 6 > 4
        tree = verifiers.HistoryTree(leaves=[too_long, too_mixed],
                                     initial_entropy=6.0, n=2, stock_N=4,
                                     pruned_mass=0.0)
        report = check_history_count_bound(tree, params)
        assert not report["holds"]
        assert report["violations"] == [("length", (0, 0, 0)),
                                         ("entropy", (1, 0, 0),
                                          pytest.approx(6.0), 4.0)]
        assert report["worst_length_slack"] == 1
        assert report["worst_entropy_slack"] == pytest.approx(2.0)


class TestStockUse:
    @pytest.mark.parametrize("threshold", [2, 3])
    @pytest.mark.parametrize("seed, commuting", [(0, True), (1, False), (2, True)])
    def test_last_k_stock_qubits_never_used(self, monkeypatch, threshold, seed,
                                            commuting):
        # a leaf with t violations swapped in k*min(t, T-1) stock qubits: the
        # abort at t == T skips the last replacement, so of N = T*k stock
        # qubits the last k stay unused.  T = 3 needs n + N = 9 qubits.
        monkeypatch.setattr(backends, "DENSITY_CAP", 9)
        inst = random_instance(3, 2, 2, seed=seed, commuting=commuting)
        tree = enumerate_history_tree(inst, enum_config(threshold))
        k = inst.params.k
        assert tree.stock_N == threshold * k
        assert {leaf.failures for leaf in tree.leaves} == set(range(threshold + 1))
        for leaf in tree.leaves:
            assert leaf.state.stock == tree.stock_N
            assert leaf.state.stock_used == k * min(leaf.failures, threshold - 1)
            assert leaf.state.stock_used <= k * (threshold - 1)


class TestLeafEntropy:
    def test_each_leaf_entropy_computed_once(self, monkeypatch):
        calls = []
        original = verifiers.von_neumann_entropy

        def counting(rho):
            calls.append(1)
            return original(rho)

        monkeypatch.setattr(verifiers, "von_neumann_entropy", counting)
        inst = random_instance(3, 2, 2, seed=4, commuting=True)
        tree = enumerate_history_tree(inst, enum_config(2))
        assert check_entropy_claim(tree)["holds"]
        assert check_history_count_bound(tree, inst.params)["holds"]
        assert len(calls) == len(tree.leaves)
        for leaf in tree.leaves:
            assert leaf.entropy == original(leaf.state.rho)


class TestOutcomeDistributions:
    @given(seed=st.integers(0, 10 ** 6), commuting=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_law_matches_history_tree_leaves(self, seed, commuting):
        # the folded law and the kept leaves come from the same walk
        inst = random_instance(3, 2, 2, seed=seed, commuting=commuting)
        tree = enumerate_history_tree(inst, enum_config(2),
                                      materialize_stock=False)
        from_leaves = {}
        for leaf in tree.leaves:
            from_leaves[leaf.branch_string] = \
                from_leaves.get(leaf.branch_string, 0.0) + leaf.probability
        assert enumerate_outcome_distribution(inst, 2) == from_leaves

    def test_diagonal_matches_density_exactly(self):
        inst = generate_classical_instance(3, 2, 2, 3, seed=5)
        dd = enumerate_outcome_distribution(inst, 3, backend="density")
        gg = enumerate_outcome_distribution(inst, 3, backend="diagonal")
        assert set(dd) == set(gg)
        for key in dd:
            assert dd[key] == pytest.approx(gg[key], abs=1e-9)

    def test_distribution_normalized(self):
        inst = generate_classical_instance(3, 2, 2, 3, seed=6)
        dist = enumerate_outcome_distribution(inst, 2)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


class TestBinomialInequality:
    def test_base_case_equality(self):
        # C(2,1) = 2 = 2^0 * C(2,1)
        report = check_binomial_inequality([0], [2], [1])
        assert report["holds"]

    def test_m1_g2_t1(self):
        # C(3,1) = 3 <= 2 * C(2,1) = 4
        assert check_binomial_inequality([1], [2], [1])["holds"]

    def test_full_grid(self):
        report = check_binomial_inequality(range(0, 31), range(2, 7), range(1, 21))
        assert report["checked"] == 31 * 5 * 20
        assert report["violations"] == []
        assert report["chain_violations"] == []

    def test_finds_violations_outside_validity(self):
        # g = 1 admits counterexamples, e.g. C(3,2)=3 > 2*C(2,2)=2
        report = check_binomial_inequality(range(0, 5), [1], range(1, 5))
        assert report["violations"]
        assert (1, 1, 2) in {v[:3] for v in report["violations"]}


class TestThresholdInequality:
    def test_m2_example(self):
        report = check_threshold_inequality(3, 2, 1, 0.5, [2])
        row = report["rows"][0]
        assert row["T"] == 72
        # (log2 72 + 2)/72 ~ 0.11347 <= 1/eta ~ 0.27865
        assert (math.log2(72) + 2) / 72 == pytest.approx(0.11347118, abs=1e-6)
        assert row["main_margin"] > 0
        assert report["holds"]

    def test_sweep(self):
        report = check_threshold_inequality(3, 2, 1, 0.5, range(2, 51))
        assert report["holds"]
        assert all(row["main_margin"] > 0 for row in report["rows"])

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            check_threshold_inequality(3, 2, 1, 0.5, [1])


class TestFailureBound:
    def test_all_success_batch(self):
        records = [{"result": "Success", "t": 0}] * 150
        report = check_failure_bound(records, InstanceParams(3, 1, 2, 12), 0.25, 1102)
        assert report["empirical_failure_rate"] == 0.0
        assert report["holds"]

    def test_analytic_bound_value(self):
        assert failure_probability_bound(3, 2, 1, 2, 72) == \
            pytest.approx(0.2036069816, abs=1e-9)
        report = check_failure_bound([{"result": "Success", "t": 0}] * 100,
                                     InstanceParams(3, 1, 2, 2), 0.5, 72)
        assert report["analytic_bound"] == pytest.approx(0.2036069816, abs=1e-9)
        assert report["bound_below_delta"]

    def test_insufficient_trials(self):
        with pytest.raises(InsufficientTrials):
            check_failure_bound([{"result": "Success", "t": 0}] * 10,
                                InstanceParams(3, 1, 2, 2), 0.5, 72)

    def test_no_bound_when_condition_fails(self):
        # k=2, r=1, g=3: margin 2 - log2(3e) < 0, so the paper gives no bound
        assert failure_probability_bound(2, 3, 1, 5, 3) is None
        report = check_failure_bound([{"result": "Success", "t": 0}] * 100,
                                     InstanceParams(2, 1, 3, 5), 0.25, 3)
        assert report["analytic_bound"] is None
        assert report["empirical_within_band"]
        assert not report["bound_below_delta"]
        assert not report["holds"]

    @given(t1=st.integers(10, 5000), t2=st.integers(10, 5000))
    @settings(max_examples=50)
    def test_bound_decreasing_in_threshold(self, t1, t2):
        lo, hi = sorted((t1, t2))
        if lo == hi:
            return
        assert failure_probability_bound(3, 2, 1, 2, hi) <= \
            failure_probability_bound(3, 2, 1, 2, lo) + 1e-15

    def test_histogram_emitted(self):
        inst = generate_classical_instance(9, 3, 3, 2, seed=0)
        records = [run(inst, SolverConfig(delta=0.25, seed=s, backend="diagonal"))
                   for s in range(120)]
        from qlll.solver import derive_params
        derived = derive_params(inst, SolverConfig(delta=0.25))
        report = check_failure_bound(records, inst.params, 0.25,
                                     derived.threshold_T)
        assert sum(report["t_histogram"].values()) == 120
        assert report["holds"]

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlll.errors import ConditionViolated
from qlll.instances import (
    Diagonal,
    ProjectorSpec,
    build_instance,
    generate_classical_instance,
    random_instance,
    rotate_instance,
)
from qlll.solver import (
    SolverConfig,
    compute_eta,
    compute_threshold,
    derive_params,
    derive_trial_seed,
    execute_fix_loop,
    monotonicity_probe,
    neighborhood_orders,
    record_to_dict,
    rle_decode,
    rle_encode,
    run,
    verify_satisfaction,
)
from qlll.backends import init_fully_mixed


def diag(support, *patterns):
    return ProjectorSpec(tuple(support), Diagonal(frozenset(patterns)))


class TestEta:
    def test_k3_g2_r1(self):
        # log2(2e) = 1 + log2 e; oracle value via 50-digit arithmetic
        assert compute_eta(3, 2, 1, 0.5) == pytest.approx(
            3.5886994495620898, abs=1e-12)

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated):
            compute_eta(2, 2, 1, 0.5)

    def test_k4_g3_r1(self):
        assert compute_eta(4, 3, 1, 0.25) == pytest.approx(
            4.1137769573733033, abs=1e-12)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            compute_eta(3, 2, 1, 1.5)


class TestThreshold:
    def test_frozen_values(self):
        eta = compute_eta(3, 2, 1, 0.5)
        assert compute_threshold(5, eta) == 179   # 4*5*eta*log2(eta+2) ~ 178.18
        assert compute_threshold(2, eta) == 72    # ~ 71.27
        eta2 = compute_eta(4, 3, 1, 0.25)
        assert compute_threshold(10, eta2) == 430  # ~ 429.82

    def test_small_m_warns(self):
        with pytest.warns(UserWarning):
            compute_threshold(1, 3.0)

    def test_stock_size(self):
        inst = generate_classical_instance(9, 3, 3, 2, seed=0)
        derived = derive_params(inst, SolverConfig(delta=0.5))
        assert derived.stock_size_N == derived.threshold_T * 3


class TestRun:
    def test_empty_instance(self):
        inst = build_instance(2, [])
        rec = run(inst, SolverConfig(seed=0, backend="trajectory"))
        assert rec.result == "Success"
        assert rec.outcome_string == ()
        assert rec.fix_calls == 0

    def test_all_zero_projectors(self):
        projs = [ProjectorSpec((i,), Diagonal(frozenset())) for i in range(3)]
        inst = build_instance(3, projs)
        rec = run(inst, SolverConfig(seed=1, backend="trajectory",
                                     threshold_override=5))
        assert rec.result == "Success"
        assert rec.outcome_string == (0, 0, 0)
        assert rec.fix_calls == 3

    def test_forced_failure_aborts_at_threshold(self):
        # a clause forbidding every pattern is always violated
        inst = build_instance(1, [diag([0], "0", "1")])
        rec = run(inst, SolverConfig(seed=0, backend="diagonal",
                                     threshold_override=3))
        assert rec.result == "Failure"
        assert rec.failures_t == 3
        assert rec.outcome_string.count(1) == 3

    def test_reproducibility(self):
        inst = generate_classical_instance(12, 3, 6, 2, seed=4)
        config = SolverConfig(delta=0.25, seed=99, backend="diagonal")
        a, b = run(inst, config), run(inst, config)
        for field in ("outcome_string", "failures_t", "fix_calls", "result",
                      "final_expectations", "max_energy"):
            assert getattr(a, field) == getattr(b, field)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_call_count_bound(self, seed):
        inst = generate_classical_instance(12, 3, 6, 2, seed=11)
        rec = run(inst, SolverConfig(delta=0.25, seed=seed, backend="diagonal"))
        g = inst.params.g
        assert rec.fix_calls == len(rec.outcome_string)
        assert rec.fix_calls <= inst.m + g * rec.failures_t
        derived = derive_params(inst, SolverConfig(delta=0.25, seed=seed))
        if rec.result == "Success":
            assert rec.failures_t < derived.threshold_T
        else:
            assert rec.failures_t == derived.threshold_T

    def test_success_implies_satisfaction_trajectory(self):
        inst = rotate_instance(generate_classical_instance(9, 3, 4, 2, seed=3),
                               seed=6)
        for seed in range(10):
            rec = run(inst, SolverConfig(delta=0.5, seed=seed,
                                         backend="trajectory"))
            if rec.result == "Success":
                assert rec.max_energy <= 1e-8

    def test_random_traversal_runs(self):
        inst = generate_classical_instance(12, 3, 6, 2, seed=4)
        rec = run(inst, SolverConfig(delta=0.25, seed=5, backend="diagonal",
                                     traversal="random"))
        assert rec.result in ("Success", "Failure")

    def test_random_traversal_shuffles(self):
        # every order is a permutation of the ascending neighborhood, and a
        # seeded shuffle moves some neighborhood of at least 3 projectors
        inst = generate_classical_instance(12, 3, 8, 3, seed=2)
        orders = neighborhood_orders(inst, "random", np.random.default_rng(0))
        assert [sorted(o) for o in orders] == [list(nb) for nb in inst.neighborhood]
        assert any(list(o) != list(nb) for o, nb in zip(orders, inst.neighborhood)
                   if len(nb) >= 3)

    def test_enumeration_backend_rejected(self):
        inst = generate_classical_instance(6, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            run(inst, SolverConfig(backend="density_enumerate"))

    def test_condition_violated_without_override(self):
        inst = build_instance(2, [diag([0, 1], "00"), diag([0, 1], "01"),
                                  diag([0, 1], "10")])  # g=3, k=2: fails
        with pytest.raises(ConditionViolated):
            run(inst, SolverConfig(seed=0, backend="diagonal"))
        rec = run(inst, SolverConfig(seed=0, backend="diagonal",
                                     threshold_override=50))
        assert rec.result in ("Success", "Failure")


class TestWalker:
    def _walk(self, inst, threshold, seed):
        rng = np.random.default_rng(seed)
        state = init_fully_mixed("diagonal", inst.n, rng=rng)
        events = []
        execute_fix_loop(inst, inst.neighborhood, threshold, state,
                         lambda *leaf: events.append(("leaf",) + leaf),
                         on_return=lambda j: events.append(("return", j)))
        return events

    def test_every_completed_call_returns_once(self):
        inst = generate_classical_instance(12, 3, 8, 3, seed=2)
        for seed in range(20):
            *returns, leaf = self._walk(inst, 10 ** 6, seed)
            assert leaf[0] == "leaf" and leaf[5] == "Success"
            assert all(event[0] == "return" for event in returns)
            assert len(returns) == len(leaf[1])  # one return per measurement

    def test_no_return_after_abort(self):
        # the one clause forbids every value, so FIX(0) recurses until t == 3
        inst = build_instance(2, [diag([0, 1], "00", "01", "10", "11")])
        events = self._walk(inst, 3, 0)
        assert [e[0] for e in events] == ["leaf"]
        assert events[0][1] == (1, 1, 1) and events[0][4:] == (3, "Failure")


class TestSatisfaction:
    def test_commuting_success_state(self):
        inst = generate_classical_instance(9, 3, 3, 2, seed=0)
        config = SolverConfig(delta=0.25, seed=7, backend="diagonal")
        rec = run(inst, config)
        assert rec.result == "Success"
        assert all(e <= 1e-8 for e in rec.final_expectations)

    def test_trivial_zero_energy(self):
        state = init_fully_mixed("diagonal", 3, seed=0)
        state.bits[:] = 0
        inst = build_instance(3, [diag([0, 1, 2], "111")])
        report = verify_satisfaction(inst, state)
        assert report.max_energy == 0.0
        assert report.satisfied
        assert not report.no_guarantee

    def test_small_energy_is_not_satisfied(self):
        # energy 1e-6 is a violation, far above the 1e-8 tolerance
        inst = build_instance(1, [diag([0], "1")])
        state = init_fully_mixed("trajectory", 1, seed=0)
        state.psi = np.array([np.sqrt(1 - 1e-6), np.sqrt(1e-6)], dtype=complex)
        report = verify_satisfaction(inst, state)
        assert report.max_energy == pytest.approx(1e-6, rel=1e-9)
        assert not report.satisfied

    def test_noncommuting_flagged(self):
        inst = random_instance(3, 2, 2, seed=1, commuting=False)
        state = init_fully_mixed("trajectory", 3, seed=0)
        report = verify_satisfaction(inst, state)
        assert report.no_guarantee


class TestMonotonicity:
    def test_single_projector(self):
        inst = rotate_instance(build_instance(2, [diag([0, 1], "11")]), seed=2)
        with pytest.warns(UserWarning, match="m >= 2"):
            report = monotonicity_probe(inst, SolverConfig(delta=0.5, seed=1),
                                        runs=20)
        assert report.holds

    def test_disjoint_supports(self):
        inst = generate_classical_instance(9, 3, 3, 1, seed=1)
        rot = rotate_instance(inst, seed=4)
        report = monotonicity_probe(rot, SolverConfig(delta=0.5, seed=2),
                                    runs=20)
        assert report.holds

    def test_overlapping_rotated(self):
        rot = rotate_instance(generate_classical_instance(9, 3, 4, 2, seed=3),
                              seed=11)
        report = monotonicity_probe(rot, SolverConfig(delta=0.5, seed=42),
                                    runs=30)
        assert report.holds, report.violations


class TestRecords:
    @given(st.lists(st.integers(0, 1), max_size=40))
    def test_rle_roundtrip(self, bits):
        assert rle_decode(rle_encode(tuple(bits))) == tuple(bits)

    def test_record_dict_fields(self):
        inst = generate_classical_instance(9, 3, 3, 2, seed=0)
        rec = run(inst, SolverConfig(delta=0.25, seed=3, backend="diagonal"))
        line = record_to_dict(rec, trial=7)
        assert set(line) == {"trial", "seed", "result", "t", "fix_calls",
                             "outcome_rle", "max_energy", "elapsed_ns"}
        assert rle_decode(line["outcome_rle"]) == rec.outcome_string

    def test_trial_seed_stability(self):
        assert derive_trial_seed(5, 0) == derive_trial_seed(5, 0)
        assert derive_trial_seed(5, 0) != derive_trial_seed(5, 1)

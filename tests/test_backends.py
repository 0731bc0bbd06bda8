import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlll.backends import (
    DensityState,
    DiagonalDistribution,
    DiagonalState,
    TrajectoryState,
    init_fully_mixed,
    shannon_entropy,
    von_neumann_entropy,
)
from qlll.errors import DimensionTooLarge, NotNormalized
from qlll.instances import Diagonal, Explicit, ProjectorSpec, Rotated


def diag(support, *patterns):
    return ProjectorSpec(tuple(support), Diagonal(frozenset(patterns)))


def basis_trajectory(bits):
    state = TrajectoryState(len(bits), np.random.default_rng(0))
    psi = np.zeros((2,) * len(bits), dtype=complex)
    psi[tuple(bits)] = 1.0
    state.psi = psi
    return state


class TestEntropies:
    def test_shannon_trivial(self):
        assert shannon_entropy([1.0]) == 0.0
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)

    def test_shannon_not_normalized(self):
        with pytest.raises(NotNormalized):
            shannon_entropy([0.5, 0.1])

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_shannon_bounds(self, weights):
        p = np.array(weights) / sum(weights)
        h = shannon_entropy(p)
        assert -1e-9 <= h <= math.log2(len(p)) + 1e-9

    def test_von_neumann_pure(self):
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        assert von_neumann_entropy(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-9)

    def test_von_neumann_maximally_mixed(self):
        for n in (1, 2, 3):
            assert von_neumann_entropy(DensityState(n)) == pytest.approx(n)

    def test_von_neumann_from_eigenvalues(self):
        rho = np.diag([0.5, 0.25, 0.25, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.5)


class TestInitFullyMixed:
    def test_density_is_uniform_diagonal(self):
        state = init_fully_mixed("density", 2)
        np.testing.assert_allclose(state.rho, np.eye(4) / 4, atol=0)

    def test_trajectory_basis_state_frequencies(self):
        # chi-square style check against uniform over the 8 basis states
        rng = np.random.default_rng(123)
        samples = 100_000
        counts = np.zeros(8, dtype=int)
        for _ in range(samples):
            state = TrajectoryState(3, rng)
            idx = int(np.argmax(np.abs(state.psi.reshape(-1))))
            counts[idx] += 1
        expected = samples / 8
        sigma = math.sqrt(samples * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            TrajectoryState(15, np.random.default_rng(0))
        with pytest.raises(DimensionTooLarge):
            DensityState(9)


class TestMeasurement:
    def test_unviolated_basis_state(self):
        state = basis_trajectory((0, 0))
        out = state.measure_projector(diag([0, 1], "11"))
        assert out.violated == 0
        assert out.probability == pytest.approx(1.0)
        np.testing.assert_allclose(state.psi.reshape(-1), [1, 0, 0, 0], atol=1e-12)

    def test_density_branches_half_half(self):
        state = DensityState(1)
        branches = state.measure_branches(diag([0], "1"))
        assert len(branches) == 2
        probs = sorted(out.probability for out, _ in branches)
        assert probs == pytest.approx([0.5, 0.5])
        assert sum(out.probability for out, _ in branches) == pytest.approx(1.0)

    def test_diagonal_deterministic(self):
        state = DiagonalState(3, np.random.default_rng(0))
        state.bits[:] = [1, 0, 1]
        out = state.measure_projector(diag([0, 1, 2], "101"))
        assert out.violated == 1
        assert out.probability == 1.0

    def test_sampling_states_continue_in_place(self):
        # a sampling state's one branch is the draw of measure_projector,
        # and the walk continues in the same object
        spec = diag([0, 1], "10")
        bits = DiagonalState(2, np.random.default_rng(0))
        bits.bits[:] = [1, 0]
        for state in (basis_trajectory((1, 0)), bits):
            ((out, post),) = state.measure_branches(spec)
            assert post is state
            assert (out.violated, out.probability) == (1, pytest.approx(1.0))
            assert state.measure_projector(spec) == out

    def test_branch_states_renormalized(self):
        state = DensityState(2)
        for out, post in state.measure_branches(diag([0, 1], "11")):
            assert np.trace(post.rho) == pytest.approx(1.0)

    def test_violated_branch_rank_bounded(self):
        # a violated rank-r outcome confines the support to an r-dim subspace
        state = DensityState(3)
        spec = diag([0, 2], "10")
        (out, post), _ = state.measure_branches(spec)
        assert out.violated == 1
        evals = np.linalg.eigvalsh(post.reduced(spec.support))
        assert np.sum(evals > 1e-9) <= 1


class TestReplacement:
    def test_rest_untouched_product_state(self):
        rng = np.random.default_rng(5)
        state = TrajectoryState(2, rng)
        before = state.psi.sum(axis=0)  # qubit-1 amplitudes up to the basis bit
        state.replace_qubits([0])
        after = state.psi.sum(axis=0)
        np.testing.assert_allclose(np.abs(after), np.abs(before), atol=1e-9)

    def test_bell_state_density_replace(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        state = DensityState(2, rho=np.outer(bell, bell.conj()))
        state.replace_qubits([0])
        np.testing.assert_allclose(state.rho, np.eye(4) / 4, atol=1e-12)

    def test_density_reduced_state_preserved(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        state = DensityState(3, rho=rho)
        before = state.reduced([1, 2])
        state.replace_qubits([0])
        np.testing.assert_allclose(state.reduced([1, 2]), before, atol=1e-9)
        np.testing.assert_allclose(state.reduced([0]), np.eye(2) / 2, atol=1e-9)

    def test_trajectory_ensemble_matches_density(self):
        # qubit 0 of a Bell pair replaced: ensemble must look fully mixed
        rng = np.random.default_rng(17)
        bell = np.zeros((2, 2), dtype=complex)
        bell[0, 0] = bell[1, 1] = 1 / math.sqrt(2)
        counts = np.zeros((2, 2))
        samples = 20_000
        for _ in range(samples):
            state = TrajectoryState(2, rng)
            state.psi = bell.copy()
            state.replace_qubits([0])
            bits = state.bits()
            counts[bits] += 1
        np.testing.assert_allclose(counts / samples, np.full((2, 2), 0.25), atol=0.02)

    def test_swap_qubits(self):
        state = DensityState(2, rho=np.diag([0.6, 0.3, 0.1, 0.0]).astype(complex))
        state.swap_qubits([(0, 1)])
        # basis indices 01 and 10 exchange
        np.testing.assert_allclose(np.diag(state.rho), [0.6, 0.1, 0.3, 0.0],
                                   atol=1e-12)

    def test_diagonal_distribution_replace(self):
        dist = DiagonalDistribution(2, probs=np.array([[0.9, 0.1], [0.0, 0.0]]))
        dist.replace_qubits([0])
        np.testing.assert_allclose(dist.probs, [[0.45, 0.05], [0.45, 0.05]], atol=1e-12)


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 ** d,) * 2) + 1j * rng.standard_normal((2 ** d,) * 2)
    rho = z @ z.conj().T
    return rho / np.trace(rho)


class TestStock:
    """DensityState(d, stock=s) keeps its last s qubits as stock."""

    @pytest.mark.parametrize("supports", [[(0, 1), (2,)], [(2, 0), (1,)],
                                          [(1,), (0,), (2,)]])
    def test_replace_swaps_in_next_stock_qubits(self, supports):
        rho = random_density(6, seed=1)
        state = DensityState(6, rho=rho, stock=3)
        swapped = DensityState(6, rho=rho)
        first = 3
        for support in supports:
            state.replace_qubits(support)
            swapped.swap_qubits([(q, first + i) for i, q in enumerate(support)])
            first += len(support)
            assert state.stock_used == first - 3
            np.testing.assert_array_equal(state.rho, swapped.rho)

    @pytest.mark.parametrize("stock", [2, 3])
    def test_out_of_stock_replace_is_partial_trace(self, stock):
        # the first replacement takes two stock qubits, leaving too few for
        # the second, which must match a state without stock
        state = DensityState(5, rho=random_density(5, seed=2), stock=stock)
        state.replace_qubits((0, 1))
        assert state.stock_used == 2
        plain = DensityState(5, rho=state.rho)
        state.replace_qubits((2, 1))
        plain.replace_qubits((2, 1))
        assert state.stock_used == 2
        np.testing.assert_array_equal(state.rho, plain.rho)


class TestExpectation:
    def test_zero_projector(self):
        state = basis_trajectory((0,))
        assert state.expectation(ProjectorSpec((0,), Diagonal(frozenset()))) == 0.0

    def test_identity_on_support(self):
        state = basis_trajectory((0, 1))
        spec = ProjectorSpec((0,), Explicit(np.eye(2)))
        assert state.expectation(spec) == pytest.approx(1.0)

    def test_plus_state_half(self):
        state = basis_trajectory((0,))
        state.psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        assert state.expectation(diag([0], "1")) == pytest.approx(0.5)

    def test_density_matches_trajectory(self):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        traj = basis_trajectory((0, 0, 0))
        traj.psi = psi.reshape(2, 2, 2)
        dens = DensityState(3, rho=np.outer(psi, psi.conj()))
        spec = diag([0, 2], "01", "10")
        assert traj.expectation(spec) == pytest.approx(dens.expectation(spec))


def string_join_expectation(bits, spec):
    """The diagonal lookup as first written: join the support's bits into a
    string and test it against the forbidden strings."""
    word = "".join(str(int(bits[q])) for q in spec.support)
    return 1.0 if word in spec.body.forbidden else 0.0


@st.composite
def clause_and_bits(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    support = draw(st.permutations(range(n)))[:k]
    patterns = draw(st.sets(st.text("01", min_size=k, max_size=k),
                            max_size=2 ** k))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return ProjectorSpec(tuple(support), Diagonal(frozenset(patterns))), bits


class TestCompiledClause:
    @given(clause_and_bits())
    @settings(max_examples=300, deadline=None)
    def test_matches_string_join(self, case):
        spec, bits = case
        state = DiagonalState(len(bits), np.random.default_rng(0))
        state.bits[:] = bits
        want = string_join_expectation(state.bits, spec)
        assert state.expectation(spec) == want
        assert state.measure_projector(spec).violated == int(want)

    @given(clause_and_bits())
    @settings(max_examples=100, deadline=None)
    def test_distribution_mask_matches_string_join(self, case):
        spec, bits = case
        # a point mass on `bits` has expectation 1 exactly when it violates
        probs = np.zeros((2,) * len(bits))
        probs[tuple(bits)] = 1.0
        dist = DiagonalDistribution(len(bits), probs)
        assert dist.expectation(spec) == string_join_expectation(bits, spec)

    def test_empty_support(self):
        state = DiagonalState(2, np.random.default_rng(0))
        assert state.expectation(ProjectorSpec((), Diagonal(frozenset()))) == 0.0
        assert state.expectation(ProjectorSpec((), Diagonal(frozenset({""})))) == 1.0

    def test_replacing_bits_rebuilds_lookup(self):
        state = DiagonalState(3, np.random.default_rng(0))
        spec = diag([2, 0], "10")
        state.bits = np.array([0, 1, 1])
        assert state.bits.dtype == np.int8
        assert state.expectation(spec) == 1.0
        state.bits[0] = 1
        assert state.expectation(spec) == 0.0
        clone = state.copy()
        clone.replace_qubits([0, 1, 2])
        assert list(state.bits) == [1, 1, 1]

    def test_non_diagonal_body_raises(self):
        state = DiagonalState(2, np.random.default_rng(0))
        rotated = ProjectorSpec((0,), Rotated(Diagonal(frozenset({"1"})),
                                               (np.eye(2),)))
        for spec in (rotated, ProjectorSpec((0,), Explicit(np.eye(2)))):
            with pytest.raises(TypeError):
                state.expectation(spec)
            with pytest.raises(TypeError):
                DiagonalDistribution(2).expectation(spec)

    @pytest.mark.parametrize("support", [(4,), (1, 3), (0, 2, 5)])
    def test_used_spec_pickles(self, support):
        spec = diag(support, "1" * len(support))
        state = DiagonalState(6, np.random.default_rng(0))
        state.bits[:] = 1
        assert state.expectation(spec) == 1.0
        back = pickle.loads(pickle.dumps(spec))
        assert back.clause.forbidden == spec.clause.forbidden
        assert state.expectation(back) == 1.0
        state.bits[support[0]] = 0
        assert state.expectation(back) == 0.0

import functools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlll.backends import (
    BRANCH_PRUNE,
    ENUMERATING,
    SAMPLING,
    DensityState,
    DiagonalDistribution,
    DiagonalState,
    Outcome,
    TrajectoryState,
    _apply_local,
    init_fully_mixed,
    shannon_entropy,
    von_neumann_entropy,
)
from qlll.errors import DimensionTooLarge, NotNormalized
from qlll.instances import (Diagonal, Explicit, ProjectorSpec, Rotated,
                            generate_classical_instance, haar_unitary_2x2,
                            rotate_instance)
from qlll.solver import execute_fix_loop, neighborhood_orders
from qlll.verifiers import enumerate_outcome_distribution


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
            assert von_neumann_entropy(DensityState(n).rho) == pytest.approx(n)

    def test_von_neumann_from_eigenvalues(self):
        rho = np.diag([0.5, 0.25, 0.25, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.5)


class TestBackendTables:
    def test_sampling_names_build_their_classes(self):
        for name, cls in SAMPLING.items():
            assert type(init_fully_mixed(name, 3, seed=0)) is cls
        with pytest.raises(ValueError, match="^unknown backend 'density'$"):
            init_fully_mixed("density", 3, seed=0)

    def test_enumerating_names_give_a_law(self):
        inst = generate_classical_instance(6, 3, 2, 2, seed=0)
        for name in ENUMERATING:
            law = enumerate_outcome_distribution(inst, 2, backend=name)
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="^unknown enumeration backend "
                                             "'trajectory'$"):
            enumerate_outcome_distribution(inst, 2, backend="trajectory")


class TestInitFullyMixed:
    def test_density_is_uniform_diagonal(self):
        state = DensityState(2)
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
        # the trajectory cap bounds one factor, not n: 15 qubits construct
        # and measure while every factor stays within 14
        traj = TrajectoryState(15, np.random.default_rng(0))
        for support in (range(8), range(8, 15)):
            traj.measure_projector(diag(support, "0" * len(support)))
        assert sorted(len(labels) for _, labels in traj._factors) == [7, 8]
        # a measurement that would merge both factors into 15 qubits, and
        # psi on 15 qubits, raise before they allocate 16 * 2^15 bytes
        merge = diag((7, 8), "00")
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge, match="factor of 15 qubits"):
                traj.measure_projector(merge)
            with pytest.raises(DimensionTooLarge, match="factor of 15 qubits"):
                traj.psi
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 15 // 64
        assert sorted(len(labels) for _, labels in traj._factors) == [7, 8]
        # the density cap bounds one factor, not the register: 9 qubits
        # construct and measure while every factor stays within 8
        state = DensityState(9)
        for support in ((0, 1, 2, 3), (4, 5, 6, 7, 8)):
            (_, state), _ = state.measure_branches(diag(support, "0" * len(support)))
        assert sorted(len(labels) for _, labels in state._factors) == [4, 5]
        # a measurement whose factor would hold 9 qubits: two merged
        # factors, or 9 fresh qubits
        for measured, spec in ((state, diag((3, 4), "00")),
                               (DensityState(9), diag(range(9), "0" * 9))):
            with pytest.raises(DimensionTooLarge, match="9 qubits"):
                measured.measure_branches(spec)
        # reads above the cap raise before they allocate: a 9-qubit merge
        # takes 16 * 4^9 bytes (4 MB), and the rho of a 29-qubit leaf with
        # one 3-qubit factor, criterion 1's register at T = 3, 16 * 4^29
        leaf = DensityState(29)
        (_, leaf), _ = leaf.measure_branches(diag((0, 1, 2), "000"))
        tracemalloc.start()
        try:
            for read in (lambda: state.rho, lambda: state.reduced((3, 4)),
                         lambda: leaf.rho, lambda: leaf.reduced(range(10))):
                with pytest.raises(DimensionTooLarge):
                    read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4 ** 8 // 64


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

    def test_swap_qubits_overlapping_pairs(self):
        # pairs apply in order: (0, 1) then (1, 2) sends qubit 0 -> 2,
        # 1 -> 0 and 2 -> 1
        state = DensityState(3, rho=np.diag(np.arange(8.0)) / 28)
        state.swap_qubits([(0, 1), (1, 2)])
        np.testing.assert_array_equal(np.diag(state.rho),
                                      np.array([0, 4, 1, 5, 2, 6, 3, 7]) / 28)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diagonal_block_draws_match_scalar_draws(self, seed):
        # the fresh bits come in blocks of 64, but must be the values of one
        # scalar draw per replaced qubit from a same-seeded generator
        n = 7
        state = DiagonalState(n, np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        want = [int(b) for b in ref.integers(0, 2, size=n)]
        assert state.bits.tolist() == want
        pick = np.random.default_rng(100 + seed)
        refills = straddles = 0
        for step in range(120):
            support = pick.permutation(n)[:1 + step % 4].tolist()
            left = len(state._fresh)
            refills += left < len(support)
            straddles += 0 < left < len(support)
            state.replace_qubits(support)
            for q in support:
                want[q] = int(ref.integers(0, 2))
            assert state.bits.tolist() == want, step
        assert refills >= 3 and straddles >= 1

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


# ---------------------------------------------------------------------------
# a dense reference for the density register: full 2^d x 2^d operators built
# from Kronecker products, and partial traces by einsum

def embed(op, support, d):
    """The d-qubit operator acting as `op` on `support`, support[0] being the
    most significant bit of op's index."""
    k = len(support)
    full = np.zeros((2 ** d, 2 ** d), dtype=complex)
    for a in range(2 ** k):
        for b in range(2 ** k):
            if op[a, b] == 0:
                continue
            factors = [np.eye(2)] * d
            for j, q in enumerate(support):
                unit = np.zeros((2, 2))
                unit[(a >> (k - 1 - j)) & 1, (b >> (k - 1 - j)) & 1] = 1.0
                factors[q] = unit
            full += op[a, b] * functools.reduce(np.kron, factors)
    return full


def partial_trace(rho, keep, d):
    """The reduced matrix on `keep`, in that order."""
    rows = [chr(ord("a") + q) for q in range(d)]
    cols = [chr(ord("A") + q) if q in keep else rows[q] for q in range(d)]
    out = "".join(rows[q] for q in keep) + "".join(cols[q] for q in keep)
    reduced = np.einsum("".join(rows + cols) + "->" + out,
                        rho.reshape((2,) * (2 * d)))
    return reduced.reshape(2 ** len(keep), 2 ** len(keep))


def depolarize(rho, support, d):
    """tr_support(rho) with the support maximally mixed: the average of
    E rho E^dagger over the matrix units E = |a><b| on the support."""
    dim = 2 ** len(support)
    out = np.zeros_like(rho)
    for unit in np.eye(dim * dim).reshape(dim * dim, dim, dim):
        e = embed(unit, support, d)
        out += e @ rho @ e.conj().T
    return out / dim


SWAP = np.eye(4)[[0, 2, 1, 3]]


def random_body(rng, k, explicit):
    """A rank-r projector on k qubits: a product-rotated diagonal body, or an
    explicit (generally entangled) one."""
    rank = int(rng.integers(1, 2 ** k))
    if explicit:
        z = rng.standard_normal((2 ** k,) * 2) + 1j * rng.standard_normal((2 ** k,) * 2)
        basis = np.linalg.qr(z)[0][:, :rank]
        return Explicit(basis @ basis.conj().T)
    patterns = rng.choice(2 ** k, size=rank, replace=False)
    inner = Diagonal(frozenset(format(int(p), f"0{k}b") for p in patterns))
    return Rotated(inner, tuple(haar_unitary_2x2(rng) for _ in range(k)))


@st.composite
def register_walks(draw):
    """A register size, a stock size, a seed for the initial state and the
    bodies, and a sequence of register operations."""
    d = draw(st.integers(1, 6))
    stock = draw(st.integers(0, d - 1))
    support = st.integers(1, min(3, d)).flatmap(
        lambda k: st.permutations(range(d)).map(lambda p: tuple(p[:k])))
    step = st.one_of(
        st.tuples(st.just("measure"), support, st.booleans(), st.integers(0, 1)),
        st.tuples(st.just("replace"), support),
        st.tuples(st.just("swap"), st.lists(
            st.permutations(range(d)).map(lambda p: tuple(p[:2])),
            min_size=1, max_size=3) if d > 1 else st.just([])),
        st.tuples(st.just("rho")))
    steps = draw(st.lists(step, min_size=1, max_size=8))
    return d, stock, draw(st.integers(0, 2 ** 32 - 1)), steps


def follow_walk(state, ref, d, stock, rng, steps):
    """Run a register walk on `state` and on its dense reference `ref`,
    checking every branch probability, reduced(), expectation() and rho,
    and after every step each stored factor's plain matrix, to 1e-12 along
    the way."""
    used = 0
    for step in steps:
        kind = step[0]
        if kind == "measure":
            _, support, explicit, pick = step
            spec = ProjectorSpec(support, random_body(rng, len(support), explicit))
            mat = spec.materialize()
            want = []
            for violated, op in ((1, mat), (0, np.eye(len(mat)) - mat)):
                full = embed(op, support, d)
                post = full @ ref @ full.conj().T
                p = float(np.real(np.trace(post)))
                if p >= BRANCH_PRUNE:
                    want.append((violated, p, post / p))
            branches = state.measure_branches(spec)
            assert [out.violated for out, _ in branches] == [w[0] for w in want]
            for (out, _), (_, p, _) in zip(branches, want):
                assert out.probability == pytest.approx(p, abs=1e-12)
            pick %= len(want)
            state, ref = branches[pick][1], want[pick][2]
        elif kind == "replace":
            support = step[1]
            if used + len(support) <= stock:
                first = d - stock + used
                for i, q in enumerate(support):
                    if q != first + i:
                        w = embed(SWAP, (q, first + i), d)
                        ref = w @ ref @ w.conj().T
                used += len(support)
            else:
                ref = depolarize(ref, support, d)
            state.replace_qubits(support)
            assert state.stock_used == used
        elif kind == "swap":
            for a, b in step[1]:
                w = embed(SWAP, (a, b), d)
                ref = w @ ref @ w.conj().T
            state.swap_qubits(step[1])
        else:
            np.testing.assert_allclose(state.rho, ref, rtol=0, atol=1e-12)
        probe = tuple(rng.permutation(d)[:int(rng.integers(1, min(3, d) + 1))])
        np.testing.assert_allclose(state.reduced(probe),
                                   partial_trace(ref, probe, d),
                                   rtol=0, atol=1e-12)
        spec = ProjectorSpec(probe, random_body(rng, len(probe), True))
        want = float(np.real(np.trace(embed(spec.materialize(), probe, d) @ ref)))
        assert state.expectation(spec) == pytest.approx(want, abs=1e-12)
        # a factor is the reduced state on its labels, rows then columns
        for matrix, labels in state._factors:
            side = 2 ** len(labels)
            np.testing.assert_allclose(matrix.reshape(side, side),
                                       partial_trace(ref, labels, d),
                                       rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.rho, ref, rtol=0, atol=1e-12)


class TestLayout:
    """Every factor, a plain matrix on its labels, and every read against
    the dense reference."""

    @given(register_walks())
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_reference(self, walk):
        d, stock, seed, steps = walk
        ref = random_density(d, seed)
        follow_walk(DensityState(d, rho=ref, stock=stock), ref, d, stock,
                    np.random.default_rng(seed), steps)

    @given(register_walks())
    @settings(max_examples=100, deadline=None)
    def test_unstored_qubits_match_dense_reference(self, walk):
        # from the maximally mixed state every qubit starts unstored; the
        # walk's measurements, out-of-stock replacements and relabels then
        # mix stored and unstored qubits in one register
        d, stock, seed, steps = walk
        follow_walk(DensityState(d, stock=stock),
                    np.eye(2 ** d, dtype=complex) / 2 ** d,
                    d, stock, np.random.default_rng(seed), steps)


class TestLaziness:
    def test_fresh_qubits_are_never_stored(self):
        # one register of 4^8 complex entries takes 16 * 4^8 bytes (1 MB);
        # measuring and replacing 2 of 8 fresh qubits needs a few hundred
        spec = ProjectorSpec((5, 2), random_body(np.random.default_rng(0), 2, True))
        spec.materialize()
        tracemalloc.start()
        try:
            for _, branch in DensityState(8).measure_branches(spec):
                branch.replace_qubits(spec.support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4 ** 8 // 64

    def test_reads_leave_unstored_qubits_unstored(self):
        # 6 of 8 qubits stored (4^6 entries, 64 KB); reading the 2 unstored
        # ones must neither store them nor rearrange or merge any factor
        state = DensityState(8, rho=random_density(8, seed=5))
        state.replace_qubits((6, 7))
        factors = state._factors
        (register, labels), = factors
        assert register.size == 4 ** 6 and sorted(labels) == list(range(6))
        spec = ProjectorSpec((7, 6), random_body(np.random.default_rng(5), 2, True))
        spec.materialize()
        tracemalloc.start()
        try:
            np.testing.assert_allclose(state.reduced((7, 6)), np.eye(4) / 4,
                                       rtol=0, atol=1e-15)
            assert state.expectation(spec) == pytest.approx(
                spec.rank() / 4, abs=1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(state._factors) == len(factors)
        for (now, now_labels), (then, then_labels) in zip(state._factors, factors):
            assert now is then and now_labels == then_labels
        assert peak < 16 * 4 ** 8 // 4


class TestFactors:
    """The density state as a product of factors: a measurement touches only
    the factor holding its support, and a support spanning two merges them."""

    @staticmethod
    def measure(state, ref, d, support, seed, pick=0):
        """Measure a random explicit body on `support` in `state` and in its
        dense reference; returns the picked branch of each."""
        spec = ProjectorSpec(support, random_body(np.random.default_rng(seed),
                                                  len(support), True))
        mat = spec.materialize()
        branches = state.measure_branches(spec)
        assert len(branches) == 2
        (out, post), op = branches[pick], (mat, np.eye(len(mat)) - mat)[pick]
        full = embed(op, support, d)
        want = full @ ref @ full.conj().T
        assert out.probability == pytest.approx(np.trace(want).real, abs=1e-12)
        return post, want / np.trace(want).real

    @staticmethod
    def stored(state):
        return sorted(sorted(labels) for _, labels in state._factors)

    def test_disjoint_measurements_keep_two_small_factors(self):
        # four leaves each holding one register on the 4 measured qubits
        # would keep 4 * 16 * 4^4 bytes (16 KB) in registers alone; two
        # factors on 2 qubits take 16 * 4^2 bytes apiece, and the peak is
        # then mostly numpy's small fixed temporaries (about 10 KB)
        first, second = (
            ProjectorSpec(support, random_body(np.random.default_rng(seed), 2, True))
            for seed, support in ((1, (0, 1)), (2, (5, 4))))
        first.materialize(), second.materialize()
        tracemalloc.start()
        try:
            states = [state for _, branch in DensityState(8).measure_branches(first)
                      for _, state in branch.measure_branches(second)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == 4
        for state in states:
            assert self.stored(state) == [[0, 1], [4, 5]]
            assert [register.size for register, _ in state._factors] == [16, 16]
        assert peak < 4 * 16 * 4 ** 4

    def test_branch_shares_unmeasured_factors(self):
        d = 6
        state, ref = DensityState(d), np.eye(2 ** d, dtype=complex) / 2 ** d
        for seed, support in ((3, (0, 1)), (4, (3,)), (5, (5, 2))):
            state, ref = self.measure(state, ref, d, support, seed)
        assert self.stored(state) == [[0, 1], [2, 5], [3]]
        # supports inside one factor, across two, and on an unstored qubit,
        # with the number of factors each one touches
        for seed, (support, touched) in enumerate(
                (((3,), 1), ((1, 0), 1), ((3, 0), 2), ((4,), 0))):
            before = [(register, register.copy(), labels)
                      for register, labels in state._factors]
            for pick in (0, 1):
                branch, _ = self.measure(state, ref, d, support, seed, pick)
                labels = [q for _, named in branch._factors for q in named]
                assert len(labels) == len(set(labels))
                shared = [(register, named) for register, named in branch._factors
                          if not set(named) & set(support)]
                assert len(shared) == len(before) - touched
                for register, named in shared:
                    assert any(register is old and named == old_named
                               for old, _, old_named in before)
            for register, copy, _ in before:
                np.testing.assert_array_equal(register, copy)
            state, ref = self.measure(state, ref, d, support, seed)
            np.testing.assert_allclose(state.reduced((2, 4)),
                                       partial_trace(ref, (2, 4), d), rtol=0, atol=1e-12)

    def test_spanning_support_merges_factors(self):
        d = 6
        rng = np.random.default_rng(7)
        state, ref = DensityState(d), np.eye(2 ** d, dtype=complex) / 2 ** d
        for seed, support in ((8, (1, 0)), (9, (4, 3)), (10, (5,)), (12, (2,))):
            state, ref = self.measure(state, ref, d, support, seed)
        assert self.stored(state) == [[0, 1], [2], [3, 4], [5]]
        # a measurement across two factors merges them into one
        state, ref = self.measure(state, ref, d, (3, 0), 11, pick=1)
        assert self.stored(state) == [[0, 1, 3, 4], [2], [5]]
        # a read across factors merges them only for its result, here all
        # three at once: the factors stay the same arrays and labels
        factors = state._factors
        for probe in ((2, 4, 5), (5, 1), (0, 2)):
            np.testing.assert_allclose(state.reduced(probe), partial_trace(ref, probe, d),
                                       rtol=0, atol=1e-12)
            spec = ProjectorSpec(probe, random_body(rng, len(probe), True))
            want = np.trace(embed(spec.materialize(), probe, d) @ ref).real
            assert state.expectation(spec) == pytest.approx(want, abs=1e-12)
        assert len(state._factors) == len(factors)
        for (now, labels), (then, then_labels) in zip(state._factors, factors):
            assert now is then and labels == then_labels
        # rho, the one read that stores, caches the plain matrix
        np.testing.assert_allclose(state.rho, ref, rtol=0, atol=1e-12)
        assert self.stored(state) == [[0, 1, 2, 3, 4, 5]]


class TestMeasureStep:
    """measure_branches against the dense reference for supports of 1 to 4
    qubits: op on the support's rows, then op*/p on its columns."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("explicit", [True, False])
    def test_matches_dense_reference(self, k, explicit):
        d = 6
        rng = np.random.default_rng(10 * k + explicit)
        rho = random_density(d, seed=k)
        support = tuple(int(q) for q in rng.permutation(d)[:k])
        spec = ProjectorSpec(support, random_body(rng, k, explicit))
        mat = spec.materialize()
        # every support qubit stored, then support[::2] traced out at stock
        # 0: unstored support qubits interleaved with stored ones
        interleaved = DensityState(d, rho=rho)
        interleaved.replace_qubits(support[::2])
        for state, ref in ((DensityState(d, rho=rho), rho),
                           (interleaved, depolarize(rho, support[::2], d))):
            branches = state.measure_branches(spec)
            assert [out.violated for out, _ in branches] == [1, 0]
            for (out, post), op in zip(branches, (mat, np.eye(2 ** k) - mat)):
                full = embed(op, support, d)
                want = full @ ref @ full.conj().T
                p = float(np.real(np.trace(want)))
                assert out.probability == pytest.approx(p, abs=1e-12)
                np.testing.assert_allclose(post.rho, want / p, rtol=0, atol=1e-12)
                assert abs(np.trace(post.rho) - 1) < 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_repeated_violation_keeps_one_branch(self, k):
        rng = np.random.default_rng(k)
        support = tuple(int(q) for q in rng.permutation(6)[:k])
        spec = ProjectorSpec(support, random_body(rng, k, True))
        (out, violated), _ = DensityState(
            6, rho=random_density(6, seed=k)).measure_branches(spec)
        assert out.violated == 1
        (again, post), = violated.measure_branches(spec)
        assert again.violated == 1
        assert again.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post.rho, violated.rho, rtol=0, atol=1e-12)


def tensordot_apply(tensor, mat, axes):
    """The tensordot form of applying a local operator."""
    k = len(axes)
    op = mat.reshape((2,) * (2 * k))
    out = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, range(k), axes)


class TensordotTrajectory(TrajectoryState):
    """TrajectoryState with the tensordot kernels it had before the support
    block, on the factor each step works on: the Born weight read against
    the whole factor, renormalisation by division.  An oracle for the
    factors, to the last bit."""

    def _project(self, spec):
        others, tensor, labels = self._join(spec.support)
        axes = [labels.index(q) for q in spec.support]
        projected = tensordot_apply(tensor, spec.materialize(), axes)
        p = min(1.0, max(0.0, float(np.real(np.vdot(tensor, projected)))))
        return others, tensor, labels, projected, p

    def expectation(self, spec):
        return self._project(spec)[-1]

    def measure_projector(self, spec):
        others, tensor, labels, projected, p = self._project(spec)
        violated = int(self.rng.random() < p)
        kept = projected if violated else tensor - projected
        kept /= np.linalg.norm(kept)
        self._factors = others + ((kept, labels),)
        return Outcome(violated=violated, probability=p if violated else 1.0 - p)


def assert_same_factors(state, ref):
    """Equal factors on equal labels, bit for bit and in the same memory
    layout, and equal unstored bits and phase."""
    assert [labels for _, labels in state._factors] == \
        [labels for _, labels in ref._factors]
    for (tensor, _), (want, _) in zip(state._factors, ref._factors):
        np.testing.assert_array_equal(tensor, want)
        assert tensor.strides == want.strides
    assert state._bits == ref._bits and state._phase == ref._phase


class TestTrajectoryKernel:
    """The support-block kernel keeps every factor bit for bit, and in the
    same memory layout, since the norm sums in memory order and the golden
    runs store rounding-level energies."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_tensordot_kernel_bit_for_bit(self, seed):
        n = 10
        rng = np.random.default_rng(seed)
        state = TrajectoryState(n, np.random.default_rng(seed))
        ref = TensordotTrajectory(n, np.random.default_rng(seed))
        seen, unsorted, joined, strided = set(), False, False, False
        for step in range(40):
            k = 1 + step % 4
            support = tuple(int(q) for q in rng.permutation(n)[:k])
            unsorted |= list(support) != sorted(support)
            spec = ProjectorSpec(support, random_body(rng, k, step % 2 == 1))
            out, want = state.measure_projector(spec), ref.measure_projector(spec)
            # the weight sums in another order, so p may differ in its last bits
            assert out.violated == want.violated
            assert out.probability == pytest.approx(want.probability, rel=0, abs=1e-14)
            seen.add(out.violated)
            # the step factor held stored qubits beyond the support
            joined |= len(state._factors[-1][1]) > k
            strided |= any(not tensor.flags.c_contiguous
                           for tensor, _ in state._factors)
            assert_same_factors(state, ref)
            np.testing.assert_array_equal(state.psi, ref.psi)
            assert state.expectation(spec) == ref.expectation(spec)
            if step % 3 == 2:
                state.replace_qubits(support)
                ref.replace_qubits(support)
                # each replaced qubit is split out of its factor
                assert not any(set(support) & set(labels)
                               for _, labels in state._factors)
                assert_same_factors(state, ref)
                np.testing.assert_array_equal(state.psi, ref.psi)
            for other in rng.permutation(n)[:3]:
                probe = ProjectorSpec((int(other),), random_body(rng, 1, True))
                assert state.expectation(probe) == ref.expectation(probe)
        assert seen == {0, 1} and unsorted and joined and strided

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_apply_local_matches_tensordot(self, k):
        rng = np.random.default_rng(k)
        psi = rng.standard_normal((2,) * 10) + 1j * rng.standard_normal((2,) * 10)
        psi = np.flip(psi, axis=3)  # a strided, non-contiguous state
        axes = tuple(int(q) for q in rng.permutation(10)[:k])
        mat = ProjectorSpec(axes, random_body(rng, k, True)).materialize()
        got, want = _apply_local(psi, mat, axes), tensordot_apply(psi, mat, axes)
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides


def fix_walk(inst, seed, one_factor):
    """A seeded FIX walk at threshold 2 on the trajectory state, or on one
    factor on all n qubits: its leaf and psi at each FIX return and at the
    end."""
    rng = np.random.default_rng(seed)
    orders = neighborhood_orders(inst, "random", rng)
    state = TrajectoryState(inst.n, rng)
    if one_factor:
        state.psi = state.psi
    leaves, snapshots = [], []
    execute_fix_loop(inst, orders, 2, state, lambda *leaf: leaves.append(leaf),
                     on_return=lambda j: snapshots.append((j, state.psi)))
    (outcomes, _, _, t, result), = leaves
    return (outcomes, t, result), snapshots + [(None, state.psi)], state


class TestTrajectoryFactors:
    def test_factored_walk_matches_one_factor(self):
        # replacements split the one factor too, so the two states differ
        # only in what measurements join: the same outcomes, and psi equal
        # to rounding at every FIX return
        results, largest, phased = set(), 0, False
        for seed in range(8):
            inst = rotate_instance(
                generate_classical_instance(12, 3, 6, 2, seed=seed), seed=seed + 50)
            leaf, snapshots, state = fix_walk(inst, seed, one_factor=False)
            want_leaf, want_snapshots, _ = fix_walk(inst, seed, one_factor=True)
            assert leaf == want_leaf
            assert [j for j, _ in snapshots] == [j for j, _ in want_snapshots]
            for (_, got), (_, want) in zip(snapshots, want_snapshots):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            results.add((leaf[2], sum(leaf[0]) > 0))
            largest = max([largest] + [len(labels) for _, labels in state._factors])
            phased |= state._phase != 1
        # violations and replacements happened, aborts too, a replacement
        # emptied a factor with a phase, and no factor grew to the instance
        assert {("Success", True), ("Failure", True)} <= results
        assert phased and largest < 12


def measured(seed):
    """A 4-qubit state after one measurement on an unsorted support, so its
    factor's labels are out of qubit order and its matrix is a strided view,
    and the next projector to measure."""
    rng = np.random.default_rng(seed)
    state = DensityState(4, rho=random_density(4, seed))
    first = ProjectorSpec((2, 0), random_body(rng, 2, True))
    (_, state), *_ = state.measure_branches(first)
    return state, ProjectorSpec((3, 1, 2), random_body(rng, 3, True))


class TestRho:
    def test_reading_twice_gives_equal_arrays(self):
        state, _ = measured(1)
        first = state.rho.copy()
        np.testing.assert_array_equal(state.rho, first)

    def test_reading_leaves_later_branches_unchanged(self):
        read, spec = measured(2)
        unread, _ = measured(2)
        read.rho
        branches, unread_branches = (read.measure_branches(spec),
                                     unread.measure_branches(spec))
        assert len(branches) == len(unread_branches) == 2
        for (out, post), (out2, post2) in zip(branches, unread_branches):
            assert out.violated == out2.violated
            assert out.probability == pytest.approx(out2.probability, abs=1e-15)
            np.testing.assert_allclose(post.rho, post2.rho, rtol=0, atol=1e-15)

    def test_assigning_resets_the_layout(self):
        state, spec = measured(3)
        matrix = random_density(4, seed=4)
        state.rho = matrix
        np.testing.assert_array_equal(state.rho, matrix)
        # qubits are read by their plain labels again
        np.testing.assert_allclose(state.reduced((3, 0)),
                                   partial_trace(matrix, (3, 0), 4),
                                   rtol=0, atol=1e-15)
        full = embed(spec.materialize(), spec.support, 4)
        (out, _), *_ = state.measure_branches(spec)
        assert out.probability == pytest.approx(
            float(np.real(np.trace(full @ matrix))), abs=1e-12)


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

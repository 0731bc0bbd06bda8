"""Quantum state backends: trajectory (pure-state sampling), density matrix,
and diagonal-classical bits, plus entropy utilities.

Every state class exposes the two calls the FIX walker makes, with identical
ensemble semantics.  measure_branches(spec) -> [(Outcome, state)] measures
{P, 1-P}: the sampling states (TrajectoryState, DiagonalState) return the one
branch the Born rule draws, continuing in the same object (their draw is
measure_projector); the enumerating states (DensityState,
DiagonalDistribution) return every branch they keep, each a new object.
replace_qubits(support) gives the support fresh maximally mixed qubits: a
DensityState swaps in its own stock qubits while it has them (see its
docstring), every other state re-mixes the support in place.
expectation(spec) reads <P> without measuring, for the final check and the
monotonicity probe.

Tensor convention: an n-qubit pure state is stored as an ndarray of shape
(2,)*n with axis q belonging to qubit q; a density matrix uses (2,)*(2n) with
row axes first.  Bit 0 of a local operator's index is its support[0] qubit
(most significant), matching the instance module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotNormalized, ZeroProbabilityBranch
from .instances import ProjectorSpec

TRAJECTORY_CAP = 14
DENSITY_CAP = 8
EIG_FLOOR = 1e-12
BRANCH_PRUNE = 1e-12


# ---------------------------------------------------------------------------
# entropies

def shannon_entropy(probabilities, atol=1e-9) -> float:
    """-sum p log2 p with 0 log 0 := 0.  Input must sum to 1 within atol."""
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < -atol):
        raise NotNormalized("negative probability")
    total = float(p.sum())
    if abs(total - 1.0) > atol:
        raise NotNormalized(f"probabilities sum to {total}, not 1")
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def von_neumann_entropy(state_or_matrix) -> float:
    """Base-2 von Neumann entropy; eigenvalues below 1e-12 contribute 0."""
    rho = state_or_matrix.rho if isinstance(state_or_matrix, DensityState) \
        else np.asarray(state_or_matrix, dtype=complex)
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > EIG_FLOOR]
    return float(-(evals * np.log2(evals)).sum()) if evals.size else 0.0


# ---------------------------------------------------------------------------
# outcome record

@dataclass(frozen=True)
class Outcome:
    violated: int      # 1 = projected onto P (violation), 0 = onto 1-P
    probability: float  # Born probability of this outcome


# the two outcomes of a deterministic (bit-string) measurement, shared
_SATISFIED = Outcome(violated=0, probability=1.0)
_VIOLATED = Outcome(violated=1, probability=1.0)


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# trajectory backend

def _apply_local(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Apply a k-qubit operator to the given tensor axes (in support order)."""
    k = len(axes)
    op = mat.reshape((2,) * (2 * k))
    out = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, range(k), axes)


class TrajectoryState:
    """Pure-state unraveling of the maximally mixed initial state.

    Initialization samples a uniform computational-basis state; replacement
    measures the discarded qubits and resamples them uniformly.  Both choices
    reproduce the density-matrix ensemble exactly (checked in the tests).
    """

    def __init__(self, n: int, rng):
        if n > TRAJECTORY_CAP:
            raise DimensionTooLarge(
                f"trajectory backend capped at {TRAJECTORY_CAP} qubits, got {n}")
        self.n = n
        self.rng = rng
        bits = rng.integers(0, 2, size=n)
        psi = np.zeros((2,) * n if n else (1,), dtype=complex)
        psi[tuple(bits)] = 1.0
        self.psi = psi

    def _renormalize(self):
        norm = np.linalg.norm(self.psi)
        if norm < 1e-12:
            raise ZeroProbabilityBranch("state norm collapsed to zero")
        self.psi /= norm

    def expectation(self, spec: ProjectorSpec) -> float:
        proj = _apply_local(self.psi, spec.materialize(), spec.support)
        return _clamp01(float(np.real(np.vdot(self.psi, proj))))

    def measure_projector(self, spec: ProjectorSpec) -> Outcome:
        """Born-rule measurement of {P, 1-P}; collapses the state in place."""
        mat = spec.materialize()
        projected = _apply_local(self.psi, mat, spec.support)
        p = _clamp01(float(np.real(np.vdot(self.psi, projected))))
        violated = int(self.rng.random() < p)
        if violated:
            self.psi = projected
        else:
            self.psi = self.psi - projected
        self._renormalize()
        return Outcome(violated=violated, probability=p if violated else 1.0 - p)

    def measure_branches(self, spec: ProjectorSpec):
        """The one branch measure_projector draws, continuing in this state."""
        return ((self.measure_projector(spec), self),)

    def replace_qubits(self, support) -> None:
        """Measure each support qubit in the computational basis (outcome
        discarded), then overwrite it with a fresh uniform basis state."""
        for q in support:
            marginal = np.moveaxis(self.psi, q, 0)
            p1 = _clamp01(float((np.abs(marginal[1]) ** 2).sum()
                                / (np.abs(self.psi) ** 2).sum()))
            observed = int(self.rng.random() < p1)
            keep = np.zeros_like(self.psi)
            np.moveaxis(keep, q, 0)[observed] = marginal[observed]
            self.psi = keep
            self._renormalize()
            fresh = int(self.rng.integers(0, 2))
            if fresh != observed:
                self.psi = np.flip(self.psi, axis=q)

    def bits(self):
        """Basis-state reading, defined only when the state is a basis state."""
        flat = np.abs(self.psi.reshape(-1))
        idx = int(np.argmax(flat))
        if abs(flat[idx] - 1.0) > 1e-9:
            return None
        return tuple((idx >> (self.n - 1 - q)) & 1 for q in range(self.n))


# ---------------------------------------------------------------------------
# density backend

class DensityState:
    """Exact density operator on d labeled qubits, the last `stock` of which
    are fresh maximally mixed stock qubits.

    replace_qubits(support) swaps the support into the next unused stock
    qubits while enough are left, so the register's entropy is conserved
    (`stock_used` counts them, and branches inherit it); otherwise it traces
    the support out.  With stock=0 every replacement is a partial trace.
    """

    def __init__(self, d: int, rho=None, stock: int = 0):
        if d > DENSITY_CAP:
            raise DimensionTooLarge(
                f"density backend capped at {DENSITY_CAP} qubits, got {d}")
        self.d = d
        self.stock = stock
        self.stock_used = 0
        dim = 2 ** d
        if rho is None:
            rho = np.eye(dim, dtype=complex) / dim
        self.rho = np.asarray(rho, dtype=complex)

    def _tensor(self) -> np.ndarray:
        return self.rho.reshape((2,) * (2 * self.d))

    def _from_tensor(self, t: np.ndarray) -> None:
        self.rho = t.reshape(2 ** self.d, 2 ** self.d)

    def _blocks(self, support):
        """The partial traces' shared view: rho with rows and columns ordered
        (support, rest) as a (2^k, 2^(d-k), 2^k, 2^(d-k)) array, and rest."""
        rest = [q for q in range(self.d) if q not in support]
        k = len(support)
        t = np.moveaxis(self._tensor(), list(support) + rest
                        + [self.d + q for q in support] + [self.d + q for q in rest],
                        range(2 * self.d))
        return t.reshape(2 ** k, 2 ** (self.d - k), 2 ** k, 2 ** (self.d - k)), rest

    def _conjugate(self, mat: np.ndarray, support) -> np.ndarray:
        """M rho M^dagger as a flat matrix."""
        t = self._tensor()
        t = _apply_local(t, mat, support)
        t = _apply_local(t, mat.conj(), [self.d + q for q in support])
        return t.reshape(2 ** self.d, 2 ** self.d)

    def expectation(self, spec: ProjectorSpec) -> float:
        t = _apply_local(self._tensor(), spec.materialize(), spec.support)
        return _clamp01(float(np.real(np.trace(t.reshape(2 ** self.d, 2 ** self.d)))))

    def measure_branches(self, spec: ProjectorSpec):
        """Both outcomes of measuring {P, 1-P}: list of (Outcome, DensityState).

        Branch probabilities sum to 1; branches with probability below the
        pruning threshold are dropped (normalizing one raises
        ZeroProbabilityBranch, so they are never materialized).
        """
        mat = spec.materialize()
        branches = []
        for violated, op in ((1, mat), (0, np.eye(mat.shape[0]) - mat)):
            post = self._conjugate(op, spec.support)
            p = _clamp01(float(np.real(np.trace(post))))
            if p < BRANCH_PRUNE:
                continue
            state = object.__new__(DensityState)
            state.d, state.stock, state.stock_used = self.d, self.stock, self.stock_used
            state.rho = post / p
            branches.append((Outcome(violated=violated, probability=p), state))
        return branches

    def replace_qubits(self, support) -> None:
        """Swap the support into the next unused stock qubits, or, with too
        few left, trace it out and re-tensor it maximally mixed; the other
        non-stock qubits are untouched either way."""
        k = len(support)
        if self.stock_used + k <= self.stock:
            first = self.d - self.stock + self.stock_used
            self.stock_used += k
            self.swap_qubits([(q, first + i) for i, q in enumerate(support)])
            return
        # `block` (a copy of rho) stays referenced until the new matrix is
        # built: freeing it first let the allocator hand the heap top back and
        # fault it in again, twice the page faults of an outcome law
        block, rest = self._blocks(support)
        fresh = np.kron(np.eye(2 ** k, dtype=complex) / 2 ** k,
                        np.einsum("iaib->ab", block))
        # fresh is ordered (support, rest); put every qubit back on its axis
        order = list(support) + rest
        t = np.moveaxis(fresh.reshape((2,) * (2 * self.d)), range(2 * self.d),
                        order + [self.d + q for q in order])
        self._from_tensor(t)

    def swap_qubits(self, pairs) -> None:
        """Exchange qubit labels; pairs is a list of (a, b)."""
        perm = list(range(self.d))
        for a, b in pairs:
            perm[a], perm[b] = perm[b], perm[a]
        t = self._tensor()
        t = np.moveaxis(t, perm + [self.d + q for q in perm], range(2 * self.d))
        self._from_tensor(t)

    def reduced(self, support) -> np.ndarray:
        """Reduced density matrix on the given qubits (in the given order)."""
        block, _ = self._blocks(support)
        return np.einsum("iaja->ij", block)


# ---------------------------------------------------------------------------
# diagonal-classical backend

class DiagonalState:
    """Classical bit-string state for diagonal instances; measurement is
    deterministic set membership, replacement resamples uniform bits.  On
    diagonal instances this is exactly the Moser-style resampling walk.

    Each projector arrives with its clause compiled (ProjectorSpec.clause):
    a lookup is one itemgetter read of the support's bits, through a
    memoryview of `bits` whose items are plain ints, and one set-membership
    test against the forbidden bit tuples.  `bits` stays an int8 array;
    assigning a new one rebuilds the view.
    """

    def __init__(self, n: int, rng):
        self.n = n
        self.rng = rng
        self.bits = rng.integers(0, 2, size=n)

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @bits.setter
    def bits(self, value) -> None:
        self._bits = np.asarray(value, dtype=np.int8)
        self._cells = memoryview(self._bits)

    def copy(self) -> "DiagonalState":
        new = object.__new__(DiagonalState)
        new.n, new.rng, new.bits = self.n, self.rng, self.bits.copy()
        return new

    def expectation(self, spec: ProjectorSpec) -> float:
        clause = spec.clause
        if clause is None:
            raise TypeError("diagonal backend requires diagonal projector bodies")
        return 1.0 if clause.read(self._cells) in clause.forbidden else 0.0

    def measure_projector(self, spec: ProjectorSpec) -> Outcome:
        return _VIOLATED if self.expectation(spec) else _SATISFIED

    def measure_branches(self, spec: ProjectorSpec):
        """The one branch measure_projector reads, continuing in this state."""
        return ((self.measure_projector(spec), self),)

    def replace_qubits(self, support) -> None:
        cells, rng = self._cells, self.rng
        for q in support:
            cells[q] = int(rng.integers(0, 2))


class DiagonalDistribution:
    """Exact probability distribution over classical bit-strings; the
    branch-enumeration counterpart of DiagonalState (a diagonal density
    matrix stored as its diagonal)."""

    def __init__(self, n: int, probs=None):
        self.n = n
        if probs is None:
            probs = np.full((2,) * n if n else (1,), 2.0 ** -n)
        self.probs = np.asarray(probs, dtype=float)

    def _mask(self, spec: ProjectorSpec) -> np.ndarray:
        if spec.clause is None:
            raise TypeError("diagonal backend requires diagonal projector bodies")
        mask = np.zeros((2,) * self.n, dtype=bool)
        for pattern in spec.clause.patterns:
            idx = [slice(None)] * self.n
            for q, b in zip(spec.support, pattern):
                idx[q] = b
            mask[tuple(idx)] = True
        return mask

    def expectation(self, spec: ProjectorSpec) -> float:
        return float(self.probs[self._mask(spec)].sum())

    def measure_branches(self, spec: ProjectorSpec):
        mask = self._mask(spec)
        branches = []
        for violated, sel in ((1, mask), (0, ~mask)):
            p = float(self.probs[sel].sum())
            if p < BRANCH_PRUNE:
                continue
            post = np.where(sel, self.probs, 0.0) / p
            branches.append((Outcome(violated=violated, probability=p),
                             DiagonalDistribution(self.n, post)))
        return branches

    def replace_qubits(self, support) -> None:
        marg = self.probs.sum(axis=tuple(support), keepdims=True)
        self.probs = np.broadcast_to(marg / 2 ** len(support), (2,) * self.n).copy()


def init_fully_mixed(backend: str, n: int, rng=None, seed=None):
    """Construct the named backend's realization of the fully mixed n-qubit state."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if backend == "trajectory":
        return TrajectoryState(n, rng)
    if backend == "diagonal":
        return DiagonalState(n, rng)
    if backend == "density":
        return DensityState(n)
    raise ValueError(f"unknown backend {backend!r}")

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
(2,)*n with axis q belonging to qubit q.  A density matrix is stored in a
labelled block layout (see DensityState): the rows and columns of a front
block of qubits, then those of the rest, with a label naming the qubit at
each position; its plain matrix (row axes first, qubit 0 most significant) is
built on demand.  A density measurement weighs its branches on the reduced
state of the support and builds each kept one with a single matrix product
for supports of at most 2 qubits (two for larger ones).  Bit 0 of a local
operator's index is its support[0] qubit (most significant), matching the
instance module.
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

    The register is a flat array of 4^d entries in a labelled block layout:
    its 2d binary axes are the rows of the front k positions, their columns,
    then the rows and the columns of the other d - k positions, and
    `_labels[p]` names the qubit at position p.  A measurement or a reduced
    state first brings its support to the front (one transpose, skipped when
    it is there already).  A measurement then reads both Born weights from
    the 2^k x 2^k reduced state of the support and drops a branch below
    BRANCH_PRUNE before touching the register.  Each kept branch is built
    normalised, with 1/p folded into a small operator, and inherits the
    layout: for k <= 2 it is one product of the superoperator (op/p ⊗ op*)
    on the (front row, front column) index pair with the register; for
    larger k, where that superoperator would cost 2^(k-1) times the
    multiply-adds, it is op on the front rows, then op*/p on the front
    columns.  k = 0 (or k = d) with labels 0..d-1 is the plain matrix,
    which `rho` returns (reading it rearranges the register; assigning it
    resets the layout).

    replace_qubits(support) swaps the support into the next unused stock
    qubits while enough are left, which only relabels, so the register's
    entropy is conserved (`stock_used` counts them, and branches inherit
    it); otherwise it traces the support out.  With stock=0 every
    replacement is a partial trace.
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
        self.rho = rho

    @property
    def rho(self) -> np.ndarray:
        """The plain 2^d x 2^d matrix, qubit 0 most significant."""
        self._arrange(range(self.d))
        return self._register.reshape(2 ** self.d, 2 ** self.d)

    @rho.setter
    def rho(self, value) -> None:
        self._register = np.asarray(value, dtype=complex).reshape(-1)
        self._front, self._labels = 0, tuple(range(self.d))

    def _arrange(self, support) -> np.ndarray:
        """Bring the support, in its order, to the front of the register and
        return it as a (2^k, 2^k, 2^(d-k), 2^(d-k)) array."""
        support = tuple(support)
        k, d, front = len(support), self.d, self._front
        labels = support + tuple(q for q in self._labels if q not in support)
        where = {q: p for p, q in enumerate(self._labels)}
        pos = [where[q] for q in labels]
        rows = [p if p < front else front + p for p in pos]
        cols = [front + p if p < front else d + p for p in pos]
        axes = rows[:k] + cols[:k] + rows[k:] + cols[k:]
        if axes != list(range(2 * d)):
            self._register = self._register.reshape((2,) * (2 * d)) \
                .transpose(axes).reshape(-1)
        self._front, self._labels = k, labels
        rest = 2 ** (d - k)
        return self._register.reshape(2 ** k, 2 ** k, rest, rest)

    def expectation(self, spec: ProjectorSpec) -> float:
        p = np.einsum("ij,ji->", spec.materialize(), self.reduced(spec.support))
        return _clamp01(float(np.real(p)))

    def measure_branches(self, spec: ProjectorSpec):
        """Both outcomes of measuring {P, 1-P}: list of (Outcome, DensityState).

        Branch probabilities sum to 1; branches with probability below the
        pruning threshold are dropped before they are built.
        """
        mat = spec.materialize()
        reduced = self.reduced(spec.support)
        x = self._arrange(spec.support)  # already in place: no transpose
        dim = mat.shape[0]
        branches = []
        for violated, op in ((1, mat), (0, np.eye(dim) - mat)):
            # tr(op rho op^†), the trace of the branch built below, not
            # expectation's tr(op rho): the two agree only up to rounding,
            # which a weight near BRANCH_PRUNE would magnify in its branch
            p = _clamp01(float(np.real(np.vdot(op, op @ reduced))))
            if p < BRANCH_PRUNE:
                continue
            if dim <= 4:
                # (op/p ⊗ op*) on the (front row, front column) pair
                sup = np.multiply.outer(op / p, op.conj()).transpose(0, 2, 1, 3)
                post = sup.reshape(dim * dim, dim * dim) @ x.reshape(dim * dim, -1)
            else:
                # op on the front rows, then op*/p on the front columns: the
                # superoperator would cost 2^(k-1) times the multiply-adds
                post = np.matmul(op.conj() / p,
                                 (op @ x.reshape(dim, -1)).reshape(dim, dim, -1))
            state = object.__new__(DensityState)
            state.d, state.stock, state.stock_used = self.d, self.stock, self.stock_used
            state._register = post.reshape(-1)
            state._front, state._labels = self._front, self._labels
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
        x = self._arrange(support)
        dim = x.shape[0]
        # the partial trace over the support, divided by 2^k, on each of the
        # 2^k diagonal blocks
        fresh = np.zeros(x.shape, dtype=complex)
        fresh[range(dim), range(dim)] = np.einsum("iiab->ab", x) / dim
        self._register = fresh.reshape(-1)

    def swap_qubits(self, pairs) -> None:
        """Exchange qubit labels; pairs is a list of (a, b), applied in order."""
        perm = list(range(self.d))
        for a, b in pairs:
            perm[a], perm[b] = perm[b], perm[a]
        # qubit q now holds what qubit perm[q] held
        renamed = {old: q for q, old in enumerate(perm)}
        self._labels = tuple(renamed[q] for q in self._labels)

    def reduced(self, support) -> np.ndarray:
        """Reduced density matrix on the given qubits (in the given order)."""
        return np.einsum("ijaa->ij", self._arrange(support))


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

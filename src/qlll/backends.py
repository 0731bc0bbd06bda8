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
(2,)*n with axis q belonging to qubit q.  A density matrix stores only its
active qubits, those measured since their last replacement: every other
qubit is an implicit maximally mixed factor I/2.  The active ones sit in a
labelled block layout (see DensityState): the rows and columns of a front
block of qubits, then those of the rest, with a label naming the qubit at
each position.  The plain matrix (row axes first, qubit 0 most significant)
is built on demand, and so is any missing qubit a reduced state or an
expectation reads.  A density measurement weighs its branches on the reduced
state of the support and builds each kept one with a single matrix product
for supports of at most 2 qubits (two for larger ones), folding a missing
support qubit into the operator.  Bit 0 of a local operator's index is its
support[0] qubit (most significant), matching the instance module.
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

    The state is rho_active ⊗ I/2^u: only the active qubits, those measured
    since their last replacement, are stored, and the u others are an
    implicit maximally mixed factor.  DensityState(d) starts with no active
    qubit (a 1-entry register), DensityState(d, rho) with all d.  The
    register is a flat array of 4^a entries for a active qubits in a
    labelled block layout: its 2a binary axes are the rows of the front k
    positions, their columns, then the rows and the columns of the other
    a - k positions, and `_labels[p]` names the qubit at position p; a qubit
    missing from `_labels` is unstored.

    A reduced state or an expectation first makes its support active (each
    missing qubit joins the rest block as an I/2 factor) and brings it to
    the front (one transpose, skipped when it is there already).  A
    measurement brings only the support's active qubits to the front and
    folds the missing ones into the operator, as its columns summed against
    I/m.  It then reads both Born weights from the reduced state of the
    support and drops a branch below BRANCH_PRUNE before touching the
    register.  Each kept branch is built normalised, with 1/p folded into a
    small operator, and holds the whole support at the front: for k <= 2 it
    is one product of the superoperator (op/p ⊗ op*) on the (front row,
    front column) index pair with the register; for larger k, where that
    superoperator would cost 2^(k-1) times the multiply-adds, it is op on
    the front rows, then op*/p on the front columns.  All d qubits active
    with k = 0 (or k = d) and labels 0..d-1 is the plain matrix, which `rho`
    returns (reading it makes every qubit active and rearranges the
    register; assigning it resets the layout).

    replace_qubits(support) swaps the support into the next unused stock
    qubits while enough are left, which only relabels (an active qubit
    renamed to unused stock makes that stock active and leaves its old
    label unstored), so the register's entropy is conserved (`stock_used`
    counts them, and branches inherit it); otherwise it traces the support
    out, which leaves it unstored.  With stock=0 every replacement is a
    partial trace.
    """

    def __init__(self, d: int, rho=None, stock: int = 0):
        if d > DENSITY_CAP:
            raise DimensionTooLarge(
                f"density backend capped at {DENSITY_CAP} qubits, got {d}")
        self.d = d
        self.stock = stock
        self.stock_used = 0
        if rho is None:
            # every qubit maximally mixed: nothing active, a 1-entry register
            self._register = np.ones(1, dtype=complex)
            self._front, self._labels = 0, ()
        else:
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
        """Make the support active, append its missing qubits to the rest
        block as I/2 factors, bring it, in its order, to the front of the
        register with one transpose, and return the register as a
        (2^k, 2^k, 2^(a-k), 2^(a-k)) array for a active qubits."""
        support = tuple(support)
        k, front, old = len(support), self._front, self._labels
        where = {q: p for p, q in enumerate(old)}
        a = len(old)
        missing = [q for q in support if q not in where]
        register = self._register
        if missing:
            m = 2 ** len(missing)
            register = np.multiply.outer(register, np.eye(m) / m)
            where.update((q, a + i) for i, q in enumerate(missing))
        n = len(where)
        labels = support + tuple(q for q in old if q not in support)
        pos = [where[q] for q in labels]
        # the row and column axes of position p: front block, rest block,
        # then the appended I/2 factors
        rows = [p if p < front else front + p if p < a else a + p for p in pos]
        cols = [front + p if p < front else a + p if p < a else n + p
                for p in pos]
        axes = rows[:k] + cols[:k] + rows[k:] + cols[k:]
        if axes != list(range(2 * n)):
            register = register.reshape((2,) * (2 * n)).transpose(axes)
        self._register = register.reshape(-1)
        self._front, self._labels = k, labels
        rest = 2 ** (n - k)
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
        support, dim = spec.support, mat.shape[0]
        # a support qubit the register does not hold is folded into the
        # operator as its I/2 factor, never stored
        active = tuple(q for q in support if q in self._labels)
        reduced = self.reduced(active)
        x = self._arrange(active)  # already in place: no transpose
        da, m = reduced.shape[0], dim // reduced.shape[0]
        # op as (row, missing column bits, active column bits)
        cols = [0] + [1 + i for i, q in enumerate(support) if q not in active] \
            + [1 + i for i, q in enumerate(support) if q in active]
        labels = support + self._labels[len(active):]
        branches = []
        for violated, op in ((1, mat), (0, np.eye(dim) - mat)):
            v = op.reshape((dim,) + (2,) * len(support)).transpose(cols) \
                .reshape(dim, m, da)
            # tr(op rho op^†) with rho_S = reduced ⊗ I/m, the trace of the
            # branch built below, not expectation's tr(op rho): the two agree
            # only up to rounding, which a weight near BRANCH_PRUNE would
            # magnify in its branch
            p = _clamp01(float(np.real(np.vdot(v, v @ reduced))) / m)
            if p < BRANCH_PRUNE:
                continue
            if dim <= 4:
                # (op/p ⊗ op*), summed against I/m, on the (front row, front
                # column) pair
                sup = np.einsum("ima,jmb->ijab", v / (m * p), v.conj())
                post = sup.reshape(dim * dim, da * da) @ x.reshape(da * da, -1)
            else:
                # op on the front rows, then op*/(m p) on the front columns
                # and the missing bits: the superoperator would cost 2^(k-1)
                # times the multiply-adds
                rows = v.reshape(dim * m, da) @ x.reshape(da, -1)
                post = np.matmul(v.reshape(dim, m * da).conj() / (m * p),
                                 rows.reshape(dim, m * da, -1))
            state = object.__new__(DensityState)
            state.d, state.stock, state.stock_used = self.d, self.stock, self.stock_used
            state._register = post.reshape(-1)
            state._front, state._labels = len(support), labels
            branches.append((Outcome(violated=violated, probability=p), state))
        return branches

    def replace_qubits(self, support) -> None:
        """Swap the support into the next unused stock qubits, or, with too
        few left, trace it out, which leaves it maximally mixed and unstored;
        the other non-stock qubits are untouched either way."""
        k = len(support)
        if self.stock_used + k <= self.stock:
            first = self.d - self.stock + self.stock_used
            self.stock_used += k
            self.swap_qubits([(q, first + i) for i, q in enumerate(support)])
            return
        active = [q for q in support if q in self._labels]
        x = self._arrange(active)
        self._register = np.einsum("iiab->ab", x).reshape(-1)
        self._front, self._labels = 0, self._labels[len(active):]

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

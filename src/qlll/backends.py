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
(2,)*n with axis q belonging to qubit q.  A density state is a product of
factors: disjoint trace-1 registers, each on qubits that measurements have
joined (DensityState(d, rho) starts with one on all d), times an implicit
maximally mixed factor I/2 on every other qubit, which is never stored.
DENSITY_CAP bounds the qubits of one factor, not d.  Each factor sits in a
labelled block layout (see DensityState).  A measurement or a read merges
the factors holding its support's stored qubits and touches no other; an
unstored support qubit is folded in where it is needed: a measurement
folds it into its operator, a reduced state or an expectation into its
2^k x 2^k result.  A read stores nothing, so the factors are those FIX's
measurements built; only `rho`, the plain matrix (row axes first, qubit 0
most significant), caches itself as the only factor.  A density
measurement weighs its branches on the reduced state of the support and
builds each kept one with a single matrix product for supports of at most
2 qubits (two for larger ones), sharing the other factors with its parent.
Bit 0 of a local operator's index is its support[0] qubit (most
significant), matching the instance module.

The trajectory kernel: a measurement is one GEMM on the support block, a
(2^k, 2^(n-k)) copy of the state with the support's axes as rows, and takes
its Born weight from that block and the product.  The collapsed state is a
view of the product with the axes back in place, never made contiguous,
since the norm sums in memory order and a state's last bits reach the
serialised energies.

The diagonal kernel draws its random bits in blocks: one generator call
for the initial bits and the first 64 fresh ones, then one per further 64
replaced qubits.  The values are those of one scalar draw per bit, because
a DiagonalState owns its generator: nothing draws from it after the
constructor (the walk's neighbourhood shuffle comes before, its closing
check draws nothing).
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
_FRESH_BLOCK = 64   # DiagonalState's fresh bits per generator call


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


def von_neumann_entropy(rho) -> float:
    """Base-2 von Neumann entropy of a density matrix; eigenvalues below
    1e-12 contribute 0."""
    evals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
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

def _apply_block(tensor: np.ndarray, mat: np.ndarray, axes):
    """Apply a k-qubit operator to the given tensor axes (in support order)
    with one GEMM on the support block.  Returns the block, a C-ordered
    (2^k, 2^(n-k)) copy of the tensor whose rows are those axes, the product
    mat @ block, and the projected tensor, a view of the product with its
    axes back in place."""
    k = len(axes)
    block = np.moveaxis(tensor, axes, range(k)).reshape(2 ** k, -1)
    out = mat @ block
    return block, out, np.moveaxis(out.reshape(tensor.shape), range(k), axes)


def _apply_local(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Apply a k-qubit operator to the given tensor axes (in support order)."""
    return _apply_block(tensor, mat, axes)[2]


class TrajectoryState:
    """Pure-state unraveling of the maximally mixed initial state.

    Initialization samples a uniform computational-basis state; replacement
    measures the discarded qubits and resamples them uniformly.  Both choices
    reproduce the density-matrix ensemble exactly (checked in the tests).

    A measurement copies psi once into the support block, multiplies it by
    P once, and reads p = <block|P block> from that pair.  The kept branch
    is the product viewed back in psi's axes (or psi minus that view), and
    renormalisation multiplies by 1/norm, which is how numpy divides a
    complex array by a real norm anyway.  Layout rule: psi is never made
    contiguous.  It stays the moved-axes view (the subtraction takes psi's
    own layout), because np.linalg.norm sums in memory order and the
    serialised energies carry rounding-level digits.  So every state equals
    the plain tensordot form of the same steps bit for bit (checked in the
    tests); only p, summed in block order, may differ in its last bits.
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
        self.psi *= 1.0 / norm

    def expectation(self, spec: ProjectorSpec) -> float:
        proj = _apply_local(self.psi, spec.materialize(), spec.support)
        return _clamp01(float(np.real(np.vdot(self.psi, proj))))

    def measure_projector(self, spec: ProjectorSpec) -> Outcome:
        """Born-rule measurement of {P, 1-P}; collapses the state in place."""
        block, out, projected = _apply_block(self.psi, spec.materialize(),
                                             spec.support)
        p = _clamp01(float(np.real(np.vdot(block, out))))
        violated = int(self.rng.random() < p)
        self.psi = projected if violated else self.psi - projected
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
            marginal[1 - observed] = 0  # a view: zeroes psi's other half
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

def _block_axes(front: int, a: int, positions):
    """The row and the column axis of each position of a block layout of a
    positions whose first `front` form the front block."""
    rows = [p if p < front else front + p for p in positions]
    cols = [front + p if p < front else a + p for p in positions]
    return rows, cols


def _merge(factors):
    """One factor holding the tensor product of the given ones, in the plain
    layout (front 0) with their labels in order; the 1-entry factor on no
    qubit when none is given, and the factor itself when one is."""
    if not factors:
        return np.ones(1, dtype=complex), 0, ()
    register, front, labels = factors[0]
    for other, other_front, other_labels in factors[1:]:
        a, b = len(labels), len(other_labels)
        # the outer product's axes: the first factor's 2a in its block
        # layout, then the other's 2b; the plain layout wants every row axis
        # (in label order), then every column axis
        rows, cols = _block_axes(front, a, range(a))
        other_rows, other_cols = _block_axes(other_front, b, range(b))
        interleave = rows + [2 * a + r for r in other_rows] \
            + cols + [2 * a + c for c in other_cols]
        register = np.multiply.outer(register, other) \
            .reshape((2,) * (2 * (a + b))).transpose(interleave).reshape(-1)
        front, labels = 0, labels + other_labels
    return register, front, labels


class DensityState:
    """Exact density operator on d labeled qubits, the last `stock` of which
    are fresh maximally mixed stock qubits.

    The state is a tensor product of factors times I/2^u: `_factors` holds
    disjoint trace-1 registers, each a (register, front, labels) triple on
    the qubits it names, and the u qubits no factor names are an implicit
    maximally mixed factor, never stored.  A qubit is stored once FIX has
    measured it and until its replacement traces it out; a measurement puts
    its whole support into one factor, so factors form from what FIX
    measures and, as FIX never measures across connected components, never
    span two.  DensityState(d) starts with no factor, for any d,
    DensityState(d, rho) with one factor on all d qubits.  A register is a
    flat array of 4^a entries for its a qubits in a labelled block layout:
    its 2a binary axes are the rows of the front k positions, their
    columns, then the rows and the columns of the other a - k positions,
    and labels[p] names the qubit at position p.

    A measurement, a reduced state and an expectation each find the factors
    holding the support's stored qubits, merge them when there are two or
    more (per extra factor one outer product and one transpose into the
    plain layout), and bring those qubits to the front of the result (one
    transpose, skipped when they are there already).  DENSITY_CAP bounds
    that result's qubits plus the support's unstored ones, checked before
    anything is allocated.  A read stores nothing.  A reduced state, and so
    an expectation, folds the support's unstored qubits into its 2^k x 2^k
    result as I/m; a measurement folds them into its operator, as its
    columns summed against I/m.  The measurement then reads both Born
    weights from the reduced state of the support and drops a branch below
    BRANCH_PRUNE before building anything.  Each kept branch replaces the
    arranged factor by one holding the whole support at the front, built
    normalised with 1/p folded into a small operator, and shares every other
    factor with its parent by reference (no register is ever written in
    place): for k <= 2 it is one product of the superoperator (op/p ⊗ op*)
    on the (front row, front column) index pair with the factor; for larger
    k, where that superoperator would cost 2^(k-1) times the multiply-adds,
    it is op on the front rows, then op*/p on the front columns.  `rho` is
    the reduced state on qubits 0..d-1, the plain matrix, and the one read
    that stores: it caches the matrix as the only factor (all d qubits,
    k = 0, labels 0..d-1), built once rather than at each read.  Assigning
    `rho` resets the layout.

    replace_qubits(support) swaps the support into the next unused stock
    qubits while enough are left, which only relabels (an active qubit
    renamed to unused stock makes that stock stored and leaves its old label
    unstored), so the state's entropy is conserved (`stock_used` counts
    them, and branches inherit it); otherwise it traces the support out of
    its factor, which leaves it unstored and drops a factor left empty.
    With stock=0 every replacement is a partial trace.
    """

    def __init__(self, d: int, rho=None, stock: int = 0):
        self.d = d
        self.stock = stock
        self.stock_used = 0
        if rho is None:
            # every qubit maximally mixed: nothing stored
            self._factors = ()
        else:
            self.rho = rho

    @property
    def rho(self) -> np.ndarray:
        """The plain 2^d x 2^d matrix, qubit 0 most significant, cached as
        the only factor (see the class docstring); raises above the cap."""
        self.rho = self.reduced(range(self.d))
        return self._factors[0][0].reshape(2 ** self.d, 2 ** self.d)

    @rho.setter
    def rho(self, value) -> None:
        register = np.asarray(value, dtype=complex).reshape(-1)
        self._factors = ((register, 0, tuple(range(self.d))),)

    def _arrange(self, support):
        """Merge the factors holding the support's stored qubits into one and
        bring those qubits, in support order, to its front with one
        transpose (skipped when they are there already), storing nothing;
        first raise DimensionTooLarge when the merged qubits and the
        support's unstored ones, the factor a measurement builds, exceed
        DENSITY_CAP.  Returns the other factors; the arranged register as a
        (2^s, 2^s, 2^(a-s), 2^(a-s)) array for s stored support qubits out of
        its a (a 1-entry register when s = 0); the labels of its a - s other
        positions; and the support's unstored and stored bit positions, the
        order of the bits of the support's index in I/m ⊗ (the front block)."""
        owner = {q: i for i, factor in enumerate(self._factors) for q in factor[2]}
        hit = {owner[q] for q in support if q in owner}
        size = sum(len(self._factors[i][2]) for i in hit) \
            + sum(q not in owner for q in support)
        if size > DENSITY_CAP:
            raise DimensionTooLarge(f"a density factor of {size} qubits exceeds "
                                    f"the cap of {DENSITY_CAP}")
        others = tuple(f for i, f in enumerate(self._factors) if i not in hit)
        register, front, old = _merge(
            [f for i, f in enumerate(self._factors) if i in hit])
        where = {q: p for p, q in enumerate(old)}
        stored = tuple(q for q in support if q in where)
        s, a = len(stored), len(old)
        labels = stored + tuple(q for q in old if q not in stored)
        pos = [where[q] for q in labels]
        rows, cols = _block_axes(front, a, pos)
        axes = rows[:s] + cols[:s] + rows[s:] + cols[s:]
        if axes != list(range(2 * a)):
            register = register.reshape((2,) * (2 * a)).transpose(axes).reshape(-1)
        rest = 2 ** (a - s)
        return (others, register.reshape(2 ** s, 2 ** s, rest, rest), labels[s:],
                [i for i, q in enumerate(support) if q not in where],
                [i for i, q in enumerate(support) if q in where])

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
        others, x, rest, unstored, stored = self._arrange(support)
        reduced = np.einsum("ijaa->ij", x)
        da, m = reduced.shape[0], dim // reduced.shape[0]
        labels = support + rest
        # op as (row, unstored column bits, stored column bits): an unstored
        # support qubit is folded in as its I/2 factor
        cols = [0] + [1 + i for i in unstored + stored]
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
                # and the unstored bits: the superoperator would cost
                # 2^(k-1) times the multiply-adds
                rows = v.reshape(dim * m, da) @ x.reshape(da, -1)
                post = np.matmul(v.reshape(dim, m * da).conj() / (m * p),
                                 rows.reshape(dim, m * da, -1))
            state = object.__new__(DensityState)
            state.d, state.stock, state.stock_used = self.d, self.stock, self.stock_used
            state._factors = others + ((post.reshape(-1), len(support), labels),)
            branches.append((Outcome(violated=violated, probability=p), state))
        return branches

    def replace_qubits(self, support) -> None:
        """Swap the support into the next unused stock qubits, or, with too
        few left, trace it out of its factor, which leaves it maximally
        mixed and unstored; the other non-stock qubits are untouched either
        way."""
        k = len(support)
        if self.stock_used + k <= self.stock:
            first = self.d - self.stock + self.stock_used
            self.stock_used += k
            self.swap_qubits([(q, first + i) for i, q in enumerate(support)])
            return
        others, x, rest, _, _ = self._arrange(support)
        self._factors = others
        if rest:
            self._factors += ((np.einsum("iiab->ab", x).reshape(-1), 0, rest),)

    def swap_qubits(self, pairs) -> None:
        """Exchange qubit labels; pairs is a list of (a, b), applied in order."""
        perm = list(range(self.d))
        for a, b in pairs:
            perm[a], perm[b] = perm[b], perm[a]
        # qubit q now holds what qubit perm[q] held
        renamed = {old: q for q, old in enumerate(perm)}
        self._factors = tuple((register, front, tuple(renamed[q] for q in labels))
                              for register, front, labels in self._factors)

    def reduced(self, support) -> np.ndarray:
        """Reduced density matrix on the given qubits (in the given order);
        an unstored one enters the result as I/2 and stays unstored."""
        _, x, _, unstored, stored = self._arrange(support)
        # with no other qubit in the factor the front block is the matrix
        reduced = x.reshape(x.shape[:2]) if x.shape[2] == 1 \
            else np.einsum("ijaa->ij", x)
        k, u = len(support), len(unstored)
        if u == 0:
            return reduced
        # reduced ⊗ I/2^u has the axes: stored rows, stored columns, then
        # unstored rows and columns; one transpose puts them in support order
        folded = np.multiply.outer(reduced, np.eye(2 ** u) / 2 ** u)
        axes = stored + [k + i for i in stored] + unstored + [k + i for i in unstored]
        folded = np.moveaxis(folded.reshape((2,) * (2 * k)), range(2 * k), axes)
        return folded.reshape(2 ** k, 2 ** k)


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

    The state owns `rng` from construction on: nothing else may draw from
    it, since the bits come in blocks.  The constructor makes one call,
    integers(0, 2, size=n + _FRESH_BLOCK); the first n values are the
    initial bits and the rest are kept, reversed, as fresh bits that
    replace_qubits pops in draw order, refilling with the next
    _FRESH_BLOCK draws while the support needs more than are left.  For
    integers(0, 2) numpy gives the same values for k scalar calls as for
    one size-k call, so the bits equal those of one scalar draw per
    replaced qubit.
    """

    def __init__(self, n: int, rng):
        self.n = n
        self.rng = rng
        drawn = rng.integers(0, 2, size=n + _FRESH_BLOCK)
        self.bits = drawn[:n]
        self._fresh = drawn[n:][::-1].tolist()

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @bits.setter
    def bits(self, value) -> None:
        self._bits = np.asarray(value, dtype=np.int8)
        self._cells = memoryview(self._bits)

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
        cells, fresh = self._cells, self._fresh
        while len(fresh) < len(support):
            # the next block is drawn after the bits still held, so it goes
            # underneath them: pop() keeps returning the bits in draw order
            block = self.rng.integers(0, 2, size=_FRESH_BLOCK)[::-1].tolist()
            self._fresh = fresh = block + fresh
        pop = fresh.pop
        for q in support:
            cells[q] = pop()


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
    """Construct the named sampling backend's realization of the fully mixed
    n-qubit state (the enumerators build their own roots)."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if backend == "trajectory":
        return TrajectoryState(n, rng)
    if backend == "diagonal":
        return DiagonalState(n, rng)
    raise ValueError(f"unknown backend {backend!r}")

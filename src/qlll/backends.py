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

Tensor convention: both quantum states are products of factors, and
TRAJECTORY_CAP and DENSITY_CAP each bound the qubits of one factor, not n
or d.  A trajectory state's factors are disjoint pure tensors, each of
shape (2,)*b with axis i belonging to the i-th qubit its labels name, and
a qubit no factor names is the computational basis state of its bit,
never stored; its `psi`, assembled at each read, is the plain (2,)*n
tensor with axis q belonging to qubit q.  A density state is a product of
factors: disjoint trace-1 registers, each on qubits that measurements have
joined (DensityState(d, rho) starts with one on all d), times an implicit
maximally mixed factor I/2 on every other qubit, which is never stored.
Each factor is a plain density matrix on the qubits its labels name (see
DensityState).  A measurement, a read and an out-of-stock replacement
each build one step factor and touch no other: the factors holding the
support's stored qubits times I/m on its m unstored ones, with the
support at the front.  A read stores nothing, so the factors are those
FIX's measurements built; only `rho`, the plain matrix (qubit 0 most
significant), caches itself as the only factor.  A density measurement
weighs its branches on the reduced state of the support and builds each
kept one as op on the support's rows, then op*/p on its columns, sharing
the other factors with its parent.
Bit 0 of a local operator's index is its support[0] qubit (most
significant), matching the instance module.

The trajectory kernel: a measurement joins the factors holding its
support, and the basis states of the support's unstored qubits, into one
step factor of a qubits, and is one GEMM on its support block, a
(2^k, 2^(a-k)) copy of that factor with the support's axes as rows; it
takes its Born weight from that block and the product.  The collapsed
factor is a view of the product with the axes back in place, never made
contiguous, since the norm sums in memory order and a factor's last bits
reach the serialised energies.  A replacement collapses each qubit in the
computational basis, which splits it out of its factor, so factors form
from what FIX measures and never span two connected components.

The diagonal kernel draws its random bits in blocks: one generator call
for the initial bits and the first 64 fresh ones, then one per further 64
replaced qubits.  The values are those of one scalar draw per bit, because
a DiagonalState owns its generator: nothing draws from it after the
constructor (the walk's neighbourhood shuffle comes before, its closing
check draws nothing).
"""

from __future__ import annotations

import functools
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
    # np.moveaxis as one transpose each way, without its argument checks
    order = [*axes, *(i for i in range(tensor.ndim) if i not in axes)]
    back = [0] * len(order)
    for i, axis in enumerate(order):
        back[axis] = i
    block = tensor.transpose(order).reshape(2 ** k, -1)
    out = mat @ block
    return block, out, out.reshape(tensor.shape).transpose(back)


def _apply_local(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Apply a k-qubit operator to the given tensor axes (in support order)."""
    return _apply_block(tensor, mat, axes)[2]


def _normalize(tensor: np.ndarray) -> np.ndarray:
    """Scale a tensor the caller owns to unit norm, in place."""
    norm = np.linalg.norm(tensor)
    if norm < 1e-12:
        raise ZeroProbabilityBranch("state norm collapsed to zero")
    tensor *= 1.0 / norm
    return tensor


_BASIS = np.eye(2, dtype=complex)   # row b is the basis vector |b>
_BASIS.flags.writeable = False      # a step factor may be one of its rows


class TrajectoryState:
    """Pure-state unraveling of the maximally mixed initial state.

    Initialization samples a uniform computational-basis state; replacement
    measures the discarded qubits and resamples them uniformly.  Both choices
    reproduce the density-matrix ensemble exactly (checked in the tests).

    The state is a product of factors, by the density state's rule with a
    basis state in place of I/2: `_factors` holds disjoint pure tensors, each
    a (tensor, labels) pair whose axis i is qubit labels[i], and a qubit no
    factor names is the basis state |_bits[q]>, never stored.  `_phase` is
    the global phase of the factors replacement has emptied.  A measurement
    and an expectation each work on one step factor, which `_join` builds:
    the factors holding the support's qubits times the basis states of its
    unstored ones, one outer product (none when one stored factor holds the
    whole support).  TRAJECTORY_CAP bounds that factor's qubits, checked
    before anything is allocated.  So factors form from what FIX measures
    and never span two connected components.

    A measurement copies the step factor once into the support block,
    multiplies it by P once, and reads p = <block|P block> from that pair.
    The kept branch is the product viewed back in the factor's axes (or the
    factor minus that view), renormalised by 1/norm, which is how numpy
    divides a complex array by a real norm anyway, and replaces the factors
    it joined.  Layout rule, per factor: a factor is never made contiguous.
    It stays the moved-axes view (the subtraction takes the factor's own
    layout), because np.linalg.norm sums in memory order and the serialised
    energies carry rounding-level digits.  So every factor equals the plain
    tensordot form of the same steps bit for bit (checked in the tests);
    only p, summed in block order, may differ in its last bits.
    replace_qubits collapses each qubit in the computational basis, which
    leaves it a product with the rest of its factor: the qubit is split out
    and becomes unstored with its fresh bit.

    `psi` is the plain (2,)*n tensor, axis q for qubit q, built at each read
    (it raises above the cap before it allocates); assigning it makes one
    factor on all n qubits.
    """

    def __init__(self, n: int, rng):
        self.n = n
        self.rng = rng
        self._bits = rng.integers(0, 2, size=n).tolist()
        self._factors = ()
        self._phase = 1.0

    @property
    def psi(self) -> np.ndarray:
        _, tensor, labels = self._join(range(self.n))
        return tensor.transpose(np.argsort(labels)) * self._phase

    @psi.setter
    def psi(self, value) -> None:
        tensor = np.array(value, dtype=complex).reshape((2,) * self.n)
        self._factors = ((tensor, tuple(range(self.n))),)
        self._phase = 1.0

    def _join(self, support):
        """The factor a step on the support works on, storing nothing: the
        outer product of the factors holding the support's qubits and of the
        basis states of its unstored ones; first raise DimensionTooLarge
        when that factor's qubits exceed TRAJECTORY_CAP.  Returns the other
        factors, the factor and its labels."""
        wanted, parts, others = set(support), [], []
        for factor in self._factors:
            (others if wanted.isdisjoint(factor[1]) else parts).append(factor)
        stored = {q for _, named in parts for q in named}
        unstored = tuple(q for q in support if q not in stored)
        labels = tuple(q for _, named in parts for q in named) + unstored
        if len(labels) > TRAJECTORY_CAP:
            raise DimensionTooLarge(
                f"a trajectory factor of {len(labels)} qubits exceeds the "
                f"cap of {TRAJECTORY_CAP}")
        if len(parts) == 1 and not unstored:
            return tuple(others), parts[0][0], labels
        arrays = [t for t, _ in parts] + [
            _BASIS[self._bits[q]] for q in unstored]
        tensor = functools.reduce(np.multiply.outer,
                                  arrays or [np.ones((), dtype=complex)])
        return tuple(others), tensor, labels

    def expectation(self, spec: ProjectorSpec) -> float:
        _, tensor, labels = self._join(spec.support)
        axes = [labels.index(q) for q in spec.support]
        proj = _apply_local(tensor, spec.materialize(), axes)
        return _clamp01(float(np.real(np.vdot(tensor, proj))))

    def measure_projector(self, spec: ProjectorSpec) -> Outcome:
        """Born-rule measurement of {P, 1-P}; collapses the state in place."""
        others, tensor, labels = self._join(spec.support)
        axes = [labels.index(q) for q in spec.support]
        block, out, projected = _apply_block(tensor, spec.materialize(), axes)
        p = _clamp01(float(np.real(np.vdot(block, out))))
        violated = int(self.rng.random() < p)
        kept = projected if violated else tensor - projected
        self._factors = others + ((_normalize(kept), labels),)
        return Outcome(violated=violated, probability=p if violated else 1.0 - p)

    def measure_branches(self, spec: ProjectorSpec):
        """The one branch measure_projector draws, continuing in this state."""
        return ((self.measure_projector(spec), self),)

    def replace_qubits(self, support) -> None:
        """Measure each support qubit in the computational basis (outcome
        discarded), split it out of its factor and give it a fresh uniform
        bit.  Each qubit takes one uniform draw for the collapse and one
        for the fresh bit, an unstored one too (its collapse is certain)."""
        for q in support:
            hit = [i for i, (_, named) in enumerate(self._factors) if q in named]
            if not hit:
                self.rng.random()   # a basis state's collapse is certain
            else:
                i, = hit
                tensor, labels = self._factors[i]
                axis = labels.index(q)
                at = (slice(None),) * axis   # index q's axis with at + (b,)
                p1 = _clamp01(float((np.abs(tensor[at + (1,)]) ** 2).sum()
                                    / (np.abs(tensor) ** 2).sum()))
                observed = int(self.rng.random() < p1)
                # a view of the factor, which nothing else holds
                rest = _normalize(tensor[at + (observed,)])
                self._factors = self._factors[:i] + self._factors[i + 1:]
                if rest.ndim:
                    self._factors += ((rest, labels[:axis] + labels[axis + 1:]),)
                else:  # the factor held q alone: keep its phase
                    self._phase *= complex(rest)
            self._bits[q] = int(self.rng.integers(0, 2))

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

    The state is a tensor product of factors times I/2^u: `_factors` holds
    disjoint trace-1 factors, each a (matrix, labels) pair, and the u qubits
    no factor names are an implicit maximally mixed factor, never stored.  A
    qubit is stored once FIX has measured it and until its replacement
    traces it out; a measurement puts its whole support into one factor, so
    factors form from what FIX measures and, as FIX never measures across
    connected components, never span two.  DensityState(d) starts with no
    factor, for any d, DensityState(d, rho) with one factor on all d qubits.
    A factor's matrix is its plain density matrix on its labels, labels[0]
    most significant: an array of 4^b entries for its b qubits whose C-order
    index reads the rows, then the columns, which may be a strided view.

    A measurement, a reduced state, an expectation and an out-of-stock
    replacement each work on one step factor, which `_arrange` builds and
    nothing stores: the factors holding the support's stored qubits and I/m
    on its m unstored ones, joined as one outer product with the support,
    in order, brought to the front by one transpose.  DENSITY_CAP bounds
    that factor's qubits, checked before anything is allocated.  A reduced
    state, and so an expectation, is its front block or that block's
    partial trace; a replacement traces the support out of it.  A
    measurement reads both Born weights from the reduced state of the
    support and drops a branch below BRANCH_PRUNE before building anything.
    Each kept branch replaces the step factor's parts by one factor on the
    support and then the step factor's other qubits, op on the support's
    rows, then op*/p on its columns, stored as a view of that product, and
    shares every other factor with its parent by reference (no factor is
    ever written in place).  `rho` is the reduced state on qubits 0..d-1,
    the plain matrix, and the one read that stores: it caches the matrix as
    the only factor (all d qubits, labels 0..d-1), built once rather than
    at each read.  Assigning `rho` sets that factor.

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
        return self._factors[0][0]

    @rho.setter
    def rho(self, value) -> None:
        matrix = np.asarray(value, dtype=complex).reshape(2 ** self.d, 2 ** self.d)
        self._factors = ((matrix, tuple(range(self.d))),)

    def _arrange(self, support):
        """The factor a step on the support builds, storing nothing: the
        outer product of the factors holding the support's stored qubits and
        of I/m on its m unstored ones, with the support, in order, brought to
        the front by one transpose; first raise DimensionTooLarge when that
        factor's qubits exceed DENSITY_CAP.  Returns the other factors, the
        factor as a (2^k, 2^k, 2^(a-k), 2^(a-k)) array for the k support
        qubits out of its a, and the labels of its a - k other qubits."""
        owner = {q: i for i, (_, named) in enumerate(self._factors) for q in named}
        hit = {owner[q] for q in support if q in owner}
        unstored = tuple(q for q in support if q not in owner)
        parts = [f for i, f in enumerate(self._factors) if i in hit]
        labels = tuple(q for _, named in parts for q in named) + unstored
        a, k = len(labels), len(support)
        if a > DENSITY_CAP:
            raise DimensionTooLarge(f"a density factor of {a} qubits exceeds "
                                    f"the cap of {DENSITY_CAP}")
        others = tuple(f for i, f in enumerate(self._factors) if i not in hit)
        if unstored:
            m = 2 ** len(unstored)
            parts.append((np.eye(m, dtype=complex) / m, unstored))
        # the row and the column axis of each qubit in the outer product,
        # where a part's row axes, then its column axes, follow the parts
        # before it
        rows, cols = [], []
        for _, named in parts:
            b, offset = len(named), 2 * len(rows)
            rows += range(offset, offset + b)
            cols += range(offset + b, offset + 2 * b)
        rest = tuple(q for q in labels if q not in support)
        where = {q: p for p, q in enumerate(labels)}
        pos = [where[q] for q in (*support, *rest)]
        rows, cols = [rows[p] for p in pos], [cols[p] for p in pos]
        # reshaping a part to binary axes only splits its axes: never a copy
        register = functools.reduce(np.multiply.outer, [
            matrix.reshape((2,) * (2 * len(named))) for matrix, named in parts]
            or [np.ones((), dtype=complex)])
        register = register.transpose(rows[:k] + cols[:k] + rows[k:] + cols[k:])
        side = 2 ** (a - k)
        return others, register.reshape(2 ** k, 2 ** k, side, side), rest

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
        others, x, rest = self._arrange(support)
        reduced = np.einsum("ijaa->ij", x)
        labels = support + rest
        branches = []
        for violated, op in ((1, mat), (0, np.eye(dim) - mat)):
            # tr(op rho op^†), the trace of the branch built below, not
            # expectation's tr(op rho): the two agree only up to rounding,
            # which a weight near BRANCH_PRUNE would magnify in its branch
            p = _clamp01(float(np.real(np.vdot(op, op @ reduced))))
            if p < BRANCH_PRUNE:
                continue
            rows = op @ x.reshape(dim, -1)
            post = np.matmul(op.conj() / p, rows.reshape(dim, dim, -1))
            state = object.__new__(DensityState)
            state.d, state.stock, state.stock_used = self.d, self.stock, self.stock_used
            # (support rows, support columns, other rows, other columns)
            # viewed as rows, then columns
            state._factors = others + (
                (post.reshape(x.shape).transpose(0, 2, 1, 3), labels),)
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
        others, x, rest = self._arrange(support)
        self._factors = others
        if rest:
            self._factors += ((np.einsum("iiab->ab", x), rest),)

    def swap_qubits(self, pairs) -> None:
        """Exchange qubit labels; pairs is a list of (a, b), applied in order."""
        perm = list(range(self.d))
        for a, b in pairs:
            perm[a], perm[b] = perm[b], perm[a]
        # qubit q now holds what qubit perm[q] held
        renamed = {old: q for q, old in enumerate(perm)}
        self._factors = tuple((matrix, tuple(renamed[q] for q in labels))
                              for matrix, labels in self._factors)

    def reduced(self, support) -> np.ndarray:
        """Reduced density matrix on the given qubits (in the given order);
        an unstored one enters the result as I/2 and stays unstored."""
        _, x, _ = self._arrange(support)
        # with no other qubit in the factor the front block is the matrix
        return x.reshape(x.shape[:2]) if x.shape[2] == 1 \
            else np.einsum("ijaa->ij", x)


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

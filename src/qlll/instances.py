"""Commuting k-local projector instances: construction, generation, validation, I/O.

An instance is a set of rank-r projectors on n qubits, each acting on at most
k qubits.  Rank-r bodies are kept first-class throughout: decomposing a
rank-r projector into rank-1 pieces does not preserve pairwise commutation,
so nothing here ever performs that decomposition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import InfeasibleLayout, MalformedProjector, ParseError

PROJECTOR_ATOL = 1e-9   # hermiticity / idempotence, max-entry norm
COMMUTE_ATOL = 1e-9     # pairwise commutator residual, max-entry norm
RANK_ATOL = 1e-6        # trace must round to an integer within this
LOG2E = math.log2(math.e)


# ---------------------------------------------------------------------------
# projector bodies

@dataclass(frozen=True)
class Diagonal:
    """Forbidden computational-basis patterns over the support order."""

    forbidden: frozenset

    def __post_init__(self):
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))


@dataclass(frozen=True, eq=False)
class Rotated:
    """A diagonal body conjugated by one single-qubit unitary per support qubit."""

    inner: Diagonal
    rotations: tuple  # of 2x2 complex ndarrays, aligned with the support order


@dataclass(frozen=True, eq=False)
class Explicit:
    """An explicit matrix on the support's 2^k-dimensional space."""

    matrix: np.ndarray


def _parse_patterns(forbidden, k: int) -> frozenset:
    """Forbidden bit-strings as tuples of 0/1 ints in support order; the one
    place where the string form of a diagonal body is read."""
    parsed = set()
    for pattern in forbidden:
        if len(pattern) != k or any(c not in "01" for c in pattern):
            raise MalformedProjector(f"bad forbidden pattern {pattern!r} for k={k}")
        parsed.add(tuple(int(c) for c in pattern))
    return frozenset(parsed)


def _read_no_bits(cells) -> tuple:
    return ()


class ClauseLookup(NamedTuple):
    """A diagonal clause compiled for bit-vector states.

    read(cells) picks the support's bits out of an indexable bit vector and
    the clause is violated exactly when that value is in forbidden.  read is
    an operator.itemgetter (a module-level function for an empty support), so
    the lookup pickles with its ProjectorSpec.
    """

    read: Callable
    forbidden: frozenset  # values of read(): bit tuples, bare ints when k == 1
    patterns: frozenset   # forbidden bit tuples in support order, any k


def _compile_clause(support: tuple, body: Diagonal) -> ClauseLookup:
    patterns = _parse_patterns(body.forbidden, len(support))
    if not support:
        return ClauseLookup(_read_no_bits, patterns, patterns)
    if len(support) == 1:
        # itemgetter with one index returns the item itself, not a 1-tuple
        return ClauseLookup(itemgetter(support[0]),
                            frozenset(p[0] for p in patterns), patterns)
    return ClauseLookup(itemgetter(*support), patterns, patterns)


@dataclass(eq=False)
class ProjectorSpec:
    """One projector: an ordered qubit support plus a body in one of three forms.

    Basis convention: support[0] is the most significant bit of the local
    2^k-dimensional index, matching the left-to-right reading of the
    forbidden bit-strings.  A diagonal body is compiled into `clause` once,
    at construction; `clause` is None for every other body.
    """

    support: tuple
    body: object  # Diagonal | Rotated | Explicit
    _mat: np.ndarray | None = field(default=None, init=False, repr=False)
    clause: ClauseLookup | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.support = tuple(int(q) for q in self.support)
        if len(set(self.support)) != len(self.support):
            raise MalformedProjector(f"duplicate qubits in support {self.support}")
        if any(q < 0 for q in self.support):
            raise MalformedProjector(f"negative qubit index in support {self.support}")
        if isinstance(self.body, Diagonal):
            self.clause = _compile_clause(self.support, self.body)

    @property
    def k(self) -> int:
        return len(self.support)

    def materialize(self) -> np.ndarray:
        """Dense 2^k x 2^k matrix of the body on the support space (cached)."""
        if self._mat is None:
            self._mat = _materialize_body(self.body, self.k)
            self._mat.setflags(write=False)
        return self._mat

    def rank(self) -> int:
        tr = float(np.real(np.trace(self.materialize())))
        r = int(round(tr))
        if abs(tr - r) > RANK_ATOL:
            raise MalformedProjector(f"trace {tr} does not round to an integer rank")
        return r

    def is_diagonal(self) -> bool:
        return isinstance(self.body, Diagonal)


def _materialize_body(body, k: int) -> np.ndarray:
    dim = 2 ** k
    if isinstance(body, Diagonal):
        mat = np.zeros((dim, dim), dtype=complex)
        for bits in _parse_patterns(body.forbidden, k):
            idx = sum(b << (k - 1 - i) for i, b in enumerate(bits))
            mat[idx, idx] = 1.0
        return mat
    if isinstance(body, Rotated):
        if len(body.rotations) != k:
            raise MalformedProjector("rotation count does not match support size")
        inner = _materialize_body(body.inner, k)
        u = np.eye(1, dtype=complex)
        for rot in body.rotations:
            rot = np.asarray(rot, dtype=complex)
            if rot.shape != (2, 2):
                raise MalformedProjector("rotations must be 2x2 matrices")
            u = np.kron(u, rot)
        return u @ inner @ u.conj().T
    if isinstance(body, Explicit):
        mat = np.asarray(body.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise MalformedProjector(f"matrix shape {mat.shape} != ({dim}, {dim})")
        return mat.copy()
    raise MalformedProjector(f"unknown body type {type(body).__name__}")


# ---------------------------------------------------------------------------
# instance container

@dataclass
class InstanceParams:
    k: int
    r: int
    g: int
    m: int


@dataclass(eq=False)
class Instance:
    n: int
    projectors: tuple
    params: InstanceParams
    neighborhood: tuple  # of tuples of projector indices, ascending
    commuting: bool
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.projectors)

    def is_diagonal(self) -> bool:
        return all(p.is_diagonal() for p in self.projectors)


def compute_neighborhood(projectors):
    """Per-projector list of overlapping projector indices (self included).

    Returns (neighborhood, g) with each list sorted ascending and
    g = max list length (1 when there are no projectors).
    """
    touching = {}  # qubit -> indices of the projectors acting on it
    for i, p in enumerate(projectors):
        for q in p.support:
            touching.setdefault(q, []).append(i)
    neighborhood = [
        tuple(sorted({j for q in p.support for j in touching[q]}))
        for p in projectors]
    g = max((len(nb) for nb in neighborhood), default=1)
    return tuple(neighborhood), max(g, 1)


@dataclass
class QlllCheck:
    satisfied: bool
    margin: float


def check_qlll_condition(params: InstanceParams) -> QlllCheck:
    """Strict local-lemma condition g < 2^k / (r e), reported via the margin
    k - log2(g e r).  Equality yields margin 0 and `not satisfied` (the
    solver's eta diverges there).  The one place the margin is evaluated:
    eta and the analytic failure bound read it from here; m is not read."""
    margin = params.k - math.log2(params.g * params.r) - LOG2E
    return QlllCheck(satisfied=margin > 0, margin=margin)


def derive_instance_params(projectors, ranks, g: int) -> InstanceParams:
    """(k, r, g, m) of a projector family: the largest support (at least 1),
    the largest positive rank (1 when there is none), the given largest
    neighborhood size g, and the projector count."""
    k = max((p.k for p in projectors), default=1)
    r = max((rank for rank in ranks if rank > 0), default=1)
    return InstanceParams(k=max(k, 1), r=r, g=g, m=len(projectors))


def _projector_residuals(mat: np.ndarray) -> tuple:
    """Max-entry hermiticity and idempotence residuals of a matrix."""
    return (float(np.max(np.abs(mat - mat.conj().T))),
            float(np.max(np.abs(mat @ mat - mat))))


def build_instance(n, projectors, meta=None) -> Instance:
    """Assemble an Instance, derive (k, r, g, m) and the neighborhood map.

    A body that is not a projector (hermiticity or idempotence residual
    above PROJECTOR_ATOL) is rejected; diagonal bodies are exact and skip
    that check.  Pairwise commutation is measured (max-entry commutator
    residual on the union support) unless all bodies are diagonal, which
    commute exactly.  Non-commuting inputs are flagged, not rejected.
    """
    projectors = tuple(projectors)
    for p in projectors:
        if any(q >= n for q in p.support):
            raise MalformedProjector(
                f"support {p.support} has an index >= n={n}")
        mat = p.materialize()  # surface shape errors early
        if not p.is_diagonal():
            herm, idem = _projector_residuals(mat)
            if max(herm, idem) > PROJECTOR_ATOL:
                raise MalformedProjector(
                    f"body on {p.support} is not a projector: hermiticity "
                    f"residual {herm:.3g}, idempotence residual {idem:.3g}")
    neighborhood, g = compute_neighborhood(projectors)
    params = derive_instance_params(projectors,
                                    [p.rank() for p in projectors], g)
    commuting = (all(p.is_diagonal() for p in projectors)
                 or max_commutator_residual(projectors) <= COMMUTE_ATOL)
    return Instance(n=n, projectors=projectors, params=params,
                    neighborhood=neighborhood, commuting=commuting,
                    meta=dict(meta or {}))


# ---------------------------------------------------------------------------
# commutation checks

def embed_on_union(mat: np.ndarray, positions, u: int) -> np.ndarray:
    """Embed a k-qubit operator into a u-qubit space, identity elsewhere.

    positions[i] is the u-space qubit carrying the operator's i-th qubit.
    """
    k = len(positions)
    full = np.kron(mat, np.eye(2 ** (u - k), dtype=complex))
    order = list(positions) + [q for q in range(u) if q not in positions]
    t = full.reshape((2,) * (2 * u))
    t = np.moveaxis(t, range(u), order)
    t = np.moveaxis(t, range(u, 2 * u), [u + q for q in order])
    return t.reshape(2 ** u, 2 ** u)


def pair_commutator_residual(a: ProjectorSpec, b: ProjectorSpec) -> float:
    """Max-entry norm of [A, B] materialized on the union support."""
    union = sorted(set(a.support) | set(b.support))
    pos = {q: i for i, q in enumerate(union)}
    u = len(union)
    ma = embed_on_union(a.materialize(), [pos[q] for q in a.support], u)
    mb = embed_on_union(b.materialize(), [pos[q] for q in b.support], u)
    return float(np.max(np.abs(ma @ mb - mb @ ma)))


def pair_residuals(projectors) -> dict:
    """{(i, j): commutator residual} over every overlapping pair, i < j;
    disjoint supports commute exactly and are left out."""
    residuals = {}
    for i, a in enumerate(projectors):
        for j in range(i + 1, len(projectors)):
            if set(a.support) & set(projectors[j].support):
                residuals[(i, j)] = pair_commutator_residual(a, projectors[j])
    return residuals


def max_commutator_residual(projectors) -> float:
    return max(pair_residuals(projectors).values(), default=0.0)


@dataclass
class ValidationReport:
    hermiticity: list
    idempotence: list
    ranks: list
    pair_residuals: dict
    params: InstanceParams
    commuting: bool


def validate_instance(instance: Instance) -> ValidationReport:
    """Per-projector and per-overlapping-pair residuals plus recomputed params."""
    herm, idem, ranks = [], [], []
    for p in instance.projectors:
        h, i = _projector_residuals(p.materialize())
        herm.append(h)
        idem.append(i)
        ranks.append(p.rank())
    residuals = pair_residuals(instance.projectors)
    _, g = compute_neighborhood(instance.projectors)
    params = derive_instance_params(instance.projectors, ranks, g)
    commuting = all(res <= COMMUTE_ATOL for res in residuals.values())
    return ValidationReport(hermiticity=herm, idempotence=idem, ranks=ranks,
                            pair_residuals=residuals, params=params,
                            commuting=commuting)


# ---------------------------------------------------------------------------
# generators

def generate_classical_instance(n, k, clause_count, max_neighborhood_g,
                                seed) -> Instance:
    """Random diagonal instance: each clause forbids one pattern of its k
    support qubits (rank 1), with every neighborhood kept within the cap by
    greedy placement.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    g_cap = int(max_neighborhood_g)
    if k > n:
        raise InfeasibleLayout(f"k={k} exceeds n={n}")
    for attempt in range(33):  # whole-layout restarts, then grouped packing
        if attempt < 32:
            supports = _place_supports(n, k, clause_count, g_cap, rng)
        else:
            supports = _place_supports_grouped(n, k, clause_count, g_cap, rng)
        if supports is None:
            continue
        projectors = []
        for sup in supports:
            pattern = "".join(str(b) for b in rng.integers(0, 2, size=k))
            projectors.append(ProjectorSpec(tuple(sup), Diagonal(frozenset({pattern}))))
        meta = {"generator": "classical", "seed": int(seed), "n": int(n),
                "k": int(k), "clauses": int(clause_count), "g_cap": g_cap}
        return build_instance(n, projectors, meta=meta)
    raise InfeasibleLayout(
        f"could not place {clause_count} {k}-clauses on {n} qubits with g <= {g_cap}")


def _place_supports(n, k, clause_count, g_cap, rng):
    supports = []
    per_qubit = {q: [] for q in range(n)}
    gamma = []  # current neighborhood size per placed clause, self included

    def feasible(candidate):
        neigh = {c for q in candidate for c in per_qubit[q]}
        if len(neigh) + 1 > g_cap:
            return False
        return all(gamma[c] + 1 <= g_cap for c in neigh)

    def accept(candidate):
        neigh = sorted({c for q in candidate for c in per_qubit[q]})
        for c in neigh:
            gamma[c] += 1
        gamma.append(len(neigh) + 1)
        idx = len(supports)
        supports.append(tuple(sorted(candidate)))
        for q in candidate:
            per_qubit[q].append(idx)

    for _ in range(clause_count):
        placed = False
        for _ in range(64):  # unconstrained random candidates
            candidate = rng.choice(n, size=k, replace=False).tolist()
            if feasible(candidate):
                accept(candidate)
                placed = True
                break
        if placed:
            continue
        unused = [q for q in range(n) if not per_qubit[q]]
        if len(unused) >= k:
            accept(rng.choice(unused, size=k, replace=False).tolist())
            continue
        # pack into one host clause's private qubits plus any unused ones
        hosts = [c for c in range(len(supports)) if gamma[c] < g_cap]
        rng.shuffle(hosts)
        for host in hosts:
            owned = [q for q in supports[host] if per_qubit[q] == [host]]
            pool = owned + unused
            if len(pool) >= k:
                candidate = list(rng.choice(pool, size=k, replace=False))
                if feasible(candidate):
                    accept(candidate)
                    placed = True
                    break
        if not placed:
            return None
    return supports


def _place_supports_grouped(n, k, clause_count, g_cap, rng):
    """Tight-packing fallback: groups of up to g_cap clauses share one support.

    Feasible whenever ceil(m / g) * k <= n; the free-form greedy above cannot
    reliably find such layouts.
    """
    groups = -(-clause_count // g_cap)
    if groups * k > n:
        return None
    qubits = rng.permutation(n)
    supports = []
    for c in range(clause_count):
        group = c % groups
        supports.append(tuple(sorted(int(q) for q in
                                     qubits[group * k:(group + 1) * k])))
    return supports


def haar_unitary_2x2(rng) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate_instance(instance: Instance, seed=None, unitaries=None) -> Instance:
    """Conjugate every projector by a fixed per-qubit 2x2 unitary.

    Samples one Haar-random unitary per qubit unless `unitaries` (a map
    qubit -> 2x2 matrix) is given.  Supports, ranks and the neighborhood are
    untouched; pairwise commutators are preserved up to floating-point noise.
    """
    if unitaries is None:
        rng = np.random.default_rng(seed)
        unitaries = {q: haar_unitary_2x2(rng) for q in range(instance.n)}
    rotated = []
    for p in instance.projectors:
        us = tuple(np.asarray(unitaries[q], dtype=complex) for q in p.support)
        if isinstance(p.body, Diagonal):
            body = Rotated(p.body, us)
        elif isinstance(p.body, Rotated):
            body = Rotated(p.body.inner,
                           tuple(u @ r for u, r in zip(us, p.body.rotations)))
        else:
            u = np.eye(1, dtype=complex)
            for uq in us:
                u = np.kron(u, uq)
            body = Explicit(u @ p.materialize() @ u.conj().T)
        rotated.append(ProjectorSpec(p.support, body))
    meta = dict(instance.meta)
    meta["rotated_seed"] = None if seed is None else int(seed)
    return build_instance(instance.n, rotated, meta=meta)


def random_instance(n, k, m, rank=1, seed=0, commuting=False) -> Instance:
    """Small random instance for verification harnesses.

    commuting=True: random diagonal clauses (|forbidden| = rank) conjugated by
    Haar single-qubit rotations.  commuting=False: independent Haar-random
    rank-`rank` projectors on random supports, generically non-commuting.
    """
    if k > n:
        raise InfeasibleLayout(f"k={k} exceeds n={n}")
    rng = np.random.default_rng(seed)
    projectors = []
    for _ in range(m):
        sup = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if commuting:
            patterns = rng.choice(2 ** k, size=rank, replace=False)
            forb = frozenset(format(int(p), f"0{k}b") for p in patterns)
            projectors.append(ProjectorSpec(sup, Diagonal(forb)))
        else:
            z = (rng.standard_normal((2 ** k, rank))
                 + 1j * rng.standard_normal((2 ** k, rank)))
            q, _ = np.linalg.qr(z)
            projectors.append(ProjectorSpec(sup, Explicit(q @ q.conj().T)))
    inst = build_instance(n, projectors,
                          meta={"generator": "random", "seed": int(seed)})
    if commuting:
        inst = rotate_instance(inst, seed=int(rng.integers(2 ** 32)))
    return inst


# ---------------------------------------------------------------------------
# serialization (JSON; complex numbers as [re, im] pairs)

def _c(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _mat_to_json(mat: np.ndarray) -> list:
    return [[_c(z) for z in row] for row in np.asarray(mat)]


def _mat_from_json(rows, what: str) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows],
                        dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad complex matrix in {what}: {exc}") from exc


def instance_to_dict(instance: Instance) -> dict:
    projs = []
    for p in instance.projectors:
        entry = {"support": list(p.support)}
        if isinstance(p.body, Diagonal):
            entry["kind"] = "diagonal"
            entry["forbidden"] = sorted(p.body.forbidden)
        elif isinstance(p.body, Rotated):
            entry["kind"] = "rotated"
            entry["forbidden"] = sorted(p.body.inner.forbidden)
            entry["rotations"] = [_mat_to_json(u) for u in p.body.rotations]
        else:
            entry["kind"] = "explicit"
            entry["matrix"] = _mat_to_json(p.body.matrix)
        projs.append(entry)
    return {"n": instance.n, "projectors": projs, "meta": instance.meta}


def instance_from_dict(data: dict) -> Instance:
    try:
        n = int(data["n"])
        raw = data["projectors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed top-level field: {exc}") from exc
    projectors = []
    for i, entry in enumerate(raw):
        where = f"projectors[{i}]"
        try:
            support = tuple(int(q) for q in entry["support"])
            kind = entry["kind"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if any(q < 0 or q >= n for q in support):
            raise ParseError(f"{where}: support {support} out of range for n={n}")
        if kind == "diagonal":
            body = Diagonal(frozenset(entry.get("forbidden", [])))
        elif kind == "rotated":
            body = Rotated(Diagonal(frozenset(entry.get("forbidden", []))),
                           tuple(_mat_from_json(u, where)
                                 for u in entry.get("rotations", [])))
        elif kind == "explicit":
            body = Explicit(_mat_from_json(entry.get("matrix", []), where))
        else:
            raise ParseError(f"{where}: unknown kind {kind!r}")
        try:
            projectors.append(ProjectorSpec(support, body))
        except MalformedProjector as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return build_instance(n, projectors, meta=data.get("meta", {}))
    except MalformedProjector as exc:
        raise ParseError(str(exc)) from exc


def save_instance(instance: Instance, path) -> None:
    text = json.dumps(instance_to_dict(instance), sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return instance_from_dict(data)

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlll.errors import InfeasibleLayout, MalformedProjector, ParseError
from qlll.instances import (
    Diagonal,
    Explicit,
    InstanceParams,
    ProjectorSpec,
    Rotated,
    build_instance,
    check_qlll_condition,
    compute_neighborhood,
    generate_classical_instance,
    haar_unitary_2x2,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    max_commutator_residual,
    pair_commutator_residual,
    pair_residuals,
    random_instance,
    rotate_instance,
    save_instance,
    validate_instance,
)


DATA = Path(__file__).parent / "data"


def diag(support, *patterns):
    return ProjectorSpec(tuple(support), Diagonal(frozenset(patterns)))


class TestNeighborhood:
    def test_disjoint_supports(self):
        nb, g = compute_neighborhood([diag([0, 1], "00"), diag([2, 3], "00")])
        assert nb == ((0,), (1,))
        assert g == 1

    def test_identical_supports(self):
        nb, g = compute_neighborhood([diag([0, 1], "00"), diag([0, 1], "11")])
        assert nb == ((0, 1), (0, 1))
        assert g == 2

    def test_chain_of_three(self):
        # shared qubits by hand: clause 1 overlaps 0 (qubit 2) and 2 (qubit 4)
        nb, g = compute_neighborhood([
            diag([0, 1, 2], "000"), diag([2, 3, 4], "000"), diag([4, 5, 6], "000")])
        assert nb[1] == (0, 1, 2)
        assert g == 3

    @staticmethod
    def pairwise(projectors):
        # the definition: j is in i's neighbourhood when their supports meet
        sets = [set(p.support) for p in projectors]
        nb = tuple(tuple(j for j, sj in enumerate(sets) if si & sj)
                   for si in sets)
        return nb, max(max((len(x) for x in nb), default=1), 1)

    @staticmethod
    def overlapping_pairs(projectors):
        # every (i, j), i < j, whose supports meet, in row-major order
        sets = [set(p.support) for p in projectors]
        return [(i, j) for i, si in enumerate(sets)
                for j in range(i + 1, len(sets)) if si & sets[j]]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_definition_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        # supports of 0..4 qubits in any order, empty ones included
        projectors = [
            diag(rng.permutation(n)[:int(rng.integers(0, min(n, 4) + 1))].tolist())
            for _ in range(int(rng.integers(0, 15)))]
        assert compute_neighborhood(projectors) == self.pairwise(projectors)
        inst = random_instance(6, 2, 5, seed=seed, commuting=bool(seed % 2))
        assert compute_neighborhood(inst.projectors) == self.pairwise(inst.projectors)
        # pair_residuals reads its pairs from the neighbourhood
        for family in (projectors, inst.projectors):
            assert list(pair_residuals(family)) == self.overlapping_pairs(family)

    @pytest.mark.parametrize("name", ["classical", "rotated"])
    def test_matches_pairwise_definition_fixtures(self, name):
        projectors = load_instance(DATA / f"{name}.json").projectors
        assert compute_neighborhood(projectors) == self.pairwise(projectors)

    def test_matches_pairwise_definition_generated(self):
        projectors = generate_classical_instance(200, 4, 150, 5, seed=1000).projectors
        assert compute_neighborhood(projectors) == self.pairwise(projectors)

    def test_reflexive_and_symmetric(self):
        inst = generate_classical_instance(12, 3, 5, 3, seed=2)
        for i, nb in enumerate(inst.neighborhood):
            assert i in nb
            for j in nb:
                assert i in inst.neighborhood[j]


class TestQlllCondition:
    def test_k3_r1_g2_satisfied(self):
        check = check_qlll_condition(InstanceParams(k=3, r=1, g=2, m=1))
        assert check.satisfied
        assert check.margin == pytest.approx(0.5573049591110366, abs=1e-12)

    def test_k3_r2_g2_not_satisfied(self):
        # 2^3/(2e) ~ 1.4715 < 2
        assert not check_qlll_condition(InstanceParams(k=3, r=2, g=2, m=1)).satisfied

    def test_k5_r1_g11_satisfied(self):
        # 32/e ~ 11.77 > 11
        assert check_qlll_condition(InstanceParams(k=5, r=1, g=11, m=1)).satisfied

    @given(k=st.integers(1, 8), r=st.integers(1, 4), g=st.integers(1, 40))
    def test_satisfied_iff_positive_margin(self, k, r, g):
        check = check_qlll_condition(InstanceParams(k=k, r=r, g=g, m=1))
        assert check.satisfied == (check.margin > 0)


class TestGenerator:
    def test_single_clause(self):
        inst = generate_classical_instance(3, 3, 1, 1, seed=0)
        assert inst.m == 1
        assert inst.params == InstanceParams(k=3, r=1, g=1, m=1) or inst.params.m == 1
        body = inst.projectors[0].body
        assert len(body.forbidden) == 1

    def test_disjoint_triples(self):
        inst = generate_classical_instance(9, 3, 3, 1, seed=1)
        assert inst.params.g == 1
        supports = [set(p.support) for p in inst.projectors]
        assert not (supports[0] & supports[1] or supports[0] & supports[2]
                    or supports[1] & supports[2])

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            inst = generate_classical_instance(20, 3, 12, 2, seed=7)
            path = tmp_path / name
            save_instance(inst, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_params_and_rank_one(self):
        inst = generate_classical_instance(20, 3, 12, 2, seed=7)
        assert inst.params.k == 3
        assert inst.params.r == 1
        assert inst.params.g <= 2
        assert inst.params.m == 12
        for p in inst.projectors:
            assert len(p.body.forbidden) == 1
            assert p.rank() == 1

    def test_infeasible_layout(self):
        with pytest.raises(InfeasibleLayout):
            generate_classical_instance(4, 3, 3, 1, seed=0)

    @pytest.mark.parametrize("n", [0, 2])
    def test_random_instance_refuses_k_above_n(self, n):
        # k is never clipped to n
        with pytest.raises(InfeasibleLayout, match=f"k=5 exceeds n={n}"):
            random_instance(n, 5, 2)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_neighborhood_cap_respected(self, seed):
        inst = generate_classical_instance(15, 3, 6, 2, seed=seed)
        assert inst.params.g <= 2


class TestRotation:
    def test_identity_rotation_is_noop(self):
        inst = generate_classical_instance(6, 2, 2, 2, seed=4)
        eye = {q: np.eye(2) for q in range(6)}
        rot = rotate_instance(inst, unitaries=eye)
        for a, b in zip(inst.projectors, rot.projectors):
            assert a.support == b.support
            np.testing.assert_allclose(a.materialize(), b.materialize(), atol=1e-12)

    def test_single_qubit_conjugation_by_hand(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        inst = build_instance(1, [diag([0], "1")])
        rot = rotate_instance(inst, unitaries={0: h})
        # H |1><1| H = |-><-| = [[.5,-.5],[-.5,.5]]
        np.testing.assert_allclose(rot.projectors[0].materialize(),
                                   [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        assert rot.projectors[0].rank() == 1

    def test_commutation_preserved(self):
        inst = generate_classical_instance(10, 3, 5, 3, seed=9)
        rot = rotate_instance(inst, seed=5)
        assert rot.commuting
        assert max_commutator_residual(rot.projectors) <= 1e-9

    def test_params_preserved(self):
        inst = generate_classical_instance(10, 3, 5, 3, seed=9)
        rot = rotate_instance(inst, seed=5)
        assert rot.params == inst.params or (
            rot.params.k == inst.params.k and rot.params.r == inst.params.r
            and rot.params.g == inst.params.g and rot.params.m == inst.params.m)
        assert rot.neighborhood == inst.neighborhood

    def test_rotating_rotated_is_one_product_rotation(self):
        inst = generate_classical_instance(8, 3, 4, 3, seed=3)
        rng = np.random.default_rng(11)
        first = {q: haar_unitary_2x2(rng) for q in range(8)}
        second = {q: haar_unitary_2x2(rng) for q in range(8)}
        twice = rotate_instance(rotate_instance(inst, unitaries=first),
                                unitaries=second)
        once = rotate_instance(inst, unitaries={q: second[q] @ first[q]
                                                for q in range(8)})
        for a, b in zip(twice.projectors, once.projectors):
            assert isinstance(a.body, Rotated)
            np.testing.assert_allclose(a.materialize(), b.materialize(),
                                       rtol=0, atol=1e-12)

    def test_rotating_explicit_keeps_ranks_and_commutation(self):
        # an entangled commuting triple: (1 - XXX)/2, (1 - Z0 Z1)/2, (1 - Z1 Z2)/2
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1, -1])
        xxx = np.kron(np.kron(x, x), x)
        zz = np.kron(z, z)
        inst = build_instance(3, [
            ProjectorSpec((0, 1, 2), Explicit((np.eye(8) - xxx) / 2)),
            ProjectorSpec((0, 1), Explicit((np.eye(4) - zz) / 2)),
            ProjectorSpec((1, 2), Explicit((np.eye(4) - zz) / 2))])
        assert inst.commuting
        rot = rotate_instance(inst, seed=2)
        assert all(isinstance(p.body, Explicit) for p in rot.projectors)
        assert [p.rank() for p in rot.projectors] == [4, 2, 2]
        assert rot.commuting
        assert max_commutator_residual(rot.projectors) <= 1e-9


class TestValidation:
    def test_diagonal_instance_exact(self):
        inst = generate_classical_instance(9, 3, 3, 2, seed=0)
        report = validate_instance(inst)
        assert report.commuting
        assert all(h == 0.0 for h in report.hermiticity)
        assert all(i == 0.0 for i in report.idempotence)
        assert all(res == 0.0 for res in report.pair_residuals.values())

    def test_noncommuting_pair_detected(self):
        # |0><0| vs |+><+| on the same qubit: commutator [[0,-.5],[.5,0]]... by hand
        plus = Explicit(np.full((2, 2), 0.5))
        inst = build_instance(1, [diag([0], "0"), ProjectorSpec((0,), plus)])
        assert not inst.commuting
        report = validate_instance(inst)
        assert not report.commuting
        assert report.pair_residuals[(0, 1)] == pytest.approx(0.5)

    def test_rotated_instance_commutes(self):
        rot = rotate_instance(generate_classical_instance(8, 2, 4, 2, seed=3), seed=1)
        assert validate_instance(rot).commuting

    def test_malformed_matrix(self):
        with pytest.raises(MalformedProjector):
            ProjectorSpec((0, 1), Explicit(np.eye(3))).materialize()

    def test_support_out_of_range(self):
        with pytest.raises(MalformedProjector):
            build_instance(2, [diag([0, 5], "00")])

    @pytest.mark.parametrize("make", [
        lambda: generate_classical_instance(9, 3, 3, 2, seed=0),
        lambda: rotate_instance(generate_classical_instance(8, 2, 4, 2, seed=3),
                                seed=1),
        lambda: random_instance(3, 2, 3, rank=2, seed=4, commuting=False),
        lambda: build_instance(2, []),
        lambda: build_instance(1, [diag([], "")]),
    ], ids=["diagonal", "rotated", "explicit", "empty", "empty-support"])
    def test_params_match_build(self, make):
        inst = make()
        assert validate_instance(inst).params == inst.params

    @pytest.mark.parametrize("matrix", [
        [[1, 0.9], [0, 0]],      # idempotent, not Hermitian
        [[0.5, 0], [0, 0]],      # Hermitian, not idempotent
    ], ids=["not-hermitian", "not-idempotent"])
    def test_body_that_is_not_a_projector(self, matrix, tmp_path):
        spec = ProjectorSpec((0,), Explicit(np.array(matrix, dtype=complex)))
        with pytest.raises(MalformedProjector, match="not a projector"):
            build_instance(1, [spec])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "meta": {}, "projectors": [{
            "support": [0], "kind": "explicit",
            "matrix": [[[re, 0.0] for re in row] for row in matrix]}]}))
        with pytest.raises(ParseError, match="not a projector"):
            load_instance(path)

    def test_projector_residuals_within_tolerance(self):
        # a body off by 1e-12 is still a projector; the residuals are reported
        mat = np.array([[1 + 1e-12, 1e-12], [0, 0]], dtype=complex)
        inst = build_instance(1, [ProjectorSpec((0,), Explicit(mat))])
        report = validate_instance(inst)
        assert report.hermiticity == [pytest.approx(1e-12, rel=1e-3, abs=0)]
        assert report.idempotence == [pytest.approx(1e-12, rel=1e-3, abs=0)]

    def test_rank_zero_projectors_allowed(self):
        inst = build_instance(2, [ProjectorSpec((0,), Diagonal(frozenset()))])
        assert inst.params.r == 1  # all-rank-0 falls back to r = 1
        assert inst.projectors[0].rank() == 0


class TestProjectorProperties:
    @given(seed=st.integers(0, 10 ** 6), rank=st.integers(1, 3),
           commuting=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_integer_rank(self, seed, rank, commuting):
        inst = random_instance(3, 2, 2, rank=rank, seed=seed, commuting=commuting)
        for p in inst.projectors:
            mat = p.materialize()
            assert np.max(np.abs(mat @ mat - mat)) <= 1e-9
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-9
            assert p.rank() == rank

    def test_pair_commutator_symmetric_embedding(self):
        a = diag([0, 2], "01")
        b = diag([2, 3], "10")
        assert pair_commutator_residual(a, b) == pytest.approx(0.0, abs=1e-12)


class TestSerialization:
    def test_empty_instance_roundtrip(self, tmp_path):
        inst = build_instance(1, [])
        path = tmp_path / "empty.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == 1
        assert back.m == 0

    def test_resave_byte_identical(self, tmp_path):
        inst = rotate_instance(generate_classical_instance(8, 2, 4, 2, seed=3), seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, p1)
        save_instance(load_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_for_field_roundtrip(self):
        inst = random_instance(3, 2, 2, rank=2, seed=8, commuting=False)
        back = instance_from_dict(instance_to_dict(inst))
        assert instance_to_dict(back) == instance_to_dict(inst)
        for a, b in zip(inst.projectors, back.projectors):
            np.testing.assert_allclose(a.materialize(), b.materialize(), atol=0)

    def test_support_out_of_range_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "projectors": [{"support": [0, 7], '
                        '"kind": "diagonal", "forbidden": ["00"]}], "meta": {}}')
        with pytest.raises(ParseError):
            load_instance(path)

    def test_garbage_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_instance(path)

"""Seeded `qlll run --no-timing` output pinned byte for byte, and the exact
enumeration outputs pinned leaf by leaf.

The fixtures under tests/data were written by `qlll run` before the diagonal
backend's clause lookup was compiled; any change to the order of RNG draws or
to the recorded values shows up here as a byte difference.  Both runs pass a
small --threshold so that the abort path (Failure records) is pinned too.
Regenerate a fixture only for a change that is meant to alter the output:

    qlll run tests/data/classical.json --backend diagonal --trials 120 \\
        --seed 5 --threshold 3 --no-timing -o tests/data/classical_diagonal.jsonl
    qlll run tests/data/rotated.json --backend trajectory --trials 60 \\
        --seed 9 --threshold 2 --no-timing -o tests/data/rotated_trajectory.jsonl

tests/data/enumeration.json pins the order and values of what the FIX walker
hands out when it enumerates or samples: history-tree leaves and pruned mass
of small random instances with the stock register on and off, the exact
outcome laws of tests/data/rotated.json (density backend) and of its diagonal
core (diagonal backend), and the order of FIX returns in one seeded
trajectory run.  It was written while sampling and enumeration still had a
walker each.  Regenerate it, again only for a change meant to alter it,
with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qlll.backends import init_fully_mixed
from qlll.cli import main
from qlll.instances import (ProjectorSpec, build_instance, load_instance,
                            random_instance)
from qlll.solver import (SolverConfig, derive_params, execute_fix_loop,
                         neighborhood_orders)
from qlll.verifiers import enumerate_history_tree, enumerate_outcome_distribution

DATA = Path(__file__).parent / "data"
ENUMERATION = DATA / "enumeration.json"
PROBABILITY_ATOL = 1e-15

GOLDEN = {
    "diagonal": ("classical.json", "classical_diagonal.jsonl",
                 ["--trials", "120", "--seed", "5", "--threshold", "3"]),
    "trajectory": ("rotated.json", "rotated_trajectory.jsonl",
                   ["--trials", "60", "--seed", "9", "--threshold", "2"]),
}


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_seeded_run_matches_golden(backend, tmp_path, capsys):
    instance, golden, extra = GOLDEN[backend]
    out = tmp_path / "run.jsonl"
    code = main(["run", str(DATA / instance), "--backend", backend,
                 "--workers", "1", "--no-timing", *extra, "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    expected = (DATA / golden).read_bytes()
    assert b'"result": "Failure"' in expected and b'"result": "Success"' in expected
    assert out.read_bytes() == expected


def _history_trees():
    trees = []
    for i in range(4):
        rank, commuting = 1 + i // 2, i % 2 == 0
        inst = random_instance(3, 2, 2, rank=rank, seed=40 + i,
                               commuting=commuting)
        config = SolverConfig(threshold_override=2)
        for stock in (True, False):
            tree = enumerate_history_tree(inst, config, materialize_stock=stock)
            trees.append({
                "seed": 40 + i, "rank": rank, "commuting": commuting,
                "stock": stock, "pruned_mass": tree.pruned_mass,
                "leaves": [[list(leaf.branch_string), leaf.failures,
                            leaf.result, leaf.probability]
                           for leaf in tree.leaves]})
    return trees


def _outcome_laws():
    rotated = load_instance(DATA / "rotated.json")
    core = build_instance(rotated.n, [ProjectorSpec(p.support, p.body.inner)
                                      for p in rotated.projectors])
    laws = {}
    for backend, inst in (("density", rotated), ("diagonal", core)):
        law = enumerate_outcome_distribution(inst, 3, backend=backend)
        laws[backend] = [[list(bits), p] for bits, p in law.items()]
    return laws


def _fix_returns():
    inst = load_instance(DATA / "rotated.json")
    rng = np.random.default_rng(20)
    orders = neighborhood_orders(inst, "ascending", rng)
    state = init_fully_mixed("trajectory", inst.n, rng=rng)
    leaves, returns = [], []
    execute_fix_loop(inst, orders, derive_params(inst, SolverConfig()).threshold_T,
                     state, lambda *leaf: leaves.append(leaf),
                     on_return=returns.append)
    (outcomes, _, _, _, result), = leaves
    return {"seed": 20, "result": result, "outcomes": list(outcomes),
            "returns": returns}


def enumeration_record() -> dict:
    return {"history_trees": _history_trees(), "outcome_laws": _outcome_laws(),
            "fix_returns": _fix_returns()}


def _assert_same(got, want, where):
    """Equal structure and order; floats within PROBABILITY_ATOL."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(
            got, want, rel_tol=0.0, abs_tol=PROBABILITY_ATOL), where
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    else:
        assert type(got) is type(want) and got == want, where


def test_enumeration_matches_golden():
    want = json.loads(ENUMERATION.read_text())
    assert any(leaf[2] == "Failure" for tree in want["history_trees"]
               for leaf in tree["leaves"])
    assert any(tree["pruned_mass"] > 0 for tree in want["history_trees"])
    assert 1 in want["fix_returns"]["outcomes"]
    _assert_same(json.loads(json.dumps(enumeration_record())), want, "record")


if __name__ == "__main__":
    ENUMERATION.write_text(json.dumps(enumeration_record(), indent=1) + "\n")

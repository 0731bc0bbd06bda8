"""Seeded `qlll run --no-timing` output pinned byte for byte.

The fixtures under tests/data were written by `qlll run` before the diagonal
backend's clause lookup was compiled; any change to the order of RNG draws or
to the recorded values shows up here as a byte difference.  Both runs pass a
small --threshold so that the abort path (Failure records) is pinned too.
Regenerate a fixture only for a change that is meant to alter the output:

    qlll run tests/data/classical.json --backend diagonal --trials 120 \\
        --seed 5 --threshold 3 --no-timing -o tests/data/classical_diagonal.jsonl
    qlll run tests/data/rotated.json --backend trajectory --trials 60 \\
        --seed 9 --threshold 2 --no-timing -o tests/data/rotated_trajectory.jsonl
"""

from pathlib import Path

import pytest

from qlll.cli import main

DATA = Path(__file__).parent / "data"

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

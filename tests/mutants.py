"""Mutation check for the test suite: plant each one-line fault of MUTANTS in
a copy of the tree, run the suite there, and report whether a test failed.

    python tests/mutants.py     # every mutant, up to about 30 s each

Each mutant prints KILLED (a test failed), SURVIVED (every test passed) or
ERROR (pytest ended otherwise, e.g. the copy did not import).  The exit
status is 1 when any mutant is not KILLED.  pytest does not collect this file
(its name does not start with test_); the copies go to the temporary
directory (set TMPDIR to move it).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, old, new): `old` occurs exactly once in `file`
MUTANTS = [
    ("failure band at 30 sigma", "src/qlll/verifiers.py",
     "band = delta + 3.0 *", "band = delta + 30.0 *"),
    ("satisfaction tolerance 0.5", "src/qlll/solver.py",
     "SATISFACTION_ATOL = 1e-8", "SATISFACTION_ATOL = 0.5"),
    ("threshold row holds above -1", "src/qlll/verifiers.py",
     "row_ok = (main_margin > 0 and", "row_ok = (main_margin > -1 and"),
    ("random traversal does not shuffle", "src/qlll/solver.py",
     "rng.shuffle(order)", "order.sort()"),
    ("probe without the satisfied-set check", "src/qlll/solver.py",
     "            if lost:", "            if False:"),
    ("probe without the returned-energy check", "src/qlll/solver.py",
     "            if energy > SATISFACTION_ATOL:", "            if False:"),
    ("projector tolerance 1e9", "src/qlll/instances.py",
     "PROJECTOR_ATOL = 1e-9", "PROJECTOR_ATOL = 1e9"),
    ("entropy claim always holds", "src/qlll/verifiers.py",
     '"holds": lhs <= rhs + ENTROPY_SLACK}', '"holds": True}'),
    ("branch pruning at 1e-3", "src/qlll/backends.py",
     "BRANCH_PRUNE = 1e-12", "BRANCH_PRUNE = 1e-3"),
]


def mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text()
    count = text.count(old)
    assert count == 1, f"{old!r} occurs {count} times in {file}, not once"
    path.write_text(text.replace(old, new))


def verdict(file: str, old: str, new: str) -> str:
    """Run the suite, stopping at the first failure, on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="qlll-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        mutate(tree, file, old, new)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "KILLED"}.get(code, "ERROR")


def main() -> int:
    survivors = 0
    for name, file, old, new in MUTANTS:
        result = verdict(file, old, new)
        survivors += result != "KILLED"
        print(f"{result:8}  {name}  ({file})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

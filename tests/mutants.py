"""Mutation check for the test suite: plant each one-line fault of MUTANTS in
a copy of the tree, run the suite there, and report whether a test failed.

    python tests/mutants.py     # every mutant, up to about 30 s each

Each mutant prints KILLED (a test failed), SURVIVED (every test passed) or
ERROR (pytest ended otherwise, e.g. the copy did not import).  A mutant
marked equivalent changes no behaviour a test can see (the same arithmetic
in a slower form, say), so it is expected to survive and is not counted as
a survivor.  The exit status is 1 when any mutant ends otherwise than
expected: not KILLED, or, for an equivalent one, not SURVIVED.  pytest does
not collect this file (its name does not start with test_); the copies go to
the temporary directory (set TMPDIR to move it).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, old, new, equivalent): `old` occurs exactly once in `file`
MUTANTS = [
    ("failure band at 30 sigma", "src/qlll/verifiers.py",
     "band = delta + 3.0 *", "band = delta + 30.0 *", False),
    ("satisfaction tolerance 0.5", "src/qlll/solver.py",
     "SATISFACTION_ATOL = 1e-8", "SATISFACTION_ATOL = 0.5", False),
    ("threshold row holds above -1", "src/qlll/verifiers.py",
     "row_ok = (main_margin > 0 and", "row_ok = (main_margin > -1 and", False),
    ("random traversal does not shuffle", "src/qlll/solver.py",
     "rng.shuffle(order)", "order.sort()", False),
    ("probe without the satisfied-set check", "src/qlll/solver.py",
     "            if lost:", "            if False:", False),
    ("probe without the returned-energy check", "src/qlll/solver.py",
     "            if energy > SATISFACTION_ATOL:", "            if False:", False),
    ("projector tolerance 1e9", "src/qlll/instances.py",
     "PROJECTOR_ATOL = 1e-9", "PROJECTOR_ATOL = 1e9", False),
    ("entropy claim always holds", "src/qlll/verifiers.py",
     '"holds": lhs <= rhs + ENTROPY_SLACK}', '"holds": True}', False),
    ("branch pruning at 1e-3", "src/qlll/backends.py",
     "BRANCH_PRUNE = 1e-12", "BRANCH_PRUNE = 1e-3", False),
    ("trajectory renormalisation by 1/norm^2", "src/qlll/backends.py",
     "tensor *= 1.0 / norm", "tensor *= 1.0 / norm ** 2", False),
    # Killed by the bit-for-bit kernel test alone: from a real basis state
    # the walk under the transpose, the conjugate of P, is the complex
    # conjugate of the true walk, so every Born weight and energy agrees.
    ("trajectory GEMM with the transpose", "src/qlll/backends.py",
     "out = mat @ block", "out = mat.T @ block", False),
    ("density step factor without the parts' axis offsets",
     "src/qlll/backends.py", "b, offset = len(named), 2 * len(rows)",
     "b, offset = len(named), 0", False),
    ("density branch keeps the parent's pre-measurement factor",
     "src/qlll/backends.py", "state._factors = others + (",
     "state._factors = self._factors + (", False),
    ("diagonal fresh bits popped from the wrong end", "src/qlll/backends.py",
     "cells[q] = pop()", "cells[q] = pop(0)", False),
    # killed only by a support that straddles a refill
    ("diagonal refill in front of the remaining fresh bits",
     "src/qlll/backends.py", "self._fresh = fresh = block + fresh",
     "self._fresh = fresh = fresh + block", False),
    # killed by test_dimension_cap: 9 fresh qubits would count as none
    ("density cap without the unstored support qubits", "src/qlll/backends.py",
     "        if a > DENSITY_CAP:", "        if a - len(unstored) > DENSITY_CAP:",
     False),
    ("unstored support qubits joined as I, not I/m", "src/qlll/backends.py",
     "np.eye(m, dtype=complex) / m,", "np.eye(m, dtype=complex),", False),
    # killed by TestFactors (test_branch_shares_unmeasured_factors first): a
    # read must leave the factors as they were
    ("density read stores its arranged factor", "src/qlll/backends.py",
     "        side = 2 ** (a - k)\n",
     "        if hit:\n            self._factors = others + ((np.moveaxis(\n"
     "                register, range(k, 2 * k), range(a, a + k)),\n"
     "                (*support, *rest)),)\n"
     "        side = 2 ** (a - k)\n", False),
    ("kept branch stored without the (0, 2, 1, 3) interleave",
     "src/qlll/backends.py", "post.reshape(x.shape).transpose(0, 2, 1, 3)",
     "post.reshape(x.shape)", False),
    ("branch columns multiplied by op, not op.conj()", "src/qlll/backends.py",
     "np.matmul(op.conj() / p,", "np.matmul(op / p,", False),
    # numpy divides a complex number by n + 0j as (re + im*0) * (1/n)
    ("trajectory renormalisation by division", "src/qlll/backends.py",
     "tensor *= 1.0 / norm", "tensor /= norm", True),
    ("unstored support qubit joined as |0>, not |bits[q]>",
     "src/qlll/backends.py", "_BASIS[self._bits[q]] for q in unstored",
     "_BASIS[0] for q in unstored", False),
    ("trajectory Born weight squared", "src/qlll/backends.py",
     "violated = int(self.rng.random() < p)",
     "violated = int(self.rng.random() < p * p)", False),
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
        # test_mutants checks this table against the unmutated tree, which a
        # mutated copy differs from by construction
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                        "test_mutants.py")
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
    unexpected = 0
    for name, file, old, new, equivalent in MUTANTS:
        result = verdict(file, old, new)
        unexpected += result != ("SURVIVED" if equivalent else "KILLED")
        mark = " (equivalent)" if equivalent else ""
        print(f"{result:8}  {name}{mark}  ({file})", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

"""The mutation table of tests/mutants.py stays in step with the code."""

from mutants import MUTANTS, ROOT


def test_every_mutant_target_occurs_once():
    # a mutant is planted by replacing its `old` text, so a refactor that
    # removes or repeats that text leaves the table stale
    counts = {name: (ROOT / file).read_text().count(old)
              for name, file, old, _, _ in MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}

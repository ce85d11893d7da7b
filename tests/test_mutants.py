"""The mutant list in tests/mutants.py stays applicable: CI runs the mutants
themselves, and this keeps a refactor from leaving one behind unnoticed."""

from __future__ import annotations

import re

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_once_and_names_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text("utf-8").count(m.old) == 1, m.name
        assert bool(m.tests) != bool(m.equivalent), m.name
        for test in m.tests:
            path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[\w+\])?", test).groups()
            assert f"\ndef {name}(" in (ROOT / path).read_text("utf-8"), test

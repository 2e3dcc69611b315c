"""Lint: the package decides nothing with ``assert``.

``python -O`` and ``PYTHONOPTIMIZE`` strip assert statements, so a check
written as one would silently pass there.  Every check in ``src/poissonlab``
raises explicitly instead.
"""

import ast
from pathlib import Path

import poissonlab

SOURCES = sorted(Path(poissonlab.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"experiments.py", "measures.py", "oracles.py"}


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

"""Lint: the exact oracles stay independent of the Monte Carlo paths.

``oracles.py`` is the reference that the samplers and counters are checked
against, so it must not reach them: it imports only the package's exact
building blocks, and never names the stream sampler or the occurrence
counter.
"""

import ast
from pathlib import Path

import poissonlab

ORACLES = Path(poissonlab.__file__).parent / "oracles.py"
ALLOWED_MODULES = {"errors", "measures", "point_process", "words"}
MONTE_CARLO_NAMES = {"SequenceGenerator", "draw", "count_word_occurrences"}


def _tree():
    return ast.parse(ORACLES.read_text(encoding="utf-8"))


def _package_imports(tree):
    """(module, names) of every import of a poissonlab module, the module
    named relative to the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").startswith("poissonlab"):
                module = node.module.removeprefix("poissonlab").lstrip(".")
            else:
                continue
            if module:
                found.append((module, {alias.name for alias in node.names}))
            else:  # from . import measures
                found += [(alias.name, set()) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.removeprefix("poissonlab.").split(".")[0], set())
                      for alias in node.names if alias.name.startswith("poissonlab.")]
    return found


def test_oracles_import_only_the_exact_modules():
    imports = _package_imports(_tree())
    assert {module for module, _ in imports} >= {"measures", "point_process"}
    assert {module for module, _ in imports} <= ALLOWED_MODULES


def test_oracles_never_name_the_sampler_or_the_counter():
    tree = _tree()
    imported = set().union(*(names for _, names in _package_imports(tree)))
    used = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})
    assert imported & MONTE_CARLO_NAMES == set()
    assert used & MONTE_CARLO_NAMES == set()

"""Lint: the exact oracles stay independent of the Monte Carlo paths.

``oracles.py`` is the reference that the samplers and counters are checked
against, and ``oracle_suite.py`` holds the rows that check it, so neither may
reach them: each imports only the package's exact building blocks, and never
names the stream sampler, the occurrence counters or the scan functionals.
``point_process.py``, one of those blocks, may not even define them.
"""

import ast
from pathlib import Path

import pytest

import poissonlab

PACKAGE = Path(poissonlab.__file__).parent
# module -> (the package modules it may import, those it must import)
ALLOWED_MODULES = {
    "oracles": ({"errors", "measures", "point_process", "words"},
                {"measures", "point_process"}),
    "oracle_suite": ({"errors", "measures", "oracles", "point_process", "poisson_stats",
                      "words"}, {"oracles"}),
}
MONTE_CARLO_NAMES = {"SequenceGenerator", "draw", "count_word_occurrences", "_count_words",
                     "OccurrenceIndex", "phi_k_S", "phi_k_j_S"}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


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


def _monte_carlo_names(tree):
    """The Monte Carlo names that ``tree`` imports or uses."""
    imported = set().union(*(names for _, names in _package_imports(tree)))
    used = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})
    return (imported | used) & MONTE_CARLO_NAMES


@pytest.mark.parametrize("module", sorted(ALLOWED_MODULES))
def test_imports_only_the_exact_modules(module):
    allowed, needed = ALLOWED_MODULES[module]
    imported = {name for name, _ in _package_imports(_tree(module))}
    assert needed <= imported <= allowed


@pytest.mark.parametrize("module", sorted(ALLOWED_MODULES))
def test_never_names_the_sampler_or_the_counters(module):
    assert _monte_carlo_names(_tree(module)) == set()


def test_point_process_defines_and_names_no_monte_carlo_name():
    # The index sets are exact math that the oracles import, so the counters
    # live beside the code that draws the streams.  ``measures`` is exempt:
    # the benchmark's tracer reads ``measures.SequenceGenerator`` by name.
    tree = _tree("point_process")
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert (_monte_carlo_names(tree) | defined & MONTE_CARLO_NAMES) == set()


def test_the_checker_flags_an_import_of_draw():
    tree = ast.parse("from .measures import IidModel, draw\n")
    assert _package_imports(tree) == [("measures", {"IidModel", "draw"})]
    assert _monte_carlo_names(tree) == {"draw"}

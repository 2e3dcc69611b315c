"""The benchmark's seed-0 documents and the shipped configs still give their
pinned report hashes.

``perfbench/workloads.py`` generates the documents each benchmark workload
runs and ``perfbench/pinned.json`` holds the hash every run must reproduce
(the per-document report hashes joined with ``+``).  ``BASELINE`` in
``perfbench/verify_configs.py`` holds the report hash of each config under
``configs/``.  All are loaded from their files, unchanged, so a change to the
package that moves a workload's or a shipped config's report fails here and
not only as an incorrect output in a benchmark or verification run.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest
from test_report_pins import report_hash

from poissonlab.experiments import execute, parse_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
PINNED = json.loads((PERFBENCH / "pinned.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_seed_zero_hashes_are_pinned(name):
    hashes = [report_hash(execute(parse_config(doc), None)[1])
              for doc in WORKLOADS.docs(name, 0)]
    assert "+".join(hashes) == PINNED["program"][name]["0"]


def _config_baseline() -> dict[str, str]:
    """``BASELINE`` of ``verify_configs.py``, read as a literal: the script
    imports the benchmark runner, which these tests do not load."""
    tree = ast.parse((PERFBENCH / "verify_configs.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "BASELINE")


CONFIG_BASELINE = _config_baseline()


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_config_hashes_match_the_baseline(path):
    payload = execute(parse_config(json.loads(path.read_text())), None)[1]
    assert report_hash(payload) == CONFIG_BASELINE.get(path.stem)

"""The benchmark's seed-0 documents still give their pinned report hashes.

``perfbench/workloads.py`` generates the documents each benchmark workload
runs and ``perfbench/pinned.json`` holds the hash every run must reproduce
(the per-document report hashes joined with ``+``).  Both are loaded from
their files, unchanged, so a change to the package that moves a workload's
report fails here and not only as an incorrect output in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from test_report_pins import report_hash

from poissonlab.experiments import execute, parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

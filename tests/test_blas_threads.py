"""BLAS runs on one thread in a poissonlab process, and reports do not depend
on the BLAS thread count.

Importing ``poissonlab`` sets ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 unless the caller set a BLAS thread variable.
Each check runs in a fresh interpreter, since numpy reads the variables
once, when it loads.  The two documents below run the only float BLAS
products of the package: ``delta_norm``'s Gram matrix (mixing) and the
count-law DP's ``step @ dp`` (the oracle's ``count_law_tv_decay`` row).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_report_pins import THREE

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**preset):
    return {**{k: v for k, v in os.environ.items() if k not in BLAS_VARS}, **preset}


def _python(code, **preset):
    r = subprocess.run([sys.executable, "-c", code], env=_env(**preset),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


PROBE = """
import json, os
import poissonlab, numpy
task = "/proc/self/task"
print(json.dumps({"env": {k: os.environ.get(k) for k in %r},
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
""" % (BLAS_VARS,)


def test_import_sets_one_blas_thread():
    got = _python(PROBE)
    assert got["env"] == {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                          "OMP_NUM_THREADS": None}
    if got["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert got["threads"] == 1


def test_preset_variable_is_left_alone():
    got = _python(PROBE, OMP_NUM_THREADS="2")
    assert got["env"] == {"OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None,
                          "OMP_NUM_THREADS": "2"}


DOCS = {
    "mixing_markov": (json.loads((ROOT / "configs" / "mixing_markov.json").read_text()),
                      "f9933a58ea977949"),
    "oracle_three": ({"mode": "oracle", "model": THREE, "k": 5, "seed": 3},
                     "3d0c235a917e3ff3"),
}


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["default", "openblas-2"])
@pytest.mark.parametrize("name", sorted(DOCS))
def test_report_does_not_depend_on_blas_threads(tmp_path, name, preset):
    doc, expected = DOCS[name]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    r = subprocess.run([sys.executable, "-m", "poissonlab.cli", doc["mode"],
                        "--config", str(path), "--out", str(out)],
                       env=_env(**preset), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())["report"]
    text = json.dumps(report, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected

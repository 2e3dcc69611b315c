"""Self-tests of the benchmark, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import verify_configs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, merged  # noqa: E402

TIMEOUT = 120
REF = {"run_s": 1.0, "setup_s": 1.0}


def small(workload: str, seed: int) -> list[dict]:
    """The workload's documents cut to test size."""
    docs = workloads.docs(workload, seed)
    for doc in docs:
        if doc["mode"] in ("annealed", "quenched"):
            doc.update(n_samples=200, n_x_replicas=1, min_passing_replicas=1)
        if doc["mode"] == "quenched" and "n_cap" in doc:
            doc["n_cap"] = 20000
    return docs


def spawn(docs, trace=False, reference=False):
    res, err = run.spawn(docs, run.WORK / f"test-{time.monotonic_ns()}", TIMEOUT,
                         trace=trace, reference=reference)
    assert err is None, err
    return res


def test_traced_and_untraced_hashes_agree():
    for workload in workloads.WORKLOADS:
        docs = small(workload, 3)
        plain, traced = spawn(docs), spawn(docs, trace=True)
        assert Path(plain["package"]).parent == BENCH.parent / "src"
        assert Path(spawn(docs, reference=True)["package"]).parent == run.REFERENCE
        assert plain["trace"] is None and len(traced["trace"]) == len(docs)
        assert traced["hash"] == plain["hash"]
        metrics = layer_metrics(merged(traced["trace"]))
        assert metrics["mixing_concentration.index.lookups"] >= 200
        assert metrics["rng.derive_seed.calls"] >= 200


def _bindings():
    """Every function bound in a poissonlab module, and every class method."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "poissonlab" or name.startswith("poissonlab."):
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType):
                    out[(name, attr)] = value
                elif isinstance(value, type) and value.__module__.startswith("poissonlab"):
                    for meth, fn in vars(value).items():
                        out[(name, attr, meth)] = fn
    return out


def test_every_wrapped_binding_is_restored(tmp_path):
    from poissonlab import experiments, rng

    before = _bindings()
    cfg = experiments.parse_config(small("iid_counting", 1)[1])
    with Tracer() as tracer:
        during = _bindings()
        # the name bound by `from .rng import uniform_block` is swapped too
        assert experiments.uniform_block is not before[("poissonlab.experiments", "uniform_block")]
        assert experiments.uniform_block.__wrapped__ is rng.uniform_block.__wrapped__
        experiments.execute(cfg, tmp_path)
    assert sum(during[key] is not before[key] for key in before) > 50
    assert _bindings() == before
    assert all(before[key] is value for key, value in _bindings().items())
    assert tracer.summary()["spans"]["experiments.execute"]["calls"] == 1


def test_same_seed_same_hash_other_seed_other_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.docs(workload, 5) == workloads.docs(workload, 5)
        assert workloads.docs(workload, 5) != workloads.docs(workload, 6)
    first, again, other = (spawn(small("iid_counting", s)) for s in (5, 5, 6))
    assert first["hash"] == again["hash"]
    assert first["hash"] != other["hash"]


def test_failures_are_counted_not_raised():
    bad = [{"mode": "annealed", "model": workloads.FAIR, "k": 0}]
    m = run.measure(bad, 0.01, False, {}, time.monotonic() + TIMEOUT)
    assert len(m["failures"]) == m["attempted"] > 0
    assert all(r["kind"] in ("program", "reference") and "error" in r for r in m["runs"])
    assert all(": exit 2: error: $.k" in f for f in m["failures"])
    assert run.metrics_of(m, False, REF)["ok_frac"] == 0.0

    m = run.measure(small("iid_counting", 0), 0.01, False, {"program": "0" * 16},
                    time.monotonic() + TIMEOUT)
    program = [r for r in m["runs"] if r["kind"] == "program"]
    assert program and all("differs from 0000000000000000" in r["error"] for r in program)
    assert len(m["failures"]) == len(program)
    assert all("error" not in r for r in m["runs"] if r["kind"] == "reference")


def test_program_is_timed_against_the_reference():
    def r(kind, run_s, trace=None):
        return {"kind": kind, "trace": trace, "run_s": run_s, "peak_rss_mb": 100.0}

    runs = [r("reference", 2.0), r("program", 3.0), r("reference", 4.0),
            {"kind": "program", "trace": None, "error": "exit 1"},
            r("reference", 1.0), r("program", 1.0),
            {"kind": "reference", "trace": None, "error": "exit 1"},
            r("program", 8.0), r("reference", 9.0), r("program", 50.0, trace={})]
    m = {"attempted": 10, "failures": ["exit 1", "exit 1"], "runs": runs,
         "setups": [{"kind": "program", "setup_s": 0.6},
                    {"kind": "reference", "setup_s": 0.3}]}
    # 3 over (2 + 4) / 2; 1 over 1, its failed neighbour left out; 8 over 9
    assert run.neighbour_ratios(runs) == [1.0, 1.0, 8 / 9]
    metrics = run.metrics_of(m, False, {"run_s": 5.0, "setup_s": 0.5})
    assert metrics["run_s"] == 5.0 and metrics["setup_s"] == 1.0
    assert metrics["ok_frac"] == 1.0 - 2 / 10


def test_every_workload_is_pinned_at_the_default_seed():
    for kind in ("program", "reference"):
        for workload in workloads.WORKLOADS:
            hashes = run.PINNED[kind][workload]["0"].split("+")
            assert len(hashes) == len(workloads.docs(workload, 0))
        # at seed 0 the exact documents are the shipped configs, with baseline hashes
        assert run.PINNED[kind]["cf_and_exact"]["0"].split("+")[1:] == [
            verify_configs.BASELINE[c] for c in ("oracle_markov", "mixing_markov",
                                                 "concentration_fair")]
    assert set(run.PINNED["reference_s"]) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "iid_counting", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)
    empty = {"attempted": 1, "failures": [], "setups": [], "runs": []}
    assert [m["name"] for m in run.SPEC["end_to_end"]] == \
        list(run.metrics_of(empty, False, REF))
    assert [m["name"] for m in run.SPEC["per_layer"]] == \
        list(layer_metrics({"spans": {}, "layers": {}})) + ["trace.overhead_frac"]

"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` wraps a fixed list of class methods and swaps every
module binding of the package's public functions, among them the name
``experiments.uniform_block``.  These tests load the tracer from its file,
unchanged, so a change to the package that removes or renames one of those
names fails here and not only in a traced benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from poissonlab import experiments, rng
from poissonlab.experiments import parse_config, to_jsonable

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
DOC = {"mode": "annealed", "model": {"type": "iid", "probs": ["1/2", "1/2"]}, "k": 6,
       "n_samples": 200, "seed": 4}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report_text(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2)


def test_every_wrapped_method_and_binding_exists():
    for module, cls, meth, _, _ in _tracer().METHODS:
        owner = getattr(importlib.import_module(f"poissonlab.{module}"), cls)
        assert meth in vars(owner), (module, cls, meth)
    assert experiments.uniform_block is rng.uniform_block


def test_traced_execute_gives_the_untraced_report(tmp_path):
    cfg = parse_config(DOC)
    execute, uniform_block = experiments.execute, rng.uniform_block
    _, plain = execute(cfg, None)
    with _tracer().Tracer() as tracer:
        assert experiments.execute.__wrapped__ is execute
        assert experiments.uniform_block.__wrapped__ is uniform_block
        _, traced = experiments.execute(cfg, tmp_path)
    assert experiments.execute is execute
    assert experiments.uniform_block is uniform_block
    spans = tracer.summary()["spans"]
    assert spans["experiments.execute"]["calls"] == 1
    assert spans["point_process.count_word_occurrences"]["calls"] > 0
    assert spans["measures.take"]["calls"] > 0  # every stream is drawn by take
    assert _report_text(traced) == _report_text(plain)


def test_one_index_lookup_per_stream_chunk_for_every_set(monkeypatch):
    # two target sets, two replicas, and streams taken in several chunks
    monkeypatch.setattr(experiments, "_BATCH_ELEMS", 64)
    cfg = parse_config({**DOC, "mode": "quenched", "n_x_replicas": 2, "n_cap": 400,
                        "sets": [[["0", "1", False, True]], [["1", "3", True, False]]]})
    _, plain = experiments.execute(cfg, None)
    with _tracer().Tracer() as tracer:
        _, traced = experiments.execute(cfg, None)
    spans = tracer.summary()["spans"]
    builds = spans["mixing_concentration.index.build"]["calls"]
    assert builds > 2  # more than one chunk per replica
    assert spans["mixing_concentration.index.lookup"]["calls"] == builds
    assert _report_text(traced) == _report_text(plain)

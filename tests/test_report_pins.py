"""Report pins: small annealed and quenched configs, one per model path.

Each config's ``report`` section is hashed as in the ROADMAP recipe (first
16 hex digits of the sha256 of its canonical JSON) and must match the value
pinned here, so any change to word sampling, stream drawing, planning or
counting that alters a report, even in one count, fails this test.
"""

import hashlib
import json

import pytest

from poissonlab.experiments import execute, parse_config, to_jsonable

FAIR = {"type": "iid", "probs": ["1/2", "1/2"]}
THREE = {"type": "iid", "probs": ["1/2", "1/3", "1/6"]}
TAIL = {"type": "iid", "tail_ratio": "1/2"}
MARKOV = {"type": "markov", "transition": [["9/10", "1/10"], ["1/5", "4/5"]]}
GAUSS = {"type": "gauss_cf"}
HALF = [["0", "1/2", False, True]]
QUARTERS = [["0", "1/4", False, True], ["1/2", "3/4", False, True]]

PINS = [
    ({"mode": "annealed", "model": FAIR, "k": 8, "n_samples": 300},
     "71476b86a1a0e3ea"),
    ({"mode": "annealed", "model": THREE, "k": 5, "n_samples": 300,
      "sets": [HALF, QUARTERS]}, "e5ee7966287c0024"),
    ({"mode": "annealed", "model": TAIL, "k": 3, "n_samples": 200,
      "n_cap": 5000}, "970934b4b587fe1d"),
    ({"mode": "annealed", "model": MARKOV, "k": 5, "n_samples": 200,
      "n_cap": 20000}, "26eca28e12d8a7be"),
    ({"mode": "annealed", "model": GAUSS, "k": 2, "n_samples": 100,
      "n_cap": 20000}, "e3c6d37c172472b3"),
    ({"mode": "quenched", "model": FAIR, "k": 8, "n_samples": 300,
      "n_x_replicas": 2}, "e7c8f0a366cf0307"),
    ({"mode": "quenched", "model": MARKOV, "k": 5, "n_samples": 200,
      "n_cap": 20000}, "e110e3da22252fd1"),
    ({"mode": "quenched", "model": GAUSS, "k": 3, "n_samples": 200,
      "n_cap": 20000}, "2afa36809751f7c6"),
    ({"mode": "quenched", "model": THREE, "k": 5, "n_samples": 300,
      "n_x_replicas": 2, "sets": [HALF, QUARTERS]}, "97e215ad08030209"),
    ({"mode": "quenched", "model": TAIL, "k": 3, "n_samples": 200,
      "n_cap": 5000}, "b403a3ae1cd41ee3"),
]


def report_hash(payload) -> str:
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("doc,expected", PINS,
                         ids=[f"{d['mode']}-{i}" for i, (d, _) in enumerate(PINS)])
def test_report_hash_is_pinned(doc, expected):
    _, payload = execute(parse_config(dict(doc, seed=3)), None)
    assert report_hash(payload) == expected

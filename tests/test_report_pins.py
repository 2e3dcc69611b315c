"""Report pins: small configs, one per model path and mode.

Each config's ``report`` section is hashed as in the ROADMAP recipe (first
16 hex digits of the sha256 of its canonical JSON) and must match the value
pinned here, so any change to word sampling, stream drawing, planning or
counting that alters a report, even in one count, fails this test.  The
CLI's printed summary is pinned the same way, one small document per mode.
"""

import contextlib
import hashlib
import io
import json

import pytest

from poissonlab import cli
from poissonlab.experiments import execute, parse_config, to_jsonable

FAIR = {"type": "iid", "probs": ["1/2", "1/2"]}
THREE = {"type": "iid", "probs": ["1/2", "1/3", "1/6"]}
TAIL = {"type": "iid", "tail_ratio": "1/2"}
MARKOV = {"type": "markov", "transition": [["9/10", "1/10"], ["1/5", "4/5"]]}
GAUSS = {"type": "gauss_cf"}
# zero diagonal: every word with a repeated symbol has measure zero
ZERO_DIAG = {"type": "markov", "transition": [["0", "1/2", "1/2"], ["1/2", "0", "1/2"],
                                              ["1/2", "1/2", "0"]]}
HALF = [["0", "1/2", False, True]]
QUARTERS = [["0", "1/4", False, True], ["1/2", "3/4", False, True]]
T_GRID = [0.5, 2.0, 8.0, 20.0]
THIRD = {"type": "iid", "probs": ["1/3", "2/3"]}
CHAIN3 = {"type": "markov", "transition": [["1/2", "1/4", "1/4"], ["1/3", "1/3", "1/3"],
                                           ["1/6", "1/2", "1/3"]]}

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
    ({"mode": "concentration", "model": FAIR, "k": 6, "n_samples": 200,
      "functional": "phi1", "t_grid": T_GRID}, "4f36f876b431ce81"),
    ({"mode": "concentration", "model": FAIR, "k": 6, "n_samples": 200,
      "functional": "phi2", "t_grid": T_GRID}, "4cc999e6c8102c61"),
    ({"mode": "concentration", "model": MARKOV, "k": 8, "n_samples": 200,
      "functional": "phi1", "t_grid": T_GRID}, "9be84cddc2f5a54e"),
    ({"mode": "mixing", "model": MARKOV, "k": 8}, "f9933a58ea977949"),
    # truncated: the report's `complete` is false
    ({"mode": "concentration", "model": MARKOV, "k": 6, "n_samples": 200,
      "functional": "phi2", "t_grid": T_GRID}, "3c0a1870192fb239"),
    ({"mode": "concentration", "model": ZERO_DIAG, "k": 5, "n_samples": 200,
      "functional": "phi2", "t_grid": T_GRID}, "8cd15a043d6a9b8e"),
    ({"mode": "concentration", "model": ZERO_DIAG, "k": 5, "n_samples": 200,
      "functional": "phi2", "t_grid": T_GRID, "j": 1}, "84f81a3b1a271d91"),
    ({"mode": "quenched", "model": GAUSS, "k": 3, "n_samples": 200,
      "n_cap": 20000, "sets": [HALF, QUARTERS]}, "46b12dccc715eb35"),
    # the automaton DP steps over a symbol the word does not use
    ({"mode": "oracle", "model": THREE, "k": 5}, "3d0c235a917e3ff3"),
    # the i.i.d. all-zero lags and the bound-only CF report
    ({"mode": "mixing", "model": FAIR, "k": 8}, "f856046b441eabc5"),
    ({"mode": "mixing", "model": GAUSS, "k": 8}, "8abf5fd9535d51c0"),
    # phi1 on streams whose windows differ in measure, so the value varies by
    # replica: the fair coin gives every window the same float measure.  The
    # first scan stops short of n_cap at the reach of (0, 1], the second does not
    ({"mode": "concentration", "model": THIRD, "k": 4, "n_samples": 200,
      "n_cap": 5000, "functional": "phi1", "t_grid": [0.5, 1, 2], "seed": 5},
     "f5c2e49d4b543c44"),
    ({"mode": "concentration", "model": MARKOV, "k": 6, "n_samples": 200,
      "functional": "phi1", "t_grid": [0.5, 1, 2], "seed": 5}, "322c236fa72b893f"),
    # phi1 on CF digits: no measure floor, so every window up to n_cap is scanned
    ({"mode": "concentration", "model": GAUSS, "k": 3, "n_samples": 200,
      "n_cap": 2000, "functional": "phi1", "t_grid": [0.5, 1, 2], "seed": 5},
     "c51a70765c156466"),
    # the variance row passes over the words within the prefix-states guard,
    # some of them on 64-bit enumeration keys
    ({"mode": "oracle", "model": CHAIN3, "k": 5}, "8a9c1272ed86a5fc"),
]


def report_hash(payload) -> str:
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("doc,expected", PINS,
                         ids=[f"{d['mode']}-{i}" for i, (d, _) in enumerate(PINS)])
def test_report_hash_is_pinned(doc, expected):
    _, payload = execute(parse_config({"seed": 3, **doc}), None)
    assert report_hash(payload) == expected


# (document, exit code, hash of the CLI's stdout with the output directory
# written as OUT): every summary line each mode prints, PASS and FAIL
# verdicts, SKIP rows, an n/a TV and the bound-only mixing report
CLI_PINS = [
    ({"mode": "annealed", "model": THREE, "k": 5, "n_samples": 300,
      "sets": [HALF, QUARTERS]}, 1, "f427e58fb503f976"),
    # every sample truncated: no usable count, so TV is n/a
    ({"mode": "annealed", "model": FAIR, "k": 5, "n_samples": 100, "n_cap": 10,
      "sets": [[["1", "2", False, True]]]}, 1, "2df23088727b3011"),
    ({"mode": "quenched", "model": FAIR, "k": 8, "n_samples": 300,
      "n_x_replicas": 2}, 1, "75ab1abf73fdfcb4"),
    ({"mode": "oracle", "model": THREE, "k": 5}, 0, "178a6b7bb8078bf7"),
    ({"mode": "oracle", "model": GAUSS, "k": 5}, 0, "49fe6948bb11aa60"),
    ({"mode": "concentration", "model": FAIR, "k": 6, "n_samples": 200,
      "functional": "phi1", "t_grid": T_GRID}, 0, "4aaa261adb8e82c6"),
    ({"mode": "mixing", "model": MARKOV, "k": 8}, 0, "8fd6d1654c411d3c"),
    ({"mode": "mixing", "model": GAUSS, "k": 8}, 0, "d8d9466575fa41db"),
]


@pytest.mark.parametrize("doc,code,expected", CLI_PINS,
                         ids=[f"{d['mode']}-{i}" for i, (d, _, _) in enumerate(CLI_PINS)])
def test_cli_stdout_is_pinned(tmp_path, doc, code, expected):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 3, **doc}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main([doc["mode"], "--config", str(path), "--out", str(tmp_path / "out")])
    text = out.getvalue().replace(str(tmp_path / "out"), "OUT")
    assert got == code
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, text

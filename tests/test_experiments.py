"""Experiment runners: config validation, runner equivalence, artifacts, CLI.

The annealed runner (words planned together, streams drawn in batches and
scanned by one vectorized kernel) is cross-checked against a literal
per-sample, per-position reference loop with identical seed derivations, so
the batched counting has an independent witness.
"""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from poissonlab.errors import ConfigError, InsufficientDataError
from poissonlab.experiments import (_draw, default_n_cap, execute, parse_config,
                                    poisson_self_test, run_annealed,
                                    run_mixing, run_oracle_suite, run_quenched)
from poissonlab.measures import (GaussCFModel, IidModel, cylinder_prob_exact,
                                 make_generator, model_from_spec, sample_word)
from poissonlab.point_process import j_set, required_prefix_length
from poissonlab.poisson_stats import fold_histogram
from poissonlab.rng import derive_seed

FAIR_SPEC = {"type": "iid", "probs": ["1/2", "1/2"]}
BIASED_SPEC = {"type": "iid", "probs": ["3/4", "1/4"]}
THREE_SPEC = {"type": "iid", "probs": ["1/2", "1/3", "1/6"]}
MARKOV_SPEC = {"type": "markov",
               "transition": [["9/10", "1/10"], ["1/5", "4/5"]]}


def _doc(**over):
    doc = {"mode": "annealed", "model": FAIR_SPEC, "k": 5,
           "n_samples": 120, "seed": 9}
    doc.update(over)
    return doc


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(_doc())
        assert cfg.mode == "annealed"
        assert cfg.k == 5
        assert cfg.tv_tolerance == 0.05
        assert len(cfg.sets) == 1
        assert cfg.sets[0].label() == "(0, 1]"
        assert cfg.n_cap == default_n_cap(cfg.model, 5, cfg.sets)
        assert cfg.warnings == ()

    def test_underscore_keys_are_comments(self):
        cfg = parse_config(_doc(_note="pilot run"))
        assert cfg.k == 5

    @pytest.mark.parametrize("doc,needle", [
        (_doc(bogus=1), "$.bogus"),
        (_doc(mode="nope"), "$.mode"),
        ({"mode": "annealed", "k": 5}, "$.model"),
        ({"mode": "annealed", "model": FAIR_SPEC}, "$.k"),
        (_doc(k=0), "$.k"),
        (_doc(k="five"), "$.k"),
        (_doc(seed=1 << 64), "$.seed"),
        (_doc(model={"type": "iid", "probs": ["1/2", "1/3"]}), "$.model"),
        (_doc(sets=[[["0", "1", False, True]], [["2", "1", False, True]]]),
         "$.sets[1]"),
        (_doc(sets=[]), "$.sets"),
        (_doc(tv_tolerance=0.0), "$.tv_tolerance"),
        (_doc(tv_tolerance=1.5), "$.tv_tolerance"),
        (_doc(n_x_replicas=2, min_passing_replicas=3),
         "$.min_passing_replicas"),
        (_doc(n_cap=3), "$.n_cap"),
        (_doc(t_grid=[1.0, -2.0]), "$.t_grid"),
        (_doc(functional="phi3"), "$.functional"),
        (_doc(truncations=[0]), "$.truncations"),
        (_doc(strict="yes"), "$.strict"),
        (_doc(t_grid=[float("nan"), 5.0]), "$.t_grid"),
        (_doc(t_grid=[float("inf")]), "$.t_grid"),
        (_doc(truncations=[50, 2001]), "$.truncations"),
    ])
    def test_error_paths(self, doc, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert needle in str(err.value)

    def test_strict_needs_samples(self):
        with pytest.raises(InsufficientDataError):
            parse_config(_doc(n_samples=50))
        cfg = parse_config(_doc(n_samples=50, strict=False))
        assert cfg.n_samples == 50

    def test_low_cap_warns(self):
        cfg = parse_config(_doc(n_cap=8))
        assert any("n_cap" in w for w in cfg.warnings)

    def test_min_passing_default(self):
        cfg = parse_config(_doc(mode="quenched", n_x_replicas=10))
        assert cfg.min_passing_replicas == 9


class TestDefaultNCap:
    def test_fair(self):
        model = model_from_spec(FAIR_SPEC)
        cfg = parse_config(_doc(k=14))
        assert default_n_cap(model, 14, cfg.sets) == 163840

    def test_gauss(self):
        assert default_n_cap(GaussCFModel(), 8, ()) == 10**7


class TestAnnealed:
    def _reference_counts(self, cfg):
        """Literal per-sample, per-position loop with the runner's seed labels."""
        out = np.zeros(cfg.n_samples, dtype=np.int64)
        trunc = np.zeros(cfg.n_samples, dtype=bool)
        S, k = cfg.sets[0], cfg.k
        for i in range(cfg.n_samples):
            w = sample_word(cfg.model, k, derive_seed(cfg.seed, 1, i))
            J = j_set(cylinder_prob_exact(cfg.model, w), S)
            if J.is_empty():
                continue
            need = min(required_prefix_length(k, J), cfg.n_cap)
            x = make_generator(cfg.model, derive_seed(cfg.seed, 2, i)).take(need).tolist()
            for a, b in J.ranges:
                for pos in range(a, b + 1):
                    if pos + k - 1 > len(x):
                        trunc[i] = True
                    elif tuple(x[pos - 1: pos - 1 + k]) == w:
                        out[i] += 1
        return out, trunc

    @pytest.mark.parametrize("model_spec", [FAIR_SPEC, BIASED_SPEC, THREE_SPEC, MARKOV_SPEC])
    def test_fast_path_matches_reference_loop(self, model_spec):
        # n_cap = 60 truncates every model's rarer words except the fair coin's
        cfg = parse_config(_doc(model=model_spec, k=5, n_samples=150, n_cap=60))
        rep = run_annealed(cfg)
        ref_counts, ref_trunc = self._reference_counts(cfg)
        sr = rep.sets[0]
        assert sr.histogram == fold_histogram(ref_counts[~ref_trunc].tolist(), sr.j_max)
        assert sr.truncated_histogram == fold_histogram(ref_counts[ref_trunc].tolist(), sr.j_max)
        assert sr.n_truncated == int(ref_trunc.sum())
        assert sr.n_used + sr.n_truncated == cfg.n_samples
        assert (sr.n_truncated > 0) == (model_spec is not FAIR_SPEC)

    def test_fair_has_no_truncation(self):
        # dyadic mu: every word needs the same prefix, under the default cap
        cfg = parse_config(_doc(k=5, n_samples=150))
        rep = run_annealed(cfg)
        assert rep.sets[0].n_truncated == 0
        assert rep.sets[0].n_used == 150

    def test_markov_generic_path(self):
        # rho = 0.9 converges slowly in k, so the systematic distance at
        # k = 6 is about 0.14 with the full index coverage; this exercises
        # Markov stream drawing and counting, not the limit
        cfg = parse_config(_doc(model=MARKOV_SPEC, k=6, n_samples=400,
                                tv_tolerance=0.25, n_cap=400000))
        rep = run_annealed(cfg)
        assert rep.passed
        assert rep.sets[0].truncated_fraction == 0.0
        assert rep.sets[0].tv_set < 0.25
        assert rep.sets[0].kallenberg["condition1"] == "PASS"

    def test_empty_target_set(self):
        cfg = parse_config(_doc(sets=[[]], n_samples=150))
        rep = run_annealed(cfg)
        sr = rep.sets[0]
        assert sr.size == 0.0
        assert sr.histogram == {0: 150}
        assert sr.tv_set == 0.0

    def test_degenerate_k_reported_faithfully(self):
        # k = 1 counts are far from Poisson; the report must say FAIL
        cfg = parse_config(_doc(k=1, n_samples=400))
        rep = run_annealed(cfg)
        assert not rep.passed
        assert rep.sets[0].tv_set > 0.15

    def test_two_sets_independent_histograms(self):
        half = [["0", "1/2", False, True]]
        quarter_union = [["0", "1/4", False, True], ["1/2", "3/4", False, True]]
        cfg = parse_config(_doc(sets=[half, quarter_union], n_samples=200))
        rep = run_annealed(cfg)
        assert len(rep.sets) == 2
        assert rep.sets[0].size == 0.5
        assert rep.sets[1].size == 0.5
        assert rep.sets[1].label() if callable(rep.sets[1].label) else True

    def test_mode_guard(self):
        cfg = parse_config(_doc(mode="oracle"))
        with pytest.raises(ConfigError):
            run_annealed(cfg)


class TestQuenched:
    def test_small_run_passes(self):
        cfg = parse_config(_doc(mode="quenched", k=8, n_samples=500,
                                n_x_replicas=3, seed=5, tv_tolerance=0.1))
        res = run_quenched(cfg)
        assert len(res.replicas) == 3
        assert res.summary.passing_replicas == sum(r.passed for r in res.replicas)
        assert res.summary.passed
        for r, rep in enumerate(res.replicas):
            assert rep.replica_index == r
            assert rep.mode == "quenched"

    def test_deterministic(self):
        cfg = parse_config(_doc(mode="quenched", k=6, n_samples=150,
                                n_x_replicas=2, seed=77))
        a = run_quenched(cfg)
        b = run_quenched(cfg)
        assert a == b

    def test_replicas_differ(self):
        cfg = parse_config(_doc(mode="quenched", k=6, n_samples=150,
                                n_x_replicas=2, seed=77))
        res = run_quenched(cfg)
        assert res.replicas[0].sets[0].histogram \
            != res.replicas[1].sets[0].histogram


    @staticmethod
    def _reference_counts(cfg, r):
        """Literal per-word, per-position loop with the runner's seed labels."""
        words = [sample_word(cfg.model, cfg.k, derive_seed(cfg.seed, 4, r, i))
                 for i in range(cfg.n_samples)]
        js = [[j_set(cylinder_prob_exact(cfg.model, w), S) for S in cfg.sets] for w in words]
        need = max(required_prefix_length(cfg.k, J) for row in js for J in row)
        x_len = min(max(need, cfg.k), cfg.n_cap)
        x = make_generator(cfg.model, derive_seed(cfg.seed, 3, r)).take(x_len).tolist()
        counts = np.zeros((len(cfg.sets), cfg.n_samples), dtype=np.int64)
        trunc = np.zeros((len(cfg.sets), cfg.n_samples), dtype=bool)
        for i, (w, row) in enumerate(zip(words, js)):
            for si, J in enumerate(row):
                for a, b in J.ranges:
                    for pos in range(a, b + 1):
                        if pos + cfg.k - 1 > x_len:
                            trunc[si, i] = True
                        elif tuple(x[pos - 1: pos - 1 + cfg.k]) == w:
                            counts[si, i] += 1
        return counts, trunc

    # the geometric model has no finite base, so its index is hashed
    @pytest.mark.parametrize("model_spec", [FAIR_SPEC, THREE_SPEC,
                                            {"type": "iid", "tail_ratio": "1/2"}])
    def test_matches_reference_loop(self, model_spec):
        half = [["0", "1/2", False, True]]
        quarters = [["0", "1/4", False, True], ["1/2", "3/4", False, True]]
        cfg = parse_config(_doc(mode="quenched", model=model_spec, k=3, n_samples=150,
                                n_x_replicas=2, sets=[half, quarters], n_cap=60))
        res = run_quenched(cfg)
        for r, rep in enumerate(res.replicas):
            counts, trunc = self._reference_counts(cfg, r)
            for si, sr in enumerate(rep.sets):
                c, t = counts[si], trunc[si]
                assert sr.histogram == fold_histogram(c[~t].tolist(), sr.j_max)
                assert sr.truncated_histogram == fold_histogram(c[t].tolist(), sr.j_max)


class TestDraw:
    @pytest.mark.parametrize("model_spec", [FAIR_SPEC, BIASED_SPEC, THREE_SPEC,
                                            {"type": "iid", "probs": ["1/2", "1/2", "0"]},
                                            MARKOV_SPEC])
    @pytest.mark.parametrize("length", [1, 14, 70000])
    def test_rows_equal_take(self, model_spec, length):
        model = model_from_spec(model_spec)
        if length > 14 and model_spec is MARKOV_SPEC:
            length = 3000  # the Markov sampler steps in Python
        seeds = derive_seed(11, np.arange(5))
        got = _draw(model, seeds, length)
        assert got.shape == (5, length)
        for row, seed in zip(got, seeds.tolist()):
            assert np.array_equal(row, make_generator(model, seed).take(length))

    # rows that fit a chunk, rows longer than one, and chunks of one value
    @pytest.mark.parametrize("length,chunk", [(50, 120), (300, 64), (7, 1), (14, 1 << 16)])
    def test_chunks_tile_the_matrix(self, monkeypatch, length, chunk):
        from poissonlab import experiments

        model = model_from_spec(THREE_SPEC)
        seeds = derive_seed(5, np.arange(7))
        whole = _draw(model, seeds, length)
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
        assert np.array_equal(_draw(model, seeds, length), whole)
        for row, seed in zip(whole, seeds.tolist()):
            assert np.array_equal(row, make_generator(model, seed).take(length))


class TestOracleMode:
    def test_fair_suite_all_pass(self):
        cfg = parse_config(_doc(mode="oracle"))
        rep = run_oracle_suite(cfg)
        assert rep.passed
        names = {row.name for row in rep.rows}
        assert "expectation_sandwich" in names
        assert "variance_dual_path" in names
        assert "count_law_tv_decay" in names
        assert all(row.status == "PASS" for row in rep.rows)

    def test_undefined_majorant_is_skipped(self):
        cfg = parse_config(_doc(mode="oracle", k=4, sets=[[["0", "1e-30", False, True]]]))
        rep = run_oracle_suite(cfg)
        statuses = {row.name: row.status for row in rep.rows}
        assert statuses["scan_length_majorant"] == "SKIP"
        assert rep.passed

    def test_gauss_suite_skips_rational_only_rows(self):
        cfg = parse_config(_doc(mode="oracle", model={"type": "gauss_cf"}))
        rep = run_oracle_suite(cfg)
        assert rep.passed
        statuses = {row.name: row.status for row in rep.rows}
        assert statuses["variance_dual_path"] == "SKIP"
        assert "PASS" in statuses.values()


class TestMixingMode:
    def test_markov(self):
        cfg = parse_config(_doc(mode="mixing", model=MARKOV_SPEC, sets=[]))
        rep = run_mixing(cfg)
        assert rep.passed
        assert rep.eta_supported
        assert rep.eta_lags[0] == pytest.approx(0.7, abs=1e-15)
        assert rep.eta_entrywise_below_profile
        norms = [v for _, v in rep.truncation_norms]
        assert norms == sorted(norms)
        assert norms[-1] <= rep.analytic_bound + 1e-9

    def test_iid_all_lags_vanish(self):
        cfg = parse_config(_doc(mode="mixing", sets=[]))
        rep = run_mixing(cfg)
        assert rep.passed
        assert all(v == 0.0 for v in rep.eta_lags)
        assert rep.truncation_norms[-1][1] == pytest.approx(1.0, abs=1e-9)

    def test_gauss_bound_only(self):
        cfg = parse_config(_doc(mode="mixing", model={"type": "gauss_cf"},
                                sets=[]))
        rep = run_mixing(cfg)
        assert rep.eta_lags is None
        assert not rep.eta_supported
        assert "UNSUPPORTED" in rep.eta_note
        assert rep.analytic_bound > 1.0


def test_poisson_self_test():
    out = poisson_self_test(1.0, 50000, 2026)
    assert out["passed"]
    assert out["tv"] <= out["threshold"]


class TestExecuteArtifacts:
    def test_report_and_csvs(self, tmp_path):
        cfg = parse_config(_doc(k=8, n_samples=400))
        code, payload = execute(cfg, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {"report", "meta"}
        assert doc["report"]["passed"] is True
        assert "created_utc" in doc["meta"]
        csv = (tmp_path / "histogram_0.csv").read_text().splitlines()
        assert csv[0] == "j,frequency,empirical_prob,poisson_prob,abs_diff"
        assert len(csv) == doc["report"]["sets"][0]["j_max"] + 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(_doc(k=8, n_samples=400))
        a, b = tmp_path / "a", tmp_path / "b"
        execute(cfg, a)
        execute(cfg, b)
        da = json.loads((a / "report.json").read_text())
        db = json.loads((b / "report.json").read_text())
        assert da["report"] == db["report"]  # meta may differ, report not
        assert (a / "histogram_0.csv").read_bytes() \
            == (b / "histogram_0.csv").read_bytes()

    def test_concentration_artifacts(self, tmp_path):
        cfg = parse_config(_doc(mode="concentration", k=6, seed=13,
                                n_samples=200, t_grid=[2.0, 5.0]))
        code, rep = execute(cfg, tmp_path)
        assert code == 0
        lines = (tmp_path / "exceedance.csv").read_text().splitlines()
        assert lines[0] == "t,empirical_prob,theoretical_bound,se,flag"
        assert len(lines) == 3

    def test_mixing_artifacts(self, tmp_path):
        cfg = parse_config(_doc(mode="mixing", model=MARKOV_SPEC, sets=[]))
        code, rep = execute(cfg, tmp_path)
        assert code == 0
        lines = (tmp_path / "eta_table.csv").read_text().splitlines()
        assert lines[0] == "lag,eta"
        assert len(lines) == cfg.max_lag + 1


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "poissonlab.cli", *args],
                              capture_output=True, text=True)

    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_pass_and_seed_override(self, tmp_path):
        cfg_path = self._write(tmp_path / "c.json", _doc(k=8, n_samples=400))
        out = tmp_path / "out"
        r = self._run("annealed", "--config", cfg_path, "--out", str(out),
                      "--seed", "999")
        assert r.returncode == 0, r.stderr
        assert "PASS" in r.stdout
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["seed"] == 999

    def test_statistical_failure_is_exit_one(self, tmp_path):
        cfg_path = self._write(tmp_path / "c.json",
                               _doc(k=1, n_samples=400))
        r = self._run("annealed", "--config", cfg_path)
        assert r.returncode == 1
        assert "FAIL" in r.stdout

    def test_config_error_is_exit_two(self, tmp_path):
        cfg_path = self._write(tmp_path / "c.json", _doc(k=0))
        r = self._run("annealed", "--config", cfg_path)
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_mode_mismatch(self, tmp_path):
        cfg_path = self._write(tmp_path / "c.json", _doc())
        r = self._run("oracle", "--config", cfg_path)
        assert r.returncode == 2
        assert "$.mode" in r.stderr

    @pytest.mark.parametrize("mode,model", [
        ("annealed", FAIR_SPEC), ("annealed", MARKOV_SPEC), ("quenched", FAIR_SPEC),
    ])
    def test_symbol_budget_is_exit_two(self, tmp_path, mode, model):
        # |S| = 1 far out: the histogram stays small, the streams do not
        huge = [[[str(10**300), str(10**300 + 1), False, True]]]
        cfg_path = self._write(tmp_path / "c.json", _doc(mode=mode, model=model, sets=huge))
        r = self._run(mode, "--config", cfg_path)
        assert r.returncode == 2
        assert "error:" in r.stderr and "budget" in r.stderr
        assert "Traceback" not in r.stderr

    def test_huge_target_set_is_exit_two(self, tmp_path):
        huge = [[["0", "1e300", False, True]]]
        cfg_path = self._write(tmp_path / "c.json", _doc(sets=huge, n_cap=1000))
        r = subprocess.run([sys.executable, "-m", "poissonlab.cli", "annealed",
                            "--config", cfg_path],
                           capture_output=True, text=True, timeout=30)
        assert r.returncode == 2
        assert "error: $.sets[0]:" in r.stderr and "histogram" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("sup,k", [(10**400, 5), (10**306, 5), (1, 1100)])
    def test_far_supremum_is_exit_two(self, tmp_path, sup, k):
        # past the float range: sup S itself, 10 sup S / (K rho^k), or K rho^k = 0
        far = [[[str(sup), str(sup + 1), False, True]]]
        cfg_path = self._write(tmp_path / "c.json", _doc(k=k, sets=far))
        r = self._run("annealed", "--config", cfg_path)
        assert r.returncode == 2
        assert "error: $.sets[0]:" in r.stderr and "float range" in r.stderr
        assert "Traceback" not in r.stderr

    def test_far_supremum_with_explicit_n_cap_runs(self, tmp_path):
        # an explicit n_cap needs no default, so an infinite floor only warns
        far = [[[str(10**307), str(10**307 + 1), False, True]]]
        cfg_path = self._write(tmp_path / "c.json", _doc(sets=far, n_cap=1000))
        r = self._run("annealed", "--config", cfg_path, "--out", str(tmp_path / "out"))
        assert r.returncode == 1  # every sample is truncated
        assert "heuristic floor inf" in r.stderr + r.stdout
        assert "Traceback" not in r.stderr
        # K rho^k = 0 leaves no floor at all, whatever n_cap
        cfg_path = self._write(tmp_path / "d.json", _doc(k=1100, n_cap=2000, sets=far))
        r = self._run("annealed", "--config", cfg_path)
        assert r.returncode == 2 and "error: $.sets[0]:" in r.stderr

    def test_internal_check_failure_is_exit_three(self, tmp_path, monkeypatch, capsys):
        from poissonlab import cli, oracles
        from poissonlab.point_process import IndexSet

        # a J of one index, where about |S|/mu are due, breaks the sandwich
        monkeypatch.setattr(oracles, "j_set", lambda mu, S, mu_high=None:
                            IndexSet(((1, 1),), 1, mu))
        cfg_path = self._write(tmp_path / "c.json",
                               _doc(mode="oracle", model=MARKOV_SPEC, k=4))
        assert cli.main(["oracle", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed: index-count sandwich")
        assert "Traceback" not in err

    def test_missing_file(self):
        r = self._run("annealed", "--config", "/nonexistent/x.json")
        assert r.returncode == 2

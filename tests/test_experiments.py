"""Experiment runners: config validation, runner equivalence, artifacts, CLI.

The annealed runner (words planned together, streams drawn in batches and
scanned by one vectorized kernel) is cross-checked against a literal
per-sample, per-position reference loop with identical seed derivations, so
the batched counting has an independent witness.
"""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab.errors import ConfigError, InsufficientDataError, ResourceError
from poissonlab.experiments import (_genericity_report, execute, parse_config,
                                    run_annealed, run_mixing, run_oracle_suite,
                                    run_quenched, to_jsonable)
from poissonlab.measures import (GaussCFModel, IidModel, SequenceGenerator,
                                 cylinder_prob_exact, cylinder_prob_guarded, draw,
                                 model_from_spec)
from poissonlab.mixing_concentration import OccurrenceIndex, _distinct_rows
from poissonlab.point_process import j_set, required_prefix_length, unit_interval
from poissonlab.poisson_stats import fold_histogram
from poissonlab.rng import derive_seed
from test_report_pins import report_hash

FAIR_SPEC = {"type": "iid", "probs": ["1/2", "1/2"]}
BIASED_SPEC = {"type": "iid", "probs": ["3/4", "1/4"]}
THREE_SPEC = {"type": "iid", "probs": ["1/2", "1/3", "1/6"]}
GEOMETRIC_SPEC = {"type": "iid", "tail_ratio": "1/2"}
CF_SPEC = {"type": "gauss_cf"}
MARKOV_SPEC = {"type": "markov",
               "transition": [["9/10", "1/10"], ["1/5", "4/5"]]}
CHAIN3_SPEC = {"type": "markov", "transition": [["1/2", "1/4", "1/4"],
                                                ["1/3", "1/3", "1/3"],
                                                ["1/6", "1/2", "1/3"]]}
GRID_MODELS = {"fair": FAIR_SPEC, "three": THREE_SPEC,
               "tail": {"type": "iid", "tail_ratio": "1/2"}, "markov": MARKOV_SPEC,
               "gauss": {"type": "gauss_cf"}}
DEGENERATE_IID = {"type": "iid", "probs": ["1", "0"]}
DEGENERATE_CHAIN = {"type": "markov", "transition": [["0", "1"], ["1/2", "1/2"]]}


def _doc(**over):
    doc = {"mode": "annealed", "model": FAIR_SPEC, "k": 5,
           "n_samples": 120, "seed": 9}
    doc.update(over)
    return doc


def _conc(**over):
    return _doc(**dict({"mode": "concentration", "n_samples": 200, "t_grid": [1.0]},
                       **over))


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(_doc())
        assert cfg.mode == "annealed"
        assert cfg.k == 5
        assert cfg.tv_tolerance == 0.05
        assert len(cfg.sets) == 1
        assert cfg.sets[0].label() == "(0, 1]"
        assert cfg.n_cap == 320  # 10 sup S / (K rho^k) = 10 * 2^5
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
        (_doc(seed=-1), "$.seed"),
        (_doc(model={"type": "iid", "probs": ["1/2", "1/3"]}), "$.model"),
        (_doc(sets=[[["0", "1", False, True]], [["2", "1", False, True]]]),
         "$.sets[1]"),
        (_doc(sets=[]), "$.sets"),
        (_doc(mode="oracle", sets=[]), "$.sets"),
        (_doc(tv_tolerance=0.0), "$.tv_tolerance"),
        (_doc(tv_tolerance=1.5), "$.tv_tolerance"),
        (_doc(n_x_replicas=2, min_passing_replicas=3),
         "$.min_passing_replicas"),
        (_doc(n_cap=3), "$.n_cap"),
        (_doc(t_grid=[1.0, -2.0]), "$.t_grid"),
        (_doc(functional="phi3"), "$.functional"),
        (_doc(truncations=[0]), "$.truncations"),
        (_doc(strict="yes"), "$.strict: unknown field"),
        (_doc(strict=True), "$.strict: unknown field"),
        (_doc(t_grid=[float("nan"), 5.0]), "$.t_grid"),
        (_doc(t_grid=[float("inf")]), "$.t_grid"),
        (_doc(truncations=[50, 2001]), "$.truncations"),
        (_conc(n_samples=150), "$.n_samples"),
        (_conc(t_grid=[]), "$.t_grid"),
        ({key: v for key, v in _conc().items() if key != "t_grid"}, "$.t_grid"),
        (_conc(functional="phi2", model={"type": "gauss_cf"}), "$.functional"),
        (_conc(functional="phi2", model={"type": "iid", "tail_ratio": "1/2"}),
         "$.functional"),
        (_conc(functional="phi2", k=17), "$.functional"),
        (_conc(functional="phi2", k=1000), "$.functional"),
        # degenerate models: contraction_profile refuses them
        (_doc(model=DEGENERATE_IID), "$.model"),
        (_doc(model=DEGENERATE_CHAIN), "$.model"),
        # keys the model type does not read
        (_doc(model={"type": "gauss_cf", "alphabet_size": 3}), "$.model"),
        (_doc(model={"type": "iid", "probs": ["1/2", "1/2"], "tail_ratio": "1/2"}),
         "$.model"),
        (_doc(model={"type": "markov", "probs": ["1/2", "1/2"],
                     "transition": MARKOV_SPEC["transition"]}), "$.model"),
        (_doc(model={"type": "iid"}), "$.model"),
        # a boolean is not a number, in a law or a tail ratio
        (_doc(model={"type": "iid", "probs": [False, "1/2", "1/2"]}), "$.model: probs: "),
        (_doc(model={"type": "markov", "transition": [[True, "0"], ["1/2", "1/2"]]}),
         "$.model: transition[0]: "),
        (_doc(model={"type": "markov", "transition": [["1/2", "1/2"], ["1/2", False]]}),
         "$.model: transition[1]: "),
        (_doc(model={"type": "iid", "tail_ratio": True}), "$.model: tail_ratio: "),
        # a sum past the float range is refused, not an OverflowError
        (_doc(model={"type": "markov", "transition": [["1e400", "0"], ["0", "1"]]}),
         "$.model: transition[0]: "),
        (_doc(sets=[[[0, float("nan"), False, True]]]), "$.sets[0]"),
        (_doc(sets=[[[0, float("inf"), False, True]]]), "$.sets[0]"),
        (_doc(sets=[[[False, 1, False, True]]]), "$.sets[0]"),
        (_doc(mode="mixing", sets=[], max_lag=1001), "$.max_lag"),
        (_doc(model={"type": ["iid"]}), "$.model"),
        # the weight norm needs sup S / (K rho^k) as a float, whatever n_cap
        (_conc(k=40, n_cap=1000, sets=[[[str(10**300), str(10**300 + 1), False, True]]]),
         "$.sets[0]"),
        # closedness flags are JSON booleans, not strings or integers
        (_doc(sets=[[["1/2", "1", "false", True]]]), "$.sets[0]"),
        (_doc(sets=[[[0, 1, 0, 1]]]), "$.sets[0]"),
        (_doc(sets=[[{"lo": "0", "hi": "1", "hi_closed": 1}]]), "$.sets[0]"),
        # a misspelt closedness flag is refused, not read as its default
        (_doc(sets=[[{"lo": "0", "hi": "1", "hi_close": False}]]),
         "$.sets[0]: interval [0]: unknown key 'hi_close'"),
        # the CF model takes no psi-mixing pair: the certificate is fixed
        (_doc(model={"type": "gauss_cf", "psi_T": 1.0}), "$.model: unknown key 'psi_T'"),
        (_doc(model={"type": "gauss_cf", "psi_sigma": 0.303}),
         "$.model: unknown key 'psi_sigma'"),
        (_doc(model={"type": "gauss_cf", "psi_T": True}), "$.model"),
        (_doc(model={"type": "gauss_cf", "psi_T": float("inf")}), "$.model"),
        (_doc(model={"type": "gauss_cf", "psi_sigma": float("nan")}), "$.model"),
    ])
    def test_error_paths(self, doc, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert needle in str(err.value)

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    def test_statistical_modes_need_samples(self, mode):
        with pytest.raises(InsufficientDataError, match=r"^\$\.n_samples: "):
            parse_config(_doc(mode=mode, n_samples=99))
        assert parse_config(_doc(mode=mode, n_samples=100)).n_samples == 100

    def test_histogram_guard_only_where_a_histogram_is_folded(self):
        # concentration mode folds no count histogram, so |S| past the
        # histogram bound is no reason to refuse it
        big = [[["0", "100001", False, True]]]
        cfg = parse_config(_conc(k=1, sets=big, functional="phi1"))
        assert cfg.sets[0].total_length == 100001
        for mode in ("annealed", "quenched", "oracle"):
            with pytest.raises(ConfigError) as err:
                parse_config(_doc(mode=mode, k=1, sets=big))
            assert str(err.value) == ("$.sets[0]: |S| is above 99999, so its count "
                                      "histogram would need more than 1000000 bins")

    def test_low_cap_warns(self):
        cfg = parse_config(_doc(n_cap=8))
        assert any("n_cap" in w for w in cfg.warnings)

    def test_min_passing_default(self):
        cfg = parse_config(_doc(mode="quenched", n_x_replicas=10))
        assert cfg.min_passing_replicas == 9


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
_BAD_VALUES = [float("nan"), float("inf"), float("-inf"), -1, -0.5, 1e300, -1e300,
               [], {}, "x", None, True, 150, "phi2"]


def _paths(node, path=()):
    """Every key and index path below ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three values dropped, negated or replaced
    by a wrong type, NaN, an infinity, a negative or huge number, [], 150
    (below the concentration replica floor, a long word) or "phi2"."""
    doc = json.loads(draw(st.sampled_from(SHIPPED_CONFIGS)).read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for p in parents:
            node = node[p]
        how = draw(st.sampled_from(["drop", "negate", "replace"]))
        if how == "drop":
            del node[key]
        elif how == "negate" and isinstance(node[key], (int, float)) \
                and not isinstance(node[key], bool):
            node[key] = -node[key]
        else:
            node[key] = draw(st.sampled_from(_BAD_VALUES))
    return doc


@given(mutated_configs())
@settings(max_examples=400, deadline=None)
def test_mutated_configs_parse_or_name_their_path(doc):
    # the two refusals the CLI turns into exit 2; InsufficientDataError is
    # the annealed and quenched n_samples >= 100 check
    try:
        parse_config(doc)
    except (ConfigError, InsufficientDataError) as exc:
        assert str(exc).startswith("$."), str(exc)


class TestDefaultNCap:
    def test_fair(self):
        assert parse_config(_doc(k=14)).n_cap == 163840

    def test_gauss(self):
        assert parse_config(_doc(k=8, model={"type": "gauss_cf"})).n_cap == 10**7

    def test_empty_sets_and_no_sets(self):
        # sup S = 0 keeps the old floor of max(10 k, 100); without a set no
        # mode reads n_cap, and it is k whatever k
        assert parse_config(_doc(k=5, sets=[[]])).n_cap == 100
        assert parse_config(_doc(k=20, sets=[[]])).n_cap == 200
        for k in (8, 1030, 2000):
            assert parse_config(_doc(mode="mixing", k=k, sets=[])).n_cap == k


class TestAnnealed:
    def _reference_counts(self, cfg):
        """Literal per-sample, per-position loop with the runner's seed labels."""
        out = np.zeros(cfg.n_samples, dtype=np.int64)
        trunc = np.zeros(cfg.n_samples, dtype=bool)
        S, k = cfg.sets[0], cfg.k
        for i in range(cfg.n_samples):
            w = tuple(SequenceGenerator(cfg.model, derive_seed(cfg.seed, 1, i)).take(k).tolist())
            J = j_set(cylinder_prob_exact(cfg.model, w), S)
            if J.is_empty():
                continue
            need = min(required_prefix_length(k, J), cfg.n_cap)
            x = SequenceGenerator(cfg.model, derive_seed(cfg.seed, 2, i)).take(need).tolist()
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
        assert sr.histogram == fold_histogram(ref_counts[~ref_trunc], sr.j_max)
        assert sr.truncated_histogram == fold_histogram(ref_counts[ref_trunc], sr.j_max)
        assert sr.n_truncated == int(ref_trunc.sum())
        assert sr.n_used + sr.n_truncated == cfg.n_samples
        assert (sr.n_truncated > 0) == (model_spec is not FAIR_SPEC)

    def test_fair_has_no_truncation(self):
        # dyadic mu: every word needs the same prefix, under the default cap
        cfg = parse_config(_doc(k=5, n_samples=150))
        rep = run_annealed(cfg)
        assert rep.sets[0].n_truncated == 0
        assert rep.sets[0].n_used == 150

    def test_histogram_is_within_noise_of_the_exact_annealed_law(self):
        # the exact annealed law at k = 5 is the mean of the 32 words' count
        # laws; its multinomial null at n_used tells sampling noise from a
        # sampler or counter fault, which a gate against Poisson(1) cannot:
        # the run is nearer the exact law than the null's 99.9% quantile and
        # farther than that from Poisson(1)
        from poissonlab.oracles import dp_count_distribution
        from poissonlab.poisson_stats import tv_distance
        from poissonlab.words import enumerate_words

        cfg = parse_config(_doc(k=5, n_samples=20_000, seed=20260816))
        sr = run_annealed(cfg).sets[0]
        exact = np.zeros(sr.j_max + 2)
        for w in enumerate_words(2, 5):
            for j, p in dp_count_distribution(cfg.model, w, cfg.sets[0]).items():
                exact[min(j, sr.j_max + 1)] += p / 32
        draws = np.random.default_rng(0).multinomial(sr.n_used, exact, size=10_000)
        null = 0.5 * np.abs(draws / sr.n_used - exact).sum(axis=1)
        quantile = np.quantile(null, 0.999)
        empirical = {j: c / sr.n_used for j, c in sr.histogram.items()}
        assert tv_distance(empirical, dict(enumerate(exact))) <= quantile
        assert tv_distance(empirical, sr.poisson) > quantile

    def test_markov_moments_are_within_noise_of_the_exact_moments(self):
        # the annealed count's exact mean and variance mix the 64 words'
        # exact moments by the words' measures: E = sum mu E_w and
        # V = sum mu (Var_w + E_w^2) - E^2; a chain sampler or counter fault
        # moves the run's moments past five standard errors of them
        from poissonlab.oracles import exact_variance
        from poissonlab.words import enumerate_words

        cfg = parse_config(_doc(model=MARKOV_SPEC, k=6, n_samples=20_000,
                                n_cap=10**6, seed=20261022))
        sr = run_annealed(cfg).sets[0]
        assert sr.n_truncated == 0
        mean, var, n = sr.empirical_mean, sr.empirical_variance, sr.n_used
        E = V = 0.0
        for w in enumerate_words(2, 6):
            mu = float(cylinder_prob_exact(cfg.model, w))
            vb = exact_variance(cfg.model, w, cfg.sets[0])
            E += mu * vb.expectation
            V += mu * (vb.variance + vb.expectation ** 2)
        V -= E * E
        m4 = sum(c * (j - mean) ** 4 for j, c in sr.histogram.items()) / n
        assert abs(mean - E) <= 5 * math.sqrt(V / n)
        assert abs(var - V) <= 5 * math.sqrt((m4 - var ** 2) / n)

    def test_three_symbol_sets_are_within_noise_of_the_exact_annealed_law(self):
        # the byte path (a third symbol), two sets, a set with lo > 0 and a
        # gap: each set's exact annealed law mixes the 81 words' DP laws by
        # their measures, and each histogram is nearer it than the 99.9%
        # quantile of its multinomial null
        from poissonlab.oracles import dp_count_distribution
        from poissonlab.poisson_stats import tv_distance
        from poissonlab.words import enumerate_words

        sets = [[["0", "1/2", False, True]],
                [["1/2", "1", False, True], ["2", "3", True, True]]]
        cfg = parse_config(_doc(model=THREE_SPEC, k=4, sets=sets, n_cap=10**6,
                                n_samples=20_000, seed=20261023))
        rng = np.random.default_rng(0)
        for S, sr in zip(cfg.sets, run_annealed(cfg).sets):
            assert sr.n_truncated == 0
            exact = np.zeros(sr.j_max + 2)
            for w in enumerate_words(3, 4):
                mu = float(cylinder_prob_exact(cfg.model, w))
                for j, p in dp_count_distribution(cfg.model, w, S).items():
                    exact[min(j, sr.j_max + 1)] += mu * p
            draws = rng.multinomial(sr.n_used, exact, size=10_000)
            null = 0.5 * np.abs(draws / sr.n_used - exact).sum(axis=1)
            empirical = {j: c / sr.n_used for j, c in sr.histogram.items()}
            assert tv_distance(empirical, dict(enumerate(exact))) <= np.quantile(null, 0.999)

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


# (0, 1/8] and (1/32, 1/16]: every word of measure above 1/8 has both index
# sets empty, so its plan needs no stream (length 0); words of measure in
# (1/16, 1/8] have an empty second set only
LOW_SETS = [[["0", "1/8", False, True]], [["1/32", "1/16", False, True]]]
# (0, 1], (0, 1/2] and (1/2, 1]: one count per chunk serves all three
HALF_SETS = [[["0", "1", False, True]], [["0", "1/2", False, True]],
             [["1/2", "1", False, True]]]
# (document, _BATCH_ELEMS): for the first four, three times the longest
# stream, so a pool of up to 3 threads runs whole and most plans span several
# batches; the second to fourth documents are truncated by n_cap.  The fair
# coin's streams (263 symbols) are longer than _BATCH_ELEMS, so each is
# counted bit-parallel in chunks of 200, 100 or 66 windows, cut across the
# 64-window words of the match bits, with one target set and with three
THREAD_DOCS = [
    (_doc(model=THREE_SPEC, k=2, n_samples=150, sets=LOW_SETS), 15),
    (_doc(model=GEOMETRIC_SPEC, k=3, n_samples=150, sets=LOW_SETS, n_cap=30), 90),
    (_doc(model=MARKOV_SPEC, k=4, n_samples=150, sets=LOW_SETS, n_cap=12), 36),
    (_doc(model=CF_SPEC, k=2, n_samples=150, sets=LOW_SETS, n_cap=40), 120),
    (_doc(k=8, n_samples=150), 200),
    (_doc(k=8, n_samples=150, sets=HALF_SETS), 200),
]


def _report_text(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2)


class TestAnnealedThreads:
    """The batches of an annealed run are drawn and scanned on a thread pool."""

    @pytest.mark.parametrize("doc,batch_elems", THREAD_DOCS,
                             ids=["three", "geometric", "markov", "gauss", "fair",
                                  "fair-three-sets"])
    def test_report_does_not_depend_on_the_thread_count(self, monkeypatch, doc, batch_elems):
        from poissonlab import experiments

        cfg = parse_config(doc)
        expected = _report_text(run_annealed(cfg))
        monkeypatch.setattr(experiments, "_BATCH_ELEMS", batch_elems)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(experiments, "_WORKERS", workers)
                assert _report_text(run_annealed(cfg)) == expected, workers
        finally:
            sys.setswitchinterval(interval)

    def test_failure_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        from poissonlab import experiments

        err = ResourceError("third scan fails")
        scan, lock, calls = experiments.count_word_occurrences, threading.Lock(), [0]

        def failing(*args):
            with lock:
                calls[0] += 1
                third = calls[0] == 3
            if third:
                raise err
            return scan(*args)

        doc, batch_elems = THREAD_DOCS[0]
        monkeypatch.setattr(experiments, "_BATCH_ELEMS", batch_elems)
        monkeypatch.setattr(experiments, "_WORKERS", 2)
        monkeypatch.setattr(experiments, "count_word_occurrences", failing)
        before = threading.active_count()
        with pytest.raises(ResourceError) as info:
            execute(parse_config(doc), None)
        assert info.value is err
        assert threading.active_count() == before

    @pytest.mark.parametrize("doc,batch_elems", [THREAD_DOCS[0], THREAD_DOCS[-1]],
                             ids=["three", "fair-three-sets"])
    def test_one_count_per_chunk_serves_every_set(self, monkeypatch, doc, batch_elems):
        from poissonlab import experiments

        scan, chunks, calls = experiments.count_word_occurrences, experiments._chunks, []

        def counted(x, words, ranges):
            calls.append(len(ranges))
            return scan(x, words, ranges)

        def chunked(*args):
            for chunk in chunks(*args):
                calls.append("chunk")
                yield chunk

        monkeypatch.setattr(experiments, "_BATCH_ELEMS", batch_elems)
        monkeypatch.setattr(experiments, "_WORKERS", 1)
        monkeypatch.setattr(experiments, "count_word_occurrences", counted)
        monkeypatch.setattr(experiments, "_chunks", chunked)
        run_annealed(parse_config(doc))
        # each chunk is followed by one count over all of the document's sets
        assert calls.count("chunk") > 10
        assert calls == ["chunk", len(doc["sets"])] * calls.count("chunk")

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("doc,longest", [
        (_doc(k=8, n_samples=100), 2**8 + 7),  # one plan, several rows a batch
        (_doc(k=12, n_samples=100), 2**12 + 11),  # one plan, one row a batch
        (_doc(model=GEOMETRIC_SPEC, k=3, n_samples=150, sets=LOW_SETS, n_cap=5000), 5000),
        # one stream of eight budgets, hashed a chunk at a time
        (_doc(mode="quenched", model=GEOMETRIC_SPEC, k=3, n_samples=150, n_cap=48000),
         48000),
    ], ids=["fair-8", "fair-12", "geometric", "quenched"])
    def test_symbols_in_flight_stay_within_one_batch(self, monkeypatch, doc, longest, workers):
        # with _BATCH_ELEMS = 6000 the last three documents have streams longer
        # than _BATCH_ELEMS / workers, so those streams are taken in chunks:
        # the symbols of all blocks held at once stay within 6000, plus the
        # k - 1 symbols per row that a chunk carries over.  A take into a
        # caller's block (an annealed worker's, held for the whole run, or a
        # quenched stream's) counts that block once, for as long as it lives.
        from poissonlab import experiments

        real_take, lock = SequenceGenerator.take, threading.Lock()
        k = doc["k"]
        state = {"calls": 0, "flight": 0, "rows": 0, "peak": 0, "over": 0, "longest": 0}
        live = set()  # ids of the arrays counted and still alive

        def release(size, rows, key):
            with lock:
                state["flight"] -= size
                state["rows"] -= rows
                live.discard(key)

        def counted(gen, n, out=None, buffers=None):
            with lock:
                state["calls"] += 1
                words = state["calls"] == 1  # the words, held for the whole run
            got = real_take(gen, n, out, buffers)
            owner = got if got.base is None else got.base
            if not words:
                rows = len(gen.seeds)
                with lock:
                    state["longest"] = max(state["longest"], gen.emitted)
                    new = id(owner) not in live
                    if new:
                        live.add(id(owner))
                        state["flight"] += owner.size
                        state["rows"] += rows
                        state["peak"] = max(state["peak"], state["flight"])
                        state["over"] = max(state["over"],
                                            state["flight"] - 6000 - (k - 1) * state["rows"])
                if new:
                    weakref.finalize(owner, release, owner.size, rows, id(owner))
                time.sleep(0.002)  # let the other threads draw meanwhile
            return got

        monkeypatch.setattr(experiments, "_BATCH_ELEMS", 6000)
        monkeypatch.setattr(experiments, "_WORKERS", workers)
        monkeypatch.setattr(SequenceGenerator, "take", counted)
        execute(parse_config(doc), None)
        assert state["longest"] == longest
        assert state["peak"] > 0 and state["over"] <= 0
        assert state["flight"] == 0


# a fair word of length 3 has measure 1/8, so [1/3, 5/2) gives it positions
# 3..19: with LOW_SETS, ranges of several lengths straddle the chunk edges of
# widths 1..4
CHUNK_SETS = [*LOW_SETS, [["1/3", "5/2", True, False]]]


class TestChunkedCounts:
    """Streams are taken and counted chunk by chunk (``_chunks``): per-word
    counts equal the default run's at chunk widths 1, k - 1, k and k + 1."""

    @staticmethod
    def _counts(monkeypatch, doc, batch_elems):
        from poissonlab import experiments

        seen, report = [], experiments._genericity_report

        def recorded(cfg, counts, truncated, replica):
            seen.append([c.tolist() for c in counts] + [t.tolist() for t in truncated])
            return report(cfg, counts, truncated, replica)

        with monkeypatch.context() as m:
            m.setattr(experiments, "_genericity_report", recorded)
            m.setattr(experiments, "_WORKERS", 1)  # the annealed width is _BATCH_ELEMS
            if batch_elems is not None:
                m.setattr(experiments, "_BATCH_ELEMS", batch_elems)
            execute(parse_config(doc), None)
        return seen

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    @pytest.mark.parametrize("model_spec", GRID_MODELS.values(), ids=GRID_MODELS.keys())
    def test_counts_do_not_depend_on_the_chunk_width(self, monkeypatch, mode, model_spec):
        k = 3
        doc = _doc(mode=mode, model=model_spec, k=k, n_samples=100, sets=CHUNK_SETS,
                   n_cap=40, n_x_replicas=2)
        expected = self._counts(monkeypatch, doc, None)
        assert any(sum(map(sum, rep[:3])) for rep in expected)  # something is counted
        for width in (1, k - 1, k, k + 1):
            assert self._counts(monkeypatch, doc, width) == expected, width

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("width", [1, 3, 1000])
    def test_blocks_hold_each_window_once(self, k, width):
        from poissonlab.experiments import _chunks

        model, seeds, length = model_from_spec(THREE_SPEC), derive_seed(3, np.arange(4)), 61
        whole = draw(model, seeds, length)
        starts = []
        # a budget of `width` windows for each of the four streams
        gen = SequenceGenerator(model, seeds)
        for offset, block in _chunks(gen, length, k, width * len(seeds)):
            assert np.array_equal(block, whole[:, offset: offset + block.shape[1]])
            starts += range(offset, offset + block.shape[1] - k + 1)
        assert starts == list(range(length - k + 1))


# a low set, the unit interval and a far set at k = 3: with n_cap 40 the far
# set is truncated more than the low one
AXIS_SETS = [[["0", "1/8", False, True]], [["0", "1", False, True]],
             [["2", "4", True, False]]]


class TestSetAxis:
    """Every target set of a document is counted into one (sets, n) array,
    and each set reads as in the document of that set alone.  The reports
    differ only where the largest sup S enters (the n_cap floor warning and
    the overall truncated fraction)."""

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    @pytest.mark.parametrize("model_spec", [THREE_SPEC, GEOMETRIC_SPEC, CF_SPEC],
                             ids=["finite", "geometric", "cf"])
    @pytest.mark.parametrize("sets", [[AXIS_SETS[0], AXIS_SETS[2]], AXIS_SETS],
                             ids=["two", "three"])
    def test_each_set_reads_as_its_one_set_document(self, mode, model_spec, sets):
        doc = _doc(mode=mode, model=model_spec, k=3, n_samples=200, n_cap=40,
                   n_x_replicas=2, sets=sets)

        def replicas(doc):
            payload = execute(parse_config(doc), None)[1]
            return payload.replicas if mode == "quenched" else (payload,)

        reports = replicas(doc)
        truncated = [sr.n_truncated for sr in reports[0].sets]
        assert truncated[0] < truncated[-1]  # n_cap truncates the far set more
        for i, spec in enumerate(sets):
            alone = replicas({**doc, "sets": [spec]})
            assert [rep.sets[i] for rep in reports] == [rep.sets[0] for rep in alone]


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

    def test_histogram_is_within_noise_of_the_exact_per_x_law(self):
        # given replica 0's stream x, a word's count is a function of the
        # word, so the exact law of the quenched count is the fair coin's
        # mixture over all 256 words of their literal counts in x; the run is
        # nearer it than its multinomial null's 99.9% quantile.  A gate
        # against Poisson(1) reads x's own finite-k distance as well (TV
        # 0.096 here), so it cannot tell that distance from a fault
        from poissonlab.poisson_stats import tv_distance
        from poissonlab.words import enumerate_words

        cfg = parse_config(_doc(mode="quenched", k=8, n_samples=20_000,
                                n_x_replicas=1, seed=20261023))
        sr = run_quenched(cfg).replicas[0].sets[0]
        assert sr.n_truncated == 0
        S, k, law = cfg.sets[0], cfg.k, np.zeros(sr.j_max + 2)
        x = SequenceGenerator(cfg.model, derive_seed(cfg.seed, 3, 0)).take(cfg.n_cap).tolist()
        for w in enumerate_words(2, k):
            J = j_set(cylinder_prob_exact(cfg.model, w), S)
            n = sum(tuple(x[i - 1: i - 1 + k]) == w for a, b in J.ranges for i in range(a, b + 1))
            law[min(n, sr.j_max + 1)] += 1 / 2**k
        draws = np.random.default_rng(0).multinomial(sr.n_used, law, size=10_000)
        null = 0.5 * np.abs(draws / sr.n_used - law).sum(axis=1)
        empirical = {j: c / sr.n_used for j, c in sr.histogram.items()}
        assert tv_distance(empirical, dict(enumerate(law))) <= np.quantile(null, 0.999)

    @staticmethod
    def _reference_counts(cfg, r):
        """Literal per-word, per-position loop with the runner's seed labels."""
        words = [tuple(SequenceGenerator(cfg.model, derive_seed(cfg.seed, 4, r, i))
                       .take(cfg.k).tolist()) for i in range(cfg.n_samples)]
        js = [[j_set(cylinder_prob_exact(cfg.model, w), S) for S in cfg.sets] for w in words]
        need = max(required_prefix_length(cfg.k, J) for row in js for J in row)
        x_len = min(max(need, cfg.k), cfg.n_cap)
        x = SequenceGenerator(cfg.model, derive_seed(cfg.seed, 3, r)).take(x_len).tolist()
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

    # the geometric model has an unbounded alphabet
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
                assert sr.histogram == fold_histogram(c[~t], sr.j_max)
                assert sr.truncated_histogram == fold_histogram(c[t], sr.j_max)

    def test_no_window_draws_no_symbol_of_x(self, monkeypatch):
        # S = (0, 1e-9] leaves every index set empty: every count is 0, none is
        # truncated, and x is never taken, so the words are the only draws
        taken = []
        take = SequenceGenerator.take

        def recorded(gen, n):
            taken.append((gen.seeds.tolist(), n))
            return take(gen, n)

        monkeypatch.setattr(SequenceGenerator, "take", recorded)
        cfg = parse_config(_doc(mode="quenched", k=3, n_samples=150, n_x_replicas=2,
                                seed=0, sets=[[["0", "1/1000000000", False, True]]]))
        _, res = execute(cfg, None)
        for rep in res.replicas:
            (sr,) = rep.sets
            assert sr.n_used == 150 and sr.n_truncated == 0
            assert sr.histogram == fold_histogram(np.zeros(150, dtype=np.int64), sr.j_max)
        assert [n for _, n in taken] == [3, 3]  # one word draw per replica
        x_seeds = {int(derive_seed(0, 3, r)) for r in range(2)}
        assert not x_seeds & {s for seeds, _ in taken for s in seeds}
        assert report_hash(res) == "8e745ec77d2609ff"

    def test_cf_word_past_int64_is_counted_over_the_clipped_stream(self, monkeypatch):
        from poissonlab import experiments

        word = np.array([10**6, 2, 10**6])
        mu, high = cylinder_prob_guarded(GaussCFModel(), word.tolist())
        assert j_set(mu, unit_interval(), high).max_index() > 2**63
        stream = np.ones(50, dtype=np.int64)
        stream[4:7] = stream[47:50] = word  # windows 5 and 48, the last one
        monkeypatch.setattr(experiments, "draw", lambda model, seeds, length:
                            np.tile(word, (len(seeds), 1)))

        class Stream:  # takes continue the stream above, into ``out`` where given
            def __init__(self, model, seed):
                self.seeds, self.emitted, self.dtype = [seed], 0, stream.dtype

            def take(self, n, out=None, buffers=None):
                self.emitted += n
                x = stream[self.emitted - n: self.emitted]
                if out is None:
                    return x
                out[...] = x
                return out[0]

        monkeypatch.setattr(experiments, "SequenceGenerator", Stream)
        cfg = parse_config(_doc(mode="quenched", model={"type": "gauss_cf"}, k=3,
                                n_samples=100, n_cap=50))
        (sr,) = experiments._quenched_replica(cfg, 0).sets
        assert sr.n_used == 0 and sr.n_truncated == 100
        assert sr.truncated_histogram == fold_histogram(np.full(100, 2), sr.j_max)


def _de_bruijn(k):
    """The linear binary de Bruijn sequence of order k: 2^k + k - 1 symbols
    in which every binary word of length k occurs exactly once."""
    a, seq = [0] * (k + 1), []

    def db(t, p):  # Lyndon words of length dividing k, in order
        if t > k:
            if k % p == 0:
                seq.extend(a[1:p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        for b in range(a[t - p] + 1, 2):
            a[t] = b
            db(t + 1, t)

    db(1, 1)
    return np.array(seq + seq[:k - 1], dtype=np.int64)


class TestNegativeControls:
    """The TV gate fails on a sequence that is not Poisson generic.

    With fair-coin words and S = (0, 1], J = {1..2^k}, so in the de Bruijn
    sequence every word occurs exactly once there: the count law is a point
    mass at 1, at TV 1 - 1/e from Poisson(1).  Repeated m times with
    S = (0, m], it gives a point mass at m, which fails too.  A random
    stream of the same length as one sequence passes.
    """

    K = 12

    def _report(self, x, m=1):
        # S = (0, m], so J = {1..m 2^k}
        cfg = parse_config(_doc(mode="quenched", k=self.K, n_samples=5000,
                                sets=[[["0", str(m), False, True]]]))
        words = draw(cfg.model, derive_seed(cfg.seed, 4, 0, np.arange(cfg.n_samples)),
                     self.K)
        J = j_set(Fraction(1, 2**self.K), cfg.sets[0])
        assert J.ranges == ((1, m * 2**self.K),)
        ranges = np.broadcast_to(np.array(J.ranges), (len(words), 1, 2))
        counts = OccurrenceIndex(x, self.K).count_in_ranges(words, ranges)
        return _genericity_report(cfg, [counts],
                                  [np.zeros(len(counts), dtype=bool)], 0), counts

    def test_de_bruijn_sequence_fails(self):
        x = _de_bruijn(self.K)
        assert len(x) == 2**self.K + self.K - 1
        assert len({tuple(x[i:i + self.K]) for i in range(2**self.K)}) == 2**self.K
        rep, counts = self._report(x)
        assert (counts == 1).all()
        assert not rep.passed
        assert rep.sets[0].tv_set == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_repeated_de_bruijn_sequence_fails(self):
        # three turns of the cyclic sequence: every word occurs exactly three
        # times in J, a point mass at 3, at TV 1 - P(Poisson(3) = 3)
        cycle = _de_bruijn(self.K)[:2**self.K]
        x = np.concatenate([cycle, cycle, cycle, cycle[:self.K - 1]])
        rep, counts = self._report(x, m=3)
        assert (counts == 3).all()
        assert not rep.passed
        assert rep.sets[0].tv_set == pytest.approx(1 - 4.5 * np.exp(-3), abs=1e-12)

    def test_random_stream_of_the_same_length_passes(self):
        x = SequenceGenerator(IidModel(probs=(Fraction(1, 2),) * 2), 2024).take(
            2**self.K + self.K - 1)
        rep, _ = self._report(x)
        assert rep.passed
        assert rep.sets[0].tv_set < rep.tv_tolerance


class TestDraw:
    @pytest.mark.parametrize("model_spec", [FAIR_SPEC, BIASED_SPEC, THREE_SPEC,
                                            {"type": "iid", "probs": ["1/2", "1/2", "0"]},
                                            GEOMETRIC_SPEC, MARKOV_SPEC, CF_SPEC])
    @pytest.mark.parametrize("length", [1, 14, 70000])
    def test_rows_equal_take(self, model_spec, length):
        model = model_from_spec(model_spec)
        if length > 14 and model_spec is MARKOV_SPEC:
            length = 3000  # the Markov sampler steps in Python
        seeds = derive_seed(11, np.arange(5))
        got = draw(model, seeds, length)
        assert got.shape == (5, length)
        for row, seed in zip(got, seeds.tolist()):
            assert np.array_equal(row, SequenceGenerator(model, seed).take(length))

    # CF rows past the ~20-digit head and up to one block of the deep
    # sampler are stepped together; longer rows are taken one by one
    @pytest.mark.parametrize("length", [30, 60, 128, 129])
    def test_cf_rows_past_the_head_equal_take(self, length):
        seeds = derive_seed(12, np.arange(40))
        got = draw(GaussCFModel(), seeds, length)
        for row, seed in zip(got, seeds.tolist()):
            assert np.array_equal(row, SequenceGenerator(GaussCFModel(), seed).take(length))

    # rows that fit a block, rows longer than one, and blocks of one value
    @pytest.mark.parametrize("model_spec", [THREE_SPEC, GEOMETRIC_SPEC, CF_SPEC])
    @pytest.mark.parametrize("length,chunk", [(50, 120), (300, 64), (7, 1), (14, 1 << 16)])
    def test_chunks_tile_the_matrix(self, monkeypatch, model_spec, length, chunk):
        from poissonlab import measures

        model = model_from_spec(model_spec)
        seeds = derive_seed(5, np.arange(7))
        whole = draw(model, seeds, length)
        monkeypatch.setattr(measures, "_DRAW_BLOCK", chunk)
        assert np.array_equal(draw(model, seeds, length), whole)
        for row, seed in zip(whole, seeds.tolist()):
            assert np.array_equal(row, SequenceGenerator(model, seed).take(length))


def _cf_digit_matrix(n, k, seed):
    return np.stack([SequenceGenerator(GaussCFModel(), derive_seed(seed, i)).take(k)
                     for i in range(n)])


@pytest.mark.parametrize("keys", [
    np.random.default_rng(1).integers(0, 2, (3000, 14), dtype=np.uint8),
    np.sort(np.random.default_rng(2).integers(0, 2, (12000, 14), dtype=np.uint8), axis=1),
    np.random.default_rng(3).integers(0, 3, (2000, 6), dtype=np.uint8),
    _cf_digit_matrix(200, 8, 7),
    _cf_digit_matrix(300, 2, 8),
    np.zeros((5, 3), dtype=np.uint8),
])
def test_distinct_rows_equal_np_unique(keys):
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    got_first, got_inverse = _distinct_rows(keys)
    assert np.array_equal(got_first, first)
    assert np.array_equal(got_inverse, inverse.reshape(-1))


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

    # row -> (the oracle it checks, that oracle's value made wrong from its arguments)
    WRONG = {
        "variance_dual_path": ("exact_variance", lambda vb, model, w, S:
                               dataclasses.replace(vb, variance=vb.variance + 1e-6)),
        "period_class_dual_path": ("period_class_measure", lambda mass, model, k, ell:
                                   mass + Fraction(1, 2**k)),
        "count_law_tv_decay": ("dp_count_distribution", lambda dist, model, w, S:
                               {**dist, 0: dist[0] - 1e-3, 1: dist.get(1, 0.0) + 1e-3}),
    }

    @pytest.mark.parametrize("row", sorted(WRONG))
    def test_wrong_oracle_turns_its_row_to_fail(self, monkeypatch, row):
        from poissonlab import oracle_suite

        name, skew = self.WRONG[row]
        right = getattr(oracle_suite, name)
        monkeypatch.setattr(oracle_suite, name, lambda *args: skew(right(*args), *args))
        rep = run_oracle_suite(parse_config(_doc(mode="oracle")))
        assert {r.name: r.status for r in rep.rows if r.status == "FAIL"} == {row: "FAIL"}
        assert not rep.passed

    def test_variance_row_checks_every_guard_before_any_word(self, monkeypatch):
        # 65**4 words are past the enumeration guard: the row reads SKIP
        # without deciding the guard for any multiset of k_v = 1..3 symbols
        from poissonlab import oracle_suite

        calls, multisets = [], oracle_suite.combinations_with_replacement
        monkeypatch.setattr(oracle_suite, "combinations_with_replacement",
                            lambda *a: calls.append(a) or multisets(*a))
        cfg = parse_config(_doc(mode="oracle", k=3,
                                model={"type": "iid", "probs": ["1/65"] * 65}))
        rows = {row.name: row for row in run_oracle_suite(cfg).rows}
        assert rows["variance_dual_path"] == oracle_suite.OracleRow(
            "variance_dual_path", "SKIP", "enumeration of 65**4 words exceeds guard 16777216")
        assert calls == []

    def test_exact_rows_do_each_exact_step_once(self, monkeypatch):
        # oracle_markov's document: the expectation and annealed rows decide
        # one index set per distinct nonzero measure at k = 8 (42), and the
        # period row finds the periods of each of the 2^8 words once
        from poissonlab import oracle_suite, oracles
        from poissonlab.words import enumerate_words

        cfg = parse_config({"mode": "oracle", "model": MARKOV_SPEC, "k": 8,
                            "sets": [[["0", "1", False, True]]], "seed": 1})
        distinct = {mu for w in enumerate_words(2, 8) if (mu := cylinder_prob_exact(cfg.model, w))}
        assert len(distinct) == 42
        rows_of = {"measure_expectation": "expectation", "annealed_exact_expectation": "annealed"}
        j_calls, decide = [], oracles.j_set

        def counted(*args, **kwargs):
            caller = sys._getframe(1)
            names = {caller.f_code.co_name, caller.f_back.f_code.co_name}
            j_calls.extend(rows_of[name] for name in names & set(rows_of))
            return decide(*args, **kwargs)

        period_calls, periods = [], oracle_suite.periods
        monkeypatch.setattr(oracles, "j_set", counted)
        monkeypatch.setattr(oracle_suite, "periods",
                            lambda w: period_calls.append(w) or periods(w))
        rep = run_oracle_suite(cfg)
        assert rep.passed
        assert j_calls.count("expectation") == j_calls.count("annealed") == 42
        assert sorted(period_calls) == list(enumerate_words(2, 8))
        assert report_hash(rep) == "064eb0abc9cc5f95"  # configs/oracle_markov.json

    @pytest.mark.parametrize("probs,detail", [
        (["1/65"] * 65, "k=3: |sum - |S|| = 0.000e+00 <= 3.641e-06"),
        ([f"{a + 1}/2145" for a in range(65)], "k=3: |sum - |S|| = 4.248e-06 <= 2.783e-05")],
        ids=["uniform", "linear"])
    def test_annealed_row_on_65_symbols(self, probs, detail):
        # one index set per distinct measure: 65**3 words, one or few
        # thousand measures; the row reads as when every word was visited
        cfg = parse_config(_doc(mode="oracle", k=3, model={"type": "iid", "probs": probs}))
        rows = {row.name: row for row in run_oracle_suite(cfg).rows}
        assert (rows["annealed_expectation_identity"].status,
                rows["annealed_expectation_identity"].detail) == ("PASS", detail)

    def test_undefined_majorant_is_skipped(self):
        cfg = parse_config(_doc(mode="oracle", k=4, sets=[[["0", "1e-30", False, True]]]))
        rep = run_oracle_suite(cfg)
        statuses = {row.name: row.status for row in rep.rows}
        assert statuses["scan_length_majorant"] == "SKIP"
        assert rep.passed

    @pytest.mark.parametrize("S", [[], [["1/5", "1/5", True, True]]])
    def test_zero_length_set_skips_the_majorant(self, S):
        cfg = parse_config(_doc(mode="oracle", k=1, n_samples=100, sets=[S]))
        rep = run_oracle_suite(cfg)
        statuses = {row.name: row.status for row in rep.rows}
        assert statuses["scan_length_majorant"] == "SKIP"
        assert rep.passed

    @pytest.mark.parametrize("model", [THREE_SPEC, CHAIN3_SPEC], ids=["three", "chain3"])
    def test_variance_row_checks_the_words_within_the_guard(self, model):
        # some words of these models need more than 2^26 prefixes: the row
        # skips those words, not the whole check
        rep = run_oracle_suite(parse_config(_doc(mode="oracle", model=model)))
        row = {r.name: r for r in rep.rows}["variance_dual_path"]
        assert row.status == "PASS", row.detail

    @pytest.mark.parametrize("model_spec", [
        THREE_SPEC, {"type": "iid", "probs": ["1/2", "1/4", "1/4", "0"]}, CHAIN3_SPEC],
        ids=["three", "zero-symbol", "chain3"])
    def test_variance_row_visits_the_words_that_pass_the_guard_in_order(self, monkeypatch,
                                                                       model_spec):
        # i.i.d. models decide the guard per multiset of symbols; the words
        # reached are those of the per-word rule, in enumeration order
        from poissonlab import oracle_suite
        from poissonlab.words import enumerate_words

        doc = _doc(mode="oracle", model=model_spec, sets=[[["0", "3", False, True]]])
        cfg = parse_config(doc)
        S, s = cfg.sets[0], cfg.model.alphabet_size
        expected = [w for k_v in range(1, 5) for w in enumerate_words(s, k_v)
                    if (mu := cylinder_prob_exact(cfg.model, w))
                    and required_prefix_length(k_v, j_set(mu, S)) <= 22]
        seen, brute = [], oracle_suite.brute_force_distribution

        def recorded(model, w, S):
            seen.append(tuple(w))
            return brute(model, w, S)

        monkeypatch.setattr(oracle_suite, "brute_force_distribution", recorded)
        row = {r.name: r for r in run_oracle_suite(cfg).rows}["variance_dual_path"]
        assert row.status == "PASS", row.detail
        assert {len(w) for w in expected} >= {1, 2}
        assert seen[:len(expected)] == expected  # the tv-decay row comes next

    def test_variance_row_with_no_fitting_word_is_skipped(self):
        # at k=4 every word's index set for S = (0, 30] needs a prefix past
        # the enumeration guard: nothing is compared, so the row reads SKIP
        rep = run_oracle_suite(parse_config(_doc(mode="oracle", k=4,
                                                 sets=[[["0", "30", False, True]]])))
        row = {r.name: r for r in rep.rows}["variance_dual_path"]
        assert (row.status, row.detail) == ("SKIP", "no word fit the enumeration guard")
        assert rep.passed

    def test_pair_row_with_no_pair_within_the_guard_is_skipped(self):
        # 65**3 > 2**18: no (word, lag) pair is enumerated, so the row reads SKIP
        uniform = {"type": "iid", "probs": ["1/65"] * 65}
        rep = run_oracle_suite(parse_config(_doc(mode="oracle", model=uniform, k=1)))
        row = {r.name: r for r in rep.rows}["pair_probability_dual_path"]
        assert (row.status, row.detail) == ("SKIP", "no (word, lag) pair has 65**(k + lag) "
                                                    "<= 262144")

    def test_period_row_with_no_class_is_skipped(self):
        # at k=1 there is no period ell in 1..k-1 to check
        rep = run_oracle_suite(parse_config(_doc(mode="oracle", k=1)))
        row = {r.name: r for r in rep.rows}["period_class_dual_path"]
        assert row.status == "SKIP"
        assert row.detail.startswith("needs a word length k >= 2")
        assert rep.passed

    def test_long_word_needs_no_stream_length(self):
        # K rho^k underflows at k=1100, but no oracle row draws a stream
        rep = run_oracle_suite(parse_config(_doc(mode="oracle", k=1100)))
        assert [row.status for row in rep.rows] == ["PASS"] * 7

    def test_float_chain_runs_on_its_decimal_values(self):
        cfg = parse_config(_doc(mode="oracle", k=4,
                                model={"type": "markov", "transition": [[0.9, 0.1],
                                                                        [0.3, 0.7]]}))
        assert cfg.model_spec["transition"] == [["9/10", "1/10"], ["3/10", "7/10"]]
        rep = run_oracle_suite(cfg)
        assert rep.passed
        assert {row.name: row.status for row in rep.rows}["variance_dual_path"] == "PASS"

    def test_gauss_suite_skips_rational_only_rows(self):
        cfg = parse_config(_doc(mode="oracle", model={"type": "gauss_cf"}))
        rep = run_oracle_suite(cfg)
        assert rep.passed
        statuses = {row.name: row.status for row in rep.rows}
        assert statuses["variance_dual_path"] == "SKIP"
        assert "PASS" in statuses.values()
        assert [row.detail for row in rep.rows[:5]] == ["needs a finite alphabet"] * 5


def test_cf_and_exact_documents_never_import_mpmath():
    # the Gauss CF quenched document with words past its n_cap, an oracle,
    # a mixing and a concentration document: every report field is decided
    # in floats or exact rationals, and running them imports no module at all
    docs = [
        {"mode": "quenched", "model": {"type": "gauss_cf"}, "k": 8,
         "sets": [[["0", "1", False, True]]], "n_samples": 200, "n_x_replicas": 1,
         "n_cap": 100000, "seed": 31416, "tv_tolerance": 0.08},
        {"mode": "oracle", "model": MARKOV_SPEC, "k": 8,
         "sets": [[["0", "1", False, True]]], "seed": 1},
        {"mode": "mixing", "model": MARKOV_SPEC, "k": 8, "seed": 1,
         "max_lag": 30, "truncations": [50, 100, 200]},
        {"mode": "concentration", "model": FAIR_SPEC, "k": 10,
         "sets": [[["0", "1", False, True]]], "n_samples": 2000, "seed": 77,
         "functional": "phi1", "t_grid": [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]},
    ]
    code = ("import json, sys\n"
            "from poissonlab.experiments import execute, parse_config\n"
            "cfgs = [parse_config(doc) for doc in json.loads(sys.argv[1])]\n"
            "before = set(sys.modules)\n"
            "for cfg in cfgs:\n"
            "    execute(cfg, None)\n"
            "print('mpmath' in sys.modules, sorted(set(sys.modules) - before))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(docs)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "False []\n"


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


class TestExecuteArtifacts:
    @pytest.mark.parametrize("doc,files", [
        (_doc(sets=[[["0", "1/2", False, True]], [["1", "2", False, True]]]),
         {"histogram_0.csv", "histogram_1.csv"}),
        # replica 0's histograms only
        (_doc(mode="quenched", n_x_replicas=2), {"histogram_0.csv"}),
        (_doc(mode="oracle", k=3), set()),
        (_conc(), {"exceedance.csv"}),
        (_doc(mode="mixing", model=MARKOV_SPEC, sets=[]), {"eta_table.csv"}),
        # bound-only: no lag coefficients, no table
        (_doc(mode="mixing", model={"type": "gauss_cf"}, sets=[]), set()),
    ], ids=["annealed", "quenched", "oracle", "concentration", "mixing", "mixing-cf"])
    def test_every_mode_writes_its_files(self, tmp_path, doc, files):
        code, payload = execute(parse_config(doc), tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {"report.json"} | files
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report == to_jsonable(payload)
        assert set(payload.tables()) == files
        assert code == (0 if payload.passed else 1)
        assert payload.summary_lines()[-1].endswith("PASS" if payload.passed else "FAIL")

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

    def test_degenerate_models_are_exit_two_in_every_mode(self, tmp_path, capsys):
        from poissonlab import cli

        for i, model in enumerate((DEGENERATE_IID, DEGENERATE_CHAIN)):
            for mode in ("annealed", "quenched", "oracle", "concentration", "mixing"):
                cfg_path = self._write(tmp_path / f"{mode}{i}.json",
                                       _doc(mode=mode, model=model))
                assert cli.main([mode, "--config", cfg_path]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: $.model: degenerate"), err

    def test_mode_mismatch(self, tmp_path):
        cfg_path = self._write(tmp_path / "c.json", _doc())
        r = self._run("oracle", "--config", cfg_path)
        assert r.returncode == 2
        assert "$.mode" in r.stderr

    @pytest.mark.parametrize("mode,model,n_samples", [
        ("annealed", FAIR_SPEC, None), ("annealed", MARKOV_SPEC, None),
        ("quenched", FAIR_SPEC, None),
        ("concentration", FAIR_SPEC, None), ("concentration", MARKOV_SPEC, None),
        ("annealed", FAIR_SPEC, 10**15), ("quenched", FAIR_SPEC, 10**15),
        ("annealed", FAIR_SPEC, 10**30),
    ], ids=["annealed-model0", "annealed-model1", "quenched-model2",
            "concentration-model3", "concentration-model4",
            "annealed-words", "quenched-words", "annealed-words-1e30"])
    def test_symbol_budget_is_exit_two(self, tmp_path, mode, model, n_samples):
        # |S| = 1 far out: the histogram stays small, the streams do not
        huge = [[[str(10**300), str(10**300 + 1), False, True]]]
        doc = _doc(mode=mode, model=model, sets=huge)
        if mode == "concentration":  # phi1 on the coin, phi2 on the chain
            doc = _conc(model=model, sets=huge,
                        functional="phi1" if model is FAIR_SPEC else "phi2")
        if n_samples is not None:  # the words alone are over the budget
            doc = _doc(mode=mode, model=model, n_samples=n_samples)
        cfg_path = self._write(tmp_path / "c.json", doc)
        r = self._run(mode, "--config", cfg_path)
        assert r.returncode == 2
        assert "error:" in r.stderr and "budget" in r.stderr
        assert "Traceback" not in r.stderr

    def test_mixing_with_a_large_k_runs(self, tmp_path):
        # mixing reads no n_cap, so K rho^k underflowing to 0 must not matter
        cfg_path = self._write(tmp_path / "c.json", _doc(mode="mixing", k=2000, sets=[]))
        r = self._run("mixing", "--config", cfg_path)
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr

    def test_mixing_with_a_target_set_needs_no_stream_length(self, tmp_path, capsys):
        # sup S / (K rho^k) is past the float range at k=2000, but mixing reads
        # neither the sets nor n_cap
        from poissonlab import cli

        reports = []
        for i, sets in enumerate(([[["0", "1", False, True]]], [])):
            doc = _doc(mode="mixing", k=2000, sets=sets)
            code = cli.main(["mixing", "--config", self._write(tmp_path / f"{i}.json", doc),
                             "--out", str(tmp_path / str(i))])
            assert code == 0, capsys.readouterr().err
            reports.append(json.loads((tmp_path / str(i) / "report.json").read_text())["report"])
        assert reports[0] == reports[1]

    def test_oracle_past_every_word_limit_runs(self, tmp_path, capsys):
        # 4,099 symbols: the one-symbol words already pass the expectation
        # row's 4,096, and the tv-decay DP on 4,099^4 + 3 steps is refused
        from poissonlab import cli

        doc = _doc(mode="oracle", k=1, model={"type": "iid", "probs": ["1/4099"] * 4099})
        assert cli.main(["oracle", "--config", self._write(tmp_path / "c.json", doc)]) == 0
        statuses = dict(line.strip().split(": ")[:2] for line in
                        capsys.readouterr().out.splitlines()[1:-1])
        assert statuses["expectation_sandwich"].startswith("SKIP")
        assert statuses["period_class_dual_path"].startswith("SKIP")
        assert statuses["count_law_tv_decay"].startswith("SKIP")

    @pytest.mark.parametrize("probs", [["0", "1/2", "1/2"], ["1/2", "0", "1/2"]],
                             ids=["null-first", "null-second"])
    def test_tv_decay_row_steps_over_a_null_symbol(self, tmp_path, capsys, probs):
        # the decay word is spelled by the two smallest symbols of positive
        # probability, so these laws read the fair coin's row, not the count
        # law of a word of measure 0
        from poissonlab import cli

        details = []
        for name, spec in (("fair", FAIR_SPEC), ("null", {"type": "iid", "probs": probs})):
            doc = _doc(mode="oracle", k=6, model=spec, sets=[[["0", "1/4", False, True]]])
            assert cli.main(["oracle", "--config", self._write(tmp_path / f"{name}.json", doc)]) == 0
            rows = dict(line.strip().split(": ", 1) for line in
                        capsys.readouterr().out.splitlines()[1:-1])
            details.append(rows["count_law_tv_decay"])
        assert details[0].startswith("PASS")
        assert details[1] == details[0]

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "deeply-nested"])
    def test_unparsable_config_is_exit_two(self, tmp_path, capsys, text):
        from poissonlab import cli

        path = tmp_path / "c.json"
        path.write_bytes(text)
        assert cli.main(["oracle", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: $: invalid JSON: ")

    @pytest.mark.parametrize("mode", ["annealed", "quenched", "oracle", "concentration",
                                      "mixing"])
    def test_every_mode_runs_on_every_model(self, tmp_path, mode, capsys):
        from poissonlab import cli

        small = {"annealed": {"n_samples": 100, "n_cap": 2000},
                 "quenched": {"n_samples": 100, "n_cap": 2000},
                 "oracle": {}, "mixing": {"sets": []},
                 "concentration": {"n_samples": 200, "n_cap": 200, "t_grid": [1.0]}}
        for name, model in GRID_MODELS.items():
            out = tmp_path / name
            doc = _doc(mode=mode, model=model, k=2 if name == "gauss" else 3, **small[mode])
            code = cli.main([mode, "--config", self._write(tmp_path / f"{name}.json", doc),
                             "--out", str(out)])
            assert code in (0, 1), (name, capsys.readouterr().err)
            assert (out / "report.json").is_file()
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("transition", [
        [["1/2", "1/2"], ["1/2", "1/2"]],
        [["1/6", "1/3", "1/2"]] * 3,
        [["1/2", "1/2", "0"], ["1/6", "1/6", "2/3"], ["1/3", "1/3", "1/3"]],
        [["500000001/1000000000", "499999999/1000000000"], ["1/2", "1/2"]],
    ], ids=["coin", "rank_one_3", "square_rank_one", "near_rank_one"])
    @pytest.mark.parametrize("mode", ["mixing", "oracle", "concentration"])
    def test_rank_one_chains_run(self, tmp_path, mode, transition, capsys):
        # a float sigma near 0 once made the psi certificate divide 0.0 by 0.0
        from poissonlab import cli

        small = {"oracle": {}, "mixing": {"sets": []},
                 "concentration": {"n_samples": 200, "t_grid": [1.0]}}
        doc = _doc(mode=mode, model={"type": "markov", "transition": transition}, k=3,
                   **small[mode])
        code = cli.main([mode, "--config", self._write(tmp_path / "c.json", doc)])
        assert code in (0, 1), capsys.readouterr().err

    def test_zero_probability_symbol_scan_has_no_warning(self, tmp_path, capsys):
        import warnings

        from poissonlab import cli

        doc = _conc(model={"type": "iid", "probs": ["0", "1/4", "3/4"]}, k=3,
                    t_grid=[0.5], functional="phi1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["concentration", "--config", self._write(tmp_path / "c.json", doc)])
        assert code == 0, capsys.readouterr().err

    def test_long_concentration_scan_is_refused_before_drawing(self, tmp_path):
        # the default n_cap at k=45 scans 10 * 2^45 windows per replica
        cfg_path = self._write(tmp_path / "c.json", _conc(k=45))
        r = self._run("concentration", "--config", cfg_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: run would draw") and "budget" in r.stderr
        assert "Traceback" not in r.stderr

    def test_subnormal_word_measure_scan_runs(self, tmp_path):
        # mu_min = 2^-1050 is subnormal: 2 sup S / mu_min is past every int
        doc = _conc(model={"type": "iid", "probs": ["1/1024", "1023/1024"]}, k=105,
                    n_cap=2000, sets=[[["0", "1", False, True]]], functional="phi1")
        cfg_path = self._write(tmp_path / "c.json", doc)
        r = self._run("concentration", "--config", cfg_path)
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("mode", ["oracle", "concentration"])
    def test_second_target_set_is_exit_two(self, tmp_path, mode, capsys):
        # both modes check one set; a second one was silently dropped
        from poissonlab import cli

        doc = _conc(mode=mode, sets=[[["0", "1", False, True]], [["2", "5", False, True]]])
        assert cli.main([mode, "--config", self._write(tmp_path / "c.json", doc)]) == 2
        assert capsys.readouterr().err.startswith(f"error: $.sets: {mode} mode checks one")

    def test_huge_max_lag_is_exit_two(self, tmp_path):
        # a million exact matrix powers would take days
        cfg_path = self._write(tmp_path / "c.json",
                               _doc(mode="mixing", model=MARKOV_SPEC, sets=[],
                                    max_lag=10**6))
        r = subprocess.run([sys.executable, "-m", "poissonlab.cli", "mixing",
                            "--config", cfg_path], capture_output=True, text=True,
                           timeout=30)
        assert r.returncode == 2
        assert r.stderr.startswith("error: $.max_lag:")
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

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    def test_underflowing_cf_word_measure_is_exit_two(self, tmp_path, mode):
        # the float measure of a sampled 400-digit CF word is 0 or subnormal
        doc = _doc(mode=mode, model=CF_SPEC, k=400, n_samples=100, n_cap=2000, seed=7)
        r = self._run(mode, "--config", self._write(tmp_path / "c.json", doc))
        assert r.returncode == 2
        assert r.stderr.startswith("error: index set of S = (0, 1]: the word's measure ")
        assert "is below the float range; lower k" in r.stderr
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

    def test_broken_oracle_row_fails_under_optimize(self, tmp_path):
        # python -O strips assert statements; an oracle verdict must survive it
        cfg_path = self._write(tmp_path / "c.json", _doc(mode="oracle", model=MARKOV_SPEC, k=4))
        script = ("import sys\n"
                  "from fractions import Fraction\n"
                  "from poissonlab import cli, oracle_suite\n"
                  "oracle_suite.exact_pair_prob = lambda model, w, lag: Fraction(0)\n"
                  "sys.exit(cli.main(['oracle', '--config', sys.argv[1]]))\n")
        r = subprocess.run([sys.executable, "-O", "-c", script, cfg_path],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 1, r.stderr
        assert "  pair_probability_dual_path: FAIL (w=(0, 0) lag=1: 0 != " in r.stdout
        assert r.stdout.splitlines()[-1] == "result: FAIL"

    @pytest.mark.parametrize("mode,over", [("quenched", {"n_samples": 200}),
                                           ("concentration", {"functional": "phi2"})])
    def test_words_times_ranges_past_the_cap_is_exit_two(self, tmp_path, monkeypatch,
                                                         capsys, mode, over):
        from poissonlab import cli, experiments, mixing_concentration

        monkeypatch.setattr(mixing_concentration, "RANGE_CELLS_CAP", 50)
        lengths = []
        draw_ = experiments.draw
        monkeypatch.setattr(experiments, "draw", lambda model, seeds, length:
                            lengths.append(length) or draw_(model, seeds, length))
        # S = ten intervals (i, i + 1/2]: at k=4 each fair-coin word's index
        # set is ten ranges, so 200 words (quenched) or all 16 (phi2) pass 50
        sets = [[[str(i), f"{i}.5", False, True] for i in range(10)]]
        doc = (_conc if mode == "concentration" else _doc)(mode=mode, k=4, sets=sets, **over)
        assert cli.main([mode, "--config", self._write(tmp_path / "c.json", doc)]) == 2
        assert "over the cap of 50" in capsys.readouterr().err
        # no stream is drawn: quenched draws only its words, of length k
        assert lengths == ([4] if mode == "quenched" else [])

    @pytest.mark.parametrize("over,needle", [
        ({"model": {"type": "gauss_cf"}, "k": 3, "functional": "phi2"}, "$.functional"),
        ({"n_samples": 150}, "$.n_samples"),
        ({"t_grid": []}, "$.t_grid"),
    ])
    def test_concentration_refusals_are_exit_two(self, tmp_path, over, needle):
        # refused while parsing, before any stream is drawn
        cfg_path = self._write(tmp_path / "c.json", _conc(**over))
        r = subprocess.run([sys.executable, "-m", "poissonlab.cli", "concentration",
                            "--config", cfg_path], capture_output=True, text=True,
                           timeout=30)
        assert r.returncode == 2
        assert f"error: {needle}:" in r.stderr
        assert "Traceback" not in r.stderr

    def test_weight_norm_check_failure_is_exit_three(self, tmp_path, monkeypatch, capsys):
        from poissonlab import cli, mixing_concentration

        # a Hurwitz tail far too large pushes ||c||^2 past its analytic majorant
        monkeypatch.setattr(mixing_concentration, "_hurwitz_zeta", lambda s, q: 1e6)
        cfg_path = self._write(tmp_path / "c.json", _conc())
        assert cli.main(["concentration", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed: weight norm")

    def test_missing_file(self):
        r = self._run("annealed", "--config", "/nonexistent/x.json")
        assert r.returncode == 2


_FUZZ_MODELS = [FAIR_SPEC, THREE_SPEC, MARKOV_SPEC, {"type": "iid", "tail_ratio": "1/2"},
                {"type": "gauss_cf"}, DEGENERATE_IID, {"type": "iid"}]
_ENDPOINTS = ["0", "1/4", "1/2", "1", "2", "3"]


@st.composite
def cli_documents(draw):
    """Small documents for every mode: a runnable base with up to four keys
    set to a valid or an invalid value, among them the removed ``strict``
    key, too few samples and several target sets (which the oracle and
    concentration modes refuse).  Streams stay short: the CF model always
    has a small n_cap, and the finite models' default n_cap is at most
    10 * 3 / (K rho^k)."""
    mode = draw(st.sampled_from(["annealed", "quenched", "oracle", "concentration",
                                 "mixing"]))
    model = draw(st.sampled_from(_FUZZ_MODELS))
    doc = {"mode": mode, "model": model, "k": draw(st.integers(1, 5)),
           "n_samples": 200 if mode == "concentration" else 100}
    if mode == "concentration":
        doc["t_grid"] = [1.0]
    if model["type"] == "gauss_cf":
        doc["n_cap"] = draw(st.integers(1, 200))
    interval = st.tuples(st.sampled_from(_ENDPOINTS), st.sampled_from(_ENDPOINTS),
                         st.booleans(), st.booleans()).map(list)
    optional = {
        "k": st.sampled_from([0, 6]),
        "sets": st.lists(st.lists(interval, max_size=2), max_size=3),
        "n_samples": st.sampled_from([0, 99, 150, 250]),
        "n_x_replicas": st.integers(0, 2),
        "min_passing_replicas": st.integers(0, 3),
        "n_cap": st.integers(-1, 300),
        "seed": st.sampled_from([-1, 0, 2**64 - 1, 2**64]),
        "tv_tolerance": st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        "strict": st.booleans(),
        "t_grid": st.lists(st.sampled_from([-1.0, 0.5, 4.0]), max_size=2),
        "functional": st.sampled_from(["phi1", "phi2", "phi3"]),
        "j": st.integers(-1, 2),
        "max_lag": st.integers(0, 20),
        "truncations": st.lists(st.integers(0, 60), max_size=2),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4)):
        doc[key] = draw(optional[key])
    return doc


@given(cli_documents())
@settings(max_examples=200, deadline=None)
def test_cli_documents_run_or_exit_two_without_a_traceback(doc):
    from poissonlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        # an uncaught exception, the traceback case, fails the test here
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([doc["mode"], "--config", str(path), "--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), code
    if code in (0, 1):
        assert "strict" not in doc
        assert not (doc["mode"] in ("oracle", "concentration") and len(doc.get("sets", [])) > 1)
        assert not (doc["mode"] in ("annealed", "quenched") and doc.get("n_samples", 1000) < 100)
    elif code == 2:  # a run can warn about a low n_cap before it fails
        assert err.splitlines()[-1].startswith("error: "), err
        if "strict" in doc:
            assert err == "error: $.strict: unknown field\n"
    else:
        assert err.splitlines()[-1].startswith("error: internal check failed"), err

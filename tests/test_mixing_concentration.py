"""Dependency matrices, Lipschitz weights, tail bounds, scanned functionals.

The two-state chain eta coefficients have the closed form |1 - p - q|^m,
which pins every matrix entry exactly; weight norms are checked against a
brute numeric series summed to 1e7 terms.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from poissonlab.errors import ConfigError, UnsupportedModelError
from poissonlab.measures import (GaussCFModel, IidModel, MarkovModel,
                                 MixingProfile, make_generator, mixing_profile,
                                 psi_mixing_profile)
from poissonlab.mixing_concentration import (EtaMatrix, OccurrenceIndex,
                                             azuma_bound,
                                             concentration_experiment,
                                             delta_matrix, delta_norm,
                                             delta_norm_bound,
                                             eta_coefficients,
                                             lipschitz_weights_phi1,
                                             lipschitz_weights_phi2,
                                             mcdiarmid_tail, phi_k_S,
                                             phi_k_j_S)
from poissonlab.point_process import IntervalUnion, unit_interval

FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
CHAIN = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                (Fraction(1, 5), Fraction(4, 5))))
UNIT = unit_interval()
GEO_ETA = EtaMatrix(n=31, lags=tuple(0.7**m for m in range(1, 31)))


class _FixedStream:
    """Deterministic generator stand-in: repeats a fixed pattern."""

    def __init__(self, model, pattern):
        self.model = model
        self._pattern = tuple(pattern)
        self._pos = 0

    def take(self, n):
        out = np.fromiter(
            (self._pattern[(self._pos + i) % len(self._pattern)] for i in range(n)),
            dtype=np.int64, count=n)
        self._pos += n
        return out


class TestEtaCoefficients:
    def test_frozen_chain_values(self):
        eta = eta_coefficients(CHAIN, 5)
        assert eta.lags[0] == pytest.approx(0.7, abs=1e-15)
        assert eta.lags[2] == pytest.approx(0.343, abs=1e-15)
        assert eta.lags_exact[0] == Fraction(7, 10)

    def test_identical_rows_vanish(self):
        flat = MarkovModel(transition=((Fraction(1, 2), Fraction(1, 2)),
                                       (Fraction(1, 2), Fraction(1, 2))))
        eta = eta_coefficients(flat, 4)
        assert all(v == 0.0 for v in eta.lags)

    def test_two_state_closed_form(self):
        # eta_m = |1 - p - q|^m exactly, for random valid chains
        import random
        rnd = random.Random(60)
        for _ in range(10):
            p = Fraction(rnd.randint(1, 19), 20)
            q = Fraction(rnd.randint(1, 19), 20)
            if p == 1 and q == 1:
                continue
            chain = MarkovModel(transition=((1 - p, p), (q, 1 - q)))
            eta = eta_coefficients(chain, 30)
            base = abs(1 - float(p) - float(q))
            for m in range(1, 31):
                assert eta.lags[m - 1] == pytest.approx(base**m, abs=1e-12)

    def test_iid_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            eta_coefficients(FAIR, 5)

    def test_entry_reconstruction(self):
        eta = EtaMatrix(n=5, lags=(0.5, 0.25))
        assert eta.entry(2, 2) == 1.0
        assert eta.entry(3, 2) == 0.0
        assert eta.entry(1, 2) == 0.5
        assert eta.entry(0, 2) == 0.25
        # beyond the stored lags: geometric tail with the observed ratio
        assert eta.entry(0, 3) == pytest.approx(0.125)

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            EtaMatrix(n=3, lags=(1.5,))
        with pytest.raises(ValueError):
            eta_coefficients(CHAIN, 0)


class TestDeltaMatrix:
    def test_layout(self):
        eta = EtaMatrix(n=3, lags=(0.7, 0.49))
        want = np.array([[1.0, 0.7, 0.49],
                         [0.0, 1.0, 0.7],
                         [0.0, 0.0, 1.0]])
        assert np.allclose(delta_matrix(eta), want, atol=1e-15)

    def test_dimension_one(self):
        assert delta_matrix(EtaMatrix(n=1, lags=()), 1).tolist() == [[1.0]]

    def test_independent_is_identity(self):
        eta = EtaMatrix(n=6, lags=(0.0,) * 5)
        assert np.array_equal(delta_matrix(eta), np.eye(6))


class TestDeltaNorm:
    def test_identity_norm_one(self):
        res = delta_norm(np.eye(8))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_geometric_tail_value(self):
        res = delta_norm(delta_matrix(GEO_ETA, 200))
        assert 3.0 <= res.value <= 10 / 3

    def test_against_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = np.triu(rng.random((12, 12)))
            np.fill_diagonal(m, 1.0)
            got = delta_norm(m).value
            want = float(np.linalg.svd(m, compute_uv=False)[0])
            assert got == pytest.approx(want, rel=1e-8)

    def test_monotone_in_n_and_bounded(self):
        eta = eta_coefficients(CHAIN, 30)
        prof = psi_mixing_profile(CHAIN)
        bound = delta_norm_bound(prof)
        assert bound == pytest.approx(31 / 3, abs=1e-9)
        prev = 0.0
        for n in (10, 50, 100, 200):
            v = delta_norm(delta_matrix(eta, n)).value
            assert v >= prev - 1e-9
            assert v <= bound + 1e-9
            prev = v

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            delta_norm(np.ones((2, 3)))


class TestDeltaNormBound:
    def test_closed_form_values(self):
        assert delta_norm_bound(MixingProfile(T=1.0, sigma=0.5)) == pytest.approx(3.0)
        assert delta_norm_bound(MixingProfile(T=0.5, sigma=0.7)) \
            == pytest.approx(10 / 3, abs=1e-12)
        assert delta_norm_bound(MixingProfile(T=1.0, sigma=0.7)) \
            == pytest.approx(17 / 3, abs=1e-12)
        assert delta_norm_bound(MixingProfile(T=3.0, sigma=0.0)) == 1.0

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            delta_norm_bound(MixingProfile(T=1.0, sigma=1.0))
        with pytest.raises(ValueError):
            delta_norm_bound(MixingProfile(T=None, sigma=0.5))


class TestLipschitzWeights:
    def test_phi1_base_case_norm(self):
        prof = mixing_profile(FAIR)
        w = lipschitz_weights_phi1(1, UNIT, prof)
        # c_i = 2 min(1/2, 1/i): flat head of two, then harmonic decay
        assert w.crossover == 2
        assert w.value_at(1) == pytest.approx(1.0)
        assert w.value_at(2) == pytest.approx(1.0)
        assert w.value_at(5) == pytest.approx(0.4)
        want = 2.0 + 4.0 * (math.pi**2 / 6 - 1.25)
        assert w.norm_sq == pytest.approx(want, abs=1e-9)
        assert w.norm_sq == pytest.approx(3.5797, abs=1e-4)
        assert w.norm_sq <= w.bound

    def test_norm_against_brute_series(self):
        # independent check: sum the series numerically to 1e7 terms and
        # bracket the remainder by the integral comparison
        prof = mixing_profile(FAIR)
        w = lipschitz_weights_phi1(1, UNIT, prof)
        n_terms = 10**7
        partial = 2.0
        for lo in range(3, n_terms + 1, 10**6):
            hi = min(lo + 10**6, n_terms + 1)
            i = np.arange(lo, hi, dtype=np.float64)
            partial += float(np.sum(4.0 / (i * i)))
        assert partial + 4.0 / (n_terms + 1) <= w.norm_sq <= partial + 4.0 / n_terms

    def test_empty_set_gives_zero_weights(self):
        prof = mixing_profile(FAIR)
        w = lipschitz_weights_phi1(3, IntervalUnion.from_spec([]), prof)
        assert w.norm_sq == 0.0
        assert not w.values.any()
        assert w.value_at(17) == 0.0

    def test_phi2_relation(self):
        prof = mixing_profile(FAIR)
        a = lipschitz_weights_phi1(1, UNIT, prof)
        b = lipschitz_weights_phi2(1, UNIT, prof)
        assert np.array_equal(a.values, b.values)
        a2 = lipschitz_weights_phi1(2, UNIT, prof)
        b2 = lipschitz_weights_phi2(2, UNIT, prof)
        assert np.allclose(b2.values, a2.values / 2.0, atol=1e-15)
        assert b2.norm_sq == pytest.approx(a2.norm_sq / 4.0, rel=1e-12)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            lipschitz_weights_phi1(0, UNIT, mixing_profile(FAIR))


class TestAzumaBound:
    def test_independent_case_identity(self):
        eta = EtaMatrix(n=6, lags=(0.0,) * 5)
        c = np.array([0.5, 0.25, 0.1, 0.05, 0.02, 0.01])
        out = azuma_bound(c, eta)
        assert np.allclose(out.d, c, atol=1e-15)
        assert out.delta_norm_used == pytest.approx(1.0, abs=1e-9)

    def test_single_weight_unaffected(self):
        c = np.zeros(10)
        c[0] = 1.0
        out = azuma_bound(c, GEO_ETA)
        assert out.d[0] == pytest.approx(1.0)
        assert np.allclose(out.d[1:], 0.0, atol=1e-15)

    def test_flat_weights_interior_value(self):
        n = 120
        out = azuma_bound(np.ones(n), GEO_ETA)
        # interior coordinate: 1 + sum of the geometric tail = 10/3
        assert out.d[0] == pytest.approx(10 / 3, rel=1e-4)
        assert out.d[-1] == pytest.approx(1.0)

    def test_norm_inequality_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            c = rng.random(n) * rng.uniform(0.1, 5.0)
            lags = np.sort(rng.random(n - 1))[::-1] if n > 1 else np.array([])
            eta = EtaMatrix(n=n, lags=tuple(lags))
            out = azuma_bound(c, eta)  # raises if ||d|| > ||Delta|| ||c||
            assert out.d_norm <= out.delta_norm_used * np.linalg.norm(c) + 1e-9

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            azuma_bound(np.array([]), GEO_ETA)
        with pytest.raises(ValueError):
            azuma_bound(np.array([-1.0]), GEO_ETA)


class TestMcDiarmidTail:
    def test_values(self):
        assert mcdiarmid_tail(3.0, 1.0, 1.0) == pytest.approx(
            2.0 * math.exp(-4.5), abs=1e-12)
        assert mcdiarmid_tail(3.0, 1.0, 1.0) == pytest.approx(0.02222, abs=1e-4)
        # t^2 = 2 ||Delta||^2 ||c||^2 lands on 2/e
        assert mcdiarmid_tail(math.sqrt(2.0), 1.0, 1.0) == pytest.approx(
            2.0 / math.e, abs=1e-12)

    def test_clamped_at_one(self):
        assert mcdiarmid_tail(0.1, 1.0, 1.0) == 1.0

    def test_domain(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0)]:
            with pytest.raises(ValueError):
                mcdiarmid_tail(*bad)


class TestOccurrenceIndex:
    def test_exact_mode_positions(self):
        x = np.array([0, 1, 1, 0, 1, 1, 1, 0])
        idx = OccurrenceIndex(x, 2, 2)
        assert idx.exact
        assert idx.positions((1, 1)).tolist() == [2, 5, 6]
        assert idx.positions((0, 0)).tolist() == []
        assert idx.count_in_ranges((1, 1), [(1, 5)]) == 2
        assert idx.count_in_ranges((1, 1), [(1, 2), (6, 8)]) == 2

    def test_hash_mode_matches_brute_scan(self):
        rng = np.random.default_rng(17)
        x = rng.integers(0, 1000, size=400)
        k = 8
        idx = OccurrenceIndex(x, k, 1001)  # 1001**8 overflows the exact mode
        assert not idx.exact
        for start in (0, 50, 123):
            w = tuple(int(v) for v in x[start: start + k])
            brute = [i + 1 for i in range(len(x) - k + 1)
                     if tuple(int(v) for v in x[i: i + k]) == w]
            assert idx.positions(w).tolist() == brute
        assert idx.positions(tuple(range(1000, 1000 - k, -1))).tolist() == []

    def test_modes_agree(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=300)
        k = 4
        exact = OccurrenceIndex(x, k, 3)
        hashed = OccurrenceIndex(x, k, None)
        assert exact.exact and not hashed.exact
        for _ in range(20):
            w = tuple(int(v) for v in rng.integers(0, 3, size=k))
            assert exact.positions(w).tolist() == hashed.positions(w).tolist()

    @staticmethod
    def _literal(x, k, w, ranges):
        n_win = len(x) - k + 1
        return sum(1 for a, b in ranges for p in range(max(a, 1), min(b, n_win) + 1)
                   if x[p - 1: p - 1 + k].tolist() == list(w))

    # "collide" makes the hash the plain symbol sum, so distinct windows
    # share codes and only the comparison against x tells them apart
    @pytest.mark.parametrize("mode", ["exact", "hash", "collide"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_batched_counts_match_literal_scan(self, mode, k, monkeypatch):
        from poissonlab import mixing_concentration
        if mode == "collide":
            monkeypatch.setattr(mixing_concentration, "HASH_MULT", np.uint64(1))
        rng = np.random.default_rng(k)
        x = rng.integers(0, 3, size=120)
        n_win = len(x) - k + 1
        idx = OccurrenceIndex(x, k, 3 if mode == "exact" else None)
        assert idx.exact == (mode == "exact")
        words = np.concatenate([
            [x[p: p + k] for p in (0, n_win - 1, 17)],  # first, last and some window
            rng.integers(0, 3, size=(40, k)),           # present or absent
            np.full((1, k), 3), np.full((1, k), -1),    # outside the alphabet
        ])
        for ranges in ([(1, n_win)], [(1, 1)], [(n_win, n_win)], [(n_win - 5, n_win + 40)],
                       [(1, 10), (30, 31), (50, 90)], [(-4, 2), (60, 59)], []):
            expected = [self._literal(x, k, w, ranges) for w in words]
            got = idx.count_in_ranges(words, ranges)
            assert got.dtype == np.int64 and got.tolist() == expected
            assert [idx.count_in_ranges(tuple(w), ranges) for w in words[:5]] == expected[:5]
        for w in words[:10]:
            brute = [p + 1 for p in range(n_win) if x[p: p + k].tolist() == w.tolist()]
            assert idx.positions(w).tolist() == brute
        assert idx.count_in_ranges(np.zeros((0, k), dtype=np.int64), [(1, 5)]).tolist() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            OccurrenceIndex(np.array([0, 1]), 3, 2)
        idx = OccurrenceIndex(np.array([0, 1, 0]), 2, 2)
        with pytest.raises(ValueError):
            idx.positions((0, 1, 0))
        with pytest.raises(ValueError):
            idx.count_in_ranges(np.zeros((4, 3), dtype=np.int64), [(1, 2)])


class TestPhiScan:
    def test_single_symbol_windows(self):
        gen = _FixedStream(FAIR, (0, 1))
        out = phi_k_S(gen, 1, UNIT, 4)
        # mu = 1/2 per window; i * mu lands in (0, 1] for i = 1, 2
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.complete
        assert out.skipped_bound == 0.0

    def test_alternating_pairs(self):
        gen = _FixedStream(FAIR, (0, 1))
        out = phi_k_S(gen, 2, UNIT, 10)
        # every window is 01 or 10 with mu = 1/4; hits at i = 1..4
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.complete

    def test_incomplete_scan_reports_skip(self):
        gen = _FixedStream(FAIR, (0, 1))
        out = phi_k_S(gen, 2, UNIT, 2)  # needs 4 window starts, given 2
        assert not out.complete
        assert out.skipped_bound == pytest.approx(0.5)

    def test_cap_validation(self):
        with pytest.raises(ConfigError):
            phi_k_S(_FixedStream(FAIR, (0, 1)), 3, UNIT, 2)

    def test_random_stream_fair_value_is_set_size(self):
        # uniform measure: the scan telescopes to |S| once complete, up to
        # float rounding at the boundary index (at most one window of mass)
        gen = make_generator(FAIR, 321)
        out = phi_k_S(gen, 6, UNIT, 64)
        assert out.complete
        assert out.value == pytest.approx(1.0, abs=2**-6 + 1e-9)


class TestPhiJMass:
    def test_exact_alternating_example(self):
        gen = _FixedStream(FAIR, (0, 1))
        est = phi_k_j_S(gen, 2, 0, UNIT, n_word_samples=0, word_seed=0)
        assert est.exact
        # 01 and 10 each occur twice in their index windows; 00 and 11 never
        assert est.estimate == pytest.approx(0.5, abs=1e-15)
        assert est.truncated_fraction == 0.0
        est2 = phi_k_j_S(_FixedStream(FAIR, (0, 1)), 2, 2, UNIT,
                         n_word_samples=0, word_seed=0)
        assert est2.estimate == pytest.approx(0.5, abs=1e-15)

    def test_unreachable_count_has_no_mass(self):
        est = phi_k_j_S(_FixedStream(FAIR, (0, 1)), 2, 7, UNIT,
                        n_word_samples=0, word_seed=0)
        assert est.estimate == 0.0

    def test_empty_set_concentrates_at_zero(self):
        empty = IntervalUnion.from_spec([])
        est = phi_k_j_S(_FixedStream(FAIR, (0, 1)), 2, 0, empty,
                        n_word_samples=0, word_seed=0)
        assert est.exact
        assert est.estimate == pytest.approx(1.0, abs=1e-15)

    def test_mc_path_needs_samples(self):
        gen = make_generator(GaussCFModel(), 8)
        with pytest.raises(ConfigError):
            phi_k_j_S(gen, 2, 0, UNIT, n_word_samples=50, word_seed=1)

    def test_mc_path_runs_on_gauss(self):
        gen = make_generator(GaussCFModel(), 8)
        est = phi_k_j_S(gen, 1, 0, UNIT, n_word_samples=150, word_seed=3,
                        x_cap=20000)
        assert not est.exact
        assert 0.0 <= est.estimate <= 1.0
        assert est.n_used > 0

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            phi_k_j_S(_FixedStream(FAIR, (0, 1)), 2, -1, UNIT,
                      n_word_samples=0, word_seed=0)


class TestConcentrationExperiment:
    def test_uniform_model_report(self):
        rep = concentration_experiment(FAIR, 10, UNIT, [5.0, 30.0], 200, 77)
        # ||Delta|| bound is 1 for independent coordinates, so the
        # denominator is 8 k^4 K^2 rho^k = 8e4 / 1024
        assert rep.denominator == pytest.approx(78.125, abs=1e-9)
        assert rep.complete
        # the scan value is |S| up to float rounding at the last index,
        # which can drop one window of mass 2^-10
        assert rep.mean == pytest.approx(1.0, abs=2**-10 + 1e-9)
        assert rep.std == pytest.approx(0.0, abs=1e-9)
        assert rep.violations == 0
        t30 = rep.rows[1]
        assert t30.theoretical_bound == pytest.approx(1.986e-5, rel=1e-3)
        assert t30.empirical_prob == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            concentration_experiment(FAIR, 4, UNIT, [1.0], 100, 1)
        with pytest.raises(ConfigError):
            concentration_experiment(FAIR, 4, UNIT, [], 200, 1)
        with pytest.raises(ConfigError):
            concentration_experiment(FAIR, 4, UNIT, [-1.0], 200, 1)
        with pytest.raises(ConfigError):
            concentration_experiment(FAIR, 4, UNIT, [1.0], 200, 1,
                                     functional="phi9")

    def test_determinism(self):
        a = concentration_experiment(FAIR, 6, UNIT, [2.0], 200, 13)
        b = concentration_experiment(FAIR, 6, UNIT, [2.0], 200, 13)
        assert a == b

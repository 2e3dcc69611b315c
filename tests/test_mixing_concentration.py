"""Dependency matrices, Lipschitz weights, tail bounds, scanned functionals.

The two-state chain eta coefficients have the closed form |1 - p - q|^m,
which pins every matrix entry exactly; weight norms are checked against a
brute numeric series summed to 1e7 terms.
"""

import dataclasses
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from poissonlab.errors import ConfigError, UnsupportedModelError
from poissonlab.measures import (GaussCFModel, IidModel, MarkovModel,
                                 MixingProfile, SequenceGenerator, cylinder_prob,
                                 mixing_profile, model_to_spec)
from poissonlab.experiments import parse_config, run_concentration
from poissonlab.mixing_concentration import (OccurrenceIndex, delta_matrix, delta_norm,
                                             delta_norm_bound,
                                             eta_coefficients,
                                             lipschitz_weights_phi1,
                                             lipschitz_weights_phi2,
                                             phi2_enumerable, phi_k_S,
                                             phi_k_j_S)
from poissonlab.point_process import IntervalUnion, unit_interval

FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
CHAIN = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                (Fraction(1, 5), Fraction(4, 5))))
UNIT = unit_interval()
GEO_LAGS = tuple(0.7**m for m in range(1, 31))


class _Rows:
    """A block of streams for the functionals from a matrix already drawn,
    one stream per row, read by ``take`` as a generator of their seeds would
    give them, into ``out`` where given."""

    def __init__(self, rows):
        self.rows, self.seeds, self.emitted, self.dtype = rows, range(len(rows)), 0, rows.dtype

    def take(self, n, out=None, buffers=None):
        self.emitted += n
        x = self.rows[:, self.emitted - n: self.emitted]
        if out is None:
            return x
        out[...] = x
        return out


def _tiled(pattern, rows=1):
    """``streams`` for the functionals: ``rows`` copies of ``pattern``
    repeated to the asked length, in one block."""
    def streams(length):
        return [_Rows(np.tile(np.resize(np.asarray(pattern, dtype=np.int64), length),
                              (rows, 1)))]
    return streams


def _generated(model, seeds, per_matrix=None):
    """``streams`` for the functionals: one row per seed, from the model's
    generator, ``per_matrix`` rows to a block (all in one by default)."""
    def streams(length):
        rows = [SequenceGenerator(model, sd).take(length) for sd in seeds]
        step = per_matrix or len(rows)
        return [_Rows(np.stack(rows[lo: lo + step])) for lo in range(0, len(rows), step)]
    return streams


class TestEtaCoefficients:
    def test_frozen_chain_values(self):
        eta = eta_coefficients(CHAIN, 5)
        assert eta[0] == Fraction(7, 10)
        assert eta[2] == Fraction(343, 1000)
        assert len(eta) == 5

    def test_identical_rows_vanish(self):
        flat = MarkovModel(transition=((Fraction(1, 2), Fraction(1, 2)),
                                       (Fraction(1, 2), Fraction(1, 2))))
        assert eta_coefficients(flat, 4) == (0, 0, 0, 0)

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
            assert eta == tuple(abs(1 - p - q)**m for m in range(1, 31))

    def test_iid_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            eta_coefficients(FAIR, 5)

    def test_entry_reconstruction(self):
        delta = delta_matrix((0.5, 0.25), 5)
        assert delta[2, 2] == 1.0
        assert delta[3, 2] == 0.0
        assert delta[1, 2] == 0.5
        assert delta[0, 2] == 0.25
        # beyond the given lags: geometric tail with the observed ratio
        assert delta[0, 3] == pytest.approx(0.125)
        assert delta[0, 4] == pytest.approx(0.0625)

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            eta_coefficients(CHAIN, 0)

    def test_powers_are_shared_with_the_profile(self):
        # eta and the profile's ratio matrices read one cache of exact powers
        chain = MarkovModel(transition=CHAIN.transition)
        eta_coefficients(chain, 30)
        first = chain.matrix_power(30)
        mixing_profile(chain)
        assert chain.matrix_power(30) is first
        assert len(chain._powers) == 50


class TestDeltaMatrix:
    def test_layout(self):
        want = np.array([[1.0, 0.7, 0.49],
                         [0.0, 1.0, 0.7],
                         [0.0, 0.0, 1.0]])
        assert np.allclose(delta_matrix((0.7, 0.49), 3), want, atol=1e-15)

    def test_dimension_one(self):
        assert delta_matrix((), 1).tolist() == [[1.0]]

    def test_independent_is_identity(self):
        assert np.array_equal(delta_matrix((0.0,) * 5, 6), np.eye(6))


class TestDeltaNorm:
    def test_identity_norm_one(self):
        assert delta_norm(np.eye(8)) == pytest.approx(1.0, abs=1e-10)

    def test_geometric_tail_value(self):
        assert 3.0 <= delta_norm(delta_matrix(GEO_LAGS, 200)) <= 10 / 3

    def test_against_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = np.triu(rng.random((12, 12)))
            np.fill_diagonal(m, 1.0)
            got = delta_norm(m)
            want = float(np.linalg.svd(m, compute_uv=False)[0])
            assert got == pytest.approx(want, rel=1e-8)

    def test_monotone_in_n_and_bounded(self):
        eta = [float(v) for v in eta_coefficients(CHAIN, 30)]
        prof = mixing_profile(CHAIN)
        bound = delta_norm_bound(prof)
        assert bound == pytest.approx(31 / 3, abs=1e-9)
        prev = 0.0
        for n in (10, 50, 100, 200):
            v = delta_norm(delta_matrix(eta, n))
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
        norm_sq, bound = lipschitz_weights_phi1(1, UNIT, prof)
        # c_i = 2 min(1/2, 1/i): flat head of two, then harmonic decay
        want = 2.0 + 4.0 * (math.pi**2 / 6 - 1.25)
        assert norm_sq == pytest.approx(want, abs=1e-9)
        assert norm_sq == pytest.approx(3.5797, abs=1e-4)
        assert norm_sq <= bound == 8.0 * 0.5

    def test_norm_against_brute_series(self):
        # independent check: sum the series numerically to 1e7 terms and
        # bracket the remainder by the integral comparison
        prof = mixing_profile(FAIR)
        norm_sq, _ = lipschitz_weights_phi1(1, UNIT, prof)
        n_terms = 10**7
        partial = 2.0
        for lo in range(3, n_terms + 1, 10**6):
            hi = min(lo + 10**6, n_terms + 1)
            i = np.arange(lo, hi, dtype=np.float64)
            partial += float(np.sum(4.0 / (i * i)))
        assert partial + 4.0 / (n_terms + 1) <= norm_sq <= partial + 4.0 / n_terms

    def test_empty_set_gives_zero_weights(self):
        prof = mixing_profile(FAIR)
        assert lipschitz_weights_phi1(3, IntervalUnion.from_spec([]), prof) == (0.0, 0.0)

    def test_phi2_relation(self):
        prof = mixing_profile(FAIR)
        # the phi2 factor 2k is the phi1 factor 2k^2 over k, so the norm
        # shrinks by k^2 and the majorant 8 k^2 against 8 k^4 as well
        assert lipschitz_weights_phi1(1, UNIT, prof) == lipschitz_weights_phi2(1, UNIT, prof)
        a2 = lipschitz_weights_phi1(2, UNIT, prof)
        b2 = lipschitz_weights_phi2(2, UNIT, prof)
        assert b2 == pytest.approx((a2[0] / 4.0, a2[1] / 4.0), rel=1e-12)

    def test_k_validation(self):
        for weights in (lipschitz_weights_phi1, lipschitz_weights_phi2):
            with pytest.raises(ValueError):
                weights(0, UNIT, mixing_profile(FAIR))

    def test_float_hurwitz_zeta_matches_mpmath(self):
        import mpmath

        from poissonlab.mixing_concentration import _hurwitz_zeta

        qs = [*range(1, 70), 0.5, 31.5, *(10**e for e in range(2, 19)),
              *(3 * 10**e + 7 for e in range(1, 18))]
        for q in qs:
            want = mpmath.zeta(2, q)
            assert abs(_hurwitz_zeta(2, q) - want) <= 1e-15 * want, q

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_contracting_chain_needs_the_max_k_one_majorant(self, k):
        # the shipped chain has K < 1; its weight norm is above the
        # 8 k^4 sup(S) K^2 rho^k form, so the majorant uses max(K, 1)^2
        prof = mixing_profile(CHAIN)
        assert prof.K < 1.0
        norm_sq, bound = lipschitz_weights_phi1(k, UNIT, prof)
        assert norm_sq > 8.0 * k**4 * 1.0 * prof.K**2 * prof.rho**k
        assert norm_sq <= bound


class TestOccurrenceIndex:
    def test_exact_mode_positions(self):
        x = np.array([0, 1, 1, 0, 1, 1, 1, 0])
        idx = OccurrenceIndex(x, 2)
        assert idx.positions((1, 1)).tolist() == [2, 5, 6]
        assert idx.positions((0, 0)).tolist() == []
        assert idx.count_in_ranges(np.array([[1, 1]]), np.array([[(1, 5)]])).tolist() == [2]
        assert idx.count_in_ranges(np.array([[1, 1], [1, 1]]),
                                   np.array([[(1, 2), (6, 8)], [(3, 5), (1, 0)]])).tolist() \
            == [2, 1]

    def test_hash_mode_matches_brute_scan(self):
        rng = np.random.default_rng(17)
        x = rng.integers(0, 1000, size=400)
        k = 8
        idx = OccurrenceIndex(x, k)
        for start in (0, 50, 123):
            w = tuple(int(v) for v in x[start: start + k])
            brute = [i + 1 for i in range(len(x) - k + 1)
                     if tuple(int(v) for v in x[i: i + k]) == w]
            assert idx.positions(w).tolist() == brute
        assert idx.positions(tuple(range(1000, 1000 - k, -1))).tolist() == []

    @staticmethod
    def _literal(x, k, w, ranges):
        n_win = len(x) - k + 1
        return sum(1 for a, b in ranges for p in range(max(a, 1), min(b, n_win) + 1)
                   if x[p - 1: p - 1 + k].tolist() == list(w))

    # "exact" makes the hash the base-3 code of the window, which no two
    # windows share; "collide" makes it the plain symbol sum, so distinct
    # windows and words share hashes and only the comparison against x tells
    # them apart
    @pytest.mark.parametrize("mode", ["exact", "hash", "collide"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_batched_counts_match_literal_scan(self, mode, k, monkeypatch):
        from poissonlab import mixing_concentration
        if mode != "hash":
            monkeypatch.setattr(mixing_concentration, "HASH_MULT",
                                np.uint64(3 if mode == "exact" else 1))
        rng = np.random.default_rng(k)
        x = rng.integers(0, 3, size=120)
        n_win = len(x) - k + 1
        idx = OccurrenceIndex(x, k)
        words = np.concatenate([
            [x[p: p + k] for p in (0, n_win - 1, 17)],  # first, last and some window
            rng.integers(0, 3, size=(40, k)),           # present or absent
            np.full((1, k), 3), np.full((1, k), -1),    # outside the alphabet
        ])
        shared = ([(1, n_win)], [(1, 1)], [(n_win, n_win)], [(n_win - 5, n_win + 40)],
                  [(1, 10), (30, 31), (50, 90)], [(-4, 2), (60, 59)], [])
        for ranges in shared:
            expected = [self._literal(x, k, w, ranges) for w in words]
            per_row = np.broadcast_to(np.array(ranges, dtype=np.int64).reshape(-1, 2),
                                      (len(words), len(ranges), 2))
            got = idx.count_in_ranges(words, per_row)
            assert got.dtype == np.int64 and got.tolist() == expected
        # per-word ranges, (n, m, 2): random pairs, some empty (b < a), and
        # rows padded with the empty range (1, 0) as the drivers pad them
        lo = rng.integers(-5, n_win + 5, size=(len(words), 3))
        per_word = np.stack([lo, lo + rng.integers(-3, 40, size=lo.shape)], axis=-1)
        per_word[::7] = (1, 0)
        per_word[1::5, 1:] = (1, 0)
        expected = [self._literal(x, k, w, [tuple(r) for r in rs])
                    for w, rs in zip(words, per_word)]
        assert idx.count_in_ranges(words, per_word).tolist() == expected
        assert idx.count_in_ranges(words, per_word[:, :0]).tolist() == [0] * len(words)
        for w in words[:10]:
            brute = [p + 1 for p in range(n_win) if x[p: p + k].tolist() == w.tolist()]
            assert idx.positions(w).tolist() == brute
        assert idx.count_in_ranges(np.zeros((0, k), dtype=np.int64),
                                   np.zeros((0, 1, 2), dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_sets_equal_one_call_per_set(self, k):
        # (sets, n, m, 2) ranges: starts before, inside and past the stream,
        # empty pairs (b < a), and rows padded with (1, 0) as the drivers pad them
        rng = np.random.default_rng(40 + k)
        x = rng.integers(0, 3, size=150)
        n_win = len(x) - k + 1
        idx = OccurrenceIndex(x, k)
        words = np.concatenate([rng.integers(0, 3, size=(60, k)), x[None, :k],
                                np.full((1, k), 5)])
        lo = rng.integers(-10, n_win + 10, size=(4, len(words), 3))
        ranges = np.stack([lo, lo + rng.integers(-3, 50, size=lo.shape)], axis=-1)
        ranges[:, ::6] = (1, 0)
        ranges[1, 1::4, 1:] = (1, 0)
        ranges[2, :, :] = (n_win + 1, n_win + 9)  # every range past the last window
        lookups, hits = [], idx._hits
        idx._hits = lambda w: lookups.append(len(w)) or hits(w)
        got = idx.count_in_ranges(words, ranges)
        assert lookups == [len(words)]  # one lookup serves every set
        assert got.dtype == np.int64 and got.shape == (4, len(words))
        assert got.tolist() == [idx.count_in_ranges(words, slab).tolist() for slab in ranges]
        assert got.tolist() == [[self._literal(x, k, w, [tuple(r) for r in rs])
                                 for w, rs in zip(words, slab)] for slab in ranges]
        assert not got[2].any() and got.any()
        assert np.array_equal(idx.count_in_ranges(words, ranges.reshape(2, 2, -1, 3, 2)),
                              got.reshape(2, 2, -1))

    def test_validation(self):
        with pytest.raises(ValueError):
            OccurrenceIndex(np.array([0, 1]), 3)
        idx = OccurrenceIndex(np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError):
            idx.positions((0, 1, 0))
        one, four = np.ones((1, 1, 2), dtype=np.int64), np.ones((4, 1, 2), dtype=np.int64)
        for words, ranges in ((np.zeros((4, 3), dtype=np.int64), four),  # k = 3, not 2
                              (np.zeros(2, dtype=np.int64), one),        # one word, 1-D
                              (np.zeros((4, 2), dtype=np.int64), one),   # shared ranges
                              (np.zeros((4, 2), dtype=np.int64), four[:, 0])):
            with pytest.raises(ValueError):
                idx.count_in_ranges(words, ranges)


class TestPhiScan:
    def test_single_symbol_windows(self):
        values, complete = phi_k_S(FAIR, _tiled((0, 1)), 1, UNIT, 4)
        # mu = 1/2 per window; i * mu lands in (0, 1] for i = 1, 2
        assert values.tolist() == [pytest.approx(1.0, abs=1e-12)]
        assert complete

    def test_alternating_pairs(self):
        values, complete = phi_k_S(FAIR, _tiled((0, 1), rows=3), 2, UNIT, 10)
        # every window is 01 or 10 with mu = 1/4; hits at i = 1..4
        assert values == pytest.approx([1.0] * 3, abs=1e-12)
        assert complete

    def test_incomplete_scan_reports_skip(self):
        # needs 4 window starts: 3 are too few, 4 enough
        assert not phi_k_S(FAIR, _tiled((0, 1)), 2, UNIT, 3)[1]
        assert phi_k_S(FAIR, _tiled((0, 1)), 2, UNIT, 4)[1]
        # no positive lower bound on a word's measure: never complete
        assert not phi_k_S(GaussCFModel(), _tiled((1, 2)), 2, UNIT, 100)[1]

    def test_cap_validation(self):
        with pytest.raises(ConfigError):
            phi_k_S(FAIR, _tiled((0, 1)), 3, UNIT, 2)

    def test_cf_window_measures_equal_cylinder_prob(self):
        # the CF stream is checked once, then each window goes straight to
        # gauss_cylinder_prob: the logs must be those of the checked
        # per-window cylinder_prob, also for digits past 2**26 and 2**53
        from poissonlab.mixing_concentration import _window_log_mu

        for seed in (77, 0, 1, 2, 3):
            x = SequenceGenerator(GaussCFModel(), seed).take(300)
            x[[5, 50, 51, 120, 299]] = [2**26 + 3, 2**53 + 1, 7, 2**62, 2**63 - 1]
            for k in (1, 3, 5):
                got = _window_log_mu(GaussCFModel(), k)(x)
                want = [math.log(cylinder_prob(GaussCFModel(), x[i: i + k].tolist()))
                        for i in range(len(x) - k + 1)]
                assert got.tobytes() == np.array(want).tobytes(), (seed, k)
        for bad in (0, -3):
            with pytest.raises(ValueError):
                _window_log_mu(GaussCFModel(), 2)(np.array([1, 2, bad, 4]))

    def test_cf_window_of_underflowing_measure_adds_zero(self):
        # 400 digits of 10 have a measure near 1e-800, a float 0: its log is
        # -inf, the window adds 0, and 400 digits of 1 (about 1e-167) keep theirs
        from poissonlab.mixing_concentration import _window_log_mu

        x = np.array([[10] * 410, [1] * 410])
        got = _window_log_mu(GaussCFModel(), 400)(x)
        assert (got[0] == -math.inf).all()
        want = [math.log(cylinder_prob(GaussCFModel(), x[1, i: i + 400].tolist()))
                for i in range(11)]
        assert got[1].tobytes() == np.array(want).tobytes()
        values, complete = phi_k_S(GaussCFModel(), _tiled((10,)), 400, UNIT, 2000)
        assert values.tolist() == [0.0] and not complete

    def test_random_stream_fair_value_is_set_size(self):
        # uniform measure: the scan telescopes to |S| once complete, up to
        # float rounding at the boundary index (at most one window of mass)
        values, complete = phi_k_S(FAIR, _generated(FAIR, [321]), 6, UNIT, 64)
        assert complete
        assert values[0] == pytest.approx(1.0, abs=2**-6 + 1e-9)

    @staticmethod
    def _asked(model, pattern, k):
        asked = []

        def streams(length):
            asked.append(length)
            return _tiled(pattern, rows=2)(length)

        assert len(phi_k_S(model, streams, k, UNIT, 50)[0]) == 2
        return asked

    def test_streams_are_asked_for_the_scanned_length_once(self):
        # no window past the reach sup S / mu_min = 8 (up to the float-error
        # bound of _scan_reach) reaches (0, 1]: 8 + k - 1 symbols
        assert self._asked(FAIR, (0, 1), 3) == [10]

    def test_streams_without_a_measure_floor_are_asked_for_n_cap(self):
        # no positive lower bound on a word's measure: all N_cap + k - 1
        assert self._asked(GaussCFModel(), (1, 2), 2) == [51]


def _full_scan_log_mu(model, x, k):
    """Float log-measures of the length-k windows of ``x``."""
    if isinstance(model, GaussCFModel):
        return np.array([math.log(cylinder_prob(model, x[i: i + k].tolist()))
                         for i in range(len(x) - k + 1)])
    if isinstance(model, IidModel):
        if model.probs is None:
            r = model._r_float
            per = math.log1p(-r) + x * math.log(r)
        else:
            with np.errstate(divide="ignore"):  # a symbol of probability 0 is never drawn
                per = np.log(np.asarray(model._floats))[x]
        cs = np.concatenate([[0.0], np.cumsum(per)])
        return cs[k:] - cs[:-k]
    n_win = len(x) - k + 1
    logpi = np.log(np.asarray(model._pi_floats))
    with np.errstate(divide="ignore"):
        logt = np.log(np.asarray(model._t_floats))
    cs = np.concatenate([[0.0], np.cumsum(logt[x[:-1], x[1:]])])
    return logpi[x[:n_win]] + (cs[k - 1:] - cs[: n_win])


def _full_scan_hits(model, x, k, S, N_cap):
    """The float measures of the first N_cap windows of ``x`` and whether
    each lands in S (i * mu in S, i the 1-indexed start)."""
    mu = np.exp(_full_scan_log_mu(model, x[: N_cap + k - 1].astype(np.int64), k))
    at = mu * np.arange(1, N_cap + 1, dtype=np.float64)
    hit = np.zeros(N_cap, dtype=bool)
    for iv in S.intervals:
        lo, hi = float(iv.lo), float(iv.hi)
        hit |= (at >= lo if iv.lo_closed else at > lo) \
            & (at <= hi if iv.hi_closed else at < hi)
    return mu, hit


def _full_scan(model, streams, k, S, N_cap):
    """Reference phi1: every stream scanned over all N_cap windows, one row
    at a time, whether or not a window can still reach S."""
    values = []
    for block in streams(N_cap + k - 1):
        for x in block.take(N_cap + k - 1):
            mu, hit = _full_scan_hits(model, x, k, S, N_cap)
            values.append(float(np.sum(mu[hit])))
    return np.array(values)


SCAN_MODELS = {
    "fair": FAIR,
    "third": IidModel(probs=(Fraction(1, 3), Fraction(2, 3))),
    "triple": IidModel(probs=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
    "chain": CHAIN,
    "two_fifths": IidModel(probs=(Fraction(2, 5), Fraction(3, 5))),
    # every stream of these sums the same floats: a phi1 run draws one replica
    "support_uniform": IidModel(probs=(Fraction(0), Fraction(1, 2), Fraction(1, 2))),
    "triangle": MarkovModel(transition=tuple(
        tuple(Fraction(0) if a == b else Fraction(1, 2) for b in range(3)) for a in range(3))),
}
ONE_MEASURE = ("fair", "support_uniform", "triangle")
# no positive floor on a word's measure: every window up to n_cap is scanned
FLOORLESS_MODELS = {
    "geometric": IidModel(tail_ratio=Fraction(1, 2)),
    "gauss": GaussCFModel(),
}
FLOORLESS_CAP = 3000
TWO_INTERVALS = IntervalUnion.from_spec([(0, Fraction(1, 4), False, True),
                                         (Fraction(1, 2), Fraction(3, 4), False, True)])
SEEDS = (3, 14, 15, 92)


@pytest.fixture(scope="module")
def scan_rows():
    """Four generated streams per model, long enough for every n_cap below."""
    return {name: np.stack([SequenceGenerator(model, sd).take(
                                40010 if name in SCAN_MODELS else FLOORLESS_CAP + 10)
                            for sd in SEEDS])
            for name, model in {**SCAN_MODELS, **FLOORLESS_MODELS}.items()}


class TestPhiScanMatchesFullScan:
    """phi_k_S stops at the reach of S and scans blocks of rows in column
    chunks; its values must be the full scan's, bit for bit, over streams
    whose windows differ in measure."""

    @pytest.mark.parametrize("name", [*SCAN_MODELS, *FLOORLESS_MODELS])
    @pytest.mark.parametrize("S", [UNIT, TWO_INTERVALS], ids=["unit", "two_intervals"])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_values_equal_the_full_scan(self, scan_rows, name, S, k):
        rows = scan_rows[name]

        def streams(length):
            return [_Rows(rows[:, :length])]

        if name in FLOORLESS_MODELS:
            model, n_caps = FLOORLESS_MODELS[name], (FLOORLESS_CAP,)
        else:
            model = SCAN_MODELS[name]
            default = parse_config({"mode": "concentration", "model": model_to_spec(model),
                                    "k": k, "sets": [S.to_spec()], "n_samples": 200,
                                    "t_grid": [1.0]}).n_cap
            n_caps = (default, 5000, 40000)
        for n_cap in n_caps:
            values, _ = phi_k_S(model, streams, k, S, n_cap)
            assert np.array_equal(values, _full_scan(model, streams, k, S, n_cap)), n_cap

    # row blocks of 1, 3 and the run's default (_SCAN_BLOCK // length rows);
    # chunks of 1, k - 1, k and k + 1 windows, and the default (whole rows)
    @pytest.mark.parametrize("name", [*SCAN_MODELS, *FLOORLESS_MODELS])
    @pytest.mark.parametrize("per_block", [1, 3, None], ids=["rows1", "rows3", "rows_default"])
    @pytest.mark.parametrize("width", ["1", "k-1", "k", "k+1", None])
    def test_blocks_and_chunks_equal_the_full_scan(self, scan_rows, monkeypatch,
                                                   name, per_block, width):
        from poissonlab import mixing_concentration

        k, S = 3, TWO_INTERVALS
        model = {**SCAN_MODELS, **FLOORLESS_MODELS}[name]
        rows = scan_rows[name]
        length = mixing_concentration._scan_reach(model, k, 0.75, FLOORLESS_CAP) + k - 1
        step = per_block or max(1, mixing_concentration._SCAN_BLOCK // length)

        def streams(asked):
            assert asked == length
            return [_Rows(rows[lo: lo + step, :length]) for lo in range(0, len(rows), step)]

        if width is not None:  # a block of `step` rows is read this many windows at a time
            w = {"1": 1, "k-1": k - 1, "k": k, "k+1": k + 1}[width]
            monkeypatch.setattr(mixing_concentration, "_SCAN_BLOCK", w * step)
        values, _ = phi_k_S(model, streams, k, S, FLOORLESS_CAP)
        expected = _full_scan(model, lambda n: [_Rows(rows[:, :n])], k, S, FLOORLESS_CAP)
        assert np.array_equal(values, expected)

    def test_one_window_measure(self):
        from poissonlab.mixing_concentration import _one_window_measure

        half = Fraction(1, 2)
        assert [name for name, model in {**SCAN_MODELS, **FLOORLESS_MODELS}.items()
                if _one_window_measure(model)] == list(ONE_MEASURE)
        assert _one_window_measure(MarkovModel(transition=((half, half), (half, half))))
        assert _one_window_measure(IidModel(probs=(Fraction(1, 3),) * 3))
        # a uniform stationary law, but two transition logs
        assert not _one_window_measure(MarkovModel(transition=(
            (Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3)))))
        assert not _one_window_measure(IidModel(probs=(Fraction(0), Fraction(1, 3),
                                                       Fraction(2, 3))))

    @pytest.mark.parametrize("name", SCAN_MODELS)
    @pytest.mark.parametrize("S", [UNIT, TWO_INTERVALS], ids=["unit", "two_intervals"])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_no_window_past_the_reach_lands_in_S(self, name, S, k):
        # the windows between the reach and twice the reach, on streams
        # long enough to hold them all
        from poissonlab.mixing_concentration import _scan_reach

        model = SCAN_MODELS[name]
        reach = _scan_reach(model, k, float(S.sup), 10**9)
        assert 0 < reach < 10**9
        for x in SequenceGenerator(model, SEEDS[:2]).take(2 * reach + k - 1):
            hit = _full_scan_hits(model, x, k, S, 2 * reach)[1]
            assert hit[: reach].any() and not hit[reach:].any()


class TestPhiJMass:
    def test_exact_alternating_example(self):
        values, truncated = phi_k_j_S(FAIR, _tiled((0, 1)), 2, 0, UNIT, 100)
        # 01 and 10 each occur twice in their index windows; 00 and 11 never
        assert values.tolist() == [pytest.approx(0.5, abs=1e-15)]
        assert truncated == 0.0
        values, _ = phi_k_j_S(FAIR, _tiled((0, 1), rows=2), 2, 2, UNIT, 100)
        assert values == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_unreachable_count_has_no_mass(self):
        assert phi_k_j_S(FAIR, _tiled((0, 1)), 2, 7, UNIT, 100)[0].tolist() == [0.0]

    def test_empty_set_concentrates_at_zero(self):
        empty = IntervalUnion.from_spec([])
        values, _ = phi_k_j_S(FAIR, _tiled((0, 1)), 2, 0, empty, 100)
        assert values.tolist() == [pytest.approx(1.0, abs=1e-15)]

    def test_streams_are_asked_for_the_planned_length(self):
        # fair k=3 on (0, 1]: every index set is 1..8, so 10 symbols, not x_cap
        asked = []

        def streams(length):
            asked.append(length)
            return _tiled((0, 0, 1, 1))(length)

        phi_k_j_S(FAIR, streams, 3, 1, UNIT, 10**6)
        assert asked == [10]
        # a cap below the planned length truncates every word
        values, truncated = phi_k_j_S(FAIR, streams, 3, 0, UNIT, 9)
        assert asked[-1] == 9
        assert truncated == 1.0 and values.tolist() == [0.0]

    @pytest.mark.parametrize("model,k", [
        (GaussCFModel(), 2), (IidModel(tail_ratio=Fraction(1, 2)), 2),
        (FAIR, 17), (FAIR, 10**6)])
    def test_words_past_the_enumeration_cap_are_refused(self, model, k):
        assert not phi2_enumerable(model, k)
        with pytest.raises(UnsupportedModelError):
            phi_k_j_S(model, _generated(model, [8]), k, 0, UNIT, 1000)

    @pytest.mark.parametrize("model,k,j", [(FAIR, 4, 0), (CHAIN, 5, 1), (CHAIN, 3, 0)])
    def test_one_call_over_many_streams_equals_one_call_each(self, model, k, j):
        S = IntervalUnion.from_spec([["0", "1/2", False, True], ["1", "3", True, False]])
        seeds = range(6)
        batched = phi_k_j_S(model, _generated(model, seeds, per_matrix=4), k, j, S, 10**7)
        single = [phi_k_j_S(model, _generated(model, [sd]), k, j, S, 10**7)
                  for sd in seeds]
        assert batched[0].tolist() == [values[0] for values, _ in single]
        assert {truncated for _, truncated in single} == {batched[1]}
        assert len(set(batched[0].tolist())) > 1  # the streams differ

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_rows_counted_in_chunks_equal_whole_rows(self, monkeypatch, width):
        # chunks of 1, k - 1, k and k + 1 windows, k = 3
        from poissonlab import mixing_concentration

        streams = _generated(CHAIN, range(3), per_matrix=1)
        whole = phi_k_j_S(CHAIN, streams, 3, 1, TWO_INTERVALS, 10**7)
        monkeypatch.setattr(mixing_concentration, "_SCAN_BLOCK", width)
        chunked = phi_k_j_S(CHAIN, streams, 3, 1, TWO_INTERVALS, 10**7)
        assert chunked[0].tolist() == whole[0].tolist() and chunked[1] == whole[1]
        assert len(set(whole[0].tolist())) > 1  # the streams differ

    def test_enumeration_cap_is_inclusive(self):
        assert phi2_enumerable(FAIR, 16)
        assert phi2_enumerable(CHAIN, 16)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            phi_k_j_S(FAIR, _tiled((0, 1)), 2, -1, UNIT, 100)


def _concentration(**over):
    doc = {"mode": "concentration", "model": {"type": "iid", "probs": ["1/2", "1/2"]},
           "k": 6, "n_samples": 200, "seed": 13, "t_grid": [2.0]}
    doc.update(over)
    return doc


class TestConcentrationExperiment:
    def test_uniform_model_report(self):
        rep = run_concentration(parse_config(_concentration(
            k=10, t_grid=[5.0, 30.0], seed=77, n_cap=1024)))
        # ||Delta|| bound is 1 for independent coordinates, so the
        # denominator is 8 k^4 max(K, 1)^2 rho^k = 8e4 / 1024
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
        # refused while parsing, before run_concentration draws anything
        for over, needle in [({"n_samples": 100}, "$.n_samples"),
                             ({"t_grid": []}, "$.t_grid"),
                             ({"t_grid": [-1.0]}, "$.t_grid"),
                             ({"functional": "phi9"}, "$.functional")]:
            with pytest.raises(ConfigError) as err:
                parse_config(_concentration(**over))
            assert str(err.value).startswith(needle)
        with pytest.raises(ConfigError):
            run_concentration(parse_config(_concentration(mode="mixing")))

    def test_determinism(self):
        a = run_concentration(parse_config(_concentration()))
        b = run_concentration(parse_config(_concentration()))
        assert a == b

    @pytest.mark.parametrize("functional", ["phi1", "phi2"])
    def test_replica_r_reads_substream_1_r(self, functional, monkeypatch):
        # batched draws give each replica its own generator's stream
        from poissonlab import experiments
        from poissonlab.rng import derive_seed

        monkeypatch.setattr(experiments, "_SCAN_BLOCK", 3000)
        cfg = parse_config(_concentration(model={"type": "markov", "transition": [
            ["9/10", "1/10"], ["1/5", "4/5"]]}, functional=functional, k=4, n_cap=400))
        streams = _generated(CHAIN, [derive_seed(13, 1, r) for r in range(200)])
        if functional == "phi1":
            values, _ = phi_k_S(CHAIN, streams, 4, UNIT, 400)
        else:
            values, _ = phi_k_j_S(CHAIN, streams, 4, 0, UNIT, 400)
        rep = run_concentration(cfg)
        assert rep.mean == float(np.mean(values)) and rep.std == float(np.std(values))

    @pytest.mark.parametrize("name", [*ONE_MEASURE, "third"])
    def test_one_measure_laws_draw_only_replica_0(self, name, monkeypatch):
        # every replica of a one-measure law scans to one phi1 value: the
        # run draws replica 0 alone, in its own block, and repeats its value
        from poissonlab import experiments
        from poissonlab.rng import derive_seed

        model, drawn = SCAN_MODELS[name], []

        def spy(law, seeds):
            drawn.extend(seeds.tolist())
            return SequenceGenerator(law, seeds)

        monkeypatch.setattr(experiments, "SequenceGenerator", spy)
        monkeypatch.setattr(experiments, "_SCAN_BLOCK", 800)  # several blocks of streams
        rep = run_concentration(parse_config(_concentration(
            model=model_to_spec(model), k=3, sets=[TWO_INTERVALS.to_spec()], n_cap=5000)))
        seeds = derive_seed(13, 1, np.arange(200))
        assert drawn == (seeds[:1] if name in ONE_MEASURE else seeds).tolist()
        values, _ = phi_k_S(model, _generated(model, list(seeds)), 3, TWO_INTERVALS, 5000)
        assert rep.mean == float(np.mean(values)) and rep.std == float(np.std(values))
        assert (len(set(values.tolist())) == 1) == (name in ONE_MEASURE)

    def test_symbols_in_flight_stay_within_one_block(self, monkeypatch):
        # the geometric model has no measure floor, so every window up to
        # n_cap = 10^6 is scanned: each row is taken in chunks, and the
        # symbols of all takes held at once stay within one block, plus the
        # k - 1 symbols per row that a chunk carries over.  A take into a
        # caller's block counts that block once, for as long as it lives.
        from poissonlab.mixing_concentration import _SCAN_BLOCK

        real_take, k = SequenceGenerator.take, 3
        state = {"flight": 0, "rows": 0, "peak": 0, "over": 0, "longest": 0}
        live = set()  # ids of the arrays counted and still alive

        def release(size, rows, key):
            state["flight"] -= size
            state["rows"] -= rows
            live.discard(key)

        def counted(gen, n, out=None, buffers=None):
            got = real_take(gen, n, out, buffers)
            owner = got if got.base is None else got.base
            state["longest"] = max(state["longest"], gen.emitted)
            if id(owner) in live:
                return got
            rows = len(gen.seeds)
            live.add(id(owner))
            state["flight"] += owner.size
            state["rows"] += rows
            state["peak"] = max(state["peak"], state["flight"])
            state["over"] = max(state["over"],
                                state["flight"] - _SCAN_BLOCK - (k - 1) * state["rows"])
            weakref.finalize(owner, release, owner.size, rows, id(owner))
            return got

        cfg = dataclasses.replace(parse_config(_concentration(
            model={"type": "iid", "tail_ratio": "1/2"}, k=k, n_cap=10**6)), n_samples=3)
        monkeypatch.setattr(SequenceGenerator, "take", counted)
        rep = run_concentration(cfg)
        assert not rep.complete and rep.n_cap == 10**6
        assert state["longest"] == 10**6 + k - 1
        assert state["peak"] > 0 and state["over"] <= 0
        assert state["flight"] == 0

    @pytest.mark.parametrize("functional,k,weights", [
        ("phi1", 8, lipschitz_weights_phi1), ("phi2", 4, lipschitz_weights_phi2)])
    def test_denominator_is_the_weight_majorant(self, functional, k, weights):
        # one bound formula: ||Delta||^2 times the weights' analytic majorant
        rep = run_concentration(parse_config(_concentration(
            model={"type": "markov", "transition": [["9/10", "1/10"], ["1/5", "4/5"]]},
            k=k, seed=5, functional=functional)))
        prof = mixing_profile(CHAIN)
        assert rep.denominator == delta_norm_bound(prof)**2 * weights(k, UNIT, prof)[1]

"""Measure models and sequence generation.

Gauss-map cylinder probabilities are checked against the closed-form
logarithmic integral and against scipy quadrature; Markov constants against
hand-computed eigenstructure of the default two-state chain.
"""

import math
import re
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from poissonlab.errors import UnsupportedModelError
from poissonlab.measures import (GaussCFModel, IidModel, MarkovModel,
                                 SequenceGenerator, cf_continuants,
                                 contraction_profile, cylinder_prob,
                                 cylinder_prob_exact, gauss_cylinder_prob_high,
                                 markov_ratio_bounds, mixing_profile,
                                 model_from_spec, model_to_spec)
from poissonlab.rng import derive_seed, uniform_block

FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
BIASED = IidModel(probs=(Fraction(3, 4), Fraction(1, 4)))
CHAIN = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                (Fraction(1, 5), Fraction(4, 5))))


class TestIidModel:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            IidModel(probs=(Fraction(1, 2), Fraction(1, 3)))

    def test_float_probs_are_decimals_rescaled_to_sum_to_one(self):
        assert IidModel(probs=(0.3, 0.7)).probs == (Fraction(3, 10), Fraction(7, 10))
        # 0.3333333333333333 + 0.6666666666666666 is 1 - 10^-16 as decimals
        assert IidModel(probs=(1 / 3, 2 / 3)).probs == (Fraction(1, 3), Fraction(2, 3))
        chain = MarkovModel(((1 / 3, 2 / 3), (0.5, 0.5)))
        assert chain.transition[0] == (Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize("build,what", [
        (lambda law: IidModel(probs=law), "probs"),
        (lambda law: MarkovModel((law, law)), "transition[0]"),
    ], ids=["probs", "transition"])
    @pytest.mark.parametrize("law", [
        (False, "1/2", "1/2"),          # a boolean is not a number
        (True, "0"),
        ("3/2", "-1/2"),                # sums to 1 with a negative entry
        ("1/2", "1/3", "1/6 + 1"),      # not a rational
        ("1/2", "0.4999999999"),        # 1e-10 short of 1
        ("1e400", "0"),                 # past the float range
    ])
    def test_every_finite_law_is_read_by_one_rule(self, build, what, law):
        with pytest.raises(ValueError, match=rf"^{re.escape(what)}: "):
            build(law)

    def test_cylinder_products(self):
        assert cylinder_prob_exact(FAIR, (0, 1, 1)) == Fraction(1, 8)
        assert cylinder_prob_exact(BIASED, (0, 0, 1)) == Fraction(9, 64)

    def test_geometric_tail_model(self):
        g = IidModel(tail_ratio=Fraction(1, 2))
        assert g.alphabet_size is None
        assert g.symbol_prob(0) == Fraction(1, 2)
        assert g.symbol_prob(3) == Fraction(1, 16)
        assert cylinder_prob_exact(g, (0, 1)) == Fraction(1, 8)

    def test_generator_matches_law(self):
        gen = SequenceGenerator(BIASED, 404)
        x = gen.take(200000)
        freq0 = np.mean(x == 0)
        assert abs(freq0 - 0.75) < 0.01


class TestMarkovModel:
    def test_stationary_vector_exact(self):
        assert CHAIN.pi == (Fraction(2, 3), Fraction(1, 3))
        # pi P = pi
        for b in range(2):
            assert sum(CHAIN.pi[a] * CHAIN.transition[a][b] for a in range(2)) \
                == CHAIN.pi[b]

    def test_cylinder_chain_rule(self):
        # pi(1) * P(1,0) * P(0,0)
        assert cylinder_prob_exact(CHAIN, (1, 0, 0)) \
            == Fraction(1, 3) * Fraction(1, 5) * Fraction(9, 10)

    def test_matrix_power_agrees_with_iteration(self):
        p3 = CHAIN.matrix_power(3)
        step = CHAIN.transition
        expect = step
        for _ in range(2):
            expect = tuple(
                tuple(sum(row[m] * step[m][b] for m in range(2)) for b in range(2))
                for row in expect)
        assert p3 == expect

    def test_deviation_table_decays(self):
        bounds = markov_ratio_bounds(CHAIN)
        assert bounds[0] == (Fraction(3, 10), Fraction(12, 5))  # P(a,b)/pi(b) at m = 1
        table = [max(hi - 1, 1 - lo) for lo, hi in bounds]
        assert len(table) == 50
        assert table[0] == Fraction(7, 5)  # max |P(a,b)/pi(b) - 1| at m = 1
        for a, b in zip(table, table[1:]):
            assert b < a

    def test_generator_long_run_frequencies(self):
        gen = SequenceGenerator(CHAIN, 11)
        x = gen.take(300000)
        assert abs(np.mean(x == 0) - 2 / 3) < 0.01


class _OracleCF:
    """The CF sampler before the two-float state, kept as the reference: exact
    integer continuants of the cylinder so far (rebuilt from the last 64
    digits once 128 have accumulated), and the smallest a >= 2 with
    tail(a) <= 1-u found by doubling and bisection."""

    WINDOW = 64

    def __init__(self):
        self.p, self.q, self.pp, self.qq = 0, 1, 1, 0
        self.recent = []

    @staticmethod
    def _log2_ratio(N, D):
        return math.log1p((N - D) / D) / math.log(2.0)

    def digit(self, u):
        p, q, pp, qq = self.p, self.q, self.pp, self.qq
        A, B, C, D = pp + qq, p + q, qq, q
        full = self._log2_ratio((A + B) * D, (C + D) * B)
        thresh = 1.0 - u

        def tail(ag):
            return self._log2_ratio((A + ag * B) * D, (C + ag * D) * B) / full

        if tail(2) <= thresh:
            d = 1
        else:
            hi = 4
            while tail(hi) > thresh:
                hi <<= 1
            lo = hi >> 1
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if tail(mid) <= thresh:
                    hi = mid
                else:
                    lo = mid
            d = hi - 1
        self.p, self.pp = d * p + pp, p
        self.q, self.qq = d * q + qq, q
        self.recent.append(d)
        if len(self.recent) >= 2 * self.WINDOW:
            self.recent = self.recent[-self.WINDOW:]
            self.p, self.q, self.pp, self.qq = cf_continuants(self.recent)
        return d


def _oracle_cf_digits(seed, n):
    oracle = _OracleCF()
    return [oracle.digit(u) for u in uniform_block(seed, 0, n).tolist()]


class TestCFSamplerAgainstOracle:
    # the shipped quenched_gauss stream and three others
    @pytest.mark.parametrize("seed", [derive_seed(31416, 3, 0), 2024, 5, 2718])
    def test_stream_equals_oracle(self, seed):
        n = 20000
        expected = _oracle_cf_digits(seed, n)
        assert SequenceGenerator(GaussCFModel(), seed).take(n).tolist() == expected
        gen = SequenceGenerator(GaussCFModel(), seed)
        assert np.concatenate([gen.take(1) for _ in range(n)]).tolist() == expected

    def test_words_equal_oracle(self):
        # words lie entirely in the first digits, where the two-ratio law holds
        for i in range(300):
            seed = derive_seed(4242, 1, i)
            assert SequenceGenerator(GaussCFModel(), seed).take(8).tolist() \
                == _oracle_cf_digits(seed, 8)

    def test_first_digit_boundaries(self):
        # first digit: tail(a) = log2((a+1)/a); uniforms one ulp either side
        # of each 1 - tail(a) and on it, and the largest uniform 1 - 2**-53
        us = [1.0 - 2.0**-53]
        for a in range(2, 1001):
            u0 = 1.0 - math.log1p(1 / a) / math.log(2.0)
            us += [math.nextafter(u0, 0.0), u0, math.nextafter(u0, 1.0)]
        up = down = 0
        for u in us:
            d = SequenceGenerator(GaussCFModel(), 0)._gauss_digits([u])[0]
            assert d == _OracleCF().digit(u)
            # the closed-form start of the settle, with s = 0 and delta = 1
            start = max(3, math.ceil(1.0 / math.expm1((1.0 - u) * math.log1p(1.0))))
            if d > 1:
                up += start < d + 1
                down += start > d + 1
        # a = 2..50 alone only ever settles down; the first upward settles
        # are near a = 230, 668 and 915
        assert up > 0 and down > 0
        top = SequenceGenerator(GaussCFModel(), 0)._gauss_digits([1.0 - 2.0**-53])[0]
        assert 2**53 < top < GaussCFModel.DIGIT_CAP

    def test_deep_digits_follow_the_float_rule(self):
        # past |delta| < 1e-17 the digit is (smallest a >= 2 with
        # (1+s)/(a+s) <= 1-u) - 1, compared in float; uniforms one ulp either
        # side of each boundary and on it.  The inverse is rarely off here:
        # in this state it settles up near a = 658 and 1202, down near 7 and 14
        gen = SequenceGenerator(GaussCFModel(), 1)
        gen.take(60)
        s, delta = gen._s, gen._delta
        assert abs(delta) < 1e-17
        up = down = 0
        for a in range(2, 1301):
            u0 = 1.0 - (1.0 + s) / (a + s)
            for u in (math.nextafter(u0, 0.0), u0, math.nextafter(u0, 1.0)):
                gen._s = s
                d = gen._gauss_digits([u])[0]
                t = 1.0 - u
                rule = max(2, a - 2)
                assert rule == 2 or (1.0 + s) / (rule + s) > t
                while (1.0 + s) / (rule + s) > t:
                    rule += 1
                assert d == rule - 1
                if d > 1:
                    start = max(3, math.ceil((1.0 + s) / t - s))
                    up += start < d + 1
                    down += start > d + 1
        assert up > 0 and down > 0


class TestGaussModel:
    def test_digit_probabilities_closed_form(self):
        # P(a1 = d) = log2((d+1)^2 / (d(d+2)))
        for d in (1, 2, 3, 7):
            want = math.log2((d + 1) ** 2 / (d * (d + 2)))
            assert cylinder_prob(GaussCFModel(), (d,)) == pytest.approx(want, abs=1e-14)
        assert cylinder_prob(GaussCFModel(), (1,)) == pytest.approx(
            math.log2(4 / 3), abs=1e-15)
        assert cylinder_prob(GaussCFModel(), (2,)) == pytest.approx(
            math.log2(9 / 8), abs=1e-15)

    def test_cylinder_against_quadrature(self):
        # mu(w) = integral over the cylinder interval of 1/((1+x) ln 2)
        g = GaussCFModel()
        for w in [(1,), (2, 1), (1, 2, 3)]:
            p, q, pp, qq = cf_continuants(w)
            a, b = sorted((Fraction(p, q), Fraction(p + pp, q + qq)))
            val, _ = integrate.quad(lambda x: 1.0 / ((1.0 + x) * math.log(2)),
                                    float(a), float(b))
            assert cylinder_prob(g, w) == pytest.approx(val, rel=1e-10)

    def test_cylinder_children_sum_to_parent(self):
        g = GaussCFModel()
        parent = cylinder_prob(g, (2, 1))
        kids = sum(cylinder_prob(g, (2, 1, d)) for d in range(1, 4000))
        assert kids == pytest.approx(parent, rel=1e-3)

    def test_exact_path_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            cylinder_prob_exact(GaussCFModel(), (1,))

    def test_high_precision_agrees_with_float(self):
        g = GaussCFModel()
        hp = gauss_cylinder_prob_high((1, 2), 50)
        assert float(hp) == pytest.approx(cylinder_prob(g, (1, 2)), rel=1e-13)

    def test_digit_frequencies_follow_the_measure(self):
        gen = SequenceGenerator(GaussCFModel(), 2024)
        x = gen.take(100000)
        assert np.all(x >= 1)
        freq1 = np.mean(x == 1)
        freq2 = np.mean(x == 2)
        assert abs(freq1 - math.log2(4 / 3)) < 0.01
        assert abs(freq2 - math.log2(9 / 8)) < 0.008

    def test_float_state_tracks_exact_continuants(self):
        # s = q_{n-1}/q_n and delta = (p_{n-1}+q_{n-1})/(p_n+q_n) - s of the
        # digits emitted so far; delta is only used while |delta| >= 1e-17
        gen = SequenceGenerator(GaussCFModel(), 5)
        digits = []
        for _ in range(400):
            digits.extend(gen.take(1).tolist())
            p, q, pp, qq = cf_continuants(digits)
            s = Fraction(qq, q)
            assert abs(gen._s - s) <= 1e-15 * s
            if abs(gen._delta) >= 1e-17:
                delta = Fraction(pp + qq, p + q) - s
                assert abs(gen._delta - delta) <= 1e-12 * abs(delta)
        assert abs(gen._delta) < 1e-17


class TestGenerators:
    def test_determinism_per_seed(self):
        for model in (FAIR, CHAIN, GaussCFModel()):
            a = SequenceGenerator(model, 123).take(500)
            b = SequenceGenerator(model, 123).take(500)
            assert np.array_equal(a, b)
            c = SequenceGenerator(model, 124).take(500)
            assert not np.array_equal(a, c)

    def test_take_is_chunk_invariant(self):
        for model in (FAIR, BIASED, CHAIN, GaussCFModel()):
            whole = SequenceGenerator(model, 7).take(100)
            gen = SequenceGenerator(model, 7)
            parts = np.concatenate([gen.take(30), gen.take(50), gen.take(20)])
            assert np.array_equal(whole, parts)

    # a block of 7 uniforms makes take() cross its block boundaries, also
    # while the first ~20 digits still use the two-ratio law
    @pytest.mark.parametrize("block", [None, 7])
    def test_cf_take_equals_single_takes(self, block, monkeypatch):
        from poissonlab import measures
        if block is not None:
            monkeypatch.setattr(measures, "_DRAW_BLOCK", block)
        bulk = SequenceGenerator(GaussCFModel(), 2718)
        scalar = SequenceGenerator(GaussCFModel(), 2718)
        taken = np.concatenate([bulk.take(11), bulk.take(289)])
        stepped = np.concatenate([scalar.take(1) for _ in range(300)]).tolist()
        assert taken.tolist() == stepped == _oracle_cf_digits(2718, 300)
        assert bulk.emitted == scalar.emitted == 300
        assert (bulk._s, bulk._delta) == (scalar._s, scalar._delta)

    # a block of 7 uniforms makes take() cross its block boundaries
    @pytest.mark.parametrize("block", [None, 7])
    def test_markov_take_equals_single_takes(self, block, monkeypatch):
        from poissonlab import measures
        if block is not None:
            monkeypatch.setattr(measures, "_DRAW_BLOCK", block)
        bulk = SequenceGenerator(CHAIN, 31)
        scalar = SequenceGenerator(CHAIN, 31)
        taken = np.concatenate([bulk.take(20), bulk.take(45)])
        assert taken.tolist() == np.concatenate([scalar.take(1) for _ in range(65)]).tolist()
        assert bulk.emitted == scalar.emitted == 65

    # below 1/2 a cumulative value can have bits under 2**-53 (1/3, 1/10)
    @pytest.mark.parametrize("probs", [("1/2", "1/2"), ("1/2", "1/2", "0"),
                                       ("1/2", "1/3", "1/6"), ("1/3", "2/3"),
                                       ("1/10", "9/10"), ("0", "1"), ("1", "0")])
    def test_iid_symbols_at_exact_boundaries(self, probs):
        model = IidModel(probs=probs)
        # raw values whose uniform is exactly each cumulative value, one ulp
        # below it, and the extremes 0 and 1 - 2**-53
        ms = {0, (1 << 53) - 1}
        cum = np.cumsum(model._floats)
        for c in cum:
            m = math.ceil(c * 2.0**53)
            ms.update(v for v in (m - 1, m) if 0 <= v < 1 << 53)
        raw = np.array(sorted(ms), dtype=np.uint64) << np.uint64(11)
        raw = np.concatenate([raw, raw | np.uint64(0x7FF)])  # low bits do not count
        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        expected = [sum(1 for c in cum[:-1] if ui >= c) for ui in u]
        got = model.symbols(raw, np.empty(len(raw), dtype=np.int64))
        assert got.tolist() == expected
        assert got.max() < len(probs) - (probs[-1] == "0")


    # zero entries repeat a cumulative value; a trailing zero puts 1.0 before
    # the last one
    @pytest.mark.parametrize("transition", [
        (("0", "1/2", "1/2"), ("1/2", "0", "1/2"), ("1/2", "1/2", "0")),
        (("1/2", "1/2", "0"), ("1/3", "1/3", "1/3"), ("0", "1/2", "1/2")),
        (("9/10", "1/10"), ("1/5", "4/5")),
        (("1/3", "1/3", "1/3"), ("1/10", "7/10", "1/5"), ("1/7", "2/7", "4/7"))])
    def test_markov_states_at_exact_boundaries(self, transition):
        chain = MarkovModel(transition)
        s = chain.alphabet_size
        for state, row in [(-1, chain._pi_floats), *enumerate(chain._t_floats)]:
            cum = np.cumsum(row)
            # raw values whose uniform is exactly each cumulative value, one
            # ulp below it, and the extremes 0 and 1 - 2**-53
            ms = {0, (1 << 53) - 1}
            for c in cum:
                m = math.ceil(c * 2.0**53)
                ms.update(v for v in (m - 1, m) if 0 <= v < 1 << 53)
            raws = [m << 11 for m in sorted(ms)]
            raws += [raw | 0x7FF for raw in raws]  # low bits do not count
            # the float rule: bisect the uniform into the cumulative row
            expected = [min(bisect_right(cum, (raw >> 11) * 2.0**-53), s - 1)
                        for raw in raws]
            gen = SequenceGenerator(chain, 0)
            got = []
            for raw in raws:
                gen._state = state
                got += gen._markov_states([raw])
            assert got == expected

    @pytest.mark.parametrize("tail", ["1/2", "9/10", "1/1000"])
    def test_geometric_symbols_at_exact_boundaries(self, tail):
        model = IidModel(tail_ratio=tail)
        r = float(Fraction(tail))
        # raw values whose uniform is exactly each float CDF value 1 - r**(a+1)
        # (exact at r = 1/2) and one ulp below it, while below 1
        ms = set()
        for a in range(60):
            m = math.ceil((1.0 - np.power(r, a + 1.0)) * 2.0**53)
            ms.update(v for v in (m - 1, m) if 0 <= v < 1 << 53)
        raw = np.array(sorted(ms), dtype=np.uint64) << np.uint64(11)
        raw = np.concatenate([raw, raw | np.uint64(0x7FF)])  # low bits do not count

        def inverse_cdf(u):  # the smallest a with u < 1 - r**(a+1)
            a = 0
            while u >= 1.0 - np.power(r, a + 1.0):
                a += 1
            return a

        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        got = model.symbols(raw, np.empty(len(raw), dtype=np.int64))
        assert got.tolist() == [inverse_cdf(ui) for ui in u.tolist()]


class TestProfiles:
    def test_contraction_fair(self):
        prof = contraction_profile(FAIR)
        assert prof.rho == 0.5
        assert prof.K == 1.0

    def test_contraction_markov(self):
        prof = contraction_profile(CHAIN)
        assert prof.rho == pytest.approx(0.9)
        assert prof.K == pytest.approx((2 / 3) / 0.9)

    def test_contraction_gauss(self):
        prof = contraction_profile(GaussCFModel())
        assert prof.rho == 0.5
        assert prof.K == pytest.approx(2 / math.log(2))

    def test_contraction_bound_by_enumeration(self):
        for model in (FAIR, BIASED, CHAIN):
            prof = contraction_profile(model)
            from poissonlab.words import enumerate_words
            for k in (1, 3, 6):
                worst = max(float(cylinder_prob_exact(model, w))
                            for w in enumerate_words(2, k))
                assert worst <= prof.K * prof.rho**k * (1 + 1e-12)

    def test_psi_profile_iid_sentinel(self):
        prof = mixing_profile(FAIR)
        assert prof.sigma == 0.0
        assert prof.T == 1.0

    def test_psi_profile_markov_constants(self):
        prof = mixing_profile(CHAIN)
        assert prof.sigma == pytest.approx(0.7, abs=1e-12)  # |1 - p - q|
        assert prof.T == pytest.approx(2.0, abs=1e-9)       # dev(1)/sigma = 1.4/0.7
        assert prof.R == pytest.approx(2.4, abs=1e-9)       # max P(a,b)/pi(b)

    @pytest.mark.parametrize("transition", [
        (("1/2", "1/2"),) * 2,                      # the fair coin: no lag deviates
        (("1/6", "1/3", "1/2"),) * 3,
        # P^2 = 1 pi: only lag 1 deviates
        (("1/2", "1/2", "0"), ("1/6", "1/6", "2/3"), ("1/3", "1/3", "1/3")),
        # sigma = 1e-9: sigma**m underflows from m = 36 while every lag deviates
        (("500000001/1000000000", "499999999/1000000000"), ("1/2", "1/2")),
    ], ids=["coin", "rank_one_3", "square_rank_one", "near_rank_one"])
    def test_psi_profile_near_rank_one_chains(self, transition):
        model = MarkovModel(transition)
        prof = mixing_profile(model)
        devs = [max(hi - 1, 1 - lo) for lo, hi in markov_ratio_bounds(model)]
        assert prof.sigma < 1e-8
        if not any(devs):
            assert prof.T == 1.0
        elif not any(devs[1:]):
            assert prof.T == pytest.approx(float(devs[0]) / prof.sigma, rel=1e-12)
        else:
            assert prof.T == pytest.approx(1.0, rel=1e-6)

    def test_psi_profile_gauss_is_assumed(self):
        prof = mixing_profile(GaussCFModel())
        assert dict(prof.provenance)["T"] == "ASSUMED"
        assert (prof.T, prof.sigma) == (GaussCFModel.PSI_T, GaussCFModel.PSI_SIGMA)
        assert prof.sigma < 1

    def test_merged_profile_has_all_constants(self):
        prof = mixing_profile(CHAIN)
        for name in ("T", "sigma", "rho", "K", "R"):
            assert getattr(prof, name) is not None
        # the sorted union of the contraction and psi-mixing tags
        assert prof.provenance == (("K", "EXACT"), ("R", "ESTIMATED"), ("T", "ESTIMATED"),
                                   ("rho", "EXACT"), ("sigma", "DERIVED"))


def test_model_spec_roundtrip():
    for model in (FAIR, BIASED, CHAIN, IidModel(tail_ratio=Fraction(1, 3))):
        again = model_from_spec(model_to_spec(model))
        assert model_to_spec(again) == model_to_spec(model)
    # the CF document takes no key; its spec records the assumed certificate
    assert model_to_spec(model_from_spec({"type": "gauss_cf"})) == {
        "type": "gauss_cf", "psi_T": 1.0, "psi_sigma": 0.303}

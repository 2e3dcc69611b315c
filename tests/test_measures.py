"""Measure models and sequence generation.

Gauss-map cylinder probabilities are checked against the closed-form
logarithmic integral and against scipy quadrature; Markov constants against
hand-computed eigenstructure of the default two-state chain.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from poissonlab.errors import UnsupportedModelError
from poissonlab.measures import (GaussCFModel, IidModel, MarkovModel,
                                 cf_continuants, contraction_profile,
                                 cylinder_prob, cylinder_prob_exact,
                                 cylinder_prob_high, make_generator,
                                 markov_deviation_table, mixing_profile,
                                 model_from_spec, model_to_spec,
                                 psi_mixing_profile, sample_word)

FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
BIASED = IidModel(probs=(Fraction(3, 4), Fraction(1, 4)))
CHAIN = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                (Fraction(1, 5), Fraction(4, 5))))


class TestIidModel:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            IidModel(probs=(Fraction(1, 2), Fraction(1, 3)))

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
        gen = make_generator(BIASED, 404)
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
        table = markov_deviation_table(CHAIN, 20)
        assert table[0] == Fraction(7, 5)  # max |P(a,b)/pi(b) - 1| at m = 1
        for a, b in zip(table, table[1:]):
            assert b < a

    def test_generator_long_run_frequencies(self):
        gen = make_generator(CHAIN, 11)
        x = gen.take(300000)
        assert abs(np.mean(x == 0) - 2 / 3) < 0.01


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
        hp = cylinder_prob_high(g, (1, 2), 50)
        assert float(hp) == pytest.approx(cylinder_prob(g, (1, 2)), rel=1e-13)

    def test_digit_frequencies_follow_the_measure(self):
        gen = make_generator(GaussCFModel(), 2024)
        x = gen.take(100000)
        assert np.all(x >= 1)
        freq1 = np.mean(x == 1)
        freq2 = np.mean(x == 2)
        assert abs(freq1 - math.log2(4 / 3)) < 0.01
        assert abs(freq2 - math.log2(9 / 8)) < 0.008

    def test_convergents_unimodular(self):
        gen = make_generator(GaussCFModel(), 5)
        gen.take(40)
        p, q, pp, qq = gen.convergents()
        assert abs(p * qq - pp * q) == 1
        assert q > pp >= 0


class TestGenerators:
    def test_determinism_per_seed(self):
        for model in (FAIR, CHAIN, GaussCFModel()):
            a = make_generator(model, 123).take(500)
            b = make_generator(model, 123).take(500)
            assert np.array_equal(a, b)
            c = make_generator(model, 124).take(500)
            assert not np.array_equal(a, c)

    def test_take_is_chunk_invariant(self):
        for model in (FAIR, BIASED, CHAIN, GaussCFModel()):
            whole = make_generator(model, 7).take(100)
            gen = make_generator(model, 7)
            parts = np.concatenate([gen.take(30), gen.take(50), gen.take(20)])
            assert np.array_equal(whole, parts)

    # 300 digits cross the RENORM_WINDOW re-base at 128 twice; a block of 7
    # uniforms makes take() cross its own block boundaries too
    @pytest.mark.parametrize("block", [None, 7])
    def test_cf_take_equals_next_calls(self, block, monkeypatch):
        from poissonlab import measures
        if block is not None:
            monkeypatch.setattr(measures, "_UNIFORM_BLOCK", block)
        assert 300 > 2 * measures.RENORM_WINDOW
        bulk = make_generator(GaussCFModel(), 2718)
        scalar = make_generator(GaussCFModel(), 2718)
        taken = bulk.take(300)
        stepped = [scalar.next() for _ in range(300)]
        assert taken.tolist() == stepped
        assert bulk.emitted == scalar.emitted == 300
        assert bulk.convergents() == scalar.convergents()

    # a block of 7 uniforms makes take() cross its block boundaries
    @pytest.mark.parametrize("block", [None, 7])
    def test_markov_take_equals_next_calls(self, block, monkeypatch):
        from poissonlab import measures
        if block is not None:
            monkeypatch.setattr(measures, "_UNIFORM_BLOCK", block)
        bulk = make_generator(CHAIN, 31)
        scalar = make_generator(CHAIN, 31)
        taken = np.concatenate([bulk.take(20), bulk.take(45)])
        assert taken.tolist() == [scalar.next() for _ in range(65)]
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
        for c in model._cum:
            m = math.ceil(c * 2.0**53)
            ms.update(v for v in (m - 1, m) if 0 <= v < 1 << 53)
        raw = np.array(sorted(ms), dtype=np.uint64) << np.uint64(11)
        raw = np.concatenate([raw, raw | np.uint64(0x7FF)])  # low bits do not count
        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        expected = [sum(1 for c in model._cum[:-1] if ui >= c) for ui in u]
        got = model.symbols(raw, np.empty(len(raw), dtype=np.int64))
        assert got.tolist() == expected
        assert got.max() < len(probs) - (probs[-1] == "0")

    def test_sample_word_is_prefix_of_stream(self):
        w = sample_word(FAIR, 6, 999)
        x = make_generator(FAIR, 999).take(6)
        assert w == tuple(int(v) for v in x)


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
        prof = psi_mixing_profile(FAIR)
        assert prof.sigma == 0.0
        assert prof.T == 1.0

    def test_psi_profile_markov_constants(self):
        prof = psi_mixing_profile(CHAIN)
        assert prof.sigma == pytest.approx(0.7, abs=1e-12)  # |1 - p - q|
        assert prof.T == pytest.approx(2.0, abs=1e-9)       # dev(1)/sigma = 1.4/0.7
        assert prof.R == pytest.approx(2.4, abs=1e-9)       # max P(a,b)/pi(b)

    def test_psi_profile_gauss_is_assumed(self):
        prof = psi_mixing_profile(GaussCFModel())
        assert prof.tags["T"] == "ASSUMED"
        assert prof.sigma < 1

    def test_merged_profile_has_all_constants(self):
        prof = mixing_profile(CHAIN)
        for name in ("T", "sigma", "rho", "K", "R"):
            assert getattr(prof, name) is not None


def test_model_spec_roundtrip():
    for model in (FAIR, BIASED, CHAIN, GaussCFModel(),
                  IidModel(tail_ratio=Fraction(1, 3))):
        again = model_from_spec(model_to_spec(model))
        assert model_to_spec(again) == model_to_spec(model)

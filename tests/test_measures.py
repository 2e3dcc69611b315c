"""Measure models and sequence generation.

Gauss-map cylinder probabilities are checked against the closed-form
logarithmic integral and against scipy quadrature; Markov constants against
hand-computed eigenstructure of the default two-state chain.
"""

import hashlib
import math
import re
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from poissonlab import measures
from poissonlab.errors import UnsupportedModelError
from poissonlab.measures import (GaussCFModel, IidModel, MarkovModel,
                                 SequenceGenerator, cf_continuants,
                                 contraction_profile, cylinder_prob,
                                 cylinder_prob_exact, draw_buffers,
                                 gauss_cylinder_prob_high, model_from_spec, model_to_spec)
from poissonlab.mixing_concentration import markov_ratio_bounds, mixing_profile
from poissonlab.rng import derive_seed, uniform_block, value_at

FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
BIASED = IidModel(probs=(Fraction(3, 4), Fraction(1, 4)))
THIRDS = IidModel(probs=("1/2", "1/3", "1/6"))
TAIL = IidModel(tail_ratio="1/2")
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


def _next_digit(gen, u):
    """The CF digit that the uniform u draws as the one-seed generator's next
    one, from and into its row state."""
    out = np.empty((1, 1), dtype=np.int64)
    measures._cf_digits(gen._s, gen._delta, np.array([[u]]), out)
    return int(out[0, 0])


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
            d = _next_digit(SequenceGenerator(GaussCFModel(), 0), u)
            assert d == _OracleCF().digit(u)
            # the closed-form start of the settle, with s = 0 and delta = 1
            start = max(3, math.ceil(1.0 / math.expm1((1.0 - u) * math.log1p(1.0))))
            if d > 1:
                up += start < d + 1
                down += start > d + 1
        # a = 2..50 alone only ever settles down; the first upward settles
        # are near a = 230, 668 and 915
        assert up > 0 and down > 0
        top = _next_digit(SequenceGenerator(GaussCFModel(), 0), 1.0 - 2.0**-53)
        assert 2**53 < top < GaussCFModel.DIGIT_CAP

    def test_deep_digits_follow_the_float_rule(self):
        # past |delta| < 1e-17 the digit is (smallest a >= 2 with
        # (1+s)/(a+s) <= 1-u) - 1, compared in float; uniforms one ulp either
        # side of each boundary and on it.  The inverse is rarely off here:
        # in this state it settles up near a = 658 and 1202, down near 7 and 14
        gen = SequenceGenerator(GaussCFModel(), 1)
        gen.take(60)
        s, delta = float(gen._s[0]), float(gen._delta[0])
        assert abs(delta) < 1e-17
        up = down = 0
        for a in range(2, 1301):
            u0 = 1.0 - (1.0 + s) / (a + s)
            for u in (math.nextafter(u0, 0.0), u0, math.nextafter(u0, 1.0)):
                gen._s[0] = s
                d = _next_digit(gen, u)
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
        # uniforms within a few ulps of 1 draw digits past 2**53, where a
        # float a + 1 == a; the rule counts a in Python ints, rounded at a + s
        for u in (1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 3 * 2.0**-53):
            gen._s[0] = s
            d = _next_digit(gen, u)
            t, c = 1.0 - u, 1.0 + s
            rule = math.ceil(c / t - s) - 2
            assert c / (rule + s) > t
            while c / (rule + s) > t:
                rule += 1
            assert d == rule - 1 > 2**51
            assert gen._s[0] == 1.0 / (rule - 1 + s)


class TestBlockedCFSampler:
    """The deep digits are stepped in coupled blocks (``measures._deep_digits``);
    each block is accepted only where it meets the sequential state, so the
    stream is the sequential one whatever the block and warm-up lengths."""

    # sha256 of take(10**6) as little-endian int64, from the per-digit sampler
    # that the blocked one replaced: the shipped quenched_gauss stream and three
    PINS = {
        derive_seed(31416, 3, 0):
            "b27c44bc291be8e86166e87de5170b5ef85bce7b28639f7f7f28a29f6df164a8",
        5: "05e30e0a9b6d967f083450095f5c10f82de9d74560196a60ef2400db056730a6",
        2024: "a9aa9a94253ff21eaa44042d0e79928f140785d76ea345883e40998c43a23632",
        2718: "49696d6f93b0f1c007587000cc37da41e0027a83886a6b397bd24124d9aa0b48",
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_first_million_digits_are_pinned(self, seed):
        x = SequenceGenerator(GaussCFModel(), seed).take(10**6)
        assert hashlib.sha256(x.astype("<i8").tobytes()).hexdigest() == self.PINS[seed]

    def test_uneven_takes_across_the_head_and_the_pass_boundary(self):
        # pieces that end inside the ~20-digit head, just past it, and on
        # either side of take()'s 2**16-uniform block
        n = 2 * measures._DRAW_BLOCK + 100
        whole = SequenceGenerator(GaussCFModel(), 99).take(n)
        gen = SequenceGenerator(GaussCFModel(), 99)
        sizes = [3, 14, 9, 1, measures._DRAW_BLOCK - 30, 1, 2, measures._DRAW_BLOCK]
        parts = [gen.take(m) for m in sizes + [n - sum(sizes)]]
        assert np.array_equal(np.concatenate(parts), whole)
        assert gen.emitted == n

    @pytest.mark.parametrize("warmup, block", [(1, 5), (1, 64), (64, 5), (3, 1)])
    def test_short_warmups_are_re_stepped_to_the_same_digits(self, warmup, block,
                                                            monkeypatch):
        # a warm-up of 1 digit rarely meets the sequential state, so blocks are
        # re-stepped; blocks shorter than the warm-up start inside earlier ones
        n, seed = 3000, 2718
        expected = SequenceGenerator(GaussCFModel(), seed).take(n)
        monkeypatch.setattr(measures, "_DEEP_WARMUP", warmup)
        monkeypatch.setattr(measures, "_DEEP_BLOCK", block)
        gen = SequenceGenerator(GaussCFModel(), seed)
        got = np.concatenate([gen.take(1000), gen.take(n - 1000)])
        assert np.array_equal(got, expected)
        assert got.tolist() == _oracle_cf_digits(seed, n)
        if warmup < 5:
            assert gen.restepped > 0

    def test_draw_rows_with_short_warmups_equal_their_streams(self, monkeypatch):
        # draw steps the blocks of all rows together, after heads of unequal
        # length; a warm-up of 1 digit makes it re-step blocks of many rows
        seeds = derive_seed(8, np.arange(20))
        expected = np.stack([SequenceGenerator(GaussCFModel(), sd).take(300)
                             for sd in seeds.tolist()])
        monkeypatch.setattr(measures, "_DEEP_WARMUP", 1)
        monkeypatch.setattr(measures, "_DEEP_BLOCK", 5)
        assert np.array_equal(measures.draw(GaussCFModel(), seeds, 300), expected)

    def test_no_block_is_re_stepped_at_the_shipped_lengths(self):
        gen = SequenceGenerator(GaussCFModel(), derive_seed(31416, 3, 0))
        gen.take(300_007)
        assert gen.restepped == 0


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
            assert abs(gen._s[0] - s) <= 1e-15 * s
            if abs(gen._delta[0]) >= 1e-17:
                delta = Fraction(pp + qq, p + q) - s
                assert abs(gen._delta[0] - delta) <= 1e-12 * abs(delta)
        assert abs(gen._delta[0]) < 1e-17


def _digest(x):
    return hashlib.sha256(np.ascontiguousarray(x).astype("<i8").tobytes()).hexdigest()


class TestSamplerPins:
    """sha256 of the sampled symbols as little-endian int64, from the sampler
    before batches of seeds and single seeds shared one loop: a batch of 5
    streams per model at two lengths, and one single-seed stream per model."""

    MODELS = {
        "fair": IidModel(probs=("1/2", "1/2")),
        "thirds": IidModel(probs=("1/2", "1/3", "1/6")),
        "tail": IidModel(tail_ratio="1/2"),
        "chain": CHAIN,
        "gauss": GaussCFModel(),
    }
    DRAW = {
        ("fair", 14): "2ddb0c67c8d71533960c30cf6f0f927009400174e05b0748e19a6488d6dc6b9e",
        ("fair", 3000): "0cc6af83d848f442fe1dc70fd8688c7de1d2ca7322e2c9ce8e3157398fe37d8f",
        ("thirds", 14): "fefb7f2d9823ef656966f200a1e3a965dd669359dea613d50c5462b116457f79",
        ("thirds", 3000): "527c93d1c746a9b62614e33202386c6abaccb2f2e755907badd7916e602106c5",
        ("tail", 14): "658fb7f23fef0525b89aa2a5e69596dd554f89c6b58bb4214aadb9db0c561f8b",
        ("tail", 3000): "fd098630f16de1d45fe0301e6356000cb2a680338deb8b700708bad809bad19a",
        ("chain", 14): "1c3a5a0c0758509da5b7cb098dd598d1db4d7040f5807a02a0ad6e7780cc93f5",
        ("chain", 3000): "0cf08f6d6ca1e207c2f9da07f5d5013b483eef0758bfe0c1d7a880a4dabef71f",
        ("gauss", 14): "07a6e7d83bbf9a35764ee495fea8e61734a3f116a95635ba6ae716490e879cda",
        ("gauss", 3000): "1c95ea7820d5ca319b8346313e5609e7eed59bb6fbb71255a4cd7e8c0305d3f0",
    }
    # SequenceGenerator(model, 11).take(3000)
    TAKE = {
        "fair": "96d7bf9ae4e7c48e3c14616b7869be2bc7ed0d53a9ee6fbffb0f7baa8858eecf",
        "thirds": "e130eb04e532918c4c339750d65d00cc3ba8ac4d96c8af4c378c24c407cc636e",
        "tail": "d79c2e756d8ddfa0515fc636da6f0a74a6b50854b53cff0f703ba973d517daed",
        "chain": "7566c0dc091dfd176e1ce5307dd412f795285baa46cc7f935701bd6e01b8dab5",
        "gauss": "58d50ec3e01caed30b68f6025c9815177a873159149ab82ab06812da6192ea2d",
    }

    @pytest.mark.parametrize("name, length", sorted(DRAW))
    def test_draw_is_pinned(self, name, length):
        x = measures.draw(self.MODELS[name], derive_seed(11, np.arange(5)), length)
        assert x.shape == (5, length)
        assert _digest(x) == self.DRAW[name, length]

    @pytest.mark.parametrize("name", sorted(TAKE))
    def test_take_is_pinned(self, name):
        x = SequenceGenerator(self.MODELS[name], 11).take(3000)
        assert x.shape == (3000,)
        assert _digest(x) == self.TAKE[name]


class TestGenerators:
    def test_determinism_per_seed(self):
        for model in (FAIR, CHAIN, GaussCFModel()):
            a = SequenceGenerator(model, 123).take(500)
            b = SequenceGenerator(model, 123).take(500)
            assert np.array_equal(a, b)
            c = SequenceGenerator(model, 124).take(500)
            assert not np.array_equal(a, c)

    def test_take_is_chunk_invariant(self):
        # and through a held raw/scratch pair, over uneven widths across the
        # _DRAW_BLOCK edge
        widths = (1, 5, (1 << 16) - 1, (1 << 16) + 3)
        for model in (FAIR, BIASED, THIRDS, TAIL, CHAIN, GaussCFModel()):
            whole = SequenceGenerator(model, 7).take(100)
            gen = SequenceGenerator(model, 7)
            parts = np.concatenate([gen.take(30), gen.take(50), gen.take(20)])
            assert np.array_equal(whole, parts)
            whole = SequenceGenerator(model, 7).take(sum(widths))
            gen, buffers = SequenceGenerator(model, 7), np.empty((2, 1 << 16), np.uint64)
            parts = np.concatenate([gen.take(m, buffers=buffers) for m in widths])
            assert np.array_equal(whole, parts)
        with pytest.raises(ValueError, match="buffers"):
            SequenceGenerator(FAIR, 7).take(10, buffers=np.empty((2, 9), np.uint64))

    # the chunk widths of a counting run: takes of one digit, of a few, and
    # of one or two 2^16 pieces continue every CF stream bit for bit
    @pytest.mark.parametrize("width,length", [(1, 300), (7, 3000), (1000, 30000),
                                              (1 << 16, 3 * (1 << 17) + 5),
                                              (1 << 17, 3 * (1 << 17) + 5)])
    def test_cf_takes_of_any_width_continue_the_streams(self, width, length):
        seeds = derive_seed(99, np.arange(3))
        whole = SequenceGenerator(GaussCFModel(), seeds).take(length)
        gen = SequenceGenerator(GaussCFModel(), seeds)
        parts = [gen.take(min(width, length - at)) for at in range(0, length, width)]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)

    # a block of 7 uniforms makes take() cross its block boundaries, also
    # while the first ~20 digits still use the two-ratio law
    @pytest.mark.parametrize("block", [None, 7])
    def test_cf_take_equals_single_takes(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(measures, "_DRAW_BLOCK", block)
        bulk = SequenceGenerator(GaussCFModel(), 2718)
        scalar = SequenceGenerator(GaussCFModel(), 2718)
        taken = np.concatenate([bulk.take(11), bulk.take(289)])
        stepped = np.concatenate([scalar.take(1) for _ in range(300)]).tolist()
        assert taken.tolist() == stepped == _oracle_cf_digits(2718, 300)
        assert bulk.emitted == scalar.emitted == 300
        assert np.array_equal(bulk._s, scalar._s)
        assert np.array_equal(bulk._delta, scalar._delta)

    # a block of 7 raw values makes take() cross its block boundaries
    @pytest.mark.parametrize("block", [None, 7])
    def test_markov_take_equals_single_takes(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(measures, "_DRAW_BLOCK", block)
        bulk = SequenceGenerator(CHAIN, 31)
        scalar = SequenceGenerator(CHAIN, 31)
        taken = np.concatenate([bulk.take(20), bulk.take(45)])
        assert taken.tolist() == np.concatenate([scalar.take(1) for _ in range(65)]).tolist()
        assert bulk.emitted == scalar.emitted == 65

    # blocks of 5 make every take cross row and column blocks, and the CF
    # pieces end inside the ~20-digit head of each row and past it
    # and through a held raw/scratch pair, over uneven widths across the
    # _DRAW_BLOCK edge: blocks of 13107 whole rows, then of one row piece
    @pytest.mark.parametrize("model", [BIASED, TAIL, CHAIN, GaussCFModel(), FAIR, THIRDS],
                             ids=["iid", "tail", "chain", "gauss", "fair", "thirds"])
    def test_batched_takes_continue(self, model, monkeypatch):
        seeds, n = derive_seed(6, np.arange(7)), 100
        rows = np.stack([SequenceGenerator(model, sd).take(n) for sd in seeds.tolist()])
        whole = SequenceGenerator(model, seeds).take(n)
        assert np.array_equal(whole, rows)
        widths = (1, 5, (1 << 16) - 1, (1 << 16) + 3)
        gen, buffers = SequenceGenerator(model, seeds), np.empty((2, 1 << 16), np.uint64)
        held = [gen.take(m, buffers=buffers) for m in widths]
        assert np.array_equal(np.concatenate(held, axis=1),
                              SequenceGenerator(model, seeds).take(sum(widths)))
        monkeypatch.setattr(measures, "_DRAW_BLOCK", 5)
        gen = SequenceGenerator(model, seeds)
        parts = [gen.take(m) for m in (3, 14, 1, n - 18)]
        assert all(part.shape == (7, m) for part, m in zip(parts, (3, 14, 1, n - 18)))
        assert np.array_equal(np.concatenate(parts, axis=1), whole)
        assert np.array_equal(SequenceGenerator(model, seeds).take(n), whole)
        assert gen.emitted == n

    # a law whose every threshold is a multiple of 2**33 (each cumulative
    # probability a multiple of 2**-31) is drawn without the mix's last step;
    # every take row is still value_at read by the thresholds, value for value.
    # A chain needs it of pi too: [[1/2, 1/2], [1/4, 3/4]] has pi = (1/3, 2/3)
    @pytest.mark.parametrize("model,full", [
        (FAIR, False),
        (IidModel(probs=("1/2", "1/4", "1/4")), False),
        (IidModel(probs=("1/8",) * 8), False),
        (IidModel(probs=(Fraction(1, 2**31), 1 - Fraction(1, 2**31))), False),
        (MarkovModel((("7/8", "1/8"), ("3/8", "5/8"))), False),
        (IidModel(probs=(Fraction(1, 2**32), 1 - Fraction(1, 2**32))), True),
        (MarkovModel((("1/2", "1/2"), ("1/4", "3/4"))), True),
        (THIRDS, True),
        (CHAIN, True),
    ], ids=["fair", "quarters", "eighths", "2^-31", "dyadic-chain", "2^-32",
            "dyadic-rows", "thirds", "chain"])
    def test_partial_mix_draws_the_scalar_rule(self, model, full):
        gen = SequenceGenerator(model, derive_seed(4, np.arange(5)))
        assert gen._full_mix == full
        chain = isinstance(model, MarkovModel)
        first, rest = gen.take(70), gen.take(2000)
        for seed, row in zip(gen.seeds.tolist(), np.concatenate([first, rest], axis=1)):
            state, expected = -1, []
            for i in range(len(row)):
                raw = value_at(seed, i)
                if chain:
                    state = bisect_right(model._thresholds[state], raw)
                    expected.append(state)
                else:
                    expected.append(sum(raw >= t for t in model._thresholds.tolist()))
            assert row.tolist() == expected

    def test_held_take_allocates_nothing_per_block(self):
        # a fair-coin annealed batch drawn into its held block through its
        # held buffers: what is left is the counter offsets of one piece
        gen = SequenceGenerator(FAIR, derive_seed(3, 2, np.arange(63)))
        block = np.empty((63, 16397), gen.dtype)
        buffers = draw_buffers(block.size)
        gen.take(16397, block, buffers)
        tracemalloc.start()
        try:
            gen.take(16397, block, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300_000

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
            got = []
            for raw in raws:
                got += measures._markov_states(chain._thresholds, state, [raw])
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

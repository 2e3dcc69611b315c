"""Exact-law oracles: enumeration, closed-form moments, and cross-checks.

Every frozen constant below was produced by exhaustive enumeration over all
prefixes of the required length and is therefore exact, not sampled.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from poissonlab import oracles
from poissonlab.errors import ResourceError, UnsupportedModelError
from poissonlab.measures import (GaussCFModel, IidModel, MarkovModel,
                                 contraction_profile, cylinder_prob_exact,
                                 mixing_profile)
from poissonlab.oracles import (annealed_exact_expectation,
                                brute_force_distribution,
                                dp_count_distribution, exact_expectation,
                                exact_pair_prob, exact_variance,
                                log_n_over_n_bound, period_class_measure)
from poissonlab.point_process import (IntervalUnion, j_set,
                                      required_prefix_length, unit_interval)
from poissonlab.words import enumerate_words, ext, periods

FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
BIASED = IidModel(probs=(Fraction(3, 4), Fraction(1, 4)))
CHAIN = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                (Fraction(1, 5), Fraction(4, 5))))
THIRD = IidModel(probs=(Fraction(1, 3), Fraction(2, 3)))
TRIPLE = IidModel(probs=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
THREE = IidModel(probs=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
UNIFORM_THREE = IidModel(probs=(Fraction(1, 3),) * 3)
CHAIN3 = MarkovModel(transition=((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                                 (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
                                 (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))))
UNIT = unit_interval()
HALF = IntervalUnion.from_spec([(0, Fraction(1, 2), False, True)])


def _enumerable(model, w, S=UNIT, limit=22):
    """Word/model pairs whose exact enumeration stays within the guards."""
    mu = cylinder_prob_exact(model, w)
    if mu == 0:
        return True
    return required_prefix_length(len(w), j_set(mu, S)) <= limit


class TestExactExpectation:
    def test_fair_pair_word(self):
        assert exact_expectation(FAIR, (0, 1), UNIT) == 1

    def test_fair_triple_on_half_interval(self):
        assert exact_expectation(FAIR, (1, 1, 1), HALF) == Fraction(1, 2)

    def test_gauss_digit_one(self):
        # 2 occurrences fit below the digit-1 probability: E = 2 log2(4/3)
        e = exact_expectation(GaussCFModel(), (1,), UNIT)
        assert e == pytest.approx(2 * math.log2(4 / 3), abs=1e-12)
        assert e == pytest.approx(0.830075, abs=1e-6)
        assert abs(e - 1.0) <= math.log2(4 / 3) + 1e-12

    def test_sandwich_random_words(self):
        import random
        rnd = random.Random(314)
        for model in (FAIR, BIASED, CHAIN):
            for _ in range(40):
                k = rnd.randint(1, 10)
                w = tuple(rnd.randrange(2) for _ in range(k))
                mu = cylinder_prob_exact(model, w)
                e = exact_expectation(model, w, UNIT)
                assert abs(e - 1) <= UNIT.m * mu

    def test_zero_measure_word_is_zero(self):
        # P(1,1) = 0 but the chain stays irreducible and aperiodic
        chain0 = MarkovModel(transition=((Fraction(1, 2), Fraction(1, 2)),
                                         (Fraction(1), Fraction(0))))
        assert cylinder_prob_exact(chain0, (1, 1)) == 0
        assert exact_expectation(chain0, (1, 1), UNIT) == 0


class TestExactPairProb:
    def test_fair_examples(self):
        assert exact_pair_prob(FAIR, (1, 1), 1) == Fraction(1, 8)
        assert exact_pair_prob(FAIR, (1, 0), 1) == Fraction(0)
        assert exact_pair_prob(FAIR, (1, 1), 2) == Fraction(1, 16)

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_pair_prob(FAIR, (1, 1), 0)

    def test_gauss_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            exact_pair_prob(GaussCFModel(), (1, 1), 1)

    def test_against_enumeration(self):
        # P(w at 0 and at lag) summed over all prefixes of length k + lag
        for model in (FAIR, BIASED, CHAIN):
            for w in [(1, 1), (0, 1), (1, 0, 1)]:
                k = len(w)
                for lag in range(1, 5):
                    total = Fraction(0)
                    for v in enumerate_words(2, k + lag):
                        if v[:k] == w and v[lag:lag + k] == w:
                            total += cylinder_prob_exact(model, v)
                    assert exact_pair_prob(model, w, lag) == total


class TestExactVariance:
    def test_frozen_fair_pairs(self):
        vb = exact_variance(FAIR, (1, 1), UNIT)
        assert vb.expectation == pytest.approx(1.0)
        assert vb.variance == pytest.approx(1.125, abs=1e-12)
        assert vb.j_count == 4

        vb = exact_variance(FAIR, (0, 1), UNIT)
        assert vb.variance == pytest.approx(0.375, abs=1e-12)
        # no self-overlap: the near-lag term vanishes and the far-lag
        # covariance is negative, pulling the variance below the mean
        assert vb.e2 == 0.0
        assert vb.variance < vb.expectation

    def test_matches_brute_force_all_short_words(self):
        checked = 0
        for model in (FAIR, BIASED, CHAIN):
            for k in range(1, 5):
                for w in enumerate_words(2, k):
                    if not _enumerable(model, w):
                        continue
                    vb = exact_variance(model, w, UNIT)
                    dist = brute_force_distribution(model, w, UNIT)
                    mean = sum(j * p for j, p in dist.items())
                    second = sum(j * j * p for j, p in dist.items())
                    var = second - mean * mean
                    assert vb.expectation == pytest.approx(float(mean), abs=1e-12)
                    assert vb.variance == pytest.approx(float(var), abs=1e-9)
                    checked += 1
        assert checked >= 55

    def test_empty_index_set(self):
        tiny = IntervalUnion.from_spec([(0, Fraction(1, 64), False, True)])
        vb = exact_variance(FAIR, (1, 1, 1, 1), tiny)  # mu = 1/16 > 1/64
        assert vb.j_count == 0
        assert vb.variance == 0.0

    def test_gauss_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            exact_variance(GaussCFModel(), (1,), UNIT)

    def test_shape_bound_all_zero_words(self):
        # |variance - |S|| <= C (k rho^k + sum_{ell in periods} rho^ell)
        # single fitted constant frozen from this very computation
        rho = 0.5
        worst = 0.0
        for k in range(4, 13):
            w = ext((0,), k)
            vb = exact_variance(FAIR, w, UNIT)
            shape = k * rho**k + sum(rho**p for p in periods(w))
            worst = max(worst, abs(vb.variance - 1.0) / shape)
        assert worst == pytest.approx(1.9876, abs=2e-4)
        assert worst <= 4.0


class TestRankOneChain:
    """A chain whose rows all equal pi is the i.i.d. law pi: every exact
    oracle must agree on the two.  Its bridge P^m/pi - 1 is 0 from the first
    far lag, so the variance takes the stationary exit of its lag walk."""

    CHAIN = MarkovModel(transition=((Fraction(1, 3), Fraction(2, 3)),) * 2)
    WORDS = [w for k in range(1, 4) for w in enumerate_words(2, k)]

    @pytest.mark.parametrize("S", [UNIT, HALF], ids=["unit", "half"])
    def test_laws_and_moments_equal_the_iid_ones(self, S):
        enumerated = 0
        for w in self.WORDS:
            if _enumerable(THIRD, w, S):
                assert brute_force_distribution(self.CHAIN, w, S) \
                    == brute_force_distribution(THIRD, w, S)
                enumerated += 1
            for lag in range(1, 5):
                assert exact_pair_prob(self.CHAIN, w, lag) == exact_pair_prob(THIRD, w, lag)
            chain, iid = exact_variance(self.CHAIN, w, S), exact_variance(THIRD, w, S)
            assert chain.j_count == iid.j_count
            assert chain.variance == pytest.approx(iid.variance, abs=1e-12)
        assert enumerated >= 5


class TestBruteForce:
    def test_frozen_law_fair_11(self):
        dist = brute_force_distribution(FAIR, (1, 1), UNIT)
        assert dist == {0: Fraction(13, 32), 1: Fraction(10, 32),
                        2: Fraction(6, 32), 3: Fraction(2, 32),
                        4: Fraction(1, 32)}
        assert sum(dist.values()) == 1
        assert sum(p for j, p in dist.items() if j >= 1) == Fraction(19, 32)

    def test_bernoulli_single_index(self):
        dist = brute_force_distribution(FAIR, (0,), HALF)
        assert dist == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_empty_set_is_point_mass(self):
        empty = IntervalUnion.from_spec([])
        assert brute_force_distribution(FAIR, (1, 1), empty) == {0: Fraction(1)}

    def test_mean_matches_expectation(self):
        for model, w in [(BIASED, (0, 0)), (BIASED, (1, 0, 1)),
                         (CHAIN, (0, 0)), (CHAIN, (1, 1, 1))]:
            dist = brute_force_distribution(model, w, UNIT)
            mean = sum(j * p for j, p in dist.items())
            assert mean == exact_expectation(model, w, UNIT)

    def test_resource_guard(self):
        # mu = 2^-30 needs a prefix beyond the enumeration guard
        long_w = (0,) * 30
        with pytest.raises(ResourceError):
            brute_force_distribution(FAIR, long_w, UNIT)

    @pytest.mark.parametrize("model,exact", [
        (IidModel(probs=(0.3, 0.7)), IidModel(probs=(Fraction(3, 10), Fraction(7, 10)))),
        (MarkovModel(((0.9, 0.1), (0.3, 0.7))),
         MarkovModel(((Fraction(9, 10), Fraction(1, 10)), (Fraction(3, 10), Fraction(7, 10))))),
    ], ids=["iid", "chain"])
    def test_float_probabilities_give_a_law(self, model, exact):
        # 0.3 + 0.7 is 1 - 2^-54 in binary; read as decimals they sum to 1
        dist = brute_force_distribution(model, (0, 1), UNIT)
        assert sum(dist.values()) == 1
        assert dist == brute_force_distribution(exact, (0, 1), UNIT)

    def test_geometric_model_unsupported(self):
        g = IidModel(tail_ratio=Fraction(1, 2))
        with pytest.raises(UnsupportedModelError):
            brute_force_distribution(g, (0, 1), UNIT)


def _literal_distribution(model, w, S):
    """Reference law: decode every prefix, scan its windows over J one by
    one and weigh it by its own cylinder probability."""
    k = len(w)
    starts = j_set(cylinder_prob_exact(model, w), S).indices()
    L = int(starts.max()) + k - 1
    dist = {}
    for prefix in itertools.product(range(model.alphabet_size), repeat=L):
        j = sum(prefix[i - 1: i - 1 + k] == w for i in starts)
        dist[j] = dist.get(j, Fraction(0)) + cylinder_prob_exact(model, prefix)
    return dict(sorted(dist.items()))


class TestEnumerationAgainstLiteralScan:
    SETS = (UNIT, HALF, IntervalUnion.from_spec(
        [("1/3", 1, True, True), (2, "5/2", False, False)]))

    @pytest.mark.parametrize("model", [FAIR, THIRD, TRIPLE, UNIFORM_THREE, CHAIN],
                             ids=["fair", "third", "three_symbol", "uniform_three",
                                  "markov"])
    # the real low block holds every prefix at these lengths; a block of 8
    # prefixes makes windows and one transition straddle the split, a block
    # of 1 leaves every position in the high part
    @pytest.mark.parametrize("block", [None, 8, 1])
    def test_matches_literal_scan(self, model, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(oracles, "_BLOCK_CODES", block)
        s = model.alphabet_size
        checked = 0
        for S in self.SETS:
            for k in (1, 2, 3):
                for w in enumerate_words(s, k):
                    J = j_set(cylinder_prob_exact(model, w), S)
                    if J.is_empty() or s ** required_prefix_length(k, J) > 2000:
                        continue
                    assert brute_force_distribution(model, w, S) \
                        == _literal_distribution(model, w, S), (w, S.label())
                    checked += 1
        assert checked >= 10

    # a 3-state chain's key has nine base-(L + 1) digits, so these laws'
    # keys pass 2^31 and are int64; a block of 8 prefixes puts the leading
    # digit's constants across the split
    @pytest.mark.parametrize("block", [None, 8])
    @pytest.mark.parametrize("w", [(1, 2), (2, 1)])
    def test_wide_keys_match_literal_scan(self, w, block, monkeypatch):
        J = j_set(cylinder_prob_exact(CHAIN3, w), UNIT)
        L = required_prefix_length(len(w), J)
        assert (L + 1) ** 9 * 3 * (J.count + 1) >= 1 << 31
        if block is not None:
            monkeypatch.setattr(oracles, "_BLOCK_CODES", block)
        assert brute_force_distribution(CHAIN3, w, UNIT) \
            == _literal_distribution(CHAIN3, w, UNIT)


class TestEnumerationMemory:
    def test_traced_peak_stays_small(self):
        # numpy reports its buffers to tracemalloc: int32 keys in one reused
        # buffer keep this L = 21 law near 23 MB, where int64 keys rebuilt
        # per high part reach 52 MB
        tracemalloc.start()
        try:
            brute_force_distribution(CHAIN, (0, 0, 0, 1), UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36e6


class TestEnumerationBlockSplit:
    @pytest.mark.parametrize("model,w", [(CHAIN, (0, 0, 0, 1)), (CHAIN, (0, 1, 1)),
                                         (TRIPLE, (1, 2, 2))],
                             ids=["markov_L21", "markov_L20", "three_symbol_L14"])
    def test_law_does_not_depend_on_the_block_size(self, model, w, monkeypatch):
        # prefix lengths 21, 20 and 14: a block of 2^12 codes leaves 9, 8 and
        # 7 positions to the high part, so many windows straddle the split
        default = brute_force_distribution(model, w, UNIT)
        monkeypatch.setattr(oracles, "_BLOCK_CODES", 1 << 12)
        assert brute_force_distribution(model, w, UNIT) == default


class TestDpDistribution:
    def test_agrees_with_enumeration(self):
        # the THREE words leave symbols out, which the automaton steps over too
        for model, w in [(FAIR, (1, 1)), (FAIR, (0, 1, 0)), (FAIR, (1, 1, 1, 1)),
                         (BIASED, (1, 1)), (BIASED, (0, 1, 0)),
                         (THREE, (0, 1)), (THREE, (1, 1)), (THREE, (0, 0))]:
            brute = brute_force_distribution(model, w, UNIT)
            dp = dp_count_distribution(model, w, UNIT)
            for j in set(brute) | set(dp):
                assert dp.get(j, 0.0) == pytest.approx(
                    float(brute.get(j, Fraction(0))), abs=1e-12)

    def test_reaches_beyond_enumeration(self):
        # prefix length ~2^14: enumeration would need 2^(2^14) states
        w = (0,) * 13 + (1,)
        dist = dp_count_distribution(FAIR, w, UNIT)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        mean = math.fsum(j * p for j, p in dist.items())
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_markov_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            dp_count_distribution(CHAIN, (1, 1), UNIT)

    def test_work_guard_fires_before_allocating(self):
        # 16 equal symbols: (0, 0, 0, 1) needs a prefix of 16^4 + 3 steps
        uniform16 = IidModel(probs=(Fraction(1, 16),) * 16)
        with pytest.raises(ResourceError, match="automaton DP of 65539 steps"):
            dp_count_distribution(uniform16, (0, 0, 0, 1), UNIT)


class TestTvDecayFamily:
    def test_poisson_distance_decays_for_aperiodic_words(self):
        # periodic words clump occurrences and converge to a compound limit,
        # so the decaying family uses the overlap-free word 0^(k-1) 1
        from poissonlab.poisson_stats import poisson_reference, tv_distance
        tvs = []
        for k in (4, 8, 12):
            w = (0,) * (k - 1) + (1,)
            dist = brute_force_distribution(FAIR, w, UNIT) if k == 4 else \
                dp_count_distribution(FAIR, w, UNIT)
            lam = float(exact_expectation(FAIR, w, UNIT))
            jm = max(dist)
            ref = poisson_reference(lam, jm)
            emp = {j: float(p) for j, p in dist.items()}
            tvs.append(tv_distance(emp, ref))
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[2] < 2e-3


class TestPeriodClasses:
    def test_frozen_fair_values(self):
        assert period_class_measure(FAIR, 5, 2) == Fraction(1, 8)
        assert period_class_measure(FAIR, 5, 1) == Fraction(1, 16)
        assert period_class_measure(FAIR, 2, 1) == Fraction(1, 2)

    def test_uniform_closed_form(self):
        # uniform base s: measure of the period-ell class is s^(ell-k)
        for k in range(2, 13):
            for ell in range(1, k):
                assert period_class_measure(FAIR, k, ell) \
                    == Fraction(1, 2**(k - ell))

    def test_matches_direct_enumeration(self):
        for model in (BIASED, CHAIN):
            for k in (3, 5):
                for ell in range(1, k):
                    direct = sum(
                        (cylinder_prob_exact(model, w)
                         for w in enumerate_words(2, k) if ell in periods(w)),
                        Fraction(0))
                    assert period_class_measure(model, k, ell) == direct

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            period_class_measure(FAIR, 3, 3)
        with pytest.raises(UnsupportedModelError):
            period_class_measure(GaussCFModel(), 3, 1)


class TestAnnealedExpectation:
    def test_biased_k2_frozen(self):
        # floor effects push the annealed mean well below |S| at small k
        assert annealed_exact_expectation(BIASED, 2, UNIT) == Fraction(187, 256)

    def test_fair_is_exact(self):
        # dyadic mu: every J has exactly 1/mu indices, no floor error
        for k in (1, 3, 6):
            assert annealed_exact_expectation(FAIR, k, UNIT) == 1

    def test_sandwich_bound(self):
        for model, k in [(BIASED, 6), (CHAIN, 6)]:
            prof = contraction_profile(model)
            e = annealed_exact_expectation(model, k, UNIT)
            assert abs(float(e) - 1.0) <= UNIT.m * prof.K * prof.rho**k

    def test_guard(self):
        with pytest.raises(ResourceError):
            annealed_exact_expectation(FAIR, 40, UNIT)


class TestScanMajorant:
    def test_frozen_values_fair(self):
        prof = mixing_profile(FAIR)
        got = log_n_over_n_bound(10, UNIT, prof)
        assert got == pytest.approx(math.log(512) / 512, abs=1e-12)
        assert got == pytest.approx(0.012184, abs=1e-6)
        assert log_n_over_n_bound(20, UNIT, prof) == pytest.approx(2.512e-5, rel=1e-3)
        assert log_n_over_n_bound(1, UNIT, prof) is None

    def test_zero_length_set_has_no_majorant(self):
        prof = mixing_profile(FAIR)
        for spec in ([], [(Fraction(1, 5), Fraction(1, 5), True, True)]):
            assert log_n_over_n_bound(30, IntervalUnion.from_spec(spec), prof) is None

    def test_monotone_once_defined(self):
        prof = mixing_profile(FAIR)
        vals = [log_n_over_n_bound(k, UNIT, prof) for k in range(1, 25)]
        seen = [v for v in vals if v is not None]
        for a, b in zip(seen, seen[1:]):
            assert b < a

"""Interval unions, index sets J = {i : i*mu in S}, occurrence counting.

The sandwich |#J - |S|/mu| <= m (number of intervals) is the load-bearing
combinatorial fact; it gets a large randomized exact check here.
"""

import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab import point_process
from poissonlab.errors import ResourceError
from poissonlab.measures import (GaussCFModel, SequenceGenerator, cylinder_prob,
                                 cylinder_prob_guarded, draw, gauss_cylinder_prob_high,
                                 model_from_spec)
from poissonlab.mixing_concentration import count_word_occurrences
from poissonlab.point_process import (IntervalUnion, j_set, parse_rational,
                                      required_prefix_length, unit_interval)
from poissonlab.rng import derive_seed


class TestParseRational:
    @pytest.mark.parametrize("value,expected", [
        (3, Fraction(3)), (Fraction(2, 7), Fraction(2, 7)), (" 1/10 ", Fraction(1, 10)),
        ("0.1", Fraction(1, 10)), ("1e-3", Fraction(1, 1000)),
        # a float is the decimal it prints as, not its binary value
        (0.1, Fraction(1, 10)), (0.3, Fraction(3, 10)), (1e-30, Fraction(1, 10**30)),
        (np.float64(0.3), Fraction(3, 10)),
    ])
    def test_reads(self, value, expected):
        assert parse_rational(value, "x") == expected

    @pytest.mark.parametrize("value", [False, True, float("nan"), float("inf"),
                                       float("-inf"), "x", "1/0", None, [1]])
    def test_refuses(self, value):
        with pytest.raises(ValueError, match=r"^lo: cannot interpret"):
            parse_rational(value, "lo")


class TestIntervalUnion:
    def test_unit_interval(self):
        S = unit_interval()
        assert S.m == 1
        assert S.total_length == 1
        assert S.sup == 1
        assert not S.contains(Fraction(0))
        assert S.contains(Fraction(1))
        assert S.contains(Fraction(1, 2))

    def test_from_spec_dicts_and_tuples(self):
        S = IntervalUnion.from_spec([
            {"lo": "1/2", "hi": "1", "lo_closed": True, "hi_closed": False},
            ("2", "5/2", False, True),
        ])
        assert S.m == 2
        assert S.total_length == Fraction(1)
        assert S.sup == Fraction(5, 2)
        assert S.contains(Fraction(1, 2))
        assert not S.contains(Fraction(1))
        assert not S.contains(Fraction(2))
        assert S.contains(Fraction(5, 2))

    def test_label_and_spec_roundtrip(self):
        S = IntervalUnion.from_spec([("0", "1", False, True)])
        assert S.label() == "(0, 1]"
        S2 = IntervalUnion.from_spec(S.to_spec())
        assert S2.intervals == S.intervals

    def test_empty_union(self):
        S = IntervalUnion.from_spec([])
        assert S.m == 0
        assert S.total_length == 0
        assert S.label() == "{}"

    def test_float_endpoints_read_as_printed(self):
        S = IntervalUnion.from_spec([(0, 0.1, False, True), {"lo": 0.5, "hi": 0.7}])
        assert S.intervals == IntervalUnion.from_spec(
            [("0", "1/10", False, True), ("1/2", "7/10", False, True)]).intervals
        assert S.label() == "(0, 1/10] u (1/2, 7/10]"

    def test_validation_errors_carry_index(self):
        with pytest.raises(ValueError, match=r"interval \[0\]"):
            IntervalUnion.from_spec([("1", "0", False, True)])
        with pytest.raises(ValueError, match=r"interval \[1\]"):
            IntervalUnion.from_spec([("0", "1", False, True), ("-1", "0", False, True)])

    def test_overlapping_intervals_merge_canonically(self):
        S = IntervalUnion.from_spec([("0", "1", False, True),
                                     ("1/2", "2", False, True)])
        assert S.m == 1
        assert S.total_length == 2
        assert S.sup == 2

    def test_touching_intervals(self):
        # covered junction point: merged
        S = IntervalUnion.from_spec([("0", "1", False, True),
                                     ("1", "2", False, True)])
        assert S.m == 1
        assert S.total_length == 2
        # uncovered junction point: stays a genuine union
        S2 = IntervalUnion.from_spec([("0", "1", False, False),
                                      ("1", "2", False, True)])
        assert S2.m == 2
        assert not S2.contains(Fraction(1))


class TestJSet:
    def test_worked_example(self):
        # mu = 1/2, S = [0.5, 1) u (2, 2.5] -> J = {1, 5}
        S = IntervalUnion.from_spec([
            {"lo": "1/2", "hi": "1", "lo_closed": True, "hi_closed": False},
            ("2", "5/2", False, True),
        ])
        J = j_set(Fraction(1, 2), S)
        assert list(J.indices()) == [1, 5]
        assert J.count == 2

    def test_unit_interval_fair_word(self):
        J = j_set(Fraction(1, 4), unit_interval())
        assert J.ranges == ((1, 4),)
        assert J.count == 4
        assert required_prefix_length(2, J) == 5

    def test_empty_when_mu_exceeds_sup(self):
        J = j_set(Fraction(3, 4), IntervalUnion.from_spec([("0", "1/2", False, True)]))
        assert J.is_empty()
        assert required_prefix_length(3, J) == 0

    def test_open_closed_boundaries_exact(self):
        S = IntervalUnion.from_spec([("1/4", "1", True, False)])  # [1/4, 1)
        J = j_set(Fraction(1, 4), S)
        # i/4 in [1/4, 1): i in {1, 2, 3}; i = 4 gives 1, excluded
        assert list(J.indices()) == [1, 2, 3]

    def test_float_path_matches_exact_on_dyadics(self):
        S = unit_interval()
        for k in range(1, 30):
            mu = Fraction(1, 2**k)
            exact = j_set(mu, S)
            via_float = j_set(float(mu), S, lambda dps, m=mu: m)
            assert exact.ranges == via_float.ranges

    def test_float_guard_band_consults_high_precision(self):
        # mu float is slightly off 1/3; boundary i = 3 must be decided exactly
        mu = Fraction(1, 3)
        J = j_set(float(mu), unit_interval(), lambda dps: mu)
        assert J.ranges == ((1, 3),)

    def test_float_guard_band_exact_rational_ties(self):
        # endpoints are exact multiples of mu: 4 * mu = 248/73, 8 * mu = 496/73
        mu = Fraction(62, 73)
        S = IntervalUnion.from_spec([("248/73", "496/73", True, True)])
        assert j_set(float(mu), S, lambda dps: mu).ranges == ((4, 8),)
        assert j_set(mu, S).ranges == ((4, 8),)

    def test_float_guard_band_ties_agree_with_exact_path(self):
        import random
        rnd = random.Random(2024)
        for _ in range(300):
            mu = Fraction(rnd.randint(1, 400), rnd.randint(1, 400))
            lo = rnd.randint(0, 50)
            hi = lo + rnd.randint(0, 50)
            closed = (rnd.random() < 0.5, rnd.random() < 0.5)
            if lo == hi:
                closed = (True, True)
            S = IntervalUnion.from_spec([(lo * mu, hi * mu) + closed])
            assert j_set(float(mu), S, lambda dps: mu).ranges == j_set(mu, S).ranges, \
                (mu, S.label())

    def test_float_guard_band_tiny_cylinder(self, monkeypatch):
        # the float quotient 1/mu of these CF cylinders is off by thousands of
        # indices; the boundary comes from one 50-digit quotient instead
        decide = point_process._hp_below
        decisions = []

        def counted(*args):
            decisions.append(args[0])
            return decide(*args)

        monkeypatch.setattr(point_process, "_hp_below", counted)
        model = GaussCFModel()
        for w, last in [((100000, 1, 1, 1, 1, 1, 1, 10000), 117170620088692532340),
                        ((300000, 1, 1, 1, 1, 1, 1, 10000), 1054519898209733408612)]:
            evaluations = []

            def high(dps, w=w):
                evaluations.append(dps)
                return gauss_cylinder_prob_high(w, dps)

            decisions.clear()
            J = j_set(cylinder_prob(model, w), unit_interval(), high)
            assert J.ranges == ((1, last),)
            assert len(evaluations) == 1
            assert len(decisions) <= 4

    def test_endpoint_zero_needs_no_high_precision(self, monkeypatch):
        # 0 * mu = 0 exactly, so the endpoint 0 never consults mu_high; the
        # ranges still match the exact path (rational mu) and a 60-digit
        # quotient (CF words)
        import mpmath

        last_index = point_process._last_index_float
        evaluations_at_zero = []

        def spy(bound, mu, inclusive, mu_high, dps, limit=None):
            evaluations = []

            def counted(d):
                evaluations.append(d)
                return mu_high(d)

            i = last_index(bound, mu, inclusive, None if mu_high is None else counted, dps, limit)
            if bound == 0:
                evaluations_at_zero.append(len(evaluations))
            return i

        monkeypatch.setattr(point_process, "_last_index_float", spy)
        rnd = random.Random(2025)
        for _ in range(300):
            mu = Fraction(rnd.randint(1, 400), rnd.randint(1, 400))
            S = IntervalUnion.from_spec(
                [(0, rnd.randint(1, 50) * mu, rnd.random() < 0.5, rnd.random() < 0.5)])
            assert j_set(float(mu), S, lambda dps: mu).ranges == j_set(mu, S).ranges, \
                (mu, S.label())
        model = GaussCFModel()
        for i in range(2000):
            w = tuple(SequenceGenerator(model, derive_seed(2025, i)).take(8).tolist())
            J = j_set(cylinder_prob(model, w), unit_interval(),
                      lambda dps, w=w: gauss_cylinder_prob_high(w, dps))
            with mpmath.workdps(60):
                last = int(mpmath.floor(1 / gauss_cylinder_prob_high(w, 60)))
            assert J.ranges == (((1, last),) if last >= 1 else ()), w
        assert len(evaluations_at_zero) == 2300
        assert not any(evaluations_at_zero)

    def test_float_guard_band_far_endpoint(self):
        # indices near 1e40 are resolved at more than 50 digits; a set past
        # the float range is a resource error, not a hang or a traceback
        import mpmath

        model = GaussCFModel()
        w = (3, 7, 2)
        mu = cylinder_prob(model, w)
        S = IntervalUnion.from_spec([("0", "1e40", False, True)])
        J = j_set(mu, S, lambda dps: gauss_cylinder_prob_high(w, dps))
        (a, b), = J.ranges
        with mpmath.workdps(100):
            mu_hp = gauss_cylinder_prob_high(w, 100)
            assert a == 1 and b * mu_hp <= 10**40 < (b + 1) * mu_hp
        with pytest.raises(ResourceError):
            j_set(mu, IntervalUnion.from_spec([("0", "1e400", False, True)]),
                  lambda dps: gauss_cylinder_prob_high(w, dps))

    def test_sandwich_randomized_exact(self):
        rng = random.Random(987)
        for _ in range(2000):
            num = rng.randint(1, 1000)
            den = rng.randint(num, 10**6)
            mu = Fraction(num, den)
            ivs = []
            lo = Fraction(0)
            m = rng.randint(1, 3)
            for _ in range(m):
                lo = lo + Fraction(rng.randint(0, 50), rng.randint(1, 40))
                hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 7))
                if hi / mu > 10**7:
                    break
                ivs.append((str(lo), str(hi), bool(rng.getrandbits(1)),
                            bool(rng.getrandbits(1))))
                lo = hi
            if not ivs:
                continue
            S = IntervalUnion.from_spec(ivs)
            J = j_set(mu, S)
            assert abs(J.count - S.total_length / mu) <= S.m

    def test_float_path_loads_mpmath_only_for_the_guard_band(self):
        # a CF word whose products stay far from the endpoints of (0, 1] is
        # decided in floats; one whose float quotient lands in the guard band
        # needs mpmath (its endpoint 1 is an exact multiple of mu = 1/4)
        code = ("import sys\n"
                "from poissonlab.measures import GaussCFModel, cylinder_prob_guarded\n"
                "from poissonlab.point_process import j_set, unit_interval\n"
                "mu, high = cylinder_prob_guarded(GaussCFModel(), [3, 1, 4, 1, 5])\n"
                "print(j_set(mu, unit_interval(), high).ranges, 'mpmath' in sys.modules)\n"
                "j_set(0.25, unit_interval(), lambda dps: 0.25)\n"
                "print('mpmath' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout.split("\n")
        assert out[:2] == ["((1, 18390),) False", "True"]


def _cf_words(k, n, seed):
    """n CF words of length k from ``draw``; every third has one digit moved
    past 2^25 and every fifth one past 2^40."""
    words = draw(GaussCFModel(), derive_seed(seed, k, np.arange(n)), k).tolist()
    for i in range(0, n, 3):
        words[i][i % k] = (1 << 25) + i
    for i in range(0, n, 5):
        words[i][(i + 1) % k] = (1 << 40) + i
    return [tuple(w) for w in words]


CAPPED_SETS = [unit_interval(),
               IntervalUnion.from_spec([("1/2", "1", False, True)]),
               IntervalUnion.from_spec([("0", "1/3", True, False), ("2/3", "2", False, True)])]


class TestCappedJSet:
    """``j_set(..., limit)``: the ranges up to ``limit`` and whether J has an
    index past it, as the uncapped index set gives them."""

    @staticmethod
    def _seen_to(J, limit):
        return [(a, min(b, limit)) for a, b in J.ranges if a <= limit]

    def test_agrees_with_the_uncapped_set_near_every_endpoint(self):
        model = GaussCFModel()
        for k in range(1, 13):
            for w in _cf_words(k, 12, 2026):
                mu, high = cylinder_prob_guarded(model, w)
                for S in CAPPED_SETS:
                    J = j_set(mu, S, high)
                    ends = {e for ab in J.ranges for e in ab} | {1, 10**5}
                    for limit in {max(e + d, 0) for e in ends for d in (-1, 0, 1)}:
                        capped = j_set(mu, S, high, limit)
                        assert self._seen_to(capped, limit) == self._seen_to(J, limit)
                        assert len(capped.ranges) == len(J.ranges)
                        assert (capped.max_index() > limit) == (J.max_index() > limit)
                        assert capped.max_index() <= limit + 1
                        # cut(n_cap) of a plan: the prefix the set needs, past n_cap
                        n_cap = limit + k - 1
                        assert ((required_prefix_length(k, capped) > n_cap)
                                == (required_prefix_length(k, J) > n_cap)), (w, S.label())

    def test_no_high_precision_for_a_band_past_the_cap(self, monkeypatch):
        decide = point_process._hp_below
        decisions = []
        monkeypatch.setattr(point_process, "_hp_below",
                            lambda *a: decisions.append(a) or decide(*a))
        model, k, n_cap = GaussCFModel(), 8, 100000
        limit = n_cap - k + 1
        band_words = 0
        for w in draw(model, derive_seed(31416, 4, 0, np.arange(400)), k).tolist():
            mu, high = cylinder_prob_guarded(model, w)
            evaluations = []

            def counted(dps, high=high):
                evaluations.append(dps)
                return high(dps)

            J = j_set(mu, unit_interval(), counted)
            if J.max_index() <= limit + 1:
                continue
            band_words += bool(evaluations)
            evaluations.clear()
            decisions.clear()
            capped = j_set(mu, unit_interval(), counted, limit)
            assert capped.ranges == ((1, limit + 1),)
            assert evaluations == [] and decisions == []
        assert band_words >= 5

    def test_a_set_wholly_past_the_cap_stays_truncated(self):
        from poissonlab.mixing_concentration import _plan_words

        model, k = GaussCFModel(), 3
        word = (40, 50, 60)
        mu, high = cylinder_prob_guarded(model, word)
        S = IntervalUnion.from_spec([("1/2", "1", False, True)])
        (a, _), = j_set(mu, S, high).ranges
        n_cap = a - 5 + k - 1  # J starts four window starts past the last one
        limit = n_cap - k + 1
        assert j_set(mu, S, high, limit).ranges == ((limit + 1, limit + 1),)
        _, (plan,) = _plan_words(model, np.array([word]), [S], k, n_cap)
        assert plan.cut == (True,)
        assert plan.length == n_cap

    def test_a_plan_carries_its_capped_length_and_cut(self):
        from poissonlab.mixing_concentration import _plan_words

        models = [model_from_spec({"type": "iid", "probs": ["1/2", "1/3", "1/6"]}),
                  model_from_spec({"type": "iid", "tail_ratio": "1/2"}),
                  model_from_spec({"type": "markov",
                                   "transition": [["9/10", "1/10"], ["1/5", "4/5"]]}),
                  GaussCFModel()]
        checked, cuts = 0, set()
        for model in models:
            for k in range(1, 9):
                if isinstance(model, GaussCFModel):
                    words = _cf_words(k, 4, 2027)
                else:
                    words = draw(model, derive_seed(2027, k, np.arange(4)), k).tolist()
                for w in words:
                    mu, high = cylinder_prob_guarded(model, w)
                    needs = [required_prefix_length(k, j_set(mu, S, high)) for S in CAPPED_SETS]
                    for n_cap in {max(need + d, k) for need in needs for d in (-1, 0, 1)}:
                        _, (plan,) = _plan_words(model, np.array([w]), CAPPED_SETS, k, n_cap)
                        assert plan.length == min(max(needs), n_cap), (w, n_cap)
                        assert plan.cut == tuple(need > n_cap for need in needs), (w, n_cap)
                        assert all(e <= n_cap - k + 2 for J in plan.js for ab in J.ranges
                                   for e in ab), (w, n_cap)
                        checked, cuts = checked + 1, cuts | set(plan.cut)
        assert checked >= 4 * 8 * 4 * 3 and cuts == {False, True}


class TestCounting:
    def test_count_word_occurrences_basic(self):
        x = np.array([[0, 1, 0, 1, 1, 0, 1]], dtype=np.int64)
        w01, w11 = np.array([[0, 1]]), np.array([[1, 1]])
        assert count_word_occurrences(x, w01, [[(1, 6)]]).tolist() == [[3]]
        assert count_word_occurrences(x, w01, [[(2, 3)]]).tolist() == [[1]]
        assert count_word_occurrences(x, w11, [[(1, 6)]]).tolist() == [[1]]
        assert count_word_occurrences(x, w01, [[(1, 2), (5, 6)]]).tolist() == [[2]]
        # one call, one row of counts per set
        assert count_word_occurrences(x, w01, [[(1, 6)], [(2, 3)], [(1, 2), (5, 6)]]
                                      ).tolist() == [[3], [1], [2]]

    def test_count_word_occurrences_rows(self):
        # each row is scanned for its own word
        x = np.array([[0, 1, 0, 1, 0], [1, 1, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=np.uint8)
        w = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
        assert count_word_occurrences(x, w, [[(1, 4)]]).tolist() == [[2, 2, 2]]
        assert count_word_occurrences(x, w, [[(2, 3)]]).tolist() == [[1, 1, 1]]
        assert count_word_occurrences(x, w, [[]]).tolist() == [[0, 0, 0]]
        assert count_word_occurrences(x, w, [[], []]).tolist() == [[0, 0, 0]] * 2
        assert count_word_occurrences(x, w, []).shape == (0, 3)

    def test_count_word_occurrences_matches_literal_scan(self):
        # ranges (-40, 7) and (295, 10**30) start below 1 and end past the last
        # window: the count clips them to windows 1..300; the single windows
        # 64, 65 and 128 sit at the edges of the 64-window words that binary
        # streams are matched in.  Binary streams (of the i.i.d. dtype uint8
        # and the Markov dtype int64) are matched bit-parallel, the
        # three-symbol ones by bytes; k = 63..130 shift across those words.
        # Several sets go in one call: one overlapping the first, one
        # disjoint from it, one empty and one wholly past the windows
        rng = np.random.default_rng(4)
        ranges = [(1, 50), (64, 64), (65, 65), (90, 300), (-40, 7), (128, 128),
                  (295, 10**30)]
        sets = [ranges, [(30, 120), (200, 200)], [(51, 63), (66, 89)], [], [(301, 400)]]

        def literal(x, w, ranges):
            k = w.shape[1]
            return [sum(1 for a, b in ranges for i in range(max(a, 1), min(b, 300) + 1)
                        if tuple(row[i - 1: i - 1 + k]) == tuple(word))
                    for row, word in zip(x.tolist(), w.tolist())]

        def per_set(x, w, sets):
            return [literal(x, w, rs) for rs in sets]

        for k in (1, 3, 63, 64, 65, 70, 130):  # 70 binary symbols overflow an int64 code
            for symbols in (2, 3):
                for dtype in (np.uint8, np.int64):
                    x = rng.integers(0, symbols, size=(6, 300 + k - 1)).astype(dtype)
                    w = x[:, 10: 10 + k].copy()  # each row's word occurs at window 11
                    want = literal(x, w, ranges)
                    assert min(want) > 0
                    assert count_word_occurrences(x, w, [ranges]).tolist() == [want]
                    assert count_word_occurrences(x[:1], w[:1], [ranges]).tolist() \
                        == [want[:1]]
                    assert count_word_occurrences(x, w, sets).tolist() == per_set(x, w, sets)
                    for chosen in (sets[1:3], sets[2:], sets[::-1]):
                        assert count_word_occurrences(x, w, chosen).tolist() \
                            == per_set(x, w, chosen)
                    for a in (1, 11, 64, 65, 300):  # one window
                        assert count_word_occurrences(x, w, [[(a, a)]]).tolist() \
                            == [literal(x, w, [(a, a)])]
            # a symbol 2 in a binary stream's word: no window holds the word
            x = rng.integers(0, 2, size=(3, 300 + k - 1), dtype=np.uint8)
            w = x[:, 10: 10 + k].copy()
            w[:, k // 2] = 2
            assert count_word_occurrences(x, w, sets).tolist() == [[0, 0, 0]] * len(sets)
            # a symbol -1 is not binary either: it matches only itself
            x = x.astype(np.int64)
            x[:, 200] = -1
            w = x[:, 200 - k // 2: 200 - k // 2 + k].copy()
            assert count_word_occurrences(x, w, sets).tolist() == per_set(x, w, sets)

    def test_materialization_guard(self):
        J = j_set(Fraction(1, 10**8), unit_interval())
        with pytest.raises(ResourceError):
            J.indices()


mu_st = st.fractions(min_value=Fraction(1, 10**6), max_value=1)
len_st = st.fractions(min_value=Fraction(1, 100), max_value=10)


@given(mu_st, len_st, st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_sandwich_property_single_interval(mu, length, lo_closed, hi_closed):
    if length / mu > 10**7:
        return
    S = IntervalUnion.from_spec([(str(Fraction(0)), str(length), lo_closed, hi_closed)])
    J = j_set(mu, S)
    assert abs(J.count - S.total_length / mu) <= S.m


@given(mu_st)
@settings(max_examples=100, deadline=None)
def test_j_set_indices_exactly_characterized(mu):
    S = unit_interval()
    J = j_set(mu, S)
    if J.count > 10**4:
        return
    members = set(int(i) for i in J.indices())
    top = J.max_index() + 2
    for i in range(1, min(top, 10**4) + 1):
        assert (i in members) == S.contains(i * mu)

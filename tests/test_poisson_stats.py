"""Poisson reference laws, TV metric, histograms and the Kallenberg check.

scipy.stats.poisson is the independent oracle for pmf values; the Poisson
samples come from the tests' own inverse-CDF sampler (``sampling.py``).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from poissonlab.errors import InsufficientDataError
from poissonlab.experiments import parse_config
from poissonlab.poisson_stats import (fold_histogram, histogram_j_max,
                                      kallenberg_check, poisson_pmf,
                                      poisson_reference, tv_distance)
from sampling import sample_poisson_counts


class TestPmf:
    def test_matches_scipy(self):
        for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            for j in range(30):
                assert poisson_pmf(lam, j) == pytest.approx(
                    stats.poisson.pmf(j, lam), rel=1e-12, abs=1e-300)

    def test_mass_sums_to_one(self):
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
            total = sum(poisson_pmf(lam, j) for j in range(201))
            assert abs(total - 1.0) < 1e-12

    def test_zero_rate_is_point_mass(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0


class TestTvDistance:
    def test_symmetry_and_identity(self):
        p = {0: 0.5, 1: 0.3, 2: 0.2}
        q = {0: 0.4, 1: 0.4, 2: 0.2}
        assert tv_distance(p, q) == tv_distance(q, p)
        assert tv_distance(p, p) == 0.0
        assert tv_distance(p, q) == pytest.approx(0.1)

    def test_disjoint_support_handled(self):
        assert tv_distance({0: 1.0}, {5: 1.0}) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            raw = rng.random((3, 6))
            p, q, r = (dict(enumerate(row / row.sum())) for row in raw)
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            tv_distance({0: 0.5, 1: 0.2}, {0: 0.5, 1: 0.5})

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            tv_distance({0: 1.5, 1: -0.5}, {0: 1.0})


class TestHistogramTools:
    def test_j_max_grows_with_rate(self):
        assert histogram_j_max(0.5) < histogram_j_max(5.0) < histogram_j_max(50.0)

    def test_reference_tail_in_overflow_bucket(self):
        jm = 6
        ref = poisson_reference(2.0, jm)
        assert set(ref) == set(range(jm + 2))
        assert math.fsum(ref.values()) == pytest.approx(1.0, abs=1e-12)
        assert ref[jm + 1] == pytest.approx(
            1.0 - stats.poisson.cdf(jm, 2.0), rel=1e-9, abs=1e-12)

    def test_fold_histogram(self):
        folded = fold_histogram(np.array([0, 1, 1, 2, 5, 9]), 3)
        assert folded == {0: 1, 1: 2, 2: 1, 4: 2}
        assert all(type(j) is int and type(c) is int for j, c in folded.items())
        assert fold_histogram(np.zeros(0, dtype=np.int64), 3) == {}
        with pytest.raises(ValueError):
            fold_histogram(np.array([2, -1]), 3)


class TestSampling:
    # the sampler lives with the tests; these check it before TestKallenberg
    # and acceptance criterion 12 rely on it
    def test_deterministic_per_seed(self):
        a = sample_poisson_counts(1.5, 1000, 33)
        b = sample_poisson_counts(1.5, 1000, 33)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_poisson_counts(1.5, 1000, 34))

    def test_moments(self):
        x = sample_poisson_counts(2.0, 200000, 8)
        assert x.min() >= 0
        assert x.mean() == pytest.approx(2.0, abs=0.03)
        assert x.var() == pytest.approx(2.0, abs=0.05)

    def test_law_close_in_tv(self):
        x = sample_poisson_counts(1.0, 100000, 12)
        jm = histogram_j_max(1.0)
        folded = fold_histogram(x, jm)
        emp = {j: f / len(x) for j, f in folded.items()}
        assert tv_distance(emp, poisson_reference(1.0, jm)) < 0.01


class TestKallenberg:
    def test_poisson_samples_pass(self):
        for i, size in enumerate((0.5, 1.0)):
            row = kallenberg_check(sample_poisson_counts(size, 5000, 100 + i), size, 0.0)
            assert row["condition1"] == "PASS"
            assert row["condition2"] == "PASS"

    def test_degenerate_zero_counts_fail_void(self):
        row = kallenberg_check(np.zeros(400, dtype=np.int64), 1.0, 0.0)
        assert row["condition2"] == "FAIL"
        # empirical void prob 1 against Poisson(1) void prob 1/e
        assert row["void_empirical"] == pytest.approx(1.0)
        assert row["void_target"] == pytest.approx(math.exp(-1.0))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            kallenberg_check(np.zeros(50, dtype=np.int64), 1.0, 0.0)


# n_used of every set of the shipped genericity configs, from their reports
# (whose hashes tests/test_benchmark_pins.py pins); a quenched config has it
# per replica, and its gate is per replica
SHIPPED_N_USED = {"annealed_fair": 50000, "quenched_fair": 50000, "quenched_gauss": 3273}


@pytest.mark.parametrize("name,n_used", SHIPPED_N_USED.items())
def test_null_tv_quantile_is_below_the_shipped_tolerance(name, n_used):
    """Calibration of the TV gate: with n_used counts drawn from the exact
    null Poisson(|S|), folded as a report folds them, the 99.9% quantile of
    the TV is below the config's tolerance, so the gate rarely fails a
    Poisson count law by sampling noise alone."""
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = parse_config(json.loads(path.read_text()))
    rng = np.random.default_rng(20261019)
    for S in cfg.sets:
        lam = float(S.total_length)
        ref = poisson_reference(lam, histogram_j_max(lam))
        probs = np.array([ref[j] for j in range(len(ref))])
        hists = rng.multinomial(n_used, probs / probs.sum(), size=5000)
        tvs = 0.5 * np.abs(hists / n_used - probs).sum(axis=1)
        emp = {j: c / n_used for j, c in enumerate(hists[0].tolist()) if c}
        assert tvs[0] == pytest.approx(tv_distance(emp, ref), abs=1e-15)
        assert np.quantile(tvs, 0.999) < cfg.tv_tolerance

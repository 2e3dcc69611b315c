"""Acceptance gate: thirteen end-to-end checks, one per numbered criterion.

Each test prints a single [criterion NN] PASS line with its measured
quantities (visible under -s; the -v test listing carries the pass/fail
verdict).  Statistical criteria run the frozen configs under configs/ with
pinned seeds, so every number here is reproducible bit for bit.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from poissonlab.experiments import execute, parse_config, read_config_doc
from poissonlab.measures import (IidModel, MarkovModel, SequenceGenerator,
                                 cylinder_prob_exact)
from poissonlab.mixing_concentration import (delta_matrix, delta_norm,
                                             eta_coefficients)
from poissonlab.oracles import (brute_force_distribution, exact_expectation,
                                exact_variance, period_class_measure)
from poissonlab.point_process import IntervalUnion, j_set, unit_interval
from poissonlab.poisson_stats import kallenberg_check, poisson_pmf
from poissonlab.rng import derive_seed
from poissonlab.words import enumerate_words
from sampling import sample_poisson_counts

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FAIR = IidModel(probs=(Fraction(1, 2), Fraction(1, 2)))
UNIT = unit_interval()

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def annealed_runs(tmp_path_factory):
    """The frozen annealed config executed twice into separate directories."""
    cfg = parse_config(read_config_doc(CONFIGS / "annealed_fair.json"))
    dirs = []
    elapsed = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"annealed_{tag}")
        t0 = time.monotonic()
        code, rep = execute(cfg, out)
        elapsed.append(time.monotonic() - t0)
        dirs.append((out, code, rep))
    return dirs, elapsed


def test_criterion_01_poisson_pmf_normalization():
    t0 = time.monotonic()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
        total = math.fsum(poisson_pmf(lam, j) for j in range(201))
        worst = max(worst, abs(total - 1.0))
    dt = time.monotonic() - t0
    assert worst <= 1e-12
    assert dt < 1.0
    print(f"[criterion 01] PASS: pmf mass defect {worst:.2e} <= 1e-12 in {dt:.2f}s")


def test_criterion_02_index_count_sandwich_random_instances():
    t0 = time.monotonic()
    rnd = random.Random(987)
    n_checked = 0
    while n_checked < 10**4:
        mu = Fraction(rnd.randint(1, 1 << 20), 1 << 24)
        if mu == 0:
            continue
        points = sorted(Fraction(rnd.randint(0, 1 << 10), 1 << 8)
                        for _ in range(2 * rnd.randint(1, 3)))
        spec = []
        for a, b in zip(points[::2], points[1::2]):
            if a == b:
                continue
            spec.append((a, b, bool(rnd.getrandbits(1)), bool(rnd.getrandbits(1))))
        try:
            S = IntervalUnion.from_spec(spec)
        except ValueError:
            continue
        if S.sup / mu > 10**7:
            continue
        J = j_set(mu, S)
        assert abs(J.count * mu - S.total_length) <= S.m * mu
        n_checked += 1
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"[criterion 02] PASS: exact sandwich on {n_checked} instances in {dt:.2f}s")


def test_criterion_03_expectation_identity_random_words():
    t0 = time.monotonic()
    n_checked = 0
    for k in range(2, 13):
        for i in range(50):
            w = tuple(SequenceGenerator(FAIR, derive_seed(424242, k, i)).take(k).tolist())
            mu = cylinder_prob_exact(FAIR, w)
            e = exact_expectation(FAIR, w, UNIT)
            assert abs(e - 1) <= UNIT.m * mu
            n_checked += 1
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"[criterion 03] PASS: |E - |S|| <= m*mu for {n_checked} words in {dt:.2f}s")


def test_criterion_04_variance_dual_path_and_frozen_law():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(1, 5):
        for w in enumerate_words(2, k):
            vb = exact_variance(FAIR, w, UNIT)
            dist = brute_force_distribution(FAIR, w, UNIT)
            mean = sum(j * p for j, p in dist.items())
            second = sum(j * j * p for j, p in dist.items())
            worst = max(worst, abs(vb.variance - float(second - mean * mean)))
    assert worst <= 1e-9

    dist = brute_force_distribution(FAIR, (1, 1), UNIT)
    vb = exact_variance(FAIR, (1, 1), UNIT)
    assert vb.variance == pytest.approx(1.125, abs=1e-12)
    # the law of the double-one count: mass 19/32 spreads over j >= 1,
    # leaving P(0) = 13/32 (the two frozen fractions are complementary)
    assert dist[0] == Fraction(13, 32)
    assert sum(p for j, p in dist.items() if j >= 1) == Fraction(19, 32)
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"[criterion 04] PASS: dual-path gap {worst:.1e} <= 1e-9, "
          f"var(11)=1.125, P(>=1)=19/32 in {dt:.2f}s")


def test_criterion_05_period_class_exactness():
    t0 = time.monotonic()
    n_checked = 0
    for k in range(2, 13):
        for ell in range(1, k):
            assert period_class_measure(FAIR, k, ell) == Fraction(1, 2**(k - ell))
            n_checked += 1
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"[criterion 05] PASS: {n_checked} period classes exact in {dt:.2f}s")


def test_criterion_06_annealed_convergence(annealed_runs):
    dirs, elapsed = annealed_runs
    _, code, rep = dirs[0]
    tv = rep.sets[0].tv_set
    assert code == 0
    assert rep.passed
    assert tv <= 0.03
    assert elapsed[0] < 120.0
    print(f"[criterion 06] PASS: annealed k=14 n=50000 TV={tv:.5f} <= 0.03 "
          f"in {elapsed[0]:.1f}s")


def test_criterion_07_quenched_convergence():
    t0 = time.monotonic()
    cfg = parse_config(read_config_doc(CONFIGS / "quenched_fair.json"))
    code, res = execute(cfg, None)
    dt = time.monotonic() - t0
    assert code == 0
    assert res.summary.passed
    assert res.summary.passing_replicas >= 9
    worst = max(res.summary.per_replica_tv)
    assert dt < 600.0
    print(f"[criterion 07] PASS: {res.summary.passing_replicas}/10 replicas "
          f"with TV <= 0.05 (worst {worst:.5f}) in {dt:.1f}s")


def test_criterion_08_continued_fraction_quenched():
    t0 = time.monotonic()
    cfg = parse_config(read_config_doc(CONFIGS / "quenched_gauss.json"))
    code, res = execute(cfg, None)
    dt = time.monotonic() - t0
    rep = res.replicas[0]
    sr = rep.sets[0]
    assert code == 0
    assert sr.tv_set <= 0.08
    # words whose index window exceeds the stream cap are excluded and the
    # excluded mass is reported, never silently dropped
    assert sr.truncated_fraction > 0.0
    assert sr.n_used + sr.n_truncated == cfg.n_samples
    assert dt < 900.0
    print(f"[criterion 08] PASS: digit-window TV={sr.tv_set:.5f} <= 0.08, "
          f"truncated_fraction={sr.truncated_fraction:.4f} reported, "
          f"n_used={sr.n_used} in {dt:.1f}s")


def test_criterion_09_dependency_coefficients_exact():
    t0 = time.monotonic()
    chain = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                    (Fraction(1, 5), Fraction(4, 5))))
    eta = eta_coefficients(chain, 30)
    worst = max(abs(float(eta[m - 1]) - 0.7**m) for m in range(1, 31))
    assert worst <= 1e-12
    assert all(eta[m - 1] == Fraction(7, 10)**m for m in range(1, 31))
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"[criterion 09] PASS: lag coefficients match 0.7^m, worst gap "
          f"{worst:.1e} <= 1e-12 in {dt:.2f}s")


def test_criterion_10_dependency_norm_bound():
    t0 = time.monotonic()
    chain = MarkovModel(transition=((Fraction(9, 10), Fraction(1, 10)),
                                    (Fraction(1, 5), Fraction(4, 5))))
    eta = [float(v) for v in eta_coefficients(chain, 30)]
    bound = 1.0 + 2.0 * 1.0 * 0.7 / (1.0 - 0.7)
    norms = []
    prev = 0.0
    for n in (50, 100, 200):
        v = delta_norm(delta_matrix(eta, n))
        assert v >= prev - 1e-9
        assert v <= bound + 1e-9
        prev = v
        norms.append(v)
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"[criterion 10] PASS: norms {', '.join(f'{v:.4f}' for v in norms)} "
          f"non-decreasing and <= {bound:.4f} in {dt:.2f}s")


def test_criterion_11_concentration_non_violation():
    t0 = time.monotonic()
    cfg = parse_config(read_config_doc(CONFIGS / "concentration_fair.json"))
    code, rep = execute(cfg, None)
    dt = time.monotonic() - t0
    assert code == 0
    assert rep.violations == 0
    informative = [r for r in rep.rows if r.theoretical_bound < 1.0]
    assert informative
    for row in informative:
        assert row.empirical_prob <= row.theoretical_bound + 3.0 * row.se
    assert dt < 600.0
    print(f"[criterion 11] PASS: 0 violations over {len(informative)} "
          f"informative thresholds (denominator {rep.denominator}) in {dt:.1f}s")


def test_criterion_12_kallenberg_self_test():
    t0 = time.monotonic()
    sizes = [0.5, 1.0]
    counts = [sample_poisson_counts(s, 5000, 2000 + i) for i, s in enumerate(sizes)]
    rows = [kallenberg_check(c, s, 0.0) for c, s in zip(counts, sizes)]
    assert all(r["condition1"] == "PASS" and r["condition2"] == "PASS" for r in rows)
    degenerate = kallenberg_check(np.zeros(500, dtype=np.int64), 1.0, 0.0)
    assert degenerate["condition2"] == "FAIL"
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"[criterion 12] PASS: synthetic counts pass both conditions, "
          f"all-zero counts fail the void condition in {dt:.2f}s")


def test_criterion_13_determinism(annealed_runs):
    dirs, _ = annealed_runs
    (dir_a, _, _), (dir_b, _, _) = dirs
    doc_a = json.loads((dir_a / "report.json").read_text())
    doc_b = json.loads((dir_b / "report.json").read_text())
    assert doc_a["report"] == doc_b["report"]
    assert (dir_a / "histogram_0.csv").read_bytes() \
        == (dir_b / "histogram_0.csv").read_bytes()
    print("[criterion 13] PASS: repeated runs byte-identical up to timestamps")

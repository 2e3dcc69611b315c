"""Poisson reference laws, distances, and limit-law diagnostics.

Provides the Poisson pmf (log-space, no overflow), the folded count
histograms and their Poisson references, total-variation distances in both
common normalizations, and the two-condition point-process limit check
(expectation bound plus void probability) used by the experiment runners.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import InsufficientDataError

KALLENBERG_MIN_SAMPLES = 100  # samples per set the limit-law check needs


def poisson_pmf(lam: float, j: int) -> float:
    """P(Poisson(lam) = j), exact at the degenerate lam = 0 boundary."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if j < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if j == 0 else 0.0
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))


def histogram_j_max(lam: float) -> int:
    """Report truncation level: 10 + 10*ceil(lam); counts above it fold into
    a single overflow bucket at j_max + 1."""
    return 10 + 10 * math.ceil(lam)


def fold_histogram(counts: np.ndarray, j_max: int) -> dict[int, int]:
    """Frequency table of an integer sample array with values > j_max folded
    into the overflow bucket j_max + 1; only values that occur are keys."""
    if counts.size and counts.min() < 0:
        raise ValueError("counts are nonnegative")
    freq = np.bincount(np.minimum(counts, j_max + 1))
    return {j: c for j, c in enumerate(freq.tolist()) if c}


def poisson_reference(lam: float, j_max: int) -> dict[int, float]:
    """Poisson(lam) folded the same way: exact tail mass in the overflow bucket."""
    ref = {j: poisson_pmf(lam, j) for j in range(j_max + 1)}
    ref[j_max + 1] = max(0.0, 1.0 - math.fsum(ref.values()))
    return ref


def tv_distance(p: Mapping[int, float], q: Mapping[int, float]) -> float:
    """Set-convention total variation (1/2) sum |p_j - q_j| over the union
    support.  The functional convention is exactly twice this value."""
    for name, dist in (("first", p), ("second", q)):
        if any(v < 0 for v in dist.values()):
            raise ValueError(f"{name} distribution has a negative mass")
        if abs(math.fsum(dist.values()) - 1.0) > 1e-9:
            raise ValueError(f"{name} distribution must sum to 1 within 1e-9")
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(j, 0.0) - q.get(j, 0.0)) for j in keys)


def kallenberg_check(counts: np.ndarray, size: float, slack: float) -> dict:
    """Two-condition Poisson-limit diagnostic on the count sample of one
    target set S of length ``size`` = |S|.

    (1) The sample mean must not exceed |S| by more than 3 standard errors
    plus the analytic ``slack``, and (2) the empirical void probability
    P(count = 0) must match e^{-|S|} within 3 binomial standard errors.
    Needs at least ``KALLENBERG_MIN_SAMPLES`` samples.
    """
    arr = np.asarray(counts, dtype=np.float64)
    n = arr.size
    if n < KALLENBERG_MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {KALLENBERG_MIN_SAMPLES} samples per set, got {n}")
    mean = float(arr.mean())
    se_mean = float(arr.std(ddof=1) / math.sqrt(n))
    cond1 = mean <= size + 3.0 * se_mean + slack
    p_void = poisson_pmf(size, 0) if size > 0 else 1.0
    emp_void = float(np.count_nonzero(arr == 0) / n)
    se_void = math.sqrt(p_void * (1.0 - p_void) / n)
    cond2 = abs(emp_void - p_void) <= 3.0 * se_void
    return {
        "set_size": float(size),
        "n": int(n),
        "mean": mean,
        "mean_se": se_mean,
        "mean_slack": float(slack),
        "condition1": "PASS" if cond1 else "FAIL",
        "void_empirical": emp_void,
        "void_target": p_void,
        "void_se": se_void,
        "condition2": "PASS" if cond2 else "FAIL",
    }

"""Poisson count samples for the tests of the limit-law diagnostics."""

import numpy as np

from poissonlab.poisson_stats import poisson_pmf
from poissonlab.rng import uniform_block


def sample_poisson_counts(lam: float, n: int, seed: int) -> np.ndarray:
    """n deterministic Poisson(lam) samples: the inverse CDF of the pmf up to
    j = 20 + 20 (lam + 1) at the counter stream's uniforms for ``seed``."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    j_hi = 20 + 20 * int(lam + 1)
    cum = np.cumsum([poisson_pmf(lam, j) for j in range(j_hi + 1)])
    return np.searchsorted(cum, uniform_block(seed, 0, n), side="right").astype(np.int64)

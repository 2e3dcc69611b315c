"""Independent exact computations used to pin expected values.

Everything here is deliberately separate from the Monte Carlo machinery:
closed-form expectations, per-lag pair decompositions of the second moment,
exhaustive prefix enumeration with exact rational probabilities, an exact
automaton DP for occurrence-count laws at lengths enumeration cannot reach,
and enumeration identities for period classes.  Results are Fractions
whenever the model is rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ResourceError, UnsupportedModelError
from .measures import (GaussCFModel, IidModel, MarkovModel, MixingProfile, Model,
                       contraction_profile, cylinder_prob, cylinder_prob_exact,
                       cylinder_prob_high, mixing_profile)
from .point_process import IndexSet, IntervalUnion, j_set, required_prefix_length
from .words import as_word, enumerate_words, ext, overlap_merge, periods

J_COUNT_GUARD = 10**7
PREFIX_LEN_GUARD = 26
PREFIX_STATES_GUARD = 1 << 26
ANNEALED_ENUM_GUARD = 1 << 20
PERIOD_ENUM_GUARD = 1 << 24


def _exact_mu(model: Model, w):
    if isinstance(model, GaussCFModel):
        return cylinder_prob(model, w)
    return cylinder_prob_exact(model, w)


def _mu_high(model: Model, w):
    return lambda dps: cylinder_prob_high(model, w, dps)


def exact_expectation(model: Model, w: Sequence[int], S: IntervalUnion):
    """E[occurrence count over J] = #J * mu_w, the exact closed form.

    Returns a Fraction for rational models, float for the CF model; 0 for a
    zero-measure word (empty index set by convention).  The value always
    satisfies | E - |S| | <= m * mu_w, which is asserted.
    """
    w = as_word(w)
    mu = _exact_mu(model, w)
    if mu == 0:
        return Fraction(0)
    J = j_set(mu, S, _mu_high(model, w) if isinstance(model, GaussCFModel) else None)
    e = J.count * mu
    size = S.total_length if isinstance(mu, Fraction) else float(S.total_length)
    slack = 0 if isinstance(mu, Fraction) else 1e-9
    if abs(e - size) > S.m * mu + slack:
        raise RuntimeError("index-count sandwich violated; endpoint handling is broken")
    return e


def exact_pair_prob(model: Model, w: Sequence[int], lag: int) -> Fraction:
    """P(w occurs at i and at i+lag), independent of i by stationarity.

    lag < |w|: zero unless lag is a period, else the merged-cylinder
    probability.  lag >= |w|: product formula (iid) or the exact
    transition-power bridge (Markov).
    """
    w = as_word(w)
    k = len(w)
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if isinstance(model, GaussCFModel):
        raise UnsupportedModelError("exact pair probabilities need a rational model")
    if lag < k:
        if lag not in periods(w):
            return Fraction(0)
        return cylinder_prob_exact(model, overlap_merge(w, lag))
    mu = cylinder_prob_exact(model, w)
    if isinstance(model, IidModel):
        return mu * mu
    bridge = model.matrix_power(lag - k + 1)[w[-1]][w[0]]
    return mu * mu * bridge / model.pi[w[0]]


def _npairs_at_lag(ranges: Sequence[tuple[int, int]], lag: int) -> int:
    """#{i : i in J and i+lag in J} for J given as disjoint inclusive ranges."""
    total = 0
    for a1, b1 in ranges:
        for a2, b2 in ranges:
            lo = max(a1, a2 - lag)
            hi = min(b1, b2 - lag)
            if hi >= lo:
                total += hi - lo + 1
    return total


@dataclass(frozen=True)
class VarianceBreakdown:
    """Second-moment decomposition of the occurrence count over J.

    e1: diagonal terms (equals the expectation); e2: ordered pairs at lags
    1..k-1 (periodic overlaps only); e3: ordered pairs at lags >= k.
    """

    expectation: float
    e1: float
    e2: float
    e3: float
    variance: float
    j_count: int

    def __post_init__(self):
        second = self.e1 + self.e2 + self.e3
        if abs(self.variance - (second - self.expectation**2)) > 1e-10 * max(1.0, second):
            raise ValueError("inconsistent decomposition")


def exact_variance(model: Model, w: Sequence[int], S: IntervalUnion) -> VarianceBreakdown:
    """Exact variance of the count over J via per-lag pair counting.

    The double sum over J^2 collapses to one term per lag; lags below |w|
    contribute only at periods of w, lags >= |w| use the pair formula with
    the Markov bridge replaced by its stationary limit once the exact
    deviation falls below 1e-17.
    """
    w = as_word(w)
    k = len(w)
    if isinstance(model, GaussCFModel):
        raise UnsupportedModelError("exact variance needs a rational model")
    mu = cylinder_prob_exact(model, w)
    if mu == 0:
        return VarianceBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    J = j_set(mu, S)
    if J.count > J_COUNT_GUARD:
        raise ResourceError(f"index set of size {J.count} exceeds guard {J_COUNT_GUARD}")
    if J.count == 0:
        return VarianceBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0)

    muf = float(mu)
    n = J.count
    e1 = n * muf
    expectation = e1

    per_lag_near = {}
    for lag in range(1, k):
        per_lag_near[lag] = _npairs_at_lag(J.ranges, lag)
    e2 = 0.0
    for lag in periods(w):
        npairs = per_lag_near[lag]
        if npairs:
            e2 += 2.0 * npairs * float(exact_pair_prob(model, w, lag))

    total_pairs = n * (n - 1) // 2
    far_pairs = total_pairs - sum(per_lag_near.values())
    max_lag = J.max_index() - J.min_index()

    if isinstance(model, IidModel):
        e3 = 2.0 * far_pairs * muf * muf
    else:
        # walk the bridge P^m(w_k, w_1)/pi(w_1) until it is stationary
        pi_w1 = float(model.pi[w[0]])
        P = model._t_floats
        pi_f = model._pi_floats
        power = P.copy()
        e3 = 0.0
        close_pairs = 0
        lag = k
        while lag <= max_lag:
            dev = float(np.max(np.abs(power / pi_f[None, :] - 1.0)))
            npairs = _npairs_at_lag(J.ranges, lag)
            e3 += 2.0 * npairs * muf * muf * float(power[w[-1], w[0]]) / pi_w1
            close_pairs += npairs
            if dev <= 1e-17:
                break
            power = power @ P
            lag += 1
        e3 += 2.0 * (far_pairs - close_pairs) * muf * muf

    variance = e1 + e2 + e3 - expectation**2
    return VarianceBreakdown(expectation, e1, e2, e3, variance, n)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _decode_digits(codes: np.ndarray, s: int, L: int) -> np.ndarray:
    out = np.empty((codes.size, L), dtype=np.int8)
    for pos in range(L):
        out[:, pos] = (codes // s ** (L - 1 - pos)) % s
    return out


def _occurrence_counts(digits: np.ndarray, w, starts: np.ndarray) -> np.ndarray:
    k = len(w)
    counts = np.zeros(digits.shape[0], dtype=np.int64)
    for i in starts:
        hit = np.ones(digits.shape[0], dtype=bool)
        for j in range(k):
            hit &= digits[:, i - 1 + j] == w[j]
        counts += hit
    return counts


def brute_force_distribution(model: Model, w: Sequence[int],
                             S: IntervalUnion) -> dict[int, Fraction]:
    """Exact law of the count over J by enumerating every prefix.

    Enumerates all alphabet^L prefixes of the required length L with their
    exact rational probabilities (grouped by sufficient statistics, so the
    rational arithmetic touches only distinct probability values).  Guards:
    L <= 26 and alphabet^L <= 2^26; finite-alphabet rational models only.
    """
    w = as_word(w)
    k = len(w)
    if isinstance(model, GaussCFModel) or model.alphabet_size is None:
        raise UnsupportedModelError("enumeration needs a finite alphabet")
    s = model.alphabet_size
    mu = cylinder_prob_exact(model, w)
    if mu == 0:
        return {0: Fraction(1)}
    J = j_set(mu, S)
    if J.is_empty():
        return {0: Fraction(1)}
    L = required_prefix_length(k, J)
    if L > PREFIX_LEN_GUARD:
        raise ResourceError(f"required prefix length {L} exceeds guard {PREFIX_LEN_GUARD}")
    if s**L > PREFIX_STATES_GUARD:
        raise ResourceError(f"{s}**{L} prefixes exceed guard {PREFIX_STATES_GUARD}")
    starts = J.indices()
    j_cap = len(starts)

    uniform = isinstance(model, IidModel) and len(set(model.probs)) == 1
    dist: dict[int, Fraction] = {}
    agg: dict[int, int] = {}
    chunk = 1 << 20
    total_codes = s**L
    for start_code in range(0, total_codes, chunk):
        codes = np.arange(start_code, min(start_code + chunk, total_codes), dtype=np.int64)
        digits = _decode_digits(codes, s, L)
        counts = _occurrence_counts(digits, w, starts)
        if uniform:
            vals, freqs = np.unique(counts, return_counts=True)
            for v, f in zip(vals, freqs):
                agg[int(v)] = agg.get(int(v), 0) + int(f)
            continue
        if isinstance(model, IidModel):
            key = np.zeros(codes.size, dtype=np.int64)
            base = 1
            for a in range(s):
                key += base * np.count_nonzero(digits == a, axis=1)
                base *= L + 1
        else:
            if (L + 1) ** (s * s) * s >= 1 << 63:
                raise ResourceError("Markov enumeration key would overflow; reduce L or s")
            key = np.zeros(codes.size, dtype=np.int64)
            base = 1
            left = digits[:, :-1]
            right = digits[:, 1:]
            for a in range(s):
                for b in range(s):
                    key += base * np.count_nonzero((left == a) & (right == b), axis=1)
                    base *= L + 1
            key = key * s + digits[:, 0]
        combined = key * (j_cap + 1) + counts
        vals, freqs = np.unique(combined, return_counts=True)
        for v, f in zip(vals, freqs):
            agg[int(v)] = agg.get(int(v), 0) + int(f)

    if uniform:
        p_prefix = model.probs[0] ** L
        for v, f in agg.items():
            dist[v] = dist.get(v, Fraction(0)) + f * p_prefix
    else:
        for combined, f in agg.items():
            key, j = divmod(combined, j_cap + 1)
            if isinstance(model, IidModel):
                prob = Fraction(1)
                for a in range(s):
                    key, n_a = divmod(key, L + 1)
                    prob *= model.symbol_prob(a) ** n_a
            else:
                key, first = divmod(key, s)
                prob = model.pi[first]
                for a in range(s):
                    for b in range(s):
                        key, n_ab = key // (L + 1), key % (L + 1)
                        prob *= model.transition[a][b] ** n_ab
            dist[j] = dist.get(j, Fraction(0)) + f * prob

    if sum(dist.values()) != 1:
        raise RuntimeError("enumeration lost mass; grouping is broken")
    return dict(sorted(dist.items()))


# ---------------------------------------------------------------------------
# automaton DP for lengths enumeration cannot reach


def _kmp_automaton(w) -> tuple[np.ndarray, int]:
    k = len(w)
    fail = [0] * k
    t = 0
    for i in range(1, k):
        while t and w[i] != w[t]:
            t = fail[t - 1]
        if w[i] == w[t]:
            t += 1
        fail[i] = t
    alphabet = max(w) + 1
    delta = np.zeros((k, alphabet), dtype=np.int64)
    for state in range(k):
        for a in range(alphabet):
            t = state
            while t and w[t] != a:
                t = fail[t - 1]
            delta[state, a] = t + 1 if w[t] == a else 0
    return delta, fail[k - 1]


def dp_count_distribution(model: IidModel, w: Sequence[int], S: IntervalUnion,
                          count_cap: int | None = None) -> dict[int, float]:
    """Exact (up to float rounding) law of the count over J via automaton DP.

    Scales linearly in the prefix length, so it reaches regimes the
    enumeration oracle cannot; cross-validated against
    ``brute_force_distribution`` where both run.  Finite iid models only.
    Counts above the cap are folded into the bucket cap+1 (their mass is
    negligible by construction of the default cap).
    """
    w = as_word(w)
    k = len(w)
    if not isinstance(model, IidModel) or model.probs is None:
        raise UnsupportedModelError("the DP path supports finite iid models")
    if any(sym >= len(model.probs) for sym in w):
        raise ValueError("symbol outside the model alphabet")
    mu = cylinder_prob_exact(model, w)
    if mu == 0:
        return {0: 1.0}
    J = j_set(mu, S)
    if J.is_empty():
        return {0: 1.0}
    L = required_prefix_length(k, J)
    lam = J.count * float(mu)
    if count_cap is None:
        count_cap = min(J.count, int(math.ceil(lam + 12.0 * math.sqrt(lam + 1.0))) + 20)
    cap = count_cap

    delta, reduce_state = _kmp_automaton(w)
    probs = model._floats
    s = len(probs)
    counted = np.zeros(L + 1, dtype=bool)
    for a, b in J.ranges:
        counted[a: b + 1] = True

    # dp[state, c] = P(automaton state, c counted occurrences so far)
    dp = np.zeros((k, cap + 2), dtype=np.float64)
    dp[0, 0] = 1.0
    for t in range(1, L + 1):
        new = np.zeros_like(dp)
        start = t - k + 1
        scores = start >= 1 and counted[start]
        for state in range(k):
            row = dp[state]
            if not row.any():
                continue
            for a in range(s):
                nxt = delta[state, a]
                pa = probs[a]
                if nxt == k:
                    if scores:
                        new[reduce_state, 1:] += pa * row[:-1]
                        new[reduce_state, cap + 1] += pa * row[cap + 1]
                    else:
                        new[reduce_state] += pa * row
                else:
                    new[nxt] += pa * row
        dp = new
    mass = dp.sum(axis=0)
    return {j: float(mass[j]) for j in range(cap + 2) if mass[j] > 0.0}


# ---------------------------------------------------------------------------
# enumeration identities and majorants


def period_class_measure(model: Model, k: int, ell: int) -> Fraction:
    """Total measure of length-k words having period ell, by enumerating the
    alphabet^ell generating prefixes and extending periodically."""
    if not 1 <= ell < k:
        raise ValueError("need 1 <= ell < k")
    if isinstance(model, GaussCFModel) or model.alphabet_size is None:
        raise UnsupportedModelError("period classes need a finite alphabet")
    s = model.alphabet_size
    if s**k > PERIOD_ENUM_GUARD:
        raise ResourceError(f"{s}**{k} exceeds period-class guard {PERIOD_ENUM_GUARD}")
    total = Fraction(0)
    for v in enumerate_words(s, ell):
        total += cylinder_prob_exact(model, ext(v, k))
    return total


def annealed_exact_expectation(model: Model, k: int, S: IntervalUnion) -> Fraction:
    """sum_w mu(w) * E_w over all length-k words (finite alphabet).

    Certifies |result - |S|| <= m * K * rho^k using the contraction profile.
    """
    if isinstance(model, GaussCFModel) or model.alphabet_size is None:
        raise UnsupportedModelError("annealed enumeration needs a finite alphabet")
    s = model.alphabet_size
    if s**k > ANNEALED_ENUM_GUARD:
        raise ResourceError(f"{s}**{k} exceeds annealed guard {ANNEALED_ENUM_GUARD}")
    total = Fraction(0)
    for w in enumerate_words(s, k):
        mu = cylinder_prob_exact(model, w)
        if mu == 0:
            continue
        J = j_set(mu, S)
        total += mu * (J.count * mu)
    prof = contraction_profile(model)
    bound = S.m * prof.K * prof.rho**k
    if abs(float(total - S.total_length)) > bound * (1 + 1e-12) + 1e-15:
        raise RuntimeError("annealed expectation drifted outside the sandwich bound")
    return total


def log_n_over_n_bound(k: int, S: IntervalUnion, profile: MixingProfile) -> float | None:
    """Majorant ln(y)/y with y = |S|/(2 K rho^k); None when y < 3 (k too
    small for the majorant to be monotone)."""
    if profile.K is None or profile.rho is None:
        raise ValueError("profile must carry contraction constants")
    size = float(S.total_length)
    if size <= 0:
        raise ValueError("S must have positive total length")
    y = size / (2.0 * profile.K * profile.rho**k)
    if y < 3.0:
        return None
    return math.log(y) / y

"""Independent exact computations used to pin expected values.

Everything here is deliberately separate from the Monte Carlo machinery:
closed-form expectations, per-lag pair decompositions of the second moment,
exhaustive prefix enumeration with exact rational probabilities, an exact
automaton DP for occurrence-count laws at lengths enumeration cannot reach,
and enumeration identities for period classes.  Results are Fractions
whenever the model is rational.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InternalCheckError, ResourceError, UnsupportedModelError
from .measures import (GaussCFModel, IidModel, MarkovModel, MixingProfile, Model,
                       contraction_profile, cylinder_prob_exact,
                       cylinder_prob_guarded)
from .point_process import IntervalUnion, j_set, required_prefix_length
from .words import as_word, enumerate_words, ext, overlap_merge, periods

J_COUNT_GUARD = 10**7
PREFIX_LEN_GUARD = 26
PREFIX_STATES_GUARD = 1 << 26
ANNEALED_ENUM_GUARD = 1 << 20
PERIOD_ENUM_GUARD = 1 << 24
DP_WORK_GUARD = 1 << 21  # prefix length x automaton states x symbols
_BLOCK_CODES = 1 << 16  # prefixes in the low block of the enumeration


def exact_expectation(model: Model, w: Sequence[int], S: IntervalUnion):
    """E[occurrence count over J] = #J * mu_w, the exact closed form.

    Returns a Fraction for rational models, float for the CF model; 0 for a
    zero-measure word (empty index set by convention).  The value always
    satisfies | E - |S| | <= m * mu_w, which is checked.
    """
    mu, mu_high = cylinder_prob_guarded(model, as_word(w))
    return measure_expectation(mu, S, mu_high)


def measure_expectation(mu, S: IntervalUnion, mu_high=None):
    """``exact_expectation`` of every word of measure ``mu`` (with ``mu_high``
    as ``cylinder_prob_guarded`` gives it), with the same sandwich check."""
    if mu == 0:
        return Fraction(0)
    J = j_set(mu, S, mu_high)
    e = J.count * mu
    size = S.total_length if isinstance(mu, Fraction) else float(S.total_length)
    slack = 0 if isinstance(mu, Fraction) else 1e-9
    if abs(e - size) > S.m * mu + slack:
        raise InternalCheckError("index-count sandwich violated; endpoint handling is broken")
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


def _code(u: Sequence[int], s: int) -> int:
    """The base-s number whose digits, most significant first, are ``u``."""
    code = 0
    for sym in u:
        code = code * s + sym
    return code


def _sum_by_key(keys: list[np.ndarray], freqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the concatenated ``keys`` and, for each, the
    sum of the ``freqs`` at its places."""
    vals, where = np.unique(np.concatenate(keys), return_inverse=True)
    summed = np.zeros(len(vals), dtype=np.int64)
    np.add.at(summed, where, np.concatenate(freqs))
    return vals, summed


def brute_force_distribution(model: Model, w: Sequence[int],
                             S: IntervalUnion) -> dict[int, Fraction]:
    """Exact law of the count over J by enumerating every prefix.

    Enumerates all alphabet^L prefixes of the required length L with their
    exact rational probabilities, grouped by sufficient statistics (symbol
    counts, or first symbol and transition counts) so the rational
    arithmetic touches only distinct probability values.  Each prefix is a
    high part (the first L - b positions) followed by a low block of the
    last b positions, b the largest with alphabet^b <= 2^16, so the block
    stays cache-sized.  A low block is coded by its symbols as
    base-alphabet digits, most significant first, so the blocks that spell
    a word at given positions form a strided view of the code range, and a
    window straddling the split spells its tail in one contiguous slice of
    it.

    A prefix's key is ``stat * (j_cap + 1) + j``, with j its count over
    the ``j_cap`` positions of J and ``stat`` the sum of ``lead[first]``
    over its first symbol and ``pair[a][c]`` over its adjacent pairs
    (a, c).  For an i.i.d. model ``pair[a][c] = (L + 1)^c`` and
    ``lead[a] = (L + 1)^a``, so ``stat`` has one base-(L + 1) digit per
    symbol count; for a chain ``pair[a][c] = s * (L + 1)^(a * s + c)`` and
    ``lead[a] = a``, so ``stat`` is the first symbol plus s times one
    base-(L + 1) digit per transition count.  Keys are int32 when every
    key is below 2^31, else int64.

    The low block's part of the key, its scaled ``stat`` plus its inner
    window counts, is built once per call.  The code range is cut at every
    leading digit (row) and every straddling slice's edges; a high part
    adds one constant to every code of such a segment (its own pairs, its
    first symbol, the pair across the split and the straddling windows it
    completes), so each segment is grouped with ``np.unique`` once per
    call and a high part only shifts the few distinct group keys.  The
    (key, weight) pairs are summed with ``np.unique`` and ``np.add.at``
    whenever more than one block of them is pending.
    Guards: L <= 26 and alphabet^L <= 2^26; finite-alphabet rational
    models only.
    """
    w = as_word(w)
    k = len(w)
    if model.alphabet_size is None:
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
    markov = isinstance(model, MarkovModel)
    # pair[a][c]: what an adjacent pair (a, c) adds to a prefix's statistic;
    # lead[a]: what its first symbol a adds
    if markov:
        pair = [[s * (L + 1) ** (a * s + c) for c in range(s)] for a in range(s)]
        lead = list(range(s))
        key_range = (L + 1) ** (s * s) * s
    else:
        pair = [[(L + 1) ** c for c in range(s)] for _ in range(s)]
        lead = [(L + 1) ** a for a in range(s)]
        key_range = (L + 1) ** s
    if key_range * (j_cap + 1) >= 1 << 63:
        raise ResourceError("enumeration key would overflow; reduce L or s")
    kdt = np.int32 if key_range * (j_cap + 1) < 1 << 31 else np.int64

    b = 0
    while b < L and s ** (b + 1) <= _BLOCK_CODES:
        b += 1
    h = L - b
    # the low block's statistic is built by prepending one position at a time
    # to the statistics of the positions after it, then scaled to its place;
    # adding its inner window counts gives the block's fixed part of the key
    step = j_cap + 1
    weights = np.array(pair, dtype=kdt)
    key_low = np.zeros(s ** min(b, 1), dtype=kdt)
    for _ in range(b - 1):
        key_low = (weights[:, :, None] + key_low.reshape(s, -1)).ravel()
    key_low *= step
    # low block c holds at its position q the q-th most significant base-s
    # digit of c: the blocks spelling w from q are the column code(w) of the
    # (s^q, s^k, rest) view, and those spelling a tail of w from 0 one slice
    high_windows = []  # (f, slice of the blocks spelling w[h - f:])
    for f in (int(i) - 1 for i in starts):
        if f >= h:
            key_low.reshape(s ** (f - h), s**k, -1)[:, _code(w, s)] += 1
        else:
            # a window starting at 0-based position f < h counts when the high
            # part spells w[:h - f] from f and the low block the rest of w
            tail = w[h - f:]
            width = s ** (b - len(tail))
            code = _code(tail, s)
            high_windows.append((f, slice(code * width, (code + 1) * width)))

    # a high part adds one constant to every code of a segment: segments end
    # at each leading digit's row (the whole block is one row without a low
    # block) and at each straddling slice's edges, so each is grouped once
    n_low = s**b
    row = n_low // s if b else 1
    edges = sorted({0, n_low, *range(row, n_low, row),
                    *(e for _, hits in high_windows for e in (hits.start, hits.stop))})
    segs = list(zip(edges, edges[1:]))
    groups = [np.unique(key_low[lo:hi], return_counts=True) for lo, hi in segs]
    group_keys = np.concatenate([g for g, _ in groups])
    group_freqs = np.concatenate([f for _, f in groups])
    group_seg = np.repeat(np.arange(len(segs)), [len(g) for g, _ in groups])
    seg_row = np.array([lo // row for lo, _ in segs])
    in_slice = [np.array([hits.start <= lo and hi <= hits.stop for lo, hi in segs], dtype=kdt)
                for _, hits in high_windows]

    keys, freqs, pending = [], [], 0
    for high in itertools.product(range(s), repeat=h):
        # per leading digit a: the high part's own pairs, the pair across the
        # split and the first symbol
        inner = sum(pair[a][c] for a, c in zip(high, high[1:]))
        per_row = [(inner + (pair[high[-1]][a] if h and b else 0) + lead[high[0] if h else a])
                   * step for a in range(s if b else 1)]
        const = np.array(per_row, dtype=kdt)[seg_row]
        for (f, _), inside in zip(high_windows, in_slice):
            if high[f: f + k] == w[: h - f]:
                const += inside
        keys.append(group_keys + const[group_seg])
        freqs.append(group_freqs)
        pending += len(group_keys)
        if pending > n_low:
            vals, summed = _sum_by_key(keys, freqs)
            keys, freqs, pending = [vals], [summed], 0
    keys, freqs = _sum_by_key(keys, freqs)

    # integer weights over one common denominator: each probability is
    # scaled by the lcm of the denominators of its kind
    if markov:
        probs = [model.transition[a][c] for a in range(s) for c in range(s)]
        head_scale = math.lcm(*(p.denominator for p in model.pi))
        heads = [int(p * head_scale) for p in model.pi]
    else:
        probs = [model.symbol_prob(a) for a in range(s)]
    scale = math.lcm(*(p.denominator for p in probs))
    powers = [[int(p * scale) ** n for n in range(L + 1)] for p in probs]
    totals: dict[int, int] = {}
    for combined, f in zip(keys.tolist(), freqs.tolist()):
        key, j = divmod(combined, j_cap + 1)
        if markov:
            key, first = divmod(key, s)
            f *= heads[first]
        for pw in powers:
            key, n = divmod(key, L + 1)
            f *= pw[n]
        totals[j] = totals.get(j, 0) + f
    denom = scale ** (L - 1) * head_scale if markov else scale**L
    dist = {j: Fraction(t, denom) for j, t in totals.items()}

    if sum(dist.values()) != 1:
        raise InternalCheckError("enumeration lost mass; grouping is broken")
    return dict(sorted(dist.items()))


# ---------------------------------------------------------------------------
# automaton DP for lengths enumeration cannot reach


def _kmp_automaton(w, probs) -> tuple[np.ndarray, int]:
    """The transfer matrix of the KMP automaton of ``w`` (state = matched
    prefix length, k on a full match) under the i.i.d. symbol law
    ``probs``: ``step[nxt, state]`` is the probability of moving from
    ``state`` < k to ``nxt``, so row k holds the probabilities of completing
    w; and the state a completed match falls back to."""
    k = len(w)
    fail = [0] * k
    t = 0
    for i in range(1, k):
        while t and w[i] != w[t]:
            t = fail[t - 1]
        if w[i] == w[t]:
            t += 1
        fail[i] = t
    step = np.zeros((k + 1, k))
    for state in range(k):
        for a, p in enumerate(probs):
            t = state
            while t and w[t] != a:
                t = fail[t - 1]
            step[t + 1 if w[t] == a else 0, state] += p
    return step, fail[k - 1]


def dp_count_distribution(model: IidModel, w: Sequence[int],
                          S: IntervalUnion) -> dict[int, float]:
    """Exact (up to float rounding) law of the count over J via automaton DP.

    ``dp[state, c]`` is the probability of the KMP automaton state (matched
    prefix length) with c counted occurrences so far.  Each prefix position
    is one product with the automaton's transfer matrix (``_kmp_automaton``):
    the mass that completes w (row k of the product) falls back to one
    state, one count up when the window ending there starts in J.  So the
    work is linear in the prefix length, and the DP reaches regimes the
    enumeration oracle cannot; cross-validated against
    ``brute_force_distribution`` where both run.  Finite iid models only.
    Counts above the cap lam + 12 sqrt(lam + 1) + 20 are folded into the
    bucket cap+1 (their mass is negligible by construction of the cap).
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
    s = len(model.probs)
    if L * k * s > DP_WORK_GUARD:
        raise ResourceError(f"automaton DP of {L} steps x {k} states x {s} symbols "
                            f"exceeds guard {DP_WORK_GUARD}")
    lam = J.count * float(mu)
    cap = min(J.count, int(math.ceil(lam + 12.0 * math.sqrt(lam + 1.0))) + 20)
    step, back = _kmp_automaton(w, model._floats)
    counted = np.zeros(L + 1, dtype=bool)
    for a, b in J.ranges:
        counted[a: b + 1] = True

    dp = np.zeros((k, cap + 2))
    dp[0, 0] = 1.0
    for t in range(1, L + 1):
        moved = step @ dp
        dp, hit = moved[:k], moved[k]
        if t >= k and counted[t - k + 1]:  # the window ending at t starts in J
            dp[back, 1:] += hit[:-1]
            dp[back, cap + 1] += hit[cap + 1]
        else:
            dp[back] += hit
    mass = dp.sum(axis=0)
    return {j: float(mass[j]) for j in range(cap + 2) if mass[j] > 0.0}


# ---------------------------------------------------------------------------
# enumeration identities and majorants


def period_class_measure(model: Model, k: int, ell: int) -> Fraction:
    """Total measure of length-k words having period ell, by enumerating the
    alphabet^ell generating prefixes and extending periodically."""
    if not 1 <= ell < k:
        raise ValueError("need 1 <= ell < k")
    if model.alphabet_size is None:
        raise UnsupportedModelError("period classes need a finite alphabet")
    s = model.alphabet_size
    if s**k > PERIOD_ENUM_GUARD:
        raise ResourceError(f"{s}**{k} exceeds period-class guard {PERIOD_ENUM_GUARD}")
    total = Fraction(0)
    for v in enumerate_words(s, ell):
        total += cylinder_prob_exact(model, ext(v, k))
    return total


def measure_counts(model: Model, k: int) -> Counter:
    """How many length-k words have each positive cylinder measure, as a
    ``Counter`` {measure: words} (finite-alphabet rational models).

    Built one position at a time over the distinct (last symbol, measure)
    pairs (one pair per measure under an i.i.d. law), so its work and memory
    grow with the distinct measures, not with alphabet**k; the measures are
    the exact products ``cylinder_prob_exact`` forms.
    """
    if model.alphabet_size is None:
        raise UnsupportedModelError("measure counts need a finite alphabet")
    markov = isinstance(model, MarkovModel)
    # the symbol laws a word's next symbol is drawn from, by its last symbol
    # (-1 before the first)
    laws = ({-1: model.pi, **dict(enumerate(model.transition))} if markov
            else {-1: [model.symbol_prob(a) for a in range(model.alphabet_size)]})
    level = Counter({(-1, Fraction(1)): 1})
    for _ in range(k):
        grown = Counter()
        for (last, mu), n in level.items():
            for a, p in enumerate(laws[last]):
                if p:
                    grown[a if markov else -1, mu * p] += n
        level = grown
    counts = Counter()
    for (_, mu), n in level.items():
        counts[mu] += n
    return counts


def annealed_exact_expectation(model: Model, k: int, S: IntervalUnion) -> Fraction:
    """sum_w mu(w) * E_w over all length-k words (finite alphabet), one
    index set per distinct measure of ``measure_counts(model, k)``.

    Certifies |result - |S|| <= m * K * rho^k using the contraction profile.
    """
    if model.alphabet_size is None:
        raise UnsupportedModelError("annealed enumeration needs a finite alphabet")
    s = model.alphabet_size
    if s**k > ANNEALED_ENUM_GUARD:
        raise ResourceError(f"{s}**{k} exceeds annealed guard {ANNEALED_ENUM_GUARD}")
    total = sum((n * mu * (j_set(mu, S).count * mu) for mu, n in measure_counts(model, k).items()),
                Fraction(0))
    prof = contraction_profile(model)
    bound = S.m * prof.K * prof.rho**k
    if abs(float(total - S.total_length)) > bound * (1 + 1e-12) + 1e-15:
        raise InternalCheckError("annealed expectation drifted outside the sandwich bound")
    return total


def log_n_over_n_bound(k: int, S: IntervalUnion, profile: MixingProfile) -> float | None:
    """Majorant ln(y)/y with y = |S|/(2 K rho^k); None when y < 3 (k too
    small for the majorant to be monotone, or S of zero length)."""
    if profile.K is None or profile.rho is None:
        raise ValueError("profile must carry contraction constants")
    y = float(S.total_length) / (2.0 * profile.K * profile.rho**k)
    if y < 3.0:
        return None
    return math.log(y) / y

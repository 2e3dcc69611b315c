"""Mixing coefficients, the dependency matrix, and concentration machinery.

Covers: exact per-lag mixing coefficients for Markov chains, the
upper-triangular dependency matrix and its operator norm (power iteration
plus the closed-form majorant), the closed-form norms of the Lipschitz
weights, the word plans and the occurrence index that count many words in
one stream, and the two scanned functionals phi_k_S and phi_k_j_S whose
deviations the concentration mode checks against the analytic bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, InternalCheckError, ResourceError, UnsupportedModelError
from .measures import (GaussCFModel, IidModel, MarkovModel, MixingProfile, Model,
                       cylinder_prob_guarded, gauss_cylinder_prob)
from .point_process import IndexSet, IntervalUnion, j_set, required_prefix_length
from .words import enumerate_words

DELTA_NORM_MATRIX_CAP = 2000
MAX_LAG_CAP = 1000  # exact rational powers grow by about a digit per lag
PHI2_EXACT_CAP = 1 << 16
RANGE_CELLS_CAP = 1 << 22  # words x index ranges of one count_in_ranges call
HASH_MULT = np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)


# ---------------------------------------------------------------------------
# mixing coefficients and the dependency matrix


def _extend_lags(lags: Sequence[float], need: int) -> np.ndarray:
    """Extend a lag vector to length ``need`` by a geometric tail."""
    lags = np.asarray(lags, dtype=np.float64)
    if len(lags) >= need:
        return lags[:need]
    if len(lags) == 0 or lags[-1] == 0.0:
        return np.concatenate([lags, np.zeros(need - len(lags))])
    if len(lags) >= 2 and lags[-2] > 0.0:
        r = min(max(lags[-1] / lags[-2], 0.0), 1.0 - 1e-12)
    else:
        r = min(lags[-1], 1.0 - 1e-12)
    tail = lags[-1] * r ** np.arange(1, need - len(lags) + 1)
    return np.concatenate([lags, tail])


def eta_coefficients(model: Model, max_lag: int) -> tuple[Fraction, ...]:
    """Exact per-lag coefficients of a Markov chain, lags 1..max_lag.

    lag m value: max over state pairs (a, a') of half the L1 distance
    between rows a and a' of the m-step transition matrix (the maximal
    coupling identity).  Exact rational matrix powers, no float error.
    """
    if not isinstance(model, MarkovModel):
        raise UnsupportedModelError("exact lag coefficients exist for Markov models only")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    s = model.alphabet_size
    return tuple(max(sum(abs(P[a][b] - P[a2][b]) for b in range(s)) / 2
                     for a in range(s) for a2 in range(a + 1, s))
                 for P in map(model.matrix_power, range(1, max_lag + 1)))


def delta_matrix(lags: Sequence[float], n: int) -> np.ndarray:
    """Unit-diagonal upper-triangular dependency matrix of dimension n whose
    (i, i + m) entry is lag m, the lags extended by their geometric tail."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    lags = _extend_lags(lags, n - 1)
    out = np.eye(n)
    for m in range(1, n):
        idx = np.arange(n - m)
        out[idx, idx + m] = lags[m - 1]
    return out


def delta_norm(delta: np.ndarray) -> float:
    """Largest singular value by power iteration on the Gram matrix, to a
    relative tolerance of 1e-10 on its square."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValueError("need a square matrix")
    n = delta.shape[0]
    gram = delta.T @ delta
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for _ in range(10**5):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_lam = float(v @ (gram @ v))
        if abs(new_lam - lam) <= 1e-10 * max(new_lam, 1e-300):
            return math.sqrt(new_lam)
        lam = new_lam
    raise InternalCheckError("power iteration did not converge within 1e5 iterations")


def delta_norm_bound(profile: MixingProfile) -> float:
    """Closed-form majorant 1 + 2*T*sigma/(1 - sigma) of the operator norm."""
    if profile.T is None or profile.sigma is None:
        raise ValueError("profile must carry (T, sigma)")
    if not 0.0 <= profile.sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    return 1.0 + 2.0 * profile.T * profile.sigma / (1.0 - profile.sigma)


# ---------------------------------------------------------------------------
# Lipschitz weights


def _hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum over n >= 0 of (n + q)**-s."""
    import mpmath  # only the weight norms need it

    return float(mpmath.zeta(s, q))


def _weights(k: int, S: IntervalUnion, profile: MixingProfile, factor: float,
             bound_poly: float) -> tuple[float, float]:
    """``(norm_sq, bound)`` of the weights c_i = factor * min(K rho^k, sup S / i):
    the squared norm of the whole series (flat head in closed form, tail via
    the Hurwitz zeta) and the analytic majorant it is checked against."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if profile.K is None or profile.rho is None:
        raise ValueError("profile must carry contraction constants")
    sup = float(S.sup)
    cap = profile.K * profile.rho**k
    if sup == 0.0 or cap == 0.0:
        norm_sq = 0.0
    else:
        crossover = int(math.floor(sup / cap))
        tail = _hurwitz_zeta(2, crossover + 1)  # about 1/crossover, so sup * tail is small
        norm_sq = factor**2 * (crossover * cap**2 + sup * (sup * tail))
    # the analytic majorant needs max(K,1): for K < 1 the flat head alone
    # already exceeds the K**2 form
    k_eff = max(profile.K, 1.0) ** 2
    bound = bound_poly * sup * k_eff * profile.rho**k
    if norm_sq > bound * (1.0 + 1e-9):
        raise InternalCheckError("weight norm exceeded its analytic majorant")
    return norm_sq, bound


def lipschitz_weights_phi1(k: int, S: IntervalUnion,
                           profile: MixingProfile) -> tuple[float, float]:
    """Weights of the measure-weighted window scan; factor 2k^2."""
    return _weights(k, S, profile, 2.0 * k * k, 8.0 * k**4)


def lipschitz_weights_phi2(k: int, S: IntervalUnion,
                           profile: MixingProfile) -> tuple[float, float]:
    """Weights of the level-set mass functional; factor 2k."""
    return _weights(k, S, profile, 2.0 * k, 8.0 * k**2)


# ---------------------------------------------------------------------------
# word plans and the occurrence index


@dataclass
class _WordPlan:
    """Index sets per target set for one word, plus the prefix demand."""

    js: tuple[IndexSet, ...]
    need: int


def _plan_words(model: Model, words: np.ndarray, sets: Sequence[IntervalUnion],
                k: int) -> tuple[np.ndarray, list[_WordPlan]]:
    """Each word's plan index and the distinct plans.

    Words with equal cylinder measures share one plan.  Under an i.i.d.
    model the measure depends only on the symbol counts, so words are keyed
    by their sorted symbols; otherwise by the word itself.
    """
    keys = np.sort(words, axis=1) if isinstance(model, IidModel) else words
    first, plan_of = _distinct_rows(keys)
    plans = []
    for i in first:
        mu, high = cylinder_prob_guarded(model, words[i].tolist())
        js = tuple(j_set(mu, S, high) for S in sets)
        plans.append(_WordPlan(js, max((required_prefix_length(k, J) for J in js),
                                       default=0)))
    return plan_of, plans


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, axis=0, return_index=True, return_inverse=True)[1:]``:
    the first index of each distinct row, in lexicographic row order, and each
    row's position in that order, from one stable lexsort of the columns."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _check_range_cells(n_words: int, js: Sequence[IndexSet]) -> None:
    """Refuse, before it is built, an (n_words, m, 2) ranges array past
    RANGE_CELLS_CAP words x ranges, m the most ranges of one set in ``js``."""
    m = max((len(J.ranges) for J in js), default=0)
    if n_words * m > RANGE_CELLS_CAP:
        raise ResourceError(f"{n_words} words x {m} index ranges is over the cap of "
                            f"{RANGE_CELLS_CAP}; reduce n_samples or the intervals of S")


def _ranges_array(js: Sequence[IndexSet]) -> np.ndarray:
    """The (len(js), m, 2) array of each index set's ranges, padded with the
    empty range (1, 0); the sets must be clipped to int64 indices."""
    m = max((len(J.ranges) for J in js), default=0)
    return np.array([list(J.ranges) + [(1, 0)] * (m - len(J.ranges)) for J in js],
                    dtype=np.int64).reshape(len(js), m, 2)


class OccurrenceIndex:
    """The length-k windows of a symbol array, hashed for word lookups.

    Every window is keyed once by a wraparound polynomial hash.  A lookup
    hashes its distinct words into a small sorted table, takes the windows
    whose hash is in the table and checks each against its word symbol by
    symbol, so counts are exact even where hashes collide.  Only these hits
    are sorted, by the key slot * n_win + start, so the count of a word's
    windows over a range of starts is two binary searches.
    """

    def __init__(self, x: np.ndarray, k: int):
        x = np.asarray(x, dtype=np.int64)
        if k < 1 or len(x) < k:
            raise ValueError("need k >= 1 and len(x) >= k")
        self.x = x
        self.k = k
        n_win = len(x) - k + 1
        xu = x.view(np.uint64)
        self._hashes = np.zeros(n_win, dtype=np.uint64)
        with np.errstate(over="ignore"):  # wraparound is the hash
            for j in range(k):
                self._hashes *= HASH_MULT
                self._hashes += xu[j: j + n_win]
        self._powers = np.array([pow(int(HASH_MULT), k - 1 - j, 1 << 64)
                                 for j in range(k)], dtype=np.uint64)

    def _hits(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's slot in the table of the distinct rows of the (n, k)
        ``words``, and the sorted keys slot * n_win + start (0-based) of the
        windows equal to a row."""
        hashes = words.astype(np.uint64) @ self._powers  # wraps like the hash
        table, first, slot = np.unique(hashes, return_index=True, return_inverse=True)
        if (words[first[slot]] != words).any():  # two distinct words share a hash
            first, slot = _distinct_rows(words)
            order = np.argsort(hashes[first], kind="stable")
            first, slot = first[order], np.argsort(order)[slot]
            table = hashes[first]
        if not len(table):
            return slot, np.zeros(0, dtype=np.int64)
        h = self._hashes
        at = np.searchsorted(table, h)
        np.minimum(at, len(table) - 1, out=at)  # a hash past the table matches no slot
        cand = np.flatnonzero(table[at] == h)
        at = at[cand]
        table_words = words[first]
        keys = [np.zeros(0, dtype=np.int64)]
        while len(cand):
            ok = np.ones(len(cand), dtype=bool)
            for j in range(self.k):
                ok &= self.x[cand + j] == table_words[at, j]
            keys.append(at[ok] * len(h) + cand[ok])
            # under a hash collision the window's word may sit in a later slot
            cand, at = cand[~ok], at[~ok] + 1
            more = at < len(table)
            cand, at = cand[more], at[more]
            more = table[at] == h[cand]
            cand, at = cand[more], at[more]
        return slot, np.sort(np.concatenate(keys))

    def count_in_ranges(self, words: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        """Occurrences of each word at the 1-indexed starts in its ranges.

        ``words`` is an (n, k) array, one word per row, and ``ranges`` the
        (n, m, 2) array of each word's inclusive (a, b) pairs; a pair with
        b < a is empty.  Returns the (n,) int64 array of counts.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.k:
            raise ValueError("words must be an (n, k) array")
        if ranges.ndim != 3 or ranges.shape[0] != len(words) or ranges.shape[2] != 2:
            raise ValueError("ranges must be an (n, m, 2) array")
        slot, keys = self._hits(words)
        n_win = len(self._hashes)
        lo = np.clip(ranges[:, :, 0] - 1, 0, n_win)
        hi = np.clip(ranges[:, :, 1], lo, n_win)
        base = (slot * n_win)[:, None]
        return (np.searchsorted(keys, base + hi)
                - np.searchsorted(keys, base + lo)).sum(axis=1)

    def positions(self, w: Sequence[int]) -> np.ndarray:
        """1-indexed, ascending start positions of one word, exact."""
        word = np.asarray(w, dtype=np.int64)
        if word.shape != (self.k,):
            raise ValueError("positions takes one word of length k")
        return self._hits(word[None])[1] + 1


# ---------------------------------------------------------------------------
# scanned functionals
#
# Both functionals read their streams through ``streams(length)``: a call
# returns the symbol matrices (one row per stream, ``length`` columns) of
# every stream in turn, so the caller decides how streams are drawn and
# batched, and each functional asks for only the length it needs.

Streams = Callable[[int], Iterable[np.ndarray]]


def _positive_min_word_prob(model: Model, k: int) -> float:
    if isinstance(model, IidModel) and model.probs is not None:
        return float(min(p for p in model.probs if p > 0)) ** k
    if isinstance(model, MarkovModel):
        pi_min = min(float(p) for p in model.pi)
        entries = [float(v) for row in model.transition for v in row if v > 0]
        return pi_min * min(entries) ** (k - 1) if k > 1 else pi_min
    return 0.0  # unbounded alphabets: no positive lower bound


def _window_log_mu(model: Model, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The function from a symbol array to the float log-measures of its
    length-k windows, with the model's log tables computed once."""
    if isinstance(model, IidModel):
        if model.probs is not None:
            with np.errstate(divide="ignore"):  # a symbol of probability 0 never occurs
                per = np.log(np.asarray(model._floats)).__getitem__
        else:
            r = model._r_float
            head, step = math.log1p(-r), math.log(r)

            def per(x: np.ndarray) -> np.ndarray:
                return head + x * step

        def iid(x: np.ndarray) -> np.ndarray:
            cs = np.concatenate([[0.0], np.cumsum(per(x))])
            return cs[k:] - cs[:-k]
        return iid
    if isinstance(model, MarkovModel):
        logpi = np.log(np.asarray(model._pi_floats))
        with np.errstate(divide="ignore"):
            logt = np.log(np.asarray(model._t_floats))

        def markov(x: np.ndarray) -> np.ndarray:
            n_win = len(x) - k + 1
            cs = np.concatenate([[0.0], np.cumsum(logt[x[:-1], x[1:]])])
            return logpi[x[:n_win]] + (cs[k - 1:] - cs[: n_win])
        return markov

    def cf(x: np.ndarray) -> np.ndarray:
        # the digit bounds _check_word puts on a CF word, checked once per stream
        if x.min() < 1 or x.max() >= GaussCFModel.DIGIT_CAP:
            raise ValueError("CF digits must lie in [1, 2**63)")
        xs = x.tolist()
        return np.array([math.log(gauss_cylinder_prob(xs[i: i + k]))
                         for i in range(len(xs) - k + 1)])
    return cf


def phi_k_S(model: Model, streams: Streams, k: int, S: IntervalUnion,
            N_cap: int) -> tuple[np.ndarray, bool]:
    """Scan sum over window starts i <= N_cap of mu(window_i) * [i * mu(window_i) in S],
    one value per stream, and whether the scan is complete.

    Only windows that actually occur contribute, so the scan needs no word
    enumeration.  Completeness holds once every positive-measure word has
    left S's reach (i * mu > sup S); it depends on the model, k, S and N_cap
    alone.  Window membership uses float products; classification within
    float rounding of an endpoint can go either way.

    With a positive lower bound mu_min on a word's measure, the streams are
    asked for ``n_scan + k - 1`` symbols, n_scan = min(N_cap, 2 sup S / mu_min);
    otherwise for ``N_cap + k - 1``.  No window past that reach can land in
    S, because a float log-measure (a difference of two cumulative sums k
    steps apart) is off by far less than log 2.  The cumulative sums are
    sequential, so the scanned windows have the full scan's float measures
    and hits, and each value is the full scan's bit for bit.
    """
    if N_cap < k:
        raise ConfigError("N_cap must be at least k")
    sup = float(S.sup)
    mu_min = _positive_min_word_prob(model, k)
    complete = sup == 0.0 or (mu_min > 0.0 and N_cap >= sup / mu_min)
    # compared as floats: a subnormal mu_min takes the reach past any int
    reach = 2.0 * sup / mu_min if mu_min > 0.0 else math.inf
    n_scan = N_cap if reach >= N_cap else int(reach)
    matrices = streams(n_scan + k - 1)  # first: the caller may refuse the length
    log_mu = _window_log_mu(model, k)
    bounds = [(float(iv.lo), float(iv.hi), iv.lo_closed, iv.hi_closed)
              for iv in S.intervals]
    index = np.arange(1, n_scan + 1, dtype=np.float64)
    values = []
    for xs in matrices:
        for x in xs:
            mu = np.exp(log_mu(x))
            at = mu * index
            hit = np.zeros(n_scan, dtype=bool)
            for lo, hi, lo_closed, hi_closed in bounds:
                hit |= ((at >= lo) if lo_closed else (at > lo)) \
                    & ((at <= hi) if hi_closed else (at < hi))
            values.append(float(np.sum(mu[hit])))
    return np.array(values), complete


def phi2_enumerable(model: Model, k: int) -> bool:
    """Whether phi_k_j_S can enumerate all words: a finite alphabet with
    alphabet_size**k <= PHI2_EXACT_CAP (k is clipped so a huge k builds no
    huge integer)."""
    s = model.alphabet_size
    return s is not None and s ** min(k, PHI2_EXACT_CAP.bit_length()) <= PHI2_EXACT_CAP


def _has_measure(model: Model, words: np.ndarray) -> np.ndarray:
    """Whether each row of ``words`` has a positive cylinder measure (finite
    i.i.d. and Markov models; a Markov chain's stationary vector is positive)."""
    if isinstance(model, MarkovModel):
        step = np.array(model.transition) > 0
        return step[words[:, :-1], words[:, 1:]].all(axis=1)
    return (np.array(model.probs) > 0)[words].all(axis=1)


def phi_k_j_S(model: Model, streams: Streams, k: int, j: int, S: IntervalUnion,
              x_cap: int) -> tuple[np.ndarray, float]:
    """Mass of {w : count of w in x over its index set equals j}, one value
    per stream x of ``streams(length)``, and the truncated fraction.

    Exact enumeration over all words; it needs a finite alphabet with
    alphabet_size**k <= 2**16.  The words are planned once, before any
    stream is read, and the streams are asked for the longest prefix a plan
    needs, at most x_cap; each stream is counted in one index lookup.  A
    value is the exact mass of the fully countable words; words whose index
    set needs a prefix beyond x_cap are excluded, and their total mass is
    the truncated fraction.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if not phi2_enumerable(model, k):
        raise UnsupportedModelError(
            "the level mass needs a finite alphabet with alphabet_size**k <= 2**16")
    words = np.array(list(enumerate_words(model.alphabet_size, k)), dtype=np.int64)
    words = words[_has_measure(model, words)]
    plan_of, plans = _plan_words(model, words, [S], k)
    use_len = min(max((plan.need for plan in plans), default=0), x_cap)
    counted = np.array([plan.need <= use_len for plan in plans], dtype=bool)
    js = [plan.js[0] for plan in plans]
    # exact mass of each plan's words: a plan's words share one measure
    sizes = np.bincount(plan_of, minlength=len(plans)).tolist()
    mass = [J.mu_w * n for J, n in zip(js, sizes)]
    truncated_mass = sum((m for m, c in zip(mass, counted) if not c), Fraction(0))
    zero_mass = 1 - sum(mass)  # words of measure zero count 0
    counted_words = counted[plan_of]
    _check_range_cells(len(words), js)
    matrices = streams(use_len)  # before the ranges: the caller may refuse the length
    ranges = _ranges_array([J.clipped(use_len - k + 1) for J in js])[plan_of]
    values = []
    for xs in matrices:
        for x in xs:
            counts = np.zeros(len(words), dtype=np.int64)
            if use_len >= k:
                counts = OccurrenceIndex(x, k).count_in_ranges(words, ranges)
            hits = np.bincount(plan_of[(counts == j) & counted_words], minlength=len(plans))
            hit_mass = sum(J.mu_w * n for J, n in zip(js, hits.tolist()) if n)
            if j == 0:
                hit_mass += zero_mass
            values.append(float(hit_mass))
    return np.array(values), float(truncated_mass)

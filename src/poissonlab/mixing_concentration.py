"""Mixing coefficients, the dependency matrix, and concentration machinery.

Covers: exact per-lag mixing coefficients for Markov chains, the
upper-triangular dependency matrix and its operator norm (power iteration
plus the closed-form majorant), Lipschitz weight vectors with closed-form
norms, Azuma-type coefficient bounds, McDiarmid tails, the two scanned
functionals phi_k_S and phi_k_j_S, and the empirical concentration
experiment that checks observed deviations against the analytic bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .errors import ConfigError, InternalCheckError, UnsupportedModelError
from .measures import (IidModel, MarkovModel, MixingProfile, Model,
                       SequenceGenerator, cylinder_prob, cylinder_prob_exact,
                       make_generator, mixing_profile)
from .point_process import IntervalUnion, j_set, required_prefix_length
from .rng import derive_seed
from .words import enumerate_words

DELTA_NORM_MATRIX_CAP = 2000
PHI2_EXACT_CAP = 1 << 16
HASH_MULT = np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)


# ---------------------------------------------------------------------------
# mixing coefficients and the dependency matrix


@dataclass(frozen=True)
class EtaMatrix:
    """Per-lag dependency coefficients, stored as a lag vector.

    Stationarity makes the (i, j) entry a function of j - i alone, so the
    full matrix is never materialized here; ``entry`` reconstructs it.
    """

    n: int
    lags: tuple[float, ...]
    lags_exact: tuple[Fraction, ...] | None = None
    kind: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("truncation dimension must be >= 1")
        for v in self.lags:
            if not 0.0 <= v <= 1.0:
                raise ValueError("lag coefficients must lie in [0, 1]")

    def entry(self, i: int, j: int) -> float:
        if j < i:
            return 0.0
        if j == i:
            return 1.0
        m = j - i
        if m <= len(self.lags):
            return self.lags[m - 1]
        return float(_extend_lags(np.asarray(self.lags), m)[m - 1])


def _extend_lags(lags: np.ndarray, need: int) -> np.ndarray:
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


def eta_coefficients(model: Model, max_lag: int) -> EtaMatrix:
    """Exact per-lag coefficients for a Markov chain.

    lag m value: max over state pairs (a, a') of half the L1 distance
    between rows a and a' of the m-step transition matrix (the maximal
    coupling identity).  Exact rational matrix powers, no float error.
    """
    if not isinstance(model, MarkovModel):
        raise UnsupportedModelError("exact lag coefficients exist for Markov models only")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    s = model.alphabet_size
    lags_exact = []
    power = model.transition
    for _ in range(max_lag):
        worst = Fraction(0)
        for a in range(s):
            for a2 in range(a + 1, s):
                dist = sum(abs(power[a][b] - power[a2][b]) for b in range(s)) / 2
                if dist > worst:
                    worst = dist
        lags_exact.append(worst)
        power = tuple(
            tuple(sum(power[a][c] * model.transition[c][b] for c in range(s))
                  for b in range(s))
            for a in range(s)
        )
    return EtaMatrix(
        n=max_lag + 1,
        lags=tuple(float(v) for v in lags_exact),
        lags_exact=tuple(lags_exact),
        kind="markov",
    )


def delta_matrix(eta: EtaMatrix, n: int | None = None) -> np.ndarray:
    """Unit-diagonal upper-triangular dependency matrix of dimension n."""
    if n is None:
        n = eta.n
    if n < 1:
        raise ValueError("dimension must be >= 1")
    lags = _extend_lags(np.asarray(eta.lags), max(n - 1, 0))
    out = np.eye(n)
    for m in range(1, n):
        idx = np.arange(n - m)
        out[idx, idx + m] = lags[m - 1]
    return out


class DeltaNormResult(NamedTuple):
    value: float
    n: int
    iterations: int


def delta_norm(delta: np.ndarray, tol: float = 1e-10) -> DeltaNormResult:
    """Largest singular value by power iteration on the Gram matrix."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValueError("need a square matrix")
    n = delta.shape[0]
    gram = delta.T @ delta
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for it in range(1, 10**5 + 1):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return DeltaNormResult(0.0, n, it)
        v = w / norm
        new_lam = float(v @ (gram @ v))
        if abs(new_lam - lam) <= tol * max(new_lam, 1e-300):
            return DeltaNormResult(math.sqrt(new_lam), n, it)
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


@dataclass(frozen=True)
class LipschitzWeights:
    """Coordinate-wise Lipschitz weights c_i = factor * min(cap, sup/i).

    ``values`` materializes a finite head; ``norm_sq`` is the full series
    (flat head in closed form, tail via the Hurwitz zeta), and ``bound`` the
    analytic majorant it is checked against.
    """

    k: int
    factor: float
    cap: float
    sup: float
    values: np.ndarray
    norm_sq: float
    bound: float
    crossover: int

    def value_at(self, i: int) -> float:
        if i < 1:
            raise ValueError("coordinates are 1-indexed")
        if self.sup == 0.0 or self.cap == 0.0:
            return 0.0
        return self.factor * min(self.cap, self.sup / i)


def _weights(k: int, S: IntervalUnion, profile: MixingProfile, factor: float,
             bound_poly: float, i_max: int) -> LipschitzWeights:
    if profile.K is None or profile.rho is None:
        raise ValueError("profile must carry contraction constants")
    sup = float(S.sup)
    cap = profile.K * profile.rho**k
    idx = np.arange(1, i_max + 1, dtype=np.float64)
    if sup == 0.0 or cap == 0.0:
        values = np.zeros(i_max)
        norm_sq = 0.0
        crossover = 0
    else:
        values = factor * np.minimum(cap, sup / idx)
        crossover = int(math.floor(sup / cap))
        tail = float(_hurwitz_zeta(2, crossover + 1))
        norm_sq = factor**2 * (crossover * cap**2 + sup**2 * tail)
    # the analytic majorant needs max(K,1): for K < 1 the flat head alone
    # already exceeds the K**2 form
    k_eff = max(profile.K, 1.0) ** 2
    bound = bound_poly * sup * k_eff * profile.rho**k
    if norm_sq > bound * (1.0 + 1e-9):
        raise InternalCheckError("weight norm exceeded its analytic majorant")
    return LipschitzWeights(k, factor, cap, sup, values, norm_sq, bound, crossover)


def lipschitz_weights_phi1(k: int, S: IntervalUnion, profile: MixingProfile,
                           i_max: int = 1000) -> LipschitzWeights:
    """Weights of the measure-weighted window scan; factor 2k^2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _weights(k, S, profile, 2.0 * k * k, 8.0 * k**4, i_max)


def lipschitz_weights_phi2(k: int, S: IntervalUnion, profile: MixingProfile,
                           i_max: int = 1000) -> LipschitzWeights:
    """Weights of the level-set mass functional; factor 2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _weights(k, S, profile, 2.0 * k, 8.0 * k**2, i_max)


# ---------------------------------------------------------------------------
# Azuma coefficients and McDiarmid tail


@dataclass(frozen=True)
class AzumaBound:
    d: np.ndarray
    d_norm: float
    delta_norm_used: float


def azuma_bound(c: LipschitzWeights | np.ndarray, eta: EtaMatrix) -> AzumaBound:
    """Coefficient bounds d_i = c_i + sum_{j>i} c_j eta_{j-i}.

    Asserts the norm inequality ||d|| <= ||Delta|| * ||c|| for the truncated
    system (power-iteration norm up to the matrix cap, row-sum majorant
    beyond it).
    """
    cv = c.values if isinstance(c, LipschitzWeights) else np.asarray(c, dtype=np.float64)
    if cv.ndim != 1 or len(cv) == 0:
        raise ValueError("need a nonempty weight vector")
    if np.any(cv < 0):
        raise ValueError("weights must be nonnegative")
    n = len(cv)
    lags = _extend_lags(np.asarray(eta.lags), max(n - 1, 0))
    kernel = np.concatenate([[0.0], lags])  # kernel[m] = eta at lag m
    conv = np.convolve(cv[::-1], kernel)
    tail = conv[n - 1 - np.arange(n)]  # sum_m c_{i+m} eta_m
    d = cv + tail
    d_norm = float(np.linalg.norm(d))
    if n <= DELTA_NORM_MATRIX_CAP:
        dn = delta_norm(delta_matrix(eta, n)).value
    else:
        dn = 1.0 + float(np.sum(lags))
    c_norm = float(np.linalg.norm(cv))
    if d_norm > dn * c_norm + 1e-9:
        raise InternalCheckError("coefficient bound exceeded the operator-norm product")
    return AzumaBound(d, d_norm, dn)


def mcdiarmid_tail(t: float, delta_norm_value: float, c_norm_sq: float) -> float:
    """Two-sided tail bound min(1, 2 exp(-t^2 / (2 ||Delta||^2 ||c||^2)))."""
    if t <= 0 or delta_norm_value <= 0 or c_norm_sq <= 0:
        raise ValueError("inputs must be positive")
    return min(1.0, 2.0 * math.exp(-(t * t) / (2.0 * delta_norm_value**2 * c_norm_sq)))


# ---------------------------------------------------------------------------
# occurrence index (code/hash lookup of word positions)


class OccurrenceIndex:
    """Sorted index of the length-k windows of a symbol array.

    Windows are keyed by an exact code when base**k fits comfortably in
    int64, otherwise by a wraparound polynomial hash.  Equal windows form
    one run of the sorted order with their starts ascending, and the window
    of run r at 0-based start p gets the key r * n_win + p, so the count of
    a word's windows over a range of starts is two binary searches.  A word
    is matched to its run by code and checked against the run's first
    window, so counts are exact in hash mode too.
    """

    def __init__(self, x: np.ndarray, k: int, base: int | None):
        x = np.asarray(x, dtype=np.int64)
        if k < 1 or len(x) < k:
            raise ValueError("need k >= 1 and len(x) >= k")
        self.x = x
        self.k = k
        n_win = len(x) - k + 1
        self.exact = base is not None and base**k < (1 << 62)
        if self.exact:
            codes = np.zeros(n_win, dtype=np.int64)
            for j in range(k):
                codes = codes * base + x[j: j + n_win]
            self._powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
        else:
            xu = x.astype(np.uint64)
            codes = np.zeros(n_win, dtype=np.uint64)
            with np.errstate(over="ignore"):  # wraparound is the hash
                for j in range(k):
                    codes = codes * HASH_MULT + xu[j: j + n_win]
            self._powers = np.array([pow(int(HASH_MULT), k - 1 - j, 1 << 64)
                                     for j in range(k)], dtype=np.uint64)
        order = np.argsort(codes, kind="stable")
        ranked = codes[order]
        new = np.ones(n_win, dtype=bool)  # window starts a new run
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        if not self.exact and self._differ(order, ~new).any():
            # a hash collision: sort by (hash, window) so equal windows are one run
            order = np.lexsort([x[j: j + n_win] for j in reversed(range(k))] + [codes])
            new |= self._differ(order, ~new)
        self._keys = (np.cumsum(new) - 1) * n_win + order
        self._codes = ranked[new]  # per run, sorted
        self._first = order[new]   # per run, its first start

    def _differ(self, order: np.ndarray, same: np.ndarray) -> np.ndarray:
        """Where ``same`` holds, whether the window at ``order[i]`` differs
        from the one at ``order[i - 1]`` (``same[0]`` must be False)."""
        i = np.flatnonzero(same)
        a, b = order[i], order[i - 1]
        diff = np.zeros(len(i), dtype=bool)
        for j in range(self.k):
            xj = self.x[j:]
            diff |= xj[a] != xj[b]
        out = np.zeros(len(order), dtype=bool)
        out[i] = diff
        return out

    def _words(self, words) -> np.ndarray:
        words = np.asarray(words, dtype=np.int64)
        if words.ndim not in (1, 2) or words.shape[-1] != self.k:
            raise ValueError("word length mismatch")
        return words

    def _runs(self, words: np.ndarray) -> np.ndarray:
        """The run of each row of the (n, k) ``words``, -1 if it does not occur."""
        if self.exact:
            codes = words @ self._powers
        else:
            codes = words.astype(np.uint64) @ self._powers  # wraps like the hash
        lo = np.searchsorted(self._codes, codes, side="left")
        hi = np.searchsorted(self._codes, codes, side="right")
        runs = np.full(len(words), -1, dtype=np.int64)
        span = np.arange(self.k)
        # a code has more than one run only after a hash collision
        for d in range(int((hi - lo).max(initial=0))):
            cand = np.flatnonzero((runs < 0) & (hi - lo > d))
            r = lo[cand] + d
            match = (self.x[self._first[r, None] + span] == words[cand]).all(axis=1)
            runs[cand[match]] = r[match]
        return runs

    def count_in_ranges(self, words, ranges: Sequence[tuple[int, int]]):
        """Occurrences of each word at the 1-indexed starts in ``ranges``.

        ``words`` is an (n, k) array, one word per row, and the result the
        (n,) int64 array of counts; a single word (length-k sequence) gives
        its count as an int.
        """
        words = self._words(words)
        runs = self._runs(words.reshape(-1, self.k))
        n_win = len(self._keys)
        base = runs * n_win
        total = np.zeros(len(runs), dtype=np.int64)
        for a, b in ranges:
            total += (np.searchsorted(self._keys, base + min(max(b, 0), n_win))
                      - np.searchsorted(self._keys, base + min(max(a - 1, 0), n_win)))
        total[runs < 0] = 0
        return total if words.ndim == 2 else int(total[0])

    def positions(self, w: Sequence[int]) -> np.ndarray:
        """1-indexed, ascending start positions of one word, exact."""
        words = self._words(w)
        if words.ndim != 1:
            raise ValueError("positions takes one word")
        run = int(self._runs(words[None])[0])
        if run < 0:
            return np.zeros(0, dtype=np.int64)
        n_win = len(self._keys)
        lo, hi = np.searchsorted(self._keys, [run * n_win, (run + 1) * n_win])
        return self._keys[lo:hi] - run * n_win + 1


# ---------------------------------------------------------------------------
# scanned functionals


@dataclass(frozen=True)
class PhiScan:
    value: float
    complete: bool
    skipped_bound: float
    n_scanned: int


def _positive_min_word_prob(model: Model, k: int) -> float:
    if isinstance(model, IidModel) and model.probs is not None:
        return float(min(p for p in model.probs if p > 0)) ** k
    if isinstance(model, MarkovModel):
        pi_min = min(float(p) for p in model.pi)
        entries = [float(v) for row in model.transition for v in row if v > 0]
        return pi_min * min(entries) ** (k - 1) if k > 1 else pi_min
    return 0.0  # unbounded alphabets: no positive lower bound


def _window_log_mu(model: Model, x: np.ndarray, k: int) -> np.ndarray:
    n_win = len(x) - k + 1
    if isinstance(model, IidModel):
        if model.probs is not None:
            logp = np.log(np.asarray(model._floats))
            per = logp[x]
        else:
            r = model._r_float
            per = math.log1p(-r) + x * math.log(r)
        cs = np.concatenate([[0.0], np.cumsum(per)])
        return cs[k:] - cs[:-k]
    if isinstance(model, MarkovModel):
        logpi = np.log(np.asarray(model._pi_floats))
        with np.errstate(divide="ignore"):
            logt = np.log(np.asarray(model._t_floats))
        steps = logt[x[:-1], x[1:]]
        cs = np.concatenate([[0.0], np.cumsum(steps)])
        return logpi[x[:n_win]] + (cs[k - 1:] - cs[: n_win])
    out = np.empty(n_win)
    for i in range(n_win):
        out[i] = math.log(cylinder_prob(model, tuple(int(v) for v in x[i: i + k])))
    return out


def _vector_contains(S: IntervalUnion, values: np.ndarray) -> np.ndarray:
    mask = np.zeros(len(values), dtype=bool)
    for iv in S.intervals:
        lo, hi = float(iv.lo), float(iv.hi)
        left = values >= lo if iv.lo_closed else values > lo
        right = values <= hi if iv.hi_closed else values < hi
        mask |= left & right
    return mask


def phi_k_S(x_gen: SequenceGenerator, k: int, S: IntervalUnion,
            N_cap: int) -> PhiScan:
    """Scan sum over window starts i of mu(window_i) * [i * mu(window_i) in S].

    Only windows that actually occur contribute, so the scan needs no word
    enumeration.  Scanning stops at N_cap; completeness holds once every
    positive-measure word has left S's reach (i * mu > sup S), and the
    reported skipped bound is sup S times the unscanned fraction.  Window
    membership uses float products; classification within float rounding of
    an endpoint can go either way.
    """
    if N_cap < k:
        raise ConfigError("N_cap must be at least k")
    x = np.asarray(x_gen.take(N_cap + k - 1), dtype=np.int64)
    log_mu = _window_log_mu(x_gen.model, x, k)[:N_cap]
    mu = np.exp(log_mu)
    t = mu * np.arange(1, N_cap + 1, dtype=np.float64)
    hit = _vector_contains(S, t)
    value = float(np.sum(mu[hit]))
    sup = float(S.sup)
    mu_min = _positive_min_word_prob(x_gen.model, k)
    if sup == 0.0:
        return PhiScan(value, True, 0.0, N_cap)
    if mu_min > 0.0:
        needed = sup / mu_min
        complete = N_cap >= needed
        skipped = 0.0 if complete else sup * (1.0 - N_cap / needed)
    else:
        complete = False
        skipped = sup
    return PhiScan(value, complete, skipped, N_cap)


def phi2_enumerable(model: Model, k: int) -> bool:
    """Whether phi_k_j_S can enumerate all words: a finite alphabet with
    alphabet_size**k <= PHI2_EXACT_CAP (k is clipped so a huge k builds no
    huge integer)."""
    s = model.alphabet_size
    return s is not None and s ** min(k, PHI2_EXACT_CAP.bit_length()) <= PHI2_EXACT_CAP


@dataclass(frozen=True)
class PhiJEstimate:
    estimate: float
    truncated_fraction: float
    n_used: int


def phi_k_j_S(x_gen: SequenceGenerator, k: int, j: int, S: IntervalUnion,
              x_cap: int = 10**7) -> PhiJEstimate:
    """Mass of {w : count of w in x over its index set equals j}.

    Exact enumeration over all words; it needs a finite alphabet with
    alphabet_size**k <= 2**16.  The estimate is the exact mass of the fully
    countable words; words whose index set needs a prefix beyond x_cap are
    excluded and reported in truncated_fraction.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    model = x_gen.model
    if not phi2_enumerable(model, k):
        raise UnsupportedModelError(
            "the level mass needs a finite alphabet with alphabet_size**k <= 2**16")
    s = model.alphabet_size
    words = []
    for w in enumerate_words(s, k):
        mu = cylinder_prob_exact(model, w)
        if mu == 0:
            continue
        J = j_set(mu, S)
        words.append((w, mu, J))
    needed = max((required_prefix_length(k, J) for _, _, J in words), default=0)
    use_len = min(needed, x_cap)
    hit_mass = Fraction(0)
    truncated_mass = Fraction(0)
    index = None
    if use_len >= k:
        x = np.asarray(x_gen.take(use_len), dtype=np.int64)
        index = OccurrenceIndex(x, k, s)
    n_used = 0
    for w, mu, J in words:
        if required_prefix_length(k, J) > use_len:
            truncated_mass += mu
            continue
        n_used += 1
        count = index.count_in_ranges(w, J.ranges) if (index and J.count) else 0
        if count == j:
            hit_mass += mu
    zero_mass = 1 - sum(mu for _, mu, _ in words)  # words of measure zero count 0
    if j == 0:
        hit_mass += zero_mass
    return PhiJEstimate(float(hit_mass), float(truncated_mass), n_used)


# ---------------------------------------------------------------------------
# the empirical concentration experiment


@dataclass(frozen=True)
class ConcentrationRow:
    t: float
    empirical_prob: float
    theoretical_bound: float
    se: float
    violation: bool


@dataclass(frozen=True)
class ConcentrationReport:
    functional: str
    k: int
    set_label: str
    n_replicas: int
    n_cap: int
    complete: bool
    delta_bound: float
    denominator: float
    mean: float
    std: float
    rows: tuple[ConcentrationRow, ...]
    violations: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "violations", sum(r.violation for r in self.rows))


def concentration_experiment(model: Model, k: int, S: IntervalUnion,
                             t_grid: Sequence[float], n_replicas: int, seed: int,
                             functional: str = "phi1", j: int = 0,
                             n_cap: int | None = None) -> ConcentrationReport:
    """Empirical deviation probabilities of a scanned functional vs the bound.

    Draws independent streams, evaluates the functional on each, centers at
    the empirical mean, and compares each tail frequency against
    2 exp(-t^2 / (||Delta||^2 * B)), where B is the analytic majorant of the
    functional's squared weight norm (``lipschitz_weights_phi1/phi2``: for
    phi1, 8 k^4 sup(S) max(K, 1)^2 rho^k), flagging any exceedance beyond
    three binomial standard errors where the bound is informative (< 1).
    """
    if n_replicas < 200:
        raise ConfigError("need at least 200 replicas")
    if functional not in ("phi1", "phi2"):
        raise ConfigError("functional must be 'phi1' or 'phi2'")
    if not t_grid or any(t <= 0 for t in t_grid):
        raise ConfigError("t_grid must list positive thresholds")
    profile = mixing_profile(model)
    sup = float(S.sup)
    if n_cap is None:
        mu_min = _positive_min_word_prob(model, k)
        if mu_min > 0.0:
            n_cap = min(int(math.ceil(sup / mu_min)), 10**5)
        else:
            n_cap = 10**4
    n_cap = max(n_cap, k)
    weights = lipschitz_weights_phi1 if functional == "phi1" else lipschitz_weights_phi2
    dn = delta_norm_bound(profile)
    denominator = dn**2 * weights(k, S, profile).bound

    values = np.empty(n_replicas)
    complete = True
    for r in range(n_replicas):
        gen = make_generator(model, derive_seed(seed, 1, r))
        if functional == "phi1":
            scan = phi_k_S(gen, k, S, n_cap)
            values[r] = scan.value
            complete = complete and scan.complete
        else:
            est = phi_k_j_S(gen, k, j, S, x_cap=n_cap)
            values[r] = est.estimate
            complete = complete and est.truncated_fraction == 0.0

    mean = float(np.mean(values))
    std = float(np.std(values))
    dev = np.abs(values - mean)
    rows = []
    for t in t_grid:
        emp = float(np.mean(dev >= t))
        bound = min(1.0, 2.0 * math.exp(-(t * t) / denominator)) if denominator > 0 else 1.0
        se = math.sqrt(emp * (1.0 - emp) / n_replicas)
        violation = bound < 1.0 and emp > bound + 3.0 * se
        rows.append(ConcentrationRow(float(t), emp, bound, se, violation))
    return ConcentrationReport(functional, k, S.label(), n_replicas, n_cap,
                               complete, dn, denominator, mean, std, tuple(rows))

"""The psi-mixing certificate, the occurrence counters, and concentration.

Covers: the psi-mixing certificate (T, sigma, R) of ``mixing_profile``, the
exact per-lag coefficients of Markov chains, the dependency matrix and its
norm (power iteration and the closed-form majorant), the Lipschitz weights'
norms, the word plans, the annealed kernel ``count_word_occurrences``, the
quenched count ``_count_words`` over an ``OccurrenceIndex``, and the scanned
functionals phi_k_S and phi_k_j_S that the concentration mode checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, InternalCheckError, ResourceError, UnsupportedModelError
from .measures import (_DRAW_BLOCK, GaussCFModel, IidModel, MarkovModel, MixingProfile,
                       Model, SequenceGenerator, contraction_profile, cylinder_prob_guarded,
                       draw_buffers, gauss_cylinder_prob)
from .point_process import IndexSet, IntervalUnion, j_set, required_prefix_length
from .words import enumerate_words

DELTA_NORM_MATRIX_CAP = 2000
MAX_LAG_CAP = 1000  # exact rational powers grow by about a digit per lag
# lags m = 1..50 of the Markov psi-mixing certificate (mixing_profile)
_PSI_LAGS = 50
PHI2_EXACT_CAP = 1 << 16
RANGE_CELLS_CAP = 1 << 22  # words x index ranges of one count_in_ranges call
HASH_MULT = np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
MARK_BITS = 22  # most top hash bits a lookup marks: a 4 MB table (OccurrenceIndex._hits)


# ---------------------------------------------------------------------------
# the psi-mixing certificate, mixing coefficients and the dependency matrix


def markov_ratio_bounds(model: MarkovModel) -> list[tuple[Fraction, Fraction]]:
    """The smallest and largest exact psi ratio P^m(a,b)/pi(b) over (a, b), for
    each lag m = 1..50; each ratio matrix is formed once."""
    s = model.alphabet_size
    bounds = []
    for power in map(model.matrix_power, range(1, _PSI_LAGS + 1)):
        ratios = [power[a][b] / model.pi[b] for a in range(s) for b in range(s)]
        bounds.append((min(ratios), max(ratios)))
    return bounds


def mixing_profile(model: Model) -> MixingProfile:
    """Every mixing constant of a model, each tagged with its provenance: the
    contraction pair (rho, K) of ``contraction_profile``, the exponential
    psi-mixing certificate (T, sigma) and the distortion bound R."""
    c = contraction_profile(model)
    if isinstance(model, IidModel):
        # independence: the ratio is identically 1; sigma = 0 is the sentinel
        T, sigma, R = 1.0, 0.0, 1.0
        tags = (("R", "EXACT"), ("T", "EXACT"), ("sigma", "EXACT"))
    elif isinstance(model, MarkovModel):
        mags = sorted(abs(complex(e)) for e in np.linalg.eigvals(model._t_floats))
        sigma = min(mags[-2], 1.0 - 1e-15)
        bounds = markov_ratio_bounds(model)
        # dev(m) = max_ab |P^m(a,b)/pi(b) - 1|
        table = [max(hi - 1, 1 - lo) for lo, hi in bounds]
        if sigma <= 0.0:
            T = 1.0 if all(d == 0 for d in table) else float("inf")
        else:
            # a lag with no deviation adds nothing, and T = 1 when none deviates;
            # where sigma**m underflows the float range the ratio is taken exactly
            T = max((float(d) / sigma**m if sigma**m >= sys.float_info.min
                     else float(d / Fraction(sigma)**m)
                     for m, d in enumerate(table, start=1) if d), default=1.0)
        R = max(1.0, *(float(hi) for _, hi in bounds))
        tags = (("R", "ESTIMATED"), ("T", "ESTIMATED"), ("sigma", "DERIVED"))
    else:
        # CF model: the certificate is assumed, the distortion estimated
        T, sigma, R = GaussCFModel.PSI_T, GaussCFModel.PSI_SIGMA, _gauss_distortion_estimate()
        tags = (("R", "ESTIMATED"), ("T", "ASSUMED"), ("sigma", "ASSUMED"))
    return MixingProfile(T=T, sigma=sigma, rho=c.rho, K=c.K, R=R,
                         provenance=tuple(sorted(c.provenance + tags)))


def _gauss_distortion_estimate() -> float:
    """max mu(uv) / (mu(u) mu(v)) over the words u, v of one or two digits
    in 1..8."""
    from itertools import product

    mu = {w: gauss_cylinder_prob(w) for L in (1, 2) for w in product(range(1, 9), repeat=L)}
    return max(1.0, *(gauss_cylinder_prob(u + v) / (mu[u] * mu[v]) for u in mu for v in mu))


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
    w = gram @ np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for _ in range(10**5):
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = gram @ v  # the next step's product
        new_lam = float(v @ w)
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


# B_2j / (2j)! for j = 1..5: the Euler-Maclaurin coefficients through B_10
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def _hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum over n >= 0 of (n + q)**-s, for s > 1 and q > 0, in
    floats: the terms below 32 directly, the rest by the Euler-Maclaurin sum
    through B_10 (at s = 2, within 5e-16 relative of the exact value for q
    from 1 to 1e18)."""
    n = max(0, math.ceil(32.0 - q))  # the terms summed directly
    x = float(q + n)
    tail = x ** (1 - s) / (s - 1) + x**-s / 2
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, coeff in enumerate(_EM_COEFFS, 1):
        tail += coeff * rising * x ** (1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum([tail, *((q + i) ** -s for i in range(n))])


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
# word plans and the two occurrence counters: the annealed kernel and the index


@dataclass
class _WordPlan:
    """One word's index set per target set, the stream length they need
    (at most n_cap), and whether each set is truncated: its index set needs
    more than n_cap symbols."""

    js: tuple[IndexSet, ...]
    length: int
    cut: tuple[bool, ...]


def _plan_words(model: Model, words: np.ndarray, sets: Sequence[IntervalUnion],
                k: int, n_cap: int) -> tuple[np.ndarray, list[_WordPlan]]:
    """Each word's plan index and the distinct plans, for streams of at most
    ``n_cap`` symbols.

    Words with equal keys share one plan.  Under an i.i.d. model the
    measure depends only on the symbol counts, so a word's key is its sorted
    symbols; otherwise the word itself.  Each index set is decided up to the
    last window start that fits in ``n_cap`` symbols (``j_set``'s
    ``limit``), past it only as far as the cut needs: so a CF word whose
    guard band lies past the cap costs no high-precision decision, and every
    range endpoint is at most n_cap - k + 2.
    """
    keys = np.sort(words, axis=1) if isinstance(model, IidModel) else words
    first, plan_of = _distinct_rows(keys)
    plans = []
    for i in first:
        mu, high = cylinder_prob_guarded(model, words[i].tolist())
        js = tuple(j_set(mu, S, high, n_cap - k + 1) for S in sets)
        needs = [required_prefix_length(k, J) for J in js]
        plans.append(_WordPlan(js, min(max(needs, default=0), n_cap),
                               tuple(need > n_cap for need in needs)))
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
    """Refuse, before it is built, an (n_words, m, 2) ranges slab per set
    past RANGE_CELLS_CAP words x ranges, m the most ranges of one set in ``js``."""
    m = max((len(J.ranges) for J in js), default=0)
    if n_words * m > RANGE_CELLS_CAP:
        raise ResourceError(f"{n_words} words x {m} index ranges is over the cap of "
                            f"{RANGE_CELLS_CAP}; reduce n_samples or the intervals of S")


class OccurrenceIndex:
    """The length-k windows of a symbol array, hashed for word lookups.

    Every window is keyed once by a wraparound polynomial hash.  A lookup
    hashes its distinct words into a small sorted table, takes the windows
    whose hash is in the table (binary search, only for the windows whose
    top hash bits are marked by a table entry) and checks each against its
    word symbol by symbol, so counts are exact even where hashes collide.
    Only these hits are sorted, by the key slot * n_win + start, so the
    count of a word's windows over a range of starts is two binary searches.
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
        # only windows whose top hash bits mark a table entry can be in it
        shift = 64 - min(MARK_BITS, len(h).bit_length())
        marks = np.zeros(1 << (64 - shift), dtype=bool)
        marks[table >> shift] = True
        cand = np.flatnonzero(marks[h >> shift])
        at = np.searchsorted(table, h[cand])
        np.minimum(at, len(table) - 1, out=at)  # a hash past the table matches no slot
        found = table[at] == h[cand]
        cand, at = cand[found], at[found]
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

        ``words`` is an (n, k) array, one word per row, and ``ranges`` an
        (..., n, m, 2) array of each word's inclusive (a, b) pairs, one
        (n, m, 2) slab per target set; a pair with b < a is empty.  The words
        are looked up once for every slab.  Returns the int64 counts, of shape
        ``ranges.shape[:-2]``.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.k:
            raise ValueError("words must be an (n, k) array")
        if ranges.ndim < 3 or ranges.shape[-3] != len(words) or ranges.shape[-1] != 2:
            raise ValueError("ranges must be an (..., n, m, 2) array")
        slot, keys = self._hits(words)
        n_win = len(self._hashes)
        lo = np.clip(ranges[..., 0] - 1, 0, n_win)
        hi = np.clip(ranges[..., 1], lo, n_win)
        base = (slot * n_win)[:, None]
        return (np.searchsorted(keys, base + hi)
                - np.searchsorted(keys, base + lo)).sum(axis=-1)

    def positions(self, w: Sequence[int]) -> np.ndarray:
        """1-indexed, ascending start positions of one word, exact."""
        word = np.asarray(w, dtype=np.int64)
        if word.shape != (self.k,):
            raise ValueError("positions takes one word of length k")
        return self._hits(word[None])[1] + 1


_ONES = np.uint64(2**64 - 1)
_SWAR = [np.uint64(v) for v in (0x5555555555555555, 0x3333333333333333,
                                0x0F0F0F0F0F0F0F0F, 0x0101010101010101)]


def _binary(a: np.ndarray) -> bool:
    """Whether every entry of the integer array ``a`` is 0 or 1 (a negative
    entry read unsigned is above 1)."""
    return a.size == 0 or int(a.view(f"u{a.itemsize}").max()) <= 1


def _popcount(v: np.ndarray) -> np.ndarray:
    """The set bits of each uint64 of ``v`` (overwritten), by SWAR: np.bitwise_count
    needs numpy 2."""
    m1, m2, m4, h01 = _SWAR
    v -= (v >> np.uint64(1)) & m1
    v[...] = (v & m2) + ((v >> np.uint64(2)) & m2)
    v += v >> np.uint64(4)
    v &= m4
    v *= h01
    v >>= np.uint64(56)
    return v


def _match_bits(x: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Bit-parallel (Shift-And) matches of each row's binary word in its
    binary stream: a (rows, n) uint64 array whose bit b of word i says
    whether the window that starts at symbol 64 * i + b (0-indexed) holds
    the word.  Each row is packed 64 symbols a word, little-endian
    ('<u8', the same on any host) and zero-padded; the matches are the AND
    over j < k of the packed row shifted down by j, each flipped where w_j is
    0.  Bits of windows that do not fit in a row are not meaningful."""
    k = words.shape[1]
    packed = np.zeros((len(x), 8 * (n + (k - 1) // 64 + 1)), dtype=np.uint8)
    packed[:, :-(-x.shape[1] // 8)] = np.packbits(x.astype(np.uint8, copy=False),
                                                   axis=1, bitorder="little")
    bits = packed.view("<u8")
    flips = np.where(words == 0, _ONES, np.uint64(0))
    hits = np.full((len(x), n), _ONES)
    low, high = np.empty_like(hits), np.empty_like(hits)
    for j in range(k):
        q, r = j // 64, np.uint64(j % 64)
        if r:
            np.right_shift(bits[:, q: q + n], r, out=low)
            low |= np.left_shift(bits[:, q + 1: q + 1 + n], np.uint64(64) - r, out=high)
            low ^= flips[:, j: j + 1]
        else:
            np.bitwise_xor(bits[:, q: q + n], flips[:, j: j + 1], out=low)
        hits &= low
    return hits


def count_word_occurrences(x: np.ndarray, words: np.ndarray,
                           ranges: Sequence[Sequence[tuple[int, int]]]) -> np.ndarray:
    """Occurrences of each row's word in its stream over inclusive index
    ranges, one list of ranges per target set.

    ``x`` is a (rows, length) symbol matrix and ``words`` the (rows, k)
    matrix of the words sought, one per row; positions are 1-indexed window
    starts, and each range is clipped to the windows that fit inside a row,
    so a range shifted to a block of the streams needs no clip of its own.
    Returns the (sets, rows) counts.

    Where every symbol of ``x`` and of ``words`` is 0 or 1, the windows from
    the first range's start to the last one's end, over all sets, are
    matched once 64 at a time (``_match_bits``) and each range's set bits
    counted under edge masks; otherwise ``k`` shifted equality masks are
    ANDed over each range of each set, so any alphabet and any ``k`` works.
    """
    k = words.shape[1]
    n_win = x.shape[1] - k + 1
    # per set, the 0-indexed window starts [s, e) of each range that keeps a window
    spans = [[(s, e) for a, b in rs if (e := min(b, n_win)) > (s := max(a, 1) - 1)]
             for rs in ranges]
    total = np.zeros((len(spans), len(x)), dtype=np.int64)
    every = [span for per_set in spans for span in per_set]
    if not every:
        return total
    if _binary(words) and _binary(x):
        first = min(s for s, _ in every) // 64  # the hit words that cover every span
        n = (max(e for _, e in every) - 1) // 64 + 1 - first
        hits = _match_bits(x[:, 64 * first: 64 * (first + n) + k - 1], words, n)
        for row, per_set in zip(total, spans):
            for s, e in per_set:
                part = hits[:, s // 64 - first: (e - 1) // 64 + 1 - first].copy()
                part[:, 0] &= _ONES << np.uint64(s % 64)
                part[:, -1] &= _ONES >> np.uint64(63 - (e - 1) % 64)
                row += _popcount(part).sum(axis=1, dtype=np.int64)
        return total
    for row, per_set in zip(total, spans):
        for s, e in per_set:
            acc = x[:, s: e] == words[:, :1]
            for j in range(1, k):
                acc &= x[:, s + j: e + j] == words[:, j: j + 1]
            row += np.count_nonzero(acc, axis=1)
    return total


# ---------------------------------------------------------------------------
# scanned functionals
#
# Both functionals read their streams through ``streams(length)``: a call
# returns blocks of streams in turn, each a ``SequenceGenerator`` (or an
# object with its ``seeds``, ``dtype`` and ``take(n, out, buffers)``) whose
# rows are the streams, so the caller decides how streams are drawn and
# batched, and each functional asks for only the length it needs.  A
# functional takes a block's symbols through ``_chunks``, at most about
# _SCAN_BLOCK windows at a time.

Streams = Callable[[int], Iterable[SequenceGenerator]]
# windows of one scan chunk, and symbols of one block of streams: the sampler's draw block
_SCAN_BLOCK = _DRAW_BLOCK
_U = 2.0**-53  # unit roundoff of float64


def _chunks(gen: SequenceGenerator, length: int, k: int, budget: int,
            block: np.ndarray | None = None, buffers: np.ndarray | None = None):
    """The first ``length`` symbols of ``gen``'s streams as (offset, block)
    pairs, in order, for counting the windows of length ``k`` chunk by chunk.

    A chunk is width = max(1, budget // rows) windows wide, rows the number
    of ``gen``'s streams, so a block holds about ``budget`` new symbols: the
    (rows, cols) symbols offset + 1 .. offset + cols (at most
    ``length``) of every stream, cols at most width + k - 1, so the windows
    that start at offset + 1 .. offset + width lie whole inside it, and every
    window of the streams starts in exactly one block.  Its last k - 1
    symbols are carried into the next block, and each take draws only the
    ``width`` new symbols, straight into the block, so ``take`` continues
    every stream as one take of ``length`` would.  The blocks are views of
    ``block``, a 1-D array of ``gen.dtype`` with room for rows * (min(width,
    length - k + 1) + k - 1) symbols, or of one allocated here: use each
    block before asking for the next.  Every take draws through
    ``buffers``, take's raw and scratch pair (``draw_buffers`` of at least
    rows * cols symbols), or through one allocated here with the block, so
    no take allocates its own.
    """
    rows = len(gen.seeds)
    width = max(1, budget // rows)
    n_win = length - k + 1
    cols = min(width, n_win) + k - 1
    if block is None:
        block = np.empty(rows * cols, gen.dtype)
    if buffers is None:
        buffers = draw_buffers(rows * cols)
    block = block[:rows * cols].reshape(rows, cols)
    gen.take(cols, block, buffers)
    yield 0, block
    for offset in range(width, n_win, width):
        block[:, :k - 1] = block[:, width:]
        new = min(width, n_win - offset)
        gen.take(new, block[:, k - 1: k - 1 + new], buffers)
        yield offset, block[:, :k - 1 + new]


def _count_words(streams: Streams, k: int, words: np.ndarray, plan_of: np.ndarray,
                 plans: Sequence[_WordPlan], budget: int):
    """Each row of ``words`` counted over its plan's index sets in every
    stream of ``streams(length)``, length the longest plan's: one
    (sets, len(words)) int64 array per stream, in order.

    Before anything is drawn, the ranges are refused past RANGE_CELLS_CAP
    (``_check_range_cells``) and then the streams are asked for, so the
    caller may refuse the length.  The plans' ranges then form one
    (sets, plans, m, 2) array, padded with (1, 0) up to m, the most ranges of
    one set; every endpoint is at most n_cap - k + 2, so none is clipped.
    Each stream's chunk (``_chunks`` of ``budget``) is hashed once, and one
    lookup counts every set over the ranges, gathered per word and shifted
    to the chunk; the index clips them to the chunk's windows.  With
    ``length < k`` there is no window: every count is 0 and nothing is drawn.
    """
    by_set = list(zip(*(plan.js for plan in plans)))  # per set, per plan
    _check_range_cells(len(words), [J for js in by_set for J in js])
    length = max((plan.length for plan in plans), default=0)
    blocks = streams(length)
    m = max((len(J.ranges) for js in by_set for J in js), default=0)
    ranges = np.array([[[*J.ranges] + [(1, 0)] * (m - len(J.ranges)) for J in js]
                       for js in by_set], dtype=np.int64).reshape(len(by_set), len(plans), m, 2)
    shape = (len(by_set), len(words))
    for gen in blocks:
        rows = len(gen.seeds)
        if length < k:
            yield from (np.zeros(shape, dtype=np.int64) for _ in range(rows))
            continue
        totals = [None] * rows
        for offset, block in _chunks(gen, length, k, budget):
            shifted = (ranges - offset)[:, plan_of]
            for r, x in enumerate(block):
                if offset == 0:
                    totals[r] = np.zeros(shape, dtype=np.int64)
                # the index is a temporary: its hashes go before the next stream or chunk
                totals[r] += OccurrenceIndex(x, k).count_in_ranges(words, shifted)
                if offset + block.shape[-1] == length:  # the stream is counted
                    yield totals[r]
                    totals[r] = None  # one stream's counts at a time in a single chunk
            del shifted  # before the next chunk is drawn
        del block, x  # before the next block of streams allocates its own


def _positive_min_word_prob(model: Model, k: int) -> float:
    if isinstance(model, IidModel) and model.probs is not None:
        return float(min(p for p in model.probs if p > 0)) ** k
    if isinstance(model, MarkovModel):
        pi_min = min(float(p) for p in model.pi)
        entries = [float(v) for row in model.transition for v in row if v > 0]
        return pi_min * min(entries) ** (k - 1) if k > 1 else pi_min
    return 0.0  # unbounded alphabets: no positive lower bound


def _scan_reach(model: Model, k: int, sup: float, N_cap: int) -> int:
    """The window starts i <= N_cap that phi_k_S scans: all N_cap, or with a
    positive floor mu_min on a word's measure, the largest i with

        i * mu_min * exp(-delta(i)) * (1 - (k + 8) u) <= sup S,

    u = 2**-53 and delta(n) = u M ((n + k + 1)**2 + 3k), M = max(1, the
    largest |finite entry| of ``_log_tables``).  To first order in u,
    delta(n) bounds the error of a scanned log-measure: each cumulative sum
    up to symbol j is off by at most u M j (j + 1) / 2 through rounding, each
    float log of a float probability by u (M + 1), and the difference of two
    sums by u k M.  The (k + 8) u covers exp's error, the rounding of the
    product i * mu, of the float mu_min (a k-th power of rounded floats) and
    of this bound's own evaluation.  So past that i every float product
    i * mu exceeds sup S, and no window lands in S.  Since delta grows with
    the reach, the reach is the fixed point of the bound, met from below in a
    step or two; it falls back to N_cap where delta is not small.
    """
    mu_min = _positive_min_word_prob(model, k)
    if mu_min <= 0.0:
        return N_cap
    big_m = max(1.0, *(float(np.abs(t[np.isfinite(t)]).max()) for t in _log_tables(model)))
    # compared as floats: a subnormal mu_min takes the reach past any int
    scale = sup / (mu_min * (1.0 - (k + 8) * _U))
    n = 0
    for _ in range(64):
        m = float(n + k + 1)  # a float: past 1e154 its square is inf, not an error
        delta = _U * big_m * (m * m + 3 * k)
        if delta > 700.0 or (reach := scale * math.exp(delta)) >= N_cap:
            break
        if int(reach) <= n:
            return n
        n = int(reach)
    return N_cap


def _sums(terms: np.ndarray, carry: np.ndarray | None, at: int) -> np.ndarray:
    """Sequential cumulative sums of ``terms`` along the last axis, each row
    started at its entry of ``carry`` (0.0 without one) and led by it; a
    given ``carry`` is set to the sums at column ``at``."""
    cs = np.empty(terms.shape[:-1] + (terms.shape[-1] + 1,))
    cs[..., 0] = 0.0 if carry is None else carry
    cs[..., 1:] = terms
    np.cumsum(cs, axis=-1, out=cs)
    if carry is not None:
        carry[...] = cs[..., at]
    return cs


def _log_tables(model: Model) -> tuple[np.ndarray, ...]:
    """The float log tables that a window's log-measure is summed from: the
    per-symbol logs of a finite i.i.d. law, or a Markov chain's stationary
    and transition logs, -inf where a probability is 0 (never drawn); none
    for the geometric and CF laws."""
    with np.errstate(divide="ignore"):
        if isinstance(model, MarkovModel):
            return np.log(np.asarray(model._pi_floats)), np.log(np.asarray(model._t_floats))
        if isinstance(model, IidModel) and model.probs is not None:
            return (np.log(np.asarray(model._floats)),)
    return ()


def _one_window_measure(model: Model) -> bool:
    """Whether every finite entry of each of the model's float log tables
    has one value: an i.i.d. law uniform on its support, or a chain whose
    stationary logs and positive-transition logs are each one float.  Every
    stream then sums the same floats in the same order, so it scans to the
    same phi1 value as any other, bit for bit."""
    tables = [t[np.isfinite(t)] for t in _log_tables(model)]
    return bool(tables) and all(t.min() == t.max() for t in tables)


def _window_log_mu(model: Model, k: int) -> Callable[..., np.ndarray]:
    """The function from a symbol array to the float log-measures of the
    length-k windows along its last axis, with the model's log tables
    computed once.

    A log-measure is the difference of two sequential cumulative sums of
    per-symbol (i.i.d.) or per-transition (Markov) logs.  Given a ``carry``
    (one float per row, 0.0 at each stream's start), the sums start there,
    and the function sets it to the sum at the first window past the array's
    own: the next chunk of the rows, led by this one's last k - 1 symbols,
    then continues every partial sum as the same float as one sum over the
    whole rows.  CF windows are measured one by one and need no carry.
    """
    tables = _log_tables(model)
    if isinstance(model, IidModel):
        if tables:
            per = tables[0].__getitem__
        else:
            r = model._r_float
            head, step = math.log1p(-r), math.log(r)

            def per(x: np.ndarray) -> np.ndarray:
                return head + x * step

        def iid(x: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
            n_win = x.shape[-1] - k + 1
            cs = _sums(per(x), carry, n_win)
            return cs[..., k:] - cs[..., :n_win]
        return iid
    if isinstance(model, MarkovModel):
        logpi, logt = tables

        def markov(x: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
            n_win = x.shape[-1] - k + 1
            # a window of one symbol has no transition, so with k = 1 the
            # carry is never read and takes the last sum
            cs = _sums(logt[x[..., :-1], x[..., 1:]], carry, min(n_win, x.shape[-1] - 1))
            return logpi[x[..., :n_win]] + (cs[..., k - 1:] - cs[..., :n_win])
        return markov

    def cf(x: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
        # the digit bounds _check_word puts on a CF word, checked once per array
        if x.min() < 1 or x.max() >= GaussCFModel.DIGIT_CAP:
            raise ValueError("CF digits must lie in [1, 2**63)")
        n_win = x.shape[-1] - k + 1
        # a measure that underflows to 0 takes log -inf: its window adds 0
        return np.array([[math.log(p) if (p := gauss_cylinder_prob(xs[i: i + k])) else -math.inf
                          for i in range(n_win)] for xs in x.reshape(-1, x.shape[-1]).tolist()]
                        ).reshape(x.shape[:-1] + (n_win,))
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

    The streams are asked for ``n_scan + k - 1`` symbols, n_scan the reach
    of S (``_scan_reach``): with a positive lower bound mu_min on a word's
    measure, the last start whose float product can still land in S under a
    stated bound on the float error of a log-measure; otherwise N_cap.  A
    block of streams is scanned about _SCAN_BLOCK windows at a time: the
    log-measures of a chunk come from one cumulative sum along its rows,
    carried from chunk to chunk, so every scanned window has the float
    measure and hit of one scan over all N_cap windows.  Each row's hits are
    summed once, in order, so each value is that full scan's bit for bit.
    """
    if N_cap < k:
        raise ConfigError("N_cap must be at least k")
    sup = float(S.sup)
    mu_min = _positive_min_word_prob(model, k)
    complete = sup == 0.0 or (mu_min > 0.0 and N_cap >= sup / mu_min)
    length = _scan_reach(model, k, sup, N_cap) + k - 1
    blocks = streams(length)  # first: the caller may refuse the length
    log_mu = _window_log_mu(model, k)
    bounds = [(float(iv.lo), float(iv.hi), iv.lo_closed, iv.hi_closed)
              for iv in S.intervals]
    values = []
    for gen in blocks:
        carry, found = np.zeros(len(gen.seeds)), []
        for offset, x in _chunks(gen, length, k, _SCAN_BLOCK):
            mu = np.exp(log_mu(x, carry))
            at = mu * np.arange(offset + 1, offset + mu.shape[1] + 1, dtype=np.float64)
            hit = np.zeros(at.shape, dtype=bool)
            for lo, hi, lo_closed, hi_closed in bounds:
                hit |= ((at >= lo) if lo_closed else (at > lo)) \
                    & ((at <= hi) if hi_closed else (at < hi))
            # the hits of each row, in order: cut from the block's row-major hits
            flat, ends = mu[hit], np.cumsum(hit.sum(axis=1)).tolist()
            found.append([flat[a:b] for a, b in zip([0, *ends], ends)])
        # one pairwise sum (np.sum's) over each row's hits, as the full scan takes it
        values += [float(np.add.reduce(row[0] if len(row) == 1 else np.concatenate(row)))
                   for row in zip(*found)]
        del x  # before the next block of streams allocates its own
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
    needs, at most x_cap.  Each stream is counted as the quenched runner
    counts its x (``_count_words``), in chunks of about _SCAN_BLOCK windows.
    A value is the exact mass of the fully countable words; words whose index
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
    plan_of, plans = _plan_words(model, words, [S], k, x_cap)
    counted = ~np.array([plan.cut[0] for plan in plans])
    js = [plan.js[0] for plan in plans]
    # exact mass of each plan's words: a plan's words share one measure
    sizes = np.bincount(plan_of, minlength=len(plans)).tolist()
    mass = [J.mu_w * n for J, n in zip(js, sizes)]
    truncated_mass = sum((m for m, c in zip(mass, counted) if not c), Fraction(0))
    counted_words = counted[plan_of]
    values = []
    for (counts,) in _count_words(streams, k, words, plan_of, plans, _SCAN_BLOCK):
        hits = np.bincount(plan_of[(counts == j) & counted_words], minlength=len(plans))
        values.append(float(sum(J.mu_w * n for J, n in zip(js, hits.tolist()) if n)))
    return np.array(values), float(truncated_mass)

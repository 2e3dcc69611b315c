"""Measure models on symbolic sequences and their samplers.

Three families:

* ``IidModel`` -- product measures, either a finite probability vector or a
  geometric-tail family p_a = (1-r) r^a on a countable alphabet;
* ``MarkovModel`` -- finite-state stationary chains with rational transition
  entries, started from the exact stationary law;
* ``GaussCFModel`` -- the continued-fraction digit process under the
  invariant density 1/((1+x) ln 2).

Cylinder probabilities are exact: rational arithmetic for iid/Markov, and
exact integer continuant endpoints for the CF model, with a single float
conversion at the very end (via log1p on an exact small ratio, so there is
no cancellation for deep cylinders).  All sampling is driven by the
counter-based stream in ``rng``, through one loop, ``SequenceGenerator.take``,
over one seed or an array of seeds (``draw`` is one take).  Every finite
law draws by integer thresholds on the raw values; the CF sampler draws each
digit from its exact conditional law given the digits before it, carried by
two floats whose update contracts, so float error does not grow with n (it
never iterates the expanding Gauss map).  After a head of about 20 digits the CF
law needs only + - * /, ceil and comparisons, and those digits are stepped
in numpy over coupled blocks: each block starts early from a fixed state and
is kept only where it meets the previous block's state bit for bit, so the
digits are the sequential ones.  ``contraction_profile`` gives the cylinder
decay (rho, K); ``mixing_concentration.mixing_profile`` adds (T, sigma, R).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UnsupportedModelError
from .point_process import parse_rational
from .rng import MASK64, counter_steps, raw_block
from .words import Word, as_word

_LN2 = math.log(2.0)

# CF digits are drawn from the one-ratio law once |delta| is below this
# (_cf_digits)
_DEEP_DELTA = 1e-17
_DRAW_BLOCK = 1 << 16  # raw values per raw_block call of SequenceGenerator.take
# the deep CF digits are stepped in blocks of _DEEP_BLOCK, each started
# _DEEP_WARMUP digits early (_deep_digits)
_DEEP_BLOCK = 64
_DEEP_WARMUP = 64


def _finite_law(values, what: str) -> tuple[Fraction, ...]:
    """A finite probability law: every entry a nonnegative rational
    (``parse_rational``) and the entries within 1e-12 of summing to 1, then
    divided by their exact sum, so they sum to exactly 1."""
    law = tuple(parse_rational(v, what) for v in values)
    if any(p < 0 for p in law):
        raise ValueError(f"{what}: entries must be nonnegative")
    total = sum(law)
    if abs(total - 1) > 1e-12:
        raise ValueError(f"{what}: entries must sum to 1 within 1e-12")
    return tuple(p / total for p in law)


@dataclass(frozen=True)
class MixingProfile:
    """Constants describing contraction and mixing of a model.

    ``rho``/``K`` bound cylinder decay (mu_k <= K rho^k), ``T``/``sigma``
    bound the exponential psi-mixing ratio deviation, ``R`` bounds joint
    over product distortion.  ``provenance`` tags each populated field as
    EXACT, DERIVED, ESTIMATED or ASSUMED.
    """

    T: float | None = None
    sigma: float | None = None
    rho: float | None = None
    K: float | None = None
    R: float | None = None
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.sigma is not None and not 0.0 <= self.sigma < 1.0:
            raise ValueError("sigma must be in [0, 1)")
        if self.rho is not None and not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.K is not None and self.K <= 0.0:
            raise ValueError("K must be positive")
        if self.T is not None and self.T < 0.0:
            raise ValueError("T must be nonnegative")
        if self.R is not None and self.R < 1.0:
            raise ValueError("R must be >= 1")


@dataclass(eq=True)
class IidModel:
    """Product measure: finite ``probs`` vector or geometric ``tail_ratio``."""

    probs: tuple[Fraction, ...] | None = None
    tail_ratio: Fraction | None = None

    def __post_init__(self):
        if (self.probs is None) == (self.tail_ratio is None):
            raise ValueError("exactly one of probs / tail_ratio must be given")
        if self.probs is not None:
            self.probs = _finite_law(self.probs, "probs")
            if len(self.probs) < 2:
                raise ValueError("need at least two symbols")
            self._floats = np.array([float(p) for p in self.probs])
            self._thresholds = np.array(_raw_thresholds(self._floats), dtype=np.uint64)
        else:
            r = parse_rational(self.tail_ratio, "tail_ratio")
            if not 0 < r < 1:
                raise ValueError("tail_ratio must be in (0, 1)")
            self.tail_ratio = r
            self._r_float = float(r)
            self._log_r = math.log(self._r_float)

    @property
    def alphabet_size(self) -> int | None:
        return len(self.probs) if self.probs is not None else None

    def symbol_prob(self, a: int) -> Fraction:
        if a < 0:
            raise ValueError("symbols are nonnegative")
        if self.probs is not None:
            if a >= len(self.probs):
                raise ValueError(f"symbol {a} outside alphabet of size {len(self.probs)}")
            return self.probs[a]
        return (1 - self.tail_ratio) * self.tail_ratio**a

    def symbols(self, raw: np.ndarray, out: np.ndarray,
                scratch: np.ndarray | None = None) -> np.ndarray:
        """Fill ``out`` with the symbols that the raw stream values ``raw``
        (``rng.value_at``) draw: the number of ``_raw_thresholds`` at or below
        each value, or under ``tail_ratio`` the inverse CDF of the uniform
        ``(raw >> 11) * 2**-53``, settled against the float CDF 1 - r**(a+1).
        The tail law overwrites ``raw`` with its uniforms and works in
        ``scratch``, a uint64 array of raw's shape (allocated when not given)."""
        if self.probs is None:  # in place, over raw, scratch and one flag buffer
            r = self._r_float
            u, t = raw.view(np.float64), (np.empty_like(raw) if scratch is None
                                          else scratch).view(np.float64)
            up = np.empty(raw.shape, dtype=bool)
            np.multiply(np.right_shift(raw, 11, out=raw), 2.0**-53, out=u)
            np.divide(np.log1p(np.negative(u, out=t), out=t), self._log_r, out=t)
            out[...] = np.maximum(np.floor(t, out=t), 0, out=t)
            for _ in range(2):
                np.subtract(1.0, np.power(r, np.add(out, 1.0, out=t), out=t), out=t)
                out += np.greater_equal(u, t, out=up)
            for _ in range(2):  # none steps down from 0: u < 1 - r**0 = 0 never holds
                t[...] = out
                out -= np.less(u, np.subtract(1.0, np.power(r, t, out=t), out=t), out=up)
            return out
        if len(self._thresholds) == 0:
            out[...] = 0
            return out
        np.greater_equal(raw, self._thresholds[0], out=out)
        for t in self._thresholds[1:]:
            out += raw >= t
        return out


def _raw_thresholds(probs: np.ndarray) -> list[int]:
    """The raw values at which a finite law's draw steps up: u >= c exactly
    when raw >= ceil(c * 2**53) << 11, for u = (raw >> 11) * 2**-53 and each
    cumulative value c but the last; u < 1 never reaches 2**53 (c >= 1)."""
    ceils = (math.ceil(c * 2.0**53) for c in np.cumsum(probs)[:-1])
    return [t << 11 for t in ceils if t < 1 << 53]


def _stationary_exact(P: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, ...]:
    """Exact stationary vector of a rational stochastic matrix (pi P = pi)."""
    s = len(P)
    # rows of (P^T - I), last one replaced by the normalization constraint
    M = [[P[j][i] - (1 if i == j else 0) for j in range(s)] for i in range(s)]
    M[s - 1] = [Fraction(1)] * s
    b = [Fraction(0)] * (s - 1) + [Fraction(1)]
    aug = [row[:] + [b[i]] for i, row in enumerate(M)]
    for col in range(s):
        piv = next((r for r in range(col, s) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("transition matrix is not irreducible")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(s):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    pi = tuple(aug[i][s] for i in range(s))
    if any(p <= 0 for p in pi):
        raise ValueError("transition matrix has no positive stationary vector")
    return pi


def _is_primitive(P) -> bool:
    s = len(P)
    B = [[P[i][j] > 0 for j in range(s)] for i in range(s)]
    A = B
    for _ in range(s * s + 1):
        if all(all(row) for row in A):
            return True
        A = [[any(A[i][t] and B[t][j] for t in range(s)) for j in range(s)] for i in range(s)]
    return False


@dataclass(eq=True)
class MarkovModel:
    """Stationary finite-state chain with exact rational transition matrix."""

    transition: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        P = tuple(_finite_law(row, f"transition[{i}]")
                  for i, row in enumerate(self.transition))
        s = len(P)
        if s < 2 or any(len(row) != s for row in P):
            raise ValueError("transition must be square with at least two states")
        if not _is_primitive(P):
            raise ValueError("chain must be irreducible and aperiodic")
        self.transition = P
        self.pi = _stationary_exact(P)
        self._t_floats = np.array([[float(v) for v in row] for row in P])
        self._pi_floats = np.array([float(v) for v in self.pi])
        # the raw thresholds of each row, then of pi, which the start (state -1) draws from
        self._thresholds = tuple(map(_raw_thresholds, [*self._t_floats, self._pi_floats]))
        self._powers = [P]  # P, P^2, ..., extended by matrix_power

    @property
    def alphabet_size(self) -> int:
        return len(self.transition)

    def matrix_power(self, m: int) -> tuple[tuple[Fraction, ...], ...]:
        """Exact m-th power of the transition matrix; every power up to m is
        computed once, by one product with P each, and kept."""
        if m < 1:
            raise ValueError("power must be >= 1")
        powers = self._powers
        while len(powers) < m:
            powers.append(_frac_matmul(powers[-1], self.transition))
        return powers[m - 1]


def _frac_matmul(A, B):
    s = len(A)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(s)) for j in range(s))
        for i in range(s)
    )


@dataclass(eq=True)
class GaussCFModel:
    """Continued-fraction digit process under the invariant Gauss density.

    The model takes no parameters.  ``mixing_concentration.mixing_profile``
    reads the assumed psi-mixing pair (T, sigma) below and tags it ASSUMED,
    and ``model_to_spec`` records it in every CF report.
    """

    PSI_T: ClassVar[float] = 1.0
    PSI_SIGMA: ClassVar[float] = 0.303
    DIGIT_CAP: ClassVar[int] = 1 << 63

    @property
    def alphabet_size(self) -> None:
        return None


Model = IidModel | MarkovModel | GaussCFModel


def model_from_spec(spec: dict) -> Model:
    """Build a model from its JSON configuration object."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("model spec must be an object with a 'type' field")
    kind = spec["type"]
    keys = {"iid": {"probs", "tail_ratio"}, "markov": {"transition"},
            "gauss_cf": set()}.get(kind if isinstance(kind, str) else None)
    if keys is None:
        raise ValueError(f"unknown model type {kind!r}")
    unknown = sorted(str(key) for key in spec if key != "type" and key not in keys)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} for model type {kind!r}")
    if kind == "iid":
        if ("probs" in spec) == ("tail_ratio" in spec):
            raise ValueError("iid model needs exactly one of 'probs' and 'tail_ratio'")
        if "probs" in spec:
            return IidModel(probs=tuple(spec["probs"]))
        return IidModel(tail_ratio=spec["tail_ratio"])
    if kind == "markov":
        if "transition" not in spec:
            raise ValueError("markov model needs 'transition'")
        return MarkovModel(transition=tuple(tuple(row) for row in spec["transition"]))
    return GaussCFModel()


def model_to_spec(model: Model) -> dict:
    if isinstance(model, IidModel):
        if model.probs is not None:
            return {"type": "iid", "probs": [str(p) for p in model.probs]}
        return {"type": "iid", "tail_ratio": str(model.tail_ratio)}
    if isinstance(model, MarkovModel):
        return {"type": "markov",
                "transition": [[str(v) for v in row] for row in model.transition]}
    return {"type": "gauss_cf", "psi_T": GaussCFModel.PSI_T,
            "psi_sigma": GaussCFModel.PSI_SIGMA}


# ---------------------------------------------------------------------------
# cylinder probabilities


def _check_word(model: Model, w) -> Word:
    w = as_word(w)
    if not w:
        raise ValueError("cylinder of the empty word is the whole space; pass a word")
    if isinstance(model, GaussCFModel):
        if any(s < 1 for s in w):
            raise ValueError("CF digits are >= 1")
        if any(s >= GaussCFModel.DIGIT_CAP for s in w):
            raise ValueError("CF digit exceeds the 2**63 cap")
    elif model.alphabet_size is not None:
        if any(s >= model.alphabet_size for s in w):
            raise ValueError("symbol outside the model alphabet")
    return w


def cf_continuants(w: Sequence[int]) -> tuple[int, int, int, int]:
    """Exact continuant pairs (p, q, p_prev, q_prev) of the digit word w."""
    pp, qq, p, q = 1, 0, 0, 1
    for d in w:
        d = int(d)
        if d < 1:
            raise ValueError("CF digits are >= 1")
        p, pp = d * p + pp, p
        q, qq = d * q + qq, q
    return p, q, pp, qq


def _gauss_log_ratio_ints(w: Sequence[int]) -> tuple[int, int]:
    """Integers (N, D) with cylinder measure = |log2(N/D)|, N/D in (1/2, 2)."""
    p, q, pp, qq = cf_continuants(w)
    return (p + pp + q + qq) * q, (q + qq) * (p + q)


def gauss_cylinder_prob(w: Sequence[int]) -> float:
    N, D = _gauss_log_ratio_ints(w)
    return abs(math.log1p((N - D) / D)) / _LN2


def gauss_cylinder_prob_high(w: Sequence[int], dps: int = 50):
    """Cylinder measure as an mpmath float at ``dps`` decimal digits."""
    import mpmath

    N, D = _gauss_log_ratio_ints(w)
    with mpmath.workdps(dps):
        return abs(mpmath.log1p(mpmath.mpf(N - D) / mpmath.mpf(D))) / mpmath.log(2)


def cylinder_prob_exact(model: Model, w: Sequence[int]) -> Fraction:
    """Exact rational cylinder probability (iid and Markov models only)."""
    w = _check_word(model, w)
    if isinstance(model, IidModel):
        out = Fraction(1)
        for s in w:
            out *= model.symbol_prob(s)
        return out
    if isinstance(model, MarkovModel):
        out = model.pi[w[0]]
        for a, b in zip(w, w[1:]):
            out *= model.transition[a][b]
        return out
    raise UnsupportedModelError("CF cylinder measures are irrational; use cylinder_prob")


def cylinder_prob(model: Model, w: Sequence[int]) -> float:
    """Cylinder probability as a float (exact arithmetic up to the last step)."""
    if isinstance(model, GaussCFModel):
        return gauss_cylinder_prob(_check_word(model, w))
    return float(cylinder_prob_exact(model, w))


def cylinder_prob_guarded(model: Model, w: Sequence[int]) -> tuple[object, Callable | None]:
    """The cylinder measure as ``j_set`` takes it: ``(mu, mu_high)``.

    Exact rational ``mu`` and no refinement for iid and Markov models; for
    the CF model the float measure plus ``dps -> mu`` at that precision, for
    the guard band around target-set endpoints.
    """
    if isinstance(model, GaussCFModel):
        w = _check_word(model, w)
        return gauss_cylinder_prob(w), lambda dps: gauss_cylinder_prob_high(w, dps)
    return cylinder_prob_exact(model, w), None


# ---------------------------------------------------------------------------
# sequence generation


def draw_buffers(symbols: int) -> np.ndarray:
    """A raw and scratch pair for ``SequenceGenerator.take``'s ``buffers``
    that serves every take of at most ``symbols`` symbols in all."""
    return np.empty((2, min(_DRAW_BLOCK, symbols)), dtype=np.uint64)


class SequenceGenerator:
    """Deterministic sampler of a model's stationary symbol streams, one per
    seed of ``seed`` (an int or an array).  Pure function of (model, seed):
    the i-th symbol of a stream only depends on the counter-based stream
    values at indices up to its own, so streams are reproducible and replicas
    with derived seeds are independent.  Each row keeps its own state, so
    takes of any sizes continue the streams.
    """

    def __init__(self, model: Model, seed):
        self.model = model
        self._one = np.ndim(seed) == 0
        self.seeds = np.array([int(seed) & MASK64] if self._one else seed, dtype=np.uint64)
        m = len(self.seeds)
        # the symbols' dtype: the narrowest unsigned one for a finite i.i.d. law, else int64
        finite = isinstance(model, IidModel) and model.probs is not None
        self.dtype = np.dtype(np.min_scalar_type(len(model.probs) - 1) if finite else np.int64)
        # a finite law whose every threshold is a multiple of 2**33 (each
        # cumulative probability a multiple of 2**-31) reads only the bits
        # that the mix's last step keeps, so its draw leaves that step out;
        # the tail and CF laws read raw >> 11 and keep it
        laws = ([model._thresholds] if finite else
                model._thresholds if isinstance(model, MarkovModel) else None)
        self._full_mix = laws is None or any(int(t) % (1 << 33) for law in laws for t in law)
        self.emitted = 0
        self._state = [-1] * m  # each Markov chain's last state; -1 before the first
        # CF: s = q_{n-1}/q_n and delta = (p_{n-1}+q_{n-1})/(p_n+q_n) - s for
        # the cylinder of each row's digits so far (continuants as cf_continuants)
        self._s, self._delta = np.zeros(m), np.ones(m)
        self.restepped = 0  # CF: blocks of deep digits re-stepped (_deep_digits)

    def take(self, n: int, out: np.ndarray | None = None,
             buffers: np.ndarray | None = None) -> np.ndarray:
        """The next ``n`` symbols of every stream: 1-D for an int seed, else
        one row per seed, of ``self.dtype``.  With ``out``, a (seeds, n)
        array of that dtype (a view into a caller's block, say), they are
        written there instead of to a new array.  Rows are drawn together in
        blocks of whole rows or row pieces of about _DRAW_BLOCK values.

        Each block's raw values and the mixing's temporaries go to the two
        rows of ``buffers`` (``draw_buffers(seeds * n)`` or larger), which a
        caller drawing many takes holds next to its symbol block; without
        it the pair is allocated for this take.  With it a finite law's take
        allocates nothing but its counter offsets.  A finite law whose
        thresholds are all multiples of 2**33 leaves out the mix's last step
        (``rng.raw_block``, ``full``): it reads no bit that step changes.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        model, seeds = self.model, self.seeds
        if out is None:
            out = np.empty((len(seeds), n), dtype=self.dtype)
        elif out.shape != (len(seeds), n) or out.dtype != self.dtype:
            raise ValueError(f"out must be a {(len(seeds), n)} array of {self.dtype}")
        width = max(1, min(n, _DRAW_BLOCK))
        height = max(1, _DRAW_BLOCK // width)
        size = min(height, len(seeds)) * min(n, width)
        if buffers is None:
            buffers = draw_buffers(size)
        elif buffers.dtype != np.uint64 or buffers.ndim != 2 or len(buffers) != 2 \
                or buffers.shape[1] < size:
            raise ValueError(f"buffers must be a (2, >= {size}) uint64 array")
        raw, scratch = (b[:size].reshape(-1, width) for b in buffers)
        for c0 in range(0, n, width):
            cols = min(width, n - c0)
            steps = counter_steps(self.emitted + c0, cols)
            for r0 in range(0, len(seeds), height):
                rows = slice(r0, r0 + height)
                block = out[rows, c0:c0 + cols]
                values, tmp = raw[:len(block), :cols], scratch[:len(block), :cols]
                raw_block(seeds[rows], self.emitted + c0, cols, values, tmp, steps,
                          full=self._full_mix)
                if isinstance(model, IidModel):
                    model.symbols(values, block, tmp)
                elif isinstance(model, MarkovModel):
                    for r, row in enumerate(values.tolist(), r0):
                        block[r - r0] = states = _markov_states(
                            model._thresholds, self._state[r], row)
                        self._state[r] = states[-1]
                else:  # the uniforms of rng.uniform_block, over the scratch buffer
                    us = tmp.view(float)
                    np.multiply(np.right_shift(values, 11, out=values), 2.0**-53, out=us)
                    self.restepped += _cf_digits(self._s[rows], self._delta[rows], us, block)
        self.emitted += n
        return out[0] if self._one else out


def _markov_states(thresholds, state: int, raws: list[int]) -> list[int]:
    """The states that the raw values draw one after another from ``state``
    (-1 before the first): each the number of thresholds of the current
    state's row (of pi at the start) at or below its value."""
    return [state := bisect_right(thresholds[state], raw) for raw in raws]


def _gauss_head(s: np.ndarray, delta: np.ndarray, us: np.ndarray, out: np.ndarray
                ) -> np.ndarray:
    """Write to each row of ``out`` the digits of that row of uniforms ``us``
    one at a time, with libm's log1p and expm1, while the row's |delta| >=
    _DEEP_DELTA (the first ~20 digits of a stream); update the rows' states
    ``s`` and ``delta`` in place and return how many digits each row drew."""
    log1p, expm1, ceil = math.log1p, math.expm1, math.ceil
    heads = np.zeros(len(us), dtype=np.int64)
    for r in np.flatnonzero(np.abs(delta) >= _DEEP_DELTA).tolist():
        row, s_r, d_r = us[r], float(s[r]), float(delta[r])
        head = 0
        while head < len(row) and abs(d_r) >= _DEEP_DELTA:
            t = 1.0 - float(row[head])
            full = log1p(d_r / (1.0 + s_r))
            if log1p(d_r / (2.0 + s_r)) / full <= t:
                d = 1
            else:
                # delta/(a+s) as delta * (1/a) / (1 + s/a): 1/a is a correctly
                # rounded int division, so the first digit (s = 0, delta = 1)
                # is decided exactly even past 2**53, where a + s rounds
                a = max(3, ceil(d_r / expm1(t * full) - s_r))
                while log1p(d_r * (1 / a) / (1.0 + s_r / a)) / full > t:
                    a += 1
                while a > 3 and log1p(d_r * (1 / (a - 1))
                                      / (1.0 + s_r / (a - 1))) / full <= t:
                    a -= 1
                d = a - 1
            out[r, head] = d
            head += 1
            ds = d + s_r
            s_r, d_r = 1.0 / ds, -d_r / ((ds + d_r) * ds)
        s[r], delta[r], heads[r] = s_r, d_r, head
    return heads


def _deep_step(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One deep-regime digit of every lane: d = (smallest a >= 2 with
    (1+s)/(a+s) <= t in float) - 1, and the next state 1/(d+s).

    The start ceil((1+s)/t - s) is settled up and down against that float
    comparison, which is monotone in a, so the settle finds the smallest a
    from any start (d = 1 where it stops at a = 2).  ``a`` is an int64 that
    numpy rounds to float64 in a + s as Python rounds an int, so every lane
    is bit for bit the scalar rule, also for the digits past 2**53 that a
    uniform within a few ulps of 1 draws.
    """
    c = 1.0 + s
    a = np.maximum(np.ceil(c / t - s), 2.0).astype(np.int64)
    while (up := c / (a + s) > t).any():
        a += up
    while True:
        d = a - 1
        ds = d + s
        down = (d > 1) & (c / ds <= t)
        if not down.any():
            return d, 1.0 / ds
        a -= down


def _deep_digits(s: np.ndarray, t: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, int]:
    """Write to ``out`` the deep-regime digits of the (m, n) thresholds
    t = 1 - u, one stream per row, starting from the states ``s``; return
    each stream's final state and the number of blocks re-stepped.

    Each stream's digits are cut into blocks of _DEEP_BLOCK, and the blocks
    of all streams are stepped together by ``_deep_step``: block 0 covers the
    first _DEEP_WARMUP + _DEEP_BLOCK digits from the true state, and every
    later block starts _DEEP_WARMUP digits before its first digit, from
    s = 0.  The state contracts, so by its first digit a block's state is
    almost always the previous block's final state bit for bit, and from
    there every digit is the sequential one.  A block whose state differs is
    re-stepped from that final state (with the blocks that fail after it,
    until none does), so the digits are those of the sequential rule by
    construction.
    """
    m, n = t.shape
    warmup, block = _DEEP_WARMUP, _DEEP_BLOCK
    rows = max(1, -(-(n - warmup) // block))
    if rows == 1:
        warmup, block = 0, n
    width, span = warmup + block, warmup + rows * block
    digits = out if span == n else np.empty((m, span), dtype=np.int64)
    if span > n:  # pad the last blocks with any valid threshold
        t = np.concatenate([t, np.full((m, span - n), 0.5)], axis=1)
    # (stream, block, column) views
    ts = sliding_window_view(t, width, axis=1)[:, ::block]
    ds = sliding_window_view(digits, width, axis=1, writeable=True)[:, ::block]
    state = np.zeros((m, rows))
    state[:, 0] = s
    first = state  # each block's state at its first digit
    for j in range(width):
        d, state = _deep_step(state, ts[:, :, j])
        if j < warmup:
            ds[:, 0, j] = d[:, 0]
        else:
            ds[:, :, j] = d
        if j == warmup - 1:
            first = state
    final, restepped = state, 0
    while len((bad := np.nonzero(first[:, 1:].view(np.uint64)
                                 != final[:, :-1].view(np.uint64)))[0]):
        r, b = bad[0], bad[1] + 1
        state = first[r, b] = final[r, b - 1]
        for j in range(warmup, width):
            d, state = _deep_step(state, ts[r, b, j])
            ds[r, b, j] = d
        final[r, b] = state
        restepped += len(r)
    if digits is not out:
        out[:] = digits[:, :n]
    # the state after digit n: the last blocks' digits replayed from their first
    s = first[:, -1]
    for d in digits[:, span - block: n].T:
        s = 1.0 / (d + s)
    return s, restepped


def _cf_digits(s: np.ndarray, delta: np.ndarray, us: np.ndarray, out: np.ndarray) -> int:
    """Write to ``out`` the next CF digits of the streams in states ``s`` and
    ``delta``, one row each and one digit per uniform of that row of ``us``,
    each from its exact conditional law given the digits before it; advance
    the states in place and return the number of blocks re-stepped.

    Given the cylinder so far, the next digit is >= a with probability
    tail(a) = log1p(delta/(a+s)) / log1p(delta/(1+s)), and the uniform u
    draws (smallest a >= 2 with tail(a) <= 1-u) - 1.  The inverse
    a = delta/expm1((1-u) log1p(delta/(1+s))) - s finds that a up to
    rounding; stepping it up or down against the float comparison
    tail(a) <= 1-u settles it.  delta shrinks like q_n^-2; once
    |delta| < 1e-17, log1p(x) == x in float for every |x| <= |delta| and
    the law is tail(a) = (1+s)/(a+s).  The updates s' = 1/(d+s) and
    delta' = -delta/((d+s+delta)(d+s)) contract, so float error does not
    grow along the stream.

    ``_gauss_head`` draws each row's head, the digits before |delta| <
    1e-17; ``_deep_step`` the deep digits of the rows that leave their head
    first, until every row has; ``_deep_digits`` the rest of every row.
    """
    heads = _gauss_head(s, delta, us, out)
    start = int(heads.max())
    for j in range(int(heads.min()), start):
        lanes = np.flatnonzero(heads <= j)
        out[lanes, j], s[lanes] = _deep_step(s[lanes], 1.0 - us[lanes, j])
    if start == us.shape[1]:
        return 0
    s[:], restepped = _deep_digits(s, 1.0 - us[:, start:], out[:, start:])
    return restepped


def draw(model: Model, seeds: np.ndarray, length: int) -> np.ndarray:
    """(len(seeds), length) symbol matrix: row r is the first ``length``
    symbols of the stream with seed ``seeds[r]``."""
    return SequenceGenerator(model, seeds).take(length)


# ---------------------------------------------------------------------------
# profiles


def contraction_profile(model: Model) -> MixingProfile:
    """Cylinder-decay constants (rho, K) with provenance."""
    if isinstance(model, GaussCFModel):
        # CF cylinders satisfy mu_k <= (2/ln 2) 2^-k (interval length
        # 1/(q_k q_{k+1}) against density <= 1/ln 2, with q_k >= 2^((k-1)/2)).
        rho, K = 0.5, 2.0 / _LN2
    elif isinstance(model, MarkovModel):
        rho = float(max(max(row) for row in model.transition))
        if rho >= 1.0:
            raise ValueError("degenerate chain: a transition has probability 1")
        K = float(max(model.pi)) / rho
    else:
        rho = (1.0 - float(model.tail_ratio) if model.probs is None
               else max(float(p) for p in model.probs))
        if rho >= 1.0:
            raise ValueError("degenerate model: a symbol has probability 1")
        K = 1.0
    return MixingProfile(rho=rho, K=K, provenance=(("K", "EXACT"), ("rho", "EXACT")))

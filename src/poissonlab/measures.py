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
counter-based stream in ``rng``, through ``draw``; every finite law draws by
integer thresholds on the raw values, and the CF sampler draws each digit
from its exact conditional law given the digits before it, carried by two
floats whose update contracts, so float error does not grow with n (it never
iterates the expanding Gauss map).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import UnsupportedModelError
from .point_process import parse_rational
from .rng import MASK64, raw_block
from .words import Word, as_word

_LN2 = math.log(2.0)

# CF digits are drawn from the one-ratio law once |delta| is below this
# (SequenceGenerator._gauss_digits)
_DEEP_DELTA = 1e-17
_DRAW_BLOCK = 1 << 16  # raw values per raw_block call of draw() and take()
# lags m = 1..50 of the Markov psi-mixing certificate (mixing_profile)
_PSI_LAGS = 50


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

    def symbols(self, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the symbols that the raw stream values ``raw``
        (``rng.value_at``) draw: the number of ``_raw_thresholds`` at or below
        each value, or under ``tail_ratio`` the inverse CDF of the uniform
        ``(raw >> 11) * 2**-53``, settled against the float CDF 1 - r**(a+1)."""
        if self.probs is None:
            u, r = (raw >> np.uint64(11)) * 2.0**-53, self._r_float
            a = np.maximum(np.floor(np.log1p(-u) / self._log_r), 0).astype(np.int64)
            for _ in range(2):
                a += u >= 1.0 - np.power(r, a + 1.0)
            for _ in range(2):
                a -= (a > 0) & (u < 1.0 - np.power(r, a.astype(np.float64)))
            out[...] = a
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

    The model takes no parameters.  Its psi-mixing pair (T, sigma) is not
    derived here: ``mixing_profile`` reads the assumed certificate below and
    tags it ASSUMED, and ``model_to_spec`` records it in every CF report.
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


class SequenceGenerator:
    """Deterministic sampler of one model's stationary symbol stream.

    Pure function of (model, seed): the i-th emitted symbol only depends on
    the counter-based stream values at indices up to its own, so streams are
    reproducible and replicas with derived seeds are independent.
    """

    def __init__(self, model: Model, seed: int):
        self.model = model
        self.seed = seed & MASK64
        self.emitted = 0
        self._state = -1  # the Markov chain's last state; -1 before the first
        # CF: s = q_{n-1}/q_n and delta = (p_{n-1}+q_{n-1})/(p_n+q_n) - s for
        # the cylinder of the digits so far (continuants as cf_continuants)
        self._s, self._delta = 0.0, 1.0

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        model = self.model
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _DRAW_BLOCK):
            block = out[lo: lo + _DRAW_BLOCK]
            raw = raw_block(self.seed, self.emitted, len(block))
            self.emitted += len(block)
            if isinstance(model, IidModel):
                model.symbols(raw, block)
            elif isinstance(model, MarkovModel):
                block[:] = self._markov_states(raw.tolist())
            else:  # the uniforms of rng.uniform_block
                block[:] = self._gauss_digits(((raw >> np.uint64(11)) * 2.0**-53).tolist())
        return out

    def _markov_states(self, raws: list[int]) -> list[int]:
        """The next states, one per raw value: the number of thresholds of the
        current state's row (of pi at the start) at or below the value."""
        rows, s, out = self.model._thresholds, self._state, []
        for raw in raws:
            s = bisect_right(rows[s], raw)
            out.append(s)
        self._state = s
        return out

    def _gauss_digits(self, us: list[float]) -> list[int]:
        """The next CF digits, one per uniform in ``us``, each from its exact
        conditional law given the digits before it.

        Given the cylinder so far, the next digit is >= a with probability
        tail(a) = log1p(delta/(a+s)) / log1p(delta/(1+s)), and the uniform u
        draws (smallest a >= 2 with tail(a) <= 1-u) - 1.  The inverse
        a = delta/expm1((1-u) log1p(delta/(1+s))) - s finds that a up to
        rounding; stepping it up or down against the float comparison
        tail(a) <= 1-u settles it.  delta shrinks like q_n^-2; once
        |delta| < 1e-17, log1p(x) == x in float for every |x| <= |delta| and
        the law is tail(a) = (1+s)/(a+s), with inverse (1+s)/(1-u) - s.  The
        updates s' = 1/(d+s) and delta' = -delta/((d+s+delta)(d+s)) contract,
        so float error does not grow along the stream.
        """
        log1p, expm1, ceil = math.log1p, math.expm1, math.ceil
        s, delta = self._s, self._delta
        out = []
        us = iter(us)
        if abs(delta) >= _DEEP_DELTA:
            for u in us:
                t = 1.0 - u
                full = log1p(delta / (1.0 + s))
                if log1p(delta / (2.0 + s)) / full <= t:
                    d = 1
                else:
                    # delta/(a+s) as delta * (1/a) / (1 + s/a): 1/a is a correctly
                    # rounded int division, so the first digit (s = 0, delta = 1)
                    # is decided exactly even past 2**53, where a + s rounds
                    a = max(3, ceil(delta / expm1(t * full) - s))
                    while log1p(delta * (1 / a) / (1.0 + s / a)) / full > t:
                        a += 1
                    while a > 3 and log1p(delta * (1 / (a - 1))
                                          / (1.0 + s / (a - 1))) / full <= t:
                        a -= 1
                    d = a - 1
                out.append(d)
                ds = d + s
                s, delta = 1.0 / ds, -delta / ((ds + delta) * ds)
                if abs(delta) < _DEEP_DELTA:
                    break
        for u in us:
            t = 1.0 - u
            c = 1.0 + s
            if c / (2.0 + s) <= t:
                d = 1
            else:
                a = max(3, ceil(c / t - s))
                while c / (a + s) > t:
                    a += 1
                while a > 3 and c / (a - 1 + s) <= t:
                    a -= 1
                d = a - 1
            out.append(d)
            s = 1.0 / (d + s)
        self._s, self._delta = s, delta
        return out


def draw(model: Model, seeds: np.ndarray, length: int) -> np.ndarray:
    """(len(seeds), length) symbol matrix: row r is the first ``length``
    symbols of the stream with seed ``seeds[r]``, symbol for symbol as
    ``SequenceGenerator(model, seeds[r]).take(length)``.  I.i.d. rows are drawn
    together in blocks of about _DRAW_BLOCK values: whole rows, or row pieces."""
    if not isinstance(model, IidModel):
        return np.stack([SequenceGenerator(model, sd).take(length) for sd in seeds.tolist()])
    dtype = np.int64 if model.probs is None else np.min_scalar_type(len(model.probs) - 1)
    out = np.empty((len(seeds), length), dtype=dtype)
    width = max(1, min(length, _DRAW_BLOCK))
    height = max(1, _DRAW_BLOCK // width)
    for r0 in range(0, len(seeds), height):
        for c0 in range(0, length, width):
            block = out[r0:r0 + height, c0:c0 + width]
            model.symbols(raw_block(seeds[r0:r0 + height], c0, block.shape[1]), block)
    return out


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

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
counter-based stream in ``rng``; the CF sampler draws each digit from its
exact conditional law given the current cylinder and never iterates the
Gauss map in floating point, so there is no precision decay with n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import UnsupportedModelError
from .rng import MASK64, raw_block, uniform_at, uniform_block
from .words import Word, as_word

_LN2 = math.log(2.0)

# The CF sampler's continuant state is rebuilt from the most recent
# RENORM_WINDOW digits once 2*RENORM_WINDOW have accumulated, keeping the
# integers bounded.  Conditioning on the last 64 digits instead of the whole
# past perturbs the digit law by O(sigma^64) ~ 1e-33, far below the 1e-16
# resolution of the float CDF evaluation itself.
RENORM_WINDOW = 64
# take() draws the Markov and CF samplers' uniforms in blocks of this many,
# so a long stream never holds more than one block of them as Python floats
_UNIFORM_BLOCK = 1 << 20


def _to_fraction(x, what: str) -> Fraction:
    try:
        if isinstance(x, float):
            if not math.isfinite(x):
                raise ValueError("not finite")
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x.strip())
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"{what}: cannot interpret {x!r} as a rational") from exc


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

    @property
    def tags(self) -> dict:
        return dict(self.provenance)

    def merged(self, other: "MixingProfile") -> "MixingProfile":
        vals = {}
        for name in ("T", "sigma", "rho", "K", "R"):
            mine, theirs = getattr(self, name), getattr(other, name)
            vals[name] = mine if mine is not None else theirs
        prov = dict(other.provenance)
        prov.update(dict(self.provenance))
        return MixingProfile(provenance=tuple(sorted(prov.items())), **vals)


@dataclass(eq=True)
class IidModel:
    """Product measure: finite ``probs`` vector or geometric ``tail_ratio``."""

    probs: tuple[Fraction, ...] | None = None
    tail_ratio: Fraction | None = None

    kind: ClassVar[str] = "iid"

    def __post_init__(self):
        if (self.probs is None) == (self.tail_ratio is None):
            raise ValueError("exactly one of probs / tail_ratio must be given")
        if self.probs is not None:
            probs = tuple(_to_fraction(p, "probs") for p in self.probs)
            if len(probs) < 2:
                raise ValueError("need at least two symbols")
            if any(p < 0 or p > 1 for p in probs):
                raise ValueError("probabilities must lie in [0, 1]")
            if abs(float(sum(probs)) - 1.0) > 1e-12:
                raise ValueError("probabilities must sum to 1 within 1e-12")
            self.probs = probs
            self._floats = np.array([float(p) for p in probs])
            self._cum = np.cumsum(self._floats)
            # u >= c  <=>  (u * 2**53) >= ceil(c * 2**53)  <=>  raw >= that << 11,
            # for u = (raw >> 11) * 2**-53; u < 1 never reaches 2**53
            ceils = (math.ceil(c * 2.0**53) for c in self._cum[:-1])
            self._thresholds = np.array([t << 11 for t in ceils if t < 1 << 53],
                                        dtype=np.uint64)
        else:
            r = _to_fraction(self.tail_ratio, "tail_ratio")
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
        (``rng.value_at``) draw under a finite ``probs`` vector: the number of
        cumulative probabilities, all but the last, at or below the uniform
        ``(raw >> 11) * 2**-53``, compared as integers."""
        if len(self._thresholds) == 0:
            out[...] = 0
            return out
        np.greater_equal(raw, self._thresholds[0], out=out)
        for t in self._thresholds[1:]:
            out += raw >= t
        return out


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

    kind: ClassVar[str] = "markov"

    def __post_init__(self):
        rows = []
        for i, row in enumerate(self.transition):
            rows.append(tuple(_to_fraction(v, f"transition[{i}]") for v in row))
        P = tuple(rows)
        s = len(P)
        if s < 2 or any(len(row) != s for row in P):
            raise ValueError("transition must be square with at least two states")
        if any(v < 0 for row in P for v in row):
            raise ValueError("transition entries must be nonnegative")
        for i, row in enumerate(P):
            if abs(float(sum(row)) - 1.0) > 1e-12:
                raise ValueError(f"transition row {i} must sum to 1 within 1e-12")
        if not _is_primitive(P):
            raise ValueError("chain must be irreducible and aperiodic")
        self.transition = P
        self.pi = _stationary_exact(P)
        self._t_floats = np.array([[float(v) for v in row] for row in P])
        self._pi_floats = np.array([float(v) for v in self.pi])
        self._row_cums = tuple(tuple(np.cumsum(row)) for row in self._t_floats)
        self._pi_cum = tuple(np.cumsum(self._pi_floats))
        self._pow_cache: dict = {1: P}

    @property
    def alphabet_size(self) -> int:
        return len(self.transition)

    def matrix_power(self, m: int) -> tuple[tuple[Fraction, ...], ...]:
        """Exact m-th power of the transition matrix (cached, binary squaring)."""
        if m < 1:
            raise ValueError("power must be >= 1")
        cache = self._pow_cache
        if m in cache:
            return cache[m]
        half = self.matrix_power(m // 2)
        prod = _frac_matmul(half, half)
        if m % 2:
            prod = _frac_matmul(prod, self.transition)
        cache[m] = prod
        return prod


def _frac_matmul(A, B):
    s = len(A)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(s)) for j in range(s))
        for i in range(s)
    )


@dataclass(eq=True)
class GaussCFModel:
    """Continued-fraction digit process under the invariant Gauss density.

    The psi-mixing pair (T, sigma) is not derived here; it is an assumed,
    configurable certificate (defaults below), flagged ASSUMED in profiles.
    """

    psi_T: float = 1.0
    psi_sigma: float = 0.303

    kind: ClassVar[str] = "gauss_cf"
    DIGIT_CAP: ClassVar[int] = 1 << 63

    def __post_init__(self):
        if self.psi_T < 0 or not 0 <= self.psi_sigma < 1:
            raise ValueError("need psi_T >= 0 and psi_sigma in [0, 1)")

    @property
    def alphabet_size(self) -> None:
        return None


Model = IidModel | MarkovModel | GaussCFModel


def model_from_spec(spec: dict) -> Model:
    """Build a model from its JSON configuration object."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("model spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "iid":
        if "probs" in spec:
            return IidModel(probs=tuple(spec["probs"]))
        if "tail_ratio" in spec:
            return IidModel(tail_ratio=spec["tail_ratio"])
        raise ValueError("iid model needs 'probs' or 'tail_ratio'")
    if kind == "markov":
        if "transition" not in spec:
            raise ValueError("markov model needs 'transition'")
        return MarkovModel(transition=tuple(tuple(row) for row in spec["transition"]))
    if kind == "gauss_cf":
        return GaussCFModel(
            psi_T=float(spec.get("psi_T", 1.0)),
            psi_sigma=float(spec.get("psi_sigma", 0.303)),
        )
    raise ValueError(f"unknown model type {kind!r}")


def model_to_spec(model: Model) -> dict:
    if isinstance(model, IidModel):
        if model.probs is not None:
            return {"type": "iid", "probs": [str(p) for p in model.probs]}
        return {"type": "iid", "tail_ratio": str(model.tail_ratio)}
    if isinstance(model, MarkovModel):
        return {"type": "markov",
                "transition": [[str(v) for v in row] for row in model.transition]}
    return {"type": "gauss_cf", "psi_T": model.psi_T, "psi_sigma": model.psi_sigma}


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


def cylinder_prob_high(model: Model, w: Sequence[int], dps: int = 50):
    import mpmath

    if isinstance(model, GaussCFModel):
        return gauss_cylinder_prob_high(_check_word(model, w), dps)
    v = cylinder_prob_exact(model, w)
    with mpmath.workdps(dps):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)


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


def _signed_log2_ratio(N: int, D: int) -> float:
    # log2(N/D) for positive integers with N/D within a factor ~2 of 1;
    # the subtraction stays exact so deep cylinders lose no precision.
    return math.log1p((N - D) / D) / _LN2


class SequenceGenerator:
    """Deterministic sampler of one model's stationary symbol stream.

    Pure function of (model, seed): the i-th emitted symbol only depends on
    the counter-based uniforms at indices < its own, so streams are
    reproducible and replicas with derived seeds are independent.
    """

    def __init__(self, model: Model, seed: int):
        self.model = model
        self.seed = seed & MASK64
        self.emitted = 0
        if isinstance(model, MarkovModel):
            self._state: int | None = None
        elif isinstance(model, GaussCFModel):
            # continuants of the current (windowed) cylinder
            self._p, self._q, self._pp, self._qq = 0, 1, 1, 0
            self._recent: list[int] = []

    # -- scalar path

    def next(self) -> int:
        model = self.model
        if isinstance(model, MarkovModel):
            return self._markov_next(uniform_at(self.seed, self.emitted))
        if isinstance(model, GaussCFModel):
            return self._gauss_next(uniform_at(self.seed, self.emitted))
        return int(self.take(1)[0])

    # -- bulk path

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        model = self.model
        if isinstance(model, IidModel):
            if model.probs is not None:
                raw = raw_block(self.seed, self.emitted, n)
                self.emitted += n
                return model.symbols(raw, np.empty(n, dtype=np.int64))
            return self._geometric_take(n)
        step = self._markov_next if isinstance(model, MarkovModel) else self._gauss_next
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _UNIFORM_BLOCK):
            us = uniform_block(self.seed, self.emitted, min(_UNIFORM_BLOCK, n - lo))
            for i, u in enumerate(us.tolist(), start=lo):
                out[i] = step(u)
        return out

    def _geometric_take(self, n: int) -> np.ndarray:
        model = self.model
        u = uniform_block(self.seed, self.emitted, n)
        self.emitted += n
        r = model._r_float
        a = np.floor(np.log1p(-u) / model._log_r).astype(np.int64)
        a = np.maximum(a, 0)
        # settle float boundaries against the CDF 1 - r**(a+1)
        for _ in range(2):
            a += (u >= 1.0 - np.power(r, a + 1.0)).astype(np.int64)
        for _ in range(2):
            step = (a > 0) & (u < 1.0 - np.power(r, a.astype(np.float64)))
            a -= step.astype(np.int64)
        return a

    def _markov_next(self, u: float) -> int:
        """Next state from the uniform ``u`` at counter ``emitted``."""
        model = self.model
        self.emitted += 1
        cum = model._pi_cum if self._state is None else model._row_cums[self._state]
        s = min(bisect_right(cum, u), model.alphabet_size - 1)
        self._state = s
        return s

    # -- exact CF digit sampling

    def _gauss_next(self, u: float) -> int:
        """Next CF digit from the uniform ``u`` at counter ``emitted``."""
        self.emitted += 1
        p, q, pp, qq = self._p, self._q, self._pp, self._qq
        A, B, C, D = pp + qq, p + q, qq, q
        full = _signed_log2_ratio((A + B) * D, (C + D) * B)
        thresh = 1.0 - u

        def tail(ag: int) -> float:
            # conditional P(digit >= ag) given the current cylinder
            return _signed_log2_ratio((A + ag * B) * D, (C + ag * D) * B) / full

        if tail(2) <= thresh:
            d = 1
        else:
            hi = 4
            while tail(hi) > thresh:
                hi <<= 1
                if hi > GaussCFModel.DIGIT_CAP:
                    raise RuntimeError("CF digit search exceeded the 2**63 cap")
            lo = hi >> 1
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if tail(mid) <= thresh:
                    hi = mid
                else:
                    lo = mid
            d = hi - 1

        self._p, self._pp = d * p + pp, p
        self._q, self._qq = d * q + qq, q
        self._recent.append(d)
        if len(self._recent) >= 2 * RENORM_WINDOW:
            self._recent = self._recent[-RENORM_WINDOW:]
            self._p, self._q, self._pp, self._qq = cf_continuants(self._recent)
        return d

    def convergents(self) -> tuple[int, int, int, int]:
        """Current CF continuant state (p, q, p_prev, q_prev); CF model only."""
        if not isinstance(self.model, GaussCFModel):
            raise UnsupportedModelError("convergents exist for the CF model only")
        return self._p, self._q, self._pp, self._qq


def make_generator(model: Model, seed: int) -> SequenceGenerator:
    return SequenceGenerator(model, seed)


def sample_word(model: Model, k: int, seed: int) -> Word:
    """One word of length k drawn from the k-block marginal of the model."""
    return tuple(int(s) for s in SequenceGenerator(model, seed).take(k))


# ---------------------------------------------------------------------------
# profiles


def contraction_profile(model: Model) -> MixingProfile:
    """Cylinder-decay constants (rho, K) with provenance."""
    if isinstance(model, IidModel):
        if model.probs is not None:
            rho = max(float(p) for p in model.probs)
            if rho >= 1.0:
                raise ValueError("degenerate model: a symbol has probability 1")
            return MixingProfile(rho=rho, K=1.0,
                                 provenance=(("K", "EXACT"), ("rho", "EXACT")))
        rho = 1.0 - float(model.tail_ratio)
        return MixingProfile(rho=rho, K=1.0,
                             provenance=(("K", "EXACT"), ("rho", "EXACT")))
    if isinstance(model, MarkovModel):
        rho = float(max(max(row) for row in model.transition))
        if rho >= 1.0:
            raise ValueError("degenerate chain: a transition has probability 1")
        K = float(max(model.pi)) / rho
        return MixingProfile(rho=rho, K=K,
                             provenance=(("K", "EXACT"), ("rho", "EXACT")))
    # CF cylinders satisfy mu_k <= (2/ln 2) 2^-k (interval length 1/(q_k q_{k+1})
    # against density <= 1/ln 2, with q_k >= 2^((k-1)/2)).
    return MixingProfile(rho=0.5, K=2.0 / _LN2,
                         provenance=(("K", "EXACT"), ("rho", "EXACT")))


def markov_deviation_table(model: MarkovModel, m_max: int = 50) -> list[Fraction]:
    """Exact psi-ratio deviations dev(m) = max_ab |P^m(a,b)/pi(b) - 1|, m = 1..m_max."""
    s = model.alphabet_size
    out = []
    power = model.transition
    for _ in range(m_max):
        dev = max(abs(power[a][b] / model.pi[b] - 1) for a in range(s) for b in range(s))
        out.append(dev)
        power = _frac_matmul(power, model.transition)
    return out


def psi_mixing_profile(model: Model, m_max: int = 50) -> MixingProfile:
    """Exponential psi-mixing certificate (T, sigma) and distortion bound R."""
    if isinstance(model, IidModel):
        # independence: the ratio is identically 1; sigma = 0 is the sentinel
        return MixingProfile(T=1.0, sigma=0.0, R=1.0,
                             provenance=(("R", "EXACT"), ("T", "EXACT"), ("sigma", "EXACT")))
    if isinstance(model, MarkovModel):
        eigs = np.linalg.eigvals(model._t_floats)
        mags = sorted((abs(complex(e)) for e in eigs), reverse=True)
        sigma = float(mags[1]) if len(mags) > 1 else 0.0
        sigma = min(max(sigma, 0.0), 1.0 - 1e-15)
        table = markov_deviation_table(model, m_max)
        if sigma <= 0.0:
            T = 1.0 if all(d == 0 for d in table) else float("inf")
            sigma = 0.0
        else:
            T = max(float(d) / sigma**m for m, d in enumerate(table, start=1))
        R = 1.0
        power = model.transition
        for _ in range(m_max):
            R = max(R, float(max(power[a][b] / model.pi[b]
                                 for a in range(model.alphabet_size)
                                 for b in range(model.alphabet_size))))
            power = _frac_matmul(power, model.transition)
        return MixingProfile(T=T, sigma=sigma, R=R,
                             provenance=(("R", "ESTIMATED"), ("T", "ESTIMATED"),
                                         ("sigma", "DERIVED")))
    # CF model: certificate is supplied, distortion estimated by enumeration
    R = _gauss_distortion_estimate()
    return MixingProfile(T=float(model.psi_T), sigma=float(model.psi_sigma), R=R,
                         provenance=(("R", "ESTIMATED"), ("T", "ASSUMED"),
                                     ("sigma", "ASSUMED")))


def _gauss_distortion_estimate(max_len: int = 2, max_digit: int = 8) -> float:
    """max mu(uv) / (mu(u) mu(v)) over small adjacent cylinder pairs."""
    from itertools import product as _product

    small = [tuple(w) for L in (1, max_len) for w in _product(range(1, max_digit + 1), repeat=L)]
    best = 1.0
    for u in small:
        mu_u = gauss_cylinder_prob(u)
        for v in small:
            ratio = gauss_cylinder_prob(u + v) / (mu_u * gauss_cylinder_prob(v))
            if ratio > best:
                best = ratio
    return best


def mixing_profile(model: Model, m_max: int = 50) -> MixingProfile:
    """Full profile: contraction and psi-mixing constants merged."""
    return contraction_profile(model).merged(psi_mixing_profile(model, m_max))

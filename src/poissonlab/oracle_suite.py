"""The exact-oracle suite of the ``oracle`` mode: each row is a function
``(model, k, S) -> detail`` named as its report row, ``ROWS`` lists them in
report order, and a returned detail reads PASS, a ``ResourceError`` or an
``UnsupportedModelError`` SKIP and an ``AssertionError`` (from ``_require``,
never ``assert``) FAIL.  Like ``oracles``, the rows reach no Monte Carlo path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice, permutations

from .errors import ResourceError, UnsupportedModelError
from .measures import IidModel, Model, contraction_profile, cylinder_prob_exact
from .oracles import (ANNEALED_ENUM_GUARD, annealed_exact_expectation, brute_force_distribution,
                      dp_count_distribution, exact_pair_prob, exact_variance, log_n_over_n_bound,
                      measure_counts, measure_expectation, period_class_measure)
from .point_process import IntervalUnion, j_set, required_prefix_length
from .poisson_stats import histogram_j_max, poisson_reference, tv_distance
from .words import enumerate_words, periods


@dataclass(frozen=True)
class OracleRow:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str


def _require(ok: bool, detail: str) -> None:
    """Fail the current oracle row with ``detail`` unless ``ok``: a raise, not
    an ``assert`` statement, so the verdict survives ``python -O``."""
    if not ok:
        raise AssertionError(detail)


def _alphabet(model: Model) -> int:
    """The alphabet a row enumerates words over; a countable one reads SKIP."""
    if model.alphabet_size is None:
        raise UnsupportedModelError("needs a finite alphabet")
    return model.alphabet_size


def fit_k(model: Model, k: int, k_min: int, k_max: int, limit: int) -> int:
    """The largest k_f in [k_min, min(k, k_max)] with s^k_f <= limit; with
    none, a ResourceError, so the row reads SKIP with the reason."""
    s = _alphabet(model)
    k_f = min(k, k_max)
    while k_f >= k_min and s**k_f > limit:
        k_f -= 1
    if k_f < k_min:
        raise ResourceError(f"needs a word length k >= {k_min} with k <= {k} "
                            f"and {s}**k <= {limit}")
    return k_f


def expectation_sandwich(model: Model, k: int, S: IntervalUnion) -> str:
    k_e = fit_k(model, k, 1, 8, 1 << 12)
    worst = max((abs(measure_expectation(mu, S) - S.total_length) / mu
                 for mu in measure_counts(model, k_e)), default=Fraction(0))
    _require(worst <= S.m, f"sandwich ratio {float(worst):.3f} exceeds m={S.m}")
    return f"k={k_e}: max |E-|S||/mu = {float(worst):.6f} <= m = {S.m}"


def variance_dual_path(model: Model, k: int, S: IntervalUnion) -> str:
    s = _alphabet(model)
    guard = {}  # (length, measure) -> whether its words pass the prefix-length guard

    def fits(w) -> bool:
        mu = cylinder_prob_exact(model, w)
        if (len(w), mu) not in guard:
            guard[len(w), mu] = mu != 0 and required_prefix_length(len(w), j_set(mu, S)) <= 22
        return guard[len(w), mu]

    checked = 0
    # every length's guard first: an alphabet past one refuses before any word is visited
    for k_v, words in enumerate([enumerate_words(s, k_v) for k_v in range(1, 5)], 1):
        if isinstance(model, IidModel):
            # an i.i.d. measure depends only on the sorted symbols: decide the guard once
            # per multiset, and form only the words (in enumeration order) of those that fit
            words = sorted({w for ms in combinations_with_replacement(range(s), k_v)
                            if fits(ms) for w in permutations(ms)})
        for w in filter(fits, words):
            try:
                dist = brute_force_distribution(model, w, S)
            except ResourceError:  # alphabet^L past the prefix-states guard
                continue
            mean = sum(j * p for j, p in dist.items())
            bf_var = float(sum(j * j * p for j, p in dist.items()) - mean * mean)
            vb = exact_variance(model, w, S)
            _require(abs(vb.variance - bf_var) <= 1e-9,
                     f"w={w}: decomposition {vb.variance} vs enumeration {bf_var}")
            checked += 1
    if not checked:  # nothing to compare: the row reads SKIP, like fit_k's
        raise ResourceError("no word fit the enumeration guard")
    return f"{checked} words agree within 1e-9"


def pair_probability_dual_path(model: Model, k: int, S: IntervalUnion) -> str:
    s = _alphabet(model)
    checked = 0
    for k_p in (2, 3):
        for w in islice(enumerate_words(s, k_p), s**2):
            for lag in range(1, 5):
                if s ** (k_p + lag) > 1 << 18:
                    continue
                exact = exact_pair_prob(model, w, lag)
                # the words of length k + lag spelling w at 0 and at lag: w[:lag], a free
                # middle, then w; below lag = k there is no middle and the word must agree with w
                brute = sum((cylinder_prob_exact(model, u)
                             for mid in enumerate_words(s, max(lag - k_p, 0))
                             if (u := w[:lag] + mid + w)[:k_p] == w), Fraction(0))
                _require(exact == brute, f"w={w} lag={lag}: {exact} != {brute}")
                checked += 1
    if not checked:  # nothing to compare: the row reads SKIP, like the variance row
        raise ResourceError(f"no (word, lag) pair has {s}**(k + lag) <= {1 << 18}")
    return f"{checked} (word, lag) pairs match enumeration exactly"


def period_class_dual_path(model: Model, k: int, S: IntervalUnion) -> str:
    k_c = fit_k(model, k, 2, 10, 1 << 16)  # period classes ell = 1..k_c-1
    s = model.alphabet_size
    uniform = isinstance(model, IidModel) and len(set(model.probs)) == 1
    dual = [Fraction(0)] * k_c  # dual[ell]: the measure of the words of period ell
    for w in enumerate_words(s, k_c):
        if ells := periods(w):
            mu = cylinder_prob_exact(model, w)
            for ell in ells:
                dual[ell] += mu
    for ell in range(1, k_c):
        mass = period_class_measure(model, k_c, ell)
        _require(mass == dual[ell], f"ell={ell}: {mass} != {dual[ell]}")
        _require(not uniform or mass == Fraction(1, s ** (k_c - ell)),
                 f"ell={ell}: uniform class mass {mass}")
    return f"k={k_c}: all period classes match the periods() dual path"


def annealed_expectation_identity(model: Model, k: int, S: IntervalUnion) -> str:
    k_a = fit_k(model, k, 1, 12, ANNEALED_ENUM_GUARD)
    total = annealed_exact_expectation(model, k_a, S)
    dev = abs(float(total - S.total_length))
    prof = contraction_profile(model)
    return f"k={k_a}: |sum - |S|| = {dev:.3e} <= {S.m * prof.K * prof.rho**k_a:.3e}"


def count_law_tv_decay(model: Model, k: int, S: IntervalUnion) -> str:
    if not isinstance(model, IidModel) or model.probs is None:
        raise UnsupportedModelError("count-law decay uses the iid DP path")
    prof = contraction_profile(model)
    lam = float(S.total_length)
    # the two smallest symbols of positive probability (a law has two, or it is degenerate):
    # a word with a null symbol has measure 0 and the point mass at 0 as its count law
    a, b = [sym for sym, p in enumerate(model.probs) if p][:2]
    ref_tv = []
    for k_d in (4, 8, 12):
        # aperiodic word: periodic words are the non-generic exceptions (their counts
        # clump into a compound limit), so decay needs an overlap-free representative
        w = (a,) * (k_d - 1) + (b,)
        dist = dp_count_distribution(model, w, S)
        jm = histogram_j_max(lam)
        folded: dict[int, float] = {}
        for jj, p in dist.items():
            folded[min(jj, jm + 1)] = folded.get(min(jj, jm + 1), 0.0) + p
        tv = tv_distance(folded, poisson_reference(lam, jm))
        ref_tv.append((k_d, tv))
    for (k1, t1), (k2, t2) in zip(ref_tv, ref_tv[1:]):
        _require(t2 <= t1 + 1e-12, f"TV rose from k={k1} ({t1:.3e}) to k={k2} ({t2:.3e})")
    fitted = max(tv / (k_d * prof.rho**k_d) for k_d, tv in ref_tv)
    _require(fitted <= 4.0, f"fitted decay constant {fitted:.3f} > 4")
    w4 = (a, a, a, b)
    bf = brute_force_distribution(model, w4, S)
    dp = dp_count_distribution(model, w4, S)
    for jj in set(bf) | set(dp):
        _require(abs(float(bf.get(jj, 0)) - dp.get(jj, 0.0)) <= 1e-12,
                 f"DP vs enumeration at count {jj}")
    decay = ", ".join(f"k={k_d}: {tv:.3e}" for k_d, tv in ref_tv)
    return f"{decay}; fitted constant {fitted:.3f} <= 4; DP == enumeration at k=4"


def scan_length_majorant(model: Model, k: int, S: IntervalUnion) -> str:
    prof = contraction_profile(model)
    vals = [(k_m, log_n_over_n_bound(k_m, S, prof)) for k_m in range(2, 40)]
    defined = [(k_m, b) for k_m, b in vals if b is not None]
    if not defined:
        raise UnsupportedModelError("majorant undefined for every k in 2..39")
    for (k1, b1), (k2, b2) in zip(defined, defined[1:]):
        _require(b2 <= b1 + 1e-15, f"majorant rose between k={k1} and k={k2}")
    first, b_first = defined[0]
    return f"defined from k={first}, monotone decreasing; at k={first}: {b_first:.4f}"


ROWS = (expectation_sandwich, variance_dual_path, pair_probability_dual_path,
        period_class_dual_path, annealed_expectation_identity, count_law_tv_decay,
        scan_length_majorant)


def oracle_rows(model: Model, k: int, S: IntervalUnion) -> tuple[OracleRow, ...]:
    """Each row of ``ROWS`` on (model, k, S), with its verdict."""
    rows = []
    for row in ROWS:
        try:
            rows.append(OracleRow(row.__name__, "PASS", row(model, k, S)))
        except (ResourceError, UnsupportedModelError) as exc:
            rows.append(OracleRow(row.__name__, "SKIP", str(exc)))
        except AssertionError as exc:
            rows.append(OracleRow(row.__name__, "FAIL", str(exc)))
    return tuple(rows)

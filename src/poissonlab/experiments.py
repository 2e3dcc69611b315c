"""Experiment runners and reporting.

Five modes driven by one JSON config: the annealed and quenched genericity
experiments (occurrence-count histograms against Poisson targets), the
exact-oracle suite, the concentration experiment, and the mixing report.
Runs are pure functions of the config (seed included); reports serialize to
canonical JSON plus CSV tables, with wall-clock metadata kept in a separate
key so repeated runs stay byte-identical elsewhere.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, InsufficientDataError, ResourceError,
                     UnsupportedModelError)
from .measures import (GaussCFModel, IidModel, MarkovModel, Model,
                       contraction_profile, cylinder_prob_exact,
                       cylinder_prob_guarded, make_generator, mixing_profile,
                       model_from_spec, model_to_spec)
from .mixing_concentration import (DELTA_NORM_MATRIX_CAP, ConcentrationReport,
                                   EtaMatrix, OccurrenceIndex,
                                   concentration_experiment, delta_matrix,
                                   delta_norm, delta_norm_bound,
                                   eta_coefficients)
from .oracles import (annealed_exact_expectation, brute_force_distribution,
                      dp_count_distribution, exact_expectation,
                      exact_pair_prob, exact_variance, log_n_over_n_bound,
                      period_class_measure)
from .point_process import (IndexSet, IntervalUnion, count_word_occurrences,
                            j_set, required_prefix_length)
from .poisson_stats import (fold_histogram, histogram_j_max, kallenberg_check,
                            poisson_reference, sample_poisson_counts,
                            tv_distance)
from .rng import derive_seed, raw_block
from .rng import uniform_block  # noqa: F401  (perfbench's tracer self-test wraps this binding)
from .words import enumerate_words, periods

MODES = ("annealed", "quenched", "oracle", "concentration", "mixing")
SYMBOL_BUDGET = 2 * 10**9  # symbols one annealed or quenched run may draw
_BATCH_ELEMS = 1 << 23  # symbols per batch of annealed streams
_DRAW_CHUNK = 1 << 16  # raw values per raw_block call of _draw
HISTOGRAM_BINS_GUARD = 10**6  # count-histogram bins one target set may need


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    mode: str
    model: Model
    model_spec: dict
    k: int
    sets: tuple[IntervalUnion, ...]
    n_samples: int
    n_x_replicas: int
    n_cap: int
    seed: int
    tv_tolerance: float
    min_passing_replicas: int
    strict: bool
    t_grid: tuple[float, ...]
    functional: str
    j: int
    max_lag: int
    truncations: tuple[int, ...]
    warnings: tuple[str, ...]


_KNOWN_KEYS = {
    "mode", "model", "k", "sets", "n_samples", "n_x_replicas", "n_cap",
    "seed", "tv_tolerance", "min_passing_replicas", "strict", "t_grid",
    "functional", "j", "max_lag", "truncations",
}


def _cfg_int(doc: dict, key: str, default, lo=None) -> int:
    v = doc.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"$.{key}: expected an integer")
    if lo is not None and v < lo:
        raise ConfigError(f"$.{key}: must be >= {lo}")
    return v


def default_n_cap(model: Model, k: int, sets: Sequence[IntervalUnion]) -> int:
    """10 * sup S / (K rho^k) for finite alphabets, 10^7 for the CF model."""
    if isinstance(model, GaussCFModel):
        return 10**7
    prof = contraction_profile(model)
    sup = max((float(S.sup) for S in sets), default=1.0)
    if sup <= 0:
        return max(10 * k, 100)
    return max(int(math.ceil(10.0 * sup / (prof.K * prof.rho**k))), k)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; errors carry the offending JSON path."""
    if not isinstance(doc, dict):
        raise ConfigError("$: expected a JSON object")
    unknown = sorted(key for key in doc
                     if key not in _KNOWN_KEYS and not key.startswith("_"))
    if unknown:
        raise ConfigError(f"$.{unknown[0]}: unknown field")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ConfigError(f"$.mode: expected one of {', '.join(MODES)}")
    if "model" not in doc:
        raise ConfigError("$.model: required")
    try:
        model = model_from_spec(doc["model"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"$.model: {exc}") from exc
    if "k" not in doc:
        raise ConfigError("$.k: required")
    k = _cfg_int(doc, "k", None, lo=1)
    seed = _cfg_int(doc, "seed", 0, lo=0)
    if seed >= 1 << 64:
        raise ConfigError("$.seed: must fit in 64 bits")

    sets_doc = doc.get("sets", [[["0", "1", False, True]]] if mode != "mixing" else [])
    if not isinstance(sets_doc, list):
        raise ConfigError("$.sets: expected a list of interval-union specs")
    sets = []
    for i, item in enumerate(sets_doc):
        try:
            S = IntervalUnion.from_spec(item)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"$.sets[{i}]: {exc}") from exc
        # the Poisson reference has one entry per count up to j_max; the
        # first test keeps float(|S|) in range
        if S.total_length > HISTOGRAM_BINS_GUARD \
                or histogram_j_max(float(S.total_length)) > HISTOGRAM_BINS_GUARD:
            raise ConfigError(
                f"$.sets[{i}]: |S| is above {(HISTOGRAM_BINS_GUARD - 10) // 10}, so its "
                f"count histogram would need more than {HISTOGRAM_BINS_GUARD} bins")
        if S.sup > sys.float_info.max:  # float(S.sup) would raise OverflowError
            raise ConfigError(f"$.sets[{i}]: sup S is past the float range")
        sets.append(S)
    if mode in ("annealed", "quenched", "concentration") and not sets:
        raise ConfigError("$.sets: at least one target set is required")

    n_samples = _cfg_int(doc, "n_samples", 1000, lo=1)
    n_x_replicas = _cfg_int(doc, "n_x_replicas", 1, lo=1)
    strict = doc.get("strict", True)
    if not isinstance(strict, bool):
        raise ConfigError("$.strict: expected a boolean")
    tv_tolerance = doc.get("tv_tolerance", 0.05)
    if not isinstance(tv_tolerance, (int, float)) or isinstance(tv_tolerance, bool) \
            or not 0 < float(tv_tolerance) <= 1:
        raise ConfigError("$.tv_tolerance: expected a number in (0, 1]")
    min_passing = _cfg_int(doc, "min_passing_replicas",
                           max(1, math.ceil(0.9 * n_x_replicas)), lo=0)
    if min_passing > n_x_replicas:
        raise ConfigError("$.min_passing_replicas: exceeds n_x_replicas")

    floor = None  # heuristic n_cap floor sup S / (K rho^k) of a finite alphabet
    if sets and not isinstance(model, GaussCFModel):
        prof = contraction_profile(model)
        scale = prof.K * prof.rho**k
        for i, S in enumerate(sets):
            # default_n_cap takes the ceiling of 10 sup S / (K rho^k); with an
            # explicit n_cap an infinite floor only warns
            if scale == 0.0 or ("n_cap" not in doc
                                and not math.isfinite(10.0 * float(S.sup) / scale)):
                raise ConfigError(f"$.sets[{i}]: sup S / (K rho^k) at k={k} is past "
                                  "the float range, so no stream length reaches it")
        floor = max(float(S.sup) for S in sets) / scale
    warnings: list[str] = []
    if "n_cap" in doc:
        n_cap = _cfg_int(doc, "n_cap", None, lo=1)
    else:
        n_cap = default_n_cap(model, k, sets)
    if n_cap < k:
        raise ConfigError("$.n_cap: must be at least k")
    if floor is not None and n_cap < floor:
        warnings.append(
            f"n_cap={n_cap} is below the heuristic floor {floor:.3g}; "
            "expect truncated samples")

    t_grid_doc = doc.get("t_grid", [])
    if not isinstance(t_grid_doc, list) or any(
            not isinstance(t, (int, float)) or isinstance(t, bool)
            or not 0 < t < math.inf for t in t_grid_doc):
        raise ConfigError("$.t_grid: expected a list of positive finite numbers")
    functional = doc.get("functional", "phi1")
    if functional not in ("phi1", "phi2"):
        raise ConfigError("$.functional: expected 'phi1' or 'phi2'")
    j = _cfg_int(doc, "j", 0, lo=0)
    max_lag = _cfg_int(doc, "max_lag", 30, lo=1)
    truncations_doc = doc.get("truncations", [50, 100, 200])
    # run_mixing builds a dense n x n dependency matrix per truncation
    if not isinstance(truncations_doc, list) or any(
            not isinstance(t, int) or isinstance(t, bool)
            or not 1 <= t <= DELTA_NORM_MATRIX_CAP for t in truncations_doc):
        raise ConfigError("$.truncations: expected a list of integers in "
                          f"[1, {DELTA_NORM_MATRIX_CAP}]")

    if strict and mode in ("annealed", "quenched") and n_samples < 100:
        raise InsufficientDataError(
            "$.n_samples: statistical modes need >= 100 samples (strict)")

    return ExperimentConfig(
        mode=mode, model=model, model_spec=model_to_spec(model), k=int(k),
        sets=tuple(sets), n_samples=n_samples, n_x_replicas=n_x_replicas,
        n_cap=n_cap, seed=seed, tv_tolerance=float(tv_tolerance),
        min_passing_replicas=min_passing, strict=strict,
        t_grid=tuple(float(t) for t in t_grid_doc), functional=functional,
        j=j, max_lag=max_lag, truncations=tuple(sorted(truncations_doc)),
        warnings=tuple(warnings),
    )


def read_config_doc(path: str | Path) -> dict:
    """The JSON object in a config file, before validation."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"$: cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$: expected a JSON object")
    return doc


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(read_config_doc(path))


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class SetReport:
    label: str
    spec: tuple
    size: float
    j_max: int
    n_used: int
    n_truncated: int
    truncated_fraction: float
    histogram: dict[int, int]
    truncated_histogram: dict[int, int]
    poisson: dict[int, float]
    empirical_mean: float | None
    empirical_variance: float | None
    tv_set: float | None
    tv_functional: float | None
    kallenberg: dict


@dataclass(frozen=True)
class GenericityReport:
    mode: str
    model: dict
    k: int
    seed: int
    n_samples: int
    n_cap: int
    tv_tolerance: float
    replica_index: int | None
    sets: tuple[SetReport, ...]
    truncated_fraction: float
    passed: bool
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class QuenchedSummary:
    n_replicas: int
    tv_tolerance: float
    min_passing_replicas: int
    per_replica_tv: tuple[float | None, ...]
    passing_replicas: int
    passed: bool


@dataclass(frozen=True)
class QuenchedResult:
    replicas: tuple[GenericityReport, ...]
    summary: QuenchedSummary


def _set_report(S: IntervalUnion, counts: np.ndarray, truncated: np.ndarray,
                slack: float, min_samples_for_kallenberg: int = 100) -> SetReport:
    lam = float(S.total_length)
    j_max = histogram_j_max(lam)
    used = counts[~truncated]
    trunc = counts[truncated]
    hist = fold_histogram(used.tolist(), j_max)
    thist = fold_histogram(trunc.tolist(), j_max)
    ref = poisson_reference(lam, j_max)
    if used.size:
        emp = {jj: c / used.size for jj, c in hist.items()}
        tv = tv_distance(emp, ref)
        mean = float(used.mean())
        var = float(used.var())
    else:
        tv = None
        mean = None
        var = None
    if used.size >= min_samples_for_kallenberg:
        kall = kallenberg_check([used.tolist()], [lam], [slack])[0]
    else:
        kall = {"status": "SKIPPED", "reason": "fewer than 100 usable samples"}
    return SetReport(
        label=S.label(), spec=tuple(tuple(sorted(d.items())) for d in S.to_spec()),
        size=lam, j_max=j_max, n_used=int(used.size), n_truncated=int(trunc.size),
        truncated_fraction=float(trunc.size / max(counts.size, 1)),
        histogram=hist, truncated_histogram=thist, poisson=ref,
        empirical_mean=mean, empirical_variance=var,
        tv_set=tv, tv_functional=None if tv is None else 2.0 * tv,
        kallenberg=kall,
    )


def _genericity_report(cfg: ExperimentConfig, mode: str,
                       counts_per_set: list[np.ndarray],
                       truncated_per_set: list[np.ndarray],
                       replica_index: int | None) -> GenericityReport:
    prof = contraction_profile(cfg.model)
    sets = []
    overall_trunc = 0.0
    for S, counts, truncated in zip(cfg.sets, counts_per_set, truncated_per_set):
        s_slack = S.m * prof.K * prof.rho**cfg.k
        rep = _set_report(S, counts, truncated, s_slack)
        overall_trunc = max(overall_trunc, rep.truncated_fraction)
        sets.append(rep)
    passed = all(r.tv_set is not None and r.tv_set <= cfg.tv_tolerance for r in sets)
    return GenericityReport(
        mode=mode, model=cfg.model_spec, k=cfg.k, seed=cfg.seed,
        n_samples=cfg.n_samples, n_cap=cfg.n_cap, tv_tolerance=cfg.tv_tolerance,
        replica_index=replica_index, sets=tuple(sets),
        truncated_fraction=overall_trunc, passed=passed, warnings=cfg.warnings,
    )


# ---------------------------------------------------------------------------
# the counting pipeline shared by the annealed and quenched runners


def _check_budget(symbols: int) -> None:
    if symbols > SYMBOL_BUDGET:
        raise ResourceError(
            f"run would draw {symbols:.2e} symbols, over the budget of "
            f"{SYMBOL_BUDGET:.0e}; reduce n_samples, n_x_replicas or n_cap")


def _draw(model: Model, seeds: np.ndarray, length: int) -> np.ndarray:
    """(len(seeds), length) symbol matrix: row r is the first ``length``
    symbols of the stream with seed ``seeds[r]``, symbol for symbol as
    ``make_generator(model, seeds[r]).take(length)``."""
    if isinstance(model, IidModel) and model.probs is not None:
        out = np.empty((len(seeds), length),
                       dtype=np.min_scalar_type(len(model.probs) - 1))
        # whole rows while a row fits in a chunk, pieces of one row otherwise
        width = max(1, min(length, _DRAW_CHUNK))
        height = max(1, _DRAW_CHUNK // width)
        for r0 in range(0, len(seeds), height):
            for c0 in range(0, length, width):
                block = out[r0:r0 + height, c0:c0 + width]
                model.symbols(raw_block(seeds[r0:r0 + height], c0, block.shape[1]), block)
        return out
    return np.stack([make_generator(model, sd).take(length) for sd in seeds.tolist()])


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
    _, first, plan_of = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    plans = []
    for i in first:
        mu, high = cylinder_prob_guarded(model, words[i].tolist())
        js = tuple(j_set(mu, S, high) for S in sets)
        plans.append(_WordPlan(js, max((required_prefix_length(k, J) for J in js),
                                       default=0)))
    return plan_of.reshape(-1), plans


def _plan_members(plan_of: np.ndarray) -> list[np.ndarray]:
    """The ascending indices of the words of each plan."""
    return np.split(np.argsort(plan_of, kind="stable"),
                    np.cumsum(np.bincount(plan_of))[:-1])


# ---------------------------------------------------------------------------
# annealed


def run_annealed(cfg: ExperimentConfig) -> GenericityReport:
    """Independent (x, w) pairs; occurrence counts of w in x over each
    target set's index positions, against the Poisson(|S|) law."""
    if cfg.mode != "annealed":
        raise ConfigError("$.mode: run_annealed needs mode 'annealed'")
    model, k, n = cfg.model, cfg.k, cfg.n_samples
    words = _draw(model, derive_seed(cfg.seed, 1, np.arange(n)), k)
    plan_of, plans = _plan_words(model, words, cfg.sets, k)
    lengths = [min(plan.need, cfg.n_cap) for plan in plans]
    _check_budget(sum(lengths[p] for p in plan_of.tolist()))

    n_sets = len(cfg.sets)
    counts = [np.zeros(n, dtype=np.int64) for _ in range(n_sets)]
    truncated = [np.zeros(n, dtype=bool) for _ in range(n_sets)]
    for plan, length, members in zip(plans, lengths, _plan_members(plan_of)):
        if length == 0:  # every index set empty: counts stay 0, complete
            continue
        max_start = length - k + 1
        ranges = [J.clipped(max_start).ranges for J in plan.js]
        for si, J in enumerate(plan.js):
            truncated[si][members] = J.max_index() > max_start
        step = max(1, _BATCH_ELEMS // length)
        for lo in range(0, len(members), step):
            rows = members[lo: lo + step]
            streams = _draw(model, derive_seed(cfg.seed, 2, rows), length)
            for si, rs in enumerate(ranges):
                counts[si][rows] = count_word_occurrences(streams, words[rows], rs)
    return _genericity_report(cfg, "annealed", counts, truncated, None)


# ---------------------------------------------------------------------------
# quenched


def run_quenched(cfg: ExperimentConfig) -> QuenchedResult:
    """Per fixed stream x: the count law over an independent word sample,
    one report per x replica plus the pass summary."""
    if cfg.mode != "quenched":
        raise ConfigError("$.mode: run_quenched needs mode 'quenched'")
    reports = []
    for r in range(cfg.n_x_replicas):
        reports.append(_quenched_replica(cfg, r))
    tvs = [max((s.tv_set for s in rep.sets if s.tv_set is not None), default=None)
           if any(s.tv_set is not None for s in rep.sets) else None
           for rep in reports]
    passing = sum(1 for rep in reports if rep.passed)
    summary = QuenchedSummary(
        n_replicas=cfg.n_x_replicas, tv_tolerance=cfg.tv_tolerance,
        min_passing_replicas=cfg.min_passing_replicas,
        per_replica_tv=tuple(tvs), passing_replicas=passing,
        passed=passing >= cfg.min_passing_replicas,
    )
    return QuenchedResult(tuple(reports), summary)


def _quenched_replica(cfg: ExperimentConfig, r: int) -> GenericityReport:
    model, k, n = cfg.model, cfg.k, cfg.n_samples
    words = _draw(model, derive_seed(cfg.seed, 4, r, np.arange(n)), k)
    plan_of, plans = _plan_words(model, words, cfg.sets, k)
    x_len = min(max(max(plan.need for plan in plans), k), cfg.n_cap)
    _check_budget(cfg.n_x_replicas * x_len)
    x = _draw(model, derive_seed(cfg.seed, 3, [r]), x_len)[0]
    index = OccurrenceIndex(x, k, model.alphabet_size)
    max_start = x_len - k + 1

    counts = [np.zeros(n, dtype=np.int64) for _ in cfg.sets]
    truncated = [np.zeros(n, dtype=bool) for _ in cfg.sets]
    for plan, members in zip(plans, _plan_members(plan_of)):
        for si, J in enumerate(plan.js):
            truncated[si][members] = J.max_index() > max_start
            J = J.clipped(max_start)
            if J.count:
                counts[si][members] = index.count_in_ranges(words[members], J.ranges)
    return _genericity_report(cfg, "quenched", counts, truncated, r)


# ---------------------------------------------------------------------------
# oracle suite


@dataclass(frozen=True)
class OracleRow:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str


@dataclass(frozen=True)
class OracleReport:
    model: dict
    k: int
    set_label: str
    rows: tuple[OracleRow, ...]
    passed: bool


def _oracle_guarded(name: str, fn: Callable[[], str]) -> OracleRow:
    try:
        return OracleRow(name, "PASS", fn())
    except (ResourceError, UnsupportedModelError) as exc:
        return OracleRow(name, "SKIP", str(exc))
    except AssertionError as exc:
        return OracleRow(name, "FAIL", str(exc))


def run_oracle_suite(cfg: ExperimentConfig) -> OracleReport:
    """Every exact-identity check the model supports, as a pass/fail table."""
    model = cfg.model
    S = cfg.sets[0] if cfg.sets else IntervalUnion.from_spec([["0", "1", False, True]])
    rows = []
    s = model.alphabet_size

    def expectation_check() -> str:
        if s is None:
            raise UnsupportedModelError("needs a finite alphabet")
        k_e = min(cfg.k, 8)
        while s**k_e > 1 << 12:
            k_e -= 1
        worst = Fraction(0)
        for w in enumerate_words(s, k_e):
            mu = cylinder_prob_exact(model, w)
            e = exact_expectation(model, w, S)
            if mu:
                worst = max(worst, abs(e - S.total_length) / mu)
        assert worst <= S.m, f"sandwich ratio {float(worst):.3f} exceeds m={S.m}"
        return f"k={k_e}: max |E-|S||/mu = {float(worst):.6f} <= m = {S.m}"

    def variance_check() -> str:
        if s is None:
            raise UnsupportedModelError("needs a finite alphabet")
        checked = 0
        for k_v in range(1, 5):
            for w in enumerate_words(s, k_v):
                mu = cylinder_prob_exact(model, w)
                if mu == 0:
                    continue
                J = j_set(mu, S)
                if required_prefix_length(k_v, J) > 22:
                    continue
                dist = brute_force_distribution(model, w, S)
                mean = sum(j * p for j, p in dist.items())
                second = sum(j * j * p for j, p in dist.items())
                bf_var = float(second - mean * mean)
                vb = exact_variance(model, w, S)
                assert abs(vb.variance - bf_var) <= 1e-9, \
                    f"w={w}: decomposition {vb.variance} vs enumeration {bf_var}"
                checked += 1
        assert checked > 0, "no word fit the enumeration guard"
        return f"{checked} words agree within 1e-9"

    def pair_check() -> str:
        if s is None:
            raise UnsupportedModelError("needs a finite alphabet")
        checked = 0
        for k_p in (2, 3):
            for w in list(enumerate_words(s, k_p))[: s**2]:
                for lag in range(1, 5):
                    if s ** (k_p + lag) > 1 << 18:
                        continue
                    exact = exact_pair_prob(model, w, lag)
                    brute = Fraction(0)
                    for u in enumerate_words(s, k_p + lag):
                        if u[:k_p] == w and u[lag: lag + k_p] == w:
                            brute += cylinder_prob_exact(model, u)
                    assert exact == brute, f"w={w} lag={lag}: {exact} != {brute}"
                    checked += 1
        return f"{checked} (word, lag) pairs match enumeration exactly"

    def period_check() -> str:
        if s is None:
            raise UnsupportedModelError("needs a finite alphabet")
        k_c = min(cfg.k, 10)
        while s**k_c > 1 << 16:
            k_c -= 1
        uniform = isinstance(model, IidModel) and len(set(model.probs)) == 1
        for ell in range(1, k_c):
            mass = period_class_measure(model, k_c, ell)
            dual = Fraction(0)
            for w in enumerate_words(s, k_c):
                if ell in periods(w):
                    dual += cylinder_prob_exact(model, w)
            assert mass == dual, f"ell={ell}: {mass} != {dual}"
            if uniform:
                assert mass == Fraction(1, s ** (k_c - ell)), \
                    f"ell={ell}: uniform class mass {mass}"
        return f"k={k_c}: all period classes match the periods() dual path"

    def annealed_check() -> str:
        if s is None:
            raise UnsupportedModelError("needs a finite alphabet")
        k_a = min(cfg.k, 12)
        while s**k_a > 1 << 20:
            k_a -= 1
        total = annealed_exact_expectation(model, k_a, S)
        dev = abs(float(total - S.total_length))
        prof = contraction_profile(model)
        return f"k={k_a}: |sum - |S|| = {dev:.3e} <= {S.m * prof.K * prof.rho**k_a:.3e}"

    def tv_decay_check() -> str:
        if not isinstance(model, IidModel) or model.probs is None:
            raise UnsupportedModelError("count-law decay uses the iid DP path")
        prof = contraction_profile(model)
        lam = float(S.total_length)
        ref_tv = []
        for k_d in (4, 8, 12):
            # aperiodic word: periodic words are the non-generic exceptions
            # (their counts clump into a compound limit), so decay needs an
            # overlap-free representative
            w = (0,) * (k_d - 1) + (1,)
            dist = dp_count_distribution(model, w, S)
            jm = histogram_j_max(lam)
            folded: dict[int, float] = {}
            for jj, p in dist.items():
                folded[min(jj, jm + 1)] = folded.get(min(jj, jm + 1), 0.0) + p
            tv = tv_distance(folded, poisson_reference(lam, jm))
            ref_tv.append((k_d, tv))
        for (k1, t1), (k2, t2) in zip(ref_tv, ref_tv[1:]):
            assert t2 <= t1 + 1e-12, f"TV rose from k={k1} ({t1:.3e}) to k={k2} ({t2:.3e})"
        fitted = max(tv / (k_d * prof.rho**k_d) for k_d, tv in ref_tv)
        assert fitted <= 4.0, f"fitted decay constant {fitted:.3f} > 4"
        w4 = (0, 0, 0, 1)
        bf = brute_force_distribution(model, w4, S)
        dp = dp_count_distribution(model, w4, S)
        for jj in set(bf) | set(dp):
            assert abs(float(bf.get(jj, 0)) - dp.get(jj, 0.0)) <= 1e-12, \
                f"DP vs enumeration at count {jj}"
        decay = ", ".join(f"k={k_d}: {tv:.3e}" for k_d, tv in ref_tv)
        return f"{decay}; fitted constant {fitted:.3f} <= 4; DP == enumeration at k=4"

    def majorant_check() -> str:
        prof = mixing_profile(model)
        vals = []
        for k_m in range(2, 40):
            b = log_n_over_n_bound(k_m, S, prof)
            vals.append((k_m, b))
        defined = [(k_m, b) for k_m, b in vals if b is not None]
        if not defined:
            raise UnsupportedModelError("majorant undefined for every k in 2..39")
        for (k1, b1), (k2, b2) in zip(defined, defined[1:]):
            assert b2 <= b1 + 1e-15, f"majorant rose between k={k1} and k={k2}"
        first = next(k_m for k_m, b in vals if b is not None)
        return f"defined from k={first}, monotone decreasing; at k={first}: {defined[0][1]:.4f}"

    rows.append(_oracle_guarded("expectation_sandwich", expectation_check))
    rows.append(_oracle_guarded("variance_dual_path", variance_check))
    rows.append(_oracle_guarded("pair_probability_dual_path", pair_check))
    rows.append(_oracle_guarded("period_class_dual_path", period_check))
    rows.append(_oracle_guarded("annealed_expectation_identity", annealed_check))
    rows.append(_oracle_guarded("count_law_tv_decay", tv_decay_check))
    rows.append(_oracle_guarded("scan_length_majorant", majorant_check))
    passed = all(r.status != "FAIL" for r in rows)
    return OracleReport(cfg.model_spec, cfg.k, S.label(), tuple(rows), passed)


# ---------------------------------------------------------------------------
# concentration and mixing


def run_concentration(cfg: ExperimentConfig) -> ConcentrationReport:
    if cfg.mode != "concentration":
        raise ConfigError("$.mode: run_concentration needs mode 'concentration'")
    if not cfg.t_grid:
        raise ConfigError("$.t_grid: required for concentration mode")
    return concentration_experiment(
        cfg.model, cfg.k, cfg.sets[0], cfg.t_grid, cfg.n_samples, cfg.seed,
        functional=cfg.functional, j=cfg.j, n_cap=cfg.n_cap)


@dataclass(frozen=True)
class MixingReport:
    model: dict
    eta_supported: bool
    eta_note: str
    max_lag: int
    eta_lags: tuple[float, ...] | None
    eta_entrywise_below_profile: bool | None
    truncation_norms: tuple[tuple[int, float], ...]
    analytic_bound: float
    profile: dict
    passed: bool


def run_mixing(cfg: ExperimentConfig) -> MixingReport:
    if cfg.mode != "mixing":
        raise ConfigError("$.mode: run_mixing needs mode 'mixing'")
    model = cfg.model
    prof = mixing_profile(model)
    bound = delta_norm_bound(prof)
    if isinstance(model, MarkovModel):
        eta = eta_coefficients(model, cfg.max_lag)
        lags = eta.lags
        note = "exact matrix-power lag coefficients"
        entrywise = all(
            lag <= prof.T * prof.sigma**m + 1e-12
            for m, lag in enumerate(lags, start=1))
    elif isinstance(model, IidModel):
        lags = tuple(0.0 for _ in range(cfg.max_lag))
        eta = None
        note = "independent coordinates: all lag coefficients vanish"
        entrywise = True
    else:
        lags = None
        eta = None
        note = "UNSUPPORTED: no exact lag path for this model; bound-only report"
        entrywise = None

    norms = []
    if lags is not None:
        eta_obj = eta if eta is not None else EtaMatrix(n=cfg.max_lag + 1, lags=lags)
        for n_t in cfg.truncations:
            norms.append((n_t, delta_norm(delta_matrix(eta_obj, n_t)).value))
    monotone = all(b[1] >= a[1] - 1e-9 for a, b in zip(norms, norms[1:]))
    below = all(v <= bound + 1e-9 for _, v in norms) if entrywise else True
    passed = monotone and below
    return MixingReport(
        model=cfg.model_spec, eta_supported=lags is not None, eta_note=note,
        max_lag=cfg.max_lag, eta_lags=lags,
        eta_entrywise_below_profile=entrywise,
        truncation_norms=tuple(norms), analytic_bound=bound,
        profile={"T": prof.T, "sigma": prof.sigma, "rho": prof.rho,
                 "K": prof.K, "R": prof.R},
        passed=passed,
    )


# ---------------------------------------------------------------------------
# harness self-test


def poisson_self_test(lam: float, n: int, seed: int) -> dict:
    """Feed synthetic Poisson counts through the histogram/TV pipeline; the
    result must sit within 3 aggregate standard errors of zero TV."""
    counts = sample_poisson_counts(lam, n, seed)
    jm = histogram_j_max(lam)
    hist = fold_histogram(counts.tolist(), jm)
    emp = {j: c / n for j, c in hist.items()}
    ref = poisson_reference(lam, jm)
    tv = tv_distance(emp, ref)
    se = 0.5 * math.fsum(math.sqrt(p * (1.0 - p) / n) for p in ref.values())
    return {"tv": tv, "se": se, "threshold": 3.0 * se, "n": n,
            "passed": tv <= 3.0 * se}


# ---------------------------------------------------------------------------
# serialization


def to_jsonable(obj):
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {name: to_jsonable(getattr(obj, name))
                for name in obj.__dataclass_fields__}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"


def write_report(out_dir: str | Path, payload, meta: dict | None = None) -> Path:
    """report.json with a 'meta' key (timestamps live there and only there)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"report": to_jsonable(payload), "meta": to_jsonable(meta or {})}
    path = out / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def write_histogram_csv(out_dir: str | Path, idx: int, rep: SetReport) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["j,frequency,empirical_prob,poisson_prob,abs_diff"]
    n = max(rep.n_used, 1)
    for j in range(rep.j_max + 2):
        freq = rep.histogram.get(j, 0)
        emp = freq / n if rep.n_used else 0.0
        ref = rep.poisson.get(j, 0.0)
        lines.append(f"{j},{freq},{emp!r},{ref!r},{abs(emp - ref)!r}")
    path = out / f"histogram_{idx}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_exceedance_csv(out_dir: str | Path, rep: ConcentrationReport) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t,empirical_prob,theoretical_bound,se,flag"]
    for row in rep.rows:
        flag = "VIOLATION" if row.violation else "ok"
        lines.append(f"{row.t!r},{row.empirical_prob!r},"
                     f"{row.theoretical_bound!r},{row.se!r},{flag}")
    path = out / "exceedance.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_eta_csv(out_dir: str | Path, rep: MixingReport) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["lag,eta"]
    for m, v in enumerate(rep.eta_lags or (), start=1):
        lines.append(f"{m},{v!r}")
    path = out / "eta_table.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def execute(cfg: ExperimentConfig, out_dir: str | Path | None) -> tuple[int, object]:
    """Run the configured mode and write its reports.

    Returns (exit_code, payload): 0 when every statistical check passed,
    1 otherwise; config and resource problems raise instead.
    """
    t0 = time.monotonic()
    if cfg.mode == "annealed":
        rep = run_annealed(cfg)
        payload, passed = rep, rep.passed
        set_reports = rep.sets
    elif cfg.mode == "quenched":
        res = run_quenched(cfg)
        payload, passed = res, res.summary.passed
        set_reports = res.replicas[0].sets if res.replicas else ()
    elif cfg.mode == "oracle":
        rep = run_oracle_suite(cfg)
        payload, passed = rep, rep.passed
        set_reports = ()
    elif cfg.mode == "concentration":
        rep = run_concentration(cfg)
        payload, passed = rep, rep.violations == 0
        set_reports = ()
    else:
        rep = run_mixing(cfg)
        payload, passed = rep, rep.passed
        set_reports = ()
    if out_dir is not None:
        meta = {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "wall_clock_s": round(time.monotonic() - t0, 3),
        }
        write_report(out_dir, payload, meta)
        for i, sr in enumerate(set_reports):
            write_histogram_csv(out_dir, i, sr)
        if cfg.mode == "concentration":
            write_exceedance_csv(out_dir, payload)
        if cfg.mode == "mixing" and payload.eta_lags is not None:
            write_eta_csv(out_dir, payload)
    return (0 if passed else 1), payload

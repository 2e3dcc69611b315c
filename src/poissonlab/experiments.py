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
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (ConfigError, InsufficientDataError, ResourceError,
                     UnsupportedModelError)
from .measures import (GaussCFModel, IidModel, MarkovModel, Model,
                       contraction_profile, cylinder_prob_exact, draw,
                       mixing_profile, model_from_spec, model_to_spec)
from .mixing_concentration import (DELTA_NORM_MATRIX_CAP, MAX_LAG_CAP,
                                   PHI2_EXACT_CAP, OccurrenceIndex, _check_range_cells,
                                   _plan_words, _ranges_array, delta_matrix, delta_norm,
                                   delta_norm_bound, eta_coefficients,
                                   lipschitz_weights_phi1,
                                   lipschitz_weights_phi2, phi2_enumerable,
                                   phi_k_j_S, phi_k_S)
from .oracles import (annealed_exact_expectation, brute_force_distribution,
                      dp_count_distribution, exact_expectation,
                      exact_pair_prob, exact_variance, log_n_over_n_bound,
                      period_class_measure)
from .point_process import (IntervalUnion, count_word_occurrences, j_set,
                            required_prefix_length)
from .poisson_stats import (KALLENBERG_MIN_SAMPLES, fold_histogram, histogram_j_max,
                            kallenberg_check, poisson_reference, tv_distance)
from .rng import derive_seed
from .rng import uniform_block  # noqa: F401  (perfbench's tracer self-test wraps this binding)
from .words import enumerate_words, periods

MODES = ("annealed", "quenched", "oracle", "concentration", "mixing")
SYMBOL_BUDGET = 2 * 10**9  # symbols one counting run may draw
_BATCH_ELEMS = 1 << 23  # symbols per batch of annealed or concentration streams
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
    t_grid: tuple[float, ...]
    functional: str
    j: int
    max_lag: int
    truncations: tuple[int, ...]
    warnings: tuple[str, ...]


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} - {"model_spec", "warnings"}


def _cfg_int(doc: dict, key: str, default, lo: int, hi: float = math.inf) -> int:
    """The integer at ``key`` (``default`` when absent), in [lo, hi]."""
    v = doc.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or not lo <= v <= hi:
        bounds = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ConfigError(f"$.{key}: expected an integer {bounds}")
    return v


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
        prof = contraction_profile(model)  # refuses a symbol or transition of probability 1
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"$.model: {exc}") from exc
    if "k" not in doc:
        raise ConfigError("$.k: required")
    k = _cfg_int(doc, "k", None, lo=1)
    seed = _cfg_int(doc, "seed", 0, lo=0, hi=(1 << 64) - 1)

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
    if mode != "mixing" and not sets:
        raise ConfigError("$.sets: at least one target set is required")
    if mode in ("oracle", "concentration") and len(sets) > 1:
        raise ConfigError(f"$.sets: {mode} mode checks one target set, got {len(sets)}")

    n_samples = _cfg_int(doc, "n_samples", 1000, lo=1)
    n_x_replicas = _cfg_int(doc, "n_x_replicas", 1, lo=1)
    tv_tolerance = doc.get("tv_tolerance", 0.05)
    if not isinstance(tv_tolerance, (int, float)) or isinstance(tv_tolerance, bool) \
            or not 0 < float(tv_tolerance) <= 1:
        raise ConfigError("$.tv_tolerance: expected a number in (0, 1]")
    min_passing = _cfg_int(doc, "min_passing_replicas",
                           max(1, math.ceil(0.9 * n_x_replicas)), lo=0, hi=n_x_replicas)

    # n_cap defaults to 10 sup S / (K rho^k) for a finite alphabet with target
    # sets (sup S / (K rho^k) is the heuristic floor it warns below), to 10^7
    # for the CF model and to k in oracle and mixing mode or without a set,
    # where no mode reads it
    floor = None
    if sets and mode in ("annealed", "quenched", "concentration") \
            and not isinstance(model, GaussCFModel):
        scale = prof.K * prof.rho**k
        for i, S in enumerate(sets):
            # the default takes the ceiling of 10 sup S / (K rho^k), and the
            # concentration weights sup S / (K rho^k); with an explicit n_cap
            # an infinite floor only warns in the other modes
            if scale == 0.0 or (("n_cap" not in doc or mode == "concentration")
                                and not math.isfinite(10.0 * float(S.sup) / scale)):
                raise ConfigError(f"$.sets[{i}]: sup S / (K rho^k) at k={k} is past "
                                  "the float range, so no stream length reaches it")
        sup = max(float(S.sup) for S in sets)
        floor = sup / scale
    warnings: list[str] = []
    if "n_cap" in doc:
        n_cap = _cfg_int(doc, "n_cap", None, lo=1)
    elif isinstance(model, GaussCFModel):
        n_cap = 10**7
    elif floor is None:
        n_cap = k
    elif sup <= 0:
        n_cap = max(10 * k, 100)
    else:
        n_cap = max(int(math.ceil(10.0 * sup / scale)), k)
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
    if mode == "concentration":
        if n_samples < 200:
            raise ConfigError("$.n_samples: concentration mode needs >= 200 replicas")
        if not t_grid_doc:
            raise ConfigError("$.t_grid: concentration mode needs at least one threshold")
        if functional == "phi2" and not phi2_enumerable(model, k):
            raise ConfigError(
                "$.functional: 'phi2' enumerates every word, so it needs a finite "
                f"alphabet with alphabet_size**k <= {PHI2_EXACT_CAP}")
    j = _cfg_int(doc, "j", 0, lo=0)
    # run_mixing takes one exact matrix power per lag
    max_lag = _cfg_int(doc, "max_lag", 30, lo=1, hi=MAX_LAG_CAP)
    truncations_doc = doc.get("truncations", [50, 100, 200])
    # run_mixing builds a dense n x n dependency matrix per truncation
    if not isinstance(truncations_doc, list) or any(
            not isinstance(t, int) or isinstance(t, bool)
            or not 1 <= t <= DELTA_NORM_MATRIX_CAP for t in truncations_doc):
        raise ConfigError("$.truncations: expected a list of integers in "
                          f"[1, {DELTA_NORM_MATRIX_CAP}]")

    if mode in ("annealed", "quenched") and n_samples < 100:
        raise InsufficientDataError("$.n_samples: statistical modes need >= 100 samples")

    return ExperimentConfig(
        mode=mode, model=model, model_spec=model_to_spec(model), k=int(k),
        sets=tuple(sets), n_samples=n_samples, n_x_replicas=n_x_replicas,
        n_cap=n_cap, seed=seed, tv_tolerance=float(tv_tolerance),
        min_passing_replicas=min_passing,
        t_grid=tuple(float(t) for t in t_grid_doc), functional=functional,
        j=j, max_lag=max_lag, truncations=tuple(sorted(truncations_doc)),
        warnings=tuple(warnings),
    )


def read_config_doc(path: str | Path) -> dict:
    """The JSON object in a config file, before validation."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"$: cannot read {p}: {exc}") from exc
    # a file that is not UTF-8, bad JSON, or nesting past the parser's recursion
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"$: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# report types: each mode's report answers ``passed`` (the exit code follows
# it), ``tables()`` (its CSV files, name -> lines) and ``summary_lines()``


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6f}"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _set_passed(rep: SetReport, tolerance: float) -> bool:
    return rep.tv_set is not None and rep.tv_set <= tolerance


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

    def histogram_table(self) -> list[str]:
        lines = ["j,frequency,empirical_prob,poisson_prob,abs_diff"]
        for j in range(self.j_max + 2):
            freq = self.histogram.get(j, 0)
            emp = freq / max(self.n_used, 1)
            ref = self.poisson.get(j, 0.0)
            lines.append(f"{j},{freq},{emp!r},{ref!r},{abs(emp - ref)!r}")
        return lines


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

    def set_lines(self) -> list[str]:
        return [f"  S = {sr.label}: n_used={sr.n_used} truncated={sr.n_truncated} "
                f"TV={_fmt(sr.tv_set)} (tol {self.tv_tolerance}) "
                f"{_verdict(_set_passed(sr, self.tv_tolerance))}" for sr in self.sets]

    def summary_lines(self) -> list[str]:
        return [f"{self.mode}: k={self.k} n={self.n_samples} seed={self.seed}",
                *self.set_lines(), f"result: {_verdict(self.passed)}"]

    def tables(self) -> dict[str, list[str]]:
        return {f"histogram_{i}.csv": sr.histogram_table() for i, sr in enumerate(self.sets)}


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

    @property
    def passed(self) -> bool:
        return self.summary.passed

    def summary_lines(self) -> list[str]:
        s = self.summary
        lines = [f"quenched: {s.n_replicas} replicas, tolerance {s.tv_tolerance}"]
        for rep in self.replicas:
            lines += [f" replica {rep.replica_index}:", *rep.set_lines()]
        lines.append(f"result: {s.passing_replicas}/{s.n_replicas} passing "
                     f"(need {s.min_passing_replicas}): {_verdict(s.passed)}")
        return lines

    def tables(self) -> dict[str, list[str]]:
        """Replica 0's histograms."""
        return self.replicas[0].tables()


@dataclass(frozen=True)
class ConcentrationRow:
    t: float
    empirical_prob: float
    theoretical_bound: float
    se: float
    violation: bool

    @property
    def flag(self) -> str:
        return "VIOLATION" if self.violation else "ok"


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

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def summary_lines(self) -> list[str]:
        return [f"concentration: functional={self.functional} k={self.k} "
                f"replicas={self.n_replicas}",
                f"  delta bound {self.delta_bound:.6f}, denominator {self.denominator:.6g}",
                *(f"  t={row.t:g}: empirical={row.empirical_prob:.3e} "
                  f"bound={row.theoretical_bound:.3e} {row.flag}" for row in self.rows),
                f"result: {_verdict(self.passed)}"]

    def tables(self) -> dict[str, list[str]]:
        return {"exceedance.csv": [
            "t,empirical_prob,theoretical_bound,se,flag",
            *(f"{row.t!r},{row.empirical_prob!r},{row.theoretical_bound!r},{row.se!r},"
              f"{row.flag}" for row in self.rows)]}


def _set_report(S: IntervalUnion, counts: np.ndarray, truncated: np.ndarray,
                slack: float) -> SetReport:
    lam = float(S.total_length)
    j_max = histogram_j_max(lam)
    used = counts[~truncated]
    trunc = counts[truncated]
    hist = fold_histogram(used, j_max)
    thist = fold_histogram(trunc, j_max)
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
    if used.size >= KALLENBERG_MIN_SAMPLES:
        kall = kallenberg_check(used, lam, slack)
    else:
        kall = {"status": "SKIPPED",
                "reason": f"fewer than {KALLENBERG_MIN_SAMPLES} usable samples"}
    return SetReport(
        label=S.label(), spec=tuple(tuple(sorted(d.items())) for d in S.to_spec()),
        size=lam, j_max=j_max, n_used=int(used.size), n_truncated=int(trunc.size),
        truncated_fraction=float(trunc.size / max(counts.size, 1)),
        histogram=hist, truncated_histogram=thist, poisson=ref,
        empirical_mean=mean, empirical_variance=var,
        tv_set=tv, tv_functional=None if tv is None else 2.0 * tv,
        kallenberg=kall,
    )


def _genericity_report(cfg: ExperimentConfig,
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
    passed = all(_set_passed(r, cfg.tv_tolerance) for r in sets)
    return GenericityReport(
        mode=cfg.mode, model=cfg.model_spec, k=cfg.k, seed=cfg.seed,
        n_samples=cfg.n_samples, n_cap=cfg.n_cap, tv_tolerance=cfg.tv_tolerance,
        replica_index=replica_index, sets=tuple(sets),
        truncated_fraction=overall_trunc, passed=passed, warnings=cfg.warnings,
    )


# ---------------------------------------------------------------------------
# the counting pipeline shared by the annealed, quenched and concentration runners


def _check_budget(symbols: int) -> None:
    if symbols > SYMBOL_BUDGET:
        raise ResourceError(
            f"run would draw {symbols:.2e} symbols, over the budget of "
            f"{SYMBOL_BUDGET:.0e}; reduce n_samples, n_x_replicas or n_cap")


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
    _check_budget(n * k)
    words = draw(model, derive_seed(cfg.seed, 1, np.arange(n)), k)
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
            streams = draw(model, derive_seed(cfg.seed, 2, rows), length)
            for si, rs in enumerate(ranges):
                counts[si][rows] = count_word_occurrences(streams, words[rows], rs)
    return _genericity_report(cfg, counts, truncated, None)


# ---------------------------------------------------------------------------
# quenched


def run_quenched(cfg: ExperimentConfig) -> QuenchedResult:
    """Per fixed stream x: the count law over an independent word sample,
    one report per x replica plus the pass summary."""
    if cfg.mode != "quenched":
        raise ConfigError("$.mode: run_quenched needs mode 'quenched'")
    _check_budget(cfg.n_x_replicas * cfg.n_samples * cfg.k)  # the words
    reports = [_quenched_replica(cfg, r) for r in range(cfg.n_x_replicas)]
    tvs = [max((s.tv_set for s in rep.sets if s.tv_set is not None), default=None)
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
    words = draw(model, derive_seed(cfg.seed, 4, r, np.arange(n)), k)
    plan_of, plans = _plan_words(model, words, cfg.sets, k)
    _check_range_cells(n, [J for plan in plans for J in plan.js])  # before x is drawn
    x_len = min(max(max(plan.need for plan in plans), k), cfg.n_cap)
    _check_budget(cfg.n_x_replicas * x_len)
    x = draw(model, derive_seed(cfg.seed, 3, [r]), x_len)[0]
    index = OccurrenceIndex(x, k)
    max_start = x_len - k + 1

    counts, truncated = [], []
    for si in range(len(cfg.sets)):
        js = [plan.js[si] for plan in plans]
        truncated.append(np.array([J.max_index() > max_start for J in js])[plan_of])
        ranges = _ranges_array([J.clipped(max_start) for J in js])
        counts.append(index.count_in_ranges(words, ranges[plan_of]))
    return _genericity_report(cfg, counts, truncated, r)


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

    def summary_lines(self) -> list[str]:
        return [f"oracle suite: model={self.model.get('type')} k={self.k} S={self.set_label}",
                *(f"  {row.name}: {row.status} ({row.detail})" for row in self.rows),
                f"result: {_verdict(self.passed)}"]

    def tables(self) -> dict[str, list[str]]:
        return {}


def _require(ok: bool, detail: str) -> None:
    """Fail the current oracle row with ``detail`` unless ``ok``: a raise, not
    an ``assert`` statement, so the verdict survives ``python -O``."""
    if not ok:
        raise AssertionError(detail)


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
    S = cfg.sets[0]
    s = model.alphabet_size

    def fit_k(k_min: int, k_max: int, limit: int) -> int:
        """The largest k in [k_min, min(cfg.k, k_max)] with s^k <= limit; with
        none, a ResourceError, so the row reads SKIP with the reason."""
        k_f = min(cfg.k, k_max)
        while k_f >= k_min and s**k_f > limit:
            k_f -= 1
        if k_f < k_min:
            raise ResourceError(f"needs a word length k >= {k_min} with k <= {cfg.k} "
                                f"and {s}**k <= {limit}")
        return k_f

    def expectation_check() -> str:
        k_e = fit_k(1, 8, 1 << 12)
        worst = max((abs(exact_expectation(model, w, S) - S.total_length) / mu
                     for w in enumerate_words(s, k_e)
                     if (mu := cylinder_prob_exact(model, w))), default=Fraction(0))
        _require(worst <= S.m, f"sandwich ratio {float(worst):.3f} exceeds m={S.m}")
        return f"k={k_e}: max |E-|S||/mu = {float(worst):.6f} <= m = {S.m}"

    def variance_check() -> str:
        checked = 0
        for k_v in range(1, 5):
            for w in enumerate_words(s, k_v):
                mu = cylinder_prob_exact(model, w)
                if mu == 0:
                    continue
                J = j_set(mu, S)
                if required_prefix_length(k_v, J) > 22:
                    continue
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

    def pair_check() -> str:
        checked = 0
        for k_p in (2, 3):
            for w in list(enumerate_words(s, k_p))[: s**2]:
                for lag in range(1, 5):
                    if s ** (k_p + lag) > 1 << 18:
                        continue
                    exact = exact_pair_prob(model, w, lag)
                    brute = sum((cylinder_prob_exact(model, u)
                                 for u in enumerate_words(s, k_p + lag)
                                 if u[:k_p] == w and u[lag: lag + k_p] == w), Fraction(0))
                    _require(exact == brute, f"w={w} lag={lag}: {exact} != {brute}")
                    checked += 1
        return f"{checked} (word, lag) pairs match enumeration exactly"

    def period_check() -> str:
        k_c = fit_k(2, 10, 1 << 16)  # period classes ell = 1..k_c-1
        uniform = isinstance(model, IidModel) and len(set(model.probs)) == 1
        for ell in range(1, k_c):
            mass = period_class_measure(model, k_c, ell)
            dual = sum((cylinder_prob_exact(model, w) for w in enumerate_words(s, k_c)
                        if ell in periods(w)), Fraction(0))
            _require(mass == dual, f"ell={ell}: {mass} != {dual}")
            if uniform:
                _require(mass == Fraction(1, s ** (k_c - ell)),
                         f"ell={ell}: uniform class mass {mass}")
        return f"k={k_c}: all period classes match the periods() dual path"

    def annealed_check() -> str:
        k_a = fit_k(1, 12, 1 << 20)
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
            _require(t2 <= t1 + 1e-12, f"TV rose from k={k1} ({t1:.3e}) to k={k2} ({t2:.3e})")
        fitted = max(tv / (k_d * prof.rho**k_d) for k_d, tv in ref_tv)
        _require(fitted <= 4.0, f"fitted decay constant {fitted:.3f} > 4")
        w4 = (0, 0, 0, 1)
        bf = brute_force_distribution(model, w4, S)
        dp = dp_count_distribution(model, w4, S)
        for jj in set(bf) | set(dp):
            _require(abs(float(bf.get(jj, 0)) - dp.get(jj, 0.0)) <= 1e-12,
                     f"DP vs enumeration at count {jj}")
        decay = ", ".join(f"k={k_d}: {tv:.3e}" for k_d, tv in ref_tv)
        return f"{decay}; fitted constant {fitted:.3f} <= 4; DP == enumeration at k=4"

    def majorant_check() -> str:
        prof = mixing_profile(model)
        vals = [(k_m, log_n_over_n_bound(k_m, S, prof)) for k_m in range(2, 40)]
        defined = [(k_m, b) for k_m, b in vals if b is not None]
        if not defined:
            raise UnsupportedModelError("majorant undefined for every k in 2..39")
        for (k1, b1), (k2, b2) in zip(defined, defined[1:]):
            _require(b2 <= b1 + 1e-15, f"majorant rose between k={k1} and k={k2}")
        first, b_first = defined[0]
        return f"defined from k={first}, monotone decreasing; at k={first}: {b_first:.4f}"

    # the exact rational checks enumerate words over a finite alphabet
    rational = (("expectation_sandwich", expectation_check),
                ("variance_dual_path", variance_check),
                ("pair_probability_dual_path", pair_check),
                ("period_class_dual_path", period_check),
                ("annealed_expectation_identity", annealed_check))
    rows = [OracleRow(name, "SKIP", "needs a finite alphabet") if s is None
            else _oracle_guarded(name, fn) for name, fn in rational]
    rows.append(_oracle_guarded("count_law_tv_decay", tv_decay_check))
    rows.append(_oracle_guarded("scan_length_majorant", majorant_check))
    passed = all(r.status != "FAIL" for r in rows)
    return OracleReport(cfg.model_spec, cfg.k, S.label(), tuple(rows), passed)


# ---------------------------------------------------------------------------
# concentration and mixing


def run_concentration(cfg: ExperimentConfig) -> ConcentrationReport:
    """Empirical deviation probabilities of a scanned functional vs the bound.

    Evaluates the functional on n_samples independent streams (replica r
    draws with seed ``derive_seed(seed, 1, r)``), centers at the empirical
    mean, and compares each tail frequency against
    2 exp(-t^2 / (||Delta||^2 * B)), where B is the analytic majorant of the
    functional's squared weight norm (``lipschitz_weights_phi1/phi2``: for
    phi1, 8 k^4 sup(S) max(K, 1)^2 rho^k), flagging any exceedance beyond
    three binomial standard errors where the bound is informative (< 1).
    """
    if cfg.mode != "concentration":
        raise ConfigError("$.mode: run_concentration needs mode 'concentration'")
    model, k, S, n = cfg.model, cfg.k, cfg.sets[0], cfg.n_samples
    profile = mixing_profile(model)
    weights = lipschitz_weights_phi1 if cfg.functional == "phi1" else lipschitz_weights_phi2
    dn = delta_norm_bound(profile)
    denominator = dn**2 * weights(k, S, profile)[1]

    def streams(length: int):
        _check_budget(n * length)
        step = max(1, _BATCH_ELEMS // max(length, 1))
        return (draw(model, derive_seed(cfg.seed, 1, np.arange(lo, min(lo + step, n))),
                     length) for lo in range(0, n, step))

    if cfg.functional == "phi1":
        values, complete = phi_k_S(model, streams, k, S, cfg.n_cap)
    else:
        values, truncated = phi_k_j_S(model, streams, k, cfg.j, S, cfg.n_cap)
        complete = truncated == 0.0

    mean = float(np.mean(values))
    std = float(np.std(values))
    dev = np.abs(values - mean)
    rows = []
    for t in cfg.t_grid:
        emp = float(np.mean(dev >= t))
        bound = min(1.0, 2.0 * math.exp(-(t * t) / denominator)) if denominator > 0 else 1.0
        se = math.sqrt(emp * (1.0 - emp) / n)
        violation = bound < 1.0 and emp > bound + 3.0 * se
        rows.append(ConcentrationRow(float(t), emp, bound, se, violation))
    return ConcentrationReport(cfg.functional, k, S.label(), n, cfg.n_cap, complete,
                               dn, denominator, mean, std, tuple(rows))


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

    def summary_lines(self) -> list[str]:
        return [f"mixing: eta {'supported' if self.eta_supported else 'bound-only'}"
                f" ({self.eta_note})",
                *(f"  ||Delta_{n_t}|| = {v:.6f}" for n_t, v in self.truncation_norms),
                f"  analytic bound {self.analytic_bound:.6f}",
                f"result: {_verdict(self.passed)}"]

    def tables(self) -> dict[str, list[str]]:
        if self.eta_lags is None:
            return {}
        lags = enumerate(self.eta_lags, start=1)
        return {"eta_table.csv": ["lag,eta", *(f"{m},{v!r}" for m, v in lags)]}


def run_mixing(cfg: ExperimentConfig) -> MixingReport:
    if cfg.mode != "mixing":
        raise ConfigError("$.mode: run_mixing needs mode 'mixing'")
    model = cfg.model
    prof = mixing_profile(model)
    bound = delta_norm_bound(prof)
    if isinstance(model, MarkovModel):
        lags = tuple(float(v) for v in eta_coefficients(model, cfg.max_lag))
        note = "exact matrix-power lag coefficients"
        entrywise = all(
            lag <= prof.T * prof.sigma**m + 1e-12
            for m, lag in enumerate(lags, start=1))
    elif isinstance(model, IidModel):
        lags = (0.0,) * cfg.max_lag
        note = "independent coordinates: all lag coefficients vanish"
        entrywise = True
    else:
        lags = None
        note = "UNSUPPORTED: no exact lag path for this model; bound-only report"
        entrywise = None

    norms = [] if lags is None else [(n_t, delta_norm(delta_matrix(lags, n_t)))
                                     for n_t in cfg.truncations]
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
# serialization

Report = GenericityReport | QuenchedResult | OracleReport | ConcentrationReport | MixingReport


def to_jsonable(obj):
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, dict):
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {name: to_jsonable(getattr(obj, name))
                for name in obj.__dataclass_fields__}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(out_dir: str | Path, payload: Report, meta: dict | None = None) -> Path:
    """report.json with a 'meta' key (timestamps live there and only there),
    then the payload's CSV tables."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"report": to_jsonable(payload), "meta": to_jsonable(meta or {})}
    path = out / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for name, lines in payload.tables().items():
        (out / name).write_text("\n".join(lines) + "\n")
    return path


def execute(cfg: ExperimentConfig, out_dir: str | Path | None) -> tuple[int, Report]:
    """Run the configured mode and write its reports.

    Returns (exit_code, payload): 0 when the payload passed, 1 otherwise;
    config and resource problems raise instead.
    """
    t0 = time.monotonic()
    # built per call, so a runner rebound on this module is the one that runs
    runner = {"annealed": run_annealed, "quenched": run_quenched,
              "oracle": run_oracle_suite, "concentration": run_concentration,
              "mixing": run_mixing}[cfg.mode]
    payload = runner(cfg)
    if out_dir is not None:
        write_report(out_dir, payload, {"created_utc": datetime.now(timezone.utc).isoformat(),
                                        "wall_clock_s": round(time.monotonic() - t0, 3)})
    return (0 if payload.passed else 1), payload

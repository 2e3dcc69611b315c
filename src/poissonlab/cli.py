"""Command-line front end.

One subcommand per experiment mode; each takes a JSON config plus an output
directory, prints a human-readable summary, and exits 0 on pass, 1 on a
statistical failure, 2 on configuration or resource problems, and 3 when
one of the package's own exact-identity or bound self-checks fails.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (ConfigError, InsufficientDataError, InternalCheckError,
                     ResourceError, UnsupportedModelError)
from .experiments import (MODES, ConcentrationReport, GenericityReport,
                          MixingReport, OracleReport, QuenchedResult, execute,
                          parse_config, read_config_doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonlab",
        description="Occurrence-count statistics of symbolic sequences "
                    "against Poisson limits")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run the {mode} experiment")
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="report output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    return parser


def _fmt(v, digits: int = 6) -> str:
    return "n/a" if v is None else f"{v:.{digits}f}"


def _print_genericity(rep: GenericityReport) -> None:
    for sr in rep.sets:
        verdict = "PASS" if sr.tv_set is not None and sr.tv_set <= rep.tv_tolerance \
            else "FAIL"
        print(f"  S = {sr.label}: n_used={sr.n_used} truncated={sr.n_truncated} "
              f"TV={_fmt(sr.tv_set)} (tol {rep.tv_tolerance}) {verdict}")


def _print_payload(payload) -> None:
    if isinstance(payload, GenericityReport):
        print(f"annealed: k={payload.k} n={payload.n_samples} seed={payload.seed}")
        _print_genericity(payload)
        print("result:", "PASS" if payload.passed else "FAIL")
    elif isinstance(payload, QuenchedResult):
        s = payload.summary
        print(f"quenched: {s.n_replicas} replicas, tolerance {s.tv_tolerance}")
        for rep in payload.replicas:
            print(f" replica {rep.replica_index}:")
            _print_genericity(rep)
        print(f"result: {s.passing_replicas}/{s.n_replicas} passing "
              f"(need {s.min_passing_replicas}):",
              "PASS" if s.passed else "FAIL")
    elif isinstance(payload, OracleReport):
        print(f"oracle suite: model={payload.model.get('type')} k={payload.k} "
              f"S={payload.set_label}")
        for row in payload.rows:
            print(f"  {row.name}: {row.status} ({row.detail})")
        print("result:", "PASS" if payload.passed else "FAIL")
    elif isinstance(payload, ConcentrationReport):
        print(f"concentration: functional={payload.functional} k={payload.k} "
              f"replicas={payload.n_replicas}")
        print(f"  delta bound {payload.delta_bound:.6f}, "
              f"denominator {payload.denominator:.6g}")
        for row in payload.rows:
            flag = "VIOLATION" if row.violation else "ok"
            print(f"  t={row.t:g}: empirical={row.empirical_prob:.3e} "
                  f"bound={row.theoretical_bound:.3e} {flag}")
        print("result:", "PASS" if payload.violations == 0 else "FAIL")
    else:
        assert isinstance(payload, MixingReport)
        print(f"mixing: eta {'supported' if payload.eta_supported else 'bound-only'}"
              f" ({payload.eta_note})")
        for n_t, v in payload.truncation_norms:
            print(f"  ||Delta_{n_t}|| = {v:.6f}")
        print(f"  analytic bound {payload.analytic_bound:.6f}")
        print("result:", "PASS" if payload.passed else "FAIL")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = read_config_doc(args.config)
        if doc.setdefault("mode", args.mode) != args.mode:
            raise ConfigError(
                f"$.mode: config says {doc['mode']!r} but the "
                f"{args.mode!r} subcommand was invoked")
        if args.seed is not None:
            doc["seed"] = args.seed
        cfg = parse_config(doc)
        for w in cfg.warnings:
            print(f"warning: {w}", file=sys.stderr)
        code, payload = execute(cfg, args.out)
    except (ConfigError, InsufficientDataError, ResourceError,
            UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    _print_payload(payload)
    if args.out is not None:
        print(f"reports written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())

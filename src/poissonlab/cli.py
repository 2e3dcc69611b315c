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
from .experiments import MODES, execute, parse_config, read_config_doc


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
    print(*payload.summary_lines(), sep="\n")
    if args.out is not None:
        print(f"reports written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())

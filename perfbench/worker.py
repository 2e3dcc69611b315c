"""One measured poissonlab run, in a process of its own.

Reads a job from stdin: ``{"docs": [...], "out": dir, "trace": bool,
"t_spawn": float}``, where ``t_spawn`` is the parent's
``time.monotonic()`` just before it started this process.  Parses every
config document through ``experiments.parse_config``, runs each through
``experiments.execute`` into ``<out>/<i>``, and prints one JSON line: the
directory poissonlab was imported from, setup seconds (process start to
parsed configs), run seconds (first execute call until the last report is
written), peak RSS, exit codes, the report hash of each document and, when
traced, one tracer summary per document.

Exits 2 with an ``error:`` line when poissonlab rejects a config or its
resources, like the CLI; any other exception ends it with a traceback.
"""

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer


def report_hash(path: Path) -> str:
    """sha256 of the canonical ``report`` section, first 16 hex digits."""
    report = json.loads(path.read_text())["report"]
    return hashlib.sha256(
        json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()[:16]


def main() -> int:
    job = json.load(sys.stdin)
    from poissonlab import errors, experiments

    try:
        cfgs = [experiments.parse_config(doc) for doc in job["docs"]]
        setup_s = time.monotonic() - job["t_spawn"]
        out = Path(job["out"])
        codes, traces = [], []
        t0 = time.perf_counter()
        for i, cfg in enumerate(cfgs):
            with Tracer() if job["trace"] else nullcontext() as tracer:
                codes.append(experiments.execute(cfg, out / str(i))[0])
            if tracer:
                traces.append(tracer.summary())
        run_s = time.perf_counter() - t0
    except (errors.ConfigError, errors.InsufficientDataError,
            errors.ResourceError, errors.UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "package": str(Path(experiments.__file__).resolve().parent),
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "codes": codes,
        "hash": "+".join(report_hash(out / str(i) / "report.json")
                         for i in range(len(cfgs))),
        "trace": traces or None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

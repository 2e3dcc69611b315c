"""poissonlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Runs one workload (see ``workloads.py``) from the root of a checkout.  Every
measured run is a fresh ``python3 perfbench/worker.py`` process, one at a
time, that imports poissonlab, parses the workload's config documents with
``experiments.parse_config`` and runs them through ``experiments.execute``.

The host this was tuned on, a shared two-core VM, changed speed by up to
1.5x for tens of seconds to minutes at a time, so times are measured against
``reference/``, a frozen copy of the poissonlab sources the benchmark was
defined on.  Runs of the program (``src/``) alternate with runs of the
reference on the same documents, R P R P ... R, at least ``MIN_CYCLES``
program runs and then while the next pair is likely to end within
``--seconds``.  ``run_s`` is the median over program runs of each run over
the mean of the reference runs on either side of it, ``setup_s`` the
program's median setup over the reference's; each is multiplied by the
reference's own time on the tuning host (``pinned.json``, ``reference_s``),
so both are seconds at the tuning host's speed.
The raw medians are printed beside them and kept in the results record.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (first execute call
until the last report is written), ``setup_s`` (process start to parsed
configs, in every run's process), ``peak_rss_mb`` of a program run's process
(median) and ``ok_frac``, the share of processes that neither raised, exited
non-zero nor wrote a report whose hash differs from its pin (``failed_frac``
is printed too).  ``--trace 1`` alternates untraced program runs with runs under
``tracer.Tracer`` and prints the per-layer metrics of the traced ones
(medians) plus the tracing overhead, median traced over median untraced
``run_s`` minus one.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything measured, with an environment record,
also goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import workloads
from tracer import UNWRAPPED, layer_metrics, layer_shares, merged

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
PINNED = json.loads((BENCH / "pinned.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

MIN_CYCLES = 2     # (program, reference) run pairs; (untraced, traced) under --trace 1
DEADLINE_S = 170   # an invocation must end within 180 s

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def spawn(docs: list[dict], out: Path, timeout: float, trace: bool = False,
          reference: bool = False) -> tuple[dict | None, str | None]:
    """Run the worker once on the program, or on the frozen reference copy;
    returns (result, None) or (None, why it failed)."""
    src = REFERENCE if reference else ROOT / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    job = {"docs": docs, "out": str(out), "trace": trace, "t_spawn": time.monotonic()}
    try:
        # a SIGTERM to this process raises SystemExit here, and run() then
        # kills the worker and waits for it
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    res = json.loads(proc.stdout.splitlines()[-1])
    if Path(res["package"]) != src.resolve() / "poissonlab":
        return None, f"imported poissonlab from {res['package']}, not {src}"
    return res, None


def measure(docs: list[dict], seconds: float, trace: bool, pins: dict,
            deadline: float) -> dict:
    """Repeat the worker on ``docs``; every failure is counted, none aborts.

    ``pins`` maps "program" and "reference" to the report hash each must
    write; without a pin, every run of that kind must agree with its first.
    ``runs`` keeps every run in order, a failed one as ``{"error": ...}``.
    """
    out = WORK / str(os.getpid())
    setups, runs, failures = [], [], []
    seen: dict[str, str] = {}
    attempted = 0

    def attempt(kind: str, **kw) -> dict:
        nonlocal attempted
        attempted += 1
        res, err = spawn(docs, out, max(1.0, deadline - time.monotonic()),
                         reference=kind == "reference", **kw)
        if err is None:
            expected = pins.get(kind) or seen.setdefault(kind, res["hash"])
            if res["hash"] != expected:
                err = f"report hash {res['hash']} differs from {expected}"
        if err is not None:
            failures.append(f"{kind}: {err}")
            return {"kind": kind, "trace": None, "error": err}
        setups.append({"kind": kind, "setup_s": res["setup_s"]})
        return {"kind": kind, **res}

    t_end = time.monotonic() + seconds
    if trace:
        cycle = [("program", False), ("program", True)]
    else:
        runs.append(attempt("reference"))
        cycle = [("program", False), ("reference", False)]
    cycles = []
    while time.monotonic() < deadline:
        # start no cycle that would likely end after the measuring window
        if len(cycles) >= MIN_CYCLES and time.monotonic() + statistics.median(cycles) > t_end:
            break
        t0 = time.monotonic()
        runs.extend(attempt(kind, trace=traced) for kind, traced in cycle)
        cycles.append(time.monotonic() - t0)
    return {"attempted": attempted, "failures": failures, "setups": setups, "runs": runs}


def _median(values):
    return statistics.median(values) if values else None


def _ok(kind: str, traced: bool):
    return lambda r: (r["kind"] == kind and "error" not in r
                      and (r["trace"] is not None) == traced)


def _ratio(num: list[float], den: list[float]) -> float | None:
    return statistics.median(num) / statistics.median(den) if num and den else None


def neighbour_ratios(runs: list[dict]) -> list[float]:
    """Each untraced program run over the mean of the reference runs right
    before and after it, where they succeeded."""
    out = []
    for j, r in enumerate(runs):
        near = [runs[i]["run_s"] for i in (j - 1, j + 1)
                if 0 <= i < len(runs) and _ok("reference", False)(runs[i])]
        if _ok("program", False)(r) and near:
            out.append(r["run_s"] / statistics.fmean(near))
    return out


def metrics_of(m: dict, trace: bool, ref: dict) -> dict[str, float | None]:
    """End-to-end metrics (per-layer ones under ``trace``) of one ``measure``;
    ``ref`` holds the reference's ``run_s`` and ``setup_s`` on the tuning host."""
    def run_s(kind, traced=False):
        return [r["run_s"] for r in m["runs"] if _ok(kind, traced)(r)]

    def setup_s(kind):
        return [s["setup_s"] for s in m["setups"] if s["kind"] == kind]

    if not trace:
        run_ratio = _median(neighbour_ratios(m["runs"]))
        setup_ratio = _ratio(setup_s("program"), setup_s("reference"))
        return {
            "run_s": None if run_ratio is None else ref["run_s"] * run_ratio,
            "setup_s": None if setup_ratio is None else ref["setup_s"] * setup_ratio,
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in m["runs"]
                                    if _ok("program", False)(r)]),
            "ok_frac": 1.0 - len(m["failures"]) / m["attempted"],
        }
    per_run = [layer_metrics(merged(r["trace"])) for r in m["runs"] if _ok("program", True)(r)]
    out = {name: _median([p[name] for p in per_run])
           for name in layer_metrics({"spans": {}, "layers": {}})}
    overhead = _ratio(run_s("program", True), run_s("program"))
    out["trace.overhead_frac"] = None if overhead is None else overhead - 1.0
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def write_result(name: str, doc: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    path = RESULTS / f"{stamp}-{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    docs = workloads.docs(name, seed)
    pins = {kind: PINNED[kind].get(name, {}).get(str(seed))
            for kind in ("program", "reference")}
    m = measure(docs, seconds, trace, pins, deadline)
    metrics = metrics_of(m, trace, PINNED["reference_s"][name])
    failed = len(m["failures"])
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"config seeds {[d['seed'] for d in docs]}")
    for kind in ("program", "reference"):
        done = [r for r in m["runs"] if _ok(kind, False)(r)]
        if not done:
            continue
        setup = [s["setup_s"] for s in m["setups"] if s["kind"] == kind]
        hashes = sorted({r["hash"] for r in done})
        print(f"  {kind:9s}: {len(done)} untraced runs, median {_fmt(_median([r['run_s'] for r in done]))} s;"
              f" median setup {_fmt(_median(setup))} s over {len(setup)} processes;"
              f" report hash {', '.join(hashes)}"
              + (f" (pinned {pins[kind]})" if pins[kind] else " (no pin; repeats must agree)"))
    for metric, value in metrics.items():
        print(f"  {metric:40s} {_fmt(value):>14s} {UNITS[metric]}")
    print(f"  {'failed_frac':40s} {_fmt(failed / m['attempted']):>14s} frac "
          f"({failed} of {m['attempted']} processes)")
    for err in m["failures"]:
        print(f"  failure: {err}")
    traced = [r["trace"] for r in m["runs"] if r["trace"]]
    for i, doc in enumerate(docs if traced else ()):
        shares = [layer_shares(t[i]) for t in traced]
        medians = {layer: statistics.median(s.get(layer, 0.0) for s in shares)
                   for layer in shares[0]}
        print(f"  {workloads.label(doc)}: layer self-time shares of its execute "
              f"(median over {len(shares)} traced runs)")
        for layer in sorted(medians, key=medians.get, reverse=True):
            print(f"    {layer:32s} {medians[layer]:7.1%}")
    if trace:
        print(f"  not wrapped: rng.{', rng.'.join(sorted(UNWRAPPED['rng']))} "
              "(per-symbol scalars; their time is their caller's, measures.self_s "
              "for the CF and Markov samplers)")
    result = {
        "correct": failed == 0 and any(_ok("program", False)(r) for r in m["runs"]),
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    path = write_result(f"{name}-seed{seed}-trace{int(trace)}", {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "docs": docs, "env": env, "pins": pins,
        "reference_s": PINNED["reference_s"][name],
        "failures": m["failures"], "setup_samples": m["setups"], "runs": m["runs"],
        "result": result,
    })
    print(f"  results written to {path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "poissonlab" / "__init__.py").is_file():
        print(f"error: no poissonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env)
               for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    cols = [m["name"] for m in SPEC["end_to_end"]] if not args.trace \
        else ["trace.overhead_frac"]
    print(f"{'workload':14s}" + "".join(f"{c:>22s}" for c in cols + ["failed_frac"]))
    for name, res in results.items():
        vals = [f"{_fmt(res['metrics'][c]['value'])} {res['metrics'][c]['unit']}" for c in cols]
        vals.append(f"{_fmt(res['failed'] / res['attempted'])} frac")
        print(f"{name:14s}" + "".join(f"{v:>22s}" for v in vals))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

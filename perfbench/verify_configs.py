"""Shipped-config verification, run once rather than in the repeated loop.

    python3 perfbench/verify_configs.py

Runs each ``configs/*.json`` listed in ``BASELINE`` once, in a fresh worker
process like the benchmark's runs, and checks its report hash against the
baseline recorded in ROADMAP.md.  Records each config's wall time (execute
until the reports are written) next to the environment in
``perfbench/results/``.  Takes about three minutes on two cores.  Exits 0
when every hash matches, 1 otherwise.
"""

import json
import os
import sys

import run

BASELINE = {
    "annealed_fair": "73a1b26fc3f768e4",
    "quenched_fair": "85c21794b38abdc0",
    "quenched_gauss": "4a052dca1bc56ad8",
    "oracle_markov": "064eb0abc9cc5f95",
    "mixing_markov": "f9933a58ea977949",
    "concentration_fair": "26f52c35eb0fcdc7",
}
TIMEOUT_S = 900


def main() -> int:
    env = run.environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    rows = []
    for name, expected in BASELINE.items():
        doc = json.loads((run.ROOT / "configs" / f"{name}.json").read_text())
        res, err = run.spawn([doc], run.WORK / f"configs-{os.getpid()}", TIMEOUT_S)
        row = {"config": name, "baseline": expected, "error": err,
               "hash": res and res["hash"], "exit": res and res["codes"][0],
               "run_s": res and res["run_s"], "setup_s": res and res["setup_s"],
               "peak_rss_mb": res and res["peak_rss_mb"]}
        row["match"] = row["hash"] == expected
        rows.append(row)
        print(f"{name:20s} exit {row['exit']}  run_s {run._fmt(row['run_s']):>10s}  "
              f"hash {row['hash']}  {'ok' if row['match'] else 'MISMATCH ' + expected}"
              + (f"  ({err})" if err else ""))
    path = run.write_result("configs", {"env": env, "configs": rows})
    print(f"results written to {path.relative_to(run.ROOT)}")
    ok = all(r["match"] for r in rows)
    print("all baseline hashes reproduced" if ok else "baseline hashes NOT reproduced")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

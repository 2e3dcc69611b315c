"""The benchmark's workloads: config documents generated from a seed.

Each document keeps the shape of a shipped config (model, k, target set) at
a size that runs in a few seconds, and maps the benchmark seed to the
config seed as ``shipped seed + seed``, so seed 0 is the shipped seed and
every other seed gives other words and streams of the same shape.  The
program receives only these documents; one run executes all of a
workload's documents in one process.  Why each workload is there is
recorded in ``BENCHMARK.json``.

Two workloads, not one per shipped shape: each program run is timed against
runs of the frozen reference copy next to it (see ``run.py``), and the time
budget allows several such pairs of runs of a few seconds each for two
workloads.
"""

FAIR = {"type": "iid", "probs": ["1/2", "1/2"]}
MARKOV = {"type": "markov", "transition": [["9/10", "1/10"], ["1/5", "4/5"]]}
UNIT = [[["0", "1", False, True]]]

WORKLOADS = {
    "iid_counting": lambda s: [
        # configs/annealed_fair.json at 3000 samples: enough that the largest
        # group of words with equal symbol counts fills a whole 512-stream
        # batch on every seed, as at full size, so peak memory does not vary
        # by seed
        {"mode": "annealed", "model": FAIR, "k": 14, "sets": UNIT,
         "n_samples": 3000, "seed": 20260816 + s, "tv_tolerance": 0.08},
        # configs/quenched_fair.json at 2 replicas of 12000 words
        {"mode": "quenched", "model": FAIR, "k": 14, "sets": UNIT,
         "n_samples": 12000, "n_x_replicas": 2, "min_passing_replicas": 2,
         "seed": 20260816 + s, "tv_tolerance": 0.05},
    ],
    "cf_and_exact": lambda s: [
        # configs/quenched_gauss.json at 200 words and 100000 digits.  Few
        # words: j_set's guard band costs a word with a tiny cylinder measure
        # up to ~10^5 mpmath re-decisions, so with 5000 words 2 of 30 seeds
        # took over 15 s just to plan; with 200 words 1 of 60 seeds took 8 s.
        # The digits set most of the rest: 300000 took about 3.4 s, 100000
        # about 0.9 s, next to about 4 s for the oracle suite.
        {"mode": "quenched", "model": {"type": "gauss_cf"}, "k": 8, "sets": UNIT,
         "n_samples": 200, "n_x_replicas": 1, "n_cap": 100000,
         "seed": 31416 + s, "tv_tolerance": 0.08},
        # configs/oracle_markov.json, mixing_markov.json, concentration_fair.json
        {"mode": "oracle", "model": MARKOV, "k": 8, "sets": UNIT, "seed": 1 + s},
        {"mode": "mixing", "model": MARKOV, "k": 8, "seed": 1 + s,
         "max_lag": 30, "truncations": [50, 100, 200]},
        {"mode": "concentration", "model": FAIR, "k": 10, "sets": UNIT,
         "n_samples": 2000, "seed": 77 + s, "functional": "phi1",
         "t_grid": [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]},
    ],
}


def docs(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)


def label(doc: dict) -> str:
    """Short name of one document, such as ``quenched/gauss_cf``."""
    return f"{doc['mode']}/{doc['model']['type']}"

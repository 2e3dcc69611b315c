"""Outside-in tracer for poissonlab: times calls into each module's public
functions by swapping every binding of them for a timing wrapper.

poissonlab modules import names directly (``from .rng import uniform_block``),
so patching the defining module alone would miss most calls.  ``Tracer``
replaces the function object under every name that holds it in every
``poissonlab`` module, wraps the few methods listed in ``METHODS``, and puts
every original back on exit.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds, an optional work amount) and per layer (calls entering the layer
from another layer, self seconds).  A span nested inside a span of the same
name adds to that name's self time but not to its calls, inclusive time or
amount, so ``uniform_block`` calling ``raw_block`` is one RNG call.  The span
of a generator function (``words.enumerate_words``) covers only creating the
generator; iterating it is its consumer's time.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYER_MODULES = ("rng", "words", "point_process", "measures", "poisson_stats",
                 "oracles", "mixing_concentration", "experiments")

# Scalar per-symbol helpers run up to 10^7 times per run (the CF and Markov
# samplers call them once per digit); a wrapper there would cost more than
# the work it times.  Their time stays in the caller's self time, which is
# measures.self_s for the samplers.
UNWRAPPED = {"rng": {"mix64", "value_at", "uniform_at"}}

# (module, function) -> (span name, layer) where the default
# ("<module>.<function>", "<module>") is not wanted.
SPANS = {
    ("rng", "uniform_block"): ("rng.block", "rng"),
    ("rng", "raw_block"): ("rng.block", "rng"),
    ("measures", "cylinder_prob_high"): ("measures.cylinder_high", "measures"),
    ("measures", "gauss_cylinder_prob_high"): ("measures.cylinder_high", "measures"),
    ("experiments", "write_report"): ("experiments.write", "experiments.write"),
    ("experiments", "write_histogram_csv"): ("experiments.write", "experiments.write"),
    ("experiments", "write_exceedance_csv"): ("experiments.write", "experiments.write"),
    ("experiments", "write_eta_csv"): ("experiments.write", "experiments.write"),
}

# (module, class, method, span name, layer)
METHODS = (
    ("measures", "SequenceGenerator", "take", "measures.take", "measures"),
    ("mixing_concentration", "OccurrenceIndex", "__init__",
     "mixing_concentration.index.build", "mixing_concentration.index"),
    ("mixing_concentration", "OccurrenceIndex", "positions",
     "mixing_concentration.index.lookup", "mixing_concentration.index"),
    ("mixing_concentration", "OccurrenceIndex", "count_in_ranges",
     "mixing_concentration.index.lookup", "mixing_concentration.index"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# span name -> work amount of one call, from its arguments
AMOUNTS = {
    "rng.block": lambda a, kw: int(_arg(a, kw, 2, "count")),
    "measures.take": lambda a, kw: int(_arg(a, kw, 1, "n")),
    "mixing_concentration.index.build":
        lambda a, kw: len(_arg(a, kw, 1, "x")) - int(_arg(a, kw, 2, "k")) + 1,
}


class Tracer:
    """Context manager that traces poissonlab while active."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s, amount, depth]
        self.layers: dict[str, list] = {}  # layer -> [entries, self_s]
        self._stack: list[list] = []       # open spans: [layer, child_s]
        self._saved: list[tuple] = []      # (owner, attribute, original)

    def _wrap(self, fn, name: str, layer: str):
        span = self.spans.setdefault(name, [0, 0.0, 0.0, 0, 0])
        lay = self.layers.setdefault(layer, [0, 0.0])
        amount = AMOUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = span[4] == 0
            if outer and amount is not None:
                span[3] += amount(args, kwargs)
            if not stack or stack[-1][0] != layer:
                lay[0] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            span[4] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                span[4] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += d
                own = d - frame[1]
                span[2] += own
                lay[1] += own
                if outer:
                    span[0] += 1
                    span[1] += d

        return traced

    def __enter__(self) -> "Tracer":
        import poissonlab  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sys.modules.items()
                   if name == "poissonlab" or name.startswith("poissonlab.")]
        wrappers = {}  # id(original) -> wrapper
        for short in LAYER_MODULES:
            mod = sys.modules[f"poissonlab.{short}"]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in UNWRAPPED.get(short, ())):
                    name, layer = SPANS.get((short, attr), (f"{short}.{attr}", short))
                    wrappers[id(fn)] = self._wrap(fn, name, layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for short, cls_name, meth, name, layer in METHODS:
            cls = getattr(sys.modules[f"poissonlab.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name, layer))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        return {
            "spans": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "amount": s[3]}
                      for name, s in sorted(self.spans.items()) if s[0]},
            "layers": {layer: {"entries": l[0], "self_s": l[1]}
                       for layer, l in sorted(self.layers.items()) if l[0]},
        }


def merged(summaries: list[dict]) -> dict:
    """One summary whose fields are the sums of those of ``summaries``."""
    out = {"spans": {}, "layers": {}}
    for summary in summaries:
        for kind, entries in out.items():
            for name, fields in summary[kind].items():
                acc = entries.setdefault(name, dict.fromkeys(fields, 0))
                for field, value in fields.items():
                    acc[field] += value
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run's summary."""
    spans, layers = summary["spans"], summary["layers"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    rng_calls = span("rng.block", "calls")
    return {
        "rng.calls": rng_calls,
        "rng.values": span("rng.block", "amount"),
        "rng.values_per_call": span("rng.block", "amount") / rng_calls if rng_calls else 0.0,
        "rng.self_s": self_s("rng"),
        "rng.derive_seed.calls": span("rng.derive_seed", "calls"),
        "experiments.self_s": self_s("experiments"),
        "experiments.write_s": span("experiments.write", "total_s"),
        "measures.take.calls": span("measures.take", "calls"),
        "measures.symbols": span("measures.take", "amount"),
        "measures.self_s": self_s("measures"),
        "measures.sample_word.calls": span("measures.sample_word", "calls"),
        "measures.cylinder_high.calls": span("measures.cylinder_high", "calls"),
        "point_process.j_set.calls": span("point_process.j_set", "calls"),
        "point_process.self_s": self_s("point_process"),
        "mixing_concentration.index.builds": span("mixing_concentration.index.build", "calls"),
        "mixing_concentration.index.windows": span("mixing_concentration.index.build", "amount"),
        "mixing_concentration.index.build_s": span("mixing_concentration.index.build", "total_s"),
        "mixing_concentration.index.lookups": span("mixing_concentration.index.lookup", "calls"),
        "mixing_concentration.index.lookup_s": span("mixing_concentration.index.lookup", "total_s"),
        "mixing_concentration.self_s": self_s("mixing_concentration"),
        "oracles.calls": layers.get("oracles", {}).get("entries", 0),
        "oracles.self_s": self_s("oracles"),
        "poisson_stats.self_s": self_s("poisson_stats"),
    }


def layer_shares(summary: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced execute time."""
    root = summary["spans"].get("experiments.execute", {}).get("total_s", 0.0)
    return {layer: l["self_s"] / root if root else 0.0
            for layer, l in summary["layers"].items()}

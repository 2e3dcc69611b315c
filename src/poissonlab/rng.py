"""Counter-based pseudo-randomness with reproducible, splittable streams.

Every random quantity in this package is a pure function of a 64-bit seed
and a 64-bit counter index, so any draw can be recomputed in isolation or
produced in bulk with numpy without touching generator state.  The core
permutation is the SplitMix64 finalizer; the output stream for a seed is

    value(seed, i) = mix64((seed + (i + 1) * GOLDEN) mod 2**64)

which reproduces the reference SplitMix64 sequence started at ``seed``.
Reference triples (seed, index, value) are pinned in ``tests/data``.

Independent substreams (x replicas, word samples, ...) come from
``derive_seed(root, *labels)``, which folds integer labels into a new seed
through the same permutation with a distinct odd constant, so substreams
never collide with the root stream by construction of the counter offsets.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 increment
_SPLIT = 0xD1B54A32D192ED03  # odd constant reserved for seed derivation

_U64 = np.uint64


def mix64(z: int) -> int:
    """SplitMix64 finalizer, a bijection on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def value_at(seed: int, index: int) -> int:
    """Raw 64-bit output of the stream ``seed`` at counter ``index`` (0-based)."""
    return mix64(seed + (index + 1) * GOLDEN)


def uniform_at(seed: int, index: int) -> float:
    """Uniform double in [0, 1) at counter ``index``: top 53 bits of value_at."""
    return (value_at(seed, index) >> 11) * 2.0**-53


def derive_seed(root: int, *labels: int) -> int:
    """Derive an independent stream seed from integer labels.

    Used for replica / sample substreams: seed_i = derive_seed(root, i),
    nested labels chain, e.g. derive_seed(root, replica, sample).
    """
    s = root & MASK64
    for lab in labels:
        if lab < 0:
            raise ValueError("stream labels must be nonnegative")
        s = mix64(s ^ (((lab + 1) * _SPLIT) & MASK64))
    return s


def raw_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``value_at`` for indices start..start+count-1 (uint64)."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (_U64(seed & MASK64) + idx * _U64(GOLDEN)).astype(np.uint64)
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``uniform_at``: float64 array of length ``count``."""
    return (raw_block(seed, start, count) >> _U64(11)).astype(np.float64) * 2.0**-53


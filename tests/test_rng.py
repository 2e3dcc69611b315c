"""Counter-based RNG: frozen vectors and stream invariants."""

import json
from pathlib import Path

import numpy as np

import pytest

from poissonlab.rng import (_mix_inplace, derive_seed, mix64, raw_block, uniform_at,
                            uniform_block, value_at)

DATA = Path(__file__).parent / "data"

# first outputs of the reference stream at seed 0
SEED0_FIRST = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_seed0_anchor_vector():
    for i, expected in enumerate(SEED0_FIRST):
        assert value_at(0, i) == expected


def test_pinned_triples():
    doc = json.loads((DATA / "rng_vectors.json").read_text())
    for seed, idx, expected in doc["triples"]:
        assert value_at(seed, idx) == expected


def test_mix64_is_64bit():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        v = mix64(z)
        assert 0 <= v < 2**64


def test_uniform_range_and_precision():
    us = [uniform_at(12345, i) for i in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    # 53-bit mantissa: values are multiples of 2^-53
    assert all(u * 2**53 == int(u * 2**53) for u in us)


def test_uniform_block_matches_scalar():
    seed = 98765
    blk = uniform_block(seed, 17, 64)
    assert blk.shape == (64,)
    for off in range(64):
        assert blk[off] == uniform_at(seed, 17 + off)


def test_raw_block_dtype_and_agreement():
    blk = raw_block(7, 0, 16)
    assert blk.dtype == np.uint64
    assert [int(v) for v in blk] == [value_at(7, i) for i in range(16)]


def test_derive_seed_labels():
    root = 42
    a = derive_seed(root, 1)
    b = derive_seed(root, 2)
    c = derive_seed(root, 1, 0)
    assert a != b
    assert a != c
    assert derive_seed(root, 1) == a  # pure
    # distinct roots decorrelate
    assert derive_seed(43, 1) != a


def test_uniform_block_chunks_equal_one_block():
    chunks = [uniform_block(5, 0, 30), uniform_block(5, 30, 50), uniform_block(5, 80, 20)]
    assert np.array_equal(np.concatenate(chunks), uniform_block(5, 0, 100))


def test_disjoint_streams_differ():
    s1 = uniform_block(derive_seed(9, 0), 0, 32)
    s2 = uniform_block(derive_seed(9, 1), 0, 32)
    assert not np.array_equal(s1, s2)


SEEDS = [0, 2**64 - 1, *np.random.default_rng(3).integers(0, 2**64, 6, dtype=np.uint64).tolist()]


def test_raw_block_rows_match_scalar():
    blk = raw_block(np.array(SEEDS, dtype=np.uint64), 1000, 9)
    assert blk.shape == (len(SEEDS), 9)
    for row, seed in zip(blk, SEEDS):
        assert [int(v) for v in row] == [value_at(seed, 1000 + i) for i in range(9)]
    u = uniform_block(np.array(SEEDS, dtype=np.uint64), 5, 4)
    assert u[1].tolist() == [uniform_at(SEEDS[1], 5 + i) for i in range(4)]


def test_derive_seed_arrays_match_scalar():
    assert [int(v) for v in derive_seed(42, 3, np.arange(5))] \
        == [derive_seed(42, 3, i) for i in range(5)]
    assert [int(v) for v in derive_seed(np.array(SEEDS, dtype=np.uint64), 7, 2)] \
        == [derive_seed(s, 7, 2) for s in SEEDS]
    grid = derive_seed(9, np.arange(3)[:, None], np.arange(4))
    assert grid.shape == (3, 4)
    assert all(int(grid[a, b]) == derive_seed(9, a, b) for a in range(3) for b in range(4))
    with pytest.raises(ValueError):
        derive_seed(9, np.array([0, -1]))


def test_partial_mix_keeps_the_top_bits():
    # the last step z ^= z >> 31 changes only bits 0-32, so a draw that reads
    # bits 33-63 alone may leave it out
    z = np.random.default_rng(8).integers(0, 2**64, 4096, dtype=np.uint64)
    z = np.concatenate([z, np.array([0, 1, 2**33 - 1, 2**33, 2**63, 2**64 - 1], np.uint64)])
    part = _mix_inplace(z.copy(), np.empty_like(z), full=False)
    assert [int(v) >> 33 for v in part] == [mix64(int(v)) >> 33 for v in z]
    full = _mix_inplace(z.copy(), np.empty_like(z))
    assert [int(v) for v in full] == [mix64(v) for v in z.tolist()]
    blk = raw_block(np.array(SEEDS, dtype=np.uint64), 77, 40, full=False)
    assert [[int(v) >> 33 for v in row] for row in blk] \
        == [[value_at(seed, 77 + i) >> 33 for i in range(40)] for seed in SEEDS]

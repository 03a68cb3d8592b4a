"""Tests for block schedules and immutable block-tridiagonal operators."""

import threading

import numpy as np
import pytest

from blocktri import (
    BlockTridiagOperator,
    corner_compression,
    make_schedule,
    operator_from_matrix,
)
from helpers import random_complex, random_operator


def test_schedule_patterns():
    pair = make_schedule("pair", 4)
    assert pair.sizes == (1, 4, 20, 100)
    assert pair.cumsums == (1, 5, 25, 125)
    single = make_schedule("single", 5)
    assert single.sizes == (1, 2, 6, 18, 54)
    assert single.cumsums == (1, 3, 9, 27, 81)
    custom = make_schedule("custom", sizes=(3, 5, 7))
    assert custom.levels == 3
    assert custom.size_through(2) == 8
    assert custom.block_bounds(2) == (3, 8)
    assert custom.truncated(2).sizes == (3, 5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule("pair")
    with pytest.raises(ValueError):
        make_schedule("single", 0)
    with pytest.raises(ValueError):
        make_schedule("custom")
    with pytest.raises(ValueError):
        make_schedule("custom", sizes=(3, 0))
    with pytest.raises(ValueError):
        make_schedule("pair", 2, sizes=(1, 4))
    with pytest.raises(ValueError):
        make_schedule("spiral", 2)
    sched = make_schedule("pair", 3)
    with pytest.raises(ValueError):
        sched.size(4)
    with pytest.raises(ValueError):
        sched.truncated(0)


def test_from_blocks_shapes_and_defaults():
    sched = make_schedule("custom", sizes=(2, 3))
    diag = [np.eye(2), np.eye(3)]
    op = BlockTridiagOperator(sched, diag)
    # missing couplings default to zero with the right shapes
    assert op.upper_block(1).shape == (2, 3)
    assert not op.upper_block(1).any()
    assert op.lower_block(1).shape == (3, 2)
    assert op.lower_zero_through(2)
    assert op.levels == sched.levels
    with pytest.raises(ValueError):
        BlockTridiagOperator(sched, [np.eye(2)])
    with pytest.raises(ValueError):
        BlockTridiagOperator(sched, diag, upper=[np.eye(2), np.eye(3)])


def test_block_shape_validation_on_materialization():
    # every block shape is checked once, when the operator is built
    sched = make_schedule("custom", sizes=(2, 3))
    with pytest.raises(ValueError, match="diag block 1"):
        BlockTridiagOperator(sched, [np.eye(5), np.eye(3)])
    with pytest.raises(ValueError, match="upper block 1"):
        BlockTridiagOperator(sched, [np.eye(2), np.eye(3)], upper=[np.zeros((3, 2))])
    with pytest.raises(ValueError, match="lower block 1"):
        BlockTridiagOperator(sched, [np.eye(2), np.eye(3)], lower=[np.zeros((2, 3))])


def test_level_range_checks():
    sched = make_schedule("pair", 3)
    op = random_operator(sched, np.random.default_rng(0))
    with pytest.raises(ValueError):
        op.diag_block(4)
    with pytest.raises(ValueError):
        op.upper_block(3)
    with pytest.raises(ValueError):
        op.lower_block(0)
    with pytest.raises(ValueError):
        corner_compression(op, 0)
    with pytest.raises(ValueError):
        corner_compression(op, 4)


def test_blocks_copied_at_construction():
    sched = make_schedule("single", 3)
    diag = [np.eye(k) for k in sched.sizes]
    upper = [np.ones((a, b)) for a, b in zip(sched.sizes, sched.sizes[1:])]
    op = BlockTridiagOperator(sched, diag, upper)
    # writing to the caller's arrays afterwards leaves the operator unchanged
    diag[1][0, 0] = 7.0
    upper[0][0, 0] = 7.0
    assert np.array_equal(op.diag_block(2), np.eye(2))
    assert np.array_equal(op.upper_block(1), np.ones((1, 2)))
    assert op.diag_block(2) is op.diag_block(2)


def test_concurrent_block_access():
    sched = make_schedule("single", 4)
    op = random_operator(sched, np.random.default_rng(1))
    results = [[] for _ in range(8)]

    def worker(slot):
        for n in range(1, 5):
            results[slot].append(op.diag_block(n))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n in range(4):
        blocks = {id(results[slot][n]) for slot in range(8)}
        assert len(blocks) == 1


def test_corner_compression_assembly():
    sched = make_schedule("custom", sizes=(2, 3, 4))
    rng = np.random.default_rng(2)
    op = random_operator(sched, rng)
    corner = corner_compression(op, 3)
    manual = np.zeros((9, 9), dtype=np.complex128)
    manual[0:2, 0:2] = op.diag_block(1)
    manual[2:5, 2:5] = op.diag_block(2)
    manual[5:9, 5:9] = op.diag_block(3)
    manual[0:2, 2:5] = op.upper_block(1)
    manual[2:5, 0:2] = op.lower_block(1)
    manual[2:5, 5:9] = op.upper_block(2)
    manual[5:9, 2:5] = op.lower_block(2)
    assert np.array_equal(corner, manual)
    # off-band entries are exact zeros
    assert not corner[5:9, 0:2].any()
    assert not corner[0:2, 5:9].any()


def test_split_routes_blocks_exactly():
    # blocks are kept as given and None gives zero blocks, so an operator's
    # diagonal+upper part plus its lower part reproduce its corners exactly
    sched = make_schedule("pair", 3)
    op = random_operator(sched, np.random.default_rng(3))
    s = BlockTridiagOperator(op.schedule, [op.diag_block(n) for n in (1, 2, 3)], [op.upper_block(n) for n in (1, 2)])
    q = BlockTridiagOperator(op.schedule, None, lower=[op.lower_block(n) for n in (1, 2)])
    assert np.array_equal(s.diag_block(2), op.diag_block(2))
    assert not q.diag_block(2).any()
    assert not q.upper_block(1).any()
    assert not s.lower_block(1).any()
    assert np.array_equal(q.lower_block(2), op.lower_block(2))
    recombined = corner_compression(s, 3) + corner_compression(q, 3)
    assert np.array_equal(recombined, corner_compression(op, 3))


def test_operator_from_matrix_round_trip():
    sched = make_schedule("custom", sizes=(2, 3, 2))
    rng = np.random.default_rng(6)
    source = random_operator(sched, rng)
    dense = corner_compression(source, 3)
    op = operator_from_matrix(dense, sched)
    for n in range(1, 4):
        assert np.array_equal(op.diag_block(n), source.diag_block(n))
    for n in range(1, 3):
        assert np.array_equal(op.upper_block(n), source.upper_block(n))
        assert np.array_equal(op.lower_block(n), source.lower_block(n))


def test_operator_from_matrix_band_enforcement():
    sched = make_schedule("custom", sizes=(1, 1, 1))
    arr = np.zeros((3, 3), dtype=np.complex128)
    arr[0, 2] = 1e-6
    with pytest.raises(ValueError):
        operator_from_matrix(arr, sched)
    op = operator_from_matrix(arr, sched, band_tol=1e-5)
    # leakage below band_tol is dropped: the operator is the banded projection
    assert not corner_compression(op, 3).any()
    with pytest.raises(ValueError):
        operator_from_matrix(np.zeros((4, 4)), sched)
    # band_scale makes the tolerance relative: 1e-6 <= 1e-7 * (1 + ||4 J||) = 1.3e-6,
    # which only the exact norm 12 shows (the screen sees max entry 4)
    operator_from_matrix(arr, sched, band_tol=1e-7, band_scale=(4.0 * np.ones((3, 3)),))
    with pytest.raises(ValueError):
        operator_from_matrix(arr, sched, band_tol=1e-7, band_scale=(np.eye(3),))

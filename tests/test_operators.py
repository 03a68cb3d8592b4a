"""Tests for block schedules and lazy block-tridiagonal providers."""

import threading

import numpy as np
import pytest

from blocktri import (
    BlockTridiagOperator,
    conjugate_blocks,
    corner_compression,
    decay_report,
    make_schedule,
    operator_from_matrix,
    operator_norm,
    split,
)
from helpers import haar_unitary, random_complex, random_operator


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
    op = BlockTridiagOperator.from_blocks(sched, diag)
    # missing couplings default to zero with the right shapes
    assert op.upper_block(1).shape == (2, 3)
    assert not op.upper_block(1).array.any()
    assert op.lower_block(1).shape == (3, 2)
    assert op.lower_zero_through(2)
    with pytest.raises(ValueError):
        BlockTridiagOperator.from_blocks(sched, [np.eye(2)])
    with pytest.raises(ValueError):
        BlockTridiagOperator.from_blocks(sched, diag, upper_blocks=[np.eye(2), np.eye(3)])


def test_block_shape_validation_on_materialization():
    sched = make_schedule("custom", sizes=(2, 3))
    op = BlockTridiagOperator(
        sched,
        diag=lambda n: np.eye(5),
        upper=lambda n: np.zeros((2, 3)),
        lower=lambda n: np.zeros((3, 2)),
        decay=lambda n: 1.0,
    )
    with pytest.raises(ValueError):
        op.diag_block(1)


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
        BlockTridiagOperator(sched, None, None, None, None, levels=5)
    with pytest.raises(ValueError):
        corner_compression(op, 0)


def test_lazy_memoization():
    sched = make_schedule("single", 3)
    calls = {"diag": 0}

    def diag(n):
        calls["diag"] += 1
        k = sched.size(n)
        return np.eye(k)

    op = BlockTridiagOperator(
        sched, diag, lambda n: np.zeros((sched.size(n), sched.size(n + 1))),
        lambda n: np.zeros((sched.size(n + 1), sched.size(n))), lambda n: 1.0,
    )
    first = op.diag_block(2)
    second = op.diag_block(2)
    assert first is second
    assert calls["diag"] == 1


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
    corner = corner_compression(op, 3).array
    manual = np.zeros((9, 9), dtype=np.complex128)
    manual[0:2, 0:2] = op.diag_block(1).array
    manual[2:5, 2:5] = op.diag_block(2).array
    manual[5:9, 5:9] = op.diag_block(3).array
    manual[0:2, 2:5] = op.upper_block(1).array
    manual[2:5, 0:2] = op.lower_block(1).array
    manual[2:5, 5:9] = op.upper_block(2).array
    manual[5:9, 2:5] = op.lower_block(2).array
    assert np.array_equal(corner, manual)
    # off-band entries are exact zeros
    assert not corner[5:9, 0:2].any()
    assert not corner[0:2, 5:9].any()


def test_split_routes_blocks_exactly():
    sched = make_schedule("pair", 3)
    op = random_operator(sched, np.random.default_rng(3))
    s, q = split(op)
    total = s.diag_block(2).array
    assert np.array_equal(total, op.diag_block(2).array)
    assert not q.diag_block(2).array.any()
    assert not q.upper_block(1).array.any()
    assert np.array_equal(q.lower_block(2).array, op.lower_block(2).array)
    recombined = corner_compression(s, 3).array + corner_compression(q, 3).array
    assert np.array_equal(recombined, corner_compression(op, 3).array)


def test_decay_report_default_bound():
    sched = make_schedule("custom", sizes=(2, 2, 2))
    rng = np.random.default_rng(5)
    op = random_operator(sched, rng)
    report = decay_report(op, 3)
    assert report.passed
    assert report.violations == ()
    # declared bounds are the suffix maxima of the level norms, hence nonincreasing
    bounds = [row.bound for row in report.rows]
    assert bounds == sorted(bounds, reverse=True)
    level_norms = [max(r.diag_norm, r.upper_norm or 0.0, r.lower_norm or 0.0) for r in report.rows]
    assert bounds == [max(level_norms[i:]) for i in range(3)]
    # past the last level the default bound is exactly zero
    assert op.decay_bound(4) == 0.0


def test_decay_report_flags_violations():
    sched = make_schedule("custom", sizes=(2, 2))
    op = BlockTridiagOperator.from_blocks(
        sched,
        [np.eye(2), 3.0 * np.eye(2)],
        decay=lambda n: 1.0,
    )
    report = decay_report(op, 2)
    assert not report.passed
    assert report.violations == (2,)
    assert report.rows[0].within_bound
    with pytest.raises(ValueError):
        decay_report(op, 3)


def test_decay_bound_validation():
    sched = make_schedule("custom", sizes=(2,))
    op = BlockTridiagOperator.from_blocks(sched, [np.eye(2)], decay=lambda n: -1.0)
    with pytest.raises(ValueError):
        op.decay_bound(1)
    with pytest.raises(ValueError):
        op.decay_bound(0)


def test_operator_from_matrix_round_trip():
    sched = make_schedule("custom", sizes=(2, 3, 2))
    rng = np.random.default_rng(6)
    source = random_operator(sched, rng)
    dense = corner_compression(source, 3)
    op = operator_from_matrix(dense, sched)
    for n in range(1, 4):
        assert np.array_equal(op.diag_block(n).array, source.diag_block(n).array)
    for n in range(1, 3):
        assert np.array_equal(op.upper_block(n).array, source.upper_block(n).array)
        assert np.array_equal(op.lower_block(n).array, source.lower_block(n).array)


def test_operator_from_matrix_band_enforcement():
    sched = make_schedule("custom", sizes=(1, 1, 1))
    arr = np.zeros((3, 3), dtype=np.complex128)
    arr[0, 2] = 1e-6
    with pytest.raises(ValueError):
        operator_from_matrix(arr, sched)
    op = operator_from_matrix(arr, sched, band_tol=1e-5)
    # leakage below band_tol is dropped: the provider is the banded projection
    assert not corner_compression(op, 3).array.any()
    with pytest.raises(ValueError):
        operator_from_matrix(np.zeros((4, 4)), sched)


def test_conjugate_blocks_identity_and_haar():
    sched = make_schedule("custom", sizes=(2, 3))
    rng = np.random.default_rng(8)
    op = random_operator(sched, rng)
    same = conjugate_blocks(op, lambda n: np.eye(sched.size(n)))
    assert np.array_equal(
        corner_compression(same, 2).array, corner_compression(op, 2).array
    )
    units = {n: haar_unitary(sched.size(n), rng) for n in (1, 2)}
    conj = conjugate_blocks(op, lambda n: units[n])
    u = np.zeros((5, 5), dtype=np.complex128)
    u[0:2, 0:2] = units[1]
    u[2:5, 2:5] = units[2]
    expected = u.conj().T @ corner_compression(op, 2).array @ u
    got = corner_compression(conj, 2).array
    assert operator_norm(got - expected) < 1e-12 * (1.0 + operator_norm(expected))
    assert conj.decay_bound(1) == op.decay_bound(1)
    bad = conjugate_blocks(op, lambda n: np.eye(4))
    with pytest.raises(ValueError):
        bad.diag_block(1)


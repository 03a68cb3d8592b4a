"""Tests for joint block-tridiagonalization."""

import numpy as np
import pytest
import scipy.linalg

from blocktri import (
    block_tridiagonalize,
    eigenvalues,
    make_schedule,
    match_distance,
    operator_norm,
    verify_block_structure,
)
from helpers import random_complex


def test_padded_single_realizes_saturated_schedule():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = random_complex(27, 27, rng)
        res = block_tridiagonalize([a], mode="padded")
        assert res.realized_schedule.sizes == (1, 2, 6, 18)
        assert res.stabilized_dim is None
        q = res.basis.array
        assert operator_norm(q.conj().T @ q - np.eye(27)) < 1e-12
        residual = verify_block_structure(res.transformed[0], res.realized_schedule)
        assert residual < 1e-10, residual
        dist = match_distance(eigenvalues(a), eigenvalues(res.transformed[0]))
        assert dist <= 1e-8 * operator_norm(a)


def test_padded_pair_realizes_saturated_schedule():
    rng = np.random.default_rng(22)
    for _ in range(3):
        a = random_complex(25, 25, rng)
        b = random_complex(25, 25, rng)
        res = block_tridiagonalize([a, b], mode="padded")
        assert res.realized_schedule.sizes == (1, 4, 20)
        for m, t in zip((a, b), res.transformed):
            residual = verify_block_structure(t, res.realized_schedule)
            assert residual < 1e-10, residual
            assert match_distance(eigenvalues(m), eigenvalues(t)) <= 1e-8 * operator_norm(m)


@pytest.mark.parametrize(
    "n, count, sizes",
    [(243, 1, (1, 2, 6, 18, 54, 162)), (125, 2, (1, 4, 20, 100))],
)
def test_padded_schedules_at_benchmark_sizes(n, count, sizes):
    rng = np.random.default_rng(27)
    ops = [random_complex(n, n, rng) for _ in range(count)]
    res = block_tridiagonalize(ops, mode="padded")
    assert res.realized_schedule.sizes == sizes
    q = res.basis.array
    assert operator_norm(q.conj().T @ q - np.eye(n)) <= 1e-12
    for t in res.transformed:
        assert verify_block_structure(t, res.realized_schedule) < 1e-10


def test_padded_clips_last_level():
    # 10 = 1 + 2 + 6 + 1: the last level is clipped to the remaining dimension
    a = random_complex(10, 10, np.random.default_rng(23))
    res = block_tridiagonalize([a], mode="padded")
    assert res.realized_schedule.sizes == (1, 2, 6, 1)
    assert verify_block_structure(res.transformed[0], res.realized_schedule) < 1e-10


def test_adaptive_stabilizes_on_reducing_subspace():
    rng = np.random.default_rng(24)
    a = scipy.linalg.block_diag(random_complex(4, 4, rng), random_complex(5, 5, rng))
    start = np.zeros(9)
    start[0] = 1.0
    res = block_tridiagonalize([a], start=start, mode="adaptive")
    assert res.stabilized_dim == 4
    # complement couplings vanish: the transform stays block tridiagonal
    assert verify_block_structure(res.transformed[0], res.realized_schedule) < 1e-10
    t = res.transformed[0].array
    k = res.stabilized_dim
    assert operator_norm(t[k:, :k]) < 1e-10
    assert operator_norm(t[:k, k:]) < 1e-10


def test_adaptive_generic_fills_space():
    a = random_complex(12, 12, np.random.default_rng(25))
    res = block_tridiagonalize([a], mode="adaptive")
    assert res.stabilized_dim is None
    assert res.realized_schedule.cumsums[-1] == 12
    assert verify_block_structure(res.transformed[0], res.realized_schedule) < 1e-10
    # adaptive level sizes never exceed the saturated targets
    assert res.realized_schedule.sizes[0] == 1
    for prev, cur in zip(res.realized_schedule.sizes, res.realized_schedule.sizes[1:]):
        assert cur <= 2 * prev


def test_start_vector_validation():
    a = np.eye(3)
    with pytest.raises(ValueError):
        block_tridiagonalize([a], start=np.zeros(3))
    with pytest.raises(ValueError):
        block_tridiagonalize([a], start=np.ones(4))
    with pytest.raises(ValueError):
        block_tridiagonalize([a], mode="sideways")
    with pytest.raises(ValueError):
        block_tridiagonalize([a, np.eye(4)])
    with pytest.raises(ValueError):
        block_tridiagonalize([])


def test_custom_start_changes_basis_not_spectrum():
    rng = np.random.default_rng(26)
    a = random_complex(8, 8, rng)
    start = random_complex(1, 8, rng).ravel()
    res = block_tridiagonalize([a], start=start, mode="padded")
    assert match_distance(eigenvalues(a), eigenvalues(res.transformed[0])) <= 1e-8 * operator_norm(a)
    # first basis column is the normalized start vector
    v = res.basis.array[:, 0]
    assert np.linalg.norm(v - start / np.linalg.norm(start)) < 1e-12


def test_verify_block_structure_reports_residual():
    sched = make_schedule("custom", sizes=(1, 1, 1))
    arr = np.zeros((3, 3))
    arr[0, 2] = 2e-9
    residual = verify_block_structure(arr, sched)
    assert not residual < 1e-10
    assert residual == pytest.approx(2e-9)
    with pytest.raises(ValueError):
        verify_block_structure(np.zeros((5, 5)), sched)

"""Tests for joint block-tridiagonalization."""

import numpy as np
import pytest
import scipy.linalg

from blocktri import (
    block_tridiagonalize,
    corner_unit,
    eigenvalues,
    make_schedule,
    match_distance,
    operator_norm,
    shift_matrix,
    verify_block_structure,
)
from blocktri.linalg import _norm_excess, _residual_norm
from helpers import haar_unitary, random_complex


def test_padded_single_realizes_saturated_schedule():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = random_complex(27, 27, rng)
        res = block_tridiagonalize([a])
        assert res.realized_schedule.sizes == (1, 2, 6, 18)
        assert res.stabilized_dim is None
        q = res.basis
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
        res = block_tridiagonalize([a, b])
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
    res = block_tridiagonalize(ops)
    assert res.realized_schedule.sizes == sizes
    q = res.basis
    assert operator_norm(q.conj().T @ q - np.eye(n)) <= 1e-12
    for t in res.transformed:
        assert verify_block_structure(t, res.realized_schedule) < 1e-10


def test_padded_clips_last_level():
    # 10 = 1 + 2 + 6 + 1: the last level is clipped to the remaining dimension
    a = random_complex(10, 10, np.random.default_rng(23))
    res = block_tridiagonalize([a])
    assert res.realized_schedule.sizes == (1, 2, 6, 1)
    assert verify_block_structure(res.transformed[0], res.realized_schedule) < 1e-10


def _rotated(mats, n):
    """Embed ``mats`` in C^n and conjugate by diag(1, V), V a fixed unitary, so the arithmetic rounds.

    The unitary fixes e_1, the start of the Krylov sweep.
    """
    u = scipy.linalg.block_diag(1.0, haar_unitary(n - 1, np.random.default_rng(0)))
    ops = []
    for m in mats:
        big = np.zeros((n, n), dtype=np.complex128)
        big[: m.shape[0], : m.shape[1]] = m
        ops.append(u @ big @ u.conj().T)
    return ops


def _dependent_inputs(name):
    """Operators whose images are dependent."""
    rng = np.random.default_rng(31)
    if name == "shift":
        return [shift_matrix(12)]
    if name == "corner":
        return [corner_unit(12)]
    if name == "shift-corner":
        return [shift_matrix(12), corner_unit(12)]
    if name == "rank-one":
        return [random_complex(10, 1, rng) @ random_complex(1, 10, rng)]
    if name == "hermitian":  # each image under a equals the one under its adjoint
        h = random_complex(9, 9, rng)
        return [h + h.conj().T]
    if name == "block-pair":
        return [
            scipy.linalg.block_diag(random_complex(4, 4, rng), random_complex(5, 5, rng)) for _ in range(2)
        ]
    if name == "reducing":
        return [scipy.linalg.block_diag(random_complex(3, 3, rng), random_complex(6, 6, rng))]
    if name == "rotated-chain":
        # a s = s + 1e-6 x and a* s = s + x: the second image lies in the span of
        # s and the first image's new direction, which is kept from a residual of 1e-6
        return _rotated([np.array([[1.0, 1.0], [1e-6, 0.0]])], 4)
    assert name == "rotated-nested"
    # the images s + x and s + x + 1e-8 y differ by a short residual along y, and
    # the next image is y itself
    a = np.array([[1.0, 1.0, 1e-8], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = np.zeros((3, 3))
    b[2, 0] = 1.0
    return _rotated([a, b], 6)


def _filling_leak(res):
    """Largest entry of W*C, W the basis before the last level and C the last level."""
    cut = res.realized_schedule.cumsums[-2]
    return np.abs(res.basis[:, :cut].conj().T @ res.basis[:, cut:]).max()


# realized sizes and stabilized dimensions, as the blockwise Gram-Schmidt (BCGS2) gives them
_DEPENDENT_SIZES = [
    ("shift", (1, 2, 6, 3), None),
    ("corner", (1, 2, 6, 3), 3),
    ("shift-corner", (1, 4, 7), None),
    ("rank-one", (1, 2, 6, 1), 3),
    ("hermitian", (1, 2, 6), None),
    ("block-pair", (1, 4, 4), None),
    ("reducing", (1, 2, 6), 3),
    ("rotated-chain", (1, 2, 1), 3),
    ("rotated-nested", (1, 4, 1), 5),
]


@pytest.mark.parametrize("name, sizes, stabilized", _DEPENDENT_SIZES)
def test_dependent_images_keep_their_sizes(name, sizes, stabilized):
    res = block_tridiagonalize(_dependent_inputs(name))
    assert res.realized_schedule.sizes == sizes
    assert res.stabilized_dim == stabilized
    q = res.basis
    assert operator_norm(q.conj().T @ q - np.eye(q.shape[0])) <= 1e-12
    for t in res.transformed:
        assert verify_block_structure(t, res.realized_schedule) < 1e-10
    # the last level fills the space: the Householder complement of the levels before it
    assert _filling_leak(res) <= 1e-13
    if name == "block-pair":
        # e_1..e_4 lie in the first block, which the Krylov space fills, so the
        # level's completion skips them and takes e_5 as it is
        assert np.array_equal(q[:, 4], np.eye(9)[4])


def _assert_reduces(res):
    """span(basis[:, :K]) reduces every input: both couplings across K vanish."""
    k = res.stabilized_dim
    for t in res.transformed:
        scale = operator_norm(t)
        assert operator_norm(t[k:, :k]) <= 1e-10 * scale
        assert operator_norm(t[:k, k:]) <= 1e-10 * scale


def test_stabilized_dim_spans_a_reducing_subspace():
    rng = np.random.default_rng(24)
    a = scipy.linalg.block_diag(random_complex(9, 9, rng), random_complex(30, 30, rng))
    res = block_tridiagonalize([a])
    assert res.realized_schedule.sizes == (1, 2, 6, 18, 12)
    assert res.stabilized_dim == 9
    _assert_reduces(res)
    for name, _, stabilized in _DEPENDENT_SIZES:
        if stabilized is not None:
            _assert_reduces(block_tridiagonalize(_dependent_inputs(name)))


def _filling_inputs(family):
    """Inputs for the filling-level test, with the sizes they realize.

    "padded": generic inputs, whose Krylov space grows through every level
    up to the clipped last one. "adaptive": block-diagonal inputs, whose
    Krylov space of e_1 stays in the first block, so the levels past it are
    filled from the complement.
    """
    rng = np.random.default_rng(28)
    if family == "padded":
        return [
            ([random_complex(60, 60, rng)], (1, 2, 6, 18, 33)),
            ([random_complex(30, 30, rng), random_complex(30, 30, rng)], (1, 4, 20, 5)),
            ([random_complex(9, 9, rng)], (1, 2, 6)),
        ]
    return [
        ([scipy.linalg.block_diag(random_complex(k, k, rng), random_complex(rest, rest, rng))], sizes)
        for k, rest, sizes in ((4, 5, (1, 2, 6)), (9, 30, (1, 2, 6, 18, 12)))
    ]


@pytest.mark.parametrize("family", ["adaptive", "padded"])
def test_filling_level_is_the_orthogonal_complement(family):
    for ops, sizes in _filling_inputs(family):
        res = block_tridiagonalize(ops)
        assert res.realized_schedule.sizes == sizes
        q = res.basis
        assert _filling_leak(res) <= 1e-13
        assert operator_norm(q.conj().T @ q - np.eye(q.shape[0])) <= 1e-12
        for t in res.transformed:
            assert verify_block_structure(t, res.realized_schedule) < 1e-10


def _workload_inputs():
    """The dense inputs of the band-decompose benchmark workload at seed 7, with their schedules.

    Each matrix comes from its own stream default_rng([7, k]), k counting
    the workload's inputs in case order (k = 0 is the warm-up matrix).
    """

    def draw(n, rng):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    single = {27: (1, 2, 6, 18), 81: (1, 2, 6, 18, 54), 243: (1, 2, 6, 18, 54, 162)}
    single[729] = single[243] + (486,)
    cases = [([draw(n, np.random.default_rng([7, k]))], single[n]) for k, n in ((0, 27), (1, 81), (2, 243), (3, 729), (4, 243))]
    rng = np.random.default_rng([7, 5])
    cases.append(([draw(125, rng), draw(125, rng)], (1, 4, 20, 100)))
    return cases


def test_workload_inputs_keep_their_sizes_and_band_gates():
    for mats, sizes in _workload_inputs():
        res = block_tridiagonalize(mats)
        assert res.realized_schedule.sizes == sizes
        # random inputs have no reducing subspace
        assert res.stabilized_dim is None
        q = res.basis
        assert _residual_norm(q.conj().T @ q - np.eye(q.shape[0])) <= 1e-12
        assert _filling_leak(res) <= 1e-13
        for t in res.transformed:
            # tridiagonalize's default --tol-band, the strictest of the band gates
            assert _norm_excess(verify_block_structure(t, res.realized_schedule), 1e-10, mats) is None


def test_operator_validation():
    with pytest.raises(ValueError):
        block_tridiagonalize([np.eye(3), np.eye(4)])
    with pytest.raises(ValueError):
        block_tridiagonalize([])


def test_verify_block_structure_reports_residual():
    sched = make_schedule("custom", sizes=(1, 1, 1))
    arr = np.zeros((3, 3))
    arr[0, 2] = 2e-9
    residual = verify_block_structure(arr, sched)
    assert not residual < 1e-10
    assert residual == pytest.approx(2e-9)
    with pytest.raises(ValueError):
        verify_block_structure(np.zeros((5, 5)), sched)

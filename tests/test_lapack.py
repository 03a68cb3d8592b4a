"""The compiled-LAPACK seam: loaded by file, and bit-identical to scipy.linalg."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import blocktri
from blocktri import _lapack
from blocktri.linalg import _block_diag, _reorder_schur
from helpers import random_complex

SIZES = (1, 2, 5, 17, 64, 129)


def seeded(m, n, seed):
    return random_complex(m, n, np.random.default_rng(seed))


def assert_same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert np.array_equal(x, y)


@pytest.mark.parametrize("n", SIZES)
def test_schur_is_scipy_bit_for_bit(n):
    a = seeded(n, n, 1000 + n)
    for given in (a, np.asfortranarray(a), a.real.copy()):
        t, z = _lapack.schur(given)
        t0, z0 = scipy.linalg.schur(given, output="complex")
        assert_same_bits(t, t0)
        assert_same_bits(z, z0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 5), (7, 3)] + [(n, n) for n in SIZES])
def test_svdvals_is_scipy_bit_for_bit(shape):
    a = seeded(*shape, 2000 + sum(shape))
    for scale in (1.0, 1e-170, 1e300):
        assert_same_bits(_lapack.svdvals(a * scale), scipy.linalg.svdvals(a * scale))


@pytest.mark.parametrize("n", SIZES)
def test_solve_upper_is_scipy_bit_for_bit(n):
    rng = np.random.default_rng(3000 + n)
    x = np.triu(random_complex(n, n, rng)) + 3.0 * np.eye(n)
    b = random_complex(n, 4, rng)
    for given in (x, np.asfortranarray(x)):
        assert_same_bits(_lapack.solve_upper(given, b), scipy.linalg.solve_triangular(given, b))


@pytest.mark.parametrize("shape", [(1, 1), (5, 2), (17, 16), (129, 43)])
def test_householder_qr_is_scipy_bit_for_bit(shape):
    m, k = shape
    a = seeded(m, k, 5000 + m)
    qr, tau = _lapack.geqrf(a)
    (qr0, tau0), _ = scipy.linalg.qr(a, mode="raw")
    assert_same_bits(qr, qr0)
    assert_same_bits(tau, tau0)
    # H [0; I], the columns that complete those of a to a unitary
    c = np.zeros((m, m - k), dtype=np.complex128, order="F")
    c[k:] = np.eye(m - k)
    expected = scipy.linalg.qr_multiply(a, c.copy(order="F"), mode="left", overwrite_c=True)[0]
    assert_same_bits(_lapack.unmqr(qr, tau, c), expected)


@pytest.mark.parametrize("n", SIZES)
def test_nrm2_is_scipy_bit_for_bit(n):
    r = seeded(n, n, 4000 + n).ravel()
    for x in (r, r.real.copy()):
        for scale in (1.0, 1e-170, 1e300):
            value = _lapack.nrm2(x * scale)
            assert value == scipy.linalg.norm(x * scale, check_finite=False)


def test_block_diag_is_scipy_bit_for_bit():
    rng = np.random.default_rng(5000)
    blocks = [random_complex(k, k, rng) for k in (1, 4, 2, 20)]
    blocks[2] = blocks[2].real.copy()
    expected = scipy.linalg.block_diag(*blocks).astype(np.complex128)
    assert_same_bits(_block_diag(blocks), expected)
    assert_same_bits(_block_diag(blocks[:1]), blocks[0])


@pytest.mark.parametrize("n", [2, 5, 17, 64])
def test_ztrexc_reordering_is_scipy_bit_for_bit(n):
    rng = np.random.default_rng(6000 + n)
    t0, q0 = scipy.linalg.schur(random_complex(n, n, rng), output="complex")
    order = [int(i) for i in rng.permutation(n)]
    t, q = _reorder_schur(t0.copy(order="F"), q0.copy(order="F"), order)
    # the same moves, by scipy's public LAPACK wrapper
    rt, rq = t0.copy(order="F"), q0.copy(order="F")
    pos = list(range(n))
    for slot, idx in enumerate(order):
        j = pos.index(idx)
        if j > slot:
            rt, rq, info = scipy.linalg.lapack.ztrexc(rt, rq, j + 1, slot + 1)
            assert info == 0
            pos.insert(slot, pos.pop(j))
    assert_same_bits(t, rt)
    assert_same_bits(q, rq)


def test_wrappers_raise_where_scipy_raises():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=np.complex128)
    for wrapper, reference in (
        (_lapack.schur, lambda a: scipy.linalg.schur(a, output="complex")),
        (_lapack.svdvals, scipy.linalg.svdvals),
        (lambda a: _lapack.solve_upper(a, np.eye(2)), lambda a: scipy.linalg.solve_triangular(a, np.eye(2))),
    ):
        with pytest.raises(ValueError):
            reference(bad)
        with pytest.raises(ValueError):
            wrapper(bad)
    singular = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.solve_triangular(singular, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.solve_upper(singular, np.eye(2))


def test_loaded_modules_are_reused_once_scipy_linalg_is_imported():
    # this process imported scipy.linalg above, so nothing is loaded twice
    assert _lapack._load("_flapack") is scipy.linalg._flapack
    assert _lapack._load("_fblas") is scipy.linalg._fblas


def test_lapack_is_loaded_by_file_without_scipy_packages():
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from blocktri import _lapack\n"
        "assert 'scipy' not in sys.modules and 'scipy.linalg' not in sys.modules, sorted(sys.modules)\n"
        "for module in (_lapack._flapack, _lapack._fblas):\n"
        "    path = Path(module.__spec__.origin)\n"
        "    assert path.parent.name == 'linalg' and path.parent.parent.name == 'scipy', path\n"
        "print(_lapack.svdvals([[3.0, 0.0], [0.0, 4.0]]).tolist())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(blocktri.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[4.0, 3.0]\n"

"""Tests for the dense kernel: matrices, norms, spectra, Schur forms."""

import numpy as np
import pytest

from blocktri import (
    ComplexMatrix,
    SchurConvergenceError,
    corner_unit,
    eigenvalues,
    is_nilpotent,
    match_distance,
    operator_norm,
    schur,
    shift_matrix,
    spectral_radius,
)
from helpers import haar_unitary, random_complex


def test_complex_matrix_basics():
    m = ComplexMatrix([[1, 2j], [3, 4]])
    assert m.shape == (2, 2)
    assert m.array.dtype == np.complex128
    assert m.array[0, 1] == 2j
    assert np.asarray(m) is m.array
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0
    # the wrapper holds its own copy: later writes to the source do not leak in
    source = np.eye(2, dtype=np.complex128)
    held = ComplexMatrix(source)
    source[0, 0] = 7.0
    assert held.array[0, 0] == 1.0


def test_complex_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros(4))
    with pytest.raises(ValueError):
        ComplexMatrix([[np.inf, 0], [0, 1]])


def test_norms_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = random_complex(n, n, rng)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_eigenvalues_triangular_exact():
    # triangular inputs short-circuit to their diagonal, bitwise
    t = np.triu(random_complex(6, 6, np.random.default_rng(1)))
    vals = eigenvalues(t)
    assert np.array_equal(np.sort_complex(np.diag(t)), vals)
    assert spectral_radius(shift_matrix(8)) == 0.0
    assert spectral_radius(corner_unit(8)) == 0.0


def test_eigenvalues_dense_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = random_complex(n, n, rng)
        dist = match_distance(eigenvalues(a), np.linalg.eigvals(a))
        assert dist <= 1e-10 * (1.0 + operator_norm(a))


def test_is_nilpotent():
    assert is_nilpotent(np.zeros((3, 3)))
    assert is_nilpotent(shift_matrix(9))
    assert not is_nilpotent(np.eye(2))
    assert not is_nilpotent(np.diag([1.0, -1.0]))
    # scale invariance: normalization keeps tiny non-nilpotent matrices decisive
    assert not is_nilpotent(1e-200 * np.diag([1.0, -1.0]))
    perturbed = shift_matrix(8).array + 1e-5 * np.eye(8)
    assert not is_nilpotent(perturbed)
    with pytest.raises(ValueError):
        is_nilpotent(np.eye(2), tol=-1.0)


def test_generators_entrywise():
    s = shift_matrix(4).array
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 2] = expected[2, 3] = 1.0
    assert np.array_equal(s, expected)
    z = corner_unit(4).array
    assert z[3, 0] == 1.0
    assert np.count_nonzero(z) == 1
    assert shift_matrix(1).shape == (1, 1)
    with pytest.raises(ValueError):
        shift_matrix(0)
    with pytest.raises(ValueError):
        corner_unit(0)


def test_schur_random_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        a = random_complex(n, n, rng)
        form = schur(a)
        q = form.unitary.array
        t = form.upper.array
        assert operator_norm(q.conj().T @ q - np.eye(n)) < 1e-12
        assert not np.tril(t, -1).any()
        assert operator_norm(q @ t @ q.conj().T - a) < 1e-10 * operator_norm(a)
        assert match_distance(eigenvalues(a), np.diag(t)) < 1e-8 * operator_norm(a)


def test_schur_triangular_fast_path():
    t = np.triu(random_complex(5, 5, np.random.default_rng(3)))
    form = schur(t)
    assert np.array_equal(form.unitary.array, np.eye(5))
    assert np.array_equal(form.upper.array, t)
    # structural zeros survive: a nilpotent triangular block keeps radius 0
    nil = shift_matrix(6)
    assert spectral_radius(schur(nil).upper) == 0.0


def test_schur_modulus_order():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        a = random_complex(n, n, rng)
        form = schur(a, order="modulus")
        mods = np.abs(np.diag(form.upper.array))
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)
        q = form.unitary.array
        assert operator_norm(q @ form.upper.array @ q.conj().T - a) < 1e-9 * operator_norm(a)
    # deterministic: same input, bitwise identical factors
    a = random_complex(7, 7, np.random.default_rng(9))
    f1 = schur(a, order="modulus")
    f2 = schur(a, order="modulus")
    assert np.array_equal(f1.upper.array, f2.upper.array)
    assert np.array_equal(f1.unitary.array, f2.unitary.array)


def test_schur_rejects_unknown_order():
    with pytest.raises(ValueError):
        schur(np.eye(2), order="rows")


def test_schur_convergence_error_fields():
    err = SchurConvergenceError("bad", residual=0.5)
    assert err.residual == 0.5
    assert "bad" in str(err)


def test_match_distance():
    rng = np.random.default_rng(13)
    vals = random_complex(1, 6, rng).ravel()
    perm = rng.permutation(6)
    assert match_distance(vals, vals[perm]) == 0.0
    shifted = vals.copy()
    shifted[2] += 3e-9
    assert match_distance(vals, shifted) == pytest.approx(3e-9, rel=1e-6)
    with pytest.raises(ValueError):
        match_distance(vals, vals[:5])


def test_unitary_invariance_of_norms():
    rng = np.random.default_rng(17)
    a = random_complex(6, 6, rng)
    u = haar_unitary(6, rng)
    conj = u.conj().T @ a @ u
    assert operator_norm(conj) == pytest.approx(operator_norm(a), rel=1e-12)
    assert match_distance(eigenvalues(conj), eigenvalues(a)) < 1e-10 * operator_norm(a)

"""Dense complex linear algebra: norms, spectra, Schur forms, generators.

Everything operates on :class:`ComplexMatrix` values or anything
``np.asarray`` accepts, and returns plain floats/arrays or new
``ComplexMatrix`` instances.  All routines are pure functions, safe to
call concurrently on shared inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

__all__ = [
    "ComplexMatrix",
    "SchurForm",
    "SchurConvergenceError",
    "operator_norm",
    "eigenvalues",
    "spectral_radius",
    "is_nilpotent",
    "shift_matrix",
    "corner_unit",
    "schur",
    "match_distance",
]


_SCHUR_TOL = 1e-10  # acceptance bound on every Schur residual


class SchurConvergenceError(RuntimeError):
    """Schur factorization failed to converge or missed its residual targets."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ComplexMatrix:
    """Immutable dense complex matrix with finite entries.

    Wraps a private, read-only, row-major ``complex128`` copy of its input.
    ``np.asarray`` works directly on a ``ComplexMatrix``, so numpy routines
    accept it without unwrapping.

    Raises ``ValueError`` for non-2-D input, empty dimensions, or
    non-finite entries.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = _as_array(np.array(entries, dtype=np.complex128, order="C"))
        a.setflags(write=False)
        self._a = a

    @property
    def shape(self):
        return self._a.shape

    @property
    def array(self):
        """The underlying read-only ``complex128`` array."""
        return self._a

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._a
        return self._a.astype(dtype)

    def __repr__(self):
        return f"ComplexMatrix({self._a.shape[0]}x{self._a.shape[1]})"


def _as_array(m, square=False, name="matrix"):
    """Coerce input to a 2-D finite complex128 array (no copy for ComplexMatrix)."""
    if isinstance(m, ComplexMatrix):
        a = m.array
    else:
        a = np.asarray(m, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got {a.ndim}-D data")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"{name} dimensions must be positive, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _square_pair(a, b):
    """Validate two square matrices of one size; returns their arrays."""
    aa = _as_array(a, square=True, name="a")
    bb = _as_array(b, square=True, name="b")
    if aa.shape != bb.shape:
        raise ValueError(f"size mismatch: {aa.shape} vs {bb.shape}")
    return aa, bb


def operator_norm(a):
    """Largest singular value of ``a``."""
    arr = _as_array(a)
    return float(scipy.linalg.svdvals(arr)[0])


def _strict_lower_max(arr):
    if arr.shape[0] <= 1:
        return 0.0
    low = np.tril(arr, -1)
    return float(np.abs(low).max())


def _strict_upper_max(arr):
    if arr.shape[1] <= 1:
        return 0.0
    up = np.triu(arr, 1)
    return float(np.abs(up).max())


def eigenvalues(a):
    """Eigenvalue multiset of a square matrix, sorted by (real, imag).

    Exactly triangular inputs (strict upper or strict lower part bitwise
    zero) short-circuit to their diagonal: this keeps structurally
    nilpotent matrices at spectral radius exactly 0 instead of the
    spurious eps**(1/n) scatter dense QR iteration would produce.
    """
    arr = _as_array(a, square=True)
    n = arr.shape[0]
    if n == 1:
        vals = np.diag(arr).astype(np.complex128)
    elif _strict_lower_max(arr) == 0.0 or _strict_upper_max(arr) == 0.0:
        vals = np.diag(arr).astype(np.complex128)
    else:
        vals = np.linalg.eigvals(arr)
    return np.sort_complex(vals)


def spectral_radius(a):
    """max |lambda| over the eigenvalue multiset of ``a``."""
    return float(np.abs(eigenvalues(a)).max())


def is_nilpotent(a, tol=1e-8):
    """Whether ``(a/||a||)^n`` has operator norm at most ``tol`` (n = dimension).

    The zero matrix counts as nilpotent.  This deliberately avoids
    eigenvalues: a perturbed Jordan block scatters its spectrum at scale
    eps**(1/n), while the normalized power test stays decisive.
    """
    arr = _as_array(a, square=True)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    nrm = operator_norm(arr)
    if nrm == 0.0:
        return True
    p = np.linalg.matrix_power(arr / nrm, arr.shape[0])
    return operator_norm(p) <= tol


def shift_matrix(n):
    """n x n upper shift: ones on the superdiagonal, zero elsewhere."""
    if n < 1:
        raise ValueError("n must be positive")
    a = np.zeros((n, n), dtype=np.complex128)
    if n > 1:
        a[np.arange(n - 1), np.arange(1, n)] = 1.0
    return ComplexMatrix(a)


def corner_unit(n):
    """n x n matrix with a single 1 in the bottom-left corner."""
    if n < 1:
        raise ValueError("n must be positive")
    a = np.zeros((n, n), dtype=np.complex128)
    if n > 1:
        a[n - 1, 0] = 1.0
    return ComplexMatrix(a)


@dataclass(frozen=True)
class SchurForm:
    """Unitary/upper-triangular pair with ``unitary @ upper @ unitary* = input``."""

    unitary: ComplexMatrix
    upper: ComplexMatrix


def _swap_adjacent_diag(t, q, i):
    # unitary similarity exchanging diagonal entries t[i,i] and t[i+1,i+1]
    a = t[i, i]
    b = t[i, i + 1]
    c = t[i + 1, i + 1]
    x = np.array([b, c - a], dtype=np.complex128)
    nx = np.linalg.norm(x)
    scale = abs(a) + abs(b) + abs(c)
    if nx <= 1e-14 * max(scale, 1e-300):
        g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    else:
        x = x / nx
        g = np.column_stack([x, [-np.conj(x[1]), np.conj(x[0])]])
    t[i : i + 2, :] = g.conj().T @ t[i : i + 2, :]
    t[:, i : i + 2] = t[:, i : i + 2] @ g
    q[:, i : i + 2] = q[:, i : i + 2] @ g
    t[i + 1, i] = 0.0


def _order_descending_modulus(t, q):
    # bubble the diagonal into nonincreasing |.| order, ties by (real, imag);
    # keys are carried alongside so later swaps cannot perturb the ordering
    n = t.shape[0]
    diag = np.diag(t).copy()
    keys = [(-abs(v), v.real, v.imag) for v in diag]
    target_order = sorted(range(n), key=lambda i: (keys[i], i))
    pos = list(range(n))
    for slot in range(n):
        j = pos.index(target_order[slot])
        while j > slot:
            _swap_adjacent_diag(t, q, j - 1)
            pos[j - 1], pos[j] = pos[j], pos[j - 1]
            j -= 1


def schur(a, *, order=None):
    """Complex Schur factorization ``a = Q T Q*`` with verified residuals.

    Parameters
    ----------
    a : square matrix
    order : None or "modulus"
        "modulus" reorders the triangular factor so diagonal eigenvalues
        appear in nonincreasing modulus, ties broken by (real, imag).

    Unitarity, triangularity of the raw factor and reconstruction must
    each stay within ``_SCHUR_TOL``, the last two relative to the norms
    of the factor and of ``a``.

    Raises ``SchurConvergenceError`` (with the offending residual) instead
    of returning an unverified factorization.
    """
    if order not in (None, "modulus"):
        raise ValueError(f"unknown order {order!r}")
    arr = _as_array(a, square=True)
    n = arr.shape[0]
    if n == 1 or _strict_lower_max(arr) == 0.0:
        # already upper triangular: take (I, a) so structural zeros survive
        t = arr.astype(np.complex128).copy()
        q = np.eye(n, dtype=np.complex128)
    else:
        try:
            t, q = scipy.linalg.schur(np.array(arr, dtype=np.complex128), output="complex")
        except np.linalg.LinAlgError as exc:
            raise SchurConvergenceError(f"QR iteration failed: {exc}") from exc
        t = np.ascontiguousarray(t)
        q = np.ascontiguousarray(q)
    if order == "modulus" and n > 1:
        _order_descending_modulus(t, q)
    discarded = _strict_lower_max(t)
    t = np.triu(t)
    norm_a = operator_norm(arr)
    if discarded > _SCHUR_TOL * (1.0 + operator_norm(t)):
        raise SchurConvergenceError(
            f"triangular factor residual {discarded:.3e} above tolerance", residual=discarded
        )
    unit_res = operator_norm(q.conj().T @ q - np.eye(n))
    if unit_res > _SCHUR_TOL:
        raise SchurConvergenceError(
            f"unitarity residual {unit_res:.3e} above tolerance", residual=unit_res
        )
    recon_res = operator_norm(q @ t @ q.conj().T - arr)
    if recon_res > _SCHUR_TOL * norm_a:
        raise SchurConvergenceError(
            f"reconstruction residual {recon_res:.3e} above tolerance", residual=recon_res
        )
    return SchurForm(unitary=ComplexMatrix(q), upper=ComplexMatrix(t))


def match_distance(ev1, ev2):
    """Smallest max pairing distance between two equal-size eigenvalue multisets.

    Uses a minimum-cost assignment, so the returned value is an upper
    bound on the optimal max-matching distance; a small value certifies
    the multisets agree to that accuracy.
    """
    u = np.asarray(ev1, dtype=np.complex128).reshape(-1)
    v = np.asarray(ev2, dtype=np.complex128).reshape(-1)
    if u.size != v.size:
        raise ValueError(f"multisets differ in size: {u.size} vs {v.size}")
    if u.size == 0:
        return 0.0
    cost = np.abs(u[:, None] - v[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())

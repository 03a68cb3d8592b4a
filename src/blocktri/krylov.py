"""Joint block-tridiagonalization of dense matrices by levelwise Krylov growth.

Starting from a unit vector v, the orthonormal basis grows level by level:
each new level is spanned by the images of the previous level's block under
every input operator and its adjoint.  Including adjoints makes entries both
below AND above the block band vanish, so the transformed matrices are block
tridiagonal with respect to the realized schedule.

Two modes:

* ``adaptive`` keeps only genuinely new directions; when a level adds
  nothing the joint reducing subspace has stabilized and the sweep stops
  (the basis is then completed arbitrarily, coupling blocks to the
  complement vanish).
* ``padded`` completes each level with the next standard basis vectors so
  the realized sizes hit the saturated schedules exactly - (1, 2, 6, 18, ...)
  for one operator, (1, 4, 20, 100, ...) for two - until the space is
  exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ComplexMatrix, _as_array
from .operators import BlockSchedule, _off_band_max, _pattern_sizes, make_schedule

__all__ = ["TridiagResult", "block_tridiagonalize", "verify_block_structure", "BandCheck"]

_RANK_TOL = 1e-10  # relative rank threshold for new Krylov directions
_PAD_TOL = 1e-6  # independence threshold for completion vectors


@dataclass(frozen=True)
class TridiagResult:
    """Basis + realized schedule + transformed matrices.

    ``stabilized_dim`` is the dimension at which the adaptive sweep found a
    joint reducing subspace, or None when the sweep filled the whole space
    (always None in padded mode).
    """

    basis: ComplexMatrix
    realized_schedule: BlockSchedule
    transformed: tuple
    stabilized_dim: int | None


def _reorthogonalize(w, basis, count):
    # modified Gram-Schmidt with one reorthogonalization pass
    r = np.array(w, dtype=np.complex128)
    for _ in range(2):
        for j in range(count):
            col = basis[:, j]
            r -= col * (col.conj() @ r)
    return r


def _complete(basis, count, want, cursor):
    """Append up to ``want`` standard basis vectors, orthonormalized, from e_cursor on.

    Vectors whose residual stays below ``_PAD_TOL`` are skipped.  The
    cursor cannot run out while columns are missing: the squared distances
    of e_1..e_N to a d-dimensional span sum to N - d >= 1, and the vectors
    before the cursor already lie within ``_PAD_TOL`` of the span, so some
    later e_i clears the bar.  Returns the new column count and cursor.
    """
    n_dim = basis.shape[0]
    stop = count + want
    while count < stop and cursor < n_dim:
        e = np.zeros(n_dim, dtype=np.complex128)
        e[cursor] = 1.0
        cursor += 1
        r = _reorthogonalize(e, basis, count)
        rn = np.linalg.norm(r)
        if rn > _PAD_TOL:
            basis[:, count] = r / rn
            count += 1
    return count, cursor


def block_tridiagonalize(ops, start=None, mode="adaptive"):
    """Jointly block-tridiagonalize one or two square matrices.

    Parameters
    ----------
    ops : sequence of 1 or 2 square matrices, equal size N
    start : length-N vector, default e_1
        Seed direction; must be nonzero.
    mode : "adaptive" or "padded"

    A candidate image counts as a new direction when its residual after
    orthogonalization exceeds ``_RANK_TOL`` times the largest image norm
    of the level.

    Returns a :class:`TridiagResult`; the realized sizes always satisfy
    k_{n+1} <= 2 m K_n, and the transformed matrices are block
    tridiagonal up to roundoff (see :func:`verify_block_structure`).
    """
    if mode not in ("adaptive", "padded"):
        raise ValueError(f"unknown mode {mode!r}")
    mats = [_as_array(m, square=True, name=f"ops[{i}]") for i, m in enumerate(ops)]
    if not 1 <= len(mats) <= 2:
        raise ValueError("expected one or two operators")
    n_dim = mats[0].shape[0]
    if len(mats) == 2 and mats[0].shape != mats[1].shape:
        raise ValueError(f"operators must share one size, got {mats[0].shape} vs {mats[1].shape}")
    if start is None:
        v = np.zeros(n_dim, dtype=np.complex128)
        v[0] = 1.0
    else:
        v = np.asarray(start, dtype=np.complex128).reshape(-1)
        if v.size != n_dim:
            raise ValueError(f"start has length {v.size}, expected {n_dim}")
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValueError("start vector must be nonzero")
        v = v / nv

    applied = []
    for m in mats:
        applied.append(m)
        applied.append(m.conj().T)

    basis = np.zeros((n_dim, n_dim), dtype=np.complex128)
    basis[:, 0] = v
    sizes = [1]
    count = 1
    cursor = 0
    stabilized = None

    while count < n_dim:
        lo, hi = count - sizes[-1], count
        images = [m @ basis[:, j] for m in applied for j in range(lo, hi)]
        level_norm = max((np.linalg.norm(w) for w in images), default=0.0) or 1.0
        accepted = 0
        for w in images:
            r = _reorthogonalize(w, basis, count + accepted)
            rn = np.linalg.norm(r)
            if rn > _RANK_TOL * level_norm:
                basis[:, count + accepted] = r / rn
                accepted += 1
        if mode == "adaptive":
            if accepted == 0:
                stabilized = count
                break
        else:
            # the saturated pattern for len(mats) operators, clipped to the space left
            target = min(_pattern_sizes(2 * len(mats) + 1, len(sizes) + 1)[-1], n_dim - count)
            filled, cursor = _complete(basis, count + accepted, target - accepted, cursor)
            accepted = filled - count
        sizes.append(accepted)
        count += accepted

    if stabilized is not None and count < n_dim:
        filled, cursor = _complete(basis, count, n_dim - count, cursor)
        sizes.append(filled - count)
        count = filled

    realized = make_schedule("custom", sizes=tuple(sizes))
    q = ComplexMatrix(basis)
    transformed = tuple(ComplexMatrix(basis.conj().T @ m @ basis) for m in mats)
    return TridiagResult(
        basis=q,
        realized_schedule=realized,
        transformed=transformed,
        stabilized_dim=stabilized,
    )


@dataclass(frozen=True)
class BandCheck:
    residual: float
    tol: float
    passed: bool


def verify_block_structure(a, schedule, tol=1e-10):
    """Max modulus of entries outside the block-tridiagonal band of ``a``.

    The schedule must cover the matrix (cumulative size >= N); trailing
    levels past N are clipped.  ``passed`` compares the residual against
    ``tol`` as given (callers scale it as they see fit).
    """
    arr = _as_array(a, square=True)
    n = arr.shape[0]
    if schedule.cumsums[-1] < n:
        raise ValueError(f"schedule covers {schedule.cumsums[-1]} dims, matrix has {n}")
    residual = _off_band_max(arr, schedule)
    return BandCheck(residual=residual, tol=tol, passed=residual < tol)

"""Joint block-tridiagonalization of dense matrices by levelwise Krylov growth.

Starting from a unit vector v, the orthonormal basis grows level by level:
each new level is spanned by the images of the previous level's block under
every input operator and its adjoint.  Including adjoints makes entries both
below AND above the block band vanish, so the transformed matrices are block
tridiagonal with respect to the realized schedule.

Each level is completed with the next standard basis vectors, so the
realized sizes hit the saturated schedules exactly - (1, 2, 6, 18, ...) for
one operator, (1, 4, 20, 100, ...) for two - until the space is exhausted.

The last level, the filling level, takes everything left of the space.  It
is the orthogonal complement of the levels before it whatever the images
span.  It is filled by one Householder QR of their columns (LAPACK
``zgeqrf``, then ``zunmqr`` applied to [0; I]), and the images of the level
before it are not formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .linalg import _as_array, _pow2_normalize, _read_only
from .operators import BlockSchedule, _off_band_max, _pattern_sizes, make_schedule

__all__ = ["TridiagResult", "block_tridiagonalize", "verify_block_structure"]

_BAND_TOL = 1e-10  # every band gate, relative to 1 + max ||S||_2 over the inputs S
_RANK_TOL = 1e-10  # relative rank threshold for new Krylov directions
_PAD_TOL = 1e-6  # independence threshold for completion vectors
_PANEL = 64  # candidates decided per block step of the Gram-Schmidt
_REORTH = 0.5**0.5  # kept residuals shorter than this share of their candidate get a third pass


@dataclass(frozen=True)
class TridiagResult:
    """Basis + realized schedule + transformed matrices, all arrays read-only.

    ``stabilized_dim`` is the first cumulative size K_n, n below the last
    level, at which span(basis[:, :K_n]) reduces every input up to the
    sweep's rank threshold; None when no such level exists.
    """

    basis: np.ndarray
    realized_schedule: BlockSchedule
    transformed: tuple
    stabilized_dim: int | None


def _append_orthonormal(basis, count, cands, tol, stop):
    """Append to ``basis`` the columns of ``cands`` that keep a residual above ``tol``.

    Reorthogonalized block classical Gram-Schmidt (BCGS2; Barlow &
    Smoktunowicz, Numer. Math. 123, 2013), panel by panel.  A panel of
    candidates is projected twice against ``basis[:, :count]`` by block
    products, which leaves each projected candidate c a component of order
    eps*||c|| along that basis.  Its columns are then decided in order:
    each is projected twice against the columns the panel has kept, and
    kept when its residual r exceeds ``tol``.  A kept residual shorter than
    ``_REORTH`` * ||c|| would carry that roundoff into its unit vector
    enlarged by ||c|| / ||r||, where later candidates pick it up, so it is
    projected once more against the whole basis before it is normalized.
    Appending stops when ``count`` reaches ``stop``.  ``cands`` is
    overwritten.  Returns the new column count and the number of candidates
    examined.
    """
    for lo in range(0, cands.shape[1], _PANEL):
        q = basis[:, :count]
        panel = cands[:, lo : lo + _PANEL]
        for _ in range(2):
            panel -= q @ (q.conj().T @ panel)
        norms = np.linalg.norm(panel, axis=0)
        first = count
        for j, r in enumerate(panel.T):
            # (r^H p)^H equals p^H r but conjugates a vector instead of copying p
            p = basis[:, first:count]
            for _ in range(2):
                r -= p @ (r.conj() @ p).conj()
            rn = np.linalg.norm(r)
            if rn <= tol:
                continue
            if rn < _REORTH * norms[j]:
                p = basis[:, :count]
                r -= p @ (r.conj() @ p).conj()
                rn = np.linalg.norm(r)
            basis[:, count] = r / rn
            count += 1
            if count == stop:
                return count, lo + j + 1
    return count, cands.shape[1]


def _complete(basis, count, stop, cursor):
    """Append standard basis vectors, orthonormalized, from e_cursor on until ``stop`` columns.

    Vectors whose residual stays below ``_PAD_TOL`` are skipped.  The
    cursor cannot run out while columns are missing: the squared distances
    of e_1..e_N to a d-dimensional span sum to N - d >= 1, and the vectors
    before the cursor already lie within ``_PAD_TOL`` of the span, so some
    later e_i clears the bar.  Returns the new column count and cursor.
    """
    n_dim = basis.shape[0]
    while count < stop and cursor < n_dim:
        batch = min(stop - count, n_dim - cursor)
        cands = np.zeros((n_dim, batch), dtype=np.complex128)
        cands[cursor + np.arange(batch), np.arange(batch)] = 1.0
        count, used = _append_orthonormal(basis, count, cands, _PAD_TOL, stop)
        cursor += used
    return count, cursor


def _fill_complement(basis, count):
    """Fill ``basis[:, count:]`` with an orthonormal basis of the complement of ``basis[:, :count]``.

    One Householder QR of the first ``count`` columns, a = H [R; 0], gives
    the unitary H whose trailing columns H [0; I] span the orthogonal
    complement of theirs (Golub & Van Loan, Matrix Computations, 5.2).
    """
    n_dim = basis.shape[0]
    qr, tau = _lapack.geqrf(basis[:, :count])
    fill = np.zeros((n_dim, n_dim - count), dtype=np.complex128, order="F")
    fill[count:] = np.eye(n_dim - count)
    basis[:, count:] = _lapack.unmqr(qr, tau, fill)


def _stabilized_dim(transformed, schedule):
    """The first K_n, n below the last level, whose span reduces every input and its adjoint.

    In the basis, level n's images under m and m^H are the columns of T and
    T^H on level n (T = W^H m W), and their components outside the first K_n
    basis vectors are those of the coupling blocks T[n+1, n] and
    T[n, n+1]^H.  K_n qualifies when each of these is at most ``_RANK_TOL``
    times the largest image of the level, the rule the sweep applies to new
    images; the filling level's images, never formed, are read here too.
    Off the band T holds only roundoff, so only band rows are read: O(N^2).
    """
    bounds = (0,) + schedule.cumsums
    for n in range(1, schedule.levels):
        top = bounds[max(n - 2, 0)]
        band, level = slice(top, bounds[n + 1]), slice(bounds[n - 1], bounds[n])
        images = np.hstack([x for t in transformed for x in (t[band, level], t[level, band].T)])
        _pow2_normalize(images, out=images)
        outside = np.linalg.norm(images[bounds[n] - top :], axis=0).max()
        if outside <= _RANK_TOL * np.linalg.norm(images, axis=0).max():
            return bounds[n]
    return None


def block_tridiagonalize(ops, start=None):
    """Jointly block-tridiagonalize one or two square matrices.

    Parameters
    ----------
    ops : sequence of 1 or 2 square matrices, equal size N
    start : length-N vector, default e_1
        Seed direction; must be finite and nonzero.

    A candidate image counts as a new direction when its residual after
    orthogonalization exceeds ``_RANK_TOL`` times the largest image norm
    of the level.

    Returns a :class:`TridiagResult`; the realized sizes always satisfy
    k_{n+1} <= 2 m K_n, and the transformed matrices are block
    tridiagonal up to roundoff (see :func:`verify_block_structure`).
    """
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
        v = np.array(start, dtype=np.complex128).reshape(-1)
        if v.size != n_dim:
            raise ValueError(f"start has length {v.size}, expected {n_dim}")
        if not np.isfinite(v).all():
            raise ValueError("start vector must be finite")
        # the exact power-of-two scaling keeps the norm clear of underflow and overflow
        _pow2_normalize(v, out=v)
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

    while count < n_dim:
        # the saturated pattern for len(mats) operators; a level that would reach the
        # end of the space is the filling level below
        target = _pattern_sizes(2 * len(mats) + 1, len(sizes) + 1)[-1]
        if target >= n_dim - count:
            break
        lo, hi = count - sizes[-1], count
        # one block product per operator; columns keep the per-image order.  The exact
        # power-of-two scaling keeps the vector norms clear of underflow and overflow
        images = np.hstack([m @ basis[:, lo:hi] for m in applied])
        _pow2_normalize(images, out=images)
        level_norm = float(np.linalg.norm(images, axis=0).max()) or 1.0
        filled, _ = _append_orthonormal(basis, count, images, _RANK_TOL * level_norm, n_dim)
        filled, cursor = _complete(basis, filled, count + target, cursor)
        sizes.append(filled - count)
        count = filled

    if count < n_dim:
        # the filling level: the orthogonal complement of the levels before it
        _fill_complement(basis, count)
        sizes.append(n_dim - count)

    realized = make_schedule("custom", sizes=tuple(sizes))
    transformed = tuple(_read_only(basis.conj().T @ m @ basis) for m in mats)
    return TridiagResult(
        basis=_read_only(basis),
        realized_schedule=realized,
        transformed=transformed,
        stabilized_dim=_stabilized_dim(transformed, realized),
    )


def verify_block_structure(a, schedule):
    """Max modulus of entries outside the block-tridiagonal band of ``a``.

    The schedule must cover the matrix (cumulative size >= N); trailing
    levels past N are clipped.  Callers decide on the residual with their
    own gate.
    """
    arr = _as_array(a, square=True)
    n = arr.shape[0]
    if schedule.cumsums[-1] < n:
        raise ValueError(f"schedule covers {schedule.cumsums[-1]} dims, matrix has {n}")
    return _off_band_max(arr, schedule)

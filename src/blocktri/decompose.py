"""Structure decomposition: upper-triangular part plus quasinilpotent part.

Any square matrix (or ``BlockTridiagOperator``) is conjugated into the
sum of an assembled upper triangular matrix Delta and a strictly lower
block-bidiagonal remainder Q'.  The pipeline is: block-tridiagonalize
(dense inputs only), split off the lower coupling blocks, Schur-reduce
each diagonal block, and reassemble the transformed blocks under the
direct sum of the block unitaries.  Q' is exactly nilpotent at every
corner by its zero pattern, which makes the quasinilpotent certificate
structural rather than numerical: its norms are maxima of coupling-block
norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutators import LevelRecord, SpectralReport
from .krylov import _BAND_TOL, block_tridiagonalize
from .linalg import (
    SchurConvergenceError,
    _as_array,
    _norm_excess,
    _read_only,
    _residual_norm,
    _strict_lower_max,
    operator_norm,
    schur,
    spectral_radius,
)
from .operators import (
    BlockTridiagOperator,
    _assemble,
    _level_of,
    _level_slices,
    corner_compression,
    make_schedule,
    operator_from_matrix,
)

__all__ = [
    "DecompositionResult",
    "DiagonalSplit",
    "decompose",
    "quasinilpotent_part_certificate",
    "diagonal_part",
]

_DIAG_TOL = 1e-10  # a block diagonal counts as zero below this, relative to 1 + ||block||


@dataclass(frozen=True)
class DecompositionResult:
    """Assembled decomposition u0* T u0 = delta + quasinil (structurally).

    ``delta_blocks`` holds per level n the pair (Delta_n, A'_n) with
    A'_n = U_n* A_n U_{n+1} (None at the last level); ``q_blocks`` holds
    the transformed lower couplings U_{n+1}* B_n U_n.  ``conjugated`` is
    the bitwise sum delta + quasinil (their supports are disjoint), and
    ``residuals`` reports the unitarity of u0, ``||u0* u0 - I||_F``, the
    strict-lower mass of delta (exactly 0.0 by assembly), and the honest
    reconstruction distance ``||u0* T u0 - conjugated||_F`` from the input
    T.  The two Frobenius norms bound the 2-norms from above, within a
    factor sqrt(N) (``linalg._residual_norm``), so a gate on either is
    at least as strict as one on the 2-norm.  Every array is read-only.
    """

    u0: np.ndarray
    delta_blocks: tuple
    q_blocks: tuple
    schedule: object
    delta: np.ndarray
    quasinil: np.ndarray
    conjugated: np.ndarray
    residuals: dict


def decompose(t, levels=None):
    """Decompose a matrix or operator into triangular plus quasinilpotent parts.

    Dense inputs are first jointly tridiagonalized (padded single
    schedule, so the realized sizes follow 1, 2, 6, 18, ... until the
    dimension is exhausted); ``levels``, when given, asserts the input is
    large enough to realize that many full pattern levels.  Operators
    skip that step and use their own blocks through ``levels`` (default:
    all).
    Each diagonal block then gets a Schur form with nonincreasing-modulus
    diagonal, and everything is reassembled under the direct sum of the
    block unitaries.  The unitarity and reconstruction residuals are
    rechecked from the returned u0 and the input itself, as Frobenius
    norms, so no SVD of an N x N matrix is taken.

    Raises ``SchurConvergenceError`` tagged with the block index if any
    block fails to factor.
    """
    if isinstance(t, BlockTridiagOperator):
        if levels is None:
            levels = t.levels
        if not 1 <= levels <= t.levels:
            raise ValueError(f"levels {levels} outside operator range 1..{t.levels}")
        sched = t.schedule.truncated(levels)
        w = None
        target = corner_compression(t, levels)
        source = t
    else:
        arr = _as_array(t, square=True, name="t")
        if levels is not None:
            probe = make_schedule("single", levels)
            if arr.shape[0] < probe.cumsums[-1]:
                raise ValueError(
                    f"size {arr.shape[0]} cannot realize {levels} single-schedule "
                    f"levels (needs {probe.cumsums[-1]})"
                )
        tri = block_tridiagonalize([arr])
        sched = tri.realized_schedule
        w = tri.basis
        source = operator_from_matrix(tri.transformed[0], sched, band_tol=_BAND_TOL, band_scale=(arr,))
        target = arr

    depth = sched.levels
    units = []
    delta_diag = []
    for n in range(1, depth + 1):
        block = source.diag_block(n)
        try:
            form = schur(block, order="modulus")
        except SchurConvergenceError as exc:
            raise SchurConvergenceError(f"diagonal block {n}: {exc}", residual=exc.residual) from exc
        units.append(form.unitary)
        delta_diag.append(form.upper)
    delta_upper = []
    q_blocks = []
    for n in range(1, depth):
        delta_upper.append(_read_only(units[n - 1].conj().T @ source.upper_block(n) @ units[n]))
        q_blocks.append(_read_only(units[n].conj().T @ source.lower_block(n) @ units[n - 1]))

    size = sched.cumsums[-1]
    delta = _assemble(sched, delta_diag, delta_upper, None)
    quasinil = _assemble(sched, None, None, q_blocks)
    conjugated = delta + quasinil

    if w is None:
        u0 = _assemble(sched, units, None, None)
    else:
        # w times the direct sum of the block unitaries, one column block at a time
        u0 = np.empty((size, size), dtype=np.complex128)
        for cols, unit in zip(_level_slices(sched), units):
            u0[:, cols] = w[:, cols] @ unit
    residuals = {
        "unitarity": _residual_norm(u0.conj().T @ u0 - np.eye(size)),
        "triangularity": _strict_lower_max(delta),
        "reconstruction": _residual_norm(u0.conj().T @ target @ u0 - conjugated),
    }
    return DecompositionResult(
        u0=_read_only(u0),
        delta_blocks=tuple(zip(delta_diag, delta_upper + [None])),
        q_blocks=tuple(q_blocks),
        schedule=sched,
        delta=_read_only(delta),
        quasinil=_read_only(quasinil),
        conjugated=_read_only(conjugated),
        residuals=residuals,
    )


def quasinilpotent_part_certificate(result):
    """Certify the quasinilpotent part of a decomposition corner by corner.

    Checks that the remainder u0* T u0 - delta (= ``quasinil``) has its
    support exactly on the first block subdiagonal and reports the spectral
    radius of each corner, strictly lower triangular there: exactly 0.0 by
    the triangular eigenvalue path, so no tolerance (``tol`` reads 0.0).
    On that support Q'* Q' is block diagonal with blocks B_n* B_n, so the
    2-norm of any corner or tail is the largest norm of a coupling B_n it
    holds (Golub & Van Loan, Matrix Computations, 2.3), and each coupling
    norm is taken once.  The level-n corner holds couplings 1..n-1 (its
    ``norm``); the tail after dropping couplings 1..n, the approximation-
    error ladder of the nilpotent corners, holds the rest (its ``detail``).
    """
    sched = result.schedule
    depth = sched.levels
    q = result.quasinil
    level_of = _level_of(sched, q.shape[0])
    band = (level_of[:, None] - level_of[None, :]) == 1
    structural_ok = not q[~band].any()
    coupling_norms = [operator_norm(b) for b in result.q_blocks]

    records = []
    for n in range(1, depth + 1):
        kn = sched.size_through(n)
        radius = spectral_radius(q[:kn, :kn])
        tail = max(coupling_norms[n:], default=0.0)
        records.append(
            LevelRecord(
                level=n,
                radius=radius,
                norm=max(coupling_norms[: n - 1], default=0.0),
                status="ok" if radius == 0.0 else "exceeds_tol",
                detail=f"tail after dropping couplings 1..{n}: {tail:.3e}",
            )
        )
    certified = structural_ok and all(r.status == "ok" for r in records)
    if structural_ok:
        note = (
            f"support exactly on the first block subdiagonal through level {depth}; "
            "corner powers vanish structurally"
        )
    else:
        note = "remainder has entries off the first block subdiagonal"
    return SpectralReport(
        levels=tuple(records),
        verdict="certified_quasinilpotent" if certified else "not_certified",
        tol=0.0,
        note=note,
    )


@dataclass(frozen=True)
class DiagonalSplit:
    """delta split as diagonal (normal part) plus strict upper, with Q' alongside.

    ``normal[n-1]`` is the diagonal of Delta_n; ``zero_diagonal`` is True
    when every block diagonal stays within ``_DIAG_TOL`` (relative to
    1 + the block norm), the all-nilpotent-blocks case.  Every array is
    read-only.
    """

    normal: tuple
    strict_upper: np.ndarray
    quasinil: np.ndarray
    zero_diagonal: bool


def diagonal_part(result):
    """Split delta into its diagonal and the strict-upper remainder.

    The pieces reassemble bitwise: diag + strict_upper = delta and
    delta + quasinil = conjugated, so the sum of the three returned parts
    is exactly the conjugated corner.
    """
    diags = []
    zero_flag = True
    for block, _ in result.delta_blocks:
        d = _read_only(np.diag(block).copy())
        diags.append(d)
        # decided while the flag is open; the gate screens before it takes a block norm
        if zero_flag and d.size and _norm_excess(float(np.abs(d).max()), _DIAG_TOL, (block,)) is not None:
            zero_flag = False
    upper = result.delta.copy()
    np.fill_diagonal(upper, 0.0)
    return DiagonalSplit(
        normal=tuple(diags),
        strict_upper=_read_only(upper),
        quasinil=result.quasinil,
        zero_diagonal=zero_flag,
    )

"""Structure decomposition: upper-triangular part plus quasinilpotent part.

Any square matrix (or block-tridiagonal provider) is conjugated into the
sum of an assembled upper triangular matrix Delta and a strictly lower
block-bidiagonal remainder Q'.  The pipeline is: block-tridiagonalize
(dense inputs only), split off the lower coupling blocks, Schur-reduce
each diagonal block, and reassemble under the direct sum of the block
unitaries.  Q' is exactly nilpotent at every corner by its zero pattern,
which makes the quasinilpotent certificate structural rather than
numerical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .commutators import LevelRecord, SpectralReport
from .krylov import block_tridiagonalize
from .linalg import (
    ComplexMatrix,
    SchurConvergenceError,
    _as_array,
    _strict_lower_max,
    operator_norm,
    schur,
    spectral_radius,
)
from .operators import (
    BlockTridiagOperator,
    _level_of,
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
    ``residuals`` reports unitarity of u0, strict-lower mass of delta
    (exactly 0.0 by assembly), and the honest reconstruction distance
    ``||u0* T u0 - conjugated||``.
    """

    u0: ComplexMatrix
    delta_blocks: tuple
    q_blocks: tuple
    schedule: object
    delta: ComplexMatrix
    quasinil: ComplexMatrix
    conjugated: ComplexMatrix
    residuals: dict


def decompose(t, levels=None, *, start=None):
    """Decompose a matrix or provider into triangular plus quasinilpotent parts.

    Dense inputs are first jointly tridiagonalized (padded single
    schedule, so the realized sizes follow 1, 2, 6, 18, ... until the
    dimension is exhausted); ``levels``, when given, asserts the input is
    large enough to realize that many full pattern levels.  Providers
    skip that step and are materialized through ``levels`` (default: all).
    Each diagonal block then gets a Schur form with nonincreasing-modulus
    diagonal, and everything is reassembled under the direct sum of the
    block unitaries.

    Raises ``SchurConvergenceError`` tagged with the block index if any
    block fails to factor.
    """
    if isinstance(t, BlockTridiagOperator):
        if levels is None:
            levels = t.levels
        if not 1 <= levels <= t.levels:
            raise ValueError(f"levels {levels} outside provider range 1..{t.levels}")
        sched = t.schedule.truncated(levels)
        w = None
        target = corner_compression(t, levels).array
        source = operator_from_matrix(target, sched)
    else:
        arr = _as_array(t, square=True, name="t")
        if levels is not None:
            probe = make_schedule("single", levels)
            if arr.shape[0] < probe.cumsums[-1]:
                raise ValueError(
                    f"size {arr.shape[0]} cannot realize {levels} single-schedule "
                    f"levels (needs {probe.cumsums[-1]})"
                )
        tri = block_tridiagonalize([arr], start=start, mode="padded")
        sched = tri.realized_schedule
        w = tri.basis.array
        band_tol = 1e-9 * (1.0 + operator_norm(arr))
        source = operator_from_matrix(tri.transformed[0].array, sched, band_tol=band_tol)
        target = arr

    depth = sched.levels
    units = []
    delta_diag = []
    for n in range(1, depth + 1):
        block = source.diag_block(n).array
        try:
            form = schur(block, order="modulus")
        except SchurConvergenceError as exc:
            raise SchurConvergenceError(f"diagonal block {n}: {exc}", residual=exc.residual) from exc
        units.append(form.unitary.array)
        delta_diag.append(form.upper.array)
    delta_upper = []
    q_blocks = []
    for n in range(1, depth):
        delta_upper.append(units[n - 1].conj().T @ source.upper_block(n).array @ units[n])
        q_blocks.append(units[n].conj().T @ source.lower_block(n).array @ units[n - 1])

    size = sched.cumsums[-1]
    delta = np.zeros((size, size), dtype=np.complex128)
    quasinil = np.zeros((size, size), dtype=np.complex128)
    for n in range(1, depth + 1):
        lo, hi = sched.block_bounds(n)
        delta[lo:hi, lo:hi] = delta_diag[n - 1]
        if n < depth:
            lo2, hi2 = sched.block_bounds(n + 1)
            delta[lo:hi, lo2:hi2] = delta_upper[n - 1]
            quasinil[lo2:hi2, lo:hi] = q_blocks[n - 1]
    conjugated = delta + quasinil

    u = scipy.linalg.block_diag(*units).astype(np.complex128)
    u0 = w @ u if w is not None else u
    residuals = {
        "unitarity": operator_norm(u0.conj().T @ u0 - np.eye(size)),
        "triangularity": _strict_lower_max(delta),
        "reconstruction": operator_norm(u0.conj().T @ target @ u0 - conjugated),
    }
    delta_blocks = tuple(
        (
            ComplexMatrix(delta_diag[n - 1]),
            ComplexMatrix(delta_upper[n - 1]) if n < depth else None,
        )
        for n in range(1, depth + 1)
    )
    return DecompositionResult(
        u0=ComplexMatrix(u0),
        delta_blocks=delta_blocks,
        q_blocks=tuple(ComplexMatrix(b) for b in q_blocks),
        schedule=sched,
        delta=ComplexMatrix(delta),
        quasinil=ComplexMatrix(quasinil),
        conjugated=ComplexMatrix(conjugated),
        residuals=residuals,
    )


def quasinilpotent_part_certificate(result, n_max=None, tol=1e-12):
    """Certify the quasinilpotent part of a decomposition corner by corner.

    Checks that the remainder u0* T u0 - delta (= ``quasinil``) has its
    support exactly on the first block subdiagonal, reports the spectral
    radius of each corner (exactly zero via the triangular eigenvalue
    path), and verifies that dropping the first n transformed couplings
    leaves operator norm equal to the largest remaining coupling norm,
    which is the approximation-error ladder of the nilpotent corners.
    """
    sched = result.schedule
    depth = sched.levels
    if n_max is None:
        n_max = depth
    if not 1 <= n_max <= depth:
        raise ValueError(f"n_max {n_max} outside schedule range 1..{depth}")
    q = result.quasinil.array
    size = q.shape[0]
    level_of = _level_of(sched, size)
    band = (level_of[:, None] - level_of[None, :]) == 1
    structural_ok = not q[~band].any()
    coupling_norms = [operator_norm(b) for b in result.q_blocks]

    records = []
    worst_gap = 0.0
    for n in range(1, n_max + 1):
        kn = sched.size_through(n)
        corner = q[:kn, :kn]
        radius = spectral_radius(corner)
        norm = operator_norm(corner) if kn > 1 else 0.0
        tail = coupling_norms[n:]
        expected = max(tail) if tail else 0.0
        stripped = q.copy()
        for j in range(1, min(n + 1, depth)):
            lo, hi = sched.block_bounds(j)
            lo2, hi2 = sched.block_bounds(j + 1)
            stripped[lo2:hi2, lo:hi] = 0.0
        gap = abs(operator_norm(stripped) - expected)
        worst_gap = max(worst_gap, gap)
        ok = radius <= tol and gap <= 1e-12 * (1.0 + expected)
        records.append(
            LevelRecord(
                level=n,
                radius=radius,
                norm=norm,
                status="ok" if ok else "exceeds_tol",
                detail=f"tail after dropping couplings 1..{n}: {expected:.3e}",
            )
        )
    certified = structural_ok and all(r.status == "ok" for r in records)
    if structural_ok:
        note = (
            f"support exactly on the first block subdiagonal through level {depth}; "
            f"corner powers vanish structurally; worst tail-norm gap {worst_gap:.3e}"
        )
    else:
        note = "remainder has entries off the first block subdiagonal"
    return SpectralReport(
        levels=tuple(records),
        verdict="certified_quasinilpotent" if certified else "not_certified",
        tol=tol,
        note=note,
    )


@dataclass(frozen=True)
class DiagonalSplit:
    """delta split as diagonal (normal part) plus strict upper, with Q' alongside.

    ``normal[n-1]`` is the diagonal of Delta_n; ``zero_diagonal`` is True
    when every block diagonal stays within ``_DIAG_TOL`` (relative to
    1 + the block norm), the all-nilpotent-blocks case.
    """

    normal: tuple
    strict_upper: ComplexMatrix
    quasinil: ComplexMatrix
    zero_diagonal: bool


def diagonal_part(result):
    """Split delta into its diagonal and the strict-upper remainder.

    The pieces reassemble bitwise: diag + strict_upper = delta and
    delta + quasinil = conjugated, so the sum of the three returned parts
    is exactly the conjugated corner.
    """
    delta = result.delta.array
    sched = result.schedule
    diags = []
    zero_flag = True
    for n in range(1, sched.levels + 1):
        lo, hi = sched.block_bounds(n)
        block = delta[lo:hi, lo:hi]
        d = np.diag(block).copy()
        diags.append(d)
        if d.size and float(np.abs(d).max()) > _DIAG_TOL * (1.0 + operator_norm(block)):
            zero_flag = False
    upper = delta.copy()
    np.fill_diagonal(upper, 0.0)
    return DiagonalSplit(
        normal=tuple(diags),
        strict_upper=ComplexMatrix(upper),
        quasinil=result.quasinil,
        zero_diagonal=zero_flag,
    )

"""Commutator certification and the scaled-shift counterexample family.

``certify_commutator`` works the sufficiency direction: when every corner
pair of two block-tridiagonal operators is simultaneously triangularizable,
each corner commutator is unitarily similar to a strictly upper triangular
matrix, so its spectral radius is pinned at zero.  The counterexample
family shows the converse is false: blockwise scaled shifts have exactly
nilpotent corner commutators at every level while the corner pairs refuse
triangularization from level two on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    ComplexMatrix,
    _as_array,
    corner_unit,
    eigenvalues,
    is_nilpotent,
    match_distance,
    operator_norm,
    shift_matrix,
    spectral_radius,
)
from .operators import BlockSchedule, BlockTridiagOperator, corner_compression, split
from .triangular import _iter_word_products, simultaneous_triangularize, word_value

__all__ = [
    "LevelRecord",
    "SpectralReport",
    "CounterexamplePair",
    "ClauseResult",
    "CounterexampleReport",
    "StrippedLevelRecord",
    "StrippedChecksReport",
    "certify_commutator",
    "build_counterexample",
    "verify_counterexample",
    "spectrum_union_check",
    "stripped_pair_checks",
]

_DEFAULT_N_MAX = {"pair": 4, "single": 5}


def _default_n_max(schedule):
    return min(_DEFAULT_N_MAX.get(schedule.kind, schedule.levels), schedule.levels)


@dataclass(frozen=True)
class LevelRecord:
    """One corner level of a spectral report."""

    level: int
    radius: float
    norm: float
    status: str
    residual: float | None = None
    refuting_word: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class SpectralReport:
    """Per-level corner radii plus an overall verdict.

    ``verdict`` is "certified_quasinilpotent", "not_certified", or
    "refuted_hypothesis".  Certification always lives at truncation
    scale: it covers the materialized corners (plus whatever decay bound
    ``note`` names), never the infinite operator itself.
    """

    levels: tuple
    verdict: str
    tol: float
    first_refuted_level: int | None = None
    note: str = ""


def _record_from_certificate(n, cert, comm, norm, tol, detail):
    if cert.verdict == "triangularizable":
        u = cert.witness_unitary.array
        radius = float(np.abs(np.diag(u.conj().T @ comm @ u)).max())
        status = "certified" if radius <= tol * (1.0 + norm) else "inconclusive"
        return LevelRecord(
            level=n, radius=radius, norm=norm, status=status,
            residual=cert.residual, detail=detail,
        )
    radius = spectral_radius(comm)
    if cert.verdict == "refuted":
        return LevelRecord(
            level=n, radius=radius, norm=norm, status="refuted",
            refuting_word=cert.refuting_word, detail=detail,
        )
    return LevelRecord(
        level=n, radius=radius, norm=norm, status="inconclusive",
        residual=cert.residual, detail=detail,
    )


def _block_fast_path(c, z, n, cc, zc, comm, norm, tol, tri_opts, block_certs):
    """Certify the level-n corner through its diagonal blocks.

    Valid only when the lower coupling blocks vanish through level n: the
    corner is then block upper triangular, diagonal blocks of its word
    products multiply blockwise, and the direct sum of per-block witnesses
    triangularizes the corner.  Returns a LevelRecord, or None to make the
    caller fall back to whole-corner deflation (some block inconclusive,
    or a block word that fails to refute at corner scale).
    """
    units = []
    for j in range(1, n + 1):
        cert = block_certs.get(j)
        if cert is None:
            cert = simultaneous_triangularize(
                c.diag_block(j).array, z.diag_block(j).array, **tri_opts
            )
            block_certs[j] = cert
        if cert.verdict == "refuted":
            word = cert.refuting_word
            wv = word_value(word, cc, zc).array
            if is_nilpotent(wv @ comm):
                return None
            return LevelRecord(
                level=n, radius=spectral_radius(comm), norm=norm, status="refuted",
                refuting_word=word,
                detail=f"diagonal block pair {j} refuted; word re-verified on the corner",
            )
        if cert.verdict != "triangularizable":
            return None
        units.append(cert.witness_unitary.array)
    u = units[0] if len(units) == 1 else scipy.linalg.block_diag(*units)
    radius = float(np.abs(np.diag(u.conj().T @ comm @ u)).max())
    status = "certified" if radius <= tol * (1.0 + norm) else "inconclusive"
    residual = max(block_certs[j].residual for j in range(1, n + 1))
    return LevelRecord(
        level=n, radius=radius, norm=norm, status=status, residual=residual,
        detail=f"blockwise fast path over diagonal pairs 1..{n}",
    )


def certify_commutator(c, z, n_max=None, tol=1e-9, *, tri_tol=1e-9, word_len=None, seed=0):
    """Certify quasinilpotency of [c, z] corner by corner.

    Each corner pair (C''_n, Z''_n) for n <= n_max goes through
    simultaneous triangularization.  On success the witness pins the
    commutator: U*[C''_n, Z''_n]U is strictly upper triangular, and the
    reported radius is the largest diagonal modulus after conjugation
    (zero up to rounding).  A refuted pair flips the verdict to
    "refuted_hypothesis"; the commutator may still be quasinilpotent,
    refutation only voids this certificate.  When both operators have
    zero lower couplings through a level, per-block certificates are
    combined instead of deflating the whole corner.

    ``n_max`` defaults to 4 on the pair schedule and 5 on the single
    schedule (capped by the operators' depth), the full depth otherwise.
    """
    if c.schedule != z.schedule:
        raise ValueError("schedule mismatch: operators must share a schedule")
    depth = min(c.levels, z.levels)
    if n_max is None:
        n_max = min(_default_n_max(c.schedule), depth)
    if not 1 <= n_max <= depth:
        raise ValueError(f"n_max {n_max} outside materializable range 1..{depth}")
    tri_opts = {"tol": tri_tol, "word_len": word_len, "seed": seed}
    block_certs = {}
    records = []
    first_refuted = None
    for n in range(1, n_max + 1):
        cc = corner_compression(c, n).array
        zc = corner_compression(z, n).array
        comm = cc @ zc - zc @ cc
        norm = operator_norm(comm)
        record = None
        if c.lower_zero_through(n) and z.lower_zero_through(n):
            record = _block_fast_path(c, z, n, cc, zc, comm, norm, tol, tri_opts, block_certs)
        if record is None:
            cert = simultaneous_triangularize(ComplexMatrix(cc), ComplexMatrix(zc), **tri_opts)
            record = _record_from_certificate(n, cert, comm, norm, tol, detail="whole-corner deflation")
        records.append(record)
        if record.status == "refuted" and first_refuted is None:
            first_refuted = n
    if first_refuted is not None:
        verdict = "refuted_hypothesis"
        note = (
            "corner pair refuted; the certificate is one-directional and "
            "says nothing against quasinilpotency of the commutator"
        )
    elif all(r.status == "certified" for r in records):
        verdict = "certified_quasinilpotent"
        note = "corner-level certificate; the tail is covered only by the declared decay bounds"
    else:
        verdict = "not_certified"
        note = "some corner levels were inconclusive"
    return SpectralReport(
        levels=tuple(records), verdict=verdict, tol=tol,
        first_refuted_level=first_refuted, note=note,
    )


@dataclass(frozen=True)
class CounterexamplePair:
    """Block-diagonal pair with blocks shift(k)/k and corner_unit(k)/k."""

    schedule: BlockSchedule
    c_op: BlockTridiagOperator
    z_op: BlockTridiagOperator


def build_counterexample(schedule):
    """Blockwise scaled shifts: C_n = shift(k_n)/k_n, Z_n = corner_unit(k_n)/k_n.

    Both operators are block-diagonal under ``schedule`` (all couplings
    zero) with declared decay bound 1/k_n, attained for k_n >= 2 (the
    1x1 generators are zero, so those levels undershoot).
    """
    sizes = schedule.sizes

    def bound(n):
        return 1.0 / sizes[min(n, len(sizes)) - 1]

    c_blocks = [shift_matrix(k).array / k for k in sizes]
    z_blocks = [corner_unit(k).array / k for k in sizes]
    return CounterexamplePair(
        schedule=schedule,
        c_op=BlockTridiagOperator.from_blocks(schedule, c_blocks, decay=bound),
        z_op=BlockTridiagOperator.from_blocks(schedule, z_blocks, decay=bound),
    )


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    level: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CounterexampleReport:
    clauses: tuple
    passed: bool


def verify_counterexample(pair, n_max=None, tol=1e-9, *, word_len=None, seed=0):
    """Check the four defining properties of a counterexample pair.

    Per level j <= n_max: (i) the scaled block commutator [C_j, Z_j] is
    nilpotent; (ii) for block size k >= 3, the unscaled power product
    A^(k-2) (AB - BA) has spectrum {1, -1, 0, ...} within ``tol`` (the
    unscaled form avoids the k^-k underflow of the scaled one); (iii) the
    corner pairs for j >= 2 are refuted by simultaneous_triangularize;
    (iv) the corner commutator has spectral radius exactly 0.0 (it is
    strictly lower triangular by construction).
    """
    sched = pair.schedule
    if n_max is None:
        n_max = _default_n_max(sched)
    if not 1 <= n_max <= sched.levels:
        raise ValueError(f"n_max {n_max} outside schedule range 1..{sched.levels}")
    sizes = sched.sizes
    if word_len is None:
        needed = [k - 2 for k in sizes[:n_max] if k >= 3]
        word_len = max(4, min(needed) if needed else 0)
    clauses = []
    for j in range(1, n_max + 1):
        cj = pair.c_op.diag_block(j).array
        zj = pair.z_op.diag_block(j).array
        ok = is_nilpotent(cj @ zj - zj @ cj)
        clauses.append(
            ClauseResult("block_commutator_nilpotent", j, ok, detail=f"block size {sizes[j - 1]}")
        )
    for j in range(1, n_max + 1):
        k = sizes[j - 1]
        if k < 3:
            continue
        a = pair.c_op.diag_block(j).array * k
        b = pair.z_op.diag_block(j).array * k
        val = np.linalg.matrix_power(a, k - 2) @ (a @ b - b @ a)
        target = np.zeros(k, dtype=np.complex128)
        target[0] = 1.0
        target[1] = -1.0
        dist = match_distance(eigenvalues(val), target)
        clauses.append(
            ClauseResult("unscaled_power_spectrum", j, dist <= tol, detail=f"match distance {dist:.3e}")
        )
    for j in range(2, n_max + 1):
        cert = simultaneous_triangularize(
            corner_compression(pair.c_op, j),
            corner_compression(pair.z_op, j),
            word_len=word_len,
            seed=seed,
        )
        detail = f"verdict {cert.verdict}"
        if cert.refuting_word is not None:
            detail += f", word {cert.refuting_word}"
        clauses.append(ClauseResult("corner_pair_refuted", j, cert.verdict == "refuted", detail=detail))
    for j in range(1, n_max + 1):
        cc = corner_compression(pair.c_op, j).array
        zc = corner_compression(pair.z_op, j).array
        radius = spectral_radius(cc @ zc - zc @ cc)
        clauses.append(
            ClauseResult("corner_commutator_radius_zero", j, radius == 0.0, detail=f"radius {radius!r}")
        )
    return CounterexampleReport(tuple(clauses), passed=all(c.passed for c in clauses))


def spectrum_union_check(blocks, tol=None):
    """Whether the spectrum of the block-diagonal assembly equals the union of block spectra.

    Both sides are compared as multisets through a minimum-cost pairing;
    ``tol`` defaults to 1e-8 times the largest block norm.
    """
    mats = [_as_array(b, square=True, name="block") for b in blocks]
    if not mats:
        raise ValueError("need at least one block")
    assembly = scipy.linalg.block_diag(*mats).astype(np.complex128)
    union = np.concatenate([eigenvalues(m) for m in mats])
    if tol is None:
        tol = 1e-8 * max(operator_norm(m) for m in mats)
    return bool(match_distance(eigenvalues(assembly), union) <= tol)


@dataclass(frozen=True)
class StrippedLevelRecord:
    level: int
    diag_max: float
    trace_abs: float
    max_word_radius: float
    worst_word: str
    passed: bool


@dataclass(frozen=True)
class StrippedChecksReport:
    levels: tuple
    word_len: int
    passed: bool


def stripped_pair_checks(k1, k2, n_max=None, tol=1e-9, word_len=4):
    """Checks on the lower parts Q1, Q2 of two operators sharing a schedule.

    Per corner level n <= n_max: every monomial word value
    w(Q1''_n, Q2''_n) [Q1''_n, Q2''_n] with at most ``word_len`` letters
    has spectral radius <= tol, and the diagonal and trace of the corner
    commutator vanish exactly (no tolerance; entries below the block
    subdiagonal are structural zeros, so products never touch the
    diagonal).
    """
    if k1.schedule != k2.schedule:
        raise ValueError("schedule mismatch: operators must share a schedule")
    depth = min(k1.levels, k2.levels)
    if n_max is None:
        n_max = min(_default_n_max(k1.schedule), depth)
    if not 1 <= n_max <= depth:
        raise ValueError(f"n_max {n_max} outside materializable range 1..{depth}")
    if word_len < 0:
        raise ValueError("word_len must be nonnegative")
    _, q1 = split(k1)
    _, q2 = split(k2)
    records = []
    for n in range(1, n_max + 1):
        a = corner_compression(q1, n).array
        b = corner_compression(q2, n).array
        comm = a @ b - b @ a
        diag_max = float(np.abs(np.diag(comm)).max())
        trace_abs = float(abs(np.trace(comm)))
        worst_radius = 0.0
        worst_word = ""
        for word, prod in _iter_word_products(a, b, word_len):
            radius = spectral_radius(prod @ comm)
            if radius > worst_radius:
                worst_radius = radius
                worst_word = word
        passed = worst_radius <= tol and diag_max == 0.0 and trace_abs == 0.0
        records.append(
            StrippedLevelRecord(
                level=n, diag_max=diag_max, trace_abs=trace_abs,
                max_word_radius=worst_radius, worst_word=worst_word, passed=passed,
            )
        )
    return StrippedChecksReport(
        levels=tuple(records), word_len=word_len, passed=all(r.passed for r in records)
    )

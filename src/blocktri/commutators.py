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

from .linalg import (
    _as_array,
    _block_diag,
    _norm_excess,
    corner_unit,
    eigenvalues,
    is_nilpotent,
    match_distance,
    operator_norm,
    shift_matrix,
    spectral_radius,
)
from .operators import BlockSchedule, BlockTridiagOperator, _checked_levels, corner_compression
from .triangular import _word_refutation, _word_witness, simultaneous_triangularize

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
    scale: it covers the materialized corners, never the infinite
    operator itself; ``note`` says what, if anything, is known past them.
    """

    levels: tuple
    verdict: str
    tol: float
    first_refuted_level: int | None = None
    note: str = ""


def _corner_commutator(a, b, level):
    """[a, b] = ab - ba of the level's corners; FloatingPointError when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        comm = a @ b - b @ a
    if not np.isfinite(comm).all():
        raise FloatingPointError(f"corner commutator at level {level} overflows double precision")
    return comm


def _trace_detail(k, trace, bound):
    return f"|tr M^{k}| {trace:.3e} > bound {bound:.3e}, M = w(a, b)[a, b]"


_ROUTE_DETAIL = {
    "schur-flag": "whole corner, Schur-flag route",
    "deflation": "whole corner, deflation",
    None: "whole corner, undecided by Schur flag, words and deflation",
}


def _route_detail(cert):
    if cert.route == "words":
        return "whole corner, word search: " + _trace_detail(
            cert.trace_power, cert.trace, cert.trace_bound
        )
    return _ROUTE_DETAIL[cert.route]


def _pinned_radius(u, comm, tol):
    """Largest diagonal modulus of u* comm u, and "certified" when within tol * (1 + ||comm||_2)."""
    radius = float(np.abs(np.diag(u.conj().T @ comm @ u)).max())
    return radius, "certified" if _norm_excess(radius, tol, (comm,)) is None else "inconclusive"


def _record_from_certificate(n, cert, comm, norm, tol):
    detail = _route_detail(cert)
    if cert.verdict == "triangularizable":
        radius, status = _pinned_radius(cert.witness_unitary, comm, tol)
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
    triangularizes the corner.  The first refuted block whose word
    re-verifies on the corner refutes it, whatever the blocks before it
    (McCoy).  Returns a LevelRecord, or None to make the caller fall back
    to the whole corner (no block word refutes the corner, and some block
    is not triangularizable).
    """
    units = []
    for j in range(1, n + 1):
        cert = block_certs.get(j)
        if cert is None:
            cert = simultaneous_triangularize(c.diag_block(j), z.diag_block(j), **tri_opts)
            block_certs[j] = cert
        if cert.verdict == "triangularizable":
            units.append(cert.witness_unitary)
        elif cert.verdict == "refuted":
            witness = _word_witness(cert.refuting_word, [cc], [zc])
            if witness is not None:
                return LevelRecord(
                    level=n, radius=spectral_radius(comm), norm=norm, status="refuted",
                    refuting_word=cert.refuting_word,
                    detail=f"diagonal block pair {j} refuted; word re-verified on the corner: "
                    + _trace_detail(*witness),
                )
    if len(units) < n:
        return None
    radius, status = _pinned_radius(_block_diag(units), comm, tol)
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
    zero lower couplings through a level, per-block certificates decide
    it: their witnesses combine, or a block word that re-verifies on the
    corner refutes it.  Only when neither happens is the whole corner
    triangularized; at level 1 the corner is block 1, searched once.

    ``n_max`` defaults to the operators' whole depth.  Raises
    ``FloatingPointError`` when a corner commutator overflows.
    """
    if c.schedule != z.schedule:
        raise ValueError("schedule mismatch: operators must share a schedule")
    n_max = _checked_levels(c.levels, n_max, "n_max")
    tri_opts = {"tol": tri_tol, "word_len": word_len, "seed": seed}
    block_certs = {}
    records = []
    first_refuted = None
    for n in range(1, n_max + 1):
        cc = corner_compression(c, n)
        zc = corner_compression(z, n)
        comm = _corner_commutator(cc, zc, n)
        norm = operator_norm(comm)
        record = None
        if c.lower_zero_through(n) and z.lower_zero_through(n):
            record = _block_fast_path(c, z, n, cc, zc, comm, norm, tol, tri_opts, block_certs)
        if record is None:
            # level 1's corner is diagonal block 1, which the fast path has already searched
            cert = block_certs[1] if n == 1 else simultaneous_triangularize(cc, zc, **tri_opts)
            record = _record_from_certificate(n, cert, comm, norm, tol)
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
        note = f"corner-level certificate: it covers corners 1..{n_max} and nothing beyond level {n_max}"
    else:
        verdict = "not_certified"
        note = "some corner levels were inconclusive"
    return SpectralReport(
        levels=tuple(records), verdict=verdict, tol=tol,
        first_refuted_level=first_refuted, note=note,
    )


@dataclass(frozen=True)
class CounterexamplePair:
    """Block-diagonal pair with blocks shift(k)/k and corner_unit(k)/k.

    ``decay[n-1]`` is the declared bound 1/k_n on both level-n blocks.
    """

    schedule: BlockSchedule
    c_op: BlockTridiagOperator
    z_op: BlockTridiagOperator
    decay: tuple


def build_counterexample(schedule):
    """Blockwise scaled shifts: C_n = shift(k_n)/k_n, Z_n = corner_unit(k_n)/k_n.

    Both operators are block-diagonal under ``schedule`` (all couplings
    zero) with declared decay bound 1/k_n, attained for k_n >= 2 (the
    1x1 generators are zero, so those levels undershoot).
    """
    sizes = schedule.sizes
    c_blocks = [shift_matrix(k) / k for k in sizes]
    z_blocks = [corner_unit(k) / k for k in sizes]
    return CounterexamplePair(
        schedule=schedule,
        c_op=BlockTridiagOperator(schedule, c_blocks),
        z_op=BlockTridiagOperator(schedule, z_blocks),
        decay=tuple(1.0 / k for k in sizes),
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


def _power_product_spectrum(c, z):
    """Eigenvalues of A^(k-2) (AB - BA), A = k c and B = k z the unscaled k x k generators, k >= 3.

    When A is exactly the shift, A^(k-2) moves rows k - 2 and k - 1 of
    AB - BA to rows 0 and 1 and drops the others, and AB - BA has entries
    B[i + 1, j] - B[i, j - 1] (terms outside the block are 0).  So the
    product is [[X, *], [0, 0]] with X its leading 2 x 2 block, and its
    eigenvalues are those of X and k - 2 zeros (Horn & Johnson, *Matrix
    Analysis*, Thm. 1.3.22).  X takes three entries of B, with the values
    the dense products give.  Only when k c is not exactly the
    shift (fl(1/k) k rounds below 1 at k = 49, 98, 103, ...) are the
    products dense, with a matrix power.
    """
    k = c.shape[0]
    if np.count_nonzero(c) == k - 1 and (np.diagonal(c, 1) * k == 1.0).all():
        b = z[k - 2 :, :2] * k  # rows k - 2, k - 1 and columns 0, 1 of B
        x = np.array([[b[1, 0], b[1, 1] - b[0, 0]], [0.0, -b[1, 0]]])
        return np.concatenate([eigenvalues(x), np.zeros(k - 2)])
    a = c * k
    b = z * k
    return eigenvalues(np.linalg.matrix_power(a, k - 2) @ (a @ b - b @ a))


def verify_counterexample(pair, n_max=None, tol=1e-9, *, word_len=None, seed=0):
    """Check the four defining properties of a counterexample pair.

    Per level j <= n_max: (i) the scaled block commutator [C_j, Z_j] is
    structurally nilpotent (``is_nilpotent`` is True: its nonzero pattern
    has no cycle); (ii) for block size k >= 3, the unscaled power product
    A^(k-2) (AB - BA) has spectrum {1, -1, 0, ...} within ``tol`` (the
    unscaled form avoids the k^-k underflow of the scaled one); (iii) the
    corner pairs for j >= 2 are refuted by a word; (iv) the corner
    commutator has spectral radius exactly 0.0 (it is strictly lower
    triangular by construction).

    The pair must be block diagonal through level n_max (``ValueError``
    otherwise), so every corner quantity is a sum or a union of block
    quantities, and only the diagonal block pairs are formed:

    - (i) forms each block commutator, two dense k x k products;
    - (ii) takes the product's spectrum from a 2 x 2 matrix
      (``_power_product_spectrum``), O(k) after an O(k^2) check that k C_j
      is exactly the shift;
    - (iii) refutes the j-th corner from its diagonal block pairs: a
      corner is refuted when a block word re-verifies on it (McCoy).  Each
      block pair is searched once, by the word search
      ``simultaneous_triangularize`` runs after its Schur flag, with the
      same ``word_len`` and ``seed``; blocks go smallest first, ties by
      level.  The first block word whose trace test refutes the whole
      corner is the clause's word; that test is taken block by block
      (``_word_witness``), O(k^3) per block.  A witness can never refute,
      so no Schur form is taken;
    - (iv) reads the corner commutator's spectrum as the union of the block
      commutators' spectra from (i).
    """
    sched = pair.schedule
    n_max = _checked_levels(sched.levels, n_max, "n_max")
    for op in (pair.c_op, pair.z_op):
        if any(op.upper_block(m).any() or op.lower_block(m).any() for m in range(1, n_max)):
            raise ValueError(f"the pair must be block diagonal through level {n_max}")
    sizes = sched.sizes
    if word_len is None:
        needed = [k - 2 for k in sizes[:n_max] if k >= 3]
        word_len = max(4, min(needed) if needed else 0)
    c_blocks = [pair.c_op.diag_block(j) for j in range(1, n_max + 1)]
    z_blocks = [pair.z_op.diag_block(j) for j in range(1, n_max + 1)]
    comms = [c @ z - z @ c for c, z in zip(c_blocks, z_blocks)]
    clauses = [
        ClauseResult("block_commutator_nilpotent", j, is_nilpotent(comm) is True, detail=f"block size {k}")
        for j, (comm, k) in enumerate(zip(comms, sizes), start=1)
    ]
    for j, (c, z) in enumerate(zip(c_blocks, z_blocks), start=1):
        k = sizes[j - 1]
        if k < 3:
            continue
        target = np.zeros(k, dtype=np.complex128)
        target[0] = 1.0
        target[1] = -1.0
        dist = match_distance(_power_product_spectrum(c, z), target)
        clauses.append(
            ClauseResult(
                "unscaled_power_spectrum", j, _norm_excess(dist, tol) is None, detail=f"match distance {dist:.3e}"
            )
        )
    block_words = {}

    def block_word(m):
        if m not in block_words:
            cert = _word_refutation(c_blocks[m - 1], z_blocks[m - 1], word_len, seed)
            block_words[m] = None if cert is None else cert.refuting_word
        return block_words[m]

    def corner_word(j):
        # smallest blocks first: their searches are cheapest, and end soonest
        for m in sorted(range(1, j + 1), key=lambda m: (sizes[m - 1], m)):
            word = block_word(m)
            if word is not None and _word_witness(word, c_blocks[:j], z_blocks[:j]) is not None:
                return word
        return None

    for j in range(2, n_max + 1):
        word = corner_word(j)
        detail = "no refuting word" if word is None else f"verdict refuted, word {word}"
        clauses.append(ClauseResult("corner_pair_refuted", j, word is not None, detail=detail))
    radius = 0.0
    for j, comm in enumerate(comms, start=1):
        radius = max(radius, spectral_radius(comm))
        clauses.append(
            ClauseResult("corner_commutator_radius_zero", j, radius == 0.0, detail=f"radius {radius!r}")
        )
    return CounterexampleReport(tuple(clauses), passed=all(c.passed for c in clauses))


def spectrum_union_check(blocks):
    """Whether the spectrum of the block-diagonal assembly equals the union of block spectra.

    Both sides are compared as multisets by their exact bottleneck
    distance (``match_distance``): the check passes when some pairing
    moves no eigenvalue by more than 1e-8 times the largest block norm.
    """
    mats = [_as_array(b, square=True, name="block") for b in blocks]
    if not mats:
        raise ValueError("need at least one block")
    assembly = _block_diag(mats)
    union = np.concatenate([eigenvalues(m) for m in mats])
    return _norm_excess(match_distance(eigenvalues(assembly), union), 1e-8, mats, offset=0.0) is None


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
    commutator vanish exactly (no tolerance).  ``word_len`` names the word
    lengths the report covers.

    The checks hold by structure, so no product is formed.  Q1'' and Q2''
    live on the first block subdiagonal, so a word of L letters lives on
    the L-th, [Q1'', Q2''] on the second and w(Q1'', Q2'') [Q1'', Q2''] on
    the (L + 2)-th.  Every such matrix is strictly lower triangular: its
    diagonal is exactly zero, so is its trace, the sum of that diagonal,
    and so is its spectral radius, since its eigenvalues are its diagonal
    entries.  No word beats another, so ``worst_word`` is the empty one.
    """
    if k1.schedule != k2.schedule:
        raise ValueError("schedule mismatch: operators must share a schedule")
    n_max = _checked_levels(k1.levels, n_max, "n_max")
    if word_len < 0:
        raise ValueError("word_len must be nonnegative")
    diag_max = trace_abs = worst_radius = 0.0
    worst_word = ""
    passed = worst_radius <= tol and diag_max == 0.0 and trace_abs == 0.0
    records = tuple(
        StrippedLevelRecord(
            level=n, diag_max=diag_max, trace_abs=trace_abs,
            max_word_radius=worst_radius, worst_word=worst_word, passed=passed,
        )
        for n in range(1, n_max + 1)
    )
    return StrippedChecksReport(levels=records, word_len=word_len, passed=passed)

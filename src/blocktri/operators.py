"""Block-tridiagonal operator model: schedules, immutable block operators,
corner compressions, splits, and decay reports.

An operator here is given by its blocks along a size schedule
(k_1, k_2, ...): diagonal blocks C_n (k_n x k_n), upper coupling blocks
A_n (k_n x k_{n+1}), lower coupling blocks B_n (k_{n+1} x k_n).  All
blocks are held explicitly as read-only ``complex128`` arrays, copied once
when the operator is built; an operator also declares a nonincreasing decay bound dominating its block
norms.  Dense corners are assembled from the blocks in one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import _as_array, _norm_excess, _read_only, operator_norm

__all__ = [
    "BlockSchedule",
    "BlockTridiagOperator",
    "DecayRow",
    "DecayReport",
    "make_schedule",
    "corner_compression",
    "split",
    "decay_report",
    "operator_from_matrix",
    "conjugate_blocks",
]

_PAIR_RATIO = 5  # saturated growth factor for two operators
_SINGLE_RATIO = 3  # saturated growth factor for one operator


def _pattern_sizes(ratio, levels):
    first_step = ratio - 1
    sizes = [1]
    for n in range(2, levels + 1):
        sizes.append(first_step * ratio ** (n - 2))
    return tuple(sizes)


def _level_of(schedule, size):
    """Zero-based schedule level of each of the indices 0..size-1."""
    return np.searchsorted(np.asarray(schedule.cumsums), np.arange(size), side="right")


def _off_band_max(arr, schedule):
    """Largest modulus of the entries of square ``arr`` outside the block-tridiagonal band."""
    level_of = _level_of(schedule, arr.shape[0])
    outside = np.abs(level_of[:, None] - level_of[None, :]) >= 2
    return float(np.abs(arr[outside]).max()) if outside.any() else 0.0


@dataclass(frozen=True)
class BlockSchedule:
    """Finite block-size schedule ``sizes`` with cumulative sums ``cumsums``.

    ``kind`` is "pair" (1, 4, 20, 100, ...), "single" (1, 2, 6, 18, ...) or
    "custom" (any positive sizes).
    """

    kind: str
    sizes: tuple
    cumsums: tuple

    def __post_init__(self):
        if self.kind not in ("pair", "single", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.sizes:
            raise ValueError("schedule needs at least one level")
        if any((not isinstance(k, int)) or k < 1 for k in self.sizes):
            raise ValueError("block sizes must be positive integers")
        expected = tuple(itertools.accumulate(self.sizes))
        if self.cumsums != expected:
            raise ValueError("cumsums inconsistent with sizes")
        if self.kind == "pair" and self.sizes != _pattern_sizes(_PAIR_RATIO, self.levels):
            raise ValueError("sizes do not follow the pair pattern 1, 4*5^(n-2)")
        if self.kind == "single" and self.sizes != _pattern_sizes(_SINGLE_RATIO, self.levels):
            raise ValueError("sizes do not follow the single pattern 1, 2*3^(n-2)")

    @property
    def levels(self):
        return len(self.sizes)

    def size(self, n):
        self._check_level(n)
        return self.sizes[n - 1]

    def size_through(self, n):
        """Dimension K_n of the corner through level n."""
        self._check_level(n)
        return self.cumsums[n - 1]

    def block_bounds(self, n):
        """Half-open index range (start, stop) of level n."""
        self._check_level(n)
        start = self.cumsums[n - 2] if n > 1 else 0
        return start, self.cumsums[n - 1]

    def truncated(self, levels):
        if not 1 <= levels <= self.levels:
            raise ValueError(f"cannot truncate {self.levels}-level schedule to {levels}")
        return BlockSchedule(self.kind, self.sizes[:levels], self.cumsums[:levels])

    def _check_level(self, n):
        if not 1 <= n <= self.levels:
            raise ValueError(f"level {n} outside schedule range 1..{self.levels}")


def make_schedule(kind, levels=None, *, sizes=None):
    """Build a BlockSchedule.

    ``kind="pair"`` or ``"single"`` take a positive ``levels`` count and
    produce the saturated-growth patterns (1, 4, 20, ...) resp.
    (1, 2, 6, ...).  ``kind="custom"`` requires explicit ``sizes``.
    """
    if kind == "custom":
        if sizes is None:
            raise ValueError("custom kind requires explicit sizes")
        sizes = tuple(int(k) for k in sizes)
    else:
        if sizes is not None:
            raise ValueError(f"{kind!r} kind derives its sizes; do not pass sizes")
        if levels is None or levels < 1:
            raise ValueError("levels must be a positive integer")
        ratio = _PAIR_RATIO if kind == "pair" else _SINGLE_RATIO
        sizes = _pattern_sizes(ratio, levels)
    return BlockSchedule(kind, sizes, tuple(itertools.accumulate(sizes)))


def _level_slices(schedule):
    """Index slice of each level of ``schedule``, in order."""
    return [slice(*schedule.block_bounds(n)) for n in range(1, schedule.levels + 1)]


def _assemble(schedule, diag, upper, lower):
    """Dense matrix over ``schedule`` from block sequences.

    A ``None`` sequence or block stands for zeros; sequences may run past
    the schedule's depth, the excess is ignored.  Entries outside the band
    are exact zeros.
    """
    size = schedule.cumsums[-1]
    out = np.zeros((size, size), dtype=np.complex128)
    lev = _level_slices(schedule)
    for rows, cols, blocks in ((lev, lev, diag), (lev, lev[1:], upper), (lev[1:], lev, lower)):
        for r, c, block in zip(rows, cols, blocks or ()):
            if block is not None:
                out[r, c] = block
    return out


def _blocks(kind, blocks, shapes):
    """One checked, read-only ``complex128`` copy per block; zeros for ``None``."""
    if blocks is None:
        blocks = [np.zeros(shape) for shape in shapes]
    if len(blocks) != len(shapes):
        raise ValueError(f"need {len(shapes)} {kind} blocks, got {len(blocks)}")
    out = tuple(_read_only(_as_array(np.array(b, dtype=np.complex128, order="C"))) for b in blocks)
    for n, (block, shape) in enumerate(zip(out, shapes), 1):
        if block.shape != shape:
            raise ValueError(f"{kind} block {n} has shape {block.shape}, expected {shape}")
    return out


class BlockTridiagOperator:
    """Immutable block-tridiagonal operator held as explicit blocks.

    Parameters
    ----------
    schedule : BlockSchedule
    diag : sequence of ``schedule.levels`` blocks C_n, each k_n x k_n
    upper, lower : sequences of ``schedule.levels - 1`` blocks, optional
        A_n (k_n x k_{n+1}) and B_n (k_{n+1} x k_n); ``None`` gives zero
        blocks (as does ``diag=None``).
    decay : callable, level -> float, optional
        Declared nonincreasing bound with max(||C_n||,||A_n||,||B_n||)
        <= decay(n).  Violations are surfaced by ``decay_report``, not
        raised here.  The default is the suffix maximum of the level
        norms, 0.0 past the last level, computed on first read.

    Every block is copied once, here, into a read-only ``complex128``
    array, checked finite and of its shape, so later writes to the
    caller's arrays cannot reach the operator.
    """

    def __init__(self, schedule, diag, upper=None, lower=None, decay=None):
        sizes = schedule.sizes
        couplings = list(zip(sizes, sizes[1:]))
        self.schedule = schedule
        self._diag = _blocks("diag", diag, [(k, k) for k in sizes])
        self._upper = _blocks("upper", upper, couplings)
        self._lower = _blocks("lower", lower, [(b, a) for a, b in couplings])
        self._decay = decay
        self._suffix = None

    @property
    def levels(self):
        return self.schedule.levels

    def diag_block(self, n):
        self._check_level(n)
        return self._diag[n - 1]

    def upper_block(self, n):
        self._check_level(n, coupling=True)
        return self._upper[n - 1]

    def lower_block(self, n):
        self._check_level(n, coupling=True)
        return self._lower[n - 1]

    def decay_bound(self, n):
        if n < 1:
            raise ValueError("level must be positive")
        if self._decay is not None:
            bound = float(self._decay(n))
        else:
            if self._suffix is None:
                # most callers never read the default bound, so its SVDs wait until one
                # does; two racing first reads both store the same tuple
                norms = [operator_norm(c) for c in self._diag]
                for j, (a, b) in enumerate(zip(self._upper, self._lower)):
                    norms[j] = max(norms[j], operator_norm(a), operator_norm(b))
                self._suffix = tuple(itertools.accumulate(reversed(norms), max))[::-1]
            bound = self._suffix[n - 1] if n <= self.levels else 0.0
        if bound < 0:
            raise ValueError(f"decay bound at level {n} is negative")
        return bound

    def _check_level(self, n, coupling=False):
        top = self.levels - 1 if coupling else self.levels
        what = "coupling level" if coupling else "level"
        if not 1 <= n <= top:
            raise ValueError(f"{what} {n} outside operator range 1..{top}")

    def lower_zero_through(self, n):
        """True when lower blocks B_1..B_{n-1} are all exactly zero."""
        return not any(b.any() for b in self._lower[: n - 1])


def corner_compression(op, n):
    """Assemble the leading K_n x K_n corner of ``op`` as a dense matrix.

    Entries outside the block-tridiagonal band are exact zeros by
    construction.
    """
    if not 1 <= n <= op.levels:
        raise ValueError(f"corner level {n} outside operator range 1..{op.levels}")
    return _assemble(op.schedule.truncated(n), op._diag, op._upper, op._lower)


def split(op):
    """Split ``op`` into its diagonal+upper part S and lower part Q.

    Blocks are routed, never recomputed, so S + Q reproduces the corners
    of ``op`` with zero floating error.  Both parts inherit the original
    decay bound (a valid, possibly loose, bound).
    """
    s = BlockTridiagOperator(op.schedule, op._diag, op._upper, decay=op.decay_bound)
    q = BlockTridiagOperator(op.schedule, None, lower=op._lower, decay=op.decay_bound)
    return s, q


@dataclass(frozen=True)
class DecayRow:
    level: int
    diag_norm: float
    upper_norm: float | None
    lower_norm: float | None
    bound: float
    within_bound: bool


@dataclass(frozen=True)
class DecayReport:
    rows: tuple
    violations: tuple
    passed: bool


def decay_report(op, n_max):
    """Per-level block norms against the declared decay bound.

    A block norm exceeding its bound is flagged in ``violations`` (and
    flips ``passed``) rather than raised, so callers can inspect the
    offending levels.
    """
    if not 1 <= n_max <= op.levels:
        raise ValueError(f"n_max {n_max} outside operator range 1..{op.levels}")
    rows = []
    violations = []
    for n in range(1, n_max + 1):
        dn = operator_norm(op.diag_block(n))
        un = ln = None
        if n < op.levels:
            un = operator_norm(op.upper_block(n))
            ln = operator_norm(op.lower_block(n))
        bound = op.decay_bound(n)
        worst = max(dn, un or 0.0, ln or 0.0)
        ok = worst <= bound
        if not ok:
            violations.append(n)
        rows.append(
            DecayRow(
                level=n,
                diag_norm=dn,
                upper_norm=un,
                lower_norm=ln,
                bound=bound,
                within_bound=ok,
            )
        )
    return DecayReport(rows=tuple(rows), violations=tuple(violations), passed=not violations)


def operator_from_matrix(m, schedule, *, band_tol=0.0, band_scale=()):
    """Cut a dense block-tridiagonal matrix into an operator's blocks.

    The matrix size must equal the schedule's total dimension.  Entries
    outside the band larger in modulus than ``band_tol`` times
    1 + the largest operator norm of the matrices in ``band_scale`` (an
    absolute ``band_tol`` when it is empty) raise ``ValueError``; smaller
    leakage is dropped (the operator represents the banded projection).
    """
    arr = _as_array(m, square=True)
    size = arr.shape[0]
    if schedule.cumsums[-1] != size:
        raise ValueError(
            f"schedule covers {schedule.cumsums[-1]} dims, matrix has {size}"
        )
    worst = _off_band_max(arr, schedule)
    if _norm_excess(worst, band_tol, band_scale) is not None:
        raise ValueError(f"matrix has off-band mass {worst:.3e} above band_tol")
    lev = _level_slices(schedule)
    return BlockTridiagOperator(
        schedule,
        [arr[r, r] for r in lev],
        [arr[r, c] for r, c in zip(lev, lev[1:])],
        [arr[c, r] for r, c in zip(lev, lev[1:])],
    )


def conjugate_blocks(op, unitaries):
    """Conjugate by a level-respecting block-diagonal unitary.

    ``unitaries(n)`` supplies the k_n x k_n block W_n; the result has
    blocks W_n* C_n W_n, W_n* A_n W_{n+1}, W_{n+1}* B_n W_n.  The decay
    bound carries over unchanged (norms are unitarily invariant).
    """
    units = []
    for n, k in enumerate(op.schedule.sizes, 1):
        w = _as_array(unitaries(n), square=True)
        if w.shape[0] != k:
            raise ValueError(f"unitary {n} has size {w.shape[0]}, expected {k}")
        units.append(w)
    pairs = list(zip(units, units[1:]))
    return BlockTridiagOperator(
        op.schedule,
        [w.conj().T @ c @ w for w, c in zip(units, op._diag)],
        [w.conj().T @ a @ v for (w, v), a in zip(pairs, op._upper)],
        [v.conj().T @ b @ w for (w, v), b in zip(pairs, op._lower)],
        decay=op.decay_bound,
    )

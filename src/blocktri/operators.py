"""Block-tridiagonal operator model: schedules, immutable block operators
and corner compressions.

An operator here is given by its blocks along a size schedule
(k_1, k_2, ...): diagonal blocks C_n (k_n x k_n), upper coupling blocks
A_n (k_n x k_{n+1}), lower coupling blocks B_n (k_{n+1} x k_n).  All
blocks are held explicitly as read-only ``complex128`` arrays, copied once
when the operator is built, and an operator is nothing but those blocks.
Dense corners are assembled from the blocks in one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import _as_array, _norm_excess, _read_only

__all__ = [
    "BlockSchedule",
    "BlockTridiagOperator",
    "make_schedule",
    "corner_compression",
    "operator_from_matrix",
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

    Every block is copied once, here, into a read-only ``complex128``
    array, checked finite and of its shape, so later writes to the
    caller's arrays cannot reach the operator.  The blocks are all it
    holds: a norm or a bound is computed by the caller that needs it.
    """

    def __init__(self, schedule, diag, upper=None, lower=None):
        sizes = schedule.sizes
        couplings = list(zip(sizes, sizes[1:]))
        self.schedule = schedule
        self._diag = _blocks("diag", diag, [(k, k) for k in sizes])
        self._upper = _blocks("upper", upper, couplings)
        self._lower = _blocks("lower", lower, [(b, a) for a, b in couplings])

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


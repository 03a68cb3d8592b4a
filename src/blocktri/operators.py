"""Block-tridiagonal operator model: schedules, lazy block providers,
corner compressions, splits, and decay reports.

An operator here is given by its blocks along a size schedule
(k_1, k_2, ...): diagonal blocks C_n (k_n x k_n), upper coupling blocks
A_n (k_n x k_{n+1}), lower coupling blocks B_n (k_{n+1} x k_n).  Blocks
materialize lazily and are memoized; a provider also declares a
nonincreasing decay bound dominating its block norms.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import ComplexMatrix, _as_array, operator_norm

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


class BlockTridiagOperator:
    """Lazy, memoized block provider for a block-tridiagonal operator.

    Parameters
    ----------
    schedule : BlockSchedule
    diag, upper, lower : callables, level -> array-like
        Block factories; ``diag(n)`` must return k_n x k_n, ``upper(n)``
        k_n x k_{n+1}, ``lower(n)`` k_{n+1} x k_n.  Shapes are validated
        on materialization.
    decay : callable, level -> float
        Declared nonincreasing bound with max(||C_n||,||A_n||,||B_n||)
        <= decay(n).  Violations are surfaced by ``decay_report``, not
        raised here.
    levels : int, optional
        Materializable depth, defaults to the schedule length.

    Materialization is memoized behind a lock, so concurrent requests for
    distinct (or identical) levels are safe.
    """

    def __init__(self, schedule, diag, upper, lower, decay, levels=None):
        if levels is None:
            levels = schedule.levels
        if not 1 <= levels <= schedule.levels:
            raise ValueError("levels must lie within the schedule range")
        self.schedule = schedule
        self.levels = levels
        self._diag = diag
        self._upper = upper
        self._lower = lower
        self._decay = decay
        self._cache = {}
        self._lock = threading.Lock()

    # -- factories ---------------------------------------------------------

    @classmethod
    def from_blocks(cls, schedule, diag_blocks, upper_blocks=None, lower_blocks=None, decay=None):
        """Provider over explicit block lists (missing couplings are zero)."""
        levels = schedule.levels
        if len(diag_blocks) != levels:
            raise ValueError(f"need {levels} diagonal blocks, got {len(diag_blocks)}")
        diag_blocks = [_as_array(b) for b in diag_blocks]
        upper_blocks = None if upper_blocks is None else [_as_array(b) for b in upper_blocks]
        lower_blocks = None if lower_blocks is None else [_as_array(b) for b in lower_blocks]
        for name, blocks in (("upper", upper_blocks), ("lower", lower_blocks)):
            if blocks is not None and len(blocks) != levels - 1:
                raise ValueError(f"need {levels - 1} {name} blocks, got {len(blocks)}")

        def diag(n):
            return diag_blocks[n - 1]

        def upper(n):
            if upper_blocks is None:
                return np.zeros((schedule.size(n), schedule.size(n + 1)))
            return upper_blocks[n - 1]

        def lower(n):
            if lower_blocks is None:
                return np.zeros((schedule.size(n + 1), schedule.size(n)))
            return lower_blocks[n - 1]

        if decay is None:
            # the default bound is the suffix maximum of the level norms,
            # computed on first use: most callers never read it
            @functools.cache
            def suffix():
                level_norms = []
                for n in range(1, levels + 1):
                    worst = operator_norm(diag_blocks[n - 1])
                    if n < levels:
                        if upper_blocks is not None:
                            worst = max(worst, operator_norm(upper_blocks[n - 1]))
                        if lower_blocks is not None:
                            worst = max(worst, operator_norm(lower_blocks[n - 1]))
                    level_norms.append(worst)
                return tuple(itertools.accumulate(reversed(level_norms), max))[::-1]

            def decay(n):
                bounds = suffix()
                return bounds[n - 1] if n <= len(bounds) else 0.0

        return cls(schedule, diag, upper, lower, decay, levels=levels)

    # -- block access ------------------------------------------------------

    def _materialize(self, kind, n, factory, shape):
        key = (kind, n)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        block = ComplexMatrix(factory(n))
        if block.shape != shape:
            raise ValueError(
                f"{kind} block {n} has shape {block.shape}, expected {shape}"
            )
        with self._lock:
            return self._cache.setdefault(key, block)

    def diag_block(self, n):
        self._check_level(n)
        k = self.schedule.size(n)
        return self._materialize("diag", n, self._diag, (k, k))

    def upper_block(self, n):
        self._check_level(n, coupling=True)
        shape = (self.schedule.size(n), self.schedule.size(n + 1))
        return self._materialize("upper", n, self._upper, shape)

    def lower_block(self, n):
        self._check_level(n, coupling=True)
        shape = (self.schedule.size(n + 1), self.schedule.size(n))
        return self._materialize("lower", n, self._lower, shape)

    def decay_bound(self, n):
        if n < 1:
            raise ValueError("level must be positive")
        bound = float(self._decay(n))
        if bound < 0:
            raise ValueError(f"decay bound at level {n} is negative")
        return bound

    def _check_level(self, n, coupling=False):
        top = self.levels - 1 if coupling else self.levels
        what = "coupling level" if coupling else "level"
        if not 1 <= n <= top:
            raise ValueError(f"{what} {n} outside provider range 1..{top}")

    # -- structure predicates ----------------------------------------------

    def lower_zero_through(self, n):
        """True when lower blocks B_1..B_{n-1} are all exactly zero."""
        return all(
            not self.lower_block(j).array.any() for j in range(1, min(n, self.levels))
        )


def corner_compression(op, n):
    """Assemble the leading K_n x K_n corner of ``op`` as a dense matrix.

    Entries outside the block-tridiagonal band are exact zeros by
    construction.
    """
    if not 1 <= n <= op.levels:
        raise ValueError(f"corner level {n} outside provider range 1..{op.levels}")
    sched = op.schedule
    size = sched.size_through(n)
    out = np.zeros((size, size), dtype=np.complex128)
    for j in range(1, n + 1):
        lo, hi = sched.block_bounds(j)
        out[lo:hi, lo:hi] = op.diag_block(j).array
    for j in range(1, n):
        lo, hi = sched.block_bounds(j)
        lo2, hi2 = sched.block_bounds(j + 1)
        out[lo:hi, lo2:hi2] = op.upper_block(j).array
        out[lo2:hi2, lo:hi] = op.lower_block(j).array
    return ComplexMatrix(out)


def split(op):
    """Split ``op`` into its diagonal+upper part S and lower part Q.

    Blocks are routed, never recomputed, so S + Q reproduces the corners
    of ``op`` with zero floating error.  Both parts inherit the original
    decay bound (a valid, possibly loose, bound).
    """
    sched = op.schedule

    def zero_upper(n):
        return np.zeros((sched.size(n), sched.size(n + 1)))

    def zero_lower(n):
        return np.zeros((sched.size(n + 1), sched.size(n)))

    def zero_diag(n):
        k = sched.size(n)
        return np.zeros((k, k))

    s = BlockTridiagOperator(
        sched,
        diag=lambda n: op.diag_block(n).array,
        upper=lambda n: op.upper_block(n).array,
        lower=zero_lower,
        decay=op.decay_bound,
        levels=op.levels,
    )
    q = BlockTridiagOperator(
        sched,
        diag=zero_diag,
        upper=zero_upper,
        lower=lambda n: op.lower_block(n).array,
        decay=op.decay_bound,
        levels=op.levels,
    )
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
        raise ValueError(f"n_max {n_max} outside provider range 1..{op.levels}")
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


def operator_from_matrix(m, schedule, *, band_tol=0.0):
    """Wrap a dense block-tridiagonal matrix as a provider.

    The matrix size must equal the schedule's total dimension.  Entries
    outside the band larger than ``band_tol`` in modulus raise
    ``ValueError``; smaller leakage is dropped (the provider represents
    the banded projection).
    """
    arr = _as_array(m, square=True)
    size = arr.shape[0]
    if schedule.cumsums[-1] != size:
        raise ValueError(
            f"schedule covers {schedule.cumsums[-1]} dims, matrix has {size}"
        )
    levels = schedule.levels
    worst = _off_band_max(arr, schedule)
    if worst > band_tol:
        raise ValueError(f"matrix has off-band mass {worst:.3e} above band_tol")

    diag_blocks = []
    upper_blocks = []
    lower_blocks = []
    for n in range(1, levels + 1):
        lo, hi = schedule.block_bounds(n)
        diag_blocks.append(arr[lo:hi, lo:hi].copy())
        if n < levels:
            lo2, hi2 = schedule.block_bounds(n + 1)
            upper_blocks.append(arr[lo:hi, lo2:hi2].copy())
            lower_blocks.append(arr[lo2:hi2, lo:hi].copy())
    return BlockTridiagOperator.from_blocks(schedule, diag_blocks, upper_blocks, lower_blocks)


def conjugate_blocks(op, unitaries):
    """Conjugate by a level-respecting block-diagonal unitary.

    ``unitaries(n)`` supplies the k_n x k_n block W_n; the result has
    blocks W_n* C_n W_n, W_n* A_n W_{n+1}, W_{n+1}* B_n W_n.  The decay
    bound carries over unchanged (norms are unitarily invariant).
    """

    def u(n):
        w = _as_array(unitaries(n), square=True)
        if w.shape[0] != op.schedule.size(n):
            raise ValueError(f"unitary {n} has size {w.shape[0]}, expected {op.schedule.size(n)}")
        return w

    return BlockTridiagOperator(
        op.schedule,
        diag=lambda n: u(n).conj().T @ op.diag_block(n).array @ u(n),
        upper=lambda n: u(n).conj().T @ op.upper_block(n).array @ u(n + 1),
        lower=lambda n: u(n + 1).conj().T @ op.lower_block(n).array @ u(n),
        decay=op.decay_bound,
        levels=op.levels,
    )

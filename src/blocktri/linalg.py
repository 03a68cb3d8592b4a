"""Dense complex linear algebra: norms, spectra, Schur forms, generators.

Matrices are ``complex128`` ndarrays.  Every public routine takes anything
``np.asarray`` accepts and validates it once, on entry, through
``_as_array`` (2-D, nonempty, finite); it returns floats, new ndarrays, or
a :class:`SchurForm` whose factors are read-only.  All routines are pure
functions, safe to call concurrently on shared inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack

__all__ = [
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
_EPS = float(np.finfo(np.float64).eps)


class SchurConvergenceError(RuntimeError):
    """Schur factorization failed to converge or missed its residual targets."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _as_array(m, square=False, name="matrix"):
    """Coerce input to a 2-D finite complex128 array, copying only to convert."""
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


def _read_only(a):
    """``a`` itself, made read-only: how results hand out the arrays they hold."""
    a.setflags(write=False)
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
    return float(_lapack.svdvals(arr)[0])


def _residual_norm(r):
    """||r||_F, the value every reported residual takes: an upper bound on ||r||_2.

    ||r||_2 <= ||r||_F <= sqrt(rank r) * ||r||_2 (Golub & Van Loan,
    *Matrix Computations*, section 2.3), at O(N^2) cost against an SVD's
    O(N^3).  It is BLAS ``nrm2`` of the raveled matrix, which rescales as
    it sums: it neither underflows nor overflows where the 2-norm does not
    (a 2-D ``np.linalg.norm`` gives 0.0 for entries of 1e-170 and
    overflows at 1e300).  No finiteness check.
    """
    return float(_lapack.nrm2(r.ravel()))


def _norm_excess(r, tol, scales=(), offset=1.0):
    """||r||_2, or the float given, when above tol * (offset + max ||s||_2 over scales); else None.

    ``r`` is a matrix, or a float that bounds its 2-norm from above: a
    reported residual (``_residual_norm``) or an exact value.  Since
    ||r||_2 <= ||r||_F and max |s_ij| <= ||s||_2 (Golub & Van Loan,
    *Matrix Computations*, section 2.3), the gate passes without an SVD
    when ||r||_F <= tol * (offset + max |s_ij|).  Only when that screen
    fails are the exact 2-norms taken and compared, so for a matrix the
    gate decides as one on exact 2-norms alone; the two can differ only
    where ||r||_2 lies within rounding of the bound.  A float is compared
    as given, so a gate on a reported residual decides on that bound.
    """
    given = isinstance(r, float)
    # no finiteness check: a nonfinite r fails the screen, and operator_norm raises on it
    screen = r if given else _residual_norm(r)
    peak = max((float(np.abs(s).max()) for s in scales), default=0.0)
    if screen <= tol * (offset + peak):
        return None
    value = r if given else operator_norm(r)
    norm = max((operator_norm(s) for s in scales), default=0.0)
    return value if value > tol * (offset + norm) else None


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


def _pow2_normalize(arr, out=None, top=None):
    """``arr`` times the power of two that puts its largest entry modulus in [1/2, 1).

    The scaling is exact (entries far below the largest may round into the
    subnormal range), so every later step sees the same bits whatever power
    of two the caller's data carried.  The zero matrix comes back unchanged.
    ``out=arr`` scales in place.  ``top``, when given, stands for the largest
    modulus: a diagonal block given its direct sum's comes back as that
    block of the normalized direct sum.
    """
    if top is None:
        top = float(np.abs(arr).max())
    if top == 0.0:
        return arr
    e = -math.frexp(top)[1]
    half = e // 2  # two factors: 2.0**e alone overflows beyond 2**1023
    out = np.multiply(arr, 2.0**half, out=out)
    out *= 2.0 ** (e - half)
    return out


def _structurally_nilpotent(arr):
    """Whether the digraph of the nonzero pattern (i -> j where arr[i, j] != 0) has no cycle.

    Such a matrix is a permuted strictly upper triangular one, so it is
    nilpotent exactly, whatever its entries.  Nodes with no edge in or out
    lie on no cycle and are dropped first; the other sinks are peeled one
    at a time (Kahn's order), and a node whose successors are all gone
    becomes one.
    """
    pattern = arr != 0
    live = pattern.any(axis=0) | pattern.any(axis=1)
    pattern = pattern[live][:, live]
    outdeg = pattern.sum(axis=1)
    sinks = list(np.flatnonzero(outdeg == 0))
    peeled = 0
    while sinks:
        into = pattern[:, sinks.pop()]
        peeled += 1
        outdeg -= into
        sinks.extend(np.flatnonzero(into & (outdeg == 0)))
    return peeled == len(pattern)


def _trace_tests(m, g, length, tol):
    """Traces |tr M^k| and the thresholds they must exceed, k = 1, 2, over a stack of products.

    ``m`` (shape (..., n, n)) holds computed values of exact products M of
    ``length`` word letters and a commutator, ``length + 2`` factors from
    operands whose entries have modulus at most 1; ``g`` holds the same
    products taken over the operands' entrywise moduli.  By Higham
    (*Accuracy and Stability of Numerical Algorithms*, 2002, section 3.5:
    |fl(AB) - AB| <= gamma_n |A||B|), |m - M| <= gamma g + phi entrywise with

        gamma = 4 (length + 3) n eps
        phi   = 4 (length + 3) n^(length + 3) eta

    where eps is the machine epsilon (the factor 4 covers complex
    arithmetic and the trace sums) and eta the smallest subnormal, which
    bounds the absolute error of one underflowing operation; phi carries
    those errors through the remaining factors.  Every nilpotent M has
    tr M = tr M^2 = 0, so a computed trace above

        bound_1 = gamma' tr g + 2 n phi
        bound_2 = 3 gamma' sum(g o g^T) + 3 phi sum(g) + 2 n^2 phi

    (gamma' = gamma + ``tol``, a relative margin) proves M is not
    nilpotent.  tr M^2 is taken as sum(m o m^T), row sums first, so every
    sum runs over n terms.  Returns (traces, bounds), each of shape (..., 2).
    """
    return _trace_bounds(_trace_sums(m, g), m.shape[-1], length, tol)


def _trace_sums(m, g):
    """(tr m, sum(m o m^T), tr g, sum(g o g^T), sum(g)) over a stack: the sums ``_trace_tests`` reads.

    Each is additive over the diagonal blocks of block-diagonal m and g.
    """
    return (
        np.trace(m, axis1=-2, axis2=-1),
        (m * np.swapaxes(m, -1, -2)).sum(axis=-1).sum(axis=-1),
        np.trace(g, axis1=-2, axis2=-1),
        (g * np.swapaxes(g, -1, -2)).sum(axis=-1).sum(axis=-1),
        g.sum(axis=-1).sum(axis=-1),
    )


def _trace_bounds(sums, n, length, tol):
    """``_trace_tests`` of n x n products, from their ``_trace_sums``.

    The rounding bound holds for every summation order, so the sums may be
    added up block by block (Higham, section 3.5).
    """
    tm, mm, tg, gg, sg = sums
    gamma = 4.0 * (length + 3) * n * _EPS + tol
    phi = 4.0 * (length + 3) * 2.0 ** min((length + 3) * math.log2(n) - 1074.0, 1023.0)
    b1 = gamma * tg + 2.0 * n * phi
    b2 = 3.0 * gamma * gg + 3.0 * phi * sg + 2.0 * n * n * phi
    return np.stack([np.abs(tm), np.abs(mm)], axis=-1), np.stack([b1, b2], axis=-1)


def is_nilpotent(a, tol=1e-8):
    """Nilpotency of ``a``, taken as exact data: True, False or None.

    True only from structure: the digraph of the nonzero pattern has no
    cycle, so ``a`` is a permuted strictly upper triangular matrix and
    a^n = 0 exactly.  False when a trace refutes: after an exact
    power-of-two scaling, |tr a| or |tr a^2| (both vanish for every
    nilpotent matrix) exceeds its rounding bound widened by the relative
    margin ``tol`` (``_trace_tests`` with no word letters).  None when
    neither holds: ``a`` may be nilpotent but dense, or not nilpotent with
    vanishing first two traces (a cyclic permutation).  None is falsy, so
    only True is a positive claim; test it with ``is True``.
    """
    arr = _as_array(a, square=True)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if _structurally_nilpotent(arr):
        return True
    m = _pow2_normalize(arr)
    with np.errstate(under="ignore"):
        traces, bounds = _trace_tests(m, np.abs(m), 0, tol)
    return False if (traces > bounds).any() else None


def shift_matrix(n):
    """n x n upper shift: ones on the superdiagonal, zero elsewhere."""
    if n < 1:
        raise ValueError("n must be positive")
    a = np.zeros((n, n), dtype=np.complex128)
    if n > 1:
        a[np.arange(n - 1), np.arange(1, n)] = 1.0
    return a


def corner_unit(n):
    """n x n matrix with a single 1 in the bottom-left corner."""
    if n < 1:
        raise ValueError("n must be positive")
    a = np.zeros((n, n), dtype=np.complex128)
    if n > 1:
        a[n - 1, 0] = 1.0
    return a


@dataclass(frozen=True)
class SchurForm:
    """Unitary/upper-triangular pair with ``unitary @ upper @ unitary* = input``; both read-only."""

    unitary: np.ndarray
    upper: np.ndarray


def _block_diag(blocks):
    """The complex128 direct sum of square blocks, in order along the diagonal."""
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size), dtype=np.complex128)
    start = 0
    for b in blocks:
        stop = start + b.shape[0]
        out[start:stop, start:stop] = b
        start = stop
    return out


def _reorder_schur(t, q, order):
    """Reorder the Schur pair (t, q) so that slot k holds old diagonal entry ``order[k]``.

    Each entry moves into place by LAPACK ``ztrexc`` (a chain of exact
    unitary swaps of adjacent diagonal entries, updating ``q`` alongside),
    so the whole reordering costs O(n^3).  Fortran-ordered ``complex128``
    inputs are reordered in place; others are copied first.  Returns the
    reordered (t, q); raises ``np.linalg.LinAlgError`` when ``ztrexc``
    reports failure.
    """
    t = np.asfortranarray(t, dtype=np.complex128)
    q = np.asfortranarray(q, dtype=np.complex128)
    pos = list(range(t.shape[0]))
    for slot, idx in enumerate(order):
        j = pos.index(idx)
        if j > slot:
            t, q, info = _lapack.ztrexc(t, q, j + 1, slot + 1, overwrite_a=1, overwrite_q=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"ztrexc failed with info {info}")
            pos.insert(slot, pos.pop(j))
    return t, q


def schur(a):
    """Complex Schur factorization ``a = Q T Q*`` with verified residuals.

    The triangular factor is reordered so its diagonal eigenvalues appear
    in nonincreasing modulus, ties broken by (real, imag).  Unitarity,
    triangularity of the raw factor and reconstruction must each stay
    within ``_SCHUR_TOL``, the last two relative to the norms of the
    factor and of ``a``.

    Raises ``SchurConvergenceError`` (with the offending residual) instead
    of returning an unverified factorization.
    """
    arr = _as_array(a, square=True)
    n = arr.shape[0]
    if n == 1 or _strict_lower_max(arr) == 0.0:
        # already upper triangular: take (I, a) so structural zeros survive
        t = np.array(arr, dtype=np.complex128, order="F")
        q = np.eye(n, dtype=np.complex128, order="F")
    else:
        try:
            t, q = _lapack.schur(arr)
        except np.linalg.LinAlgError as exc:
            raise SchurConvergenceError(f"QR iteration failed: {exc}") from exc
    if n > 1:
        # nonincreasing |.|, ties by (real, imag), then by position
        d = np.diag(t)
        target = sorted(range(n), key=lambda i: (-abs(d[i]), d[i].real, d[i].imag, i))
        try:
            t, q = _reorder_schur(t, q, target)
        except np.linalg.LinAlgError as exc:
            raise SchurConvergenceError(f"reordering failed: {exc}") from exc
    discarded = _strict_lower_max(t)
    t = np.triu(t)
    if _norm_excess(discarded, _SCHUR_TOL, (t,)) is not None:
        raise SchurConvergenceError(
            f"triangular factor residual {discarded:.3e} above tolerance", residual=discarded
        )
    unit_res = _norm_excess(q.conj().T @ q - np.eye(n), _SCHUR_TOL)
    if unit_res is not None:
        raise SchurConvergenceError(
            f"unitarity residual {unit_res:.3e} above tolerance", residual=unit_res
        )
    recon_res = _norm_excess(q @ t @ q.conj().T - arr, _SCHUR_TOL, (arr,), offset=0.0)
    if recon_res is not None:
        raise SchurConvergenceError(
            f"reconstruction residual {recon_res:.3e} above tolerance", residual=recon_res
        )
    return SchurForm(unitary=_read_only(q), upper=_read_only(t))


def _perfect_matching(adjacent):
    """Whether the bipartite graph of the true entries of square ``adjacent`` has a perfect matching.

    Kuhn's augmenting-path search (Kuhn 1955): a greedy pass matches each
    row to a free column where it can, then every row left over is matched
    by a depth-first search for an alternating path that ends at a free
    column.  A row with no such path proves that no perfect matching
    exists (Berge 1957).  The search keeps its own stack, so long paths
    cannot reach the recursion limit.
    """
    neighbours = [np.flatnonzero(row).tolist() for row in adjacent]
    owner = [-1] * adjacent.shape[1]
    left = []
    for row, cols in enumerate(neighbours):
        col = next((c for c in cols if owner[c] < 0), -1)
        if col < 0:
            left.append(row)
        else:
            owner[col] = row
    for root in left:
        seen = bytearray(len(owner))
        rows, cols, stack = [root], [], [iter(neighbours[root])]
        while stack:
            col = next((c for c in stack[-1] if not seen[c]), -1)
            if col < 0:  # dead end: back up one step of the path
                stack.pop()
                rows.pop()
                if cols:
                    cols.pop()
                continue
            seen[col] = 1
            cols.append(col)
            if owner[col] < 0:  # augment: each row on the path takes the next column
                for r, c in zip(rows, cols):
                    owner[c] = r
                break
            rows.append(owner[col])
            stack.append(iter(neighbours[owner[col]]))
        else:
            return False
    return True


def match_distance(ev1, ev2):
    """Smallest max pairing distance between two equal-size eigenvalue multisets.

    The exact bottleneck assignment value of the computed distances
    |u_i - v_j| (Burkard, Dell'Amico & Martello, *Assignment Problems*,
    2009, ch. 6): the least t such that the pairs within t admit a perfect
    matching (``_perfect_matching``).  Every element must be paired, so no
    t below t0 = max(largest row minimum, largest column minimum) works;
    t0 is tested first, and when it fails the sorted distinct distances
    above it are bisected.
    """
    u = np.asarray(ev1, dtype=np.complex128).reshape(-1)
    v = np.asarray(ev2, dtype=np.complex128).reshape(-1)
    if u.size != v.size:
        raise ValueError(f"multisets differ in size: {u.size} vs {v.size}")
    if u.size == 0:
        return 0.0
    cost = np.abs(u[:, None] - v[None, :])
    if not np.isfinite(cost).all():
        raise ValueError("multisets must be finite")
    t0 = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    if _perfect_matching(cost <= t0):
        return float(t0)
    # t0 fails, so some distance exceeds it; the largest admits every pair
    levels = np.unique(cost[cost > t0])
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])

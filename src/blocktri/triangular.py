"""Simultaneous triangularization of matrix pairs.

Each operand is first scaled by an exact power of two (largest entry
modulus in [1/2, 1)); no verdict depends on positive scaling, so every
threshold below is relative to the input scale.  Three steps follow, and
the first that decides wins.

1. The Schur-flag route, O(n^3).  A triangularizable pair has a common
   flag that every combination a/||a|| + t b/||b|| leaves invariant (t of
   unit modulus, drawn from ``seed``), so the flag is a reordering of that
   combination's Schur basis: in the combination's eigenbasis b is a
   permuted triangular matrix, and a greedy pass that always takes the
   eigenvector whose b-image leaks least into the remaining ones recovers
   the order, which ``ztrexc`` then applies to the Schur form.  Exactly
   repeated eigenvalues keep their Schur order among themselves.

2. The word search, O(n^3) per word.  A word w refutes when M = w(a, b)
   [a, b] has |tr M| or |tr M^2| above a rounding bound carried along the
   word from the entrywise magnitudes |a| and |b| (``linalg._trace_tests``);
   every power of a nilpotent matrix has trace 0, so the trace is a
   witness anyone can recheck.  By McCoy's theorem every pair that is not
   triangularizable has such a word.  Words are enumerated exhaustively up
   to a length that a flop budget sets, then sampled.  Enumeration ends at
   the first length whose words are all exactly zero: every longer word is
   then zero too, and no sampled word is tried.  This step,
   ``_word_refutation``, is the refutation callers share: the
   counterexample check runs it alone, without the Schur form of step 1.

3. Recursive deflation: the flag applied again to the corner it leaves.
   Conjugated by the flag, the pair keeps its leading columns whose
   strict-lower entries are within the gate's resolution, and the flag of
   the trailing corner, with a fresh phase, goes on from there.  One Schur
   form per step, O(n^3) each; a step that keeps no column is retried
   twice at most.

A witness from step 1 or 3 counts only when it passes one residual gate:
the conjugated inputs keep strict-lower mass below ``tol`` relative to
1 + ||a|| + ||b||, and the witness is unitary to 1e-10.  When no step
decides, the verdict is "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .linalg import (
    _pow2_normalize,
    _read_only,
    _reorder_schur,
    _residual_norm,
    _square_pair,
    _strict_lower_max,
    _trace_bounds,
    _trace_sums,
    _trace_tests,
    operator_norm,
)

__all__ = [
    "TriangularizationCertificate",
    "simultaneous_triangularize",
    "mccoy_sample",
    "word_value",
]

_WORD_FLOP_BUDGET = 2e9  # real flops; caps the exhaustively enumerated word lengths
_WORD_MARGIN = 1e-8  # relative margin of a refuting trace over its rounding bound
_WORD_SAMPLES = 64  # random words tried past the exhaustive cap


@dataclass(frozen=True)
class TriangularizationCertificate:
    """Outcome of a simultaneous triangularization attempt.

    verdict is "triangularizable" (read-only ``witness_unitary`` present,
    residuals verified),
    "refuted" (refuting_word present, with the trace test that refutes
    it: M = w(a, b) [a, b] has |tr M^k| = ``trace`` above ``trace_bound``),
    or "inconclusive".  ``route`` names what decided the verdict:
    "schur-flag", "words" or "deflation", None when nothing did.
    ``residual`` is the strict-lower mass of both conjugated (scaled) inputs
    relative to 1 + ||a|| + ||b||, when a full conjugation exists, and
    ``unitarity_residual`` is ||u* u - I||_F of that conjugation's u, an
    upper bound on the 2-norm.
    """

    verdict: str
    witness_unitary: np.ndarray | None
    refuting_word: str | None
    residual: float | None
    unitarity_residual: float | None
    route: str | None = None
    trace_power: int | None = None
    trace: float | None = None
    trace_bound: float | None = None


def _word_letters(word):
    if any(ch not in "xy" for ch in word):
        raise ValueError(f"word may contain only x and y, got {word!r}")
    return word


def _word_product(word, a, b):
    out = np.eye(a.shape[0], dtype=np.result_type(a, b))
    for ch in word:
        out = out @ (a if ch == "x" else b)
    return out


def word_value(word, a, b):
    """Evaluate a word over {x, y} as a product, x -> a, y -> b ('' -> identity)."""
    aa, bb = _square_pair(a, b)
    return _word_product(_word_letters(word), aa, bb)


def _exhaustive_cap(n, max_word_len):
    # a word costs two complex products (its value w and w [a, b]) and two
    # real ones (their magnitude bounds): 2 * 8n^3 + 2 * 2n^3 real flops;
    # the words up to length cap + 1 must fit the budget
    cap = 2
    while cap < 11 and (2.0 ** (cap + 2)) * 20.0 * n**3 <= _WORD_FLOP_BUDGET:
        cap += 1
    return min(cap, max_word_len)


def _word_levels(a, b, max_len):
    """Yield (words, products) for word lengths 0..max_len, words in lexicographic order (x < y).

    ``products`` stacks w(a, b) for the level's words in the same order;
    each level costs two stacked matrix products.  Enumeration ends before
    the first length whose products are all exactly zero: a and b are
    finite, so every longer word is exactly zero as well.
    """
    n = a.shape[0]
    words = [""]
    prods = np.eye(n, dtype=np.result_type(a, b))[None]
    yield words, prods
    for _ in range(max_len):
        m = prods.shape[0]
        flat = prods.reshape(m * n, n)
        prods = np.stack([(flat @ a).reshape(m, n, n), (flat @ b).reshape(m, n, n)], axis=1)
        prods = prods.reshape(2 * m, n, n)
        if not prods.any():
            return
        words = [w + ch for w in words for ch in "xy"]
        yield words, prods


def _normalized_pair(aa, bb, top_a=None, top_b=None):
    """(a, b, [a, b], |a|, |b|, |a||b| + |b||a|) after exact power-of-two scaling of each operand.

    Refutation is invariant under positive scaling of either operand, and
    the scaling keeps word products clear of overflow.  ``top_a`` and
    ``top_b`` stand for the operands' largest moduli (``_pow2_normalize``).
    """
    a = _pow2_normalize(aa, top=top_a)
    b = _pow2_normalize(bb, top=top_b)
    abs_a = np.abs(a)
    abs_b = np.abs(b)
    return a, b, a @ b - b @ a, abs_a, abs_b, abs_a @ abs_b + abs_b @ abs_a


def _word_traces(p, g, pair, length, tol):
    """``_trace_tests`` of M = w(a, b) [a, b] for a stack p of word values and g of their magnitudes."""
    n = p.shape[-1]
    _, _, comm, _, _, comm_abs = pair
    m = (p.reshape(-1, n) @ comm).reshape(p.shape)
    gm = (g.reshape(-1, n) @ comm_abs).reshape(g.shape)
    return _trace_tests(m, gm, length, tol)


def _one_word_traces(word, pair, tol):
    x, y, _, abs_x, abs_y, _ = pair
    p = _word_product(word, x, y)
    g = _word_product(word, abs_x, abs_y)
    traces, bounds = _word_traces(p[None], g[None], pair, len(word), tol)
    return traces[0], bounds[0]


def _refutation(word, traces, bounds):
    """(word, k, trace, bound) for the first k in 1, 2 whose trace exceeds its bound."""
    k = 1 if traces[0] > bounds[0] else 2
    return word, k, float(traces[k - 1]), float(bounds[k - 1])


def _word_witness(word, a_blocks, b_blocks):
    """(k, trace, bound) when ``word`` refutes the pair of direct sums of the blocks, else None.

    For a word found on another pair, such as a diagonal block's word
    tried on the whole corner.  The test is the trace test on the direct
    sums (a, b), taken block by block: every matrix it forms from them is
    block diagonal, so tr M, tr M^2 and the sums the bound reads are sums
    over the blocks (``linalg._trace_sums``).  Each block takes the
    power-of-two scaling of its whole direct sum, and the bound is that of
    order n = dim a: it holds for every summation order, and an inner
    dimension below n only shrinks the rounding error.  One block of each
    is the dense test on (a, b) itself.
    """
    letters = _word_letters(word)
    top_a = max(float(np.abs(blk).max()) for blk in a_blocks)
    top_b = max(float(np.abs(blk).max()) for blk in b_blocks)
    n = sum(blk.shape[0] for blk in a_blocks)
    block_sums = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for aa, bb in zip(a_blocks, b_blocks):
            x, y, comm, abs_x, abs_y, comm_abs = _normalized_pair(aa, bb, top_a, top_b)
            m = _word_product(letters, x, y) @ comm
            g = _word_product(letters, abs_x, abs_y) @ comm_abs
            block_sums.append(_trace_sums(m, g))
        sums = [sum(terms) for terms in zip(*block_sums)]
        traces, bounds = _trace_bounds(sums, n, len(letters), _WORD_MARGIN)
    if not (traces > bounds).any():
        return None
    return _refutation(word, traces, bounds)[1:]


def _mccoy_search(aa, bb, max_word_len, seed, tol):
    """``mccoy_sample``'s search on a square pair: (word, k, trace, bound) of the refuting word, or None.

    The trace test is proved on the evaluation that found the word: the
    rounding bound holds for every summation order, stacked or not.  When
    enumeration ends at a vanishing length, every sampled word is exactly
    zero, so none is evaluated.
    """
    if max_word_len < 0:
        raise ValueError("max_word_len must be nonnegative")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    pair = _normalized_pair(aa, bb)
    x, y, comm, abs_x, abs_y, _ = pair
    if not comm.any():
        return None
    cap = _exhaustive_cap(x.shape[0], max_word_len)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        levels = zip(_word_levels(x, y, cap), _word_levels(abs_x, abs_y, cap))
        for length, ((words, p), (_, g)) in enumerate(levels):
            traces, bounds = _word_traces(p, g, pair, length, tol)
            hits = np.flatnonzero((traces > bounds).any(axis=1))
            if hits.size:
                i = hits[0]
                return _refutation(words[i], traces[i], bounds[i])
        # enumeration that ended short of the cap met a vanishing length:
        # every longer word, each sampled one included, is exactly zero
        if length < cap or max_word_len <= cap:
            return None
        rng = np.random.default_rng(seed)
        hits = []
        for _ in range(_WORD_SAMPLES):
            length = int(rng.integers(cap + 1, max_word_len + 1))
            word = "".join("xy"[i] for i in rng.integers(0, 2, size=length))
            traces, bounds = _one_word_traces(word, pair, tol)
            if (traces > bounds).any():
                hits.append(_refutation(word, traces, bounds))
    return min(hits, key=lambda hit: (len(hit[0]), hit[0])) if hits else None


def mccoy_sample(a, b, max_word_len=6, tol=_WORD_MARGIN):
    """Search for a word w with w(a, b) [a, b] provably not nilpotent.

    A word refutes when, for M = w(a, b) [a, b], |tr M| or |tr M^2|
    exceeds its rounding bound (``linalg._trace_tests``, with ``tol`` as a
    relative margin on top of it, so it must be nonnegative); each operand
    is first scaled by an exact power of two, which changes no verdict.
    By McCoy's theorem every pair that is not simultaneously
    triangularizable has such a word.  Words are enumerated exhaustively
    in shortest-then-lexicographic order up to a length cap set by a flop
    budget, then ``_WORD_SAMPLES`` random longer words, drawn from seed 0
    (``simultaneous_triangularize``'s default), are tried; among sampled
    hits the minimal word in (length, lex) order is returned.  When every
    word of some length up to the cap is exactly zero, so is every longer
    word, and the search ends there without sampling.  Returns the first
    refuting word, or None.  A None can never certify triangularizability.
    """
    hit = _mccoy_search(*_square_pair(a, b), max_word_len, 0, tol)
    return None if hit is None else hit[0]


def _word_refutation(a, b, word_len, seed):
    """Step 2: a "refuted" certificate when a word refutes the pair (a, b), else None.

    ``_mccoy_search`` scales each operand by an exact power of two and
    tries words up to ``word_len`` letters (None: max(4, min(n - 2, 16)))
    with ``_WORD_SAMPLES`` sampled words drawn from ``seed`` and the margin
    ``_WORD_MARGIN``.  It takes no Schur form, operator norm or gate.
    """
    aa, bb = _square_pair(a, b)
    if word_len is None:
        word_len = max(4, min(aa.shape[0] - 2, 16))
    hit = _mccoy_search(aa, bb, word_len, seed, _WORD_MARGIN)
    if hit is None:
        return None
    word, k, trace, bound = hit
    return TriangularizationCertificate(
        verdict="refuted",
        witness_unitary=None,
        refuting_word=word,
        residual=None,
        unitarity_residual=None,
        route="words",
        trace_power=k,
        trace=trace,
        trace_bound=bound,
    )


def _phases(seed):
    """Unit-modulus phases exp(2 pi i u) for the draws u of ``np.random.default_rng(seed)``, in turn."""
    rng = np.random.default_rng(seed)
    while True:
        yield np.exp(2j * np.pi * rng.random())


def _schur_flag(aa, bb, na, nb, phase):
    """Candidate witness from the reordered Schur form of a/na + phase b/nb, or None.

    An operand whose norm is given as 0 enters the combination as zero.
    Exactly repeated eigenvalues of the combination are ties: the
    eigenvector entries between tied eigenvalues are set to 0 instead of
    divided by 0, the leak between them is ignored, and a tied eigenvalue
    is placed only after the one before it in Schur order.  None when the
    Schur form or its reordering fails or some value turns non-finite; the
    caller's gate judges any returned unitary.
    """
    n = aa.shape[0]
    a1 = aa / na if na > 0 else 0.0 * aa
    b1 = bb / nb if nb > 0 else 0.0 * bb
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            tri, q = _lapack.schur(a1 + phase * b1)
        except np.linalg.LinAlgError:
            return None
        # upper-triangular eigenvector matrix of tri, unit diagonal, by
        # back-substitution; a tied gap reads as infinite, so its entry is 0
        lam = np.diag(tri)
        tied = lam[:, None] == lam
        gap = lam[:, None] - lam
        gap[tied] = np.inf
        x = np.eye(n, dtype=np.complex128)
        for i in range(n - 2, -1, -1):
            x[i, i + 1 :] = -(tri[i, i + 1 :] @ x[i + 1 :, i + 1 :]) / gap[i, i + 1 :]
        if not np.isfinite(x).all():
            return None
        x /= np.linalg.norm(x, axis=0)
        # b in the combination's eigenbasis: a permuted triangular matrix
        # when the pair is triangularizable
        c = _lapack.solve_upper(x, q.conj().T @ b1 @ q @ x)
        if not np.isfinite(c).all():
            return None
    # greedy flag order: each slot takes the open index whose column leaks
    # least into the rows not yet placed; a tied index opens when the one
    # before it in Schur order is placed (index n is a sentinel)
    leak = np.abs(c) ** 2
    leak[tied] = 0.0
    mass = leak.sum(axis=0)
    later = np.triu(tied, 1)
    after = np.where(later.any(axis=1), later.argmax(axis=1), n)
    closed = np.append(later.any(axis=0), True)
    order = []
    for _ in range(n):
        k = int(np.argmin(np.where(closed[:n], np.inf, mass)))
        order.append(k)
        closed[k] = True
        closed[after[k]] = False
        mass -= leak[k]
    try:
        _, q = _reorder_schur(tri, q, order)
    except np.linalg.LinAlgError:
        return None
    return q


def _gated_certificate(aa, bb, u, tol, scale, route):
    """Certificate for witness u: "triangularizable" only when it passes the gate.

    The gate: strict-lower mass of u* a u and u* b u below ``tol`` relative
    to ``scale`` (1 + ||a|| + ||b||), and ||u* u - I||_F below 1e-10.  The
    unitarity residual is reported as that Frobenius norm, an upper bound
    on the 2-norm (``linalg._residual_norm``), and the gate compares the
    bound.  A witness that fails leaves an "inconclusive" certificate
    without a route.
    """
    uh = u.conj().T
    residual = max(_strict_lower_max(uh @ aa @ u), _strict_lower_max(uh @ bb @ u)) / scale
    unit_res = _residual_norm(uh @ u - np.eye(u.shape[0]))
    passed = residual < tol and unit_res < 1e-10
    return TriangularizationCertificate(
        verdict="triangularizable" if passed else "inconclusive",
        witness_unitary=_read_only(u) if passed else None,
        refuting_word=None,
        residual=residual,
        unitarity_residual=unit_res,
        route=route if passed else None,
    )


def _deflate(aa, bb, flag, tol, scale, phases):
    """Unitary from the Schur flag applied again to the corner it leaves, or None when a step stalls.

    Starts from ``flag`` (the step-1 witness, or None).  Conjugated by the
    witness so far, the pair keeps its longest leading run of columns whose
    strict-lower entries are within the gate's resolution ``tol * scale``;
    the flag of the trailing corner, with the next phase, extends the
    witness there.  A corner already within that resolution ends the
    recursion without a Schur form.  A corner operand whose Frobenius norm
    is below the resolution enters its flag as zero: no unitary can lift
    any of its entries past the gate, and rounding noise normalized to unit
    norm would hide the order the other operand sets.  A step that keeps no
    column is retried at most twice, each time with the next phase.
    """
    n = aa.shape[0]
    res = tol * scale
    u = np.eye(n, dtype=np.complex128)
    ca, cb = aa, bb
    h, k, misses = flag, 0, 0
    while True:
        if h is not None:
            ca = h.conj().T @ ca @ h
            cb = h.conj().T @ cb @ h
            u[:, k:] = u[:, k:] @ h
        low = np.maximum(np.abs(np.tril(ca, -1)).max(axis=0), np.abs(np.tril(cb, -1)).max(axis=0))
        over = np.flatnonzero(low > res)
        kept = int(over[0]) if over.size else ca.shape[0]
        if k + kept == n:
            return u
        misses = 0 if kept else misses + 1
        if misses > 2:
            return None
        k += kept
        ca, cb = ca[kept:, kept:], cb[kept:, kept:]
        fa, fb = (f if f >= res else 0.0 for f in (np.linalg.norm(ca), np.linalg.norm(cb)))
        h = _schur_flag(ca, cb, fa, fb, next(phases))


def simultaneous_triangularize(a, b, tol=1e-9, *, word_len=None, seed=0):
    """Decide simultaneous triangularizability of a pair.

    Each operand is first scaled by the exact power of two that puts its
    largest entry modulus in [1/2, 1); neither a witness nor a refuting
    word depends on positive scaling, and the gate becomes relative to the
    input scale.  Then, in order:

    1. the Schur flag of a/||a|| + t b/||b||, t = exp(2 pi i u) for the
       first draw u from ``seed``; exactly repeated eigenvalues of that
       combination keep their Schur order; a witness that passes the gate
       wins;
    2. the word search (``_word_refutation``: ``mccoy_sample`` with its
       default sample count and margin, words up to ``word_len`` letters);
       a refuting word wins, and the trace test that refutes it goes on the
       certificate;
    3. deflation (``_deflate``): from the step-1 flag, the flag applied
       again to the trailing corner it leaves, with the next draws from
       ``seed``; its witness must pass the same gate.

    On success the certificate carries a unitary witness whose conjugation
    leaves both scaled inputs with strict-lower mass below ``tol``
    relative to 1 + ||a|| + ||b||.  Otherwise the verdict is
    "inconclusive": words only ever refute, and a gated witness is the
    only proof of success.
    """
    aa, bb = _square_pair(a, b)
    aa = _pow2_normalize(aa)
    bb = _pow2_normalize(bb)
    na = operator_norm(aa)
    nb = operator_norm(bb)
    scale = 1.0 + na + nb
    phases = _phases(seed)
    flag = _schur_flag(aa, bb, na, nb, next(phases))
    if flag is not None:
        cert = _gated_certificate(aa, bb, flag, tol, scale, "schur-flag")
        if cert.verdict == "triangularizable":
            return cert

    cert = _word_refutation(aa, bb, word_len, seed)
    if cert is not None:
        return cert

    u = _deflate(aa, bb, flag, tol, scale, phases)
    if u is not None:
        return _gated_certificate(aa, bb, u, tol, scale, "deflation")
    return TriangularizationCertificate(
        verdict="inconclusive",
        witness_unitary=None,
        refuting_word=None,
        residual=None,
        unitarity_residual=None,
    )

"""Simultaneous triangularization of matrix pairs.

The decider is recursive deflation: find a common eigenvector, conjugate
it into the leading position, recurse on the trailing corner.  Common
eigenvectors come from the kernel-intersection subspace

    N = intersection over 1 <= k, l <= n-1 of ker([a^k, b^l])

(numerical kernels via singular-value thresholds); the pair restricted to
N commutes, so a common eigenvector can be read off eigenspaces there.

When deflation gets stuck, word sampling over p(a, b) [a, b] looks for a
polynomial witness that the pair cannot be triangularized: a single
non-nilpotent product refutes, while exhausting the budget proves
nothing (verdict "inconclusive").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ComplexMatrix, _square_pair, _strict_lower_max, is_nilpotent, operator_norm

__all__ = [
    "TriangularizationCertificate",
    "common_eigenvector",
    "simultaneous_triangularize",
    "mccoy_sample",
    "word_value",
]

KERNEL_RTOL = 1e-8  # kernel cut (relative to sigma_max, or absolute on unit-norm inputs)
_WORD_FLOP_BUDGET = 5e8  # caps the exhaustively enumerated word lengths


@dataclass(frozen=True)
class TriangularizationCertificate:
    """Outcome of a simultaneous triangularization attempt.

    verdict is "triangularizable" (witness present, residuals verified),
    "refuted" (refuting_word present, its product fails the nilpotency
    test), or "inconclusive".  ``residual`` is the strict-lower mass of
    both conjugated inputs relative to 1 + ||a|| + ||b||, when a full
    conjugation exists.
    """

    verdict: str
    witness_unitary: ComplexMatrix | None
    refuting_word: str | None
    residual: float | None
    unitarity_residual: float | None


def _numerical_kernel(m, rtol=KERNEL_RTOL):
    """Orthonormal kernel basis; all singular values <= rtol*s[0] count as zero."""
    u, s, vh = np.linalg.svd(m)
    cols = m.shape[1]
    if s.size == 0 or s[0] == 0.0:
        return np.eye(cols, dtype=np.complex128)
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return np.ascontiguousarray(vh[rank:].conj().T)


def _kernel_intersection_basis(a, b, na, nb):
    """Basis of N = intersection of ker([a^k, b^l]) over 1 <= k, l < n.

    N coincides with the largest subspace of ker([a, b]) invariant under
    both a and b: on such a subspace the restrictions commute, so every
    power commutator dies there, and conversely N itself is invariant and
    killed by [a, b].  The computation uses that characterization: start
    from the kernel of [a, b] and trim until the a- and b-images stay in
    the span.  Inputs are normalized by their norms ``na`` and ``nb`` so
    rank thresholds are scale free.  Returns an orthonormal n x d basis,
    or None when N is numerically trivial.
    """
    n = a.shape[0]
    if n == 1:
        return np.eye(1, dtype=np.complex128)
    a1 = a / na if na > 0 else a
    b1 = b / nb if nb > 0 else b
    # absolute cut on the normalized scale: a relative one (rtol * s[0]) can
    # fall below the noise left by earlier deflation truncations and miss the
    # kernel direction entirely
    _, s, vh = np.linalg.svd(a1 @ b1 - b1 @ a1)
    rank = int(np.count_nonzero(s > KERNEL_RTOL))
    v = np.ascontiguousarray(vh[rank:].conj().T)
    while 0 < v.shape[1] < n:
        av = a1 @ v
        bv = b1 @ v
        outflow = np.vstack([av - v @ (v.conj().T @ av), bv - v @ (v.conj().T @ bv)])
        _, s, vh = np.linalg.svd(outflow)
        # absolute threshold: the inputs are normalized, so escape mass below
        # KERNEL_RTOL counts as staying put (a relative one would read pure
        # roundoff of an invariant subspace as full-rank outflow and trim it
        # to nothing)
        rank = int(np.count_nonzero(s > KERNEL_RTOL))
        if rank == 0:
            break  # already invariant under both
        v = v @ np.ascontiguousarray(vh[rank:].conj().T)
    return v if v.shape[1] > 0 else None


def _validate_candidate(a, b, v, tol, na, nb):
    lam_a = np.vdot(v, a @ v)
    lam_b = np.vdot(v, b @ v)
    ra = np.linalg.norm(a @ v - lam_a * v)
    rb = np.linalg.norm(b @ v - lam_b * v)
    return ra <= tol * na and rb <= tol * nb


def _refine_candidate(a, b, v, na, nb):
    """Joint Rayleigh-quotient step: the smallest right singular vector of
    the stacked, normalized shifts minimizes the joint residual at the
    current quotients."""
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    a1 = a / na if na > 0 else a
    b1 = b / nb if nb > 0 else b
    for _ in range(2):
        lam = np.vdot(v, a1 @ v)
        mu = np.vdot(v, b1 @ v)
        _, _, vh = np.linalg.svd(np.vstack([a1 - lam * eye, b1 - mu * eye]))
        v = vh[-1].conj()
    return v


def _inverse_polish(m, v, iters=2):
    """Inverse iteration from the Rayleigh quotient.

    Machine-accurate for simple eigenvalues; a near-singular solve blowing
    up is the desired outcome (the direction collapses onto the
    eigenvector), so only exact singularity or overflow stops early.
    """
    n = m.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    for _ in range(iters):
        lam = np.vdot(v, m @ v)
        try:
            w = np.linalg.solve(m - lam * eye, v)
        except np.linalg.LinAlgError:
            return v
        with np.errstate(over="ignore"):
            nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            return v
        v = w / nw
    return v


def _best_variant(a, b, v, tol, na, nb):
    """Best validated polish of candidate v, or None.

    Accepting the first gate-passing vector lets its residual become the
    next deflation step's perturbation, and that noise compounds until no
    candidate can pass; polishing to the achievable floor keeps every
    truncation near machine scale.
    """

    def quality(x):
        ra = np.linalg.norm(a @ x - np.vdot(x, a @ x) * x)
        rb = np.linalg.norm(b @ x - np.vdot(x, b @ x) * x)
        return max(ra / na if na > 0 else ra, rb / nb if nb > 0 else rb)

    best = v
    best_q = quality(v)
    if best_q <= 1e-3:
        for cand in (
            _inverse_polish(a, v),
            _inverse_polish(b, v),
            _refine_candidate(a, b, v, na, nb),
        ):
            q = quality(cand)
            if q < best_q:
                best, best_q = cand, q
    return best if _validate_candidate(a, b, best, tol, na, nb) else None


def common_eigenvector(a, b, tol=1e-9):
    """Unit vector v with a v ~ lambda v and b v ~ mu v, or None.

    A returned vector is validated: ||a v - <v, a v> v|| <= tol ||a|| and
    likewise for b.  Among valid candidates the one whose a-eigenvalue is
    minimal in lexicographic (real, imag) order wins, then the minimal
    b-eigenvalue, then the smallest index.
    """
    aa, bb = _square_pair(a, b)
    n = aa.shape[0]
    na = operator_norm(aa)
    nb = operator_norm(bb)
    if n == 1:
        return np.ones(1, dtype=np.complex128)
    comm_norm = operator_norm(aa @ bb - bb @ aa)
    if comm_norm <= 1e-14 * (1.0 + na * nb):
        basis = np.eye(n, dtype=np.complex128)
    else:
        basis = _kernel_intersection_basis(aa, bb, na, nb)

    if basis is not None and basis.shape[1] == 1:
        v = basis[:, 0] / np.linalg.norm(basis[:, 0])
        got = _best_variant(aa, bb, v, tol, na, nb)
        if got is not None:
            return got
    elif basis is not None and basis.shape[1] > 1:
        av = basis.conj().T @ aa @ basis
        bv = basis.conj().T @ bb @ basis
        d = basis.shape[1]
        evals = np.linalg.eigvals(av)
        order = np.lexsort((evals.imag, evals.real))
        cluster_tol = 1e-7 * (1.0 + operator_norm(av))
        centers = []
        for idx in order:
            lam = evals[idx]
            if not centers or abs(lam - centers[-1]) > cluster_tol:
                centers.append(lam)
        for lam in centers:
            w = _numerical_kernel(av - lam * np.eye(d))
            if w.shape[1] == 0:
                continue
            bw = w.conj().T @ bv @ w
            mu_vals, mu_vecs = np.linalg.eig(bw)
            mu_order = np.lexsort((np.arange(mu_vals.size), mu_vals.imag, mu_vals.real))
            for idx in mu_order:
                v = basis @ (w @ mu_vecs[:, idx])
                nv = np.linalg.norm(v)
                if nv == 0.0:
                    continue
                got = _best_variant(aa, bb, v / nv, tol, na, nb)
                if got is not None:
                    return got
    # the kernel route produced nothing valid; its basis extraction can be
    # noisier than the eigenproblem itself, so sweep plain eigenvectors of
    # each operator before giving up (validation alone decides, as above)
    return _eigenvector_sweep(aa, bb, tol, na, nb)


def _eigenvector_sweep(aa, bb, tol, na, nb):
    for m in (aa, bb):
        evals, vecs = np.linalg.eig(m)
        order = np.lexsort((np.arange(evals.size), evals.imag, evals.real))
        for idx in order:
            v = vecs[:, idx]
            nv = np.linalg.norm(v)
            if nv == 0.0:
                continue
            got = _best_variant(aa, bb, v / nv, tol, na, nb)
            if got is not None:
                return got
    return None


def _householder_from_first_column(v):
    """Unitary whose first column is v (up to the phase fixing <e1, v> >= 0)."""
    n = v.size
    phase = v[0] / abs(v[0]) if abs(v[0]) > 0 else 1.0
    w = v / phase
    u = np.zeros(n, dtype=np.complex128)
    u[0] = 1.0
    u -= w
    nu2 = np.vdot(u, u).real
    h = np.eye(n, dtype=np.complex128)
    if nu2 > 1e-30:
        h -= (2.0 / nu2) * np.outer(u, u.conj())
    return h


def _word_letters(word):
    if any(ch not in "xy" for ch in word):
        raise ValueError(f"word may contain only x and y, got {word!r}")
    return word


def word_value(word, a, b):
    """Evaluate a word over {x, y} as a product, x -> a, y -> b ('' -> identity)."""
    aa, bb = _square_pair(a, b)
    out = np.eye(aa.shape[0], dtype=np.complex128)
    for ch in _word_letters(word):
        out = out @ (aa if ch == "x" else bb)
    return ComplexMatrix(out)


def _exhaustive_cap(n, max_word_len):
    # keep 2^(L+1) products of n^3 work under the flop budget (and memory sane)
    cap = 2
    while cap < 11 and (2.0 ** (cap + 2)) * 2.0 * n**3 <= _WORD_FLOP_BUDGET:
        cap += 1
    return min(cap, max_word_len)


def _iter_word_products(a, b, max_len):
    """Yield (word, product) in shortest-then-lexicographic order (x < y)."""
    n = a.shape[0]
    prev = [("", np.eye(n, dtype=np.complex128))]
    yield prev[0]
    for _ in range(max_len):
        cur = []
        for w, p in prev:
            for ch, m in (("x", a), ("y", b)):
                entry = (w + ch, p @ m)
                cur.append(entry)
                yield entry
        prev = cur


def mccoy_sample(a, b, max_word_len=6, samples=64, seed=0, tol=1e-8):
    """Search for a word w with w(a, b) [a, b] non-nilpotent.

    Words are enumerated exhaustively in shortest-then-lexicographic order
    up to a budgeted length cap, then ``samples`` random longer words
    (deterministic in ``seed``) are tried; among sampled hits the minimal
    word in (length, lex) order is returned.  Returns the first refuting
    word, or None.  A None can never certify triangularizability.
    """
    aa, bb = _square_pair(a, b)
    if max_word_len < 0:
        raise ValueError("max_word_len must be nonnegative")
    comm = aa @ bb - bb @ aa
    if not comm.any():
        return None
    n = aa.shape[0]
    cap = _exhaustive_cap(n, max_word_len)
    for word, prod in _iter_word_products(aa, bb, cap):
        if not is_nilpotent(prod @ comm, tol):
            return word
    if max_word_len > cap and samples > 0:
        rng = np.random.default_rng(seed)
        hits = []
        for _ in range(samples):
            length = int(rng.integers(cap + 1, max_word_len + 1))
            word = "".join("xy"[i] for i in rng.integers(0, 2, size=length))
            if not is_nilpotent(word_value(word, aa, bb).array @ comm, tol):
                hits.append(word)
        if hits:
            return min(hits, key=lambda w: (len(w), w))
    return None


def simultaneous_triangularize(a, b, tol=1e-9, *, word_len=None, seed=0):
    """Decide simultaneous triangularizability of a pair by deflation.

    On success the certificate carries a unitary witness whose conjugation
    leaves both inputs with strict-lower mass below ``tol`` relative to
    1 + ||a|| + ||b||.  When deflation sticks, ``mccoy_sample`` (with its
    default sample count and nilpotency tolerance) hunts for a refuting
    word; failing that the verdict is "inconclusive" (deflation is
    authoritative for success, words only ever refute).
    """
    aa, bb = _square_pair(a, b)
    n = aa.shape[0]
    u = np.eye(n, dtype=np.complex128)
    wa = np.array(aa)
    wb = np.array(bb)
    deflated = True
    for k in range(n - 1):
        v = common_eigenvector(wa[k:, k:], wb[k:, k:], tol=tol)
        if v is None:
            deflated = False
            break
        h = _householder_from_first_column(v)
        wa[k:, k:] = h.conj().T @ wa[k:, k:] @ h
        wa[:k, k:] = wa[:k, k:] @ h
        wb[k:, k:] = h.conj().T @ wb[k:, k:] @ h
        wb[:k, k:] = wb[:k, k:] @ h
        u[:, k:] = u[:, k:] @ h

    if deflated:
        ca = u.conj().T @ aa @ u
        cb = u.conj().T @ bb @ u
        scale = 1.0 + operator_norm(aa) + operator_norm(bb)
        residual = max(_strict_lower_max(ca), _strict_lower_max(cb)) / scale
        unit_res = operator_norm(u.conj().T @ u - np.eye(n))
        if residual < tol and unit_res < 1e-10:
            return TriangularizationCertificate(
                verdict="triangularizable",
                witness_unitary=ComplexMatrix(u),
                refuting_word=None,
                residual=residual,
                unitarity_residual=unit_res,
            )
        return TriangularizationCertificate(
            verdict="inconclusive",
            witness_unitary=None,
            refuting_word=None,
            residual=residual,
            unitarity_residual=unit_res,
        )

    if word_len is None:
        word_len = max(4, min(n - 2, 16))
    word = mccoy_sample(aa, bb, max_word_len=word_len, seed=seed)
    if word is not None:
        return TriangularizationCertificate(
            verdict="refuted",
            witness_unitary=None,
            refuting_word=word,
            residual=None,
            unitarity_residual=None,
        )
    return TriangularizationCertificate(
        verdict="inconclusive",
        witness_unitary=None,
        refuting_word=None,
        residual=None,
        unitarity_residual=None,
    )

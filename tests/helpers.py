"""Shared randomized generators for the test suite."""

import numpy as np

from blocktri import BlockTridiagOperator


def haar_unitary(n, rng):
    """Haar-distributed unitary from the QR of a complex Ginibre sample."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_complex(rows, cols, rng):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_upper(n, rng):
    return np.triu(random_complex(n, n, rng))


def conjugated_upper_pair(n, rng):
    """A pair sharing one triangularizing unitary by construction."""
    u = haar_unitary(n, rng)
    a = u @ random_upper(n, rng) @ u.conj().T
    b = u @ random_upper(n, rng) @ u.conj().T
    return a, b, u


def degenerate_diagonal_pair(n, rng):
    """Commuting pair U diag(d) U*, U diag(d^2 - 3d) U* with repeated integer entries in d."""
    u = haar_unitary(n, rng)
    d = rng.integers(-2, 3, size=n).astype(np.complex128)
    return u @ np.diag(d) @ u.conj().T, u @ np.diag(d * d - 3 * d) @ u.conj().T


def jordan_pair(n, rng):
    """Commuting pair (U J U*, U J^2 U*) for a Jordan matrix J.

    J has blocks of sizes 1 to 3 with integer eigenvalues in [-2, 2], so
    eigenvalues repeat and some eigenspaces are smaller than their
    algebraic multiplicity.  J^2 is formed exactly, before the conjugation:
    squaring the conjugated t instead leaves pure rounding where a nilpotent
    block of size 2 squares to zero, and that pair no longer commutes.
    """
    j = np.zeros((n, n), dtype=np.complex128)
    i = 0
    while i < n:
        k = min(int(rng.integers(1, 4)), n - i)
        j[i : i + k, i : i + k] = float(rng.integers(-2, 3)) * np.eye(k) + np.eye(k, k=1)
        i += k
    u = haar_unitary(n, rng)
    return u @ j @ u.conj().T, u @ (j @ j) @ u.conj().T


def random_operator(schedule, rng, coupling_scale=1.0):
    """Operator with dense random blocks on the given schedule."""
    sizes = schedule.sizes
    diag = [random_complex(k, k, rng) for k in sizes]
    upper = [
        coupling_scale * random_complex(sizes[i], sizes[i + 1], rng)
        for i in range(len(sizes) - 1)
    ]
    lower = [
        coupling_scale * random_complex(sizes[i + 1], sizes[i], rng)
        for i in range(len(sizes) - 1)
    ]
    return BlockTridiagOperator(schedule, diag, upper, lower)


def separated_upper(n, rng):
    """Upper triangular with spaced diagonal and damped coupling.

    A dense random triangular factor has exponentially ill conditioned
    eigenvectors as n grows, which erases the triangularizable property
    numerically; spacing the eigenvalues and halving the strict part keeps
    conjugated pairs certifiable at the sizes the block schedules reach.
    """
    t = 0.5 * np.triu(random_complex(n, n, rng), 1)
    jitter = 0.25 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    t[np.arange(n), np.arange(n)] = np.arange(1, n + 1) + jitter
    return t


def block_diag_triangularizable_pair(schedule, rng):
    """Zero couplings, each diagonal block pair triangularizable by construction."""
    c_blocks = []
    z_blocks = []
    for k in schedule.sizes:
        u = haar_unitary(k, rng)
        c_blocks.append(u @ separated_upper(k, rng) @ u.conj().T)
        z_blocks.append(u @ separated_upper(k, rng) @ u.conj().T)
    c_op = BlockTridiagOperator(schedule, c_blocks)
    z_op = BlockTridiagOperator(schedule, z_blocks)
    return c_op, z_op


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that logs each call; returns the log."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls

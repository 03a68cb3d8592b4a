"""Tests for the dense kernel: matrices, norms, spectra, Schur forms."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

from blocktri import _lapack
from blocktri import (
    BlockTridiagOperator,
    SchurConvergenceError,
    block_tridiagonalize,
    corner_unit,
    eigenvalues,
    is_nilpotent,
    make_schedule,
    match_distance,
    operator_norm,
    schur,
    shift_matrix,
    spectral_radius,
)
from blocktri.linalg import _norm_excess, _perfect_matching, _structurally_nilpotent
from helpers import haar_unitary, random_complex


def test_entry_points_reject_malformed_input():
    # empty dimensions, 1-D data and a non-finite entry, at three public entry points
    sched = make_schedule("single", 1)
    entry_points = (
        operator_norm,
        lambda m: BlockTridiagOperator(sched, [m]),
        lambda m: block_tridiagonalize([m]),
    )
    for enter in entry_points:
        with pytest.raises(ValueError, match="dimensions must be positive"):
            enter(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="must be 2-D"):
            enter(np.zeros(4))
        with pytest.raises(ValueError, match="entries must be finite"):
            enter([[np.inf, 0], [0, 1]])


def test_norms_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = random_complex(n, n, rng)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_eigenvalues_triangular_exact():
    # triangular inputs short-circuit to their diagonal, bitwise
    t = np.triu(random_complex(6, 6, np.random.default_rng(1)))
    vals = eigenvalues(t)
    assert np.array_equal(np.sort_complex(np.diag(t)), vals)
    assert spectral_radius(shift_matrix(8)) == 0.0
    assert spectral_radius(corner_unit(8)) == 0.0


def test_eigenvalues_dense_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = random_complex(n, n, rng)
        dist = match_distance(eigenvalues(a), np.linalg.eigvals(a))
        assert dist <= 1e-10 * (1.0 + operator_norm(a))


def test_is_nilpotent():
    assert is_nilpotent(np.zeros((3, 3)))
    assert is_nilpotent(shift_matrix(9))
    assert is_nilpotent(np.eye(2)) is False
    assert is_nilpotent(np.diag([1.0, -1.0])) is False
    # scale invariance: normalization keeps tiny non-nilpotent matrices decisive
    assert is_nilpotent(1e-200 * np.diag([1.0, -1.0])) is False
    perturbed = shift_matrix(8) + 1e-5 * np.eye(8)
    assert is_nilpotent(perturbed) is False
    with pytest.raises(ValueError):
        is_nilpotent(np.eye(2), tol=-1.0)


@pytest.mark.parametrize("n", [50, 100])
def test_is_nilpotent_refutes_ginibre_commutators(n):
    # rho/||M|| is about 0.47 here, which a normalized-power test reads as nilpotent
    rng = np.random.default_rng(n)
    a = random_complex(n, n, rng)
    b = random_complex(n, n, rng)
    assert is_nilpotent(a @ b - b @ a) is False


def test_is_nilpotent_undecided_on_cyclic_permutation():
    # tr M = tr M^2 = 0 and a cycle in the pattern: neither witness applies
    p = np.roll(np.eye(3), 1, axis=1)
    assert is_nilpotent(p) is None
    assert is_nilpotent(p, tol=0.0) is None


def test_is_nilpotent_true_only_from_structure():
    # a permuted strictly triangular pattern is nilpotent whatever the entries
    rng = np.random.default_rng(3)
    perm = rng.permutation(7)
    m = np.triu(random_complex(7, 7, rng), 1)[np.ix_(perm, perm)]
    assert is_nilpotent(m) is True
    assert is_nilpotent(1e-300 * m) is True
    # a dense nilpotent matrix is nilpotent but has no acyclic pattern
    u = haar_unitary(7, rng)
    assert is_nilpotent(u @ shift_matrix(7) @ u.conj().T) is not True


def _peel_every_node(arr):
    """The acyclic-pattern decision by Kahn's peel over every node, isolated ones included."""
    pattern = arr != 0
    outdeg = pattern.sum(axis=1)
    sinks = list(np.flatnonzero(outdeg == 0))
    peeled = 0
    while sinks:
        into = pattern[:, sinks.pop()]
        peeled += 1
        outdeg -= into
        sinks.extend(np.flatnonzero(into & (outdeg == 0)))
    return peeled == arr.shape[0]


def test_structural_nilpotency_matches_the_peel_over_every_node():
    # sparse random DAG patterns, permuted, with isolated nodes; a third get a
    # random back edge (a cycle only when a path closes it), a third a cycle
    # through k nodes (a self-loop when k = 1)
    rng = np.random.default_rng(69)
    decisions = []
    for trial in range(300):
        n = int(rng.integers(1, 40))
        m = np.triu(rng.random((n, n)) < rng.choice([0.02, 0.1, 0.3]), 1).astype(float)
        if trial % 3 == 1:
            i, j = sorted(rng.integers(0, n, 2))
            m[j, i] = 1.0
        elif trial % 3 == 2:
            cycle = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            m[cycle, np.roll(cycle, -1)] = 1.0
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
        expected = _peel_every_node(m)
        assert _structurally_nilpotent(m) == expected
        decisions.append(expected)
    assert 0 < sum(decisions) < len(decisions)
    for m in (np.zeros((5, 5)), shift_matrix(729), shift_matrix(6) - corner_unit(6)):
        assert _structurally_nilpotent(m) == _peel_every_node(m)


def test_is_nilpotent_margin_widens_the_bound():
    # tr m = 1e-6 and tr m^2 = 2e-6 + 1e-12 against moduli that sum to 4
    m = np.diag([1.0 + 1e-6, 1j, -1.0, -1j])
    assert is_nilpotent(m) is False
    assert is_nilpotent(m, tol=1e-5) is None


def test_generators_entrywise():
    s = shift_matrix(4)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 2] = expected[2, 3] = 1.0
    assert np.array_equal(s, expected)
    z = corner_unit(4)
    assert z[3, 0] == 1.0
    assert np.count_nonzero(z) == 1
    assert shift_matrix(1).shape == (1, 1)
    with pytest.raises(ValueError):
        shift_matrix(0)
    with pytest.raises(ValueError):
        corner_unit(0)


def test_schur_random_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        a = random_complex(n, n, rng)
        form = schur(a)
        q = form.unitary
        t = form.upper
        assert operator_norm(q.conj().T @ q - np.eye(n)) < 1e-12
        assert not np.tril(t, -1).any()
        assert operator_norm(q @ t @ q.conj().T - a) < 1e-10 * operator_norm(a)
        assert match_distance(eigenvalues(a), np.diag(t)) < 1e-8 * operator_norm(a)


def test_schur_triangular_fast_path():
    t = np.triu(random_complex(5, 5, np.random.default_rng(3)))
    # a diagonal already in nonincreasing modulus, so the ordering moves nothing
    np.fill_diagonal(t, sorted(np.diag(t), key=abs, reverse=True))
    form = schur(t)
    assert np.array_equal(form.unitary, np.eye(5))
    assert np.array_equal(form.upper, t)
    # structural zeros survive: a nilpotent triangular block keeps radius 0
    nil = shift_matrix(6)
    assert spectral_radius(schur(nil).upper) == 0.0


def test_schur_modulus_order():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        a = random_complex(n, n, rng)
        form = schur(a)
        mods = np.abs(np.diag(form.upper))
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)
        q = form.unitary
        assert operator_norm(q @ form.upper @ q.conj().T - a) < 1e-9 * operator_norm(a)
    # deterministic: same input, bitwise identical factors
    a = random_complex(7, 7, np.random.default_rng(9))
    f1 = schur(a)
    f2 = schur(a)
    assert np.array_equal(f1.upper, f2.upper)
    assert np.array_equal(f1.unitary, f2.unitary)


@pytest.mark.parametrize("factor", ["unitary", "upper"])
def test_schur_failing_gates_raise_the_exact_residual(monkeypatch, factor):
    a = random_complex(12, 12, np.random.default_rng(41))
    t0, q0 = scipy.linalg.schur(a, output="complex")
    noise = 1e-8 * random_complex(12, 12, np.random.default_rng(43))
    returned = {}

    def perturbed_schur(arr):
        t, q = t0.copy(order="F"), q0.copy(order="F")
        if factor == "unitary":
            q += noise
        else:
            t += np.triu(noise)
        returned.update(t=t, q=q)
        return t, q

    monkeypatch.setattr(_lapack, "schur", perturbed_schur)
    with pytest.raises(SchurConvergenceError) as info:
        schur(a)
    t, q = returned["t"], returned["q"]
    if factor == "unitary":
        assert str(info.value).startswith("unitarity residual")
        expected = operator_norm(q.conj().T @ q - np.eye(12))
    else:
        assert str(info.value).startswith("reconstruction residual")
        expected = operator_norm(q @ np.triu(t) @ q.conj().T - a)
    assert info.value.residual == expected


def _exact_gate(r, tol, scales, offset):
    # the gate as decided from full SVDs alone
    value = r if isinstance(r, float) else operator_norm(r)
    norm = max((operator_norm(s) for s in scales), default=0.0)
    return value if value > tol * (offset + norm) else None


@pytest.mark.parametrize("k", [-600, -300, 0, 300, 600])
def test_norm_excess_decides_as_the_exact_gate(k):
    rng = np.random.default_rng(47)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(10):
            n = int(rng.integers(1, 9))
            r = random_complex(n, n, rng) * 2.0**k
            scales = (random_complex(n, n, rng) * 2.0**k, random_complex(n, n, rng) * 2.0**(k - 1))
            for offset in (0.0, 1.0):
                ratio = operator_norm(r) / (offset + max(operator_norm(s) for s in scales))
                # clearly failing, passing only by the exact 2-norms, passing by the screen
                for tol in (0.5 * ratio, 1.5 * ratio, 100.0 * ratio):
                    for given in (r, operator_norm(r)):
                        expected = _exact_gate(given, tol, scales, offset)
                        assert _norm_excess(given, tol, scales, offset) == expected


def test_norm_excess_takes_svds_only_when_the_screen_fails(monkeypatch):
    shapes = []
    svdvals = _lapack.svdvals

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(_lapack, "svdvals", counting)
    r = np.eye(9)  # ||r||_2 = 1, ||r||_F = 3
    assert _norm_excess(r, 3.0) is None
    assert shapes == []
    # ||r||_2 <= 1 < ||r||_F: the screen fails and the exact 2-norm passes
    assert _norm_excess(r, 1.0) is None
    assert shapes == [(9, 9)]
    assert _norm_excess(r, 0.5) == 1.0


def test_norm_excess_is_scale_safe():
    tiny = np.full((4, 4), 1e-170 + 0j)
    huge = np.full((4, 4), 1e300 + 0j)
    # a 2-D Frobenius norm squares the entries, so it underflows to 0.0 here
    assert np.linalg.norm(tiny) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _norm_excess(tiny, 1e-200) == operator_norm(tiny)
        assert _norm_excess(huge, 1e-9) == operator_norm(huge)
        assert _norm_excess(1e-9 * huge, 1e-9, (huge,), offset=0.0) is None


def test_schur_convergence_error_fields():
    err = SchurConvergenceError("bad", residual=0.5)
    assert err.residual == 0.5
    assert "bad" in str(err)


def test_match_distance():
    rng = np.random.default_rng(13)
    vals = random_complex(1, 6, rng).ravel()
    perm = rng.permutation(6)
    assert match_distance(vals, vals[perm]) == 0.0
    shifted = vals.copy()
    shifted[2] += 3e-9
    assert match_distance(vals, shifted) == pytest.approx(3e-9, rel=1e-6)
    with pytest.raises(ValueError):
        match_distance(vals, vals[:5])
    assert match_distance([], []) == 0.0


def _bottleneck_by_permutations(u, v):
    cost = np.abs(u[:, None] - v[None, :])
    rows = range(u.size)
    return min(max(cost[i, p[i]] for i in rows) for p in itertools.permutations(rows))


def _multiset_pairs(rng):
    for n in range(1, 7):
        for _ in range(12):
            yield random_complex(1, n, rng).ravel(), random_complex(1, n, rng).ravel()
            # a Gaussian-integer grid: exact ties and repeated values
            grid = rng.integers(-2, 3, size=(4, n))
            yield grid[0] + 1j * grid[1], grid[2] + 1j * grid[3]
            # a cluster at 0 beside 1 and -1, as in the counterexample's power spectrum
            target = np.zeros(n, dtype=np.complex128)
            target[:2] = [1.0, -1.0][:n]
            yield target + 1e-12 * random_complex(1, n, rng).ravel(), target


def test_match_distance_is_the_bottleneck_value():
    rng = np.random.default_rng(29)
    for u, v in _multiset_pairs(rng):
        for scale in (1.0, 2.0 ** int(rng.integers(-600, 601))):
            su, sv = scale * u, scale * v
            assert match_distance(su, sv) == _bottleneck_by_permutations(su, sv)
    # the least-sum pairing (0-0, 3-(-2j)) has max sqrt(13); pairing crosswise gives 3
    assert match_distance([0.0, 3.0], [0.0, -2j]) == 3.0


def test_perfect_matching_agrees_with_permutations():
    # random bipartite graphs, sparse to dense, so both the greedy pass and
    # the augmenting paths decide some, and some have no perfect matching
    rng = np.random.default_rng(31)
    answers = set()
    for n in range(1, 7):
        for density in (0.2, 0.4, 0.6, 0.8):
            for _ in range(20):
                adjacent = rng.random((n, n)) < density
                expected = any(all(adjacent[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
                assert _perfect_matching(adjacent) == expected
                answers.add(expected)
    assert answers == {True, False}


def test_unitary_invariance_of_norms():
    rng = np.random.default_rng(17)
    a = random_complex(6, 6, rng)
    u = haar_unitary(6, rng)
    conj = u.conj().T @ a @ u
    assert operator_norm(conj) == pytest.approx(operator_norm(a), rel=1e-12)
    assert match_distance(eigenvalues(conj), eigenvalues(a)) < 1e-10 * operator_norm(a)

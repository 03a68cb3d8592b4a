"""Tests for the triangular-plus-quasinilpotent decomposition."""

import dataclasses
import sys

import numpy as np
import pytest

from blocktri import (
    BlockTridiagOperator,
    corner_compression,
    decompose,
    diagonal_part,
    eigenvalues,
    make_schedule,
    match_distance,
    operator_norm,
    quasinilpotent_part_certificate,
    shift_matrix,
)
from blocktri.operators import _assemble
from helpers import random_complex, random_operator


def test_decompose_dense_27():
    rng = np.random.default_rng(61)
    t = random_complex(27, 27, rng)
    result = decompose(t)
    norm = operator_norm(t)
    assert result.schedule.sizes == (1, 2, 6, 18)
    assert result.residuals["unitarity"] < 1e-10
    assert result.residuals["triangularity"] == 0.0
    assert result.residuals["reconstruction"] < 1e-9 * norm
    # supports of delta and quasinil are disjoint, their sum is bitwise exact
    total = result.delta + result.quasinil
    assert np.array_equal(total, result.conjugated)
    assert match_distance(eigenvalues(result.conjugated), eigenvalues(t)) <= 1e-8 * norm


@pytest.mark.parametrize("levels", [4, 5], ids=["27", "81"])
@pytest.mark.parametrize("kind", ["dense", "operator"])
def test_reported_residuals_are_frobenius_bounds(kind, levels):
    sched = make_schedule("single", levels)
    rng = np.random.default_rng(70 + levels)
    if kind == "dense":
        t = random_complex(sched.cumsums[-1], sched.cumsums[-1], rng)
        dense = t
    else:
        t = random_operator(sched, rng)
        dense = corner_compression(t, levels)
    result = decompose(t)
    u0 = result.u0
    size = u0.shape[0]
    rebuilt = {
        "unitarity": u0.conj().T @ u0 - np.eye(size),
        "reconstruction": u0.conj().T @ dense @ u0 - result.conjugated,
    }
    for name, r in rebuilt.items():
        reported = result.residuals[name]
        assert reported == pytest.approx(np.linalg.norm(r), rel=1e-12, abs=0.0)
        # ||R||_2 <= ||R||_F <= sqrt(N) ||R||_2
        exact = operator_norm(r)
        assert exact <= reported <= np.sqrt(size) * exact


def test_decompose_block_contents():
    rng = np.random.default_rng(62)
    t = random_complex(27, 27, rng)
    result = decompose(t)
    sched = result.schedule
    delta = result.delta
    quasi = result.quasinil
    for n in range(1, sched.levels + 1):
        lo, hi = sched.block_bounds(n)
        block, coupling = result.delta_blocks[n - 1]
        assert np.array_equal(delta[lo:hi, lo:hi], block)
        # each diagonal block is upper triangular with nonincreasing moduli
        assert not np.tril(block, -1).any()
        mods = np.abs(np.diag(block))
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)
        if n < sched.levels:
            lo2, hi2 = sched.block_bounds(n + 1)
            assert np.array_equal(delta[lo:hi, lo2:hi2], coupling)
            assert np.array_equal(quasi[lo2:hi2, lo:hi], result.q_blocks[n - 1])
        else:
            assert coupling is None


def test_decompose_provider_path_zero_lower():
    sched = make_schedule("single", 4)
    rng = np.random.default_rng(63)
    diag = [random_complex(k, k, rng) for k in sched.sizes]
    upper = [
        random_complex(sched.sizes[i], sched.sizes[i + 1], rng)
        for i in range(sched.levels - 1)
    ]
    op = BlockTridiagOperator(sched, diag, upper=upper)
    result = decompose(op)
    # zero lower couplings mean the quasinilpotent part vanishes identically
    assert np.count_nonzero(result.quasinil) == 0
    assert all(np.count_nonzero(b) == 0 for b in result.q_blocks)
    assert result.residuals["triangularity"] == 0.0
    assert result.residuals["reconstruction"] < 1e-9 * (1.0 + operator_norm(result.conjugated))


def test_decompose_provider_path_truncation():
    sched = make_schedule("pair", 3)
    op = random_operator(sched, np.random.default_rng(64))
    result = decompose(op, levels=2)
    assert result.schedule.sizes == (1, 4)
    assert result.conjugated.shape == (5, 5)


def test_decompose_dense_levels_contract():
    # odd sizes clip the last realized level; explicit levels demand full ones
    result = decompose(np.eye(10))
    assert result.schedule.sizes == (1, 2, 6, 1)
    with pytest.raises(ValueError):
        decompose(np.eye(10), levels=4)


def test_quasinilpotent_certificate_random():
    rng = np.random.default_rng(65)
    t = random_complex(27, 27, rng)
    result = decompose(t)
    cert = quasinilpotent_part_certificate(result)
    assert (cert.verdict, cert.tol) == ("certified_quasinilpotent", 0.0)
    for rec in cert.levels:
        assert rec.radius == 0.0
        assert rec.status == "ok"
    assert "first block subdiagonal" in cert.note
    assert [rec.level for rec in cert.levels] == [1, 2, 3, 4]


def test_quasinilpotent_certificate_tail_norms():
    # lower couplings with operator norms 2^-1, 2^-2, 2^-3: after dropping the
    # first n the remaining norm must be 2^-(n+1)
    sched = make_schedule("single", 4)
    rng = np.random.default_rng(66)
    diag = [random_complex(k, k, rng) for k in sched.sizes]
    lower = []
    for i in range(sched.levels - 1):
        b = np.zeros((sched.sizes[i + 1], sched.sizes[i]), dtype=np.complex128)
        b[0, 0] = 2.0 ** (-(i + 1))
        lower.append(b)
    op = BlockTridiagOperator(sched, diag, lower=lower)
    result = decompose(op)
    cert = quasinilpotent_part_certificate(result)
    assert cert.verdict == "certified_quasinilpotent"
    norms = [operator_norm(b) for b in result.q_blocks]
    for i, value in enumerate(norms):
        assert value == pytest.approx(2.0 ** (-(i + 1)), rel=1e-12)
    assert operator_norm(result.quasinil) == pytest.approx(0.5, rel=1e-12)


def test_windowed_tail_norms_match_full_stripped_matrix():
    # the reported tail after dropping couplings 1..n is the norm of the whole
    # assembled remainder with those couplings zeroed
    result = decompose(random_complex(81, 81, np.random.default_rng(70)))
    sched = result.schedule
    assert sched.sizes == (1, 2, 6, 18, 54)
    cert = quasinilpotent_part_certificate(result)
    for rec in cert.levels:
        n = rec.level
        stripped = _assemble(sched, None, None, (None,) * n + result.q_blocks[n:])
        assert rec.detail == f"tail after dropping couplings 1..{n}: {operator_norm(stripped):.3e}"
    assert cert.levels[-1].detail.endswith(": 0.000e+00")


def test_certificate_takes_one_norm_per_coupling(monkeypatch):
    calls = []

    def counting_norm(a):
        calls.append(np.shape(a))
        return operator_norm(a)

    result = decompose(random_complex(81, 81, np.random.default_rng(72)))
    assert len(result.q_blocks) == 4
    monkeypatch.setattr(sys.modules["blocktri.decompose"], "operator_norm", counting_norm)
    cert = quasinilpotent_part_certificate(result)
    assert cert.verdict == "certified_quasinilpotent"
    assert calls == [b.shape for b in result.q_blocks]


@pytest.mark.parametrize("rows_down", [0, 2], ids=["block-diagonal", "two-block-rows-down"])
def test_certificate_refuses_entries_off_the_first_block_subdiagonal(rows_down):
    result = decompose(random_complex(27, 27, np.random.default_rng(73)))
    sched = result.schedule
    assert sched.sizes == (1, 2, 6, 18)
    # one entry in block row 3, block column 3 - rows_down
    quasinil = result.quasinil.copy()
    quasinil[sched.block_bounds(3)[0], sched.block_bounds(3 - rows_down)[0]] = 0.5
    cert = quasinilpotent_part_certificate(dataclasses.replace(result, quasinil=quasinil))
    assert cert.verdict == "not_certified"
    assert cert.note == "remainder has entries off the first block subdiagonal"


def test_level_norms_match_full_corner():
    result = decompose(random_complex(81, 81, np.random.default_rng(71)))
    sched = result.schedule
    q = result.quasinil
    cert = quasinilpotent_part_certificate(result)
    for rec in cert.levels:
        kn = sched.size_through(rec.level)
        full = operator_norm(q[:kn, :kn]) if kn > 1 else 0.0
        assert rec.norm == pytest.approx(full, rel=1e-12, abs=0.0)
    assert cert.levels[0].norm == 0.0


def test_diagonal_part_norms_only_undecided_blocks(monkeypatch):
    calls = []

    def counting_norm(a):
        calls.append(np.shape(a))
        return operator_norm(a)

    # the gate takes its norms in linalg._norm_excess
    monkeypatch.setattr(sys.modules["blocktri.linalg"], "operator_norm", counting_norm)
    # a random first block decides the flag: one 1x1 norm, none for later blocks
    result = decompose(random_complex(27, 27, np.random.default_rng(71)))
    calls.clear()
    assert not diagonal_part(result).zero_diagonal
    assert calls == [(1, 1)]
    # exactly zero diagonals never need a norm
    sched = make_schedule("custom", sizes=(2, 3))
    op = BlockTridiagOperator(sched, [shift_matrix(2), shift_matrix(3)])
    result = decompose(op)
    calls.clear()
    assert diagonal_part(result).zero_diagonal
    assert calls == []


def test_diagonal_part_reassembles_bitwise():
    rng = np.random.default_rng(67)
    t = random_complex(27, 27, rng)
    result = decompose(t)
    parts = diagonal_part(result)
    rebuilt = parts.strict_upper.copy()
    np.fill_diagonal(rebuilt, np.concatenate(parts.normal))
    assert np.array_equal(rebuilt, result.delta)
    assert np.array_equal(rebuilt + parts.quasinil, result.conjugated)
    assert not parts.zero_diagonal


def test_diagonal_part_zero_diagonal_flag():
    # nilpotent triangular diagonal blocks keep exactly zero diagonals
    sched = make_schedule("custom", sizes=(2, 3))
    rng = np.random.default_rng(68)
    diag = [shift_matrix(2), shift_matrix(3)]
    lower = [random_complex(3, 2, rng)]
    op = BlockTridiagOperator(sched, diag, lower=lower)
    result = decompose(op)
    parts = diagonal_part(result)
    assert parts.zero_diagonal
    assert all(not d.any() for d in parts.normal)
    cert = quasinilpotent_part_certificate(result)
    assert cert.verdict == "certified_quasinilpotent"


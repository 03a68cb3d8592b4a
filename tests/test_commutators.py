"""Tests for commutator certificates, the counterexample fixture, and stripped pairs."""

import warnings

import numpy as np
import pytest

from blocktri import (
    build_counterexample,
    certify_commutator,
    conjugate_blocks,
    corner_compression,
    decay_report,
    make_schedule,
    operator_norm,
    spectrum_union_check,
    stripped_pair_checks,
    verify_counterexample,
)
from helpers import (
    block_diag_triangularizable_pair,
    haar_unitary,
    random_complex,
    random_operator,
)


def test_build_counterexample_blocks_and_decay():
    sched = make_schedule("pair", 3)
    pair = build_counterexample(sched)
    assert pair.schedule is sched
    # 1x1 generators are zero, so level-1 blocks undershoot the 1/k bound
    for n, k in enumerate(sched.sizes, start=1):
        c = pair.c_op.diag_block(n).array
        z = pair.z_op.diag_block(n).array
        if k == 1:
            assert not c.any()
            assert not z.any()
        else:
            assert operator_norm(c) == pytest.approx(1.0 / k, rel=1e-12)
            assert operator_norm(z) == pytest.approx(1.0 / k, rel=1e-12)
            assert z[k - 1, 0] == pytest.approx(1.0 / k)
    assert decay_report(pair.c_op, 3).passed
    assert decay_report(pair.z_op, 3).passed
    for op in (pair.c_op, pair.z_op):
        assert op.lower_zero_through(3)
        assert not any(op.upper_block(j).array.any() for j in (1, 2))


def test_verify_counterexample_pair_schedule():
    pair = build_counterexample(make_schedule("pair", 3))
    report = verify_counterexample(pair, n_max=3)
    assert report.passed
    by_clause = {}
    for cl in report.clauses:
        assert cl.passed, (cl.clause, cl.level, cl.detail)
        by_clause.setdefault(cl.clause, []).append(cl.level)
    assert by_clause["block_commutator_nilpotent"] == [1, 2, 3]
    assert by_clause["unscaled_power_spectrum"] == [2, 3]
    assert by_clause["corner_pair_refuted"] == [2, 3]
    assert by_clause["corner_commutator_radius_zero"] == [1, 2, 3]
    refuted = [cl for cl in report.clauses if cl.clause == "corner_pair_refuted"]
    for cl in refuted:
        assert "word" in cl.detail


def test_verify_counterexample_custom_schedule():
    pair = build_counterexample(make_schedule("custom", sizes=(3, 5, 7)))
    report = verify_counterexample(pair, n_max=3)
    assert report.passed


def test_verify_counterexample_size_two_block_fails_honestly():
    # a 2x2 block has commutator diag(1, -1)/4, which is not nilpotent
    pair = build_counterexample(make_schedule("custom", sizes=(2, 3)))
    report = verify_counterexample(pair, n_max=2)
    assert not report.passed
    failing = [cl for cl in report.clauses if not cl.passed]
    assert any(cl.clause == "block_commutator_nilpotent" and cl.level == 1 for cl in failing)


def test_verify_counterexample_level_4_is_quiet():
    # inverse iteration on the stuck corner pair overflows; that must stay silent
    pair = build_counterexample(make_schedule("pair", 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_counterexample(pair, n_max=4)
    assert report.passed


def test_verify_counterexample_range_check():
    pair = build_counterexample(make_schedule("pair", 2))
    with pytest.raises(ValueError):
        verify_counterexample(pair, n_max=3)


def test_certify_counterexample_refutes():
    pair = build_counterexample(make_schedule("pair", 3))
    report = certify_commutator(pair.c_op, pair.z_op, n_max=3)
    assert report.verdict == "refuted_hypothesis"
    assert report.first_refuted_level == 2
    level1 = report.levels[0]
    assert level1.status == "certified"
    assert level1.radius == 0.0
    for rec in report.levels[1:]:
        assert rec.status == "refuted"
        assert rec.refuting_word
        # the corner commutator is strictly lower triangular, radius exactly zero
        assert rec.radius == 0.0


def test_certify_block_diagonal_triangularizable_pairs():
    rng = np.random.default_rng(51)
    sched = make_schedule("pair", 3)
    for _ in range(5):
        c_op, z_op = block_diag_triangularizable_pair(sched, rng)
        report = certify_commutator(c_op, z_op, n_max=3)
        assert report.verdict == "certified_quasinilpotent", report.note
        for rec in report.levels:
            assert rec.status == "certified"
            assert rec.radius <= 1e-9 * (1.0 + rec.norm)
            assert "fast path" in rec.detail
        assert report.note


def test_certify_invariant_under_block_conjugation():
    rng = np.random.default_rng(52)
    sched = make_schedule("pair", 3)
    c_op, z_op = block_diag_triangularizable_pair(sched, rng)
    units = {n: haar_unitary(sched.size(n), rng) for n in (1, 2, 3)}
    c_conj = conjugate_blocks(c_op, lambda n: units[n])
    z_conj = conjugate_blocks(z_op, lambda n: units[n])
    report = certify_commutator(c_conj, z_conj, n_max=3)
    assert report.verdict == "certified_quasinilpotent"


def test_certify_default_depth_and_errors():
    pair = build_counterexample(make_schedule("pair", 3))
    report = certify_commutator(pair.c_op, pair.z_op)
    # pair default depth is min(4, levels) = 3
    assert len(report.levels) == 3
    other = random_operator(make_schedule("single", 3), np.random.default_rng(53))
    with pytest.raises(ValueError):
        certify_commutator(pair.c_op, other)
    with pytest.raises(ValueError):
        certify_commutator(pair.c_op, pair.z_op, n_max=9)


def test_spectrum_union_exact_and_random():
    assert spectrum_union_check([np.diag([1.0, 2.0]), np.diag([3.0])], tol=0.0)
    rng = np.random.default_rng(56)
    for _ in range(100):
        count = int(rng.integers(1, 6))
        blocks = []
        for _ in range(count):
            k = int(rng.integers(1, 11))
            blocks.append(random_complex(k, k, rng))
        assert spectrum_union_check(blocks)
    with pytest.raises(ValueError):
        spectrum_union_check([])


def test_stripped_pair_checks_exact_zeros():
    rng = np.random.default_rng(57)
    sched = make_schedule("pair", 3)
    for _ in range(5):
        k1 = random_operator(sched, rng)
        k2 = random_operator(sched, rng)
        report = stripped_pair_checks(k1, k2, n_max=3)
        assert report.passed
        assert report.word_len == 4
        for rec in report.levels:
            assert rec.diag_max == 0.0
            assert rec.trace_abs == 0.0
            assert rec.max_word_radius == 0.0


def test_stripped_pair_checks_word_len_zero():
    sched = make_schedule("pair", 2)
    rng = np.random.default_rng(58)
    report = stripped_pair_checks(random_operator(sched, rng), random_operator(sched, rng), word_len=0)
    assert report.passed
    assert all(rec.worst_word == "" for rec in report.levels)


def test_stripped_pair_checks_validation():
    rng = np.random.default_rng(59)
    k1 = random_operator(make_schedule("pair", 2), rng)
    k2 = random_operator(make_schedule("single", 2), rng)
    with pytest.raises(ValueError):
        stripped_pair_checks(k1, k2)
    k2 = random_operator(make_schedule("pair", 2), rng)
    with pytest.raises(ValueError):
        stripped_pair_checks(k1, k2, word_len=-1)
    with pytest.raises(ValueError):
        stripped_pair_checks(k1, k2, n_max=5)


def test_corner_commutator_strictly_lower_for_counterexample():
    pair = build_counterexample(make_schedule("pair", 3))
    cc = corner_compression(pair.c_op, 3).array
    zc = corner_compression(pair.z_op, 3).array
    comm = cc @ zc - zc @ cc
    assert not np.triu(comm).any()

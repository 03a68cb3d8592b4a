"""Acceptance suite: nine criteria, one test and one pass/fail line each.

Each test prints "ACCEPTANCE <k>: PASS ..." after its assertions, so a
verbose pytest run reads as a per-criterion scoreboard.
"""

import json
import time

import numpy as np

from blocktri import (
    block_tridiagonalize,
    build_counterexample,
    certify_commutator,
    corner_unit,
    decompose,
    eigenvalues,
    is_nilpotent,
    make_schedule,
    match_distance,
    mccoy_sample,
    operator_norm,
    quasinilpotent_part_certificate,
    read_matrix,
    shift_matrix,
    simultaneous_triangularize,
    spectrum_union_check,
    stripped_pair_checks,
    verify_block_structure,
    verify_counterexample,
    word_value,
    write_matrix,
)
from blocktri import BlockTridiagOperator
from blocktri.cli import main
from helpers import (
    block_diag_triangularizable_pair,
    conjugated_upper_pair,
    random_complex,
    random_operator,
)


def test_criterion_1_counterexample_fixture():
    started = time.monotonic()
    pair = build_counterexample(make_schedule("pair", 3))
    report = verify_counterexample(pair, n_max=3, tol=1e-9)
    elapsed = time.monotonic() - started
    assert report.passed
    for clause in report.clauses:
        assert clause.passed, (clause.clause, clause.level, clause.detail)
    refuted = {c.level: c for c in report.clauses if c.clause == "corner_pair_refuted"}
    assert sorted(refuted) == [2, 3]
    for clause in refuted.values():
        assert "word" in clause.detail
    spectra = [c for c in report.clauses if c.clause == "unscaled_power_spectrum"]
    assert [c.level for c in spectra] == [2, 3]
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS (all clauses at levels 1-3, refuted n=2,3, {elapsed:.1f}s)")


def test_criterion_2_mccoy_refutation():
    for n in range(3, 13):
        a = shift_matrix(n) / n
        b = corner_unit(n) / n
        comm = a @ b - b @ a
        word = mccoy_sample(a, b, max_word_len=max(4, n - 2), tol=1e-10)
        assert word is not None, n
        assert len(word) <= n - 2
        if len(word) == n - 2:
            assert word == "x" * (n - 2)
        assert is_nilpotent(word_value(word, a, b) @ comm, tol=1e-10) is False
        assert is_nilpotent(np.linalg.matrix_power(a, n - 2) @ comm, tol=1e-10) is False
        assert is_nilpotent(comm, tol=1e-10)
    print("ACCEPTANCE 2: PASS (x^(n-2) refutes for every 3 <= n <= 12)")


def test_criterion_3_blockwise_positive_path():
    rng = np.random.default_rng(303)
    sched = make_schedule("pair", 3)
    for _ in range(100):
        c_op, z_op = block_diag_triangularizable_pair(sched, rng)
        report = certify_commutator(c_op, z_op, n_max=3, tol=1e-9)
        assert report.verdict == "certified_quasinilpotent", report.note
        for rec in report.levels:
            assert rec.radius <= 1e-9 * (1.0 + rec.norm)
    print("ACCEPTANCE 3: PASS (100 block-diagonal pairs certified at all levels)")


def test_criterion_4_spectrum_union():
    rng = np.random.default_rng(404)
    failures = 0
    for _ in range(1000):
        count = int(rng.integers(1, 6))
        blocks = []
        for _ in range(count):
            k = int(rng.integers(1, 11))
            blocks.append(random_complex(k, k, rng))
        if not spectrum_union_check(blocks):
            failures += 1
    assert failures == 0
    print("ACCEPTANCE 4: PASS (1000 block-diagonal assemblies, zero failures)")


def test_criterion_5_triangularization_soundness():
    rng = np.random.default_rng(505)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        a, b, _ = conjugated_upper_pair(n, rng)
        cert = simultaneous_triangularize(a, b)
        assert cert.verdict == "triangularizable", n
        assert cert.residual < 1e-9
    false_witnesses = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        a = random_complex(n, n, rng)
        b = random_complex(n, n, rng)
        cert = simultaneous_triangularize(a, b)
        if cert.verdict == "triangularizable":
            u = cert.witness_unitary
            scale = 1.0 + operator_norm(a) + operator_norm(b)
            unit_res = operator_norm(u.conj().T @ u - np.eye(n))
            mass = max(
                float(np.abs(np.tril(u.conj().T @ m @ u, -1)).max()) for m in (a, b)
            )
            if unit_res > 1e-9 or mass > 1e-9 * scale:
                false_witnesses += 1
    assert false_witnesses == 0
    print("ACCEPTANCE 5: PASS (500 conjugated pairs verified, no false witnesses in 500 random pairs)")


def test_criterion_6_joint_tridiagonalization():
    rng = np.random.default_rng(606)
    for _ in range(50):
        a = random_complex(27, 27, rng)
        res = block_tridiagonalize([a])
        assert res.realized_schedule.sizes == (1, 2, 6, 18)
        residual = verify_block_structure(res.transformed[0], res.realized_schedule)
        assert residual < 1e-10, residual
        dist = match_distance(eigenvalues(a), eigenvalues(res.transformed[0]))
        assert dist <= 1e-8 * operator_norm(a)
    for _ in range(20):
        a = random_complex(25, 25, rng)
        b = random_complex(25, 25, rng)
        res = block_tridiagonalize([a, b])
        assert res.realized_schedule.sizes == (1, 4, 20)
        for source, banded in zip((a, b), res.transformed):
            residual = verify_block_structure(banded, res.realized_schedule)
            assert residual < 1e-10, residual
            dist = match_distance(eigenvalues(source), eigenvalues(banded))
            assert dist <= 1e-8 * operator_norm(source)
    print("ACCEPTANCE 6: PASS (70 padded runs hit (1,2,6,18)/(1,4,20) with band residual < 1e-10)")


def test_criterion_7_structure_decomposition():
    rng = np.random.default_rng(707)
    for size in (27, 81):
        for _ in range(25):
            t = random_complex(size, size, rng)
            result = decompose(t)
            norm = operator_norm(t)
            assert result.residuals["reconstruction"] < 1e-9 * norm
            assert result.residuals["triangularity"] < 1e-10
            cert = quasinilpotent_part_certificate(result)
            assert cert.verdict == "certified_quasinilpotent"
            for rec in cert.levels:
                assert rec.radius <= 1e-12
    # zero lower couplings force an exactly zero quasinilpotent part
    sched = make_schedule("single", 4)
    for _ in range(10):
        diag = [random_complex(k, k, rng) for k in sched.sizes]
        upper = [
            random_complex(sched.sizes[i], sched.sizes[i + 1], rng)
            for i in range(sched.levels - 1)
        ]
        op = BlockTridiagOperator(sched, diag, upper=upper)
        result = decompose(op)
        assert np.count_nonzero(result.quasinil) == 0
    print("ACCEPTANCE 7: PASS (50 decompositions within tolerance, zero lower couplings give zero Q)")


def test_criterion_8_stripped_pair_universality():
    rng = np.random.default_rng(808)
    sched = make_schedule("pair", 3)
    for _ in range(100):
        k1 = random_operator(sched, rng)
        k2 = random_operator(sched, rng)
        report = stripped_pair_checks(k1, k2, n_max=3, tol=1e-9, word_len=4)
        assert report.passed
        for rec in report.levels:
            assert rec.diag_max == 0.0
            assert rec.trace_abs == 0.0
            assert rec.max_word_radius <= 1e-9
    print("ACCEPTANCE 8: PASS (100 stripped pairs: exact zero diagonals and traces, word radii <= 1e-9)")


def test_criterion_9_cli_determinism_and_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(909)
    path = str(tmp_path / "input.json")
    write_matrix(random_complex(27, 27, rng), path)
    commands = [
        ["counterexample", "--levels", "3", "--verify"],
        ["certify", "--counterexample", "--levels", "3"],
        ["decompose", path],
    ]
    for argv in commands:
        first_code = main(argv)
        first_out = capsys.readouterr().out
        second_code = main(argv)
        second_out = capsys.readouterr().out
        assert first_code == second_code
        assert first_out == second_out
        json.loads(first_out)
    mpath = str(tmp_path / "m.json")
    for _ in range(1000):
        rows = int(rng.integers(1, 11))
        cols = int(rng.integers(1, 11))
        m = random_complex(rows, cols, rng)
        write_matrix(m, mpath)
        assert np.array_equal(read_matrix(mpath), m)
    print("ACCEPTANCE 9: PASS (byte-identical reports, 1000 exact matrix round trips)")

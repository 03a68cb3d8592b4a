"""Tests for commutator certificates, the counterexample fixture, and stripped pairs."""

import itertools
import warnings

import numpy as np
import pytest

from blocktri import _lapack, commutators, operators, triangular
from blocktri import (
    BlockTridiagOperator,
    build_counterexample,
    certify_commutator,
    corner_compression,
    is_nilpotent,
    make_schedule,
    operator_from_matrix,
    operator_norm,
    simultaneous_triangularize,
    spectral_radius,
    spectrum_union_check,
    stripped_pair_checks,
    verify_counterexample,
    word_value,
    write_matrix,
)
from blocktri.cli import _operators_from_files
from blocktri.commutators import (
    ClauseResult,
    CounterexamplePair,
    StrippedChecksReport,
    StrippedLevelRecord,
)
from blocktri.linalg import _block_diag, eigenvalues, match_distance
from helpers import (
    block_diag_triangularizable_pair,
    conjugated_upper_pair,
    counting,
    haar_unitary,
    random_complex,
    random_operator,
)


def test_build_counterexample_blocks_and_decay():
    sched = make_schedule("pair", 3)
    pair = build_counterexample(sched)
    assert pair.schedule is sched
    assert pair.decay == tuple(1.0 / k for k in sched.sizes)
    # 1x1 generators are zero, so level-1 blocks undershoot the 1/k bound
    for n, k in enumerate(sched.sizes, start=1):
        c = pair.c_op.diag_block(n)
        z = pair.z_op.diag_block(n)
        if k == 1:
            assert not c.any()
            assert not z.any()
        else:
            assert operator_norm(c) == pytest.approx(pair.decay[n - 1], rel=1e-12)
            assert operator_norm(z) == pytest.approx(pair.decay[n - 1], rel=1e-12)
            assert z[k - 1, 0] == pytest.approx(1.0 / k)
    for op in (pair.c_op, pair.z_op):
        assert op.lower_zero_through(3)
        assert not any(op.upper_block(j).any() for j in (1, 2))


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
    # no numpy warning may escape the check at block size 100
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
        assert report.note == "corner-level certificate: it covers corners 1..3 and nothing beyond level 3"


def test_certify_invariant_under_block_conjugation():
    rng = np.random.default_rng(52)
    sched = make_schedule("pair", 3)
    c_op, z_op = block_diag_triangularizable_pair(sched, rng)
    # a level-respecting unitary: the direct sum of one Haar block per level
    u = _block_diag([haar_unitary(k, rng) for k in sched.sizes])
    c_conj, z_conj = (
        operator_from_matrix(u.conj().T @ corner_compression(op, 3) @ u, sched, band_tol=1e-12)
        for op in (c_op, z_op)
    )
    for c, z in ((c_op, z_op), (c_conj, z_conj), (z_op, c_op), (z_conj, c_conj)):
        report = certify_commutator(c, z, n_max=3)
        assert report.verdict == "certified_quasinilpotent"


def test_certify_default_depth_and_errors():
    pair = build_counterexample(make_schedule("pair", 3))
    report = certify_commutator(pair.c_op, pair.z_op)
    # n_max=None checks the operators' whole depth
    assert len(report.levels) == 3
    other = random_operator(make_schedule("single", 3), np.random.default_rng(53))
    with pytest.raises(ValueError):
        certify_commutator(pair.c_op, other)
    with pytest.raises(ValueError):
        certify_commutator(pair.c_op, pair.z_op, n_max=9)


def test_spectrum_union_exact_and_random():
    assert spectrum_union_check([np.diag([1.0, 2.0]), np.diag([3.0])])
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


def test_stripped_pair_checks_default_depth_is_the_whole_schedule():
    # no kind-specific cap: a depth-5 pair schedule is checked through level 5
    rng = np.random.default_rng(57)
    sched = make_schedule("pair", 5)
    report = stripped_pair_checks(random_operator(sched, rng), random_operator(sched, rng))
    assert [rec.level for rec in report.levels] == [1, 2, 3, 4, 5]


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
    cc = corner_compression(pair.c_op, 3)
    zc = corner_compression(pair.z_op, 3)
    comm = cc @ zc - zc @ cc
    assert not np.triu(comm).any()


def test_counterexample_block_commutators_are_structurally_nilpotent():
    # [C_j, Z_j] = (e_{k-1} e_1^T - e_k e_2^T) / k^2: an acyclic pattern
    pair = build_counterexample(make_schedule("pair", 4))
    for j in range(1, 5):
        c = pair.c_op.diag_block(j)
        z = pair.z_op.diag_block(j)
        assert is_nilpotent(c @ z - z @ c) is True


def test_certify_detail_names_the_route():
    # c = 2z + 3I commutes with z; couplings are nonzero, so levels 2 and 3
    # go to the whole corner, where the Schur-flag route decides
    sched = make_schedule("pair", 3)
    z = random_operator(sched, np.random.default_rng(60))
    c = BlockTridiagOperator(
        sched,
        [2.0 * z.diag_block(j) + 3.0 * np.eye(sched.sizes[j - 1]) for j in (1, 2, 3)],
        [2.0 * z.upper_block(j) for j in (1, 2)],
        [2.0 * z.lower_block(j) for j in (1, 2)],
    )
    report = certify_commutator(c, z, n_max=3)
    assert report.verdict == "certified_quasinilpotent"
    assert "fast path" in report.levels[0].detail
    assert [rec.detail for rec in report.levels[1:]] == ["whole corner, Schur-flag route"] * 2
    rng = np.random.default_rng(61)
    report = certify_commutator(random_operator(sched, rng), random_operator(sched, rng), n_max=2)
    assert report.levels[1].detail.startswith("whole corner, word search: |tr M^")
    pair = build_counterexample(sched)
    report = certify_commutator(pair.c_op, pair.z_op, n_max=3)
    assert "word re-verified on the corner: |tr M^" in report.levels[2].detail


def test_certify_refutes_past_an_undecided_block(monkeypatch):
    # block 1, 100 x 100, is undecided; block 2's word xx re-verifies on the
    # level-2 corner and refutes it, and level 1's corner is block 1 itself
    pair = build_counterexample(make_schedule("custom", sizes=(100, 4)))
    searched = []
    triangularize = commutators.simultaneous_triangularize

    def logged(a, b, **opts):
        searched.append(a.shape[0])
        return triangularize(a, b, **opts)

    monkeypatch.setattr(commutators, "simultaneous_triangularize", logged)
    report = certify_commutator(pair.c_op, pair.z_op)
    assert [rec.status for rec in report.levels] == ["inconclusive", "refuted"]
    assert report.levels[0].detail == "whole corner, undecided by Schur flag, words and deflation"
    assert report.levels[1].detail.startswith("diagonal block pair 2 refuted; word re-verified on the corner: |tr M^")
    assert report.levels[1].refuting_word == "xx"
    # no 100 x 100 pair is searched twice, and the 104 x 104 corner not at all
    assert searched == [100, 4]


def test_corner_refutation_takes_no_schur_form(monkeypatch):
    # clause (iii) asks only whether a word refutes; a Schur-flag witness never could
    schurs = counting(monkeypatch, _lapack, "schur")
    report = verify_counterexample(build_counterexample(make_schedule("pair", 4)), n_max=4)
    assert report.passed
    assert schurs == []


_VERIFIED_SCHEDULES = [
    *((make_schedule("pair", n), f"pair-{n}") for n in (2, 3, 4)),
    *((make_schedule("single", n), f"single-{n}") for n in (3, 4, 5)),
    *(
        (make_schedule("custom", sizes=sizes), "custom-" + ",".join(map(str, sizes)))
        # the last two keep their whole-corner words only when the smallest block goes first
        for sizes in ((3, 4, 5, 6), (3, 9, 27), (5, 5, 5, 5), (1, 3, 7, 20), (1, 4, 20, 100, 3), (100, 4))
    ),
]


@pytest.mark.parametrize(
    "schedule, word_len",
    [
        *(pytest.param(schedule, None, id=name) for schedule, name in _VERIFIED_SCHEDULES),
        *(
            pytest.param(schedule, word_len, id=f"{name}-word-len-{word_len}")
            for word_len in (1, 2, 6)
            for schedule, name in _VERIFIED_SCHEDULES
        ),
    ],
)
def test_corner_refutation_agrees_with_simultaneous_triangularize(schedule, word_len):
    pair = build_counterexample(schedule)
    report = verify_counterexample(pair, n_max=schedule.levels, word_len=word_len)
    clauses = [cl for cl in report.clauses if cl.clause == "corner_pair_refuted"]
    assert [cl.level for cl in clauses] == list(range(2, schedule.levels + 1))
    if word_len is None:  # verify_counterexample's default word length
        word_len = max(4, min((k - 2 for k in schedule.sizes if k >= 3), default=0))
    for cl in clauses:
        cert = simultaneous_triangularize(
            corner_compression(pair.c_op, cl.level), corner_compression(pair.z_op, cl.level),
            word_len=word_len,
        )
        refuted = cert.verdict == "refuted"
        detail = f"verdict refuted, word {cert.refuting_word}" if refuted else "no refuting word"
        assert (cl.passed, cl.detail) == (refuted, detail), cl.level


def _searched_sizes(monkeypatch):
    """Log the order of each matrix that verify_counterexample hands to the word search."""
    sizes = []
    search = commutators._word_refutation

    def logged(a, b, word_len, seed):
        sizes.append(a.shape[0])
        return search(a, b, word_len, seed)

    monkeypatch.setattr(commutators, "_word_refutation", logged)
    return sizes


def test_corner_refutation_searches_blocks_not_the_125_corner(monkeypatch):
    sizes = _searched_sizes(monkeypatch)
    report = verify_counterexample(build_counterexample(make_schedule("pair", 4)), n_max=4)
    assert report.passed
    # blocks 1 and 2 once each, smallest first; block 2's word xx re-verifies on every corner
    assert sizes == [1, 4]
    words = [cl.detail for cl in report.clauses if cl.clause == "corner_pair_refuted"]
    assert words == ["verdict refuted, word xx"] * 3


def _dense_work(monkeypatch):
    """Log the dense work of verify_counterexample: corner assemblies by level, and matrix powers."""
    assembled = []
    compress = commutators.corner_compression
    assemble = operators._assemble

    def logged_compression(op, n):
        assembled.append(("corner_compression", n))
        return compress(op, n)

    def logged_assemble(schedule, *blocks):
        assembled.append(("_assemble", schedule.levels))
        return assemble(schedule, *blocks)

    monkeypatch.setattr(commutators, "corner_compression", logged_compression)
    monkeypatch.setattr(operators, "_assemble", logged_assemble)
    return assembled, counting(monkeypatch, np.linalg, "matrix_power")


@pytest.mark.parametrize(
    "schedule, word_len, passed",
    [
        pytest.param(make_schedule("pair", 4), None, True, id="pair-4"),
        pytest.param(make_schedule("pair", 5), None, True, id="pair-5"),
        # the single schedule's size-2 block fails honestly
        pytest.param(make_schedule("single", 5), None, False, id="single-5"),
        # with one-letter words no block word refutes the second corner, which stays unassembled
        pytest.param(make_schedule("custom", sizes=(100, 4)), 1, False, id="custom-100,4-word-len-1"),
    ],
)
def test_verify_counterexample_forms_no_dense_corner(monkeypatch, schedule, word_len, passed):
    # every corner is block diagonal: its quantities are sums or unions of block quantities
    pair = build_counterexample(schedule)
    assembled, powers = _dense_work(monkeypatch)
    report = verify_counterexample(pair, word_len=word_len)
    assert report.passed == passed
    assert assembled == []
    assert powers == []


def _dense_word_witness(word, a, b):
    """(k, trace, bound) of the trace test of ``word`` on the dense pair (a, b), else None: the reference."""
    pair = triangular._normalized_pair(a, b)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        traces, bounds = triangular._one_word_traces(word, pair, triangular._WORD_MARGIN)
    if not (traces > bounds).any():
        return None
    return triangular._refutation(word, traces, bounds)[1:]


def _dense_clauses(pair, n_max, word_len):
    """Clauses (ii)-(iv) of verify_counterexample on dense corners, a matrix power and corner commutators."""
    sizes = pair.schedule.sizes
    if word_len is None:
        word_len = max(4, min((k - 2 for k in sizes[:n_max] if k >= 3), default=0))
    clauses = []
    for j in range(1, n_max + 1):
        k = sizes[j - 1]
        if k < 3:
            continue
        a = pair.c_op.diag_block(j) * k
        b = pair.z_op.diag_block(j) * k
        val = np.linalg.matrix_power(a, k - 2) @ (a @ b - b @ a)
        target = np.zeros(k, dtype=np.complex128)
        target[:2] = 1.0, -1.0
        dist = match_distance(eigenvalues(val), target)
        clauses.append(ClauseResult("unscaled_power_spectrum", j, dist <= 1e-9, f"match distance {dist:.3e}"))
    corners = [
        (corner_compression(pair.c_op, j), corner_compression(pair.z_op, j)) for j in range(1, n_max + 1)
    ]
    block_words = {}

    def block_word(m):  # searched once, and only when reached: a large block's search is slow
        if m not in block_words:
            cert = triangular._word_refutation(pair.c_op.diag_block(m), pair.z_op.diag_block(m), word_len, 0)
            block_words[m] = None if cert is None else cert.refuting_word
        return block_words[m]

    for j in range(2, n_max + 1):
        cc, zc = corners[j - 1]
        candidates = (block_word(m) for m in sorted(range(1, j + 1), key=lambda m: (sizes[m - 1], m)))
        word = next((w for w in candidates if w is not None and _dense_word_witness(w, cc, zc)), None)
        # the verifier has no whole-corner search; here it checks that such a search decides nothing more
        if word is None:
            cert = triangular._word_refutation(cc, zc, word_len, 0)
            word = None if cert is None else cert.refuting_word
        detail = "no refuting word" if word is None else f"verdict refuted, word {word}"
        clauses.append(ClauseResult("corner_pair_refuted", j, word is not None, detail))
    for j, (cc, zc) in enumerate(corners, start=1):
        radius = spectral_radius(cc @ zc - zc @ cc)
        clauses.append(ClauseResult("corner_commutator_radius_zero", j, radius == 0.0, f"radius {radius!r}"))
    return clauses


@pytest.mark.parametrize(
    "schedule, word_len",
    [
        *(
            pytest.param(schedule, word_len, id=f"{name}-word-len-{word_len}")
            for word_len in (None, 1, 2, 6)
            for schedule, name in _VERIFIED_SCHEDULES
        ),
        pytest.param(make_schedule("pair", 5), None, id="pair-5"),
        # k C_j rounds off the shift at k = 49 and 98 (fl(1/k) k < 1): clause (ii) stays dense there
        pytest.param(make_schedule("custom", sizes=(3, 49, 98)), None, id="custom-3,49,98"),
    ],
)
def test_blockwise_clauses_match_the_dense_reference(schedule, word_len):
    pair = build_counterexample(schedule)
    report = verify_counterexample(pair, n_max=schedule.levels, word_len=word_len)
    got = [cl for cl in report.clauses if cl.clause != "block_commutator_nilpotent"]
    assert got == _dense_clauses(pair, schedule.levels, word_len)


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_blockwise_trace_test_never_refutes_a_triangularizable_direct_sum(seed):
    # each block pair shares a triangularizing unitary, so no word may refute the direct sum
    rng = np.random.default_rng(seed)
    blocks = [conjugated_upper_pair(k, rng)[:2] for k in (3, 9, 27)]
    words = ["".join(w) for length in range(5) for w in itertools.product("xy", repeat=length)]
    for ea, eb in itertools.product((-600, 0, 600), repeat=2):
        a_blocks = [a * 2.0**ea for a, _ in blocks]
        b_blocks = [b * 2.0**eb for _, b in blocks]
        for word in words:
            assert triangular._word_witness(word, a_blocks, b_blocks) is None, (word, ea, eb)
    a, b = (_block_diag(ops) for ops in zip(*blocks))
    assert all(_dense_word_witness(word, a, b) is None for word in words)


@pytest.mark.parametrize("schedule", [pytest.param(s, id=name) for s, name in _VERIFIED_SCHEDULES])
def test_blockwise_trace_test_refutes_exactly_where_the_dense_one_does(schedule):
    pair = build_counterexample(schedule)
    blocks = [(pair.c_op.diag_block(j), pair.z_op.diag_block(j)) for j in range(1, schedule.levels + 1)]
    words = ["".join(w) for length in range(4) for w in itertools.product("xy", repeat=length)]
    for j in range(1, schedule.levels + 1):
        cc, zc = corner_compression(pair.c_op, j), corner_compression(pair.z_op, j)
        c_blocks, z_blocks = zip(*blocks[:j])
        for word in words:
            got = triangular._word_witness(word, c_blocks, z_blocks)
            want = _dense_word_witness(word, cc, zc)
            assert (got is None) == (want is None), (j, word)
            if got is not None:
                assert got[0] == want[0]
                assert got[1:] == pytest.approx(want[1:], rel=1e-12, abs=0.0)


def test_verify_counterexample_needs_a_block_diagonal_pair():
    sched = make_schedule("pair", 3)
    pair = build_counterexample(sched)
    coupled = BlockTridiagOperator(
        sched, [pair.c_op.diag_block(j) for j in (1, 2, 3)], lower=[np.ones((4, 1)), np.zeros((20, 4))]
    )
    bad = CounterexamplePair(sched, coupled, pair.z_op, pair.decay)
    assert verify_counterexample(bad, n_max=1).passed
    with pytest.raises(ValueError, match="block diagonal through level 2"):
        verify_counterexample(bad, n_max=2)


def _lower_part(op):
    """The operator that keeps only the lower coupling blocks of ``op``."""
    lower = [op.lower_block(m) for m in range(1, op.levels)]
    return BlockTridiagOperator(op.schedule, None, lower=lower)


def _stripped_reference(k1, k2, n_max, word_len, tol=1e-9):
    """stripped_pair_checks by brute force: every word up to ``word_len`` through word_value."""
    q1, q2 = _lower_part(k1), _lower_part(k2)
    records = []
    for n in range(1, n_max + 1):
        a = corner_compression(q1, n)
        b = corner_compression(q2, n)
        comm = a @ b - b @ a
        worst_radius, worst_word = 0.0, ""
        for length in range(word_len + 1):
            for letters in itertools.product("xy", repeat=length):
                word = "".join(letters)
                radius = spectral_radius(word_value(word, a, b) @ comm)
                if radius > worst_radius:
                    worst_radius, worst_word = radius, word
        diag_max = float(np.abs(np.diag(comm)).max())
        trace_abs = float(abs(np.trace(comm)))
        records.append(
            StrippedLevelRecord(
                level=n, diag_max=diag_max, trace_abs=trace_abs, max_word_radius=worst_radius,
                worst_word=worst_word,
                passed=worst_radius <= tol and diag_max == 0.0 and trace_abs == 0.0,
            )
        )
    return StrippedChecksReport(
        levels=tuple(records), word_len=word_len, passed=all(r.passed for r in records)
    )


def test_stripped_checks_match_full_enumeration_on_cli_banded_operators(tmp_path):
    rng = np.random.default_rng(62)
    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.json"))
        write_matrix(rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25)), paths[-1])
    (k1, k2), tri, _ = _operators_from_files(paths)
    levels = tri.realized_schedule.levels
    assert tri.realized_schedule.sizes == (1, 4, 20)
    report = stripped_pair_checks(k1, k2, n_max=levels, word_len=4)
    assert report == _stripped_reference(k1, k2, levels, 4)


def test_stripped_checks_match_full_enumeration_at_pair_depth_four(tmp_path):
    # the only pair depth at which a nonempty word reaches the commutator:
    # at level 4, w = x or y times the level-3 commutator block
    rng = np.random.default_rng(65)
    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.json"))
        write_matrix(random_complex(125, 125, rng), paths[-1])
    (k1, k2), tri, _ = _operators_from_files(paths)
    assert tri.realized_schedule.sizes == (1, 4, 20, 100)
    report = stripped_pair_checks(k1, k2, word_len=4)
    assert report == _stripped_reference(k1, k2, 4, 4)


def test_stripped_checks_match_full_enumeration_below_single_depth():
    sched = make_schedule("single", 5)
    rng = np.random.default_rng(66)
    k1 = random_operator(sched, rng)
    k2 = random_operator(sched, rng)
    for n_max in (1, 2, 4):
        assert stripped_pair_checks(k1, k2, n_max=n_max) == _stripped_reference(k1, k2, n_max, 4)


def test_stripped_checks_fail_under_a_negative_tolerance():
    sched = make_schedule("pair", 3)
    rng = np.random.default_rng(67)
    k1 = random_operator(sched, rng)
    k2 = random_operator(sched, rng)
    report = stripped_pair_checks(k1, k2, tol=-1e-9)
    assert not report.passed
    assert not any(rec.passed for rec in report.levels)
    assert report == _stripped_reference(k1, k2, 3, 4, tol=-1e-9)


@pytest.mark.parametrize("word_len", [0, 1, 2, 4, 8])
def test_stripped_checks_match_full_enumeration_on_dense_lower_blocks(word_len):
    # on the deepest levels every word up to word_len letters is nonzero
    sched = make_schedule("custom", sizes=(2, 3, 3, 4, 4, 5))
    rng = np.random.default_rng(63)
    k1 = random_operator(sched, rng)
    k2 = random_operator(sched, rng)
    report = stripped_pair_checks(k1, k2, n_max=6, word_len=word_len)
    assert report == _stripped_reference(k1, k2, 6, word_len)


def test_stripped_checks_match_full_enumeration_when_products_cancel():
    # m @ m is exactly zero, so every word of two or more letters cancels at
    # level 3, one length before the block structure forces it
    m = np.array([[1.0, 1.0], [-1.0, -1.0]])
    sched = make_schedule("custom", sizes=(2, 2, 2))
    rng = np.random.default_rng(64)
    k1, k2 = (
        BlockTridiagOperator(sched, [random_complex(2, 2, rng) for _ in range(3)], None, [s * m, t * m])
        for s, t in ((1.0, 2.0), (-3.0, 0.5))
    )
    assert [len(words) for words, _ in triangular._word_levels(m, 2.0 * m, 6)] == [1, 2]
    q1, q2 = _lower_part(k1), _lower_part(k2)
    a, b = (corner_compression(q, 3) for q in (q1, q2))
    assert [len(words) for words, _ in triangular._word_levels(a, b, 6)] == [1, 2]
    report = stripped_pair_checks(k1, k2, n_max=3, word_len=6)
    assert report == _stripped_reference(k1, k2, 3, 6)

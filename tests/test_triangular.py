"""Tests for word refutations and pair triangularization."""

import warnings

import numpy as np
import pytest

from blocktri import _lapack, triangular
from blocktri import (
    corner_unit,
    is_nilpotent,
    mccoy_sample,
    operator_norm,
    shift_matrix,
    simultaneous_triangularize,
    word_value,
)
from helpers import (
    conjugated_upper_pair,
    counting,
    degenerate_diagonal_pair,
    haar_unitary,
    jordan_pair,
    random_complex,
    separated_upper,
)


def scaled_block_pair(n):
    return shift_matrix(n) / n, corner_unit(n) / n


def test_word_value():
    a = random_complex(3, 3, np.random.default_rng(34))
    b = random_complex(3, 3, np.random.default_rng(35))
    assert np.array_equal(word_value("", a, b), np.eye(3))
    assert np.array_equal(word_value("x", a, b), a)
    assert np.array_equal(word_value("xy", a, b), a @ b)
    assert np.array_equal(word_value("yxx", a, b), b @ a @ a)
    with pytest.raises(ValueError):
        word_value("xz", a, b)


def test_mccoy_sample_on_scaled_blocks():
    # first refuting word for the 5x5 block pair is xxx, in shortest-then-lex order
    a, b = scaled_block_pair(5)
    assert mccoy_sample(a, b, max_word_len=4) == "xxx"
    a, b = scaled_block_pair(4)
    assert mccoy_sample(a, b, max_word_len=4) == "xx"
    # 2x2 blocks are refuted by the empty word: [a, b] itself is not nilpotent
    a, b = scaled_block_pair(2)
    assert mccoy_sample(a, b, max_word_len=4) == ""


def test_mccoy_sample_commuting_returns_none():
    a = np.diag([1.0, 2.0])
    assert mccoy_sample(a, a @ a, max_word_len=5) is None


def test_mccoy_sample_samples_no_word_past_a_vanishing_length(monkeypatch):
    # every word of length 6 or more over strictly upper 6x6 matrices is
    # exactly zero, so enumeration ends there, short of the cap of 11, and
    # none of the 64 sampled words of length 12..16 can refute
    rng = np.random.default_rng(36)
    a, b = (np.triu(random_complex(6, 6, rng), 1) for _ in range(2))
    assert triangular._exhaustive_cap(6, 16) == 11
    levels = counting(monkeypatch, triangular, "_word_traces")
    sampled = counting(monkeypatch, triangular, "_one_word_traces")
    assert mccoy_sample(a, b, max_word_len=16) is None
    assert (len(levels), sampled) == (6, [])


def test_mccoy_sample_samples_past_a_cap_that_no_length_vanished_by(monkeypatch):
    # with the cap at 1, the 5x5 block pair's refuting word xxx lies past
    # the enumerated lengths, none of which vanishes, so the samples find it
    monkeypatch.setattr(triangular, "_exhaustive_cap", lambda n, max_word_len: min(1, max_word_len))
    sampled = counting(monkeypatch, triangular, "_one_word_traces")
    assert mccoy_sample(*scaled_block_pair(5), max_word_len=4) == "xxx"
    assert len(sampled) == 64


def test_mccoy_sample_rejects_negative_margin():
    # a negative margin would push the bounds below zero and let any
    # nonzero trace refute a triangularizable pair
    a, b, _ = conjugated_upper_pair(5, np.random.default_rng(35))
    for pair in ((a, b), (a, a)):
        with pytest.raises(ValueError, match="tol"):
            mccoy_sample(*pair, tol=-1.0)


def test_mccoy_never_refutes_triangularizable_pairs():
    # McCoy necessity: a triangularizable pair admits no refuting word
    rng = np.random.default_rng(36)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        a, b, _ = conjugated_upper_pair(n, rng)
        assert mccoy_sample(a, b, max_word_len=4) is None


def test_mccoy_refutations_verify():
    rng = np.random.default_rng(37)
    hits = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        a = random_complex(n, n, rng)
        b = random_complex(n, n, rng)
        word = mccoy_sample(a, b, max_word_len=4)
        if word is None:
            continue
        hits += 1
        comm = a @ b - b @ a
        assert is_nilpotent(word_value(word, a, b) @ comm) is False
    assert hits > 0


def test_mccoy_deterministic():
    rng = np.random.default_rng(38)
    a = random_complex(6, 6, rng)
    b = random_complex(6, 6, rng)
    w1 = mccoy_sample(a, b, max_word_len=8, samples=32, seed=5)
    w2 = mccoy_sample(a, b, max_word_len=8, samples=32, seed=5)
    assert w1 == w2


def test_triangularize_conjugated_pairs():
    rng = np.random.default_rng(39)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        a, b, _ = conjugated_upper_pair(n, rng)
        cert = simultaneous_triangularize(a, b)
        assert cert.verdict == "triangularizable"
        assert cert.residual < 1e-9
        assert cert.unitarity_residual < 1e-10
        u = cert.witness_unitary
        for m in (a, b):
            conj = u.conj().T @ m @ u
            mass = float(np.abs(np.tril(conj, -1)).max())
            assert mass < 1e-9 * (1.0 + operator_norm(a) + operator_norm(b))


def test_triangularize_pair_with_itself():
    a = random_complex(7, 7, np.random.default_rng(40))
    cert = simultaneous_triangularize(a, a)
    assert cert.verdict == "triangularizable"


def test_triangularize_already_upper():
    rng = np.random.default_rng(41)
    a = np.triu(random_complex(6, 6, rng))
    b = np.triu(random_complex(6, 6, rng))
    cert = simultaneous_triangularize(a, b)
    assert cert.verdict == "triangularizable"
    assert cert.residual < 1e-9


def test_triangularize_refutes_block_pair():
    a, b = scaled_block_pair(5)
    cert = simultaneous_triangularize(a, b)
    assert cert.verdict == "refuted"
    assert cert.refuting_word == "xxx"
    assert cert.witness_unitary is None
    comm = a @ b - b @ a
    assert is_nilpotent(word_value(cert.refuting_word, a, b) @ comm) is False
    # the Schur-flag route fails its gate on every block size; words still refute
    for n in range(2, 9):
        a, b = scaled_block_pair(n)
        cert = simultaneous_triangularize(a, b)
        assert (cert.verdict, cert.refuting_word) == ("refuted", "x" * (n - 2))
        cert = simultaneous_triangularize(b, a)
        assert (cert.verdict, cert.refuting_word) == ("refuted", "y" * (n - 2))


def test_triangularize_refutation_is_conjugation_invariant():
    rng = np.random.default_rng(42)
    a, b = scaled_block_pair(5)
    for _ in range(5):
        u = haar_unitary(5, rng)
        cert = simultaneous_triangularize(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert cert.verdict == "refuted"


def test_triangularize_trivial_and_errors():
    cert = simultaneous_triangularize(np.ones((1, 1)), np.ones((1, 1)))
    assert cert.verdict == "triangularizable"
    with pytest.raises(ValueError):
        simultaneous_triangularize(np.eye(2), np.eye(3))


def test_triangularize_deterministic():
    rng = np.random.default_rng(43)
    a = random_complex(5, 5, rng)
    b = random_complex(5, 5, rng)
    c1 = simultaneous_triangularize(a, b, seed=3)
    c2 = simultaneous_triangularize(a, b, seed=3)
    assert c1.verdict == c2.verdict
    assert c1.refuting_word == c2.refuting_word


@pytest.mark.parametrize("n", [50, 100])
def test_schur_flag_route_needs_few_svds(monkeypatch, n):
    rng = np.random.default_rng(44 + n)
    u = haar_unitary(n, rng)
    a = u @ separated_upper(n, rng) @ u.conj().T
    b = u @ separated_upper(n, rng) @ u.conj().T
    svds = []
    for owner, name in ((_lapack, "svdvals"), (np.linalg, "svd")):
        svds.append(counting(monkeypatch, owner, name))
    deflations = counting(monkeypatch, triangular, "_deflate")
    cert = simultaneous_triangularize(a, b)
    assert cert.verdict == "triangularizable"
    assert cert.residual < 1e-9 and cert.unitarity_residual < 1e-10
    # the two input norms (the unitarity residual is a Frobenius norm)
    assert sum(map(len, svds)) <= 3
    assert deflations == []


def test_repeated_combination_eigenvalue_falls_back_to_deflation(monkeypatch):
    # commuting pairs with a degenerate spectrum: every combination a + t b
    # has an exactly repeated eigenvalue, and the flag, which keeps tied
    # eigenvalues in Schur order, decides them without deflation
    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], dtype=np.complex128)
    pairs = [
        (np.diag([1.0, 1.0, 2.0, 3.0]).astype(np.complex128), np.diag([5.0, 5.0, 1.0, 0.0])),
        (jordan, jordan @ jordan),
        (np.eye(4), 2.0 * np.eye(4)),
    ]
    # upper triangular pairs with repeated diagonals: the flag decides the
    # first only when a tied eigenvalue waits for the one before it in Schur
    # order, the second only when the leak between tied eigenvalues is ignored
    upper = [
        (
            [[2, -1, -2, -2, -2, 2], [0, 1, 0, 1, -1, 0], [0, 0, 2, 0, -1, 0],
             [0, 0, 0, 1, -1, 0], [0, 0, 0, 0, 2, -1], [0, 0, 0, 0, 0, 2]],
            [[6, 2, 0, -1, 1, 1], [0, 3, -2, -2, -1, 1], [0, 0, 6, 1, 2, -2],
             [0, 0, 0, 3, -1, 0], [0, 0, 0, 0, 6, 0], [0, 0, 0, 0, 0, 6]],
        ),
        (
            [[2, 0, 0, 1, 2, 0], [0, 2, -2, 0, -1, -1], [0, 0, 1, 1, 2, 1],
             [0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 2, 2], [0, 0, 0, 0, 0, 2]],
            [[0, 2, -1, 1, 2, 1], [0, 0, 1, 2, -1, -1], [0, 0, 0, -1, 2, -2],
             [0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
        ),
    ]
    pairs += [(np.array(a, dtype=np.complex128), np.array(b, dtype=np.complex128)) for a, b in upper]
    deflations = counting(monkeypatch, triangular, "_deflate")
    for a, b in pairs:
        cert = simultaneous_triangularize(a, b)
        assert (cert.verdict, cert.route) == ("triangularizable", "schur-flag")
        assert cert.residual < 1e-9
    assert deflations == []
    # Haar-conjugated commuting pairs: rounding splits most repeated
    # eigenvalues, and leaves exact ties in the degenerate pairs at n = 13 and 19
    rng = np.random.default_rng(49)
    pairs = [degenerate_diagonal_pair(n, rng) for n in range(3, 21)]
    pairs += [jordan_pair(n, rng) for n in range(3, 13)]
    for a, b in pairs:
        cert = simultaneous_triangularize(a, b)
        assert cert.verdict == "triangularizable", a.shape
        assert cert.residual < 1e-9
    for n in (13, 19):
        cert = simultaneous_triangularize(*pairs[n - 3])
        assert cert.route == "schur-flag", n
    # dense triangular pairs with ill-conditioned eigenvectors: where the
    # one-shot flag misses the gate, deflation (the flag applied again to the
    # corner it leaves) decides
    decided = 0
    for seed in range(9300, 9310):
        a, b, _ = conjugated_upper_pair(30, np.random.default_rng(seed))
        deflations.clear()
        cert = simultaneous_triangularize(a, b)
        if cert.verdict == "triangularizable":
            decided += 1
            assert cert.route == ("deflation" if deflations else "schur-flag"), seed
    assert decided >= 8
    # and with the words switched off, no random pair is certified
    monkeypatch.setattr(triangular, "_mccoy_search", lambda *args: None)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        cert = simultaneous_triangularize(random_complex(n, n, rng), random_complex(n, n, rng))
        assert cert.verdict == "inconclusive", n


def test_deflation_keeps_a_vector_close_to_e1():
    # a commuting pair diagonal in a basis rotated by tau off the standard
    # one: the flag decides it; deflation started without a flag (as when
    # the Schur form fails) keeps e1 only where e1 is within the gate
    # (tau = 1e-9) and otherwise leads with a common eigenvector
    for tau in (1e-6, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9):
        v = np.eye(3, dtype=np.complex128)
        v[:2, :2] = [[np.cos(tau), -np.sin(tau)], [np.sin(tau), np.cos(tau)]]
        a = v @ np.diag([-1.0, 1.0, 0.0]) @ v.conj().T
        b = v @ np.diag([1.0, -1.0, 0.5]) @ v.conj().T
        cert = simultaneous_triangularize(a, b)
        assert (cert.verdict, cert.route) == ("triangularizable", "schur-flag"), tau
        assert cert.residual < 1e-9
        scale = 1.0 + operator_norm(a) + operator_norm(b)
        u = triangular._deflate(a, b, None, 1e-9, scale, triangular._phases(0))
        cert = triangular._gated_certificate(a, b, u, 1e-9, scale, "deflation")
        assert (cert.verdict, cert.route) == ("triangularizable", "deflation"), tau
        lead = u[:, 0]
        assert np.linalg.norm(a @ lead - np.vdot(lead, a @ lead) * lead) < 1e-9 * scale, tau
        assert np.array_equal(u, np.eye(3)) == (tau == 1e-9), tau


def test_deflation_flags_a_corner_below_the_gate_as_zero():
    # after the clean first column, b's corner is 1e-20 noise: normalized to
    # unit norm it would swamp a's corner in the combination, so deflation
    # reads it as zero and flags a's corner alone
    rng = np.random.default_rng(50)
    u = haar_unitary(8, rng)
    a = np.zeros((9, 9), dtype=np.complex128)
    b = np.zeros((9, 9), dtype=np.complex128)
    a[0, 0] = b[0, 0] = 1.0
    a[1:, 1:] = u @ separated_upper(8, rng) @ u.conj().T
    b[1:, 1:] = 1e-20 * random_complex(8, 8, rng)
    scale = 1.0 + operator_norm(a) + operator_norm(b)
    w = triangular._deflate(a, b, None, 1e-9, scale, triangular._phases(0))
    cert = triangular._gated_certificate(a, b, w, 1e-9, scale, "deflation")
    assert (cert.verdict, cert.route) == ("triangularizable", "deflation")


def test_triangularize_verdict_invariant_under_operand_swap():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        u = haar_unitary(n, rng)
        a = u @ separated_upper(n, rng) @ u.conj().T
        b = u @ separated_upper(n, rng) @ u.conj().T
        assert simultaneous_triangularize(a, b).verdict == "triangularizable"
        assert simultaneous_triangularize(b, a).verdict == "triangularizable"
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_complex(n, n, rng)
        b = random_complex(n, n, rng)
        assert simultaneous_triangularize(a, b).verdict == simultaneous_triangularize(b, a).verdict


def test_words_stay_quiet_at_large_scale():
    # exact power-of-two normalization keeps words of 2^200-scaled inputs finite
    a = 2.0**200 * shift_matrix(8)
    b = 2.0**200 * corner_unit(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mccoy_sample(a, b, max_word_len=8) == "x" * 6
        cert = simultaneous_triangularize(a, b)
    assert (cert.verdict, cert.refuting_word, cert.route) == ("refuted", "x" * 6, "words")
    assert cert.trace_power in (1, 2)
    assert cert.trace > cert.trace_bound > 0.0


def test_trace_bound_sound_on_conjugated_triangular_pairs():
    # dense triangular pairs under Haar conjugation are triangularizable up to
    # rounding: no word may refute them, even with no margin over the bound
    rng = np.random.default_rng(46)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        u = haar_unitary(n, rng)
        ka, kb = (int(k) for k in rng.integers(-300, 301, size=2))
        a = 2.0**ka * (u @ np.triu(random_complex(n, n, rng)) @ u.conj().T)
        b = 2.0**kb * (u @ np.triu(random_complex(n, n, rng)) @ u.conj().T)
        assert mccoy_sample(a, b, max_word_len=6, samples=0, tol=0.0) is None, n


def test_random_pairs_are_refuted_by_a_trace():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        cert = simultaneous_triangularize(random_complex(n, n, rng), random_complex(n, n, rng))
        assert cert.verdict == "refuted"
        assert cert.trace > cert.trace_bound


@pytest.mark.parametrize("scale", [1e-12, 2.0**-300], ids=["1e-12", "2^-300"])
def test_tiny_inputs_are_judged_relative_to_their_scale(scale):
    # the gate tol * (1 + ||a|| + ||b||) was absolute at this scale and let any
    # unitary pass as a witness
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30))
    b = rng.standard_normal((30, 30))
    cert = simultaneous_triangularize(scale * a, scale * b)
    assert (cert.verdict, cert.refuting_word) == ("refuted", "")


def _near_triangular_pair():
    # upper triangular up to a 1e-11 lower entry: the Schur-flag witness
    # passes the gate, and with no margin the empty word refutes
    # (tr [a, b]^2 = 2e-22 - 2e-11)
    a = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=np.complex128)
    b = np.array([[3.0, 2.0], [1e-11, 4.0]], dtype=np.complex128)
    return a, b


def test_schur_flag_witness_wins_over_a_word(monkeypatch):
    a, b = _near_triangular_pair()
    assert mccoy_sample(a, b, tol=0.0) == ""
    monkeypatch.setattr(triangular, "_WORD_MARGIN", 0.0)
    cert = simultaneous_triangularize(a, b)
    assert (cert.verdict, cert.route) == ("triangularizable", "schur-flag")


def test_word_wins_over_deflation(monkeypatch):
    # the block pair misses the flag's gate, so the words run next and
    # refute it before deflation starts
    a, b = scaled_block_pair(5)
    deflations = counting(monkeypatch, triangular, "_deflate")
    cert = simultaneous_triangularize(a, b)
    assert (cert.verdict, cert.route, cert.refuting_word) == ("refuted", "words", "xxx")
    assert deflations == []
    # with the words switched off deflation runs, and only its gate decides
    monkeypatch.setattr(triangular, "_mccoy_search", lambda *args: None)
    cert = simultaneous_triangularize(a, b)
    assert (cert.verdict, cert.route) == ("inconclusive", None)
    assert deflations


def test_certificate_names_its_route():
    rng = np.random.default_rng(48)
    u = haar_unitary(6, rng)
    a = u @ separated_upper(6, rng) @ u.conj().T
    b = u @ separated_upper(6, rng) @ u.conj().T
    assert simultaneous_triangularize(a, b).route == "schur-flag"
    assert simultaneous_triangularize(np.eye(4), 2.0 * np.eye(4)).route == "schur-flag"
    assert simultaneous_triangularize(*scaled_block_pair(5)).route == "words"
    # an upper triangular pair whose combination ties eigenvalues 0, 5, 6
    # and 1, 2, 3: the one-shot flag takes a wrong order (residual 3.6e-2)
    # and deflation mends it
    a = [[2, -1, 2, -2, 1, 1, 0], [0, 1, 1, 2, -2, -1, -1], [0, 0, 1, 1, 0, 1, -2],
         [0, 0, 0, 1, -2, -1, -2], [0, 0, 0, 0, 1, 1, -2], [0, 0, 0, 0, 0, 2, -2],
         [0, 0, 0, 0, 0, 0, 2]]
    b = [[0, 2, -2, -1, 0, -1, -2], [0, 0, 0, 1, 1, 1, -2], [0, 0, 0, -1, 0, 0, -2],
         [0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 1, -1, 2], [0, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 0]]
    cert = simultaneous_triangularize(np.array(a, dtype=np.complex128), np.array(b, dtype=np.complex128))
    assert (cert.verdict, cert.route) == ("triangularizable", "deflation")

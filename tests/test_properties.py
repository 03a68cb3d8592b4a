"""Property tests: verdicts that must not depend on how a pair is presented."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktri import corner_unit, shift_matrix, simultaneous_triangularize, write_matrix
from blocktri.cli import main
from helpers import (
    degenerate_diagonal_pair,
    haar_unitary,
    jordan_pair,
    random_complex,
    separated_upper,
)


def _pair(kind, n, seed):
    # refuted by '', refuted by x^(n-2), commuting with repeated eigenvalues,
    # or triangularizable by the Schur flag
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_complex(n, n, rng), random_complex(n, n, rng)
    if kind == "block":
        return shift_matrix(n) / n, corner_unit(n) / n
    if kind == "degenerate":
        return degenerate_diagonal_pair(n, rng)
    if kind == "jordan":
        return jordan_pair(n, rng)
    u = haar_unitary(n, rng)
    return u @ separated_upper(n, rng) @ u.conj().T, u @ separated_upper(n, rng) @ u.conj().T


def _swapped(word):
    return None if word is None else word.translate(str.maketrans("xy", "yx"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "block", "degenerate", "jordan", "conjugated"]),
    n=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    ka=st.integers(-600, 600),
    kb=st.integers(-600, 600),
)
def test_verdict_invariant_under_power_of_two_scaling_and_swap(kind, n, seed, ka, kb):
    a, b = _pair(kind, n, seed)
    base = simultaneous_triangularize(a, b)
    scaled = simultaneous_triangularize(2.0**ka * a, 2.0**kb * b)
    assert (scaled.verdict, scaled.refuting_word) == (base.verdict, base.refuting_word)
    swapped = simultaneous_triangularize(b, a)
    assert swapped.verdict == base.verdict
    assert swapped.refuting_word == _swapped(base.refuting_word)


# each command with the sizes of its input files: 25 x 25 pairs, 27 x 27 single inputs
_CLI_INPUTS = {
    "tridiagonalize": (27,),
    "tridiagonalize-pair": (25, 25),
    "triangularize": (25, 25),
    "decompose": (27,),
    "stripped-checks": (25, 25),
}
_UNSCALED = {}  # (command, seed) -> outcome of the unscaled inputs


def _cli_outcome(command, seed, k):
    """Exit code, (verdict, passed, realized_sizes) and stderr of the inputs scaled by 2^k."""
    rng = np.random.default_rng(seed)
    mats = [random_complex(n, n, rng) * 2.0**k for n in _CLI_INPUTS[command]]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{i}.json") for i in range(len(mats))]
        for m, path in zip(mats, paths):
            write_matrix(m, path)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command.removesuffix("-pair"), *paths])
    doc = json.loads(out.getvalue()) if out.getvalue() else {}
    return code, [doc.get(key) for key in ("verdict", "passed", "realized_sizes")], err.getvalue()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(_CLI_INPUTS)), seed=st.integers(0, 2), k=st.integers(-1000, 1000))
@example(command="stripped-checks", seed=0, k=1000)
@example(command="stripped-checks", seed=0, k=600)
def test_cli_outcome_invariant_under_power_of_two_scaling(command, seed, k):
    if (command, seed) not in _UNSCALED:
        _UNSCALED[command, seed] = _cli_outcome(command, seed, 0)
    unscaled = _UNSCALED[command, seed]
    assert unscaled[2] == ""
    assert _cli_outcome(command, seed, k) == unscaled

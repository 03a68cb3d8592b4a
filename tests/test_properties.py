"""Property tests: verdicts that must not depend on how a pair is presented."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktri import corner_unit, shift_matrix, simultaneous_triangularize
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

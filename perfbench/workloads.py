"""Seeded inputs, case lists and expected outcomes of the benchmark workloads.

Inputs come from this file's own generators, never from the test suite, so
editing the tests cannot change a workload.  Each case carries the outcome
its construction implies: the exit code, the verdicts that do not
contradict how the input was built, and the sizes the schedule fixes.
The program under test only ever sees the JSON matrix files and argv.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SINGLE = {81: [1, 2, 6, 18, 54], 243: [1, 2, 6, 18, 54, 162], 729: [1, 2, 6, 18, 54, 162, 486]}
PAIR = {25: [1, 4, 20], 125: [1, 4, 20, 100]}


def random_complex(n, rng):
    """Dense n x n complex Ginibre sample."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar_unitary(n, rng):
    q, r = np.linalg.qr(random_complex(n, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def spaced_upper(n, rng):
    """Upper triangular, eigenvalues near 1..n, strict part of modulus ~0.5.

    Well separated eigenvalues keep the common flag numerically recoverable
    at n = 100; a dense random triangular factor would not be.
    """
    t = 0.5 * np.triu(random_complex(n, rng), 1)
    t[np.diag_indices(n)] = np.arange(1, n + 1) + 0.25 * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    return t


def conjugated_upper_pair(n, rng):
    """Pair triangularized by one unitary, by construction."""
    u = haar_unitary(n, rng)
    return u @ spaced_upper(n, rng) @ u.conj().T, u @ spaced_upper(n, rng) @ u.conj().T


def block_diagonal_pair(sizes, rng):
    """Block-diagonal pair whose diagonal block pairs each share a flag."""
    n = sum(sizes)
    c = np.zeros((n, n), dtype=np.complex128)
    z = np.zeros((n, n), dtype=np.complex128)
    lo = 0
    for k in sizes:
        c[lo : lo + k, lo : lo + k], z[lo : lo + k, lo : lo + k] = conjugated_upper_pair(k, rng)
        lo += k
    return c, z


def write_matrix(path, a):
    """Matrix file in the documented format; float repr round-trips exactly."""
    entries = np.column_stack([a.real.ravel(), a.imag.ravel()]).tolist()
    doc = {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _cli(case_id, argv, exit_code, verdicts, sizes=None, largest=False):
    return {
        "id": case_id,
        "kind": "cli",
        "argv": argv,
        "expect": {"exit": exit_code, "verdicts": verdicts, "sizes": sizes},
        "largest": largest,
    }


class _Files:
    """Writes each generated matrix once and hands back its path."""

    def __init__(self, directory, seed):
        self.directory = Path(directory)
        self.seed = seed
        self.count = 0

    def rng(self):
        # one independent stream per generated input, in case-list order
        self.count += 1
        return np.random.default_rng([self.seed, self.count])

    def put(self, name, a):
        path = self.directory / f"{name}.json"
        write_matrix(path, a)
        return str(path)


def _band_decompose(f):
    cases = []
    for n in (81, 243, 729):
        path = f.put(f"t{n}", random_complex(n, f.rng()))
        cases.append(
            _cli(f"decompose-{n}", ["decompose", path], 0, ["certified_quasinilpotent"],
                 SINGLE[n], largest=n == 729)
        )
    path = f.put("s243", random_complex(243, f.rng()))
    cases.append(_cli("tridiagonalize-243", ["tridiagonalize", path], 0, ["passed"], SINGLE[243]))
    rng = f.rng()
    a = f.put("p125a", random_complex(125, rng))
    b = f.put("p125b", random_complex(125, rng))
    cases.append(_cli("tridiagonalize-pair-125", ["tridiagonalize", a, b], 0, ["passed"], PAIR[125]))
    return cases


def _triangularize_positive(f):
    c, z = block_diagonal_pair(PAIR[125], f.rng())
    cases = [
        {
            "id": "certify-blockdiag-125",
            "kind": "certify_commutator",
            "inputs": [f.put("c125", c), f.put("z125", z)],
            "schedule": ["pair", 4],
            "expect": {"exit": 0, "verdicts": ["certified_quasinilpotent"], "sizes": [1, 2, 3, 4]},
            "largest": True,
        }
    ]
    for n in (50, 100):
        a, b = conjugated_upper_pair(n, f.rng())
        argv = ["triangularize", f.put(f"a{n}", a), f.put(f"b{n}", b)]
        cases.append(_cli(f"triangularize-conj-{n}", argv, 0, ["triangularizable"], [n, n]))
    return cases


def _refute_words(f):
    # a random pair is not triangularizable (almost surely), so "refuted" and
    # "inconclusive" are the verdicts that do not contradict its construction
    cases = [
        _cli("counterexample-verify-4",
             ["counterexample", "--verify", "--schedule", "pair", "--levels", "4"],
             0, ["passed"], [1, 2, 3, 4], largest=True),
        _cli("certify-counterexample-4",
             ["certify", "--counterexample", "--schedule", "pair", "--levels", "4"],
             1, ["refuted_hypothesis"], [1, 2, 3, 4]),
    ]
    for n in (25, 50):
        rng = f.rng()
        argv = ["triangularize", f.put(f"r{n}a", random_complex(n, rng)),
                f.put(f"r{n}b", random_complex(n, rng))]
        cases.append(_cli(f"triangularize-random-{n}", argv, 1, ["refuted", "inconclusive"]))
    rng = f.rng()
    argv = ["certify", f.put("q25a", random_complex(25, rng)), f.put("q25b", random_complex(25, rng))]
    cases.append(_cli("certify-random-25", argv, 1, ["refuted_hypothesis", "not_certified"], PAIR[25]))
    for i in (1, 2):
        rng = f.rng()
        argv = ["stripped-checks", f.put(f"k{i}a", random_complex(125, rng)),
                f.put(f"k{i}b", random_complex(125, rng))]
        cases.append(_cli(f"stripped-checks-125-{i}", argv, 0, ["passed"], PAIR[125]))
    return cases


WORKLOADS = {
    "band-decompose": _band_decompose,
    "triangularize-positive": _triangularize_positive,
    "refute-words": _refute_words,
}


def build(workload, seed, directory):
    """Write the inputs of ``workload`` for ``seed`` and return its manifest.

    The warm-up case is the same small decomposition for every workload, so
    set-up time does not depend on which workload runs.
    """
    f = _Files(directory, seed)
    warm = f.put("warmup27", random_complex(27, np.random.default_rng([seed, 0])))
    return {
        "workload": workload,
        "seed": seed,
        "warmup": _cli("warmup-decompose-27", ["decompose", warm], 0,
                       ["certified_quasinilpotent"], [1, 2, 6, 18]),
        "cases": WORKLOADS[workload](f),
    }

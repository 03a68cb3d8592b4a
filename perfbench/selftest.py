"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py

For each workload, makes two traced runs (``run.py --trace 1``) on seed 7
and requires every count to be exactly equal between them: each ``*.calls``
metric, ``lapack.svd.flops_est``, ``triangular.mccoy_sample.words_tried``
and ``triangular.common_eigenvector.hit_ratio``.  It then checks the
predictions of which layers do no work on which workload (README.md) and
that both runs judged every case right.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = 3  # each traced process makes one pass

COUNTS_EXTRA = (
    "lapack.svd.flops_est",
    "triangular.mccoy_sample.words_tried",
    "triangular.common_eigenvector.hit_ratio",
)

# layers predicted idle (count 0) or busy (count > 0) on each workload
ZERO = {
    "band-decompose": (
        "triangular.simultaneous_triangularize.calls",
        "triangular.common_eigenvector.calls",
        "triangular.mccoy_sample.calls",
        "linalg.is_nilpotent.calls",
    ),
    "triangularize-positive": (
        "krylov.block_tridiagonalize.calls",
        "triangular.mccoy_sample.calls",
        "linalg.is_nilpotent.calls",
        "linalg.schur.calls",
    ),
    "refute-words": ("linalg.schur.calls",),
}
BUSY = {
    "band-decompose": ("krylov.block_tridiagonalize.calls", "linalg.schur.calls", "lapack.svd.calls"),
    "triangularize-positive": ("triangular.common_eigenvector.calls", "lapack.svd.calls"),
    "refute-words": (
        "krylov.block_tridiagonalize.calls",
        "triangular.common_eigenvector.calls",
        "triangular.mccoy_sample.calls",
        "linalg.is_nilpotent.calls",
    ),
}


def traced_run(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if not done.stdout.strip():
        raise SystemExit(f"{workload}: run.py printed nothing (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload):
    first, second = (traced_run(workload) for _ in range(2))
    problems = []
    for result in (first, second):
        if not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} case executions wrong")
    counts = [name for name in first["metrics"] if name.endswith(".calls") or name in COUNTS_EXTRA]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name} differs between runs: {a} vs {b}")
    for name in ZERO[workload]:
        if first["metrics"][name]["value"] != 0:
            problems.append(f"{name} = {first['metrics'][name]['value']}, predicted 0")
    for name in BUSY[workload]:
        if first["metrics"][name]["value"] == 0:
            problems.append(f"{name} = 0, predicted > 0")
    return len(counts), problems


def main():
    failed = False
    for workload in sorted(ZERO):
        n, problems = check(workload)
        status = "ok" if not problems else "FAILED"
        print(f"{workload}: {n} counts compared across two traced runs, predictions checked: {status}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

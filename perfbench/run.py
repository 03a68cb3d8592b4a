"""blocktri benchmark: seeded workloads through the public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload band-decompose --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed``, then starts fresh
processes (child.py) that import ``blocktri`` from ``src/`` and run the
workload's case list through ``blocktri.cli.main`` (and, for one case,
the library function behind it).  One client, closed loop: a case starts
when the previous one has finished.  Every outcome is checked against how
its input was built.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a traced
run and prints the per-layer metrics.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the environment, is written under ``.perfbench-out/``.
The exit code is 0 only when every case was right.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Timed processes get one BLAS thread: on a few shared cores, default BLAS
# threads spin at barriers and mostly measure the host's scheduler.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
# printed beside the bounded ratios: their complements, which are 0 when all is well
COMPLEMENTS = {"ok_ratio": "fail_ratio", "quiet_ratio": "warning_ratio"}
SETUP_PROBES = 9  # extra processes that only set up; the measuring one adds a tenth sample


def time_limit_s(seconds):
    """When to kill what is still running: a margin for set-up and the minimum
    passes, plus room for the passes that ``seconds`` asks for (170 s at 30)."""
    return 110.0 + 2.0 * seconds


class ChildFailed(Exception):
    pass


def child_env(**extra):
    """The environment a CLI user gets (no thread pinning, blocktri from src/),
    plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def launch(manifest, env, flags, deadline, stderr_path):
    """Start one child; returns (seconds from launch to READY, its result).

    A timer kills the child at ``deadline``, so a hang cannot outlive the run.
    """
    cmd = [sys.executable, str(CHILD), "--manifest", str(manifest), *flags]
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0 or not rest.strip():
        tail = Path(stderr_path).read_text(encoding="utf-8")[-2000:]
        raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def timing(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"value": statistics.median(ordered), "samples": n, "tail": None, "all": samples}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out["tail"] = {"percentile": pct, "value": ordered[math.ceil(pct * n / 100) - 1]}
    return out


def case_results(children):
    return [c for child in children for p in child["passes"] for c in p["cases"]]


def end_to_end(manifest, setups, child):
    results = case_results([child])
    n = len(results)
    wrong = sum(r["wrong"] is not None for r in results)
    warned = sum(bool(r["warnings"]) for r in results)
    largest = next(c["id"] for c in manifest["cases"] if c["largest"])
    return {
        "setup_s": timing(setups),
        "run_s": timing([p["run_s"] for p in child["passes"]]),
        "largest_case_s": timing(
            [c["s"] for p in child["passes"] for c in p["cases"] if c["id"] == largest]
        ),
        "ok_ratio": {"value": 1.0 - wrong / n},
        "decided_ratio": {"value": sum(r["decisive"] for r in results) / n},
        "quiet_ratio": {"value": 1.0 - warned / n},
        "peak_rss_mb": {"value": child["peak_rss_mb"]},
    }


def per_layer(names, plain, traced, threaded):
    """Counts from the first traced pass, self times as medians over traced passes."""
    passes = [p["layers"] for p in traced["passes"]]
    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = {"value": statistics.median(p.get(name, 0.0) for p in passes)}
        elif name not in ("trace.overhead_s", "blas.one_thread_run_s", "blas.default_threads_run_s"):
            out[name] = {"value": passes[0].get(name, 0)}
    traced_run = statistics.median(p["run_s"] for p in traced["passes"])
    plain_run = statistics.median(p["run_s"] for p in plain["passes"])
    out["trace.overhead_s"] = {"value": traced_run - plain_run}
    out["blas.one_thread_run_s"] = timing([p["run_s"] for p in plain["passes"]])
    out["blas.default_threads_run_s"] = timing([p["run_s"] for p in threaded["passes"]])
    return out


def mark_changed_reports(reference, other):
    """Judge ``other``'s report bytes against ``reference``'s first pass too."""
    first = {c["id"]: c["digest"] for c in reference["passes"][0]["cases"]}
    for c in case_results([other]):
        if c["wrong"] is None and c["digest"] != first[c["id"]]:
            c["wrong"] = "report bytes differ from the untraced process"


def environment(seed, envs):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src" / "blocktri").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "thread_env_found": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_children": {label: {k: env.get(k) for k in THREAD_VARS} for label, env in envs.items()},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run(args, bench, workdir, deadline):
    manifest = workloads.build(args.workload, args.seed, workdir)
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    counter = itertools.count()

    def start(env, *flags):
        return launch(manifest_path, env, [str(f) for f in flags], deadline,
                      workdir / f"child-{next(counter)}.err")

    measured = child_env(**ONE_THREAD)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    if args.trace == 0:
        envs = {"measured": measured}
        setups, warmups = [], []
        for _ in range(SETUP_PROBES):
            setup_s, probe = start(measured)
            setups.append(setup_s)
            warmups.append(probe["warmup"])
        setup_s, child = start(measured, "--seconds", args.seconds, "--min-passes", 2)
        setups.append(setup_s)
        warmups.append(child["warmup"])
        children = [child]
        metrics = end_to_end(manifest, setups, child)
        listed = bench["end_to_end"]
    else:
        default = child_env()
        envs = {"untraced": measured, "traced": measured, "default_threads": default}
        share = args.seconds / 3
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        _, plain = start(measured, "--seconds", share, "--min-passes", 1)
        _, traced = start(measured, "--traced", "--spans", spans, "--seconds", share, "--min-passes", 1)
        _, threaded = start(default, "--seconds", share, "--min-passes", 1)
        children = [plain, traced, threaded]
        warmups = [c["warmup"] for c in children]
        # tracing must not change a report; thread count may change rounding, so
        # the default-threads process is checked only against its own first pass
        mark_changed_reports(plain, traced)
        listed = bench["per_layer"]
        metrics = per_layer([m["name"] for m in listed], plain, traced, threaded)
        detail["spans_file"] = str(spans.relative_to(ROOT))

    results = case_results(children) + warmups
    wrong = sorted({(r["id"], r["wrong"]) for r in results if r["wrong"] is not None})
    failed = sum(r["wrong"] is not None for r in results)
    detail.update(
        env=environment(args.seed, envs),
        metrics=metrics,
        units={m["name"]: m["unit"] for m in listed},
        wrong=[f"{case}: {reason}" for case, reason in wrong],
    )
    final = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in listed},
    }
    return detail, final


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + time_limit_s(args.seconds)
    if not (ROOT / "src" / "blocktri" / "cli.py").is_file():
        print(f"error: no blocktri sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        detail, final = run(args, bench, workdir, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, value in detail["metrics"].items():
        extra = ""
        if "samples" in value:
            tail = value["tail"]
            extra = f"  (median of {value['samples']}" + (
                f", p{tail['percentile']} {tail['value']:.6g})" if tail else ", too few samples for a tail percentile)"
            )
        if name in COMPLEMENTS:
            extra = f"  ({COMPLEMENTS[name]} {1.0 - value['value']:.6g})"
        print(f"{name:48s} {value['value']:.6g} {detail['units'][name]}{extra}")
    for line in detail["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

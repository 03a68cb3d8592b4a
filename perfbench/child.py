"""One benchmark process: import blocktri, warm up, then run passes over a case list.

run.py starts this script with the checkout's ``src`` on PYTHONPATH and
times it from launch to the ``READY`` line.  After that line the process
runs the manifest's cases in order, pass after pass, for about ``--seconds``
(and at least ``--min-passes`` passes), judges every case against the
outcome its input was built for, and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
import traceback
import warnings

import blocktri.cli  # importing it is part of the measured set-up
import blocktri.commutators
import blocktri.matio
import blocktri.operators

import tracing

_SIZES = {
    "decompose": lambda doc: doc["realized_sizes"],
    "certify": lambda doc: doc.get("realized_sizes") or [row["level"] for row in doc["levels"]],
    "stripped-checks": lambda doc: doc["realized_sizes"],
    "tridiagonalize": lambda doc: [row["size"] for row in doc["levels"]],
    "counterexample": lambda doc: sorted({row["level"] for row in doc["levels"]}),
    "triangularize": lambda doc: [doc["witness"]["rows"], doc["witness"]["cols"]] if "witness" in doc else None,
}


def _verdict(doc):
    if "verdict" in doc:
        return doc["verdict"]
    return "passed" if doc["passed"] else "failed"


def _certify_library(case):
    """certify_commutator through the library: the CLI file route re-bands its
    inputs and so cannot reach the blockwise path on a block-diagonal pair."""
    schedule = blocktri.operators.make_schedule(*case["schedule"])
    c, z = (
        blocktri.operators.operator_from_matrix(blocktri.matio.read_matrix(p), schedule)
        for p in case["inputs"]
    )
    report = blocktri.commutators.certify_commutator(c, z)
    doc = dataclasses.asdict(report)
    print(json.dumps(doc, sort_keys=True))
    return 0 if report.verdict == "certified_quasinilpotent" else 1


def run_case(case):
    """Run one case; returns its timing and raw outcome (judged later)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if case["kind"] == "cli":
                    code = blocktri.cli.main(case["argv"])
                else:
                    code = _certify_library(case)
        except Exception:
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    return {
        "id": case["id"],
        "s": elapsed,
        "exit": code,
        "error": error,
        "stderr": err.getvalue()[-500:],
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "text": text,
    }


def judge(case, result, first_digest):
    """Fill ``wrong`` (a reason, or None), ``verdict`` and ``decisive`` of a result."""
    text = result.pop("text")
    expect = case["expect"]
    result["verdict"] = None
    result["wrong"] = None
    if result["error"] is not None:
        result["wrong"] = "traceback"
    elif result["exit"] not in (0, 1, 2, 3):
        result["wrong"] = f"exit code {result['exit']!r} outside 0-3"
    elif result["exit"] != expect["exit"]:
        result["wrong"] = f"exit code {result['exit']}, expected {expect['exit']}"
    else:
        try:
            doc = json.loads(text)
            result["verdict"] = _verdict(doc)
            command = case["argv"][0] if case["kind"] == "cli" else "certify"
            sizes = _SIZES[command](doc)
        except (ValueError, KeyError, TypeError) as exc:
            result["wrong"] = f"unreadable report: {exc!r}"
        else:
            if result["verdict"] not in expect["verdicts"]:
                result["wrong"] = f"verdict {result['verdict']}, expected one of {expect['verdicts']}"
            elif expect["sizes"] is not None and sizes != expect["sizes"]:
                result["wrong"] = f"sizes {sizes}, expected {expect['sizes']}"
            elif first_digest is not None and result["digest"] != first_digest:
                result["wrong"] = "report bytes differ from the first pass"
    result["decisive"] = result["verdict"] is not None and result["verdict"] not in ("inconclusive", "not_certified")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as f:
        manifest = json.load(f)

    warmup = judge(manifest["warmup"], run_case(manifest["warmup"]), None)
    print("READY", flush=True)

    recorder = None
    if args.traced:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    digests = {}
    passes = []
    start = time.perf_counter()
    # start another pass when it is expected to end less than half a pass past --seconds
    while len(passes) < args.min_passes or (
        passes and time.perf_counter() - start + passes[-1]["run_s"] / 2 < args.seconds
    ):
        first_span = len(recorder.spans) if recorder else 0
        pass_start = time.perf_counter()
        raw = []
        for case in manifest["cases"]:
            if recorder:
                recorder.case = case["id"]
            raw.append(run_case(case))
        run_s = time.perf_counter() - pass_start
        results = []
        for case, result in zip(manifest["cases"], raw):
            results.append(judge(case, result, digests.get(case["id"])))
            digests.setdefault(case["id"], result["digest"])
        record = {"run_s": run_s, "cases": results}
        if recorder:
            record["layers"] = tracing.layer_metrics(recorder.spans[first_span:])
        passes.append(record)
    if recorder and args.spans:
        recorder.write(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"warmup": warmup, "passes": passes, "peak_rss_mb": peak_kb / 1024.0}), flush=True)


if __name__ == "__main__":
    sys.exit(main())

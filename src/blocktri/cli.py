"""Command line front end: pipelines in, deterministic reports out.

Every subcommand prints its report to stdout (JSON by default, CSV
flattens the per-level table), after writing the same bytes to ``--out``
when given.  Reports carry a config echo and never include timestamps, so
a fixed command line reproduces byte-identical output; only the commands
that sample (``triangularize``, ``certify``, ``counterexample``) take ``--seed``.

Exit codes: 0 when the pipeline verdict is pass/certified, 1 when it is
refuted or a check failed, 2 for usage or OS-level I/O errors, 3 for
malformed matrix files and dimension mismatches, 4 for numerical failures
(a Schur factorization that misses its residual targets, a LAPACK error,
or a ``certify`` corner commutator that overflows double precision) and
for running out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .commutators import (
    build_counterexample,
    certify_commutator,
    stripped_pair_checks,
    verify_counterexample,
)
from .decompose import decompose, diagonal_part, quasinilpotent_part_certificate
from .krylov import _BAND_TOL, block_tridiagonalize, verify_block_structure
from .linalg import SchurConvergenceError, _norm_excess, operator_norm
from .matio import _atomic_write_text, matrix_document, read_matrix, render_report
from .operators import make_schedule, operator_from_matrix
from .triangular import simultaneous_triangularize

__all__ = ["ExperimentConfig", "run", "main"]


class _UsageError(Exception):
    pass


# each command's --tol-NAME options and their defaults; ``run`` fills the ones a config leaves out
_DEFAULT_TOLERANCES = {
    "tridiagonalize": {"band": _BAND_TOL},
    "triangularize": {"tri": 1e-9},
    "certify": {"radius": 1e-9, "tri": 1e-9},
    "counterexample": {"radius": 1e-9},
    "decompose": {"unit": 1e-10, "recon": 1e-9},
    "stripped-checks": {},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Echoed verbatim into every report for reproducibility."""

    command: str
    inputs: tuple = ()
    schedule: str | None = None
    sizes: tuple | None = None
    levels: int | None = None
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    word_len: int | None = None
    verify: bool = False
    counterexample: bool = False
    out: str | None = None
    format: str = "json"


def _positive_float(text):
    value = float(text)
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _size_list(text):
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc
    if not sizes or any(k < 1 for k in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive")
    return sizes


def _emit(doc, config):
    text = render_report(doc, config.format)
    if config.out is not None:
        _atomic_write_text(config.out, text)
    sys.stdout.write(text)


def _schedule_from_config(config, default_levels=3):
    """The schedule the flags name; ``--levels`` keeps that many custom sizes (all when larger)."""
    kind = config.schedule
    if kind == "custom":
        if config.sizes is None:
            raise _UsageError("--schedule custom requires --sizes")
        return make_schedule("custom", sizes=config.sizes[: config.levels])
    return make_schedule(kind, config.levels or default_levels)


def _operators_from_files(paths):
    mats = [read_matrix(p) for p in paths]
    tri = block_tridiagonalize(mats)
    ops = [
        operator_from_matrix(t, tri.realized_schedule, band_tol=_BAND_TOL, band_scale=mats)
        for t in tri.transformed
    ]
    return ops, tri, [verify_block_structure(t, tri.realized_schedule) for t in tri.transformed]


def _cmd_tridiagonalize(config):
    if not 1 <= len(config.inputs) <= 2:
        raise _UsageError("tridiagonalize takes one or two matrix files")
    mats = [read_matrix(p) for p in config.inputs]
    tri = block_tridiagonalize(mats)
    sched = tri.realized_schedule
    residuals = [verify_block_structure(t, sched) for t in tri.transformed]
    rows = [
        {"level": n, "size": sched.sizes[n - 1], "cumulative": sched.cumsums[n - 1]}
        for n in range(1, sched.levels + 1)
    ]
    # relative to the inputs, as the two-file commands' band gate
    passed = all(_norm_excess(r, config.tolerances["band"], mats) is None for r in residuals)
    doc = {
        "command": "tridiagonalize",
        "config": asdict(config),
        "levels": rows,
        "band_residuals": residuals,
        "stabilized_dim": tri.stabilized_dim,
        "passed": passed,
    }
    _emit(doc, config)
    return 0 if passed else 1


def _cmd_triangularize(config):
    if len(config.inputs) != 2:
        raise _UsageError("triangularize takes exactly two matrix files")
    a = read_matrix(config.inputs[0])
    b = read_matrix(config.inputs[1])
    cert = simultaneous_triangularize(
        a, b, tol=config.tolerances["tri"], word_len=config.word_len, seed=config.seed
    )
    row = {
        "verdict": cert.verdict,
        "residual": cert.residual,
        "unitarity_residual": cert.unitarity_residual,
        "refuting_word": cert.refuting_word,
        "route": cert.route,
        "trace_power": cert.trace_power,
        "trace": cert.trace,
        "trace_bound": cert.trace_bound,
    }
    doc = {
        "command": "triangularize",
        "config": asdict(config),
        "levels": [row],
        "verdict": cert.verdict,
    }
    if cert.witness_unitary is not None:
        doc["witness"] = matrix_document(cert.witness_unitary)
    _emit(doc, config)
    return 0 if cert.verdict == "triangularizable" else 1


def _spectral_report_doc(command, config, report, extra):
    return {
        "command": command,
        "config": asdict(config),
        "levels": [asdict(r) for r in report.levels],
        "verdict": report.verdict,
        "first_refuted_level": report.first_refuted_level,
        "tol": report.tol,
        "note": report.note,
        **extra,
    }


def _cmd_certify(config):
    extra = {}
    if config.counterexample:
        if config.inputs:
            raise _UsageError("--counterexample takes no matrix files")
        sched = _schedule_from_config(config)
        pair = build_counterexample(sched)
        c_op, z_op = pair.c_op, pair.z_op
        n_max = sched.levels  # every level of the schedule, as counterexample --verify
    elif len(config.inputs) == 2:
        if config.schedule is not None or config.sizes is not None:
            raise _UsageError("--schedule and --sizes take --counterexample, not matrix files")
        (c_op, z_op), tri, band = _operators_from_files(config.inputs)
        extra = {"realized_sizes": list(tri.realized_schedule.sizes), "band_residuals": band}
        n_max = config.levels
    else:
        raise _UsageError("certify takes two matrix files or --counterexample")
    report = certify_commutator(
        c_op,
        z_op,
        n_max=n_max,
        tol=config.tolerances["radius"],
        tri_tol=config.tolerances["tri"],
        word_len=config.word_len,
        seed=config.seed,
    )
    _emit(_spectral_report_doc("certify", config, report, extra), config)
    return 0 if report.verdict == "certified_quasinilpotent" else 1


def _cmd_counterexample(config):
    sched = _schedule_from_config(config)
    pair = build_counterexample(sched)
    if config.verify:
        if 2 in sched.sizes:
            raise ValueError(
                f"block size 2 (level {sched.sizes.index(2) + 1}) is outside the counterexample family: "
                "shift(2) and corner_unit(2) have commutator diag(1, -1), which is not nilpotent"
            )
        report = verify_counterexample(
            pair,
            n_max=sched.levels,
            tol=config.tolerances["radius"],
            word_len=config.word_len,
            seed=config.seed,
        )
        rows = [asdict(c) for c in report.clauses]
        doc = {
            "command": "counterexample",
            "config": asdict(config),
            "levels": rows,
            "passed": report.passed,
        }
        _emit(doc, config)
        return 0 if report.passed else 1
    rows = []
    for n in range(1, sched.levels + 1):
        rows.append(
            {
                "level": n,
                "size": sched.sizes[n - 1],
                "c_norm": operator_norm(pair.c_op.diag_block(n)),
                "z_norm": operator_norm(pair.z_op.diag_block(n)),
                "decay_bound": pair.decay[n - 1],
            }
        )
    doc = {
        "command": "counterexample",
        "config": asdict(config),
        "levels": rows,
        "passed": True,
    }
    _emit(doc, config)
    return 0


def _cmd_decompose(config):
    if len(config.inputs) != 1:
        raise _UsageError("decompose takes exactly one matrix file")
    t = read_matrix(config.inputs[0])
    result = decompose(t, levels=config.levels)
    cert = quasinilpotent_part_certificate(result)
    split = diagonal_part(result)
    residuals = result.residuals
    passed = (
        residuals["unitarity"] <= config.tolerances["unit"]
        and _norm_excess(residuals["reconstruction"], config.tolerances["recon"], (t,)) is None
        and residuals["triangularity"] == 0.0
        and cert.verdict == "certified_quasinilpotent"
    )
    extra = {
        "realized_sizes": list(result.schedule.sizes),
        "residuals": residuals,
        "zero_diagonal": split.zero_diagonal,
        "passed": passed,
    }
    _emit(_spectral_report_doc("decompose", config, cert, extra), config)
    return 0 if passed else 1


def _cmd_stripped_checks(config):
    if len(config.inputs) != 2:
        raise _UsageError("stripped-checks takes exactly two matrix files")
    (k1, k2), tri, band = _operators_from_files(config.inputs)
    report = stripped_pair_checks(k1, k2, n_max=config.levels)
    doc = {
        "command": "stripped-checks",
        "config": asdict(config),
        "levels": [asdict(r) for r in report.levels],
        "realized_sizes": list(tri.realized_schedule.sizes),
        "band_residuals": band,
        "passed": report.passed,
    }
    _emit(doc, config)
    return 0 if report.passed else 1


_COMMANDS = {
    "tridiagonalize": _cmd_tridiagonalize,
    "triangularize": _cmd_triangularize,
    "certify": _cmd_certify,
    "counterexample": _cmd_counterexample,
    "decompose": _cmd_decompose,
    "stripped-checks": _cmd_stripped_checks,
}


def _add_tolerance_args(sp, command):
    for name, default in _DEFAULT_TOLERANCES[command].items():
        sp.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=_positive_float, default=default)


def _add_output_args(sp):
    sp.add_argument("--out", help="also write the report to this path")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blocktri",
        description="Block-tridiagonal truncations, triangularization, and commutator certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tridiagonalize", help="jointly band one or two matrices")
    sp.add_argument("inputs", nargs="+", metavar="MATRIX")
    _add_tolerance_args(sp, "tridiagonalize")
    _add_output_args(sp)

    sp = sub.add_parser("triangularize", help="decide simultaneous triangularizability")
    sp.add_argument("inputs", nargs=2, metavar="MATRIX")
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_tolerance_args(sp, "triangularize")
    _add_output_args(sp)

    sp = sub.add_parser("certify", help="certify quasinilpotency of a commutator")
    sp.add_argument("inputs", nargs="*", metavar="MATRIX")
    sp.add_argument("--counterexample", action="store_true")
    sp.add_argument("--schedule", choices=("pair", "single", "custom"), default=None)
    sp.add_argument("--sizes", type=_size_list, default=None)
    sp.add_argument("--levels", type=_positive_int, default=None)
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_tolerance_args(sp, "certify")
    _add_output_args(sp)

    sp = sub.add_parser("counterexample", help="build and optionally verify the fixture pair")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--schedule", choices=("pair", "single", "custom"), default=None)
    sp.add_argument("--sizes", type=_size_list, default=None)
    sp.add_argument("--levels", type=_positive_int, default=None)
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_tolerance_args(sp, "counterexample")
    _add_output_args(sp)

    sp = sub.add_parser("decompose", help="triangular-plus-quasinilpotent decomposition")
    sp.add_argument("inputs", nargs=1, metavar="MATRIX")
    sp.add_argument("--levels", type=_positive_int, default=None)
    _add_tolerance_args(sp, "decompose")
    _add_output_args(sp)

    sp = sub.add_parser("stripped-checks", help="lower-part commutator checks for a pair")
    sp.add_argument("inputs", nargs=2, metavar="MATRIX")
    sp.add_argument("--levels", type=_positive_int, default=None)
    _add_output_args(sp)

    return parser


@functools.cache
def _parser():
    """The parser :func:`main` uses, built once per process: ``parse_args`` does not change it."""
    return build_parser()


def _config_from_args(args):
    return ExperimentConfig(
        command=args.command,
        inputs=tuple(getattr(args, "inputs", ()) or ()),
        schedule=getattr(args, "schedule", None),
        sizes=getattr(args, "sizes", None),
        levels=getattr(args, "levels", None),
        tolerances={name: getattr(args, f"tol_{name}") for name in _DEFAULT_TOLERANCES[args.command]},
        seed=getattr(args, "seed", 0),
        word_len=getattr(args, "word_len", None),
        verify=getattr(args, "verify", False),
        counterexample=getattr(args, "counterexample", False),
        out=args.out,
        format=args.format,
    )


def run(config):
    """Dispatch a config; returns the process exit code.

    Tolerances the config leaves out take the command's defaults, and so
    does a schedule of None where one is built, as on the command line;
    the report echoes the values used, and an unread setting is a usage error.
    """
    command = config.command
    unknown = sorted(set(config.tolerances) - set(_DEFAULT_TOLERANCES[command]))
    if unknown:
        raise _UsageError(f"{command} reads no tolerance named {', '.join(unknown)}")
    samples = command in ("triangularize", "certify", "counterexample")
    if not samples and (config.seed, config.word_len) != (0, None):
        raise _UsageError(f"{command} reads no seed or word_len")
    filled = {"tolerances": {**_DEFAULT_TOLERANCES[command], **config.tolerances}}
    builds_schedule = command == "counterexample" or (command == "certify" and config.counterexample)
    if builds_schedule and config.schedule is None:
        filled["schedule"] = "pair"
    return _COMMANDS[command](replace(config, **filled))


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = _config_from_args(args)
    try:
        return run(config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SchurConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # before ValueError: LinAlgError subclasses it, but is no input error
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # MatrixFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

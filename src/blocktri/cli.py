"""Command line front end: pipelines in, deterministic reports out.

Every subcommand prints its report to stdout (JSON by default, CSV
flattens the per-level table) and optionally writes the same bytes to
``--out``.  Reports carry a config echo and never include timestamps, so
a fixed command line with a fixed seed reproduces byte-identical output.

Exit codes: 0 when the pipeline verdict is pass/certified, 1 when it is
refuted or a check failed, 2 for usage or OS-level I/O errors, 3 for
malformed matrix files and dimension mismatches.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field

from .commutators import (
    build_counterexample,
    certify_commutator,
    stripped_pair_checks,
    verify_counterexample,
)
from .decompose import decompose, diagonal_part, quasinilpotent_part_certificate
from .krylov import block_tridiagonalize, verify_block_structure
from .linalg import operator_norm
from .matio import (
    MatrixFormatError,
    matrix_document,
    read_matrix,
    render_report,
    write_report,
)
from .operators import make_schedule, operator_from_matrix
from .triangular import simultaneous_triangularize

__all__ = ["ExperimentConfig", "run", "main"]


class _UsageError(Exception):
    pass


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
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
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
    sys.stdout.write(text)
    if config.out is not None:
        write_report(doc, config.out, config.format)


def _schedule_from_config(config, default_levels=3):
    kind = config.schedule or "pair"
    if kind == "custom":
        if config.sizes is None:
            raise _UsageError("--schedule custom requires --sizes")
        return make_schedule("custom", sizes=config.sizes)
    return make_schedule(kind, config.levels or default_levels)


def _operators_from_files(paths):
    mats = [read_matrix(p) for p in paths]
    tri = block_tridiagonalize([m.array for m in mats], mode="padded")
    band_tol = 1e-8 * (1.0 + max(operator_norm(m) for m in mats))
    ops = [
        operator_from_matrix(t.array, tri.realized_schedule, band_tol=band_tol)
        for t in tri.transformed
    ]
    checks = [verify_block_structure(t, tri.realized_schedule) for t in tri.transformed]
    return ops, tri, [c.residual for c in checks]


def _cmd_tridiagonalize(config):
    if not 1 <= len(config.inputs) <= 2:
        raise _UsageError("tridiagonalize takes one or two matrix files")
    mats = [read_matrix(p) for p in config.inputs]
    tri = block_tridiagonalize([m.array for m in mats], mode="padded")
    tol = config.tolerances["band"]
    checks = [verify_block_structure(t, tri.realized_schedule, tol) for t in tri.transformed]
    sched = tri.realized_schedule
    rows = [
        {"level": n, "size": sched.sizes[n - 1], "cumulative": sched.cumsums[n - 1]}
        for n in range(1, sched.levels + 1)
    ]
    passed = all(c.passed for c in checks)
    doc = {
        "command": "tridiagonalize",
        "config": asdict(config),
        "levels": rows,
        "band_residuals": [c.residual for c in checks],
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


def _spectral_report_doc(command, config, report, extra=None):
    doc = {
        "command": command,
        "config": asdict(config),
        "levels": [asdict(r) for r in report.levels],
        "verdict": report.verdict,
        "first_refuted_level": report.first_refuted_level,
        "tol": report.tol,
        "note": report.note,
    }
    if extra:
        doc.update(extra)
    return doc


def _cmd_certify(config):
    extra = {}
    if config.counterexample:
        if config.inputs:
            raise _UsageError("--counterexample takes no matrix files")
        pair = build_counterexample(_schedule_from_config(config))
        c_op, z_op = pair.c_op, pair.z_op
        n_max = None
    elif len(config.inputs) == 2:
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
    doc = _spectral_report_doc("certify", config, report, extra)
    _emit(doc, config)
    return 0 if report.verdict == "certified_quasinilpotent" else 1


def _cmd_counterexample(config):
    sched = _schedule_from_config(config)
    pair = build_counterexample(sched)
    if config.verify:
        report = verify_counterexample(
            pair,
            n_max=min(sched.levels, config.levels or sched.levels),
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
                "decay_bound": pair.c_op.decay_bound(n),
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
    cert = quasinilpotent_part_certificate(result, tol=config.tolerances["radius"])
    split = diagonal_part(result)
    norm_t = operator_norm(t)
    residuals = result.residuals
    passed = (
        residuals["unitarity"] <= config.tolerances["unit"]
        and residuals["reconstruction"] <= config.tolerances["recon"] * (1.0 + norm_t)
        and residuals["triangularity"] == 0.0
        and cert.verdict == "certified_quasinilpotent"
    )
    extra = {
        "realized_sizes": list(result.schedule.sizes),
        "residuals": residuals,
        "zero_diagonal": split.zero_diagonal,
        "passed": passed,
    }
    doc = _spectral_report_doc("decompose", config, cert, extra)
    _emit(doc, config)
    return 0 if passed else 1


def _cmd_stripped_checks(config):
    if len(config.inputs) != 2:
        raise _UsageError("stripped-checks takes exactly two matrix files")
    (k1, k2), tri, band = _operators_from_files(config.inputs)
    report = stripped_pair_checks(
        k1,
        k2,
        n_max=config.levels,
        tol=config.tolerances["radius"],
        word_len=config.word_len if config.word_len is not None else 4,
    )
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


def _add_output_args(sp):
    sp.add_argument("--out", help="also write the report to this path")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blocktri",
        description="Block-tridiagonal truncations, triangularization, and commutator certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tridiagonalize", help="jointly band one or two matrices")
    sp.add_argument("inputs", nargs="+", metavar="MATRIX")
    sp.add_argument("--tol-band", dest="tol_band", type=_positive_float, default=1e-10)
    _add_output_args(sp)

    sp = sub.add_parser("triangularize", help="decide simultaneous triangularizability")
    sp.add_argument("inputs", nargs=2, metavar="MATRIX")
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=None)
    sp.add_argument("--tol-tri", dest="tol_tri", type=_positive_float, default=1e-9)
    _add_output_args(sp)

    sp = sub.add_parser("certify", help="certify quasinilpotency of a commutator")
    sp.add_argument("inputs", nargs="*", metavar="MATRIX")
    sp.add_argument("--counterexample", action="store_true")
    sp.add_argument("--schedule", choices=("pair", "single", "custom"), default="pair")
    sp.add_argument("--sizes", type=_size_list, default=None)
    sp.add_argument("--levels", type=_positive_int, default=None)
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=None)
    sp.add_argument("--tol-radius", dest="tol_radius", type=_positive_float, default=1e-9)
    sp.add_argument("--tol-tri", dest="tol_tri", type=_positive_float, default=1e-9)
    _add_output_args(sp)

    sp = sub.add_parser("counterexample", help="build and optionally verify the fixture pair")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--schedule", choices=("pair", "single", "custom"), default="pair")
    sp.add_argument("--sizes", type=_size_list, default=None)
    sp.add_argument("--levels", type=_positive_int, default=3)
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=None)
    sp.add_argument("--tol-radius", dest="tol_radius", type=_positive_float, default=1e-9)
    _add_output_args(sp)

    sp = sub.add_parser("decompose", help="triangular-plus-quasinilpotent decomposition")
    sp.add_argument("inputs", nargs=1, metavar="MATRIX")
    sp.add_argument("--levels", type=_positive_int, default=None)
    sp.add_argument("--tol-unit", dest="tol_unit", type=_positive_float, default=1e-10)
    sp.add_argument("--tol-recon", dest="tol_recon", type=_positive_float, default=1e-9)
    sp.add_argument("--tol-radius", dest="tol_radius", type=_positive_float, default=1e-12)
    _add_output_args(sp)

    sp = sub.add_parser("stripped-checks", help="lower-part commutator checks for a pair")
    sp.add_argument("inputs", nargs=2, metavar="MATRIX")
    sp.add_argument("--levels", type=_positive_int, default=None)
    sp.add_argument("--word-len", dest="word_len", type=_positive_int, default=4)
    sp.add_argument("--tol-radius", dest="tol_radius", type=_positive_float, default=1e-9)
    _add_output_args(sp)

    return parser


def _config_from_args(args):
    tolerances = {}
    for name in ("band", "tri", "radius", "unit", "recon"):
        value = getattr(args, f"tol_{name}", None)
        if value is not None:
            tolerances[name] = value
    return ExperimentConfig(
        command=args.command,
        inputs=tuple(getattr(args, "inputs", ()) or ()),
        schedule=getattr(args, "schedule", None),
        sizes=getattr(args, "sizes", None),
        levels=getattr(args, "levels", None),
        tolerances=tolerances,
        seed=args.seed,
        word_len=getattr(args, "word_len", None),
        verify=getattr(args, "verify", False),
        counterexample=getattr(args, "counterexample", False),
        out=args.out,
        format=args.format,
    )


def run(config):
    """Dispatch a parsed config; returns the process exit code."""
    return _COMMANDS[config.command](config)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = _config_from_args(args)
    try:
        return run(config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

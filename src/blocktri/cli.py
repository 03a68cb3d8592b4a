"""Command line front end: pipelines in, deterministic reports out.

Every subcommand prints its report to stdout (JSON by default, CSV
flattens the per-level table), after writing the same bytes to ``--out``
when given.  Reports carry a config echo and never include timestamps, so
a fixed command line reproduces byte-identical output.

``_READS`` is the one list of the settings each command reads.  ``certify``
has two modes, on matrix files or with ``--counterexample``, and so has
``counterexample``, with or without ``--verify``; every other command has
one.  A command's subparser offers the options of its modes, and ``run``
refuses, naming it, any setting its mode does not read that is set away
from its default.  Defaults are echoed all the same, so the echo of a
valid command line states exactly how its verdict was produced.

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


# What each mode reads: how many matrix files (fewest, most), and which options.
# A mode is a command, or a command with the flag that selects it; a flag's mode
# comes first, so that help lists the flag first.
_READS = {
    "tridiagonalize": ((1, 2), ("tol_band",)),
    "triangularize": ((2, 2), ("word_len", "seed", "tol_tri")),
    "certify --counterexample": (
        (0, 0),
        ("counterexample", "schedule", "sizes", "levels", "word_len", "seed", "tol_radius", "tol_tri"),
    ),
    "certify": ((2, 2), ("levels", "word_len", "seed", "tol_radius", "tol_tri")),
    "counterexample --verify": (
        (0, 0),
        ("verify", "schedule", "sizes", "levels", "word_len", "seed", "tol_radius"),
    ),
    "counterexample": ((0, 0), ("schedule", "sizes", "levels")),
    "decompose": ((1, 1), ("levels", "tol_unit", "tol_recon")),
    "stripped-checks": ((2, 2), ("levels",)),
}

# every --tol-NAME and its default, which a report echoes when its command has the option
_TOLERANCES = {"band": _BAND_TOL, "tri": 1e-9, "radius": 1e-9, "unit": 1e-10, "recon": 1e-9}


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


# the argparse keywords of every option in _READS; the option string is --NAME, with - for _
_OPTIONS = {
    "counterexample": {"action": "store_true"},
    "verify": {"action": "store_true"},
    "schedule": {"choices": ("pair", "single", "custom")},
    "sizes": {"type": _size_list},
    "levels": {"type": _positive_int},
    "word_len": {"type": _positive_int},
    "seed": {"type": int},
    **{f"tol_{name}": {"type": _positive_float} for name in _TOLERANCES},
}


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
    if config.sizes is not None:
        raise _UsageError(f"--sizes takes --schedule custom, not {kind}")
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
        pair = build_counterexample(_schedule_from_config(config))
        c_op, z_op = pair.c_op, pair.z_op
    else:
        (c_op, z_op), tri, band = _operators_from_files(config.inputs)
        extra = {"realized_sizes": list(tri.realized_schedule.sizes), "band_residuals": band}
    report = certify_commutator(
        c_op,
        z_op,
        n_max=None if config.counterexample else config.levels,  # --levels already cut the schedule
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
            pair, tol=config.tolerances["radius"], word_len=config.word_len, seed=config.seed
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
    t = read_matrix(config.inputs[0])
    result = decompose(t, levels=config.levels)
    cert = quasinilpotent_part_certificate(result)
    split = diagonal_part(result)
    residuals = result.residuals
    passed = (
        _norm_excess(residuals["unitarity"], config.tolerances["unit"]) is None
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


# each command's pipeline and help line
_COMMANDS = {
    "tridiagonalize": (_cmd_tridiagonalize, "jointly band one or two matrices"),
    "triangularize": (_cmd_triangularize, "decide simultaneous triangularizability"),
    "certify": (_cmd_certify, "certify quasinilpotency of a commutator"),
    "counterexample": (_cmd_counterexample, "build and optionally verify the fixture pair"),
    "decompose": (_cmd_decompose, "triangular-plus-quasinilpotent decomposition"),
    "stripped-checks": (_cmd_stripped_checks, "lower-part commutator checks for a pair"),
}


def _modes(command):
    """The command's rows of ``_READS``, and the options they name, in order."""
    modes = {mode: reads for mode, reads in _READS.items() if mode.split()[0] == command}
    return modes, list(dict.fromkeys(name for _, names in modes.values() for name in names))


def _option(name):
    return "--" + name.replace("_", "-")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blocktri",
        description="Block-tridiagonal truncations, triangularization, and commutator certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        modes, options = _modes(command)
        # an option not given is not set, so the config keeps ExperimentConfig's default
        sp = sub.add_parser(command, help=help_line, argument_default=argparse.SUPPRESS)
        fewest = min(files[0] for files, _ in modes.values())
        most = max(files[1] for files, _ in modes.values())
        if most:
            nargs = fewest if fewest == most else "+" if fewest else "*"
            sp.add_argument("inputs", nargs=nargs, metavar="MATRIX")
        for name in options:
            sp.add_argument(_option(name), dest=name, **_OPTIONS[name])
        sp.add_argument("--out", help="also write the report to this path")
        sp.add_argument("--format", choices=("json", "csv"))
    return parser


@functools.cache
def _parser():
    """The parser :func:`main` uses, built once per process: ``parse_args`` does not change it."""
    return build_parser()


def _config_from_args(args):
    settings = vars(args)  # the command and the options given
    inputs = tuple(settings.pop("inputs", ()))
    tolerances = {name[4:]: settings.pop(name) for name in list(settings) if name.startswith("tol_")}
    return ExperimentConfig(**settings, inputs=inputs, tolerances=tolerances)


def run(config):
    """Dispatch a config; returns the process exit code.

    The command, with its ``counterexample`` or ``verify`` flag, picks a
    mode of ``_READS``.  A setting the mode does not read must keep its
    default, and the mode's count of matrix files must hold; else a usage
    error names the setting before any file is read.  Tolerances the
    config leaves out take the command's defaults, and so does a schedule
    of None where one is built, as on the command line; the report echoes
    the values used.
    """
    command = config.command
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r}")
    modes, options = _modes(command)
    mode = command
    for flag in ("counterexample", "verify"):
        if getattr(config, flag) and f"{command} --{flag}" in modes:
            mode = f"{command} --{flag}"
    (fewest, most), reads = modes[mode]
    tolerances = {name: value for name, value in _TOLERANCES.items() if f"tol_{name}" in options}
    # each setting the config holds, with its default: ExperimentConfig's, or the command's tolerance
    blank = ExperimentConfig(command)
    settings = {name: (getattr(config, name), getattr(blank, name)) for name in _OPTIONS if hasattr(blank, name)}
    settings.update((f"tol_{name}", (value, tolerances.get(name))) for name, value in config.tolerances.items())
    for name, (value, default) in settings.items():
        if name not in reads and value != default:
            readers = "".join(f"; {other} does" for other, (_, names) in modes.items() if name in names)
            raise _UsageError(f"{mode} reads no {_option(name)}{readers}")
    if not fewest <= len(config.inputs) <= most:
        count = ("no", "one", "two")
        wanted = count[most] if fewest == most else f"{count[fewest]} or {count[most]}"
        raise _UsageError(f"{mode} takes {wanted} matrix file{'' if most == 1 else 's'}")
    filled = {"tolerances": {**tolerances, **config.tolerances}}
    if "schedule" in reads and config.schedule is None:
        filled["schedule"] = "pair"
    return _COMMANDS[command][0](replace(config, **filled))


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

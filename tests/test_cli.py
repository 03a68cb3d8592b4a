"""End-to-end tests for the command line interface."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import blocktri
from blocktri import _lapack, corner_unit, read_matrix, shift_matrix, write_matrix
from blocktri import cli
from blocktri.cli import ExperimentConfig, main, run
from helpers import conjugated_upper_pair, random_complex


def write_pair(tmp_path, a, b):
    pa = str(tmp_path / "a.json")
    pb = str(tmp_path / "b.json")
    write_matrix(a, pa)
    write_matrix(b, pb)
    return pa, pb


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counterexample_verify_passes(capsys):
    code, out, err = run_cli(capsys, ["counterexample", "--levels", "3", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["command"] == "counterexample"
    assert all(row["passed"] for row in doc["levels"])


def test_counterexample_norm_table(capsys):
    code, out, err = run_cli(capsys, ["counterexample", "--levels", "3"])
    assert code == 0
    doc = json.loads(out)
    norms = {row["level"]: row for row in doc["levels"]}
    assert norms[2]["size"] == 4
    assert norms[2]["c_norm"] == pytest.approx(0.25, rel=1e-12)
    assert norms[3]["decay_bound"] == pytest.approx(0.05, rel=1e-12)


def test_certify_counterexample_refutes(capsys):
    code, out, err = run_cli(capsys, ["certify", "--counterexample", "--levels", "3"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted_hypothesis"
    assert doc["first_refuted_level"] == 2


def test_certify_single_schedule_counterexample(capsys):
    code, out, err = run_cli(
        capsys, ["certify", "--counterexample", "--schedule", "single", "--levels", "4"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted_hypothesis"


def test_certify_from_files(tmp_path, capsys):
    rng = np.random.default_rng(81)
    pa, pb = write_pair(tmp_path, random_complex(25, 25, rng), random_complex(25, 25, rng))
    code, out, err = run_cli(capsys, ["certify", pa, pb])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] in ("refuted_hypothesis", "not_certified")
    assert doc["realized_sizes"] == [1, 4, 20]


def test_certify_requires_exactly_one_source(capsys):
    code, out, err = run_cli(capsys, ["certify"])
    assert code == 2
    assert "usage error" in err
    code, out, err = run_cli(capsys, ["certify", "--counterexample", "a.json", "b.json"])
    assert code == 2


def test_triangularize_commuting_diagonals(tmp_path, capsys):
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([4.0, 5.0, 6.0])
    pa, pb = write_pair(tmp_path, a, b)
    code, out, err = run_cli(capsys, ["triangularize", pa, pb])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "triangularizable"
    witness = doc["witness"]
    assert witness["rows"] == 3 and witness["cols"] == 3


def test_triangularize_refuted_pair(tmp_path, capsys):
    a = shift_matrix(5) / 5
    b = corner_unit(5) / 5
    pa, pb = write_pair(tmp_path, a, b)
    code, out, err = run_cli(capsys, ["triangularize", pa, pb])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted"
    row = doc["levels"][0]
    assert row["refuting_word"] == "xxx"
    assert (row["route"], row["trace_power"]) == ("words", 2)
    assert row["trace"] > row["trace_bound"] > 0.0


def test_tridiagonalize_single(tmp_path, capsys):
    rng = np.random.default_rng(82)
    path = str(tmp_path / "m.json")
    write_matrix(random_complex(27, 27, rng), path)
    code, out, err = run_cli(capsys, ["tridiagonalize", path])
    assert code == 0
    doc = json.loads(out)
    assert [row["size"] for row in doc["levels"]] == [1, 2, 6, 18]
    assert doc["band_residuals"][0] < 1e-10


def test_tridiagonalize_pair(tmp_path, capsys):
    rng = np.random.default_rng(83)
    pa, pb = write_pair(tmp_path, random_complex(25, 25, rng), random_complex(25, 25, rng))
    code, out, err = run_cli(capsys, ["tridiagonalize", pa, pb])
    assert code == 0
    doc = json.loads(out)
    assert [row["size"] for row in doc["levels"]] == [1, 4, 20]


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e300, 2.0**600, 2.0**-600])
def test_tridiagonalize_band_gate_is_relative(tmp_path, capsys, scale):
    path = str(tmp_path / "t.json")
    write_matrix(random_complex(27, 27, np.random.default_rng(7)) * scale, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["tridiagonalize", path])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["stabilized_dim"] is None


@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600])
def test_tridiagonalize_reports_the_reducing_subspace(tmp_path, capsys, scale):
    # block-diagonal with blocks 9 and 18: the Krylov space of e_1 is the first block
    rng = np.random.default_rng(7)
    m = np.zeros((27, 27), dtype=np.complex128)
    m[:9, :9] = random_complex(9, 9, rng)
    m[9:, 9:] = random_complex(18, 18, rng)
    path = str(tmp_path / "m.json")
    write_matrix(m * scale, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["tridiagonalize", path])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [row["size"] for row in doc["levels"]] == [1, 2, 6, 18]
    assert doc["stabilized_dim"] == 9


def test_decompose_and_out_file(tmp_path, capsys):
    rng = np.random.default_rng(84)
    path = str(tmp_path / "m.json")
    write_matrix(random_complex(27, 27, rng), path)
    out_path = str(tmp_path / "report.json")
    code, out, err = run_cli(capsys, ["decompose", path, "--out", out_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["residuals"]["triangularity"] == 0.0
    with open(out_path) as fh:
        assert fh.read() == out


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    rng = np.random.default_rng(86)
    a, b, _ = conjugated_upper_pair(8, rng)
    pa, pb = write_pair(tmp_path, a, b)
    pm = str(tmp_path / "m.json")
    write_matrix(random_complex(27, 27, rng), pm)
    # triangularize exits 0 only with a witness in its report
    for argv in (["triangularize", pa, pb], ["decompose", pm, "--format", "csv"]):
        out_path = tmp_path / f"{argv[0]}.out"
        code, out, err = run_cli(capsys, [*argv, "--out", str(out_path)])
        assert (code, err) == (0, "")
        assert out_path.read_bytes() == out.encode("utf-8")


def test_stripped_checks_command(tmp_path, capsys):
    rng = np.random.default_rng(85)
    pa, pb = write_pair(tmp_path, random_complex(25, 25, rng), random_complex(25, 25, rng))
    code, out, err = run_cli(capsys, ["stripped-checks", pa, pb])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    for row in doc["levels"]:
        assert row["diag_max"] == 0.0
        assert row["trace_abs"] == 0.0


def test_reports_are_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["counterexample", "--levels", "3", "--verify"])
    code2, out2, _ = run_cli(capsys, ["counterexample", "--levels", "3", "--verify"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_file_is_io_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["decompose", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error" in err


def test_malformed_file_is_format_error(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{nope")
    code, out, err = run_cli(capsys, ["tridiagonalize", path])
    assert code == 3
    assert ":1:" in err


def test_entry_beyond_double_range_is_format_error(tmp_path, capsys):
    # an int of 400 digits is valid JSON but overflows a double
    path = str(tmp_path / "huge.json")
    with open(path, "w") as fh:
        fh.write('{"rows": 1, "cols": 2, "entries": [[1' + "0" * 400 + ", 0], [0, 0]]}")
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 3
    assert out == ""
    assert "entry 0 is not finite" in err
    assert "Traceback" not in err


def test_overlong_integer_entry_is_format_error(tmp_path, capsys):
    # 5001 digits: past the interpreter's int-string limit, which json.loads hits first
    path = str(tmp_path / "long.json")
    with open(path, "w") as fh:
        fh.write('{"rows": 1, "cols": 1, "entries": [[1' + "0" * 5000 + ", 0]]}")
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 3
    assert out == ""
    assert err == f"error: {path}: integer entry has too many digits to parse\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            b'{"rows": 1, "cols": 1, "entries": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
            "invalid JSON: arrays or objects nest too deeply",
        ),
        (
            b'{"rows": 1, "cols": 1, "entries": [[0.0, 0.0\xff]]}',
            "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 44: invalid start byte",
        ),
    ],
    ids=["deep-nesting", "not-utf-8"],
)
def test_unreadable_document_is_format_error(tmp_path, capsys, payload, message):
    path = str(tmp_path / "bad.json")
    with open(path, "wb") as fh:
        fh.write(payload)
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 3
    assert out == ""
    assert err == f"error: {path}: {message}\n"


def test_dimension_mismatch_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(86)
    pa, pb = write_pair(tmp_path, random_complex(25, 25, rng), random_complex(27, 27, rng))
    # one check, inside block_tridiagonalize, serves every pipeline that bands a pair
    for command in ("tridiagonalize", "certify", "stripped-checks"):
        code, out, err = run_cli(capsys, [command, pa, pb])
        assert code == 3, command
        assert "(25, 25)" in err and "(27, 27)" in err, err


def test_unrealizable_levels_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(87)
    path = str(tmp_path / "m.json")
    write_matrix(random_complex(10, 10, rng), path)
    # 4 full single-schedule levels need dimension 27
    code, out, err = run_cli(capsys, ["decompose", path, "--levels", "4"])
    assert code == 3


def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "t.json")
    write_matrix(random_complex(27, 27, np.random.default_rng(1)), path)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("schur form computation did not converge")

    monkeypatch.setattr(_lapack, "schur", no_convergence)
    # a failed Schur factorization is a numerical failure, not a traceback
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 4
    assert out == ""
    assert err.startswith("error: diagonal block") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["counterexample", "--levels", "8"], ["certify", "--counterexample", "--levels", "9"]]
)
def test_out_of_memory_exits_4(capsys, monkeypatch, argv):
    # level 8 of the pair schedule is a dense 62500 x 62500 block; nothing is allocated here
    def out_of_memory(schedule):
        raise MemoryError("Unable to allocate 58.2 GiB for an array with shape (62500, 62500)")

    monkeypatch.setattr(blocktri.cli, "build_counterexample", out_of_memory)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["certify"])
@pytest.mark.parametrize("scale", [1e300, 2.0**600])
def test_overflowing_commutator_exits_4(tmp_path, capsys, command, scale):
    rng = np.random.default_rng(7)
    a = random_complex(25, 25, rng) * scale
    b = random_complex(25, 25, rng) * scale
    pa, pb = write_pair(tmp_path, a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [command, pa, pb])
    assert (code, out) == (4, "")
    assert err.startswith("error: corner commutator at level ") and err.count("\n") == 1


@pytest.mark.parametrize("n, scale", [(25, 1e300), (25, 2.0**600), (125, 2.0**400)])
def test_stripped_checks_reports_overflowing_scales_as_unscaled(tmp_path, capsys, n, scale):
    # the checks hold by structure and form no product, so no input scale can overflow
    # them: the corner commutator blocks of the 25 x 25 pairs and the word products
    # of the 125 x 125 pair would not be finite here
    rng = np.random.default_rng(7)
    a = random_complex(n, n, rng)
    b = random_complex(n, n, rng)
    reports = []
    for factor in (1.0, scale):
        pa, pb = write_pair(tmp_path, a * factor, b * factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["stripped-checks", pa, pb])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        reports.append([doc[k] for k in ("levels", "passed", "realized_sizes")])
    assert reports[1] == reports[0]


def test_decompose_tiny_power_of_two_scale(tmp_path, capsys):
    # 2^-600 scaling is exact; the ordered Schur forms must not underflow
    path = str(tmp_path / "tiny.json")
    write_matrix(random_complex(27, 27, np.random.default_rng(1)) * 2.0**-600, path)
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 0
    assert json.loads(out)["verdict"] == "certified_quasinilpotent"
    assert err == ""


@pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e300, 2.0**600, 2.0**-600])
def test_decompose_is_scale_safe(tmp_path, capsys, scale):
    # the Krylov vector norms must neither underflow nor overflow
    path = str(tmp_path / "t.json")
    write_matrix(random_complex(27, 27, np.random.default_rng(7)) * scale, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["decompose", path])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "certified_quasinilpotent"
    assert doc["realized_sizes"] == [1, 2, 6, 18]


def test_decompose_svd_budget(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "t.json")
    write_matrix(random_complex(243, 243, np.random.default_rng(243)), path)
    shapes = []
    svdvals = _lapack.svdvals

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(_lapack, "svdvals", counting)
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 0
    # the norm gates are screened and the reported residuals are Frobenius norms
    assert [s for s in shapes if s[0] == s[1] >= 162] == []


def test_argparse_failures_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["tridiagonalize"]) == 2
    capsys.readouterr()
    assert main(["counterexample", "--levels", "0"]) == 2
    capsys.readouterr()
    assert main(["decompose", "m.json", "--format", "xml"]) == 2
    capsys.readouterr()


def test_main_builds_its_parser_once(tmp_path, capsys):
    # one parser serves every call, and prints what a fresh parser prints
    rng = np.random.default_rng(90)
    pa, pb = write_pair(tmp_path, random_complex(9, 9, rng), random_complex(9, 9, rng))
    argvs = [
        ["decompose"],
        ["--help"],
        ["decompose", "--help"],
        ["tridiagonalize", pa],
        ["triangularize", pa, pb],
        ["certify", pa, pb],
        ["counterexample", "--verify", "--levels", "3"],
        ["decompose", pa],
        ["stripped-checks", pa, pb],
    ]
    build_parser = cli.build_parser
    built = []

    def counted():
        built.append(None)
        return build_parser()

    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", counted):
        cached = [run_cli(capsys, argv) for argv in argvs]
    assert len(built) == 1
    with mock.patch.object(cli, "_parser", build_parser):
        fresh = [run_cli(capsys, argv) for argv in argvs]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 1, 1, 0, 0, 0]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("tridiagonalize", "--tol-band"),
        ("triangularize", "--tol-tri"),
        ("decompose", "--tol-unit"),
        ("decompose", "--tol-recon"),
    ],
)
def test_non_finite_tolerances_exit_2(tmp_path, capsys, command, flag, value):
    # an infinite gate passes anything (a random pair read as triangularizable)
    # and a NaN one would be echoed into a report that is not JSON
    rng = np.random.default_rng(89)
    inputs = list(write_pair(tmp_path, random_complex(5, 5, rng), random_complex(5, 5, rng)))
    if command != "triangularize":
        inputs = inputs[:1]
    code, out, err = run_cli(capsys, [command, *inputs, flag, value])
    assert (code, out) == (2, "")
    assert "must be positive and finite" in err


def test_seed_and_word_len_flags(tmp_path, capsys):
    rng = np.random.default_rng(88)
    a, b, _ = conjugated_upper_pair(5, rng)
    pa, pb = write_pair(tmp_path, a, b)
    code, out, err = run_cli(
        capsys, ["triangularize", pa, pb, "--word-len", "3", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "triangularizable"
    for argv in (["certify", pa, pb], ["counterexample", "--verify", "--levels", "2"]):
        code, out, err = run_cli(capsys, [*argv, "--seed", "7"])
        assert err == ""
        assert json.loads(out)["config"]["seed"] == 7


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("stripped-checks", "--tol-radius", "1e-300"),
        ("stripped-checks", "--word-len", "9"),
        ("decompose", "--tol-radius", "1e-300"),
        ("tridiagonalize", "--seed", "7"),
        ("decompose", "--seed", "7"),
        ("stripped-checks", "--seed", "7"),
    ],
)
def test_flags_that_could_not_act_are_gone(tmp_path, capsys, command, flag, value):
    # the radii of the stripped words and of the quasinilpotent part are exactly 0.0 by
    # structure, and these pipelines draw no random number
    rng = np.random.default_rng(89)
    inputs = list(write_pair(tmp_path, random_complex(5, 5, rng), random_complex(5, 5, rng)))
    if command != "stripped-checks":
        inputs = inputs[:1]
    code, out, err = run_cli(capsys, [command, *inputs, flag, value])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err


# each mode of each command, the config that selects it, and the settings it reads,
# written out here apart from cli._READS; "inputs" means it takes matrix files
MODES = {
    "tridiagonalize": ({"inputs": ("a.json",)}, {"inputs", "tol_band"}),
    "triangularize": ({"inputs": ("a.json", "b.json")}, {"inputs", "word_len", "seed", "tol_tri"}),
    "certify": (
        {"inputs": ("a.json", "b.json")},
        {"inputs", "counterexample", "levels", "word_len", "seed", "tol_radius", "tol_tri"},
    ),
    "certify --counterexample": (
        {"counterexample": True},
        {"counterexample", "schedule", "sizes", "levels", "word_len", "seed", "tol_radius", "tol_tri"},
    ),
    "counterexample": ({}, {"verify", "schedule", "sizes", "levels"}),
    "counterexample --verify": (
        {"verify": True},
        {"verify", "schedule", "sizes", "levels", "word_len", "seed", "tol_radius"},
    ),
    "decompose": ({"inputs": ("a.json",)}, {"inputs", "levels", "tol_unit", "tol_recon"}),
    "stripped-checks": ({"inputs": ("a.json", "b.json")}, {"inputs", "levels"}),
}

# a value away from the default for every setting, and how a usage error names it
UNREAD_VALUES = {
    "inputs": (("m.json",), "takes no matrix files"),
    "schedule": ("single", "reads no --schedule"),
    "sizes": ((3, 3), "reads no --sizes"),
    "levels": (2, "reads no --levels"),
    "seed": (9, "reads no --seed"),
    "word_len": (7, "reads no --word-len"),
    "verify": (True, "reads no --verify"),
    "counterexample": (True, "reads no --counterexample"),
    **{
        f"tol_{name}": (1e-300, f"reads no --tol-{name}")
        for name in ("band", "tri", "radius", "unit", "recon", "bogus")
    },
}


@pytest.mark.parametrize(
    "mode, setting",
    [(mode, setting) for mode, (_, reads) in MODES.items() for setting in UNREAD_VALUES if setting not in reads],
)
def test_run_refuses_a_setting_its_mode_does_not_read(capsys, mode, setting):
    # an unread setting could only be echoed, and would misstate how the verdict was produced
    base, _ = MODES[mode]
    value, message = UNREAD_VALUES[setting]
    if setting.startswith("tol_"):
        changed = {"tolerances": {setting[4:]: value}}
    else:
        changed = {setting: value}
    config = ExperimentConfig(command=mode.split()[0], **{**base, **changed})
    with pytest.raises(cli._UsageError) as caught:
        run(config)
    assert str(caught.value).startswith(f"{mode} {message}")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["counterexample", "--seed", "9"], "counterexample reads no --seed; counterexample --verify does"),
        (["counterexample", "--word-len", "7"], "counterexample reads no --word-len; counterexample --verify does"),
        (
            ["counterexample", "--levels", "3", "--tol-radius", "1e-300"],
            "counterexample reads no --tol-radius; counterexample --verify does",
        ),
        *(
            (["certify", "{a}", "{b}", *flags], f"certify reads no {flags[0]}; certify --counterexample does")
            for flags in (["--schedule", "pair"], ["--schedule", "custom"], ["--sizes", "3,3"])
        ),
        (["certify", "--counterexample", "{a}", "{b}"], "certify --counterexample takes no matrix files"),
        (["certify", "{a}"], "certify takes two matrix files"),
        (["tridiagonalize", "{a}", "{b}", "{a}"], "tridiagonalize takes one or two matrix files"),
        # --sizes is read only by a custom schedule
        (
            ["counterexample", "--schedule", "pair", "--sizes", "3,3", "--levels", "2"],
            "--sizes takes --schedule custom, not pair",
        ),
        (["counterexample", "--verify", "--sizes", "3,3"], "--sizes takes --schedule custom, not pair"),
        (
            ["certify", "--counterexample", "--schedule", "single", "--sizes", "3,3"],
            "--sizes takes --schedule custom, not single",
        ),
    ],
)
def test_main_refuses_a_setting_its_mode_does_not_read(tmp_path, capsys, argv, message):
    rng = np.random.default_rng(81)
    pa, pb = write_pair(tmp_path, random_complex(5, 5, rng), random_complex(5, 5, rng))
    code, out, err = run_cli(capsys, [arg.format(a=pa, b=pb) for arg in argv])
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_run_refuses_an_unknown_command(monkeypatch, capsys):
    # run is public: a command the parser would reject is a usage error there too
    with pytest.raises(cli._UsageError, match="^unknown command 'bogus'$"):
        run(ExperimentConfig(command="bogus"))
    monkeypatch.setattr(cli, "_config_from_args", lambda args: ExperimentConfig(command="bogus"))
    assert run_cli(capsys, ["stripped-checks", "a.json", "b.json"]) == (2, "", "usage error: unknown command 'bogus'\n")


def test_run_refuses_sizes_without_a_custom_schedule(capsys):
    for config in (
        ExperimentConfig(command="counterexample", sizes=(3, 3), levels=2),
        ExperimentConfig(command="certify", counterexample=True, schedule="single", sizes=(3, 3)),
    ):
        with pytest.raises(cli._UsageError, match="--sizes takes --schedule custom"):
            run(config)
    assert capsys.readouterr() == ("", "")


def test_unread_settings_at_their_defaults_are_echoed(tmp_path, capsys):
    # the norm table reads no tolerance, seed or word length, yet echoes their defaults
    code, out, err = run_cli(capsys, ["counterexample", "--levels", "2", "--seed", "0", "--tol-radius", "1e-9"])
    assert (code, err) == (0, "")
    config = json.loads(out)["config"]
    assert (config["tolerances"], config["seed"], config["word_len"]) == ({"radius": 1e-09}, 0, None)
    rng = np.random.default_rng(81)
    pa, pb = write_pair(tmp_path, random_complex(5, 5, rng), random_complex(5, 5, rng))
    code, out, err = run_cli(capsys, ["certify", pa, pb])
    assert json.loads(out)["config"]["schedule"] is None


def test_each_subcommand_offers_its_options():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {
        command: sorted(s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help"))
        for command, sp in subparsers.choices.items()
    }
    output = ["--format", "--out"]
    assert offered == {
        "tridiagonalize": sorted(["--tol-band", *output]),
        "triangularize": sorted(["--seed", "--tol-tri", "--word-len", *output]),
        "certify": sorted([
            "--counterexample", "--levels", "--schedule", "--seed", "--sizes",
            "--tol-radius", "--tol-tri", "--word-len", *output,
        ]),
        "counterexample": sorted([
            "--levels", "--schedule", "--seed", "--sizes", "--tol-radius", "--verify", "--word-len", *output,
        ]),
        "decompose": sorted(["--levels", "--tol-recon", "--tol-unit", *output]),
        "stripped-checks": sorted(["--levels", *output]),
    }
    assert sum(map(len, offered.values())) == 35


@pytest.mark.parametrize("target", ["missing-dir/report.json", "a-dir"])
def test_unwritable_out_prints_no_report(tmp_path, capsys, target):
    path = str(tmp_path / "m.json")
    write_matrix(random_complex(9, 9, np.random.default_rng(84)), path)
    (tmp_path / "a-dir").mkdir()
    out_path = str(tmp_path / target)
    code, out, err = run_cli(capsys, ["decompose", path, "--out", out_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.endswith(f": {out_path!r}\n")
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".partial-")]


def test_witness_round_trips_from_report(tmp_path, capsys):
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    pa, pb = write_pair(tmp_path, a, b)
    code, out, err = run_cli(capsys, ["triangularize", pa, pb])
    assert code == 0
    doc = json.loads(out)
    witness = doc["witness"]
    flat = np.array([complex(re, im) for re, im in witness["entries"]])
    u = flat.reshape(witness["rows"], witness["cols"])
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10


# the six pipelines (triangularize on a triangularizable and a random pair),
# with the exit code each gives on the files below
PIPELINES = (
    (["tridiagonalize", "{m}"], 0),
    (["triangularize", "{u}", "{v}"], 0),
    (["triangularize", "{a}", "{b}"], 1),
    (["certify", "{a}", "{b}"], 1),
    (["counterexample", "--verify", "--schedule", "pair", "--levels", "3"], 0),
    (["decompose", "{m}"], 0),
    (["stripped-checks", "{a}", "{b}"], 0),
)


def pipeline_runs(tmp_path, pipelines=PIPELINES):
    """The pipelines' argv, with the matrix files they name written, and exit codes."""
    rng = np.random.default_rng(89)
    files = {"m": str(tmp_path / "m.json")}
    write_matrix(random_complex(27, 27, rng), files["m"])
    files["a"], files["b"] = write_pair(tmp_path, random_complex(25, 25, rng), random_complex(25, 25, rng))
    u, v, _ = conjugated_upper_pair(6, rng)
    files["u"], files["v"] = str(tmp_path / "u.json"), str(tmp_path / "v.json")
    write_matrix(u, files["u"])
    write_matrix(v, files["v"])
    return [([arg.format(**files) for arg in argv], code) for argv, code in pipelines]


def run_pipelines(tmp_path, prelude, check):
    """Run every pipeline in one fresh interpreter; returns its stdout.

    ``prelude`` runs before blocktri is imported, ``check`` after the
    import and after each pipeline.
    """
    runs = pipeline_runs(tmp_path)
    script = (
        "import sys\n"
        f"{prelude}\n"
        "import blocktri.cli\n"
        f"{check}\n"
        f"for argv, expected in {runs!r}:\n"
        "    code = blocktri.cli.main(argv)\n"
        "    assert code == expected, (argv, code)\n"
        f"    {check}\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(blocktri.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "argv, expected",
    [*PIPELINES, (["counterexample", "--levels", "3"], 0)],
    ids=lambda v: "-".join(v) if isinstance(v, list) else None,
)
def test_csv_holds_the_json_level_rows(tmp_path, capsys, argv, expected):
    [(argv, expected)] = pipeline_runs(tmp_path, [(argv, expected)])
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (expected, "")
    rows = json.loads(out)["levels"]
    code, out, err = run_cli(capsys, [*argv, "--format", "csv"])
    assert (code, err) == (expected, "")
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == sorted({key for row in rows for key in row})
    want = [{k: "" if row.get(k) is None else str(row[k]) for k in reader.fieldnames} for row in rows]
    assert list(reader) == want


def test_pipelines_do_not_import_scipy_packages(tmp_path):
    # _lapack loads scipy's compiled LAPACK/BLAS by file: no scipy package initialiser runs
    check = "assert not {'scipy.linalg', 'scipy.sparse', 'scipy.optimize'} & set(sys.modules), sorted(sys.modules)"
    run_pipelines(tmp_path, "", check)


def test_pipelines_run_through_the_scipy_linalg_fallback(tmp_path):
    # with the by-file load made impossible, the same extension modules come
    # through scipy.linalg, and every report keeps its bytes
    direct = run_pipelines(tmp_path, "", "")
    prelude = "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES[:] = []"
    fallback = run_pipelines(tmp_path, prelude, "assert 'scipy.linalg' in sys.modules")
    assert fallback == direct


@pytest.mark.parametrize(
    "schedule, level",
    [
        *(pytest.param(["single", "--levels", n], 2, id=n) for n in ("2", "3", "5")),
        # without --levels, custom sizes are verified through their last level
        pytest.param(["custom", "--sizes", "3,4,5,2"], 4, id="custom"),
    ],
)
def test_counterexample_verify_refuses_a_size_two_block(capsys, schedule, level):
    # the single schedule's second block has size 2; its commutator diag(1, -1)/4 is not nilpotent
    code, out, err = run_cli(capsys, ["counterexample", "--verify", "--schedule", *schedule])
    assert (code, out) == (3, "")
    message = f"error: block size 2 (level {level}) is outside the counterexample family"
    assert err.startswith(message) and err.count("\n") == 1


def test_counterexample_verify_covers_every_custom_level(capsys):
    code, out, err = run_cli(capsys, ["counterexample", "--verify", "--schedule", "custom", "--sizes", "3,4,5,6"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["config"]["levels"] is None
    assert {row["level"] for row in doc["levels"]} == {1, 2, 3, 4}


@pytest.mark.parametrize(
    "command", [["certify", "--counterexample"], ["counterexample"], ["counterexample", "--verify"]]
)
def test_levels_truncates_a_custom_schedule(capsys, command):
    argv = [*command, "--schedule", "custom", "--sizes", "3,4,5,6", "--levels", "2"]
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    assert {row["level"] for row in json.loads(out)["levels"]} == {1, 2}


def test_counterexample_verify_single_schedule_first_level_passes(capsys):
    code, out, err = run_cli(capsys, ["counterexample", "--verify", "--schedule", "single", "--levels", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("schedule, levels", [("single", 6), ("pair", 5)])
def test_counterexample_commands_agree_on_levels(capsys, schedule, levels):
    # --levels past 4 (pair) or 5 (single) reaches every command, certify included
    commands = [["certify", "--counterexample"], ["counterexample"]]
    if schedule == "pair":  # --verify refuses the single schedule's size-2 block
        commands.append(["counterexample", "--verify"])
    for command in commands:
        code, out, err = run_cli(capsys, [*command, "--schedule", schedule, "--levels", str(levels)])
        assert err == ""
        assert sorted({row["level"] for row in json.loads(out)["levels"]}) == list(range(1, levels + 1))


@pytest.mark.parametrize(
    "command", ["tridiagonalize", "triangularize", "certify", "counterexample", "decompose", "stripped-checks"]
)
def test_run_fills_the_command_line_defaults(tmp_path, capsys, command):
    # a config built with ExperimentConfig's own defaults runs as the bare command line
    rng = np.random.default_rng(89)
    pair = write_pair(tmp_path, random_complex(25, 25, rng), random_complex(25, 25, rng))
    inputs = {"tridiagonalize": pair[:1], "counterexample": (), "decompose": pair[:1]}.get(command, pair)
    want = run_cli(capsys, [command, *inputs])
    code = run(ExperimentConfig(command=command, inputs=tuple(inputs)))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want
    assert captured.err == ""

"""End-to-end tests for the command line interface."""

import json

import numpy as np
import pytest

from blocktri import corner_unit, read_matrix, shift_matrix, write_matrix
from blocktri.cli import main
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
    a = shift_matrix(5).array / 5
    b = corner_unit(5).array / 5
    pa, pb = write_pair(tmp_path, a, b)
    code, out, err = run_cli(capsys, ["triangularize", pa, pb])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted"
    assert doc["levels"][0]["refuting_word"] == "xxx"


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


def test_csv_format(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, ["counterexample", "--levels", "2", "--verify", "--format", "csv"]
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "clause" in header


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

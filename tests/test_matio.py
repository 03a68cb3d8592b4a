"""Tests for matrix file round-trips and report rendering."""

import json
import os

import numpy as np
import pytest

from blocktri import (
    MatrixFormatError,
    corner_unit,
    matrix_document,
    read_matrix,
    render_report,
    shift_matrix,
    write_matrix,
    write_report,
)
from helpers import random_complex


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(71)
    path = str(tmp_path / "m.json")
    for _ in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        m = random_complex(rows, cols, rng)
        write_matrix(m, path)
        back = read_matrix(path)
        assert np.array_equal(back.array, m)


def test_round_trip_extreme_magnitudes(tmp_path):
    path = str(tmp_path / "m.json")
    m = np.array(
        [
            [1e-300 + 1e300j, complex(-0.0, 0.0)],
            [complex(0.0, -0.0), complex(-0.0, -0.0)],
            [1.0 / 3.0, 7e-45j],
        ]
    )
    write_matrix(m, path)
    back = read_matrix(path).array
    # bitwise: array_equal cannot see the sign of a zero
    assert back.tobytes() == m.tobytes()
    # the JSON int -0 reads as +0.0, as float(-0) does
    write_text(path, '{"rows": 1, "cols": 2, "entries": [[-0.0, -0.0], [-0, 5]]}')
    back = read_matrix(path).array
    assert back.tobytes() == np.array([[complex(-0.0, -0.0), complex(0.0, 5.0)]]).tobytes()


def test_document_layout_row_major():
    m = np.array([[1 + 2j, 3 + 4j, 5 + 6j], [7 + 8j, 9 + 10j, 11 + 12j]])
    doc = matrix_document(m)
    assert doc["rows"] == 2
    assert doc["cols"] == 3
    assert doc["entries"][1] == [3.0, 4.0]
    assert doc["entries"][3] == [7.0, 8.0]
    assert len(doc["entries"]) == 6


def test_sparse_generators_serialize_sparsely(tmp_path):
    path = str(tmp_path / "m.json")
    write_matrix(shift_matrix(3), path)
    doc = json.loads(open(path).read())
    nonzero = [e for e in doc["entries"] if e != [0.0, 0.0]]
    assert len(nonzero) == 2
    write_matrix(corner_unit(3), path)
    doc = json.loads(open(path).read())
    nonzero = [e for e in doc["entries"] if e != [0.0, 0.0]]
    assert nonzero == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "payload",
    [
        "{nope",
        "[1, 2, 3]",
        '{"rows": 1, "cols": 1}',
        '{"rows": 0, "cols": 1, "entries": []}',
        '{"rows": true, "cols": 1, "entries": [[0.0, 0.0]]}',
        '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[0.0, true]]}',
        '{"rows": 1, "cols": 1, "entries": [["0", 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[Infinity, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[NaN, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": 7}',
        '{"rows": 1.5, "cols": 1, "entries": [[0.0, 0.0]]}',
    ],
)
def test_malformed_documents_raise(tmp_path, payload):
    path = str(tmp_path / "bad.json")
    write_text(path, payload)
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert "bad.json" in str(info.value)


@pytest.mark.parametrize(
    "entries, message",
    [
        ("[[0.0, 0.0], [1.0, true]]", "entry 1 must be a [re, im] number pair, got [1.0, True]"),
        ("[[0.0, 0.0], [false, 1.0]]", "entry 1 must be a [re, im] number pair, got [False, 1.0]"),
        ('[[0.0, 0.0], ["0", 1.0]]', "entry 1 must be a [re, im] number pair, got ['0', 1.0]"),
        ("[[0.0, 0.0], [1.0, 2.0, 3.0]]", "entry 1 must be a [re, im] number pair, got [1.0, 2.0, 3.0]"),
        ("[[0.0, 0.0], [1.0]]", "entry 1 must be a [re, im] number pair, got [1.0]"),
        ("[[0.0, 0.0], 5]", "entry 1 must be a [re, im] number pair, got 5"),
        ("[[0.0, 0.0], [NaN, 1.0]]", "entry 1 is not finite: [nan, 1.0]"),
        ("[[0.0, -Infinity], [1.0, 0.0]]", "entry 0 is not finite: [0.0, -inf]"),
        ("[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]", "expected 2 entries for 1x2, got 3"),
        ("[[0.0, 0.0], [1, 1" + "0" * 400 + "]]", "entry 1 is not finite: [1, 1" + "0" * 400 + "]"),
    ],
    ids=["bool-im", "bool-re", "string", "three", "one", "scalar", "nan", "inf", "count", "huge-int"],
)
def test_malformed_entry_messages(tmp_path, entries, message):
    # the first bad entry is named, whatever the entries around it
    path = str(tmp_path / "bad.json")
    write_text(path, '{"rows": 1, "cols": 2, "entries": ' + entries + "}")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert str(info.value) == f"{path}: {message}"


def test_json_syntax_error_carries_position(tmp_path):
    path = str(tmp_path / "bad.json")
    write_text(path, '{"rows": 1,\n  "cols": oops}')
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    message = str(info.value)
    assert f"{path}:2:" in message


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_matrix(str(tmp_path / "absent.json"))


def test_write_matrix_failure_leaves_no_target(tmp_path):
    target = str(tmp_path / "no_dir" / "m.json")
    with pytest.raises(OSError):
        write_matrix(np.eye(2), target)
    assert not os.path.exists(target)


def test_atomic_write_replaces_existing(tmp_path):
    path = str(tmp_path / "m.json")
    write_matrix(np.eye(2), path)
    write_matrix(2.0 * np.eye(2), path)
    assert read_matrix(path).array[0, 0] == 2.0
    leftovers = [p for p in os.listdir(tmp_path) if p != "m.json"]
    assert leftovers == []


def test_render_report_json_deterministic():
    doc_a = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}
    doc_b = {"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
    assert render_report(doc_a) == render_report(doc_b)
    assert render_report(doc_a).endswith("\n")


def test_render_report_csv():
    doc = {
        "levels": [
            {"level": 1, "radius": 0.0, "word": None},
            {"level": 2, "radius": 0.5, "extra": "x"},
        ]
    }
    text = render_report(doc, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == "extra,level,radius,word"
    assert lines[1] == ",1,0.0,"
    assert lines[2] == "x,2,0.5,"


def test_render_report_validation():
    with pytest.raises(ValueError):
        render_report({}, fmt="yaml")
    with pytest.raises(ValueError):
        render_report({"verdict": "ok"}, fmt="csv")


def test_write_report_file(tmp_path):
    path = str(tmp_path / "report.json")
    write_report({"verdict": "ok"}, path)
    with open(path) as fh:
        assert json.load(fh) == {"verdict": "ok"}

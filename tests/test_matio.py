"""Tests for matrix file round-trips and report rendering."""

import decimal
import json
import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktri import matio
from blocktri.cli import main
from blocktri import (
    MatrixFormatError,
    corner_unit,
    matrix_document,
    read_matrix,
    render_report,
    shift_matrix,
    write_matrix,
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
        assert np.array_equal(back, m)


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
    back = read_matrix(path)
    # bitwise: array_equal cannot see the sign of a zero
    assert back.tobytes() == m.tobytes()
    # the JSON int -0 reads as +0.0, as float(-0) does
    write_text(path, '{"rows": 1, "cols": 2, "entries": [[-0.0, -0.0], [-0, 5]]}')
    back = read_matrix(path)
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
        '{"rows": 1, "cols": 1, "entries": []}',
        '{"rows": true, "cols": 1, "entries": [[0.0, 0.0]]}',
        '{"rows": 1, "cols": 2, "entries": [[0.0, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[0.0, true]]}',
        '{"rows": 1, "cols": 1, "entries": [["0", 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[Infinity, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[NaN, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": 7}',
        '{"rows": 1.5, "cols": 1, "entries": [[0.0, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[01, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[.5, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[5., 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[+1, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[1e, 0.0]]}',
        '{"rows": 1, "cols": 1, "entries": [[1 0, 0.0]]}',
        '{"rows": 1, "cols": 2, "entries": [[1.0, [2.0, 3.0], 4.0]]}',
        pytest.param(
            '{"rows": 1, "cols": 1, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}", id="deep-nesting"
        ),
        pytest.param(b'{"rows": 1, "cols": 1, "entries": [[0.0, 0.0\xff]]}', id="not-utf-8"),
    ],
)
def test_malformed_documents_raise(tmp_path, payload):
    path = str(tmp_path / "bad.json")
    with open(path, "wb") as fh:
        fh.write(payload if isinstance(payload, bytes) else payload.encode())
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


def test_strict_grammar_edge_numbers(tmp_path):
    # -0 is the integer zero; 1E+05 and exponent leading zeros are JSON numbers
    path = str(tmp_path / "m.json")
    text = '{"rows": 2,\n "cols": 2, "entries":\t[[-0, 1E+05], [1e-05, -0.0e00], [ -0 ,0],[2.5E-0003,-1]]}'
    write_text(path, text)
    data = text.encode()
    assert matio._strict_pairs(data) is not None
    back = read_matrix(path)
    expected = np.array([[complex(0.0, 1e5), complex(1e-5, -0.0)], [0j, complex(2.5e-3, -1.0)]])
    assert back.tobytes() == expected.tobytes()


def test_written_files_take_the_strict_parser(tmp_path):
    path = str(tmp_path / "m.json")
    m = random_complex(9, 7, np.random.default_rng(72))
    write_matrix(m, path)
    with open(path, "rb") as fh:
        rows, cols, pairs = matio._strict_pairs(fh.read())
    assert (rows, cols) == (9, 7)
    assert pairs.view(np.complex128).tobytes() == m.tobytes()


_DIGITS = "0123456789"
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(repr),  # subnormals
    st.integers(-(10**30), 10**30).map(str),
    st.integers(2**53, 2**64).map(str),
    st.sampled_from(["-0", "-0.0", "0", "0.0", "5e-324", "1E+05", "1e-05", "-0E-000"]),
    st.builds(  # any JSON number: mantissas of 17 digits and more, E/e±0N exponents
        lambda sign, lead, rest, frac, exp: sign + (lead + rest if lead != "0" else "0") + frac + exp,
        st.sampled_from(["", "-"]),
        st.sampled_from(_DIGITS),
        st.text(_DIGITS, max_size=25),
        st.one_of(st.just(""), st.text(_DIGITS, min_size=1, max_size=40).map(lambda d: "." + d)),
        st.one_of(
            st.just(""),
            st.builds(
                lambda e, sign, d: e + sign + d,
                st.sampled_from("eE"),
                st.sampled_from(["", "+", "-"]),
                st.builds(
                    str.__add__, st.sampled_from(["", "0", "000"]), st.text(_DIGITS, min_size=1, max_size=2)
                ),
            ),
        ),
    ),
)
# tokens outside the grammar, or in it but not a finite number pair
_BAD_TOKENS = st.sampled_from([
    "01", "-01", "00", ".5", "5.", "+1", "1e", "1e+", "-", "--1", "1.2.3", "1e5e5", "1e5.5", "1 2",
    "NaN", "Infinity", "-Infinity", "0x10", "1_0", "true", "null", '"1"', "", "1,", "[1]", "1e400",
    "1" + "0" * 400, "\\u0031", "1\u00a0", "\udcff",  # the last one writes the byte 0xff
])  # fmt: skip
_SPACE = st.text(" \t\n\r", max_size=3)


@st.composite
def _documents(draw):
    """(document bytes, whether its fields are in the written layout)."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = rows * cols + draw(st.sampled_from([0] * 8 + [-1, 1]))
    numbers = [draw(_NUMBERS) for _ in range(2 * count)]
    if numbers and draw(st.integers(0, 3)) == 0:
        numbers[draw(st.integers(0, len(numbers) - 1))] = draw(_BAD_TOKENS)

    def join(items):
        return "[" + draw(_SPACE) + ("," + draw(_SPACE)).join(item + draw(_SPACE) for item in items) + "]"

    pairs = []
    for re, im in zip(numbers[::2], numbers[1::2]):
        extra = [draw(_NUMBERS)] if draw(st.integers(0, 20)) == 0 else []
        pairs.append(join([re, im] + extra))
    fields = {"rows": str(rows), "cols": str(cols), "entries": join(pairs), "note": '"extra"'}
    layout = ["rows", "cols", "entries"]
    others = [["cols", "rows", "entries"], ["entries", "rows", "cols"], layout + ["note"]]
    keys = draw(st.sampled_from([layout] * 6 + others))
    members = [f'"{key}"{draw(_SPACE)}:{draw(_SPACE)}{fields[key]}{draw(_SPACE)}' for key in keys]
    body = ("," + draw(_SPACE)).join(members)
    text = draw(_SPACE) + "{" + draw(_SPACE) + body + "}" + draw(_SPACE)
    return text.encode("utf-8", "surrogateescape"), keys == layout


@settings(derandomize=True, max_examples=300, deadline=None)
@given(document=_documents(), chunk=st.sampled_from([1, 5, 64, 1 << 17, 1 << 18]))
def test_strict_parser_agrees_with_json(tmp_path_factory, document, chunk):
    # what the strict parser accepts, json reads to the same bits; what it
    # refuses raises the json validator's own error; and it accepts every
    # document in the written layout that json reads
    data, in_layout = document
    path = str(tmp_path_factory.mktemp("strict") / "m.json")
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        rows, cols, pairs = matio._json_pairs(data, path)
        expected = pairs.view(np.complex128).reshape(rows, cols)
    except MatrixFormatError as exc:
        expected = str(exc)
    with mock.patch.object(matio, "_CHUNK", chunk):
        strict = matio._strict_pairs(data)
        try:
            got = read_matrix(path)
        except MatrixFormatError as exc:
            got = str(exc)
    if isinstance(expected, str):
        assert strict is None
        assert got == expected
    else:
        assert got.tobytes() == expected.tobytes()
        assert (strict is not None) == in_layout
        if strict is not None:
            assert strict[2].tobytes() == expected.tobytes()


@st.composite
def _halfway_decimals(draw):
    """The exact midpoint of two adjacent doubles, or a decimal near one, as JSON text."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: abs(v) < 1.7e308))
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every midpoint of two doubles is exact in 1100 digits
        mid = (decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2
        kind = draw(st.sampled_from(["exact", "above", "below", "rounded"]))
        if kind == "rounded":
            return format(mid, f".{draw(st.integers(15, 30))}e")
        if kind != "exact":
            nudge = abs(mid) * decimal.Decimal(10) ** -draw(st.integers(17, 60))
            mid = mid + nudge if kind == "above" else mid - nudge
    return str(mid)  # exponent form E+n / E-n where Decimal picks it


_DECIMALS = st.one_of(
    _halfway_decimals(),
    st.floats(max_value=2.3e-308, min_value=-2.3e-308).map(repr),  # subnormals
    st.builds(  # more digits than a long double holds, in exponent forms
        lambda digits, exp: f"{digits[0]}.{digits[1:]}{exp}",
        st.text(_DIGITS, min_size=20, max_size=40).filter(lambda d: d[0] != "0"),
        st.builds("e{}".format, st.integers(-340, 300)) | st.builds("E+{}".format, st.integers(0, 300)),
    ),
    st.integers(2**53 - 2**12, 2**64 + 2**12).map(str),
    st.sampled_from(["-0", "-0.0", "0", "-0e5", "4.9406564584124654e-324", "2.4703282292062328e-324"]),
)


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_DECIMALS, _DECIMALS), min_size=1, max_size=12))
def test_strict_parse_is_float_bit_for_bit(tmp_path_factory, dtype, pairs):
    # both parse paths: long double with halfway values read again, and float64
    entries = ", ".join(f"[{re}, {im}]" for re, im in pairs)
    data = f'{{"rows": 1, "cols": {len(pairs)}, "entries": [{entries}]}}'.encode()
    path = tmp_path_factory.mktemp("decimals") / "m.json"
    path.write_bytes(data)
    # json reads the integer -0 as int 0, so as +0.0
    expected = np.array([float(json.loads(v)) for pair in pairs for v in pair])
    with mock.patch.object(matio, "_PARSE_DTYPE", dtype):
        assert matio._strict_pairs(data) is not None
        assert read_matrix(path).tobytes() == expected.tobytes()
    assert matio._json_pairs(data, path)[2].tobytes() == expected.tobytes()


def _written_243(path):
    write_matrix(random_complex(243, 243, np.random.default_rng(7)), path)
    with open(path, "rb") as fh:
        return fh.read()


def _halfway_document():
    """Midpoints of adjacent doubles, exact and 1e-30 off, as one strict document."""
    rng = np.random.default_rng(11)
    xs = np.concatenate(
        [rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000), rng.uniform(-1, 1, 100) * 2.0**-1022]
    )
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        mids = [(decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2 for x in xs]
        numbers = [str(m + s * abs(m) * decimal.Decimal("1e-30")) for m in mids for s in (-1, 0, 1)]
    entries = ", ".join(f"[{a}, {b}]" for a, b in zip(numbers[::2], numbers[1::2]))
    return f'{{"rows": 1, "cols": {len(numbers) // 2}, "entries": [{entries}]}}'.encode()


def _chunk_bounds(data):
    """The (lo, hi) of each chunk ``_strict_pairs`` parses in ``data``, in order."""
    seen = []
    chunk_pairs = matio._chunk_pairs

    def spy(data, lo, hi):
        seen.append((lo, hi))
        return chunk_pairs(data, lo, hi)

    with mock.patch.object(matio, "_chunk_pairs", spy):
        assert matio._strict_pairs(data) is not None
    return sorted(seen)


def test_chunked_parse_keeps_the_bits_of_one_chunk(tmp_path):
    # the written 243 x 243 file and the halfway values, parsed in many chunks on two
    # threads and in one chunk on the caller's, give the same bits
    threads = threading.active_count()
    for data in (_written_243(str(tmp_path / "m.json")), _halfway_document()):
        assert len(_chunk_bounds(data)) > 2
        rows, cols, pairs = matio._strict_pairs(data)
        with mock.patch.object(matio, "_CHUNK", 2**40):
            assert len(_chunk_bounds(data)) == 1
            assert matio._strict_pairs(data)[2].tobytes() == pairs.tobytes()
        assert threading.active_count() == threads
        expected = [float(v) for pair in json.loads(data)["entries"] for v in pair]
        assert pairs.tobytes() == np.array(expected).tobytes()


def test_chunked_parse_under_fast_thread_switches(tmp_path):
    # a chunk stored at the wrong index, or lost, changes the bytes
    data = _written_243(str(tmp_path / "m.json"))
    expected = matio._strict_pairs(data)[2].tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(matio, "_CHUNK", 1 << 12):
            for _ in range(5):
                assert matio._strict_pairs(data)[2].tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_bad_token_in_any_chunk_takes_the_json_error(tmp_path, where):
    path = str(tmp_path / "m.json")
    data = bytearray(_written_243(path))
    bounds = _chunk_bounds(bytes(data))
    lo, hi = bounds[{"first": 0, "middle": len(bounds) // 2, "last": -1}[where]]
    at = data.index(b"[", (lo + hi) // 2) + 1  # the first character of a real part
    data[at : at + 1] = b"x"
    with open(path, "wb") as fh:
        fh.write(data)
    threads = threading.active_count()
    assert matio._strict_pairs(bytes(data)) is None
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert str(info.value).startswith(f"{path}:1:{at + 1}: invalid JSON: Expecting value")
    assert threading.active_count() == threads


@pytest.mark.parametrize("where", ["first", "last"])
def test_error_in_a_chunk_propagates(tmp_path, capsys, where):
    path = str(tmp_path / "m.json")
    data = _written_243(path)
    lo_failing = _chunk_bounds(data)[{"first": 0, "last": -1}[where]][0]
    chunk_pairs = matio._chunk_pairs

    def out_of_memory(data, lo, hi):
        if lo == lo_failing:
            raise MemoryError("Unable to allocate 1.00 MiB for an array with shape (131072,)")
        return chunk_pairs(data, lo, hi)

    threads = threading.active_count()
    with mock.patch.object(matio, "_chunk_pairs", out_of_memory):
        with pytest.raises(MemoryError):
            matio._strict_pairs(data)
        assert threading.active_count() == threads
        code = main(["decompose", path])
    assert threading.active_count() == threads
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.startswith("error: out of memory: Unable to allocate") and captured.err.count("\n") == 1


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
    assert read_matrix(path)[0, 0] == 2.0
    leftovers = [p for p in os.listdir(tmp_path) if p != "m.json"]
    assert leftovers == []


def test_render_report_json_deterministic():
    doc_a = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}
    doc_b = {"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
    assert render_report(doc_a) == render_report(doc_b)
    assert render_report(doc_a).endswith("\n")


_EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS[:3])
# pair entries: mostly floats, sometimes an int, a bool or an np.float64 (float.__repr__, not repr)
_PAIR_NUMBER = _FLOATS | st.integers() | st.booleans() | _FLOATS.map(np.float64)
_PAIR_LISTS = st.lists(
    st.lists(_FINITE, min_size=2, max_size=2)
    | st.tuples(_FINITE, _FINITE)
    | st.lists(_PAIR_NUMBER, min_size=2, max_size=2),
    max_size=6,
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64) | st.text()
_DOCUMENTS = st.recursive(
    _SCALARS | _PAIR_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
@example(
    doc={
        "entries": [[-0.0, 5e-324], [1.7976931348623157e308, -1.5]],
        "édges": ([math.nan, math.inf], [-math.inf, 0.0]),
        # one kind of non-float number per pair list
        "int": [[1, 2.5]],
        "bool": [[-0.0, True], [False, 0.5]],
        "np": [[np.float64(0.1), 1.0]],
        "nested": {"ключ": ["ü", (), {}, []], "": {"z": None, "a": [[]]}},
    }
)
def test_render_report_matches_json_indent_encoder(doc):
    assert render_report(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_matrix_document_keeps_every_bit():
    rng = np.random.default_rng(72)
    m = random_complex(4, 6, rng)
    m[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    m[1, 0] = complex(5e-324, -1.7976931348623157e308)
    for view in (m, m.T, np.asfortranarray(m), m[::2, 1::2]):
        entries = matrix_document(view)["entries"]
        expected = [[float(v.real), float(v.imag)] for v in view.reshape(-1)]
        assert {type(pair) for pair in entries} == {list}
        assert {type(x) for pair in entries for x in pair} == {float}
        assert np.array(entries).tobytes() == np.array(expected).tobytes()


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

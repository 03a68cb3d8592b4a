"""Matrix files and report text: exact round-trips, atomic writes.

Matrices travel as JSON documents {"rows": r, "cols": c, "entries":
[[re, im], ...]} with entries flat in row-major order.  Floats are
serialized through repr, which round-trips every finite double exactly,
so read(write(m)) == m bitwise.  Reads check the written layout and the
JSON number grammar on the bytes and parse the numbers with numpy, in
chunks, on two threads for a document of two or more chunks: the grammar
regex holds the GIL, ``np.fromstring`` releases it, and each chunk goes
through the same calls on either thread, so the bits do not change.  Where
numpy's long double is the x87 80-bit format, numbers are parsed to 64
significant bits (libc strtold) and rounded to double; the few whose 64-bit
value lies exactly halfway between two doubles, or below 2**-1022, are
parsed again by ``float``.  On other platforms they are parsed to float64
directly.  Both give the bits of Python's ``float``.  Any other document
goes through ``json``, to the same bits.  Writes go through a temp file
plus rename, so readers never observe a partial file.  Reports render to
the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``, with each list
of [re, im] float pairs (a matrix's entries) formatted in one step instead
of json's pure-Python indent encoder.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import threading

import numpy as np

from .linalg import _as_array, _read_only

__all__ = [
    "MatrixFormatError",
    "read_matrix",
    "write_matrix",
    "matrix_document",
    "render_report",
]


class MatrixFormatError(ValueError):
    """Malformed matrix file; carries path and, for syntax errors, line/column."""

    def __init__(self, message, *, path=None, line=None, column=None):
        where = str(path) if path is not None else "matrix data"
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.column = column


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _require(cond, message, path):
    if not cond:
        raise MatrixFormatError(message, path=path)


def read_matrix(path):
    """Parse a matrix document; returns a read-only ``complex128`` array.

    A document in the layout :func:`write_matrix` produces (the ``rows``,
    ``cols`` and ``entries`` fields in that order, any JSON whitespace) is
    checked and parsed by :func:`_strict_pairs`; every other document goes
    through ``json``, which reads the same numbers to the same bits.

    Raises ``MatrixFormatError`` for text that is not UTF-8, syntax errors
    (with line/column), nesting too deep to parse, a missing or non-integer
    header, an entry count that disagrees with rows*cols, entries that are
    not [re, im] number pairs, or non-finite values (ints beyond the double
    range included), and integers longer than the interpreter's digit limit
    for int parsing.  OS-level failures (missing file, permissions)
    propagate as ``OSError``.
    """
    with open(path, "rb") as f:
        data = f.read()
    parsed = _strict_pairs(data)
    rows, cols, pairs = parsed if parsed is not None else _json_pairs(data, path)
    # a view of the float pairs keeps every bit, the sign of a zero included
    return _read_only(pairs.view(np.complex128).reshape(rows, cols))


def _compile(pattern):
    """Compile a bytes pattern; before Python 3.11, without its possessive quantifiers.

    Possessive quantifiers keep no backtracking points, which makes the
    check about 40% faster.  The grammar below never needs to backtrack
    into one, so the greedy spelling accepts the same documents.
    """
    if sys.version_info < (3, 11):
        pattern = re.sub(rb"(?<=[*+?])\+", b"", pattern)
    return re.compile(pattern)


_SPACE = rb"[ \t\n\r]*+"
_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"
_PAIR = rb"\[" + _SPACE + _NUMBER + _SPACE + rb"," + _SPACE + _NUMBER + _SPACE + rb"\]" + _SPACE
_HEADER = _compile(
    _SPACE.join([rb"", rb"\{", rb'"rows"', rb":", rb"([1-9][0-9]{0,17})", rb",", rb'"cols"', rb":",
                 rb"([1-9][0-9]{0,17})", rb",", rb'"entries"', rb":", rb"\["])
)  # fmt: skip
# a run of [re, im] pairs separated by commas, and the bracket-comma that ends one
_PAIRS = _compile(_SPACE + _PAIR + rb"(?:," + _SPACE + _PAIR + rb")*+")
_PAIR_END = _compile(rb"\]" + _SPACE + rb",")
_TRAILER = _compile(rb"\]" + _SPACE + rb"\}" + _SPACE + rb"\Z")
# the JSON integer -0, which json reads as int 0 and so as +0.0
_INT_MINUS_ZERO = re.compile(rb"(?<![eE])-0(?=[ \t\n\r,\]])")
_UNBRACKET = bytes.maketrans(b"[]\t\n\r", b"     ")
_CHUNK = 1 << 17  # bytes checked per step; bounds the temporaries
# Where numpy's long double is the x87 80-bit format, its parse (libc strtold, 64
# significant bits) is about twice as fast as the float64 one; elsewhere numbers
# are parsed to float64 directly
_PARSE_DTYPE = np.longdouble if np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little" else np.float64
_X87_MIN_NORMAL = 16383 - 1022  # the biased x87 exponent of 2**-1022, the least normal double


def _strict_pairs(data):
    """(rows, cols, flat float pairs) of a strict matrix document, or None.

    The document must be the header ``{"rows": r, "cols": c, "entries": [``,
    then r*c ``[re, im]`` pairs, then ``]}``, with JSON whitespace between
    tokens and every number in the JSON grammar.  The pairs are cut into
    chunks that end between two pairs, and each chunk is checked and parsed
    by :func:`_chunk_pairs`, on two threads when there are two or more
    chunks (:func:`_parse_chunks`).  Returns None for anything else, a wrong
    entry count and non-finite values included.
    """
    head = _HEADER.match(data)
    tail = data.rfind(b"]")
    if head is None or tail < head.end() or _TRAILER.match(data, tail) is None:
        return None
    rows, cols = int(head[1]), int(head[2])
    bounds = []
    lo = head.end()
    while True:
        cut = _PAIR_END.search(data, lo + _CHUNK, tail)
        hi = tail if cut is None else cut.end() - 1  # the comma between two pairs
        bounds.append((lo, hi))
        if cut is None:
            break
        lo = hi + 1
    parts = _parse_chunks(data, bounds)
    if parts is None:
        return None
    pairs = np.concatenate(parts)  # two numbers per pair, as the expression checked
    return (rows, cols, pairs) if pairs.size == 2 * rows * cols and np.isfinite(pairs).all() else None


def _parse_chunks(data, bounds):
    """:func:`_chunk_pairs` of each ``(lo, hi)`` in ``bounds``, in order; None if a chunk is refused.

    With two or more chunks, one helper thread and the caller take chunk
    indices from one shared iterator and store each result at its index.
    The grammar check holds the GIL, but ``np.fromstring`` releases it, so
    one thread parses while the other checks.  Each chunk goes through the
    same calls as on one thread, so every number keeps its bits.  A refused
    chunk, or an exception, ends the iteration for both threads; the helper
    is always joined, and the first exception is raised again.
    """
    parts = [None] * len(bounds)
    indices = iter(range(len(bounds)))  # next() on it is one call under the GIL: no index is taken twice
    errors = []

    def work():
        try:
            for k in indices:
                parts[k] = _chunk_pairs(data, *bounds[k])
                if parts[k] is None:
                    break
        except BaseException as exc:  # raised again by the caller, after the join
            errors.append(exc)
        for _ in indices:  # take the indices left, so neither thread starts another chunk
            pass

    if len(bounds) == 1:
        work()
    else:
        helper = threading.Thread(target=work)
        helper.start()
        try:
            work()
        finally:
            helper.join()
    if errors:
        raise errors[0]
    return None if any(part is None for part in parts) else parts


def _chunk_pairs(data, lo, hi):
    """The float pairs of ``data[lo:hi]``, a run of ``[re, im]`` pairs; None if it is not one.

    The run is checked by one regular expression, and its numbers are read
    by one ``np.fromstring`` to ``_PARSE_DTYPE`` and rounded to float64.
    The few values that rounding twice may put on the wrong double
    (:func:`_doubly_rounded`) are read again by ``float``, and the JSON
    integer ``-0`` is set to +0.0, so every number gets the bits Python's
    ``float`` gives it.
    """
    if _PAIRS.fullmatch(data, lo, hi) is None:
        return None
    chunk = data[lo:hi].translate(_UNBRACKET)
    wide = np.fromstring(chunk, dtype=_PARSE_DTYPE, sep=",")
    with np.errstate(over="ignore"):  # past the double range is inf, refused by the caller
        part = wide.astype(np.float64, copy=False)
    redo = _doubly_rounded(wide).tolist()
    minus_zero = np.signbit(part[part == 0]).any()
    if redo or minus_zero:
        # the k-th number of the chunk follows k commas
        commas = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord(","))
        for k in redo:
            start = commas[k - 1] + 1 if k else 0
            part[k] = float(chunk[start : commas[k] if k < commas.size else len(chunk)])
        if minus_zero:
            at = [m.start() - lo for m in _INT_MINUS_ZERO.finditer(data, lo, hi)]
            part[np.searchsorted(commas, at)] = 0.0
    return part


def _doubly_rounded(wide):
    """Indices of the x87 values in ``wide`` whose rounding to double may miss the decimal's own.

    strtold rounds each decimal correctly to 64 significant bits; rounding
    that to the 53 of a double gives the correctly rounded double unless the
    64-bit value lies exactly halfway between two doubles (Figueroa, "When
    is double rounding innocuous?", SIGNUM Newsletter 30(3), 1995): its low
    11 significand bits are 0x400.  Below 2**-1022 doubles keep fewer bits,
    so every nonzero x87 value there counts too; x87 zeros and subnormals
    round to a zero either way.  A float64 array has none.
    """
    if wide.dtype == np.float64:
        return np.empty(0, dtype=np.intp)
    # the x87 layout: 64-bit significand, then sign and 15-bit biased exponent
    significand = np.ndarray(wide.shape, np.uint64, wide, 0, (wide.itemsize,))
    exponent = np.ndarray(wide.shape, np.uint16, wide, 8, (wide.itemsize,)) & 0x7FFF
    halfway = (significand & 0x7FF) == 0x400
    return np.flatnonzero(halfway | ((exponent > 0) & (exponent < _X87_MIN_NORMAL)))


def _json_pairs(data, path):
    """(rows, cols, flat float pairs) through ``json``; raises the ``MatrixFormatError`` naming the fault."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"not UTF-8 text: {exc}", path=path) from exc
    # the newline translation of a text-mode read, so line and column match the file as read
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"invalid JSON: {exc.msg}", path=path, line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError as exc:
        raise MatrixFormatError("invalid JSON: arrays or objects nest too deeply", path=path) from exc
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise MatrixFormatError("integer entry has too many digits to parse", path=path) from exc
    _require(isinstance(doc, dict), "top level must be an object", path)
    for key in ("rows", "cols", "entries"):
        _require(key in doc, f"missing field {key!r}", path)
    rows, cols = doc["rows"], doc["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"{name} must be a positive integer, got {value!r}",
            path,
        )
    entries = doc["entries"]
    _require(isinstance(entries, list), "entries must be an array", path)
    _require(
        len(entries) == rows * cols,
        f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}",
        path,
    )
    pairs = _entry_pairs(entries)
    if pairs is None:
        _raise_first_bad_entry(entries, path)
    return rows, cols, pairs


def _entry_pairs(entries):
    """The entries as one flat float array re_0, im_0, re_1, ... in one pass.

    Returns None unless every entry is a pair of finite ints or floats
    (bools excluded) that fit a double.
    """
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
        return None
    try:
        # streams the numbers: faster than np.array on the nested lists, lower peak RSS
        pairs = np.fromiter(itertools.chain.from_iterable(entries), np.float64, 2 * len(entries))
    except OverflowError:  # an int beyond the double range
        return None
    return pairs if np.isfinite(pairs).all() else None


def _raise_first_bad_entry(entries, path):
    """Raise ``MatrixFormatError`` naming the first entry that is not a finite pair.

    Every entry list that :func:`_entry_pairs` refuses has such an entry.
    """
    for i, pair in enumerate(entries):
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(_is_number(v) for v in pair),
            f"entry {i} must be a [re, im] number pair, got {pair!r}",
            path,
        )
        try:
            finite = all(math.isfinite(float(v)) for v in pair)
        except OverflowError:  # an int beyond the double range
            finite = False
        _require(finite, f"entry {i} is not finite: {pair!r}", path)


def _atomic_write_text(path, text):
    """Write through a temp file and rename; an ``OSError`` names ``path``, not the temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def matrix_document(m):
    """Matrix as a plain dict in the file schema (rows, cols, flat entries)."""
    arr = _as_array(m)
    # the same Python floats as float(v.real), float(v.imag), signed zeros kept
    entries = np.ascontiguousarray(arr).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "entries": entries}


def write_matrix(m, path):
    """Serialize a matrix to ``path``; read_matrix inverts this bit-exactly."""
    _atomic_write_text(path, json.dumps(matrix_document(m)) + "\n")


def render_report(doc, fmt="json"):
    """A report document as pretty JSON or its level table flattened to CSV.

    JSON is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``: keys are
    sorted, so identical documents render identically.  CSV emits only
    ``doc["levels"]`` (a list of flat row dicts); columns are the sorted
    union of row keys, absent cells stay empty.
    """
    if fmt == "json":
        return _json_text(doc, "\n") + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = doc.get("levels")
    if not isinstance(rows, list):
        raise ValueError("csv output needs a 'levels' list in the report")
    fieldnames = sorted({key for row in rows for key in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def _json_text(value, newline):
    """``json.dumps(value, indent=2, sort_keys=True)``; ``newline`` is "\\n" plus the indent of ``value``'s line."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # sorted by the keys as given, then converted, as json does
        parts = [json.dumps(_json_key(k)) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pairs = _float_pairs(value)
        if pairs is not None:
            # %r is float.__repr__ on exact, finite floats: the number json prints
            pair = f"[{inner}  %r,{inner}  %r{inner}]"
            return "[" + inner + ("," + inner).join([pair] * len(value)) % pairs + newline + "]"
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in value) + newline + "]"
    return json.dumps(value)


def _json_key(key):
    """A dict key as the string json writes for it."""
    if isinstance(key, str):
        return key
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key)


def _float_pairs(items):
    """The numbers of ``items`` as one flat tuple if each item is a pair of finite exact floats, else None."""
    if not set(map(type, items)) <= {list, tuple} or set(map(len, items)) != {2}:
        return None
    flat = tuple(itertools.chain.from_iterable(items))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    return flat

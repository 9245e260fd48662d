"""Deterministic report emitters.

Identical inputs must produce byte-identical files, so floats are always
rendered with 17 significant digits (enough to round-trip IEEE doubles),
the decimal separator is '.', and line endings are '\\n' regardless of
platform.  The JSON writer below is a small recursive serializer rather
than json.dumps because the float format has to be pinned.

Both serializers emit their text as pieces and hand them to a sink
(``write`` of a file or of an ``io.StringIO``) ``_BATCH`` pieces at a
time.  So besides the document being written, a writer holds at most one
batch of text: :func:`write_json` and :func:`write_csv` stream to disk in
memory that does not grow with the report, and :func:`canonical_json` and
:func:`csv_text` are the same emitters run into a string.  A file writer
writes a sibling temporary file and renames it onto the path only when
the whole report was written, so a failed write leaves no partial file and
any file already at the path unchanged.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

FLOAT_FORMAT = ".17g"

# Pieces of text an emitter holds before it writes them to its sink; a JSON
# piece is at most one scalar, one key or one line's indentation.
_BATCH = 1 << 12


def fmt_float(x: float) -> str:
    """Pinned float rendering: 17 significant digits, '.' separator."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, FLOAT_FORMAT)


def _spill(out: list, write: Callable[[str], object]) -> None:
    write("".join(out))
    out.clear()


def _emit(obj, indent: int, out: list, write: Callable[[str], object]) -> None:
    """Append the pieces of ``obj`` at ``indent`` to ``out``, spilling them
    to ``write`` after any container item that leaves a full batch."""
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key, ensure_ascii=True)}: ")
            _emit(value, indent + 1, out, write)
            out.append(",\n" if i < len(obj) - 1 else "\n")
            if len(out) >= _BATCH:
                _spill(out, write)
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, indent + 1, out, write)
            out.append(",\n" if i < len(obj) - 1 else "\n")
            if len(out) >= _BATCH:
                _spill(out, write)
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _dump_json(obj, write: Callable[[str], object]) -> None:
    out: list[str] = []
    _emit(obj, 0, out, write)
    out.append("\n")
    _spill(out, write)


def _quote(field: str) -> str:
    if any(ch in field for ch in ",\"\n\r"):
        return '"' + field.replace('"', '""') + '"'
    return field


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def _dump_csv(header: Sequence[str], rows: Iterable[Sequence],
              write: Callable[[str], object]) -> None:
    out = [",".join(_quote(h) for h in header) + "\n"]
    for row in rows:
        out.append(",".join(_quote(_cell(v)) for v in row) + "\n")
        if len(out) >= _BATCH:
            _spill(out, write)
    _spill(out, write)


@contextmanager
def _replacing(path) -> Iterator[TextIO]:
    """A text file that becomes ``path`` when the block ends normally.

    It is a sibling of ``path``, so the rename is atomic; if the block
    raises, the file is removed and whatever was at ``path`` stays.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    """Render a JSON document with pinned float formatting, newline-terminated."""
    buf = io.StringIO()
    _dump_json(obj, buf.write)
    return buf.getvalue()


def write_json(path, obj) -> None:
    """Write ``canonical_json(obj)`` to ``path``, streamed in batches."""
    with _replacing(path) as fh:
        _dump_json(obj, fh.write)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with minimal quoting: fields containing ',', '\"', or newlines
    are double-quoted with embedded quotes doubled."""
    buf = io.StringIO()
    _dump_csv(header, rows, buf.write)
    return buf.getvalue()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``csv_text(header, rows)`` to ``path``, streamed in batches."""
    with _replacing(path) as fh:
        _dump_csv(header, rows, fh.write)

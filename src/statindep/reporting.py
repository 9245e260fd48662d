"""Deterministic report emitters.

Identical inputs must produce byte-identical files, so floats are always
rendered by :func:`fmt_floats`, a run in one ``%`` call, with 17
significant digits (enough to round-trip IEEE doubles) and '.' as the
decimal separator, and line endings are '\\n' regardless of platform.  The
JSON writer is a small recursive serializer rather than json.dumps because
the float format has to be pinned; ``to_json_obj`` hands it numpy arrays.

Both serializers emit their text as pieces and hand them to a sink
(``write`` of a file or of an ``io.StringIO``) ``_BATCH`` pieces, or
``_BATCH`` array values, at a time.  So besides the document being
written, a writer holds about one batch of text: :func:`write_json` and
:func:`write_csv` stream to disk in memory that does not grow with the
report, and :func:`canonical_json` and :func:`csv_text` are the same
emitters run into a string.  A file writer writes a sibling temporary
file and renames it onto the path only when the whole report was
written, so a failed write leaves no partial file and any file already
at the path unchanged.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

# Pieces of text an emitter holds before it writes them to its sink; a JSON
# piece is one scalar, key or indentation, or a slice of _BATCH array values.
_BATCH = 1 << 12


def fmt_floats(values) -> str:
    """The pinned text of a 1-d run of floats, one a line with no final
    newline, in one ``%`` call; ValueError names the first non-finite value."""
    values = np.asarray(values, dtype=np.float64)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"cannot serialize non-finite value {float(bad[0])!r}")
    return ("%.17g\n" * values.size)[:-1] % tuple(values.tolist())


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
        out.append(fmt_floats([obj]))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)) and not len(obj):
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
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
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 \
            and obj.dtype.kind in "iuf":
        item = ",\n" + pad + "  "
        out.append("[\n" + pad + "  ")
        for lo in range(0, obj.size, _BATCH):
            if lo:
                out.append(item)
            out.append(item.join(_cells(obj[lo:lo + _BATCH])))
            _spill(out, write)
        out.append("\n" + pad + "]")
    elif isinstance(obj, (list, tuple)) \
            or isinstance(obj, np.ndarray) and obj.ndim > 1:
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


def _cells(column: np.ndarray) -> list[str]:
    """The text of each value of a 1-d float, int or (CSV-quoted) str array."""
    if column.dtype.kind == "f":
        return fmt_floats(column).split("\n")
    return list(map(_quote if column.dtype.kind == "U" else str,
                    column.tolist()))


def _dump_csv(header: Sequence[str], tables: Iterable[Sequence],
              write: Callable[[str], object]) -> None:
    write(",".join(map(_quote, header)) + "\n")
    for table in tables:
        columns = [np.asarray(c) for c in table]
        if any(c.ndim != 1 or c.dtype.kind not in "iufU" for c in columns):
            raise TypeError("CSV columns must be 1-d float, int or str arrays")
        if len({len(c) for c in columns}) > 1:
            raise ValueError("CSV columns of one table differ in length")
        step = max(1, _BATCH // max(len(columns), 1))  # rows of _BATCH cells
        for lo in range(0, len(columns[0]) if columns else 0, step):
            cells = [_cells(c[lo:lo + step]) for c in columns]
            write("\n".join(map(",".join, zip(*cells))) + "\n")


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


def csv_text(header: Sequence[str], *tables: Sequence) -> str:
    """CSV of ``tables``, each a list of equal-length columns that
    ``np.asarray`` makes 1-d float, int or str arrays (else TypeError), with
    fields containing ',', '\"' or newlines double-quoted, quotes doubled."""
    buf = io.StringIO()
    _dump_csv(header, tables, buf.write)
    return buf.getvalue()


def write_csv(path, header: Sequence[str], *tables: Sequence) -> None:
    """Write ``csv_text(header, *tables)`` to ``path``, streamed in batches."""
    with _replacing(path) as fh:
        _dump_csv(header, tables, fh.write)

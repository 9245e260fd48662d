"""Serialization helpers: float formatting, canonical JSON, CSV."""

import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from statindep import reporting
from statindep.reporting import (_quote, canonical_json, csv_text, fmt_floats,
                                 write_csv, write_json)

# Finite doubles, with the edge values of the format drawn often: signed
# zeros, subnormals, the normal boundary and integers past 2^53.
FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                             2.2250738585072014e-308, 2.225073858507201e-308,
                             1e16, 1e17, -1e16, 9007199254740993.0, 0.1,
                             1 / 3]))


class TestFmtFloats:
    def test_round_trips(self):
        xs = [0.1, 1 / 3, 2 ** -52, 1e300, -0.0, 123456.789]
        assert [float(t) for t in fmt_floats(xs).split("\n")] == xs

    def test_integral_values_stay_short(self):
        assert fmt_floats([0.5, 2.0, -0.25]) == "0.5\n2\n-0.25"

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite"):
                fmt_floats([1.0, bad])

    def test_first_non_finite_value_named(self):
        with pytest.raises(ValueError, match=r"non-finite value -inf$"):
            fmt_floats(np.array([0.5, -math.inf, math.nan, math.inf]))

    def test_empty_run(self):
        assert fmt_floats(np.array([])) == ""

    @given(FLOATS)
    def test_round_trip_property(self, x):
        assert float(fmt_floats([x])) == x

    @settings(max_examples=200)
    @given(st.lists(FLOATS, max_size=40))
    @example([5e-324, -0.0, 0.0, 1e16, 1e17, 2.0 ** 53 + 2])
    def test_one_call_has_the_bytes_of_format(self, xs):
        assert fmt_floats(xs) == "\n".join(format(x, ".17g") for x in xs)


class TestCanonicalJson:
    def test_deterministic_and_parseable(self):
        obj = {"b": [1, 2.5, None], "a": {"nested": True, "x": 1 / 3}}
        text = canonical_json(obj)
        assert text == canonical_json(obj)
        assert text.endswith("\n")
        assert json.loads(text) == {
            "b": [1, 2.5, None],
            "a": {"nested": True, "x": pytest.approx(1 / 3, abs=0)},
        }

    def test_floats_use_shortest_form(self):
        text = canonical_json({"x": 0.1})
        assert '"x": 0.1' in text

    def test_string_escaping(self):
        text = canonical_json({"s": 'quote " backslash \\ newline \n'})
        assert json.loads(text)["s"] == 'quote " backslash \\ newline \n'

    def test_numpy_scalars_accepted(self):
        text = canonical_json({"n": np.int64(7), "x": np.float64(0.25)})
        assert json.loads(text) == {"n": 7, "x": 0.25}

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})

    def test_numpy_arrays_render_as_their_lists(self):
        doc = {"f": np.array([1.5, -0.0, 1 / 3]), "i": np.arange(3),
               "u": np.array([7], dtype=np.uint8), "m": np.eye(2),
               "e": np.array([]), "t": np.zeros((0, 3))}
        assert canonical_json(doc) == canonical_json({
            "f": [1.5, -0.0, 1 / 3], "i": [0, 1, 2], "u": [7],
            "m": [[1.0, 0.0], [0.0, 1.0]], "e": [], "t": []})

    @pytest.mark.parametrize("bad", [np.array([True]), np.array(["a"]),
                                     np.array(0.5), np.array([None])],
                             ids=["bool", "str", "0-d", "object"])
    def test_other_arrays_rejected(self, bad):
        with pytest.raises(TypeError):
            canonical_json({"bad": bad})

    def test_non_finite_array_value_rejected(self):
        with pytest.raises(ValueError, match="non-finite value nan"):
            canonical_json([np.array([0.0, math.nan])])


class TestCsvText:
    def test_plain_rows(self):
        text = csv_text(["N", "gap"], [[100, 1000], [0.5, 0.25]])
        assert text == "N,gap\n100,0.5\n1000,0.25\n"

    def test_quoting_commas_and_quotes(self):
        text = csv_text(["label"], [['x*sin2pix,extra', 'say "hi"']])
        lines = text.split("\n")
        assert lines[1] == '"x*sin2pix,extra"'
        assert lines[2] == '"say ""hi"""'

    def test_floats_round_trip(self):
        text = csv_text(["x"], [[1 / 3]])
        assert float(text.split("\n")[1]) == 1 / 3

    def test_newlines_are_unix(self):
        text = csv_text(["a", "b"], [[1], [2]])
        assert "\r" not in text
        assert text.endswith("\n")

    def test_tables_follow_one_another_under_one_header(self):
        text = csv_text(["k", "x"], [["a", "a"], np.array([0.5, 2.0])],
                        [np.broadcast_to("b", 1), np.array([-0.0])], [])
        assert text == "k,x\na,0.5\na,2\nb,-0\n"

    @pytest.mark.parametrize("column", [np.eye(2), [True, False], [None, 1],
                                        np.array(0.5)],
                             ids=["2-d", "bool", "object", "0-d"])
    def test_other_columns_rejected(self, column):
        with pytest.raises(TypeError):
            csv_text(["c"], [column])

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            csv_text(["a", "b"], [[1, 2], [0.5]])


# Text a UTF-8 file can hold: no lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(TEXT, inner, max_size=6),
    max_leaves=60)

# 1-d float64 and int64 arrays, empty ones included, nested in lists and
# objects at several depths.
ARRAYS = (hnp.arrays(np.float64, st.integers(0, 12), elements=FLOATS)
          | hnp.arrays(np.int64, st.integers(0, 12)))
ARRAY_DOCUMENTS = st.recursive(
    ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)

# A CSV str column holds numpy str values, which cannot end in NUL.
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"), max_size=8)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def tables(draw):
    """A list of equally long float, int64 and str columns."""
    n = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from([FLOATS, INT64, CELL_TEXT]),
                          min_size=1, max_size=4))
    return [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]


def _as_lists(doc):
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    return [_as_lists(v) for v in doc]


def _per_cell_csv(header, tables) -> str:
    """The CSV of ``tables`` written one cell at a time."""
    def cell(value):
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value) if isinstance(value, int) else _quote(value)
    lines = [",".join(map(_quote, header))]
    for table in tables:
        lines += [",".join(map(cell, row)) for row in zip(*table)]
    return "".join(line + "\n" for line in lines)


def _written(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(path, *args)
        assert os.listdir(tmp) == ["out"]
        with open(path, "rb") as fh:
            return fh.read()


class TestStreamedWriters:
    # Each document is compared with its text at the default batch, which
    # none of them fills, written and rendered in batches of a few pieces.
    @settings(max_examples=60, deadline=None)
    @given(DOCUMENTS, st.integers(min_value=1, max_value=7))
    def test_json_file_equals_canonical_json(self, doc, batch):
        whole = canonical_json(doc)
        with mock.patch.object(reporting, "_BATCH", batch):
            assert canonical_json(doc) == whole
            assert _written(write_json, doc) == whole.encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(ARRAY_DOCUMENTS, st.integers(min_value=1, max_value=5))
    def test_arrays_render_as_their_lists(self, doc, batch):
        want = canonical_json(_as_lists(doc))
        assert canonical_json(doc) == want
        with mock.patch.object(reporting, "_BATCH", batch):
            assert canonical_json(doc) == want
            assert _written(write_json, doc) == want.encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(TEXT, min_size=1, max_size=4),
           st.lists(tables(), max_size=3),
           st.integers(min_value=1, max_value=5))
    def test_csv_file_equals_csv_text(self, header, tables, batch):
        whole = csv_text(header, *tables)
        with mock.patch.object(reporting, "_BATCH", batch):
            assert csv_text(header, *tables) == whole
            assert _written(write_csv, header, *tables) == \
                whole.encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TEXT, min_size=1, max_size=4),
           st.lists(tables(), max_size=3),
           st.integers(min_value=1, max_value=5))
    def test_csv_text_equals_per_cell_reference(self, header, tables, batch):
        want = _per_cell_csv(header, tables)
        assert csv_text(header, *tables) == want
        with mock.patch.object(reporting, "_BATCH", batch):
            assert csv_text(header, *tables) == want

    def test_write_json_memory_does_not_grow_with_the_document(self, tmp_path):
        doc = {"values": (np.arange(10 ** 5) / 7).tolist()}
        tracemalloc.start()
        try:
            write_json(tmp_path / "big.json", doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert (tmp_path / "big.json").read_text() == canonical_json(doc)

    def test_write_json_of_an_array_holds_one_slice(self, tmp_path):
        values = np.arange(10 ** 5) / 7
        tracemalloc.start()
        try:
            write_json(tmp_path / "big.json", {"values": values})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert (tmp_path / "big.json").read_text() == \
            canonical_json({"values": values.tolist()})

    @pytest.mark.parametrize("write, args", [
        (write_json, ({"ok": list(range(10 ** 4)), "bad": math.nan},)),
        (write_csv, (["x"], [np.append(np.arange(10.0 ** 4), math.inf)])),
    ])
    def test_failed_write_leaves_the_old_file(self, tmp_path, write, args):
        path = tmp_path / "report"
        path.write_bytes(b"previous report\n")
        with pytest.raises(ValueError, match="non-finite"):
            write(path, *args)
        assert path.read_bytes() == b"previous report\n"
        assert os.listdir(tmp_path) == ["report"]

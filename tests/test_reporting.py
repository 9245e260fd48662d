"""Serialization helpers: float formatting, canonical JSON, CSV."""

import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statindep import reporting
from statindep.reporting import (canonical_json, csv_text, fmt_float,
                                 write_csv, write_json)


class TestFmtFloat:
    def test_round_trips(self):
        for x in (0.1, 1 / 3, 2 ** -52, 1e300, -0.0, 123456.789):
            assert float(fmt_float(x)) == x

    def test_integral_values_stay_short(self):
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(2.0) == "2"
        assert fmt_float(-0.25) == "-0.25"

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                fmt_float(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, x):
        assert float(fmt_float(x)) == x


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


class TestCsvText:
    def test_plain_rows(self):
        text = csv_text(["N", "gap"], [[100, 0.5], [1000, 0.25]])
        assert text == "N,gap\n100,0.5\n1000,0.25\n"

    def test_quoting_commas_and_quotes(self):
        text = csv_text(["label"], [['x*sin2pix,extra'], ['say "hi"']])
        lines = text.split("\n")
        assert lines[1] == '"x*sin2pix,extra"'
        assert lines[2] == '"say ""hi"""'

    def test_floats_round_trip(self):
        text = csv_text(["x"], [[1 / 3]])
        assert float(text.split("\n")[1]) == 1 / 3

    def test_newlines_are_unix(self):
        text = csv_text(["a", "b"], [[1, 2]])
        assert "\r" not in text
        assert text.endswith("\n")


# Text a UTF-8 file can hold: no lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(TEXT, inner, max_size=6),
    max_leaves=60)


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
    @given(st.lists(TEXT, min_size=1, max_size=4),
           st.lists(st.lists(SCALARS, max_size=4), max_size=12),
           st.integers(min_value=1, max_value=5))
    def test_csv_file_equals_csv_text(self, header, rows, batch):
        whole = csv_text(header, rows)
        with mock.patch.object(reporting, "_BATCH", batch):
            assert csv_text(header, rows) == whole
            assert _written(write_csv, header, rows) == whole.encode("utf-8")

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

    @pytest.mark.parametrize("write, args", [
        (write_json, ({"ok": list(range(10 ** 4)), "bad": math.nan},)),
        (write_csv, (["x"], [[float(i)] for i in range(10 ** 4)]
                     + [[math.inf]])),
    ])
    def test_failed_write_leaves_the_old_file(self, tmp_path, write, args):
        path = tmp_path / "report"
        path.write_bytes(b"previous report\n")
        with pytest.raises(ValueError, match="non-finite"):
            write(path, *args)
        assert path.read_bytes() == b"previous report\n"
        assert os.listdir(tmp_path) == ["report"]

"""End-to-end command-line tests; every run goes through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statindep import (
    BlockSequence,
    Extraction,
    FunctionBattery,
    KroneckerSequence,
    NamedFunction,
    PiecewiseLinear,
    SpecError,
    SubsequenceIndex,
    UNIT,
    cdf_eval,
    continuity_grid,
    default_battery,
    detect_measurable,
    empirical_cdf,
    equivalence_harness,
    from_spec,
    helly_extract,
    kappa_family_builder,
    load_sequence,
    product_form,
    stieltjes,
)
from statindep.cli import (
    DEFAULT_TOLERANCES,
    _derived_pool,
    main,
    parse_experiment_spec,
)
from statindep.reporting import canonical_json, csv_text, fmt_floats
from statindep.selection import DEFAULT_MIN_POOL, DEFAULT_TOL, DEFAULT_WINDOW, \
    KAPPA_FAMILY
from statindep.sequences import _CHUNK, SEQUENCE_KINDS, normalize_spec

SRC = str(Path(__file__).resolve().parent.parent / "src")

KRON = {"kind": "kronecker", "params": {"alpha": "sqrt2-1"}}
MIRROR = {"kind": "affine_image",
          "params": {"c": -1.0, "d": 1.0, "source": KRON}}
PERIODIC = {"kind": "periodic", "params": {"values": [0.5, 0.0]}}


def linear_member(name):
    return {"name": name, "knots": [0, 1], "values": [0, 1]}


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def peak_kb(argv):
    """VmHWM, in kB, of a fresh interpreter that runs ``main(argv)``,
    which must return 0.  VmHWM, not ru_maxrss, which a child starts at
    its parent's peak."""
    code = ("from statindep.cli import main\n"
            f"code = main({argv!r})\n"
            "hwm = [line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')]\n"
            "print(code, *hwm)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    exit_code, peak = out.stdout.split()[-2:]
    assert exit_code == "0"
    return int(peak)


class TestSpecParsing:
    def test_round_trip(self):
        spec = parse_experiment_spec({
            "sequences": [KRON, MIRROR],
            "battery": ["one", "x",
                        {"name": "tent", "knots": [0.0, 0.5, 1.0],
                         "values": [0.0, 1.0, 0.0]}],
            "schedule": [10, 100, 1000],
            "kappa": "squares",
            "grid": [0.25, 0.5, 0.75],
            "tolerances": {"tol": 0.02},
            "outputs": {"basename": "run1"},
            "pool": list(range(1, 100)),
            "seed": 42,
        })
        assert parse_experiment_spec(spec) == spec
        assert parse_experiment_spec(json.loads(json.dumps(spec))) == spec

    def test_defaults_fill_in(self):
        spec = parse_experiment_spec({"sequences": [KRON]})
        assert spec["battery"] == ["one", "x", "x2", "sin2pix", "cos2pix",
                                   "ramp"]
        assert spec["schedule"] == [100, 1000, 10000, 100000]
        assert spec["kappa"] == "default"
        assert spec["grid"] == {"deciles": True}
        assert spec["tolerances"]["tol"] == 0.01
        assert spec["seed"] == 0
        assert "pool" not in spec

    def test_error_paths_cite_fields(self):
        cases = [
            ({"sequences": [KRON], "bogus": 1}, "bogus"),
            ({"sequences": []}, "sequences"),
            ({"sequences": [{"kind": "kronecker",
                             "params": {"alpha": "sqrt2-1", "junk": 1}}]},
             r"sequences\[0\].params.junk"),
            ({"sequences": [KRON], "schedule": [100, 100]}, "schedule"),
            ({"sequences": [KRON], "battery": ["sawtooth"]}, r"battery\[0\]"),
            ({"sequences": [KRON], "tolerances": {"slack": 1.0}},
             "tolerances.slack"),
            ({"sequences": [KRON], "pool": [1, 2, 3]}, "pool"),
            ({"sequences": [KRON], "kappa": "fancy"}, "kappa"),
            ({"sequences": [KRON], "outputs": {"basename": "a/b"}},
             "outputs.basename"),
            ({"sequences": [KRON, {"kind": "kronecker", "intervl": [0, 1],
                                   "params": {"alpha": "golden"}}]},
             r"^sequences\[1\]\.intervl: unknown field"),
            ({"sequences": [KRON], "tolerances": {"epsilon_width": 0.05}},
             r"^tolerances\.epsilon_width: unknown tolerance"),
            ({"sequences": [KRON], "tolerances": [0.05]},
             r"^tolerances: expected an object, got list$"),
            ({"sequences": [KRON], "outputs": {"stem": "run"}},
             r"^outputs\.stem: unknown output option$"),
            ({"sequences": [KRON], "outputs": "run"},
             r"^outputs: expected an object, got str$"),
            ({"sequences": [KRON],
              "battery": [{"name": "tent", "knots": [0, 1],
                           "values": [0, 1], "junk": 1}]},
             r"^battery\[0\]\.junk: unknown field$"),
            # (a*b, a) and (a, b*a) were both labelled a*b*a
            ({"sequences": [KRON], "battery": [
                linear_member("a*b"), linear_member("a"),
                linear_member("b*a")]},
             r"^battery\[0\]\.name: battery member name must not contain "
             r"'\*' \(the tuple label separator\), got 'a\*b'$"),
            # a CSV str column drops a trailing NUL
            ({"sequences": [KRON], "battery": ["x", linear_member("b\x00")]},
             r"^battery\[1\]\.name: battery member name must not contain "
             r"NUL, got 'b\\x00'$"),
            ({"sequences": [KRON], "battery": [
                linear_member("a"), "x", linear_member("a")]},
             r"^battery\[2\]\.name: battery names must be unique, 'a' is "
             r"also battery\[0\]$"),
            ({"sequences": [KRON], "battery": ["x", "one", "x"]},
             r"^battery\[2\]: battery names must be unique, 'x' is also "
             r"battery\[0\]$"),
            # an object's unknown keys are cited before its values...
            ({"sequences": [KRON],
              "tolerances": {"tol": float("nan"), "slack": 1.0}},
             r"^tolerances\.slack: unknown tolerance$"),
            # ...except a sequence's parameters, which are coerced first
            ({"sequences": [{"kind": "constant",
                             "params": {"value": "x", "scale": 2}}]},
             r"^sequences\[0\]\.params\.value: expected a number"),
        ]
        for obj, pattern in cases:
            with pytest.raises(SpecError, match=pattern):
                parse_experiment_spec(obj)


NUMBER = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   st.floats(-1e6, 1e6, allow_nan=False))
WHOLE = st.one_of(st.integers(-3, 40), st.integers(-3, 40).map(float))


def optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


def kind_spec(kind, params, required=True):
    params = (st.fixed_dictionaries(params) if required
              else optional(**params))
    interval = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2,
                        max_size=2, unique=True).map(sorted)
    return st.tuples(params, optional(interval=interval)).map(
        lambda t: {"kind": kind, "params": t[0], **t[1]})


LEAF_SPECS = st.one_of(
    kind_spec("kronecker", {"alpha": st.one_of(
        st.sampled_from(["sqrt2-1", "golden"]), st.text(max_size=8), NUMBER)}),
    kind_spec("van_der_corput", {"base": WHOLE}, required=False),
    kind_spec("periodic", {"values": st.lists(NUMBER, max_size=4)}),
    kind_spec("constant", {"value": NUMBER}),
    kind_spec("block", {"low": NUMBER, "high": NUMBER, "growth": WHOLE}),
    kind_spec("file", {"path": st.text(max_size=12)}),
)
SEQUENCE_SPECS = st.recursive(
    LEAF_SPECS,
    lambda source: kind_spec("affine_image",
                             {"c": NUMBER, "d": NUMBER, "source": source}),
    max_leaves=3)

INCREASING = st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6,
                      unique=True).map(sorted)
PIECEWISE = st.integers(2, 4).flatmap(lambda n: st.fixed_dictionaries({
    "name": st.text(st.characters(exclude_characters="*\x00"),
                    min_size=1, max_size=6),
    "knots": st.lists(NUMBER, min_size=n, max_size=n,
                      unique_by=float).map(sorted),
    "values": st.lists(NUMBER, min_size=n, max_size=n)}))
SPEC_FIELDS = optional(
    battery=st.lists(st.one_of(st.sampled_from(default_battery().names),
                               PIECEWISE), min_size=1, max_size=3,
                     unique_by=lambda e: e if isinstance(e, str)
                     else e["name"]),
    schedule=INCREASING,
    kappa=st.one_of(st.sampled_from(("default", "extract") + KAPPA_FAMILY),
                    INCREASING),
    grid=st.one_of(st.just({"deciles": True}), st.integers(1, 50),
                   st.lists(st.floats(-10, 10), min_size=1, max_size=5,
                            unique=True).map(sorted)),
    tolerances=optional(tol=st.floats(1e-6, 10), window=WHOLE.filter(
        lambda w: w >= 2), atom_tol=st.one_of(st.floats(1e-6, 1),
                                              st.integers(1, 3))),
    outputs=optional(basename=st.text("ab_-.0", min_size=1, max_size=8)),
    pool=st.lists(st.integers(1, 10 ** 6), min_size=DEFAULT_MIN_POOL,
                  max_size=DEFAULT_MIN_POOL + 4, unique=True).map(sorted),
    seed=st.integers(0, 2 ** 64 - 1),
)


class TestSequenceRegistry:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEQUENCE_SPECS, min_size=1, max_size=3))
    def test_round_trip_and_idempotent(self, raw):
        spec = parse_experiment_spec({"sequences": raw})
        assert parse_experiment_spec(json.loads(json.dumps(spec))) == spec
        for i, obj in enumerate(raw):
            norm = normalize_spec(obj, f"sequences[{i}]")
            assert norm == spec["sequences"][i]
            assert normalize_spec(norm) == norm
            assert list(norm) == ["kind", "interval", "params"]

    @settings(max_examples=200, deadline=None)
    @given(SPEC_FIELDS)
    def test_whole_spec_round_trip(self, fields):
        spec = parse_experiment_spec({"sequences": [KRON], **fields})
        assert list(spec) == ["sequences", "battery", "schedule", "kappa",
                              "grid", "tolerances", "outputs", "seed",
                              *(["pool"] if "pool" in fields else [])]
        assert parse_experiment_spec(spec) == spec
        assert parse_experiment_spec(json.loads(json.dumps(spec))) == spec

    def test_parse_builds_nothing(self, monkeypatch, tmp_path):
        built = []
        for kind, entry in list(SEQUENCE_KINDS.items()):
            monkeypatch.setitem(SEQUENCE_KINDS, kind, entry._replace(
                build=lambda *a, kind=kind, **k: built.append(kind)))
        parse_experiment_spec({"sequences": [
            KRON, MIRROR, PERIODIC, {"kind": "van_der_corput"},
            {"kind": "constant", "params": {"value": 0.5}},
            {"kind": "block", "params": {"low": 0, "high": 1, "growth": 2}},
            {"kind": "file", "params": {"path": str(tmp_path / "none")}}]})
        assert built == []

    def test_independence_reads_a_file_sequence_once(self, monkeypatch,
                                                     tmp_path, capsys):
        values = from_spec(KRON).prefix(1000)
        path = tmp_path / "kron.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        loads = []
        entry = SEQUENCE_KINDS["file"]

        def counting_load(**kwargs):
            loads.append(kwargs["path"])
            return entry.build(**kwargs)

        monkeypatch.setitem(SEQUENCE_KINDS, "file",
                            entry._replace(build=counting_load))
        spec = write_spec(tmp_path, {
            "sequences": [{"kind": "file", "params": {"path": str(path)}},
                          {"kind": "kronecker",
                           "params": {"alpha": "sqrt3-1"}}],
            "schedule": [100, 1000], "kappa": "pow2"})
        assert main(["independence", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "1000"]) == 0
        capsys.readouterr()
        assert loads == [str(path)]

    def test_block_low_above_high_fails_at_build(self, tmp_path, capsys):
        block = {"kind": "block", "params": {"low": 1, "high": 0, "growth": 2}}
        parse_experiment_spec({"sequences": [block, KRON]})
        spec = write_spec(tmp_path, {"sequences": [block, KRON]})
        assert main(["independence", "--spec", spec,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: sequences[0].params: "
            "block sequence requires low < high, got 1.0, 0.0\n")

    @pytest.mark.parametrize("bad, message", [
        ({"kind": "van_der_corput", "params": {"base": 1}},
         "van der Corput base must be an integer >= 2, got 1"),
        ({"kind": "kronecker", "params": {"alpha": "zz"}},
         "cannot parse kronecker alpha 'zz'"),
        ({"kind": "periodic", "params": {"values": []}},
         "periodic sequence needs at least one value"),
    ])
    def test_constructor_error_names_its_sequence(self, tmp_path, capsys,
                                                  bad, message):
        spec = write_spec(tmp_path, {"sequences": [KRON, bad]})
        assert main(["independence", "--spec", spec,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: sequences[1].params: {message}\n"

    @pytest.mark.parametrize("command", ["independence", "generate"])
    def test_unreadable_file_names_its_path_field(self, tmp_path, capsys,
                                                  command):
        # the OSError reached the user as "[Errno 2] ...", naming no field
        missing = {"kind": "file", "params": {"path": str(tmp_path / "none")}}
        obj, where = ({"sequences": [KRON, missing]}, "sequences[1]") \
            if command == "independence" else (missing, "sequence")
        spec = write_spec(tmp_path, obj)
        assert main([command, "--spec", spec, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}.params.path: [Errno 2] ")
        assert str(tmp_path / "none") in err

    @pytest.mark.parametrize("overrides, message", [
        ({"sequences": [{"kind": "kronecker", "params": {"alpha": "nan"}},
                        KRON]},
         "sequences[0].params: kronecker alpha must be finite, got 'nan'"),
        ({"sequences": [KRON, {"kind": "kronecker",
                               "params": {"alpha": float("inf")}}]},
         "sequences[1].params: kronecker alpha must be finite, got inf"),
        ({"tolerances": {"tol": float("inf")}},
         "tolerances.tol: must be positive and finite, got inf"),
        ({"tolerances": {"tol": float("nan")}},
         "tolerances.tol: must be positive and finite, got nan"),
        ({"tolerances": {"atom_tol": float("nan")}},
         "tolerances.atom_tol: must be positive and finite, got nan"),
        ({"battery": ["one", {"name": "tent", "knots": [0, float("nan"), 1],
                              "values": [0, 1, 0]}]},
         "battery[1].knots[1]: must be finite, got nan"),
        ({"battery": ["one", {"name": "tent", "knots": [0, 0.5, 1],
                              "values": [0, float("nan"), 0]}]},
         "battery[1].values[1]: must be finite, got nan"),
        ({"battery": ["one", {"name": "ramp", "knots": [0, float("inf")],
                              "values": [0, 1]}]},
         "battery[1].knots[1]: must be finite, got inf"),
        ({"grid": [0.2, float("nan"), 0.8]},
         "grid[1]: must be finite, got nan"),
    ])
    def test_non_finite_input_fails_where_it_enters(self, tmp_path, capsys,
                                                    monkeypatch, overrides,
                                                    message):
        # JSON NaN and Infinity used to run the whole harness, then fail
        # writing the report without naming the field
        import statindep.cli as cli
        monkeypatch.setattr(cli, "equivalence_harness", None)
        obj = {"sequences": [KRON, KRON], "schedule": [10, 100]}
        obj.update(overrides)
        spec = write_spec(tmp_path, obj)
        assert main(["independence", "--spec", spec,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cli_defaults_come_from_the_library(self):
        assert DEFAULT_TOLERANCES == {"tol": DEFAULT_TOL,
                                      "window": DEFAULT_WINDOW,
                                      "atom_tol": 0.001}
        assert [k.name for k in kappa_family_builder(1000)] \
            == list(KAPPA_FAMILY)


class TestFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["--depth", "0"], "--depth"),
        (["--depth", "-5"], "--depth"),
        (["--seed", "-1"], "--seed"),
        (["--seed", str(2 ** 64)], "--seed"),
    ])
    def test_bad_flag_names_itself(self, tmp_path, capsys, argv, flag):
        spec = write_spec(tmp_path, PERIODIC)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path),
                     *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert not (tmp_path / "sequence_values.txt").exists()

    @pytest.mark.parametrize("kappa", ["default", "pow2"])
    def test_shallow_depth_names_the_flag(self, tmp_path, capsys, kappa):
        # the family's own check reached the user as "base_depth must be
        # >= 1000", naming no flag
        spec = write_spec(tmp_path, {"sequences": [KRON, KRON],
                                     "schedule": [10, 100], "kappa": kappa})
        assert main(["independence", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "500"]) == 1
        assert capsys.readouterr().err == (
            f"error: kappa {kappa!r} needs --depth >= 1000, got 500; "
            f"raise --depth or supply explicit checkpoints\n")

    @pytest.mark.parametrize("command, kappa", [
        ("independence", "default"), ("independence", "pow2"),
        ("extract", "extract")])
    def test_depth_past_int64_names_the_flag(self, tmp_path, capsys, command,
                                             kappa):
        # a family's own check reached the user as "base_depth must be <
        # 2^63", and extract's pool as a RuntimeWarning
        spec = write_spec(tmp_path, {"sequences": [KRON, KRON],
                                     "schedule": [10, 100], "kappa": kappa})
        assert main([command, "--spec", spec, "--out", str(tmp_path),
                     "--depth", str(2 ** 63)]) == 1
        assert capsys.readouterr().err == (
            f"error: --depth: must be < 2^63, got {2 ** 63}\n")
        assert os.listdir(tmp_path) == ["spec.json"]

    def test_largest_seed_is_accepted(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PERIODIC)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "1", "--seed", str(2 ** 64 - 1)]) == 0
        capsys.readouterr()


class TestGenerate:
    def test_bare_sequence_spec_bytes(self, tmp_path):
        spec = write_spec(tmp_path, PERIODIC)
        code = main(["generate", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "4"])
        assert code == 0
        data = (tmp_path / "sequence_values.txt").read_bytes()
        assert data == b"0.5\n0\n0.5\n0\n"

    def test_round_trip_through_file_kind(self, tmp_path):
        spec = write_spec(tmp_path, {"sequences": [KRON],
                                     "outputs": {"basename": "kron"}})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "200"]) == 0
        path = tmp_path / "kron_values.txt"
        from statindep import UNIT, KroneckerSequence
        reloaded = load_sequence(str(path), UNIT)
        direct = KroneckerSequence("sqrt2-1").prefix(200)
        # 17-significant-digit formatting round-trips doubles exactly
        assert np.array_equal(reloaded.prefix(200), direct)

    def test_edge_values_keep_their_bytes(self, tmp_path):
        # each chunk is formatted in one call, with format()'s bytes
        values = [-0.0, 5e-324, 1e-300, 0.1, 0.0, 1.0, 1 / 3, 2.0 ** -1074,
                  0.30000000000000004, 1 - 2.0 ** -53]
        path = tmp_path / "values.txt"
        path.write_text("".join(repr(v) + "\n" for v in values))
        spec = write_spec(tmp_path, {"kind": "file",
                                     "params": {"path": str(path)}})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path),
                     "--depth", str(len(values))]) == 0
        want = "".join(format(v, ".17g") + "\n" for v in values)
        assert want.startswith("-0\n4.9406564584124654e-324\n1e-300\n"
                               "0.10000000000000001\n")
        assert (tmp_path / "sequence_values.txt").read_text() == want

    def test_rejects_two_sequences(self, tmp_path):
        spec = write_spec(tmp_path, {"sequences": [KRON, MIRROR]})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("kind", ["kronecker", "file"])
    def test_values_are_the_prefix_written_a_chunk_at_a_time(self, tmp_path,
                                                             kind):
        # the same bytes as the whole prefix formatted one value a line
        from statindep.sequences import _CHUNK
        n = 3 * _CHUNK + 5
        obj = KRON
        if kind == "file":
            path = tmp_path / "values.txt"
            path.write_text("".join(
                format(v, ".17g") + "\n"
                for v in np.random.default_rng(2).random(n + 9).tolist()))
            obj = {"kind": "file", "params": {"path": str(path)}}
        spec = write_spec(tmp_path, obj)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path),
                     "--depth", str(n)]) == 0
        values = from_spec(obj).prefix(n)
        want = "".join(format(float(v), ".17g") + "\n" for v in values)
        assert (tmp_path / "sequence_values.txt").read_text() == want

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_memory_is_flat_in_depth(self, tmp_path):
        # 8 bytes a term while the whole prefix was built: 32 MiB at 2^22
        spec = write_spec(tmp_path, KRON)
        peaks = [peak_kb(["generate", "--spec", spec, "--out", str(tmp_path),
                          "--depth", str(depth)])
                 for depth in (2 ** 16, 2 ** 22)]
        assert peaks[1] - peaks[0] <= 2048, peaks

    def test_a_failure_after_the_first_chunk_leaves_no_file(self, tmp_path,
                                                            monkeypatch,
                                                            capsys):
        from statindep import KroneckerSequence
        from statindep.sequences import _CHUNK
        real = KroneckerSequence._eval_batch

        def late_spike(self, ns):
            values = real(self, ns)
            values[ns == _CHUNK + 3] = 2.0
            return values

        monkeypatch.setattr(KroneckerSequence, "_eval_batch", late_spike)
        spec = write_spec(tmp_path, KRON)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path),
                     "--depth", str(2 * _CHUNK)]) == 1
        assert f"n={_CHUNK + 3}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


class TestDistribution:
    def test_weyl_table_matches_stieltjes(self, tmp_path):
        spec = write_spec(tmp_path, {
            "sequences": [KRON],
            "schedule": [100, 1000, 5000],
            "outputs": {"basename": "dist"},
        })
        assert main(["distribution", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        weyl = (tmp_path / "dist_weyl.csv").read_text().strip().split("\n")
        assert weyl[0] == "N,function,mean,stieltjes,abs_diff"
        for line in weyl[1:]:
            assert float(line.rsplit(",", 1)[1]) <= 1e-12
        cdf_lines = (tmp_path / "dist_cdf.csv").read_text().strip().split("\n")
        assert cdf_lines[0] == "N,x,F"
        # 3 schedule depths x 9 decile points
        assert len(cdf_lines) == 1 + 27
        doc = json.loads((tmp_path / "dist_cdf.json").read_text())
        assert set(doc) == {"points", "masses"}
        assert abs(sum(doc["masses"]) - 1.0) < 1e-12


    def test_weyl_mean_is_the_schedule_test_mean(self, tmp_path):
        # one mean per quantity: the table's mean is product_form's, bit for
        # bit, on a schedule that crosses block boundaries
        schedule = [100, 8191, 8193, 3 * 8192 + 5]
        spec = write_spec(tmp_path, {
            "sequences": [KRON],
            "schedule": schedule,
            "outputs": {"basename": "dist"},
        })
        assert main(["distribution", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "dist_weyl.csv").read_text().strip().split("\n")[1:]
        seq = from_spec(KRON)
        battery = default_battery(seq.interval)
        assert len(rows) == len(schedule) * len(battery)
        for row in rows:
            n, name, mean = row.split(",")[:3]
            want = product_form([seq], [battery.member(name)], int(n))
            assert float(mean) == want and fmt_floats([want]) == mean, row

    def test_count_grid(self, tmp_path):
        spec = write_spec(tmp_path, {
            "sequences": [KRON],
            "schedule": [100, 1000, 5000],
            "grid": 5,
            "outputs": {"basename": "dist"},
        })
        assert main(["distribution", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "dist_cdf.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 3 * 5
        schedule = SubsequenceIndex([100, 1000, 5000])
        want = continuity_grid([empirical_cdf(from_spec(KRON), schedule)], 5,
                               atom_tol=0.001, interval=UNIT)
        assert [float(r.split(",")[1]) for r in rows[:5]] == list(want)


    @pytest.mark.parametrize("obj", [
        {"sequences": [KRON], "schedule": [10, 8191, 8192, 20001]},
        {"sequences": [{"kind": "block", "params": {
            "low": 0.0, "high": 1.0, "growth": 2}}],
         "schedule": [3, 100, 8193, 20000], "grid": 4},
    ])
    def test_files_match_the_per_point_route(self, tmp_path, obj):
        # one prefix for every CDF and one kernel walk for every mean write
        # the bytes of one empirical_cdf and one product_form per point
        spec = write_spec(tmp_path, dict(obj, outputs={"basename": "d"}))
        assert main(["distribution", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        seq = from_spec(obj["sequences"][0])
        battery = default_battery(seq.interval)
        schedule = SubsequenceIndex(obj["schedule"])
        deepest = empirical_cdf(seq, schedule)
        grid = (continuity_grid([deepest], obj["grid"], atom_tol=0.001)
                if "grid" in obj else np.arange(1, 10) / 10.0)
        cdf_rows, weyl_rows = [], []
        for j, n in enumerate(obj["schedule"], start=1):
            cdf = empirical_cdf(seq, schedule, depth=j)
            cdf_rows += [(n, float(x), cdf_eval(cdf, float(x))) for x in grid]
            for member in battery:
                mean = product_form([seq], [member], n)
                integral = stieltjes(member, cdf)
                weyl_rows.append((n, member.name, mean, integral,
                                  abs(mean - integral)))
        assert (tmp_path / "d_cdf.json").read_text() == \
            canonical_json(deepest.to_json_obj())
        assert (tmp_path / "d_cdf.csv").read_text() == \
            csv_text(["N", "x", "F"], list(zip(*cdf_rows)))
        assert (tmp_path / "d_weyl.csv").read_text() == csv_text(
            ["N", "function", "mean", "stieltjes", "abs_diff"],
            list(zip(*weyl_rows)))


    def test_each_index_generated_once_per_read(self, tmp_path, monkeypatch):
        # every CDF reads one prefix, and the one kernel walk of every
        # mean generates it again, past the constant-run scan's chunk
        generated = _count_generation(monkeypatch)
        spec = write_spec(tmp_path, {"sequences": [KRON],
                                     "schedule": [10, 8193, 20001],
                                     "outputs": {"basename": "d"}})
        assert main(["distribution", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        assert generated == {"kronecker": 2 * 20001 + _CHUNK}


def _count_generation(monkeypatch) -> dict:
    """Terms generated per sequence kind, by every instance from now on."""
    generated = {}
    for cls in (KroneckerSequence, BlockSequence):
        real = cls._eval_batch

        def counting(self, ns, real=real):
            generated[self.kind] = generated.get(self.kind, 0) + ns.size
            return real(self, ns)

        monkeypatch.setattr(cls, "_eval_batch", counting)
    return generated


class TestIndependence:
    def spec_pair(self, tmp_path, **overrides):
        obj = {
            "sequences": [KRON,
                          {"kind": "kronecker", "params": {"alpha": "sqrt3-1"}}],
            "schedule": [100, 1000, 10000],
            "outputs": {"basename": "pair"},
        }
        obj.update(overrides)
        return write_spec(tmp_path, obj)

    def test_independent_pair_exits_zero(self, tmp_path, capsys):
        spec = self.spec_pair(tmp_path)
        code = main(["independence", "--spec", spec, "--out", str(tmp_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "statind verdict: independent" in captured
        assert "verdicts agree" in captured
        report = json.loads((tmp_path / "pair_report.json").read_text())
        assert report["agreement"] is True
        gaps = (tmp_path / "pair_gaps.csv").read_text().split("\n")
        assert gaps[0] == "N,tuple label,delta,product,gap"
        rect = (tmp_path / "pair_rectangles.csv").read_text().split("\n")
        assert rect[0] == "kappa,corner_1,corner_2,density,product,residual"

    def test_dependent_pair_agreement(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "sequences": [KRON, MIRROR],
            "schedule": [100, 1000, 10000],
            "outputs": {"basename": "mirror"},
        })
        code = main(["independence", "--spec", spec, "--out", str(tmp_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "statind verdict: dependent" in captured
        assert "verdicts agree" in captured

    def test_blind_battery_disagrees(self, tmp_path, capsys):
        # a battery of constants cannot see the mirror dependence, but the
        # rectangle residuals can: recorded as a counterexample, exit 2
        spec = write_spec(tmp_path, {
            "sequences": [KRON, MIRROR],
            "battery": ["one"],
            "schedule": [100, 1000, 10000],
            "outputs": {"basename": "blind"},
        })
        code = main(["independence", "--spec", spec, "--out", str(tmp_path)])
        captured = capsys.readouterr().out
        assert code == 2
        assert "disagree" in captured
        report = json.loads((tmp_path / "blind_report.json").read_text())
        assert report["agreement"] is False
        assert report["counterexample"] is not None

    @pytest.mark.parametrize("shape", ["kappa array", "extract pool",
                                       "piecewise battery"])
    def test_spec_shapes_write_the_library_route(self, tmp_path, capsys,
                                                 shape):
        # an explicit kappa, an explicit pool to extract from, and a
        # piecewise-linear battery member write what the library gives
        schedule = [100, 1000, 4000]
        spec = {"schedule": schedule, "outputs": {"basename": "s"}}
        battery = default_battery()
        family = kappa_family_builder(4000, last=DEFAULT_WINDOW)
        if shape == "kappa array":
            spec["kappa"] = list(range(40, 4001, 40))
            family = [SubsequenceIndex(np.arange(40, 4001, 40),
                                       name="explicit")]
        elif shape == "extract pool":
            spec["kappa"] = "extract"
            spec["pool"] = list(range(50, 5001, 50))
            family = [Extraction(SubsequenceIndex(np.arange(50, 5001, 50),
                                                  name="pool"),
                                 tol=DEFAULT_TOL, window=DEFAULT_WINDOW)]
        else:
            spec["battery"] = ["x", {"name": "tent", "knots": [0, 0.5, 1],
                                     "values": [0, 1, 0]}]
            battery = FunctionBattery((battery.member("x"), NamedFunction(
                "tent", PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 1.0, 0.0)))))
        path = self.spec_pair(tmp_path, **spec)
        assert main(["independence", "--spec", path, "--out", str(tmp_path),
                     "--depth", "4000"]) == 0
        capsys.readouterr()
        seqs = [from_spec(s) for s in json.loads(
            (tmp_path / "spec.json").read_text())["sequences"]]
        report = equivalence_harness(seqs, battery, family, schedule,
                                     DEFAULT_TOL,
                                     grid=np.arange(1, 10) / 10.0,
                                     atom_tol=0.001, window=DEFAULT_WINDOW)
        assert any(o.tested for o in report.outcomes)
        assert (tmp_path / "s_report.json").read_text() == \
            canonical_json(report.to_json_obj())
        assert (tmp_path / "s_gaps.csv").read_text() == csv_text(
            ["N", "tuple label", "delta", "product", "gap"],
            report.statind.gap_columns())
        assert (tmp_path / "s_rectangles.csv").read_text() == csv_text(
            ["kappa", "corner_1", "corner_2", "density", "product",
             "residual"],
            *[o.report.columns() for o in report.outcomes if o.tested])

    def test_count_grid_placed_per_kappa(self, tmp_path, capsys):
        spec = self.spec_pair(tmp_path, schedule=[100, 1000, 4000], grid=5)
        assert main(["independence", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "4000"]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "pair_report.json").read_text())
        seqs = [from_spec(s) for s in json.loads(
            (tmp_path / "spec.json").read_text())["sequences"]]
        family = {k.label: k for k in kappa_family_builder(4000)}
        tested = [o for o in report["kappa_outcomes"] if o["tested"]]
        assert tested
        for outcome in tested:
            kappa = family[outcome["kappa"]]
            grid = continuity_grid([empirical_cdf(s, kappa) for s in seqs], 5,
                                   atom_tol=0.001)
            assert outcome["rectangle"]["corners"] == [
                [x, y] for x in grid.tolist() for y in grid.tolist()]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_default_family_memory_is_flat_in_depth(self, tmp_path):
        # each member is built as its last window checkpoints; whole, the
        # family held about 12 bytes per index, 23 MiB more at 2^21.
        spec = self.spec_pair(tmp_path, schedule=[100, 1000])
        peaks = [peak_kb(["independence", "--spec", spec, "--out",
                          str(tmp_path), "--depth", str(depth)])
                 for depth in (2 ** 17, 2 ** 21)]
        assert peaks[1] - peaks[0] <= 1536, peaks

    def test_single_sequence_is_operational_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"sequences": [KRON]})
        assert main(["independence", "--spec", spec,
                     "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic_reruns(self, tmp_path):
        spec = self.spec_pair(tmp_path, schedule=[100, 1000, 4000])
        outs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            assert main(["independence", "--spec", spec,
                         "--out", str(outdir), "--depth", "4000"]) == 0
            outs.append({name: (outdir / name).read_bytes()
                         for name in ("pair_report.json", "pair_gaps.csv",
                                      "pair_rectangles.csv")})
        assert outs[0] == outs[1]


class TestExtract:
    def test_block_pool_extraction(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "sequences": [{"kind": "block",
                           "params": {"low": 0.0, "high": 1.0, "growth": 2}}],
            "kappa": "extract",
            "grid": [0.5],
            "outputs": {"basename": "blk"},
        })
        code = main(["extract", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "262144"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "measurable=True" in captured
        kappa = json.loads((tmp_path / "blk_kappa.json").read_text())
        cps = kappa["checkpoints"]
        assert len(cps) >= 5
        assert all(a < b for a, b in zip(cps, cps[1:]))
        reports = json.loads((tmp_path / "blk_measurability.json").read_text())
        assert reports[0]["measurable"] is True

    def test_count_grid(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "sequences": [{"kind": "block",
                           "params": {"low": 0.0, "high": 1.0, "growth": 2}}],
            "kappa": "extract",
            "grid": 5,
            "outputs": {"basename": "blk"},
        })
        assert main(["extract", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "262144"]) == 0
        assert "measurable=True" in capsys.readouterr().out
        reports = json.loads((tmp_path / "blk_measurability.json").read_text())
        grid = reports[0]["grid"]
        assert len(grid) == 5 and all(0 < x < 1 for x in grid)

    @pytest.mark.parametrize("grid", [[0.25, 0.5, 0.75], 5])
    def test_files_match_the_two_step_route(self, tmp_path, grid):
        # one counting walk over the pool gives the bytes of extracting
        # first and detecting measurability along the extracted index after
        seqs = [{"kind": "block",
                 "params": {"low": 0.0, "high": 1.0, "growth": 2}}, KRON]
        spec = write_spec(tmp_path, {"sequences": seqs, "kappa": "extract",
                                     "grid": grid,
                                     "outputs": {"basename": "x"}})
        assert main(["extract", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "100000"]) == 0
        seqs = [from_spec(s) for s in seqs]
        pool = _derived_pool(100000)
        points = (np.asarray(grid) if isinstance(grid, list) else
                  continuity_grid([empirical_cdf(s, pool) for s in seqs],
                                  grid, atom_tol=0.001))
        kappa = helly_extract(seqs, pool, points)
        reports = [detect_measurable(s, kappa, points) for s in seqs]
        assert (tmp_path / "x_kappa.json").read_text() == \
            canonical_json(kappa.to_json_obj())
        assert (tmp_path / "x_measurability.json").read_text() == \
            canonical_json([r.to_json_obj() for r in reports])

    def test_each_index_generated_once_per_read(self, tmp_path, monkeypatch):
        # the pool's atoms and its counts read each sequence to the pool's
        # deepest checkpoint, and each limit CDF to kappa's
        generated = _count_generation(monkeypatch)
        seqs = [{"kind": "block",
                 "params": {"low": 0.0, "high": 1.0, "growth": 2}}, KRON]
        spec = write_spec(tmp_path, {"sequences": seqs, "kappa": "extract",
                                     "grid": 5, "outputs": {"basename": "x"}})
        assert main(["extract", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "100000"]) == 0
        kappa = json.loads((tmp_path / "x_kappa.json").read_text())
        assert kappa["checkpoints"][-1] == 71_468
        total = 2 * _derived_pool(100000).deepest + 71_468
        assert generated == {"block": total, "kronecker": total}

    def test_requires_extract_kappa(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"sequences": [KRON]})
        assert main(["extract", "--spec", spec, "--out", str(tmp_path)]) == 1
        assert "extract" in capsys.readouterr().err


SQRT3 = {"kind": "kronecker", "params": {"alpha": "sqrt3-1"}}
BLOCK = {"kind": "block", "params": {"low": 0.0, "high": 1.0, "growth": 2}}


@pytest.mark.parametrize("command, spec", [
    ("independence", {"sequences": [KRON, SQRT3], "grid": [0.25, 0.5]}),
    ("independence", {"sequences": [KRON, SQRT3], "grid": {"deciles": True}}),
    ("independence", {"sequences": [KRON, SQRT3], "grid": 5}),
    ("independence", {"sequences": [KRON, SQRT3], "grid": 5,
                      "kappa": "thinned"}),
    ("extract", {"sequences": [BLOCK], "kappa": "extract"}),
    ("generate", {"sequences": [KRON]}),
    ("distribution", {"sequences": [KRON], "grid": 5}),
], ids=["fixed", "deciles", "count", "thinned", "extract", "generate",
        "distribution"])
def test_no_command_imports_numpy_ma_or_random(tmp_path, command, spec):
    # a plain np.unique call imports numpy.ma, which no run needs; the
    # default family's thinned member draws its coins without numpy.random
    spec = write_spec(tmp_path, dict(spec, schedule=[100, 1000]))
    argv = [command, "--spec", spec, "--out", str(tmp_path),
            "--depth", "4096"]
    code = ("import sys\nfrom statindep.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules,"
            " 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False False"


class TestExitCodes:
    @pytest.mark.parametrize("unbuffered", ["1", ""],
                             ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_not_a_failed_run(self, tmp_path, unbuffered):
        # a reader that stopped early: the file is written, nothing reaches
        # stderr, and the exit status is SIGPIPE's 128 + 13
        spec = write_spec(tmp_path, PERIODIC)
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "statindep.cli", "generate", "--spec",
                 spec, "--out", str(tmp_path), "--depth", "10"],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=SRC,
                         PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (141, "")
        assert (tmp_path / "sequence_values.txt").read_text() == "0.5\n0\n" * 5

    def test_usage_error_is_one_not_two(self, capsys):
        assert main(["independence"]) == 1  # missing --spec
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["independence", "--help"]) == 0
        capsys.readouterr()

    def test_missing_spec_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["generate", "--spec", missing,
                     "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_spec(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["generate", "--spec", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

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
    KroneckerSequence,
    SpecError,
    SubsequenceIndex,
    UNIT,
    cdf_eval,
    continuity_grid,
    default_battery,
    detect_measurable,
    empirical_cdf,
    from_spec,
    helly_extract,
    kappa_family_builder,
    load_sequence,
    product_form,
    stieltjes,
)
from statindep.cli import (
    DEFAULT_TOLERANCES,
    ExperimentSpec,
    _derived_pool,
    main,
    parse_experiment_spec,
    serialize_experiment_spec,
)
from statindep.reporting import canonical_json, csv_text, fmt_float
from statindep.selection import DEFAULT_TOL, DEFAULT_WINDOW, KAPPA_FAMILY
from statindep.sequences import SEQUENCE_KINDS, normalize_spec

SRC = str(Path(__file__).resolve().parent.parent / "src")

KRON = {"kind": "kronecker", "params": {"alpha": "sqrt2-1"}}
MIRROR = {"kind": "affine_image",
          "params": {"c": -1.0, "d": 1.0, "source": KRON}}
PERIODIC = {"kind": "periodic", "params": {"values": [0.5, 0.0]}}


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


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
        assert isinstance(spec, ExperimentSpec)
        again = parse_experiment_spec(serialize_experiment_spec(spec))
        assert again == spec

    def test_defaults_fill_in(self):
        spec = parse_experiment_spec({"sequences": [KRON]})
        assert spec.battery == ("one", "x", "x2", "sin2pix", "cos2pix", "ramp")
        assert spec.schedule == (100, 1000, 10000, 100000)
        assert spec.kappa == "default"
        assert spec.grid == {"deciles": True}
        assert spec.tolerances["tol"] == 0.01
        assert spec.seed == 0

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


class TestSequenceRegistry:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEQUENCE_SPECS, min_size=1, max_size=3))
    def test_round_trip_and_idempotent(self, raw):
        spec = parse_experiment_spec({"sequences": raw})
        assert parse_experiment_spec(serialize_experiment_spec(spec)) == spec
        for i, obj in enumerate(raw):
            norm = normalize_spec(obj, f"sequences[{i}]")
            assert norm == spec.sequences[i]
            assert normalize_spec(norm) == norm
            assert list(norm) == ["kind", "interval", "params"]

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
        values = from_spec(KRON).prefix(1000).values
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
        direct = KroneckerSequence("sqrt2-1").prefix(200).values
        # 17-significant-digit formatting round-trips doubles exactly
        assert np.array_equal(reloaded.prefix(200).values, direct)

    def test_rejects_two_sequences(self, tmp_path):
        spec = write_spec(tmp_path, {"sequences": [KRON, MIRROR]})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path)]) == 1


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
            assert float(mean) == want and fmt_float(want) == mean, row

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
            csv_text(["N", "x", "F"], cdf_rows)
        assert (tmp_path / "d_weyl.csv").read_text() == csv_text(
            ["N", "function", "mean", "stieltjes", "abs_diff"], weyl_rows)


    def test_each_index_generated_once(self, tmp_path, monkeypatch):
        # every CDF and the one kernel walk of every mean read one prefix
        generated = _count_generation(monkeypatch)
        spec = write_spec(tmp_path, {"sequences": [KRON],
                                     "schedule": [10, 8193, 20001],
                                     "outputs": {"basename": "d"}})
        assert main(["distribution", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        assert generated == {"kronecker": 20001}


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

    @pytest.mark.parametrize("kappa, imported",
                             [("pow2", False), ("thinned", True)])
    def test_only_thinned_imports_numpy_random(self, tmp_path, kappa,
                                               imported):
        # a named kappa builds its one member, and only thinned draws coins
        spec = self.spec_pair(tmp_path, schedule=[100, 1000], kappa=kappa)
        argv = ["independence", "--spec", spec, "--out", str(tmp_path),
                "--depth", "1000"]
        code = ("import sys\nfrom statindep.cli import main\n"
                f"code = main({argv!r})\n"
                "print(code, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == f"0 {imported}"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_default_family_memory_is_flat_in_depth(self, tmp_path):
        # each member is built as its last window checkpoints; whole, the
        # family held about 12 bytes per index, 23 MiB more at 2^21.
        # VmHWM, not ru_maxrss, which a child starts at its parent's peak.
        spec = self.spec_pair(tmp_path, schedule=[100, 1000])
        peaks = []
        for depth in (2 ** 17, 2 ** 21):
            argv = ["independence", "--spec", spec, "--out", str(tmp_path),
                    "--depth", str(depth)]
            code = ("from statindep.cli import main\n"
                    f"code = main({argv!r})\n"
                    "hwm = [line.split()[1] for line in open('/proc/self/status')"
                    " if line.startswith('VmHWM:')]\n"
                    "print(code, *hwm)")
            out = subprocess.run([sys.executable, "-c", code],
                                 env=dict(os.environ, PYTHONPATH=SRC),
                                 capture_output=True, text=True, check=True)
            exit_code, peak_kb = out.stdout.split()[-2:]
            assert exit_code == "0"
            peaks.append(int(peak_kb))
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

    def test_each_index_generated_once(self, tmp_path, monkeypatch):
        # the pool's CDFs, its counts and the limit CDFs read one kept
        # prefix per sequence
        generated = _count_generation(monkeypatch)
        seqs = [{"kind": "block",
                 "params": {"low": 0.0, "high": 1.0, "growth": 2}}, KRON]
        spec = write_spec(tmp_path, {"sequences": seqs, "kappa": "extract",
                                     "grid": 5, "outputs": {"basename": "x"}})
        assert main(["extract", "--spec", spec, "--out", str(tmp_path),
                     "--depth", "100000"]) == 0
        assert generated == {"block": _derived_pool(100000).deepest,
                             "kronecker": _derived_pool(100000).deepest}

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
    ("extract", {"sequences": [BLOCK], "kappa": "extract"}),
    ("distribution", {"sequences": [KRON], "grid": 5}),
], ids=["fixed", "deciles", "count", "extract", "distribution"])
def test_no_command_imports_numpy_ma(tmp_path, command, spec):
    # a plain np.unique call imports numpy.ma, which no run needs
    spec = write_spec(tmp_path, dict(spec, schedule=[100, 1000]))
    argv = [command, "--spec", spec, "--out", str(tmp_path),
            "--depth", "4096"]
    code = ("import sys\nfrom statindep.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


class TestExitCodes:
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

"""Self-test of the benchmark's output check and metric list.

Run with: python3 -m pytest -q perfbench/test_check.py

The recorded seed-0 outputs must pass the check; perturbed copies must
fail it, except for float noise within the tolerance, which passes without
being byte-identical.
"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference(name):
    basename = workloads.make_spec(name, 0)["outputs"]["basename"]
    files = check.load_reference(name, 0)
    assert files is not None and sorted(files) == sorted(check.output_names(basename))
    return basename, files


def replace_once(data: bytes, pattern: str, repl) -> bytes:
    text, n = re.subn(pattern, repl, data.decode(), count=1)
    assert n == 1, pattern
    return text.encode()


def bump(cell: str, delta: float) -> str:
    return repr(float(cell) + delta)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_passes_and_is_identical(name):
    basename, files = reference(name)
    assert check.check_run(0, files, basename, files) == []
    digests = check.load_digests()[name]["0"]
    assert check.identical_files(files, digests) == len(files)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_seed_has_digests(name):
    assert sorted(check.load_digests()[name]) == sorted(
        str(s) for s in workloads.SEEDS)


def test_float_noise_within_tolerance_passes_but_is_not_identical():
    basename, files = reference("pair-family")
    gaps = basename + "_gaps.csv"
    perturbed = dict(files)
    # Second data row, delta column: move it by 5e-16.
    perturbed[gaps] = replace_once(
        files[gaps], r"(\n[^\n]*\n\d+,[^,]+,)([^,]+)",
        lambda m: m.group(1) + bump(m.group(2), 5e-16))
    assert check.check_run(0, perturbed, basename, files) == []
    digests = check.load_digests()["pair-family"]["0"]
    assert check.identical_files(perturbed, digests) == len(files) - 1


def test_gap_beyond_tolerance_fails():
    basename, files = reference("schedule-quad")
    gaps = basename + "_gaps.csv"
    perturbed = dict(files)
    perturbed[gaps] = replace_once(
        files[gaps], r"(\n\d+,[^,]+,)([^,]+)",
        lambda m: m.group(1) + bump(m.group(2), 1e-9))
    problems = check.check_run(0, perturbed, basename, files)
    assert len(problems) == 1 and "delta" in problems[0]


def test_density_must_match_exactly():
    basename, files = reference("pair-family")
    rects = basename + "_rectangles.csv"
    perturbed = dict(files)
    # First data row, density column (after kappa and two corners).
    perturbed[rects] = replace_once(
        files[rects], r"(\n[a-z]+,[^,]+,[^,]+,)([^,]+)",
        lambda m: m.group(1) + bump(m.group(2), 1e-15))
    problems = check.check_run(0, perturbed, basename, files)
    assert len(problems) == 1 and "density" in problems[0]


def test_report_density_must_match_exactly():
    basename, files = reference("deep-extract")
    report_name = basename + "_report.json"
    report = json.loads(files[report_name])
    rect = report["kappa_outcomes"][0]["rectangle"]
    rect["density"][3] += 1e-15
    perturbed = dict(files)
    perturbed[report_name] = json.dumps(report).encode()
    problems = check.check_run(0, perturbed, basename, files)
    assert problems and all("density[3]" in p for p in problems)


def test_changed_verdict_fails_without_reference():
    basename, files = reference("pair-family")
    report_name = basename + "_report.json"
    perturbed = dict(files)
    perturbed[report_name] = replace_once(
        files[report_name], r'"verdict": "independent"', '"verdict": "dependent"')
    assert check.check_run(0, perturbed, basename, None) == [
        "schedule verdict is not independent"]
    assert check.check_run(0, perturbed, basename, files)


def test_exit_code_and_missing_file_fail():
    basename, files = reference("deep-extract")
    assert check.check_run(2, files, basename, files) == [
        "exit code 2, expected 0"]
    partial = {n: d for n, d in files.items() if not n.endswith("_gaps.csv")}
    assert check.check_run(0, partial, basename, None)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    fake = run.Child(0, 1.0, 0.1, 10.0, 1.0, {}, "")
    layer = run.per_layer([fake], [fake])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]


def test_traced_child_reports_layers(tmp_path):
    spec = workloads.make_spec("pair-family", 1)
    spec["schedule"] = [100, 1000, 4000]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    c = run.spawn(str(tmp_path), ["independence", "--spec", str(spec_path),
                                  "--out", str(tmp_path / "out"),
                                  "--depth", "4000"],
                  True, run.child_env(), run.time.monotonic() + 120)
    assert c.code == 0, c.log
    trace = c.sidecar["trace"]
    assert trace["absent"] == [] and trace["unavailable"] == []
    assert trace["calls"]["density.kappa_density"] == 6 * (81 + 2 * 9 * 2)
    assert trace["counts"]["sequences.terms_needed"] == 2 * 4000
    assert 0 <= trace["unaccounted_s"] < trace["main_s"]


def test_tracer_survives_missing_and_reshaped_functions(tmp_path):
    import tracer

    pkg = tmp_path / "fakestat"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "density.py").write_text(
        "def kappa_density(checkpoints):\n    return len(checkpoints)\n")
    (pkg / "sequences.py").write_text(
        "class BoundedSequence:\n    pass\n")
    sys.path.insert(0, str(tmp_path))
    try:
        import fakestat.density
        import fakestat.sequences  # noqa: F401
        t = tracer.install("fakestat")
        assert fakestat.density.kappa_density([1, 2, 3]) == 3
        summary = tracer.summary(t, 1.0)
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.startswith("fakestat")]:
            del sys.modules[name]
    assert summary["calls"] == {"density.kappa_density": 1}
    assert "sequences.prefix" in summary["absent"]
    assert "density.kappa_density" not in summary["absent"]
    assert summary["unavailable"] == ["density.kappa_density",
                                      "sequences.terms_generated"]

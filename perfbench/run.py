"""Benchmark of the ``statindep independence`` CLI, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pair-family --seed 0 --seconds 40 --trace 0

Each workload (see workloads.py) runs as a fresh child process of the CLI
(``statindep.cli.main``), one child at a time, in a closed loop, until
``--seconds`` have passed (at least three children).  Every child's outputs
are checked (see check.py).  The child imports the package from ``src`` of
this checkout; nothing is built or installed.

``--trace 0`` reports the end-to-end metrics, as medians over the children
of one run:

* ``wall_s``: spawn to exit of one CLI run, what a user waits for;
* ``setup_s``: spawn to ``import statindep.cli`` having returned, timed in
  the workload children and in import-only children started for the purpose;
* ``peak_rss_mb``: the child's own peak RSS from ``os.wait4``;
* ``ok_frac``: the share of children with exit code 0 whose outputs passed.

``--trace 1`` alternates untraced children with children that wrap the
package's public functions from outside (tracer.py) and reports per-layer
self times and counts, the untraced CPU time, the tracing overhead and the
traced time that no top-level span covers.

``--workload all`` runs every workload in turn and prefixes metric names
with the workload.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a table with sample counts and quartiles, the environment
and any check failures.  Exits 2 without a result when the package cannot
be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")

MIN_CHILDREN = 3        # untraced children per run, whatever --seconds says
MIN_TRACED = 2          # traced children per --trace 1 run
SETUP_CHILDREN = 5      # import-only children per run, for setup_s
RUN_BUDGET_S = 170.0    # a child still running past this is killed

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "fraction"))

# Stands in for the trace of a run in which no traced child finished.
EMPTY_TRACE = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {},
               "unaccounted_s": 0.0, "absent": [], "unavailable": []}


class SetupFailed(Exception):
    """The package cannot be imported from this checkout."""


@dataclass
class Child:
    """Measurements of one finished child process."""

    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    sidecar: dict
    log: str
    problems: list[str] = field(default_factory=list)
    identical: int = 0


def child_env() -> dict:
    """The parent's environment with BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = nproc
    return env


def spawn(workdir: str, cli_args: list[str], trace: bool, env: dict,
          deadline: float) -> Child:
    """Run one child to completion and measure it from the outside."""
    sidecar = os.path.join(workdir, "sidecar.json")
    log = os.path.join(workdir, "child.log")
    for path in (sidecar, log):
        if os.path.exists(path):
            os.remove(path)
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, sidecar, "1" if trace else "0", *cli_args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=out, env=env,
            cwd=workdir)
        # The pidfd turns readable at exit without reaping the child, so
        # wait4 can still collect its own rusage (peak RSS, CPU time).
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [],
                                            max(0.0, deadline - start))
            finally:
                os.close(pidfd)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    data = {}
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            data = json.load(fh)
    setup = data["imported"] - start if "imported" in data else None
    with open(log, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Child(code, end - start, setup, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime, data, text)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cache_sizes() -> dict:
    """L2/L3 sizes of CPU 0 as the kernel reports them (read-only sysfs)."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def per_layer(traced: list[Child], plain: list[Child]) -> dict[str, tuple]:
    """Per-layer metrics: medians over the traced children."""
    summaries = [c.sidecar["trace"] for c in traced if "trace" in c.sidecar]
    summaries = summaries or [EMPTY_TRACE]

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def calls(name):
        return med(lambda s: s["calls"].get(name, 0)), "count"

    def self_s(name):
        return med(lambda s: s["self_s"].get(name, 0.0)), "s"

    def layer_self_s(layer):
        return med(lambda s: sum(v for n, v in s["self_s"].items()
                                 if n.startswith(layer + "."))), "s"

    def total_s(name):
        return med(lambda s: s["total_s"].get(name, 0.0)), "s"

    def count(name, unit="count"):
        return med(lambda s: s["counts"].get(name, 0.0)), unit

    def ratio(num, den):
        return med(lambda s: s["counts"].get(num, 0.0)
                   / s["counts"][den] if s["counts"].get(den) else 0.0), "ratio"

    plain_wall = statistics.median(c.wall_s for c in plain)
    return {
        "density.kappa_density.calls": calls("density.kappa_density"),
        "density.kappa_density.self_s": self_s("density.kappa_density"),
        "density.checkpoints_traced": count("density.checkpoints_traced"),
        "density.indices_scanned": count("density.indices_scanned"),
        "independence.statind_test.self_s": self_s("independence.statind_test"),
        "independence.tuple_points": count("independence.tuple_points"),
        "independence.kappa_independence_test.self_s":
            self_s("independence.kappa_independence_test"),
        "independence.corners": count("independence.corners"),
        "independence.equivalence_harness.total_s":
            total_s("independence.equivalence_harness"),
        "selection.detect_measurable.calls": calls("selection.detect_measurable"),
        "selection.detect_measurable.total_s":
            total_s("selection.detect_measurable"),
        "selection.measurability_repeat_ratio":
            count("selection.measurability_repeat_ratio", "ratio"),
        "selection.helly_extract.self_s": self_s("selection.helly_extract"),
        "selection.pool_kept_frac": count("selection.pool_kept_frac", "fraction"),
        "sequences.prefix.calls": calls("sequences.prefix"),
        "sequences.prefix.self_s": self_s("sequences.prefix"),
        "sequences.terms_generated": count("sequences.terms_generated"),
        "sequences.terms_needed": count("sequences.terms_needed"),
        "sequences.generated_per_needed":
            ratio("sequences.terms_generated", "sequences.terms_needed"),
        "distribution.empirical_cdf.calls": calls("distribution.empirical_cdf"),
        "distribution.empirical_cdf.self_s": self_s("distribution.empirical_cdf"),
        "distribution.continuity_grid.self_s":
            self_s("distribution.continuity_grid"),
        "subsequence.family_checkpoints": count("subsequence.family_checkpoints"),
        "reporting.write.self_s": layer_self_s("reporting"),
        "reporting.bytes_written": count("reporting.bytes_written", "bytes"),
        "reporting.identical_files":
            (statistics.median(c.identical for c in traced), "count"),
        "cli.parse_experiment_spec.self_s": self_s("cli.parse_experiment_spec"),
        "cli.resolve_kappa_family.total_s": total_s("cli.resolve_kappa_family"),
        "process.cpu_s": (statistics.median(c.cpu_s for c in plain), "s"),
        "trace.overhead_s":
            (statistics.median(c.wall_s for c in traced) - plain_wall, "s"),
        "trace.unaccounted_s": (med(lambda s: s["unaccounted_s"]), "s"),
    }


def prepare(name: str, vseed: int, workdir: str) -> tuple[str, str, list[str]]:
    """Write the workload's spec; returns (basename, output dir, CLI args)."""
    spec = workloads.make_spec(name, vseed)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out_dir = os.path.join(workdir, "out")
    return (spec["outputs"]["basename"], out_dir,
            workloads.cli_args(name, spec_path, out_dir))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict, workdir: str) -> dict:
    """Measure one workload for about ``seconds``; returns the run's result."""
    vseed = workloads.variant_seed(seed)
    basename, out_dir, cli_args = prepare(name, vseed, workdir)
    reference = check.load_reference(name, vseed)
    digests = check.load_digests().get(name, {}).get(str(vseed), {})

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    setups = []
    for _ in range(SETUP_CHILDREN):
        c = spawn(workdir, [], False, env, deadline)
        if c.code != 0:
            raise SetupFailed(c.log)
        setups.append(c.setup_s)

    plain: list[Child] = []
    traced: list[Child] = []
    while True:
        tracing = trace and len(traced) < len(plain)
        shutil.rmtree(out_dir, ignore_errors=True)
        c = spawn(workdir, cli_args, tracing, env, deadline)
        outputs = check.read_outputs(out_dir, basename)
        c.problems = check.check_run(c.code, outputs, basename, reference)
        if c.code != 0:
            c.problems.append("child log: " + c.log.strip()[-500:])
        c.identical = check.identical_files(outputs, digests)
        (traced if tracing else plain).append(c)
        elapsed = time.monotonic() - start
        typical = statistics.median(x.wall_s for x in plain + traced)
        if (len(plain) >= MIN_CHILDREN and (not trace or len(traced) >= MIN_TRACED)
                and elapsed + typical > seconds):
            break
        if time.monotonic() + 2 * typical > deadline:
            break

    children = plain + traced
    failed = sum(1 for c in children if c.problems)
    setups += [c.setup_s for c in plain if c.setup_s is not None]
    samples = {
        "wall_s": [c.wall_s for c in plain],
        "setup_s": setups,
        "peak_rss_mb": [c.rss_mb for c in plain],
    }
    ok_frac = (len(children) - failed) / len(children)
    if trace:
        metrics = per_layer(traced, plain)
    else:
        metrics = {m: (statistics.median(samples[m]), unit)
                   for m, unit in END_TO_END if m in samples}
        metrics["ok_frac"] = (ok_frac, "fraction")

    print(f"# workload {name}: --seed {seed} -> workload seed {vseed}, "
          f"{len(plain)} untraced + {len(traced)} traced children, "
          f"{failed} failed, {time.monotonic() - start:.1f} s; "
          f"computed working set {workloads.working_set_bytes(name) / 1e6:.1f} MB")
    for m, values in samples.items():
        q1, q2, q3 = quartiles(values)
        unit = dict(END_TO_END)[m]
        print(f"  {name:14s} {m:12s} median {q2:10.4f} {unit:8s} "
              f"n={len(values):<3d} q1 {q1:.4f} q3 {q3:.4f}")
    print(f"  {name:14s} {'ok_frac':12s} {ok_frac:17.4f} fraction n={len(children)}")
    if trace:
        for m, (value, unit) in metrics.items():
            print(f"  {name:14s} {m:46s} {value:14.6g} {unit}")
        last = traced[-1].sidecar.get("trace", EMPTY_TRACE)
        if last["absent"] or last["unavailable"]:
            print(f"  absent spans {last['absent']}, "
                  f"unavailable counts {last['unavailable']}")
    for c in children:
        for p in c.problems:
            print(f"  FAILED {name} seed {vseed}: {p}", file=sys.stderr)
    return {"attempted": len(children), "failed": failed, "metrics": metrics,
            "numpy": children[0].sidecar.get("numpy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "statindep", "cli.py")):
        print(f"error: no statindep package under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    env = child_env()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), env, workdir)
    except SetupFailed as exc:
        print(f"error: the statindep CLI does not import:\n{exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it

    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": next(iter(results.values()))["numpy"],
        **cache_sizes(),
    }
    print(f"# environment {json.dumps(environment)}")
    metrics = {}
    for name, r in results.items():
        prefix = f"{name}/" if len(results) > 1 else ""
        for m, (value, unit) in r["metrics"].items():
            metrics[prefix + m] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

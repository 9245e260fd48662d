"""Batch command-line frontend.

Subcommands:

* ``generate``      write the first N terms of one sequence, one value per line
* ``distribution``  empirical CDF tables and averaged-integral checks
* ``independence``  schedule test + rectangle tests + agreement verdict
* ``extract``       stabilizing checkpoint extraction and measurability reports

Experiment descriptions are JSON files (see ``parse_experiment_spec``); all
outputs are deterministic given the same spec, seed, and depth.  Exit codes:
0 = completed with verdict agreement, 2 = completed but the two independence
notions disagreed (a counterexample record is written), 1 = operational
error (bad spec, unreadable file, failed extraction, usage mistake), 141 =
standard output closed by its reader (128 + SIGPIPE), all files written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .distribution import StepCDF, continuity_grid, empirical_cdf, \
    stieltjes, PiecewiseLinear
from .density import sorted_unique
from .errors import SpecError, StatIndepError
from .independence import FunctionBattery, NamedFunction, _multilinear, \
    check_member_name, default_battery, equivalence_harness
from .reporting import _replacing, fmt_floats, write_csv, write_json
from .selection import DEFAULT_MIN_POOL, DEFAULT_TOL, DEFAULT_WINDOW, \
    KAPPA_FAMILY, MIN_BASE_DEPTH, Extraction, _measurability, _pool_counts, \
    helly_extract, kappa_family_builder, kappa_member
from .sequences import BoundedSequence, Interval, MaterializedSequence, \
    _check_keys, _fail, _norm_float, _norm_int, \
    from_spec as sequence_from_spec, normalize_spec
from .subsequence import SubsequenceIndex

BUILTIN_BATTERY = default_battery().names
DEFAULT_SCHEDULE = (100, 1000, 10000, 100000)
DEFAULT_TOLERANCES = {"tol": DEFAULT_TOL, "window": DEFAULT_WINDOW,
                      "atom_tol": 0.001}


def _norm_finite(value, path: str) -> float:
    x = _norm_float(value, path)
    if not math.isfinite(x):
        _fail(path, f"must be finite, got {x}")
    return x


def _norm_increasing(values, path: str, kind) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        _fail(path, "expected a nonempty array")
    out = [kind(v, f"{path}[{i}]") for i, v in enumerate(values)]
    if any(x >= y for x, y in zip(out, out[1:])):
        _fail(path, f"entries must be strictly increasing, got {out}")
    return out


def _norm_battery_entry(entry, path: str):
    if isinstance(entry, str):
        if entry not in BUILTIN_BATTERY:
            _fail(path, f"unknown integrand {entry!r}; built-ins: "
                        f"{', '.join(BUILTIN_BATTERY)}")
        return entry
    if not isinstance(entry, dict):
        _fail(path, "expected a built-in name or a piecewise-linear object")
    _check_keys(entry, path, ("name", "knots", "values"))
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        _fail(f"{path}.name", "expected a nonempty string")
    try:
        check_member_name(name)
    except ValueError as err:
        _fail(f"{path}.name", str(err))
    knots = _norm_increasing(entry.get("knots"), f"{path}.knots", _norm_finite)
    values = entry.get("values")
    if not isinstance(values, (list, tuple)) or len(values) != len(knots):
        _fail(f"{path}.values", "expected an array matching knots")
    return {"name": name, "knots": knots,
            "values": [_norm_finite(v, f"{path}.values[{i}]")
                       for i, v in enumerate(values)]}


def parse_experiment_spec(obj) -> dict:
    """Validate and normalize a JSON experiment description.

    The normalized spec is a JSON object with the keys ``sequences``,
    ``battery``, ``schedule``, ``kappa``, ``grid``, ``tolerances``,
    ``outputs`` and ``seed``, in that order and with defaults filled in,
    then ``pool`` when the spec gives one; arrays are lists.  Each sequence
    is normalized by :func:`statindep.sequences.normalize_spec` and nothing
    is built here: a constructor's range checks (low < high, values inside
    the interval, readable files) run in :func:`build_sequences`.  Errors
    cite the JSON path of the offending field.  Parsing is idempotent, also
    through ``json.dumps``: parse(parse(obj)) == parse(obj).
    """
    if not isinstance(obj, dict):
        raise SpecError(f"spec: expected a JSON object, got {type(obj).__name__}")
    _check_keys(obj, "", ("sequences", "battery", "schedule", "kappa", "grid",
                          "tolerances", "outputs", "seed", "pool"))

    raw_seqs = obj.get("sequences")
    if not isinstance(raw_seqs, list) or not raw_seqs:
        _fail("sequences", "expected a nonempty array of sequence specs")
    sequences = [normalize_spec(s, f"sequences[{i}]")
                 for i, s in enumerate(raw_seqs)]

    raw_battery = obj.get("battery", list(BUILTIN_BATTERY))
    if not isinstance(raw_battery, list) or not raw_battery:
        _fail("battery", "expected a nonempty array")
    battery = [_norm_battery_entry(e, f"battery[{i}]")
               for i, e in enumerate(raw_battery)]
    first = {}
    for i, entry in enumerate(battery):
        name = entry if isinstance(entry, str) else entry["name"]
        if first.setdefault(name, i) != i:
            _fail(f"battery[{i}]" if isinstance(entry, str)
                  else f"battery[{i}].name",
                  f"battery names must be unique, {name!r} is also "
                  f"battery[{first[name]}]")

    schedule = _norm_increasing(obj.get("schedule", list(DEFAULT_SCHEDULE)),
                                "schedule", lambda v, p: _norm_int(v, p, 1))

    kappa = obj.get("kappa", "default")
    if isinstance(kappa, str):
        allowed = ("default", "extract") + KAPPA_FAMILY
        if kappa not in allowed:
            _fail("kappa", f"expected one of {', '.join(allowed)}, or an "
                           f"explicit checkpoint array; got {kappa!r}")
    else:
        kappa = _norm_increasing(kappa, "kappa",
                                 lambda v, p: _norm_int(v, p, 1))

    grid = obj.get("grid", {"deciles": True})
    if isinstance(grid, dict):
        if grid != {"deciles": True}:
            _fail("grid", 'expected {"deciles": true}, a point array, or a count')
        grid = {"deciles": True}
    elif isinstance(grid, list):
        grid = _norm_increasing(grid, "grid", _norm_finite)
    else:
        grid = _norm_int(grid, "grid", 1)

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in _check_keys(obj.get("tolerances", {}), "tolerances",
                                  DEFAULT_TOLERANCES,
                                  "unknown tolerance").items():
        if key == "window":
            tolerances[key] = _norm_int(value, f"tolerances.{key}", 2)
        else:
            v = _norm_float(value, f"tolerances.{key}")
            if not 0 < v < float("inf"):
                _fail(f"tolerances.{key}",
                      f"must be positive and finite, got {v}")
            tolerances[key] = v

    outputs = {"basename": "report",
               **_check_keys(obj.get("outputs", {}), "outputs", ("basename",),
                             "unknown output option")}
    basename = outputs["basename"]
    if not isinstance(basename, str) or not basename or "/" in basename \
            or "\\" in basename:
        _fail("outputs.basename", f"expected a plain file stem, got {basename!r}")

    pool = {}
    if "pool" in obj:
        pool["pool"] = _norm_increasing(obj["pool"], "pool",
                                        lambda v, p: _norm_int(v, p, 1))
        if len(pool["pool"]) < DEFAULT_MIN_POOL:
            _fail("pool", f"needs at least {DEFAULT_MIN_POOL} checkpoints, "
                          f"got {len(pool['pool'])}")

    return {"sequences": sequences, "battery": battery, "schedule": schedule,
            "kappa": kappa, "grid": grid, "tolerances": tolerances,
            "outputs": outputs, "seed": _norm_seed(obj.get("seed", 0), "seed"),
            **pool}


def _norm_seed(value, path: str) -> int:
    seed = _norm_int(value, path, 0)
    if seed >= 2 ** 64:
        _fail(path, f"must fit in 64 bits, got {seed}")
    return seed


def build_sequences(spec: dict) -> list[BoundedSequence]:
    """Build the spec's sequences, each once, through ``from_spec``."""
    return [sequence_from_spec(s, where=f"sequences[{i}]")
            for i, s in enumerate(spec["sequences"])]


def build_battery(spec: dict, interval: Interval) -> FunctionBattery:
    base = default_battery(interval)
    members = []
    for entry in spec["battery"]:
        if isinstance(entry, str):
            members.append(base.member(entry))
        else:
            members.append(NamedFunction(
                entry["name"],
                PiecewiseLinear(tuple(entry["knots"]), tuple(entry["values"]))))
    return FunctionBattery(tuple(members))


def resolve_grid(spec: dict, interval: Interval,
                 cdfs: Callable[[], list[StepCDF]] | None = None):
    """The spec's grid points on ``interval``, or the spec's count when
    ``cdfs`` is None (the harness places a count grid per kappa).  A count
    grid is placed here only when ``cdfs`` is given: it is called, only
    then, for the CDFs to avoid.
    """
    grid = spec["grid"]
    if isinstance(grid, list):
        points = np.asarray(grid, dtype=np.float64)
        if points[0] <= interval.a or points[-1] >= interval.b:
            raise SpecError(
                f"grid: points must lie strictly inside "
                f"({interval.a}, {interval.b})")
        return points
    if isinstance(grid, dict):
        ks = np.arange(1, 10, dtype=np.float64)
        return interval.a + interval.length * ks / 10.0
    if cdfs is None:
        return grid
    return continuity_grid(cdfs(), grid,
                           atom_tol=spec["tolerances"]["atom_tol"],
                           interval=interval)


def _derived_pool(depth: int) -> SubsequenceIndex:
    """Geometric checkpoint pool, eight per octave, up to depth."""
    if depth < 2:
        raise SpecError(f"--depth {depth} too shallow to derive a pool")
    js = np.arange(0, int(np.floor(8 * np.log2(depth))) + 1)
    ks = sorted_unique(np.round(np.exp2(js / 8.0)).astype(np.int64))
    ks = ks[(ks >= 1) & (ks <= depth)]
    return SubsequenceIndex(ks, rule="geometric, eight per octave",
                            name="geometric")


def resolve_pool(spec: dict, depth: int) -> SubsequenceIndex:
    if "pool" in spec:
        return SubsequenceIndex(np.asarray(spec["pool"], dtype=np.int64),
                                name="pool")
    pool = _derived_pool(depth)
    if len(pool) < DEFAULT_MIN_POOL:
        raise SpecError(
            f"derived pool has only {len(pool)} checkpoints at depth {depth}; "
            f"raise --depth to at least 2048 or supply an explicit pool")
    return pool


def resolve_kappa_family(spec: dict, depth: int,
                         seed: int) -> list[SubsequenceIndex | Extraction]:
    """The spec's kappa family at ``depth``; ``"extract"`` gives one
    :class:`Extraction` from :func:`resolve_pool`, which the equivalence
    harness extracts from the counts of its own walk.

    ``"default"`` and a named member are built as their last ``window``
    checkpoints only (``last`` of :func:`kappa_member`), all that the
    harness reads of an index, so they take O(window) memory at any
    depth; an explicit checkpoint list is kept whole.
    """
    kappa, tolerances = spec["kappa"], spec["tolerances"]
    if isinstance(kappa, list):
        return [SubsequenceIndex(np.asarray(kappa, dtype=np.int64),
                                 name="explicit")]
    window = tolerances["window"]
    if kappa != "extract" and depth < MIN_BASE_DEPTH:
        raise SpecError(
            f"kappa {kappa!r} needs --depth >= {MIN_BASE_DEPTH}, got {depth}; "
            f"raise --depth or supply explicit checkpoints")
    if kappa == "default":
        return kappa_family_builder(depth, seed=seed, last=window)
    if kappa in KAPPA_FAMILY:
        return [kappa_member(kappa, depth, seed=seed, last=window)]
    return [Extraction(resolve_pool(spec, depth), tol=tolerances["tol"],
                       window=window)]


def _load_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from None


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _single_sequence(spec: dict, command: str) -> BoundedSequence:
    if len(spec["sequences"]) != 1:
        raise SpecError(f"sequences: {command} works on exactly one sequence, "
                        f"got {len(spec['sequences'])}")
    return build_sequences(spec)[0]


def cmd_generate(args) -> int:
    obj = _load_spec_file(args.spec)
    if isinstance(obj, dict) and "kind" in obj:
        seq = sequence_from_spec(obj, where="sequence")
        basename = "sequence"
    else:
        spec = parse_experiment_spec(obj)
        seq = _single_sequence(spec, "generate")
        basename = spec["outputs"]["basename"]
    n = args.depth
    path = _outdir(args) / f"{basename}_values.txt"
    # a chunk at a time, each in one call; a failure leaves no file
    with _replacing(path) as fh:
        for chunk in seq.chunks(0, n):
            fh.write(fmt_floats(chunk) + "\n")
    print(f"wrote {path} ({n} values of {seq.label})")
    return 0


def cmd_distribution(args) -> int:
    spec = parse_experiment_spec(_load_spec_file(args.spec))
    seq = _single_sequence(spec, "distribution")
    battery = build_battery(spec, seq.interval)
    deepest = spec["schedule"][-1]
    # One prefix for every CDF and for the one kernel walk of every mean:
    # the products of single-member tuples are the members' means.
    seq = MaterializedSequence(seq, deepest)
    values = seq.prefix(deepest)
    deepest_cdf = StepCDF.from_values(values, seq.interval)
    grid = resolve_grid(spec, seq.interval, cdfs=lambda: [deepest_cdf])
    means = _multilinear([seq], [battery.members], spec["schedule"])[1]

    cdf_tables = []
    weyl_tables = []
    for j, n in enumerate(spec["schedule"]):
        cdf = deepest_cdf if n == deepest \
            else StepCDF.from_values(values[:n], seq.interval)
        cdf_tables.append([np.full(len(grid), n), grid, cdf.eval(grid)])
        integrals = np.array([stieltjes(member, cdf) for member in battery])
        weyl_tables.append([np.full(len(battery), n), battery.names,
                            means[:, j], integrals,
                            np.abs(means[:, j] - integrals)])

    out = _outdir(args)
    base = spec["outputs"]["basename"]
    write_json(out / f"{base}_cdf.json", deepest_cdf.to_json_obj())
    write_csv(out / f"{base}_cdf.csv", ["N", "x", "F"], *cdf_tables)
    write_csv(out / f"{base}_weyl.csv",
              ["N", "function", "mean", "stieltjes", "abs_diff"],
              *weyl_tables)
    print(f"wrote {base}_cdf.json, {base}_cdf.csv, {base}_weyl.csv in {out}")
    return 0


def cmd_independence(args) -> int:
    spec = parse_experiment_spec(_load_spec_file(args.spec))
    if len(spec["sequences"]) < 2:
        raise SpecError(
            f"sequences: independence needs at least two sequences, "
            f"got {len(spec['sequences'])}")
    seqs = build_sequences(spec)
    interval = seqs[0].interval
    battery = build_battery(spec, interval)
    seed = args.seed if args.seed is not None else spec["seed"]
    family = resolve_kappa_family(spec, args.depth, seed)

    tol = spec["tolerances"]["tol"]
    report = equivalence_harness(
        seqs, battery, family, spec["schedule"], tol,
        grid=resolve_grid(spec, interval),
        atom_tol=spec["tolerances"]["atom_tol"],
        window=spec["tolerances"]["window"])

    out = _outdir(args)
    base = spec["outputs"]["basename"]
    write_json(out / f"{base}_report.json", report.to_json_obj())
    write_csv(out / f"{base}_gaps.csv",
              ["N", "tuple label", "delta", "product", "gap"],
              report.statind.gap_columns())
    corner_cols = [f"corner_{i + 1}" for i in range(len(seqs))]
    write_csv(out / f"{base}_rectangles.csv",
              ["kappa", *corner_cols, "density", "product", "residual"],
              *[o.report.columns() for o in report.outcomes if o.tested])

    print(f"statind verdict: {report.statind.verdict} "
          f"(max terminal |gap| = {report.statind.max_terminal_gap:.3g})")
    for outcome in report.outcomes:
        if outcome.tested:
            print(f"kappa {outcome.kappa_label}: {outcome.report.verdict} "
                  f"(max |residual| = {outcome.report.max_abs_residual:.3g})")
        else:
            print(f"kappa {outcome.kappa_label}: skipped ({outcome.skip_reason})")
    if report.agreement:
        print("verdicts agree")
        return 0
    print("verdicts disagree; counterexample recorded in the JSON report")
    return 2


def cmd_extract(args) -> int:
    spec = parse_experiment_spec(_load_spec_file(args.spec))
    if spec["kappa"] != "extract":
        raise SpecError('kappa: extract requires "kappa": "extract"')
    seqs = build_sequences(spec)
    tol, window = spec["tolerances"]["tol"], spec["tolerances"]["window"]
    pool = resolve_pool(spec, args.depth)
    # Each report's limit CDF sorts a whole prefix along kappa, a subset of
    # the pool: each sequence is generated once, up to the pool's deepest
    # checkpoint, for the CDFs along the pool, the counts and those.
    seqs = [MaterializedSequence(s, pool.deepest) for s in seqs]
    grid = resolve_grid(spec, seqs[0].interval,
                        cdfs=lambda: [empirical_cdf(s, pool) for s in seqs])
    # One walk counts the pool; the extraction and each measurability
    # report read their rows, as kappa's checkpoints are pool checkpoints.
    counts = _pool_counts(seqs, pool, sorted_unique(grid))
    kappa = helly_extract(seqs, pool, grid, tol=tol, window=window,
                          counts=counts)
    rows = np.searchsorted(pool.checkpoints, kappa.checkpoints)
    reports = [_measurability(s, kappa, grid, c[rows], tol, window)
               for s, c in zip(seqs, counts)]

    out = _outdir(args)
    base = spec["outputs"]["basename"]
    write_json(out / f"{base}_kappa.json", kappa.to_json_obj())
    write_json(out / f"{base}_measurability.json",
               [r.to_json_obj() for r in reports])
    print(f"extracted {len(kappa)} checkpoints from a pool of {len(pool)} "
          f"(deepest {kappa.deepest})")
    for r in reports:
        print(f"sequence {r.sequence_label}: measurable={r.measurable}, "
              f"max oscillation {float(np.max(r.oscillations)):.3g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statindep",
        description="Independence diagnostics for bounded real sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
            ("generate", "write sequence values to a file", cmd_generate),
            ("distribution", "empirical CDF and averaged-integral tables",
             cmd_distribution),
            ("independence", "run both independence tests and compare "
                             "verdicts", cmd_independence),
            ("extract", "extract a stabilizing checkpoint subsequence",
             cmd_extract)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True,
                       help="path to a JSON experiment description")
        p.add_argument("--out", default=".",
                       help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the spec's seed for thinned checkpoints")
        p.add_argument("--depth", type=int, default=10_000,
                       help="base depth: values for generate, deepest "
                            "checkpoint otherwise")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for disagreement.
        return 0 if exc.code in (0, None) else 1
    try:
        if _norm_int(args.depth, "--depth", 1) >= 2 ** 63:
            _fail("--depth", f"must be < 2^63, got {args.depth}")
        if args.seed is not None:
            _norm_seed(args.seed, "--seed")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader stopped early: exit as SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (StatIndepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The streamed grid counting core against brute-force per-n references.

Every count the rectangle test, measurability detection and extraction use
comes from ``density.Tally``, filled by ``grid_counts``, ``density.fill`` or
the schedule test's walk.  These tests rebuild each figure with plain
per-n loops (or with the mask-and-cumsum densities of ``_brute``) and
demand exact equality, on grids that hit sequence values exactly and on
unsorted and duplicate grids.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import brute_density, brute_grid_counts
import statindep
import statindep.density as density
import statindep.independence as independence
from statindep import (
    UNIT,
    CheckpointError,
    ExtractionError,
    FileSequence,
    IntervalError,
    KroneckerSequence,
    PeriodicSequence,
    SequenceExhausted,
    SubsequenceIndex,
    VanDerCorputSequence,
    cdf_eval,
    default_battery,
    detect_measurable,
    empirical_cdf,
    equivalence_harness,
    helly_extract,
    kappa_family_builder,
    kappa_independence_test,
    make_block,
)
from statindep.density import grid_counts
from statindep.selection import _best_band
from statindep.sequences import _CHUNK

# Grid points drawn from here coincide with values of the periodic and
# dyadic van der Corput sequences below, so the strict "<" is exercised.
DYADIC = [k / 16 for k in range(17)]
PERIODIC_VALUES = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 0.125)


def make_sequence(kind: int, shift: int):
    if kind == 0:
        return VanDerCorputSequence(2)
    if kind == 1:
        values = PERIODIC_VALUES[shift:] + PERIODIC_VALUES[:shift]
        return PeriodicSequence(values)
    if kind == 2:
        return VanDerCorputSequence(3)
    return KroneckerSequence(("sqrt2-1", "sqrt3-1", "golden")[shift % 3])


sequences = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=3
).map(lambda specs: [make_sequence(k, s) for k, s in specs])

# Unsorted, with repeats, and with the interval endpoints 0 and 1.
grids = st.lists(st.sampled_from(DYADIC + [0.3, 0.7]), min_size=1,
                 max_size=4).map(np.asarray)


@st.composite
def checkpoint_sets(draw, max_n=500):
    n = draw(st.integers(1, max_n))
    picks = draw(st.sets(st.integers(1, n), min_size=0, max_size=40))
    return SubsequenceIndex(sorted(picks | {n}))


def brute_counts(seqs, points, checkpoints):
    """c[i, j_1..j_m] = #{n <= k_i : v_r(n) < points[j_r] for all r}, per n;
    the extra index j_r = len(points) leaves sequence r unbounded."""
    depth = int(checkpoints[-1])
    values = [s.prefix(depth).tolist() for s in seqs]
    bounds = list(points) + [math.inf]
    out = np.zeros((len(checkpoints),) + (len(bounds),) * len(seqs),
                   dtype=np.int64)
    for corner in itertools.product(range(len(bounds)), repeat=len(seqs)):
        count, i = 0, 0
        for n in range(1, depth + 1):
            if all(v[n - 1] < bounds[j] for v, j in zip(values, corner)):
                count += 1
            if n == checkpoints[i]:
                out[(i,) + corner] = count
                i += 1
    return out


@settings(max_examples=80, deadline=None)
@given(sequences, grids, checkpoint_sets())
def test_grid_counts_match_per_n_loop(seqs, grid, kappa):
    points = np.unique(grid)
    got = grid_counts(seqs, points, kappa.checkpoints)
    want = brute_counts(seqs, points.tolist(), kappa.checkpoints.tolist())
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(sequences, grids, checkpoint_sets())
def test_rectangle_densities_match_per_n_loop(seqs, grid, kappa):
    rep = kappa_independence_test(seqs, kappa, grid, tol=0.05, window=1,
                                  measurability_tol=1.0)
    depth = kappa.deepest
    values = [s.prefix(depth).tolist() for s in seqs]
    cdfs = [empirical_cdf(s, kappa) for s in seqs]
    corners = list(itertools.product([float(x) for x in grid],
                                     repeat=len(seqs)))
    assert [tuple(c) for c in rep.corners.tolist()] == corners
    for i, corner in enumerate(corners):
        count = sum(1 for n in range(depth)
                    if all(v[n] < x for v, x in zip(values, corner)))
        assert rep.densities[i] == count / depth
        assert rep.products[i] == float(np.prod(
            [cdf_eval(F, x) for F, x in zip(cdfs, corner)]))


@settings(max_examples=60, deadline=None)
@given(sequences, grids, checkpoint_sets(), st.integers(1, 4))
def test_measurability_ratios_match_kappa_density(seqs, grid, kappa, window):
    seq = seqs[0]
    window = min(window, len(kappa))
    rep = detect_measurable(seq, kappa, grid, tol=0.05, window=window)
    assert rep.ratios.shape == (len(kappa), grid.size)
    assert np.array_equal(rep.checkpoints, kappa.checkpoints)
    assert np.array_equal(rep.grid, grid)
    oscillations = []
    for j, x in enumerate(grid):
        ratios, oscillation = brute_density(seq, float(x), kappa, window)
        assert rep.ratios[:, j].tolist() == ratios
        assert rep.oscillations[j] == oscillation
        oscillations.append(oscillation)
    assert rep.measurable == (max(oscillations) <= 0.05)


def cumsum_extract(seqs, pool, grid, tol, window):
    """The per-pass indicator-and-cumsum extraction loop, kept as reference."""
    surviving = np.asarray(pool.checkpoints, dtype=np.int64)
    for seq in seqs:
        for x in np.sort(grid):
            indicator = seq.prefix(int(surviving[-1])) < x
            csum = np.cumsum(indicator, dtype=np.int64)
            ratios = csum[surviving - 1] / surviving
            keep = _best_band(ratios, tol)
            if int(np.count_nonzero(keep)) < window:
                raise ExtractionError(f"{seq.label} {float(x):g}")
            surviving = surviving[keep]
    return surviving


@settings(max_examples=60, deadline=None)
@given(sequences, grids, checkpoint_sets(), st.sampled_from([1e-9, 0.02, 0.2]),
       st.integers(1, 3))
def test_extraction_matches_cumsum_loop(seqs, grid, pool, tol, window):
    try:
        want = cumsum_extract(seqs, pool, grid, tol, window)
    except ExtractionError as exc:
        label, point = str(exc).rsplit(" ", 1)
        with pytest.raises(ExtractionError) as info:
            helly_extract(seqs, pool, grid, tol=tol, window=window, min_pool=1)
        assert f"sequence {label}, grid point {point}:" in str(info.value)
        return
    got = helly_extract(seqs, pool, grid, tol=tol, window=window, min_pool=1)
    assert np.array_equal(got.checkpoints, want)


def test_extraction_reads_only_surviving_depth():
    # The first sequence's pass keeps checkpoints 1..60 of a 100-deep pool;
    # the second sequence holds only 60 values and must still be enough.
    first = FileSequence(np.repeat([0.0, 1.0], [60, 40]), UNIT, "first.txt")
    short = FileSequence(np.linspace(0.0, 1.0, 60), UNIT, "short.txt")
    pool = SubsequenceIndex(range(1, 101))
    grid = np.array([0.5])
    want = cumsum_extract([first, short], pool, grid, 0.01, 5)
    got = helly_extract([first, short], pool, grid, tol=0.01, window=5,
                        min_pool=1)
    assert np.array_equal(got.checkpoints, want)
    too_short = FileSequence(np.linspace(0.0, 1.0, 59), UNIT, "59.txt")
    with pytest.raises(SequenceExhausted, match="prefix of length 60"):
        cumsum_extract([first, too_short], pool, grid, 0.01, 5)
    with pytest.raises(SequenceExhausted, match="prefix of length 60"):
        helly_extract([first, too_short], pool, grid, tol=0.01, window=5,
                      min_pool=1)


def test_extraction_generates_each_prefix_once(monkeypatch):
    # One walk counts every sequence at the pool checkpoints it reaches:
    # each index is generated once, a chunk at a time, even though the
    # second sequence's passes need only checkpoints 1..60.
    first = FileSequence(np.repeat([0.0, 1.0], [60, 40]), UNIT, "first.txt")
    kron = KroneckerSequence("sqrt2-1")
    generated = []
    real = kron._eval_batch

    def counting(ns):
        generated.append(ns.tolist())
        return real(ns)

    monkeypatch.setattr(kron, "_eval_batch", counting)
    pool = SubsequenceIndex(range(1, 101))
    got = helly_extract([first, kron], pool, np.array([0.5]), tol=0.01,
                        window=5, min_pool=1)
    assert got.deepest <= 60
    assert generated == [list(range(1, pool.deepest + 1))]


def test_arity_five_table_matches_per_n_loop():
    seqs = [KroneckerSequence(a) for a in ("sqrt2-1", "sqrt3-1", "golden")] \
        + [VanDerCorputSequence(2), VanDerCorputSequence(3)]
    assert len(seqs) == independence.MAX_TUPLE_ARITY
    points = np.array([0.25, 0.5, 0.75])
    kappa = SubsequenceIndex([64, 200])
    got = grid_counts(seqs, points, kappa.checkpoints)
    assert got.shape == (2,) + (4,) * 5
    assert np.array_equal(got, brute_counts(seqs, points.tolist(), [64, 200]))
    assert got[(1,) + (3,) * 5] == 200


def test_oversized_table_rejected():
    # Decile corners at the largest arity fit; far larger tables are refused
    # before anything is allocated.
    assert (9 + 1) ** independence.MAX_TUPLE_ARITY <= density.MAX_TABLE_CELLS
    seqs = [VanDerCorputSequence(2)] * 3
    generated = []
    seqs[0]._eval_batch = lambda ns: generated.append(ns)
    with pytest.raises(ValueError, match="exceeds"):
        grid_counts(seqs, np.linspace(0.0, 1.0, 1024), np.array([2, 4]))
    assert generated == []


@st.composite
def slice_checkpoints(draw):
    """Checkpoints around the counting core's slice edges: some of 8191,
    8192, 8193 and 16385, a dense run inside one slice, scattered picks,
    and a deepest checkpoint one segment of several slices past them."""
    edges = draw(st.sets(st.sampled_from([8191, 8192, 8193, 16385]),
                         min_size=1))
    start, step = draw(st.integers(1, 2 * _CHUNK)), draw(st.integers(1, 3))
    run = range(start, start + step * draw(st.integers(1, 40)), step)
    picks = draw(st.sets(st.integers(1, 2 * _CHUNK + 200), max_size=10))
    deepest = draw(st.integers(5 * _CHUNK, 6 * _CHUNK))
    return np.array(sorted(edges | set(run) | picks | {deepest}))


@settings(max_examples=40, deadline=None)
@given(sequences, grids, slice_checkpoints())
def test_streamed_counts_match_brute_force(seqs, grid, checkpoints):
    points = np.unique(grid)
    got = grid_counts(seqs, points, checkpoints)
    assert got.dtype == np.int64
    assert np.array_equal(got, brute_grid_counts(seqs, points, checkpoints))


@settings(max_examples=40, deadline=None)
@given(sequences, grids, checkpoint_sets(), st.lists(st.integers(1, 300),
                                                     min_size=1, max_size=8))
def test_tally_fed_in_any_slices_matches_per_n_loop(seqs, grid, kappa, sizes):
    # a Tally's counts do not depend on how the walk is sliced
    points = np.unique(grid)
    tally = density.Tally(points, kappa.checkpoints, range(len(seqs)))
    values = [s.prefix(kappa.deepest) for s in seqs]
    lo, k = 0, 0
    while lo < kappa.deepest:
        hi = lo + sizes[k % len(sizes)]
        tally.add(lo, [v[lo:hi] for v in values])
        lo, k = hi, k + 1
    want = brute_counts(seqs, points.tolist(), kappa.checkpoints.tolist())
    assert np.array_equal(tally.table(), want)


def _counting_peak(fn, n):
    """Peak traced bytes of fn(seqs, n), generation of the values included."""
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    fn(seqs, n)  # first-call allocations inside numpy are not counted
    tracemalloc.start()
    try:
        fn(seqs, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_kappa(n):
    # 64 spread checkpoints and a dense run: the same count at every n
    spread = np.linspace(1, n, 64).astype(np.int64)
    return SubsequenceIndex(np.union1d(spread, np.arange(4000, 4100)))


PEAK_GRID = np.linspace(0.1, 0.9, 9)
COUNTING_CALLS = {
    "grid_counts": lambda seqs, n: grid_counts(
        seqs, PEAK_GRID, _peak_kappa(n).checkpoints),
    "detect_measurable": lambda seqs, n: detect_measurable(
        seqs[1], _peak_kappa(n), PEAK_GRID),
    "helly_extract": lambda seqs, n: helly_extract(
        seqs, _peak_kappa(n), PEAK_GRID, tol=0.5),
    "equivalence_harness": lambda seqs, n: equivalence_harness(
        seqs, default_battery(), [_peak_kappa(n)], [n], 0.05,
        grid=PEAK_GRID),
}


@pytest.mark.parametrize("name", sorted(COUNTING_CALLS))
def test_counting_peak_memory_is_bounded(name):
    # Counting generates and reads the sequences a chunk at a time and
    # holds no value, code, joint or segment array of length N, so the
    # peak is a few chunks plus the table (the harness's includes the
    # schedule test's blocks) and does not grow with N.
    small = _counting_peak(COUNTING_CALLS[name], 1 << 18)
    large = _counting_peak(COUNTING_CALLS[name], 1 << 20)
    assert large <= small + (64 << 10), (small, large)
    assert large <= 2 << 20, large


class TestGridCountsInputErrors:
    @pytest.mark.parametrize("checkpoints", [[], [0, 5], [-3], [5, 5],
                                             [2, 9, 4], [[1, 2]]])
    def test_checkpoints_rejected_as_by_subsequence_index(self, checkpoints):
        with pytest.raises(CheckpointError) as want:
            SubsequenceIndex(checkpoints)
        with pytest.raises(CheckpointError) as got:
            grid_counts([VanDerCorputSequence(2)], np.array([0.5]),
                        np.array(checkpoints, dtype=np.int64))
        assert str(got.value) == str(want.value)

    def test_checkpoint_past_finite_sequence(self):
        seq = FileSequence(np.linspace(0.0, 1.0, 10), UNIT, "ten")
        assert grid_counts([seq], np.array([0.5]), [4, 10])[-1, -1] == 10
        with pytest.raises(SequenceExhausted, match="beyond sequence length"):
            grid_counts([VanDerCorputSequence(2), seq], np.array([0.5]),
                        [4, 11])

    @pytest.mark.parametrize("points, bad", [
        ([0.7, 0.2], "point 1 is 0.2"), ([0.2, 0.5, 0.5], "point 2 is 0.5"),
        ([0.1, np.nan, 0.9], "point 1 is nan"), ([np.inf], "point 0 is inf"),
        ([-0.0, 0.0, 0.5], "point 1 is 0.0")])
    def test_points_not_finite_and_increasing_are_named(self, points, bad):
        # counted against unsorted points, every cell would be miscounted
        with pytest.raises(ValueError, match=rf"strictly increasing; {bad}$"):
            grid_counts([KroneckerSequence("sqrt2-1")], np.array(points),
                        np.array([10]))

    def test_no_sequences(self):
        with pytest.raises(ValueError, match="at least one sequence"):
            grid_counts([], np.array([0.5]), [4])


class TestErrorsKept:
    def test_shallow_kappa(self):
        seq = VanDerCorputSequence(2)
        with pytest.raises(CheckpointError, match="need at least window"):
            detect_measurable(seq, SubsequenceIndex([1, 2]), np.array([0.5]))
        with pytest.raises(CheckpointError, match="need at least window"):
            kappa_independence_test([seq], SubsequenceIndex([1, 2]),
                                    np.array([0.5]), 0.05)

    def test_nonpositive_tol(self):
        seq = VanDerCorputSequence(2)
        kappa = SubsequenceIndex(range(1, 11))
        with pytest.raises(ValueError, match="tol must be positive"):
            detect_measurable(seq, kappa, np.array([0.5]), tol=0.0)
        # each tolerance is named: measurability_tol=0.0 raised the text
        # for tol, "tol must be positive, got 0.0"
        for tol, measurability_tol, message in (
                (-1.0, 0.01, "tol must be positive, got -1.0"),
                (0.05, 0.0, "measurability_tol must be positive, got 0.0"),
                (0.05, -1.0, "measurability_tol must be positive, got -1.0")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                kappa_independence_test([seq], kappa, np.array([0.5]), tol,
                                        measurability_tol=measurability_tol)

    @pytest.mark.parametrize("x, message", [
        (1.5, r"grid point 1\.5 outside \[0\.0, 1\.0\]"),
        (-0.5, "grid point -0.5 outside"),
        (np.nan, "grid point nan outside")])
    def test_grid_point_outside_interval(self, x, message):
        seq = VanDerCorputSequence(2)
        kappa = SubsequenceIndex(range(1, 11))
        grid = np.array([0.5, x])
        with pytest.raises(IntervalError, match=message):
            detect_measurable(seq, kappa, grid)
        with pytest.raises(IntervalError, match=message):
            kappa_independence_test([seq], kappa, grid, 0.05)
        with pytest.raises(IntervalError, match=message):
            helly_extract([seq], kappa, grid, min_pool=1)

    def test_extraction_names_pair(self):
        seq = KroneckerSequence("sqrt2-1")
        pool = SubsequenceIndex([2, 3, 4, 5, 6, 7])
        with pytest.raises(ExtractionError,
                           match=r"sequence kronecker\(.*\), grid point 0\.5:"):
            helly_extract([seq], pool, np.array([0.5, 0.5]), tol=1e-9,
                          min_pool=5)

    @pytest.mark.parametrize("window", [0, -3, -200])
    def test_window_below_one(self, window):
        seq = KroneckerSequence("sqrt2-1")
        kappa = SubsequenceIndex(range(1, 101))
        grid = np.array([0.5])
        with pytest.raises(ValueError, match="window must be >= 1"):
            detect_measurable(seq, kappa, grid, window=window)
        with pytest.raises(ValueError, match="window must be >= 1"):
            kappa_independence_test([seq], kappa, grid, 0.05, window=window)
        with pytest.raises(ValueError, match="window must be >= 1"):
            equivalence_harness([seq], default_battery(), [kappa], [100],
                                0.05, window=window)
        with pytest.raises(ValueError, match="window must be >= 1"):
            helly_extract([seq], kappa, grid, window=window, min_pool=1)

    @pytest.mark.parametrize("tol", [0.0, -0.01])
    def test_nonpositive_extraction_tol(self, tol):
        seq = KroneckerSequence("sqrt2-1")
        with pytest.raises(ValueError, match="tol must be positive"):
            helly_extract([seq], SubsequenceIndex(range(1, 101)),
                          np.array([0.5]), tol=tol, min_pool=1)


# The per-n predicate route that grid_counts replaced.
PER_N_PATH = ("SetMembership", "from_predicate", "intersect", "kappa_density",
              "prefix_count", "preimage", "rectangle_count")


def test_public_surface_is_consistent():
    names = statindep.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(statindep, n)] == []
    for name in PER_N_PATH:
        assert name not in names
        assert not any(hasattr(module, name)
                       for module in (statindep, density, independence))
    assert not hasattr(statindep, "DensityEstimate")
    assert not hasattr(density, "DensityEstimate")


def test_harness_counts_once_in_the_schedule_walk(monkeypatch):
    # No counting walk of its own: the schedule test's walk fills one tally
    # per distinct grid, of every sequence jointly, at the union of the
    # members' last-window checkpoints, whose margins are the marginal
    # counts; each (sequence, kappa) pair's measurability is read once.
    tallies, calls = [], []
    real_tally = independence.Tally
    real_measurability = independence._measurability

    def tally(points, checkpoints, members):
        tallies.append((np.asarray(checkpoints).tolist(), tuple(members)))
        return real_tally(points, checkpoints, members)

    def measurability(seq, kappa, *args):
        calls.append((seq.label, kappa.label))
        return real_measurability(seq, kappa, *args)

    def no_walk(*args, **kwargs):
        raise AssertionError("a counting walk of its own")

    monkeypatch.setattr(independence, "Tally", tally)
    monkeypatch.setattr(independence, "_measurability", measurability)
    monkeypatch.setattr(independence, "fill", no_walk)
    monkeypatch.setattr(independence, "kappa_independence_test", no_walk)
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    family = kappa_family_builder(2000)
    rep = equivalence_harness(seqs, default_battery(), family,
                              [100, 1000, 2000], 0.02, window=4)
    rows = np.unique(np.concatenate([k.checkpoints[-4:] for k in family]))
    assert tallies == [(rows.tolist(), (0, 1))]
    assert len(calls) == len(set(calls))
    tested = [o.kappa_label for o in rep.outcomes if o.tested]
    assert tested
    assert {label for _, label in calls} == {k.label for k in family}
    assert all((s.label, label) in calls for s in seqs for label in tested)

"""The grid-binned counting core against brute-force per-n references.

Every count the rectangle test, measurability detection and extraction use
comes from ``grid_counts``.  These tests rebuild each figure with plain
per-n loops (or with the general indicator route of ``kappa_density``) and
demand exact equality, on grids that hit sequence values exactly and on
unsorted and duplicate grids.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statindep.density as density
import statindep.independence as independence
import statindep.selection as selection
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
    kappa_density,
    kappa_family_builder,
    kappa_independence_test,
    preimage,
)
from statindep.density import grid_codes, grid_counts
from statindep.selection import _best_band

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
    values = [s.prefix(depth).values.tolist() for s in seqs]
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
    codes = [grid_codes(s, kappa.deepest, points) for s in seqs]
    got = grid_counts(codes, points.size, kappa.checkpoints)
    want = brute_counts(seqs, points.tolist(), kappa.checkpoints.tolist())
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(sequences, grids, checkpoint_sets())
def test_rectangle_densities_match_per_n_loop(seqs, grid, kappa):
    rep = kappa_independence_test(seqs, kappa, grid, tol=0.05, window=1,
                                  measurability_tol=1.0)
    depth = kappa.deepest
    values = [s.prefix(depth).values.tolist() for s in seqs]
    cdfs = [empirical_cdf(s, kappa) for s in seqs]
    corners = list(itertools.product([float(x) for x in grid],
                                     repeat=len(seqs)))
    assert rep.corners == corners
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
    assert len(rep.traces) == grid.size
    for x, est in zip(grid, rep.traces):
        want = kappa_density(preimage(seq, seq.interval.a, float(x)), kappa,
                             tol=0.05, window=window)
        assert np.array_equal(est.checkpoints, want.checkpoints)
        assert np.array_equal(est.ratios(), want.ratios())
        assert est.trace == want.trace
        assert (est.value, est.oscillation, est.converged) == \
            (want.value, want.oscillation, want.converged)


def cumsum_extract(seqs, pool, grid, tol, window):
    """The per-pass indicator-and-cumsum extraction loop, kept as reference."""
    surviving = np.asarray(pool.checkpoints, dtype=np.int64)
    for seq in seqs:
        a = seq.interval.a
        for x in np.sort(grid):
            indicator = preimage(seq, a, float(x)).indicator(
                int(surviving[-1]))
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
    # The second sequence's passes need only checkpoints 1..60, but it is
    # read to the pool's end, so a later full-depth stage generates nothing.
    first = FileSequence(np.repeat([0.0, 1.0], [60, 40]), UNIT, "first.txt")
    kron = KroneckerSequence("sqrt2-1")
    generated = []
    real = kron._eval_batch

    def counting(ns):
        generated.append(ns.size)
        return real(ns)

    monkeypatch.setattr(kron, "_eval_batch", counting)
    pool = SubsequenceIndex(range(1, 101))
    got = helly_extract([first, kron], pool, np.array([0.5]), tol=0.01,
                        window=5, min_pool=1)
    assert got.deepest <= 60
    kron.prefix(pool.deepest)
    assert generated == [pool.deepest]


def test_arity_five_table_matches_per_n_loop():
    seqs = [KroneckerSequence(a) for a in ("sqrt2-1", "sqrt3-1", "golden")] \
        + [VanDerCorputSequence(2), VanDerCorputSequence(3)]
    assert len(seqs) == independence.MAX_TUPLE_ARITY
    points = np.array([0.25, 0.5, 0.75])
    kappa = SubsequenceIndex([64, 200])
    codes = [grid_codes(s, kappa.deepest, points) for s in seqs]
    got = grid_counts(codes, points.size, kappa.checkpoints)
    assert got.shape == (2,) + (4,) * 5
    assert np.array_equal(got, brute_counts(seqs, points.tolist(), [64, 200]))
    assert got[(1,) + (3,) * 5] == 200


def test_oversized_table_rejected():
    # Decile corners at the largest arity fit; far larger tables are refused
    # before anything is allocated.
    assert (9 + 1) ** independence.MAX_TUPLE_ARITY <= density.MAX_TABLE_CELLS
    codes = [np.zeros(4, dtype=np.intp)] * 3
    with pytest.raises(ValueError, match="exceeds"):
        grid_counts(codes, 1024, np.array([2, 4]))


def test_trace_property_lists_python_pairs():
    seq = PeriodicSequence([0.0, 1.0])
    rep = detect_measurable(seq, SubsequenceIndex([2, 4, 6, 8, 10]),
                            np.array([0.5]))
    trace = rep.traces[0].trace
    assert trace == [(2, 0.5), (4, 0.5), (6, 0.5), (8, 0.5), (10, 0.5)]
    assert all(type(k) is int and type(r) is float for k, r in trace)


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
        with pytest.raises(ValueError, match="tol must be positive"):
            kappa_independence_test([seq], kappa, np.array([0.5]), 0.05,
                                    measurability_tol=-1.0)

    @pytest.mark.parametrize("x, message", [(1.5, "must sit inside"),
                                            (-0.5, "inverted bounds")])
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


def test_harness_checks_measurability_once_per_pair(monkeypatch):
    calls, binned = [], []
    real = independence.detect_measurable
    real_codes = density.grid_codes

    def counting(seq, kappa, *args, **kwargs):
        calls.append((seq.label, kappa.label))
        return real(seq, kappa, *args, **kwargs)

    def counting_codes(seq, n, points):
        binned.append((seq.label, n))
        return real_codes(seq, n, points)

    monkeypatch.setattr(independence, "detect_measurable", counting)
    for module in (independence, selection):
        monkeypatch.setattr(module, "grid_codes", counting_codes)
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    family = kappa_family_builder(2000)
    rep = equivalence_harness(seqs, default_battery(), family,
                              [100, 1000, 2000], 0.02)
    assert len(calls) == len(set(calls))
    # Each checked prefix is binned once, for measurability and rectangles.
    assert len(binned) == len(calls)
    tested = [o.kappa_label for o in rep.outcomes if o.tested]
    assert tested
    for label in tested:
        assert all((s.label, label) in calls for s in seqs)

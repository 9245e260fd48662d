"""Preimage counts and selective-density tests.

Counts come from the grid counting core (``grid_counts``)
and densities from ``detect_measurable``'s ratio table.  They are checked
against exact finite counts (periodic and block sequences give closed-form
prefix counts) and brute-force masks, never against asserted limits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _brute import brute_rectangle_count
from _exact import kronecker_count
from statindep import (
    CheckpointError,
    IntervalError,
    KroneckerSequence,
    PeriodicSequence,
    SubsequenceIndex,
    VanDerCorputSequence,
    detect_measurable,
    make_block,
)
from statindep.density import grid_counts, sorted_unique
from statindep.selection import check_grid


def below_counts(seq, points, checkpoints):
    """#{n <= k : v(n) < points[j]} per checkpoint k (rows) and point j;
    the last column, leaving v unbounded, is k itself."""
    return grid_counts([seq], points, checkpoints)


def measure_below(seq, x, kappa, **kwargs):
    """The measurability table of ``seq`` along ``kappa`` at one point x."""
    return detect_measurable(seq, kappa, np.array([x]), **kwargs)


class TestPrefixCount:
    def test_periodic_exact(self):
        seq = PeriodicSequence([0.0, 1.0, 0.0])  # two lows per period of 3
        assert below_counts(seq, [0.5], [3, 30, 31])[:, 0].tolist() == \
            [2, 20, 21]

    def test_brute_force_agreement(self):
        seq = VanDerCorputSequence(2)
        vals = seq.prefix(500)
        assert below_counts(seq, [0.3], [500])[0, 0] == int(np.sum(vals < 0.3))


class TestKroneckerFloorSums:
    """Marginal counts of Kronecker sequences against the exact floor sums
    of n A / 2^128 (tests/_exact.py)."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["sqrt2-1", "golden", 0.3, "0.1"]),
           st.integers(min_value=0, max_value=1 << 14),
           st.floats(min_value=-0.5, max_value=1.5))
    def test_floor_sums_count_like_brute_force(self, alpha, n, x):
        seq = KroneckerSequence(alpha)
        vals = seq.prefix(1 << 14)[:n]
        assert kronecker_count(seq.alpha, n, x) == int(np.sum(vals < x))

    def test_floor_sums_count_at_the_values_themselves(self):
        # x on a value and one 2^-53 step above it
        seq = KroneckerSequence("sqrt3-1")
        vals = seq.prefix(1 << 12)
        for x in vals[:50].tolist() + (vals[:50] + 2.0 ** -53).tolist():
            assert kronecker_count(seq.alpha, vals.size, x) == \
                int(np.sum(vals < x))

    def test_grid_counts_equal_the_floor_sums_up_to_2_to_the_22(self):
        seq = KroneckerSequence("sqrt2-1")
        deciles = np.linspace(0.1, 0.9, 9)
        checkpoints = sorted({1, 7, 100, 8191, 8192, 8193, 10 ** 5, 10 ** 6,
                              *(1 << k for k in range(23))})
        counts = below_counts(seq, deciles, checkpoints)
        want = [[kronecker_count(seq.alpha, k, x) for x in deciles] + [k]
                for k in checkpoints]
        assert counts.tolist() == want


class TestPreimage:
    def test_half_open_convention(self):
        seq = PeriodicSequence([0.0, 0.5, 1.0])
        # below 0.5 is only 0.0, below 1.0 adds 0.5; unbounded counts all 3
        assert below_counts(seq, [0.5, 1.0], [3])[0].tolist() == [1, 2, 3]

    def test_invalid_bounds(self):
        seq = PeriodicSequence([0.0, 1.0])
        for x in (-0.5, 1.5, np.nan):
            with pytest.raises(IntervalError,
                               match=rf"grid point {x} outside \[0\.0, 1\.0\]"):
                check_grid(seq, np.array([0.5, x]), 5)
        assert check_grid(seq, [0.0, 1.0], 5).tolist() == [0.0, 1.0]


class TestIntersect:
    """An intersection of preimages is one cell of the joint grid table."""

    def test_conjunction_counts(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        table = grid_counts([v1, v2], np.array([0.5]), np.array([1000]))
        assert table[0, 0, 0] == brute_rectangle_count([v1, v2], (0.5, 0.5),
                                                       1000)

    def test_single_passthrough(self):
        # leaving one sequence unbounded gives the other's own counts
        seqs = [KroneckerSequence("sqrt2-1"), VanDerCorputSequence(3)]
        points = np.array([0.25, 0.5])
        checkpoints = np.array([10, 97])
        joint = grid_counts(seqs, points, checkpoints)
        assert np.array_equal(joint[:, :, -1],
                              grid_counts(seqs[:1], points, checkpoints))
        assert np.array_equal(joint[:, -1, :],
                              grid_counts(seqs[1:], points, checkpoints))


class TestKappaDensity:
    def test_periodic_exact_ratios(self):
        seq = PeriodicSequence([0.0, 1.0])
        kappa = SubsequenceIndex([2, 4, 6, 8, 10, 12])
        rep = measure_below(seq, 0.5, kappa)
        # at even checkpoints the ratio is exactly 1/2
        assert rep.checkpoints.tolist() == [2, 4, 6, 8, 10, 12]
        assert rep.ratios[:, 0].tolist() == [0.5] * 6
        assert rep.oscillations[0] == 0.0
        assert rep.measurable
        assert rep.ratios[-1, 0] == 0.5

    def test_block_ratio_exact_thirds_at_high_block_ends(self):
        blk = make_block(0.0, 1.0, 2)
        ends = blk.block_ends(10 ** 5)  # 2, 6, 14, ...
        high_ends = ends.take(np.arange(1, len(ends), 2))  # 6, 30, 126, ...
        rep = measure_below(blk, 0.5, high_ends)
        for ratio in rep.ratios[:, 0]:
            assert ratio == pytest.approx(1 / 3, abs=1e-15)

    def test_oscillation_detects_block_swings(self):
        blk = make_block(0.0, 1.0, 2)
        pow2 = SubsequenceIndex(2 ** np.arange(0, 15), name="pow2")
        rep = measure_below(blk, 0.5, pow2)
        assert rep.oscillations[0] > 0.2
        assert not rep.oscillations[0] <= rep.tol
        assert not rep.measurable

    def test_shallow_kappa_rejected(self):
        seq = PeriodicSequence([0.0, 1.0])
        with pytest.raises(CheckpointError):
            measure_below(seq, 0.5, SubsequenceIndex([2, 4]), window=5)

    def test_trace_matches_brute_force(self):
        seq = VanDerCorputSequence(3)
        kappa = SubsequenceIndex([7, 20, 33, 81, 100, 243])
        rep = measure_below(seq, 0.6, kappa)
        vals = seq.prefix(243)
        for k, ratio in zip(rep.checkpoints.tolist(), rep.ratios[:, 0]):
            assert ratio == int(np.sum(vals[:k] < 0.6)) / k


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.floats(min_value=0.05, max_value=0.95))
def test_count_complement_identity(n, x):
    # the counted preimage and the values at or above x partition 1..n
    seq = KroneckerSequence("sqrt2-1")
    below, total = grid_counts([seq], np.array([x]), np.array([n]))[0]
    assert below + np.count_nonzero(seq.prefix(n) >= x) == n
    assert total == n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=5, max_value=60))
def test_density_value_is_last_trace_entry(m):
    seq = VanDerCorputSequence(2)
    kappa = SubsequenceIndex(np.arange(1, m + 1) * 7)
    rep = measure_below(seq, 0.5, kappa)
    # the reported density at x is the table's deepest row
    assert rep.to_json_obj()["cdf_at_deepest"].tolist() == \
        rep.ratios[-1].tolist()
    assert rep.ratios.shape == (m, 1)
    assert rep.ratios[-1, 0] == \
        int(np.sum(seq.prefix(7 * m) < 0.5)) / (7 * m)


# Duplicates, both zeros and the int64 extremes come up often, as in
# checkpoint lists and grids; np.unique keeps the one of 0.0 and -0.0 that
# its sort puts first.
_INT64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), _INT64), max_size=60).map(
        lambda v: np.asarray(v, dtype=np.int64)),
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.5]), _FLOATS),
             max_size=60).map(lambda v: np.asarray(v, dtype=np.float64))))
def test_sorted_unique_equals_np_unique(values):
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()

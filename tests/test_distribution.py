"""Empirical CDF, Stieltjes sum, grid, sandwich, and envelope tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _brute import brute_density
from statindep import (
    ConstantSequence,
    EnvelopeError,
    GridError,
    Interval,
    IntervalError,
    KroneckerSequence,
    PeriodicSequence,
    StepCDF,
    SubsequenceIndex,
    UNIT,
    VanDerCorputSequence,
    cdf_eval,
    continuity_grid,
    detect_measurable,
    empirical_cdf,
    sandwich_indicator,
    step_envelope,
    stieltjes,
)
from statindep.distribution import _merged_blocked


def naturals(depth, stride=1):
    return SubsequenceIndex(np.arange(stride, depth + 1, stride))


class TestStepCDF:
    def test_mass_strictly_below(self):
        F = StepCDF(np.array([0.2, 0.5, 0.8]), np.array([0.25, 0.5, 0.25]), UNIT)
        assert cdf_eval(F, 0.1) == 0.0
        assert cdf_eval(F, 0.2) == 0.0          # jump at 0.2 not yet counted
        assert cdf_eval(F, 0.20000001) == 0.25
        assert cdf_eval(F, 0.5) == 0.25
        assert cdf_eval(F, 0.8000001) == 1.0
        assert cdf_eval(F, 2.0) == 1.0

    def test_vector_eval(self):
        F = StepCDF(np.array([0.5]), np.array([1.0]), UNIT)
        got = F.eval(np.array([0.0, 0.5, 0.7]))
        assert got.tolist() == [0.0, 0.0, 1.0]

    def test_validation(self):
        with pytest.raises(IntervalError):
            StepCDF(np.array([0.5, 0.2]), np.array([0.5, 0.5]), UNIT)
        with pytest.raises(IntervalError):
            StepCDF(np.array([0.2, 0.5]), np.array([0.5, 0.4]), UNIT)
        with pytest.raises(IntervalError):
            StepCDF(np.array([1.5]), np.array([1.0]), UNIT)

    def test_heavy_atoms(self):
        F = StepCDF(np.array([0.2, 0.5]), np.array([0.999, 0.001]), UNIT)
        assert F.heavy_atoms(0.01).tolist() == [0.2]

    def test_atom_of_mass_exactly_atom_tol_is_not_heavy(self):
        # one strict rule: heavy_atoms and the grid's exclusions agree, so
        # a grid point may sit on an atom of mass exactly atom_tol
        F = StepCDF.from_counts(np.array([0.25, 0.5]), np.array([1, 999]),
                                1000, UNIT)
        assert F.masses[0] == 0.001
        assert F.heavy_atoms(0.001).tolist() == [0.5]
        assert _merged_blocked([F], 0.001) == [(0.5 - 0.001, 0.5 + 0.001)]
        assert 0.25 in continuity_grid([F], 3, atom_tol=0.001).tolist()

    def test_json_shape(self):
        F = StepCDF(np.array([0.3]), np.array([1.0]), UNIT)
        obj = F.to_json_obj()
        assert {k: v.tolist() for k, v in obj.items()} == {"points": [0.3],
                                                          "masses": [1.0]}


class TestEmpiricalCDF:
    def test_constant_is_unit_jump(self):
        F = empirical_cdf(ConstantSequence(0.3), naturals(100))
        assert F.jump_points.tolist() == [0.3]
        assert F.masses.tolist() == [1.0]
        assert cdf_eval(F, 0.3) == 0.0
        assert cdf_eval(F, 0.31) == 1.0

    def test_depth_selects_checkpoint(self):
        seq = PeriodicSequence([0.0, 1.0])
        kappa = SubsequenceIndex([1, 2, 3])
        F1 = empirical_cdf(seq, kappa, depth=1)   # prefix of length 1: {0.0}
        assert F1.jump_points.tolist() == [0.0]
        F3 = empirical_cdf(seq, kappa, depth=3)   # {0, 1, 0}
        assert cdf_eval(F3, 0.5) == pytest.approx(2 / 3, abs=0)

    def test_bad_depth(self):
        seq = ConstantSequence(0.5)
        kappa = SubsequenceIndex([1, 2])
        from statindep import CheckpointError
        with pytest.raises(CheckpointError):
            empirical_cdf(seq, kappa, depth=3)

    def test_cdf_matches_kappa_density_bitwise(self):
        # same integer count, same single division: must agree exactly
        seq = KroneckerSequence("sqrt2-1")
        kappa = naturals(2000, stride=40)
        F = empirical_cdf(seq, kappa)
        grid = np.array([0.1, 0.33333, 0.5, 0.717, 0.9])
        rep = detect_measurable(seq, kappa, grid)
        for x, est in zip(grid, rep.traces):
            assert cdf_eval(F, x) == est.value
            assert est.value == brute_density(seq, x, kappa).value

    def test_total_mass_exact_for_counts(self):
        seq = VanDerCorputSequence(2)
        F = empirical_cdf(seq, naturals(777))
        assert F.total_mass == 1.0


class TestStieltjes:
    def test_exact_rearrangement_of_mean(self):
        seq = KroneckerSequence("sqrt3-1")
        for n in (10, 1000, 10 ** 4):
            F = empirical_cdf(seq, SubsequenceIndex([n]))
            vals = seq.prefix(n)
            for f in (lambda x: x, lambda x: x ** 2,
                      lambda x: np.sin(2 * np.pi * x)):
                mean = float(np.sum(np.asarray(f(vals))) / n)
                assert stieltjes(f, F) == pytest.approx(mean, abs=1e-12)

    def test_constant_integrand(self):
        F = empirical_cdf(VanDerCorputSequence(2), naturals(64))
        assert stieltjes(lambda x: np.full_like(x, 3.0), F) == \
            pytest.approx(3.0, abs=1e-12)

    def test_non_finite_rejected(self):
        F = StepCDF(np.array([0.0, 0.5]), np.array([0.5, 0.5]), UNIT)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                stieltjes(lambda x: 1.0 / x, F)


class TestContinuityGrid:
    def test_no_atoms_gives_equispaced(self):
        F = empirical_cdf(KroneckerSequence("sqrt2-1"), naturals(10 ** 4, 100))
        grid = continuity_grid([F], 9)
        assert grid.tolist() == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], abs=1e-12)

    def test_heavy_atom_avoided(self):
        F = StepCDF(np.array([0.5]), np.array([1.0]), UNIT)
        grid = continuity_grid([F], 9, atom_tol=0.04)
        assert grid.size == 9
        assert np.all(np.abs(grid - 0.5) >= 0.04 - 1e-15)
        assert np.all((grid > 0) & (grid < 1))
        assert np.all(np.diff(grid) > 0)

    def test_deterministic(self):
        F = StepCDF(np.array([0.25, 0.5, 0.75]),
                    np.array([0.3, 0.4, 0.3]), UNIT)
        g1 = continuity_grid([F], 17, atom_tol=0.05)
        g2 = continuity_grid([F], 17, atom_tol=0.05)
        assert np.array_equal(g1, g2)

    def test_impossible_reports_achievable(self):
        # exclusion radii a quarter wide around each atom blanket [0, 1]
        F = StepCDF(np.array([0.25, 0.5, 0.75]),
                    np.array([0.3, 0.4, 0.3]), UNIT)
        with pytest.raises(GridError) as info:
            continuity_grid([F], 9, atom_tol=0.25)
        assert info.value.achievable < 9

    def test_mass_exactly_at_tol_does_not_block(self):
        F = StepCDF(np.array([0.25, 0.5, 0.75]),
                    np.array([0.3, 0.4, 0.3]), UNIT)
        grid = continuity_grid([F], 9, atom_tol=0.3)
        # only the 0.4 atom blocks; its exclusion zone stays clear
        assert np.all((grid <= 0.2) | (grid >= 0.8))

    @pytest.mark.parametrize("atom_tol", [-0.05, 0.0])
    def test_nonpositive_atom_tol_rejected(self, atom_tol):
        # a full-mass atom at 0.5: a nonpositive exclusion radius would
        # leave the equispaced point on it
        F = empirical_cdf(ConstantSequence(0.5),
                          SubsequenceIndex(range(100, 10001, 100)))
        assert continuity_grid([F], 3).tolist() == [0.25, 0.499, 0.75]
        with pytest.raises(ValueError, match="atom_tol must be positive"):
            continuity_grid([F], 3, atom_tol=atom_tol)

    def test_interval_required_without_cdfs(self):
        with pytest.raises(ValueError):
            continuity_grid([], 5)
        grid = continuity_grid([], 3, interval=Interval(2.0, 4.0))
        assert grid.tolist() == pytest.approx([2.5, 3.0, 3.5], abs=1e-12)


class TestSandwich:
    def test_ramp_values_from_contract(self):
        sw = sandwich_indicator(0.5, 0.1, UNIT)
        assert sw.lower(0.39) == 1.0
        assert sw.lower(0.45) == pytest.approx(0.5, abs=1e-12)
        assert sw.lower(0.5) == 0.0
        assert sw.upper(0.5) == 1.0
        assert sw.upper(0.55) == pytest.approx(0.5, abs=1e-12)
        assert sw.upper(0.61) == pytest.approx(0.0, abs=1e-12)

    def test_domination(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for x, w in ((0.5, 0.1), (0.2, 0.05), (0.93, 0.2)):
            sw = sandwich_indicator(x, w, UNIT)
            indicator = (xs < x).astype(float)
            assert np.all(sw.lower(xs) <= indicator + 1e-12)
            assert np.all(indicator <= sw.upper(xs) + 1e-12)

    def test_gap_bound_against_cdf(self):
        F = empirical_cdf(KroneckerSequence("sqrt2-1"), naturals(10 ** 4, 100))
        sw = sandwich_indicator(0.5, 0.1, UNIT, cdf=F)
        assert sw.gap_bound == cdf_eval(F, 0.6) - cdf_eval(F, 0.4)
        # integral of (upper - lower) is dominated by the mass bound
        integral = stieltjes(sw.upper, F) - stieltjes(sw.lower, F)
        assert integral <= sw.gap_bound + 1e-12

    def test_upper_clamped_at_right_endpoint(self):
        sw = sandwich_indicator(0.95, 0.1, UNIT)
        assert sw.upper(1.0) == pytest.approx(0.5, abs=1e-12)
        assert sw.upper(0.95) == 1.0

    def test_width_validation(self):
        with pytest.raises(IntervalError):
            sandwich_indicator(0.05, 0.1, UNIT)   # x - w below a
        with pytest.raises(IntervalError):
            sandwich_indicator(1.0, 0.1, UNIT)    # x not interior
        with pytest.raises(IntervalError):
            sandwich_indicator(0.5, 0.0, UNIT)


class TestStepEnvelope:
    def setup_method(self):
        self.F = empirical_cdf(KroneckerSequence("sqrt2-1"),
                               naturals(10 ** 4, 100))

    def test_identity_converges_in_twenty_cells(self):
        env = step_envelope(lambda x: x, [self.F], 0.1)
        assert len(env.lower_step.levels) <= 20
        assert env.gap_bound < 0.1

    def test_constant_gap_zero(self):
        env = step_envelope(lambda x: np.full_like(x, 0.7), [self.F], 0.1)
        assert env.gap_bound == 0.0
        assert set(env.lower_step.levels) == {0.7}
        assert set(env.upper_step.levels) == {0.7}

    def test_domination_on_fine_grid(self):
        f = lambda x: np.sin(2 * np.pi * x)
        env = step_envelope(f, [self.F], 0.05)
        xs = np.linspace(0.0, 1.0, 1001)
        assert np.all(env.lower_step(xs) <= f(xs) + 1e-12)
        assert np.all(f(xs) <= env.upper_step(xs) + 1e-12)

    def test_gap_bound_certifies_integral(self):
        f = lambda x: x ** 2
        env = step_envelope(f, [self.F], 0.02)
        lo = stieltjes(env.lower_step, self.F)
        hi = stieltjes(env.upper_step, self.F)
        mid = stieltjes(f, self.F)
        assert lo <= mid <= hi
        assert hi - lo <= env.gap_bound + 1e-15

    def test_budget_exhaustion_reports_best_gap(self):
        with pytest.raises(EnvelopeError) as info:
            step_envelope(lambda x: np.sin(2 * np.pi * x), [self.F], 1e-9,
                          max_breakpoints=50)
        assert 0.0 < info.value.best_gap < 1.0

    def test_multiple_cdfs_use_worst_gap(self):
        F2 = empirical_cdf(VanDerCorputSequence(2), naturals(4096, 64))
        env = step_envelope(lambda x: x, [self.F, F2], 0.1)
        for F in (self.F, F2):
            gap = stieltjes(env.upper_step, F) - stieltjes(env.lower_step, F)
            assert gap <= env.gap_bound + 1e-15


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_cdf_monotone_with_unit_mass(n):
    F = empirical_cdf(VanDerCorputSequence(2), SubsequenceIndex([n]))
    xs = np.linspace(-0.5, 1.5, 101)
    vals = F.eval(xs)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == 0.0
    assert abs(vals[-1] - 1.0) <= 1e-12
    assert abs(F.total_mass - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.12, max_value=0.88),
       st.floats(min_value=0.01, max_value=0.1))
def test_sandwich_dominates_everywhere(x, w):
    sw = sandwich_indicator(x, w, UNIT)
    xs = np.linspace(0.0, 1.0, 257)
    indicator = (xs < x).astype(float)
    assert np.all(sw.lower(xs) <= indicator + 1e-12)
    assert np.all(indicator <= sw.upper(xs) + 1e-12)

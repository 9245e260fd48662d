"""Multilinear form, rectangle test, and equivalence harness tests."""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _brute import BLOCK, brute_forms, brute_grid_counts, brute_rectangle_count
from _exact import (MAX_DISCREPANCY_POINTS, rectangle_discrepancy,
                    rectangle_excess, weyl_mean)
from statindep import (
    AffineImageSequence,
    CheckpointError,
    ConstantSequence,
    Extraction,
    FileSequence,
    FunctionBattery,
    Interval,
    IntervalError,
    KroneckerSequence,
    MeasurabilityError,
    NamedFunction,
    PeriodicSequence,
    RangeViolation,
    SequenceExhausted,
    SubsequenceIndex,
    UNIT,
    VanDerCorputSequence,
    continuity_grid,
    default_battery,
    delta_form,
    detect_measurable,
    empirical_cdf,
    equivalence_harness,
    helly_extract,
    indicator_below,
    kappa_family_builder,
    kappa_independence_test,
    kappa_member,
    make_block,
    product_form,
    sandwich_indicator,
    statind_test,
    step_envelope,
    stieltjes,
)
from statindep.density import grid_counts, sorted_unique
from statindep import forkwalk, independence
from statindep import density as density_module
from statindep.reporting import canonical_json, csv_text
from statindep.sequences import _CHUNK
from statindep.independence import MAX_TUPLE_ARITY

SRC = str(Path(__file__).resolve().parent.parent / "src")
IDENT = lambda x: np.asarray(x, dtype=np.float64)


def naturals(depth, stride=1):
    return SubsequenceIndex(np.arange(stride, depth + 1, stride))


class TestForms:
    def test_periodic_hand_enumeration(self):
        # v(n) alternates 0, 1; with f = g = id the termwise product is v(n)
        seq = PeriodicSequence([0.0, 1.0])
        assert delta_form([seq, seq], [IDENT, IDENT], 4) == 0.5
        assert product_form([seq, seq], [IDENT, IDENT], 4) == 0.25

    def test_m1_collapse_bitwise(self):
        seq = KroneckerSequence("sqrt2-1")
        for f in (IDENT, lambda x: np.cos(2 * np.pi * x)):
            for n in (1, 17, 1000):
                assert delta_form([seq], [f], n) == product_form([seq], [f], n)

    def test_all_ones_gives_exactly_one(self):
        seqs = [KroneckerSequence("sqrt2-1"), VanDerCorputSequence(2)]
        ones = lambda x: np.ones_like(np.asarray(x))
        assert delta_form(seqs, [ones, ones], 123) == 1.0
        assert product_form(seqs, [ones, ones], 123) == 1.0

    def test_mismatched_inputs(self):
        seq = KroneckerSequence("sqrt2-1")
        with pytest.raises(ValueError):
            delta_form([seq, seq], [IDENT], 10)
        with pytest.raises(ValueError):
            delta_form([], [], 10)
        other = ConstantSequence(2.0, interval=__import__(
            "statindep").Interval(0.0, 4.0))
        with pytest.raises(IntervalError):
            delta_form([seq, other], [IDENT, IDENT], 10)


def grid_rectangle_count(seqs, corner, n):
    """#{k <= n : v_i(k) < x_i for every i}, from one grid_counts table."""
    points, position = np.unique(corner, return_inverse=True)
    return int(grid_counts(seqs, points, np.array([n]))[(0, *position)])


class TestRectangleCount:
    def test_indicator_identity_exact(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        for corners, n in (((0.5, 0.5), 100), ((0.3, 0.8), 997),
                           ((0.123, 0.456), 5000)):
            funcs = [indicator_below(x) for x in corners]
            c = brute_rectangle_count([v1, v2], corners, n)
            assert delta_form([v1, v2], funcs, n) == c / n

    def test_mirrored_pair_empty_rectangle(self):
        v = KroneckerSequence("sqrt2-1")
        w = AffineImageSequence(v, -1.0, 1.0)
        # v(n) < 0.5 and 1 - v(n) < 0.5 cannot both hold
        assert grid_rectangle_count([v, w], (0.5, 0.5), 10 ** 4) == 0

    def test_full_interval_corner(self):
        v = KroneckerSequence("sqrt2-1")
        assert grid_rectangle_count([v], (1.0,), 321) == 321

    def test_independent_pair_near_quarter(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        n = 10 ** 4
        c = grid_rectangle_count([v1, v2], (0.5, 0.5), n)
        assert abs(c - n / 4) < 0.02 * n

    def test_direct_scan_agreement(self):
        v1 = VanDerCorputSequence(2)
        v2 = VanDerCorputSequence(3)
        n = 2000
        a = v1.prefix(n)
        b = v2.prefix(n)
        want = int(np.sum((a < 0.41) & (b < 0.77)))
        assert grid_rectangle_count([v1, v2], (0.41, 0.77), n) == want


class TestStatind:
    def test_independent_kronecker_pair(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        rep = statind_test([v1, v2], default_battery(),
                           [100, 1000, 10000], 0.02)
        assert rep.verdict == "independent"
        assert rep.max_terminal_gap <= 0.02

    def test_equal_pair_is_dependent_with_twelfth_gap(self):
        v = KroneckerSequence("sqrt2-1")
        battery = FunctionBattery((NamedFunction("x", IDENT),))
        rep = statind_test([v, v], battery, [100, 1000, 10000, 100000], 0.01)
        assert rep.verdict == "dependent"
        # terminal gap approaches 1/3 - 1/4 = 1/12
        assert rep.gaps[0, -1] == pytest.approx(1 / 12, abs=0.005)

    def test_constant_factor_gap_exactly_zero(self):
        v = VanDerCorputSequence(2)
        c = ConstantSequence(0.37)
        rep = statind_test([v, c], default_battery(), [10, 100, 1000], 0.01)
        assert np.all(rep.gaps == 0.0)
        assert rep.verdict == "independent"

    def test_bad_inputs(self):
        v = KroneckerSequence("sqrt2-1")
        with pytest.raises(ValueError):
            statind_test([v, v], default_battery(), [], 0.01)
        with pytest.raises(ValueError):
            statind_test([v, v], default_battery(), [100, 100], 0.01)
        with pytest.raises(ValueError):
            statind_test([v, v], default_battery(), [100, 1000], -1.0)

    def test_traces_sorted_by_label(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        rep = statind_test([v1, v2], default_battery(), [50, 100], 0.5)
        labels = list(rep.labels)
        assert labels == sorted(labels)
        assert len(labels) == len(default_battery()) ** 2
        names = default_battery().names
        assert labels == ["*".join(names[j] for j in row)
                          for row in rep.members.tolist()]
        assert rep.deltas.shape == rep.products.shape == rep.gaps.shape \
            == (len(labels), 2)

    def test_gap_columns_shape(self):
        v1 = KroneckerSequence("sqrt2-1")
        battery = FunctionBattery((NamedFunction("x", IDENT),))
        rep = statind_test([v1], battery, [10, 20], 0.1)
        ns, labels, deltas, products, gaps = rep.gap_columns()
        assert list(zip(ns.tolist(), labels.tolist())) == [(10, "x"),
                                                           (20, "x")]
        assert np.array_equal(gaps, deltas - products)
        assert np.array_equal(deltas, rep.deltas[0])

    @pytest.mark.parametrize("rows, verdict", [
        ([[0.5, 9.0, 0.25]], "independent"),  # terminal |gap| at tol
        ([[0.0, 2.0, 1.0]], "dependent"),  # over 3 tol, at half |gap| / 2
        ([[0.0, -2.5, -1.0]], "inconclusive"),  # below half |gap| / 2
        ([[0.0, 0.0, 0.75]], "inconclusive"),  # at 3 tol
        ([[0.0, 9.0, 2.0, 1.0]], "dependent"),  # half is point 2 of 4
        # one row must meet both: one row's terminal, another's half
        ([[0.0, 0.0, 0.5], [0.0, 4.0, 1.0]], "inconclusive")])
    def test_verdict_reads_terminal_and_half_schedule_gaps(self, rows,
                                                            verdict):
        gaps = np.array(rows)
        assert independence._verdict_from_gaps(gaps, 0.25) == (
            verdict, float(np.max(np.abs(gaps[:, -1]))))

    @pytest.mark.parametrize("name, what", [
        ("a*b", "'*'"), ("*", "'*'"), ("b\x00", "NUL"), ("\x00a", "NUL")])
    def test_member_names_that_cannot_label_a_tuple(self, name, what):
        # with "a*b", "a" and "b*a", the tuples (a*b, a) and (a, b*a) were
        # both labelled a*b*a; a CSV str column drops a trailing NUL
        with pytest.raises(ValueError, match=re.escape(
                f"battery member name must not contain {what}")):
            FunctionBattery((NamedFunction("a", IDENT),
                             NamedFunction(name, IDENT)))

    def test_report_tables_are_read_only(self):
        seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
        rep = statind_test(seqs, default_battery(), [50, 100], 0.5)
        for table in (rep.members, rep.deltas, rep.products, rep.gaps):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 9
        trace = rep.to_json_obj()["traces"][0]
        for key in ("delta", "product", "gap"):
            with pytest.raises(ValueError, match="read-only"):
                trace[key][0] = 9.0


class TestKappaIndependence:
    def test_m1_residual_exactly_zero(self):
        v = KroneckerSequence("sqrt2-1")
        kappa = naturals(10 ** 4, 100)
        rep = kappa_independence_test([v], kappa,
                                      np.linspace(0.1, 0.9, 9), 0.02)
        assert np.all(rep.residuals == 0.0)
        assert rep.verdict == "independent"

    def test_report_is_read_only_through_to_json_obj(self):
        # setting obj["density"][0] changed the report's densities
        seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
        rep = kappa_independence_test(seqs, naturals(10 ** 4, 100),
                                      np.linspace(0.1, 0.9, 9), 0.02)
        obj = rep.to_json_obj()
        for key in ("corners", "density", "product", "residual"):
            with pytest.raises(ValueError, match="read-only"):
                obj[key][0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.max_abs_residual = 0.0

    def test_independent_pair_decile_residuals(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        kappa = naturals(10 ** 4, 100)
        rep = kappa_independence_test([v1, v2], kappa,
                                      np.linspace(0.1, 0.9, 9), 0.02)
        assert rep.verdict == "independent"
        assert rep.max_abs_residual < 0.02
        assert len(rep.corners) == 81

    def test_mirrored_pair_residual_quarter(self):
        v = KroneckerSequence("sqrt2-1")
        w = AffineImageSequence(v, -1.0, 1.0)
        kappa = naturals(10 ** 4, 100)
        rep = kappa_independence_test([v, w], kappa,
                                      np.array([0.25, 0.5, 0.75]), 0.02)
        assert rep.verdict == "dependent"
        i = rep.corners.tolist().index([0.5, 0.5])
        assert rep.residuals[i] == pytest.approx(-0.25, abs=0.02)

    def test_density_column_matches_rectangle_count(self):
        v1 = VanDerCorputSequence(2)
        v2 = VanDerCorputSequence(3)
        kappa = naturals(2048, 64)
        grid = np.array([0.3, 0.6])
        rep = kappa_independence_test([v1, v2], kappa, grid, 0.05)
        for corner, density in zip(rep.corners, rep.densities):
            c = brute_rectangle_count([v1, v2], corner, kappa.deepest)
            assert density == c / kappa.deepest

    def test_columns_take_the_residuals_once(self):
        # the residuals are taken once, where the report is built, and
        # columns() and to_json_obj() hand out that one array
        rep = kappa_independence_test(
            [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")],
            naturals(2048, 64), np.array([0.3, 0.6]), 0.05)
        columns = rep.columns()
        assert columns[-1] is rep.residuals
        assert rep.to_json_obj()["residual"] is rep.residuals
        assert rep.max_abs_residual == float(np.max(np.abs(rep.residuals)))
        rows = list(zip(*[c.tolist() for c in columns]))
        assert rows == [(rep.kappa_label, *corner, density, product,
                         density - product)
                        for corner, density, product in zip(
                            itertools.product([0.3, 0.6], repeat=2),
                            rep.densities.tolist(), rep.products.tolist())]

    def test_five_sequences_need_one_joint_row(self, monkeypatch):
        # measurability reads each sequence's own counts at the window's
        # checkpoints; only the deepest needs the joint (G+1)^m table, so
        # a grid whose joint table fits once but not window times runs
        seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1"),
                KroneckerSequence("golden"), VanDerCorputSequence(2),
                VanDerCorputSequence(3)]
        kappa, grid = naturals(2048, 64), np.array([0.3, 0.5, 0.7])
        want = kappa_independence_test(seqs, kappa, grid, 0.05)
        monkeypatch.setattr(density_module, "MAX_TABLE_CELLS", 2 * 4 ** 5)
        got = kappa_independence_test(seqs, kappa, grid, 0.05)
        assert canonical_json(got.to_json_obj()) == \
            canonical_json(want.to_json_obj())
        for corner, density in zip(got.corners[::17], got.densities[::17]):
            count = brute_rectangle_count(seqs, corner, kappa.deepest)
            assert density == count / kappa.deepest

    def test_unmeasurable_sequence_named(self):
        blk = make_block(0.0, 1.0, 2)
        pow2 = SubsequenceIndex(2 ** np.arange(0, 14), name="pow2")
        with pytest.raises(MeasurabilityError, match="block"):
            kappa_independence_test([blk], pow2, np.array([0.5]), 0.02)

    def test_measurability_error_carries_the_failing_report(self):
        v = KroneckerSequence("sqrt2-1")
        blk = make_block(0.0, 1.0, 2)
        pow2 = SubsequenceIndex(2 ** np.arange(0, 14), name="pow2")
        with pytest.raises(MeasurabilityError) as caught:
            kappa_independence_test([v, blk], pow2, np.array([0.5]), 0.02)
        report = caught.value.report
        assert report.sequence_label == blk.label
        assert report.kappa_label == "pow2"
        assert report.measurable is False


class TestProductIntegralIdentity:
    def test_product_form_equals_stieltjes_product(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = VanDerCorputSequence(2)
        battery = default_battery()
        kappa = naturals(5000, 250)
        k = kappa.deepest
        for f, g in ((battery.members[1], battery.members[3]),
                     (battery.members[2], battery.members[5])):
            F1 = empirical_cdf(v1, kappa)
            F2 = empirical_cdf(v2, kappa)
            lhs = product_form([v1, v2], [f, g], k)
            rhs = stieltjes(f, F1) * stieltjes(g, F2)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEquivalenceHarness:
    def test_independent_pair_agreement(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        family = kappa_family_builder(2000)
        rep = equivalence_harness([v1, v2], default_battery(), family,
                                  [100, 1000, 2000], 0.02)
        assert rep.statind.verdict == "independent"
        assert rep.agreement
        assert rep.counterexample is None
        tested = [o for o in rep.outcomes if o.tested]
        assert tested and all(o.report.verdict == "independent"
                              for o in tested)

    def test_mirrored_pair_agreement_on_dependent(self):
        v = KroneckerSequence("sqrt2-1")
        w = AffineImageSequence(v, -1.0, 1.0)
        family = kappa_family_builder(2000)
        rep = equivalence_harness([v, w], default_battery(), family,
                                  [100, 1000, 2000], 0.01)
        assert rep.statind.verdict == "dependent"
        assert rep.agreement
        tested = [o for o in rep.outcomes if o.tested]
        assert tested and all(o.report.verdict == "dependent" for o in tested)

    def test_constant_pair_agreement(self):
        rep = equivalence_harness(
            [ConstantSequence(0.3), ConstantSequence(0.7)],
            default_battery(), kappa_family_builder(1000),
            [10, 100, 1000], 0.01)
        assert rep.statind.verdict == "independent"
        assert rep.agreement

    def test_blind_battery_flags_counterexample(self):
        # a battery that cannot see the dependence: constant function only
        v = KroneckerSequence("sqrt2-1")
        w = AffineImageSequence(v, -1.0, 1.0)
        ones = FunctionBattery((NamedFunction(
            "one", lambda x: np.ones_like(np.asarray(x))),))
        family = [naturals(2000, 20)]
        rep = equivalence_harness([v, w], ones, family, [100, 1000], 0.01)
        assert rep.statind.verdict == "independent"
        assert not rep.agreement
        assert rep.counterexample is not None
        assert rep.counterexample["rectangle_verdict"] == "dependent"

    def test_inconclusive_schedule_verdict_is_no_counterexample(self):
        # a sequence paired with itself: the x*x gap tends to 1/12, above
        # tol but below 3 tol, so the schedule test cannot tell, while the
        # rectangles see the dependence; an inconclusive verdict
        # disagrees with neither
        v = KroneckerSequence("sqrt2-1")
        battery = FunctionBattery((default_battery().member("one"),
                                   default_battery().member("x")))
        schedule = [100, 1000, 10000]
        rep = statind_test([v, v], battery, schedule, 0.05)
        assert rep.verdict == "inconclusive"
        # the x*x gap at 10^4, from the exact 128-bit values (the 80-bit
        # longdouble ones gave 0.08332643218066221, 1.1e-16 above)
        assert rep.max_terminal_gap == 0.0833264321806621
        harness = equivalence_harness(
            [v, v], battery, [kappa_member("evens", 10000)], schedule, 0.05)
        assert harness.statind.verdict == "inconclusive"
        [outcome] = harness.outcomes
        assert outcome.tested and outcome.report.verdict == "dependent"
        assert harness.agreement
        assert harness.counterexample is None

    @pytest.mark.parametrize("bad, error, message", [
        ({"window": 0}, ValueError, "window must be >= 1"),
        ({"grid": [0.5, 1.5]}, IntervalError,
         r"grid point 1\.5 outside \[0\.0, 1\.0\]"),
        ({"grid": [-0.5]}, IntervalError, "grid point -0.5 outside"),
        ({"grid": []}, ValueError, "grid must be nonempty"),
        ({"grid": 0.5}, ValueError, r"grid must be 1-d, got shape \(\)"),
        ({"grid": [[0.3, 0.6]]}, ValueError,
         r"grid must be 1-d, got shape \(1, 2\)"),
        ({"grid": 0}, ValueError, "count must be >= 1"),
        ({"atom_tol": 0.0}, ValueError, "atom_tol must be positive"),
        ({"grid": 9000}, ValueError, "counting table"),
    ])
    def test_bad_arguments_fail_before_the_schedule_test(
            self, monkeypatch, bad, error, message):
        def schedule_test(*args, **kwargs):
            raise AssertionError("the schedule test ran")

        monkeypatch.setattr(independence, "statind_test", schedule_test)
        seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
        with pytest.raises(error, match=message):
            equivalence_harness(seqs, default_battery(),
                                kappa_family_builder(1000), [100, 1000],
                                0.02, **bad)

    def test_each_member_tested_through_the_rectangle_route(
            self, monkeypatch):
        # the harness's rows go through the function that
        # kappa_independence_test ends in, and give its reports
        calls = []
        real = independence._rectangle_test

        def spy(seqs, kappa, grid, marginals, joint, tol, window,
                measurability_tol):
            # window rows of each sequence's own counts, one joint row
            calls.append((kappa.label, [c.shape[0] for c in marginals],
                          joint.ndim, tol, window, measurability_tol))
            return real(seqs, kappa, grid, marginals, joint, tol, window,
                        measurability_tol)

        monkeypatch.setattr(independence, "_rectangle_test", spy)
        seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
        family = kappa_family_builder(4096)
        rep = equivalence_harness(seqs, default_battery(), family,
                                  [100, 1000, 4096], 0.02, window=4)
        assert sorted(c[0] for c in calls) == sorted(k.label for k in family)
        assert all(c[1:] == ([4, 4], 2, 0.04, 4, 0.01) for c in calls)
        monkeypatch.setattr(independence, "_rectangle_test", real)
        by_label = {k.label: k for k in family}
        for outcome in rep.outcomes:
            kappa = by_label[outcome.kappa_label]
            grid = continuity_grid([empirical_cdf(s, kappa) for s in seqs],
                                   9)
            if outcome.tested:
                want = kappa_independence_test(seqs, kappa, grid, 0.04,
                                               window=4)
                assert canonical_json(outcome.report.to_json_obj()) == \
                    canonical_json(want.to_json_obj())
            else:
                with pytest.raises(MeasurabilityError):
                    kappa_independence_test(seqs, kappa, grid, 0.04,
                                            window=4)
        skipped = [o for o in rep.outcomes if not o.tested]
        assert skipped and len(skipped) < len(family)
        assert all(o.skip_reason == f"sequence {seqs[0].label} not "
                                    f"measurable along {o.kappa_label}"
                   for o in skipped)

    def test_outcomes_sorted_by_kappa_label(self):
        v1 = KroneckerSequence("sqrt2-1")
        v2 = KroneckerSequence("sqrt3-1")
        rep = equivalence_harness([v1, v2], default_battery(),
                                  kappa_family_builder(4096),
                                  [100, 1000], 0.05)
        labels = [o.kappa_label for o in rep.outcomes]
        assert labels == sorted(labels)


# -- property tests ---------------------------------------------------------

SMALL_FUNCS = [IDENT, lambda x: np.asarray(x) ** 2,
               lambda x: np.cos(2 * np.pi * np.asarray(x)),
               lambda x: np.ones_like(np.asarray(x))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_multilinearity(n, i, j):
    v1 = KroneckerSequence("sqrt2-1")
    v2 = VanDerCorputSequence(2)
    f, g = SMALL_FUNCS[i], SMALL_FUNCS[j]
    alpha, beta = 0.75, -1.5
    combo = lambda x: alpha * f(x) + beta * g(x)
    lhs = delta_form([v1, v2], [combo, IDENT], n)
    rhs = alpha * delta_form([v1, v2], [f, IDENT], n) \
        + beta * delta_form([v1, v2], [g, IDENT], n)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.permutations([0, 1, 2]))
def test_permutation_symmetry(n, perm):
    seqs = [KroneckerSequence("sqrt2-1"), VanDerCorputSequence(2),
            KroneckerSequence("golden")]
    funcs = SMALL_FUNCS[:3]
    base_delta = delta_form(seqs, funcs, n)
    base_product = product_form(seqs, funcs, n)
    p_seqs = [seqs[k] for k in perm]
    p_funcs = [funcs[k] for k in perm]
    assert delta_form(p_seqs, p_funcs, n) == pytest.approx(base_delta,
                                                           abs=1e-12)
    assert product_form(p_seqs, p_funcs, n) == pytest.approx(base_product,
                                                             abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.05, max_value=1.2),
       st.floats(min_value=0.05, max_value=1.2))
def test_indicator_identity_random_corners(n, x1, x2):
    v1 = KroneckerSequence("sqrt2-1")
    v2 = KroneckerSequence("sqrt3-1")
    c = brute_rectangle_count([v1, v2], (x1, x2), n)
    d = delta_form([v1, v2], [indicator_below(x1), indicator_below(x2)], n)
    assert d == c / n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_delta_bounded_by_sup_product(n):
    seqs = [KroneckerSequence("sqrt2-1"), VanDerCorputSequence(2)]
    for f in SMALL_FUNCS:
        val = delta_form(seqs, [f, f], n)
        assert abs(val) <= 1.0 + 1e-12


# -- the schedule-test kernel against the block-contract reference -----------

NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda s, k, g: statind_test(s, default_battery(), [10, 100], NAN),
     "tol must be positive"),
    (lambda s, k, g: kappa_independence_test(s, k, g, NAN),
     "tol must be positive"),
    (lambda s, k, g: kappa_independence_test(s, k, g, 0.02,
                                             measurability_tol=NAN),
     "measurability_tol must be positive"),
    (lambda s, k, g: detect_measurable(s[0], k, g, tol=NAN),
     "tol must be positive"),
    (lambda s, k, g: helly_extract(s, k, g, tol=NAN),
     "tol must be positive"),
    (lambda s, k, g: equivalence_harness(s, default_battery(), [k],
                                         [10, 100], NAN),
     "tol must be positive"),
    (lambda s, k, g: sandwich_indicator(0.5, NAN, UNIT),
     "eps_width must be positive"),
    # refined until it ran out of breakpoints while NaN passed the check
    (lambda s, k, g: step_envelope(lambda x: x, [empirical_cdf(s[0], k)],
                                   NAN, max_breakpoints=100),
     "eps must be positive"),
], ids=["statind_test", "kappa_independence_test", "measurability_tol",
        "detect_measurable", "helly_extract", "equivalence_harness",
        "sandwich_indicator", "step_envelope"])
def test_nan_tolerance_is_rejected_at_every_entry_point(call, message):
    # each check reads `not x > 0`, which NaN fails, where `x <= 0` let it
    # through to a verdict or an error about something else
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    with pytest.raises(ValueError, match=f"^{message}, got nan$"):
        call(seqs, naturals(1000, 10), np.linspace(0.1, 0.9, 9))


@pytest.mark.parametrize("call, message", [
    (lambda s, k, g: statind_test(s, default_battery(), [100.7, 1000], 0.02),
     r"schedule\[0\] must be an integer, got 100\.7"),
    (lambda s, k, g: statind_test(s, default_battery(), ["100", 1000], 0.02),
     r"schedule\[0\] must be an integer, got '100'"),
    (lambda s, k, g: equivalence_harness(s, default_battery(), [k],
                                         [100, 1000.0], 0.02),
     r"schedule\[1\] must be an integer, got 1000\.0"),
    (lambda s, k, g: SubsequenceIndex([1.5, 2.7]),
     r"checkpoints\[0\] must be an integer, got 1\.5"),
    (lambda s, k, g: SubsequenceIndex(np.array([1.0, 2.0])),
     "checkpoints must have an integer dtype, got float64"),
    (lambda s, k, g: s[0].eval(2.5), "n must be an integer, got 2.5"),
    (lambda s, k, g: s[0].chunks(0, 2.5), "hi must be an integer, got 2.5"),
    (lambda s, k, g: kappa_member("evens", 2000, last=2.5),
     "last must be an integer, got 2.5"),
    (lambda s, k, g: kappa_member("evens", 2000.0),
     "base_depth must be an integer, got 2000.0"),
    (lambda s, k, g: helly_extract(s, k, g, window=2.5),
     "window must be an integer, got 2.5"),
    (lambda s, k, g: Extraction(k, window=2.5),
     "window must be an integer, got 2.5"),
    (lambda s, k, g: detect_measurable(s[0], k, g, window=2.5),
     "window must be an integer, got 2.5"),
    (lambda s, k, g: kappa_independence_test(s, k, g, 0.02, window=5.0),
     "window must be an integer, got 5.0"),
    (lambda s, k, g: equivalence_harness(s, default_battery(), [k],
                                         [100, 1000], 0.02, window=5.0),
     "window must be an integer, got 5.0"),
    (lambda s, k, g: delta_form(s, default_battery().members[:2], 1.5),
     "N must be an integer, got 1.5"),
    (lambda s, k, g: product_form(s, default_battery().members[:2], 1.5),
     "N must be an integer, got 1.5"),
    (lambda s, k, g: empirical_cdf(s[0], k, depth=1.5),
     "depth must be an integer, got 1.5"),
    (lambda s, k, g: continuity_grid([], 2.5, interval=UNIT),
     "count must be an integer, got 2.5"),
    (lambda s, k, g: helly_extract(s, k, g, min_pool=1.5),
     "min_pool must be an integer, got 1.5"),
], ids=["statind_test", "statind_test str", "equivalence_harness schedule",
        "SubsequenceIndex", "SubsequenceIndex float array", "eval", "chunks",
        "kappa_member last", "kappa_member base_depth", "helly_extract",
        "Extraction", "detect_measurable", "kappa_independence_test",
        "equivalence_harness window", "delta_form", "product_form",
        "empirical_cdf", "continuity_grid", "helly_extract min_pool"])
def test_index_arguments_must_be_integers(call, message):
    # int() truncated a float schedule point, checkpoint or index, and a
    # float window, last, chunk bound, N, depth or count ran (or failed
    # inside a slice or with numpy's message); an integral float is
    # rejected too
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    with pytest.raises(TypeError, match=f"^{message}$"):
        call(seqs, naturals(1000, 10), np.linspace(0.1, 0.9, 9))


@pytest.mark.parametrize("min_pool", [0, -1])
def test_helly_extract_min_pool_must_be_positive(min_pool):
    # a min_pool below 1 was accepted silently
    with pytest.raises(ValueError,
                       match=f"^min_pool must be >= 1, got {min_pool}$"):
        helly_extract([KroneckerSequence("sqrt2-1")], naturals(1000, 10),
                      np.array([0.5]), min_pool=min_pool)


@pytest.mark.parametrize("grid", [0.5, [[0.3, 0.6]]])
@pytest.mark.parametrize("call", [
    lambda s, k, g: kappa_independence_test(s, k, g, 0.02),
    lambda s, k, g: detect_measurable(s[0], k, g),
    lambda s, k, g: helly_extract(s, k, g, min_pool=5),
], ids=["kappa_independence_test", "detect_measurable", "helly_extract"])
def test_a_grid_that_is_not_1d_fails_before_any_walk(monkeypatch, call,
                                                      grid):
    # each entry point ran its counting walk and then failed on the shape
    def walk(*args, **kwargs):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(forkwalk, "steps", walk)
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    shape = re.escape(str(np.shape(grid)))
    with pytest.raises(ValueError, match=f"^grid must be 1-d, got shape {shape}$"):
        call(seqs, naturals(1000, 10), grid)


def test_trigonometric_averages_equal_the_exact_weyl_sums():
    # the reference sums the exact rotations A / 2^128; at 2^20 the four
    # products were within 8e-20 of it and the means within 4e-17 (x86-64,
    # glibc), and 2.5e-16 leaves one ulp of 1.0 for another C library's
    # sin and cos, which the Kronecker values no longer depend on
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    trig = {t: default_battery().member(f"{t}2pix") for t in ("sin", "cos")}
    n = 2 ** 20
    for s, t in itertools.product(trig, repeat=2):
        want = weyl_mean([(s, seqs[0].alpha), (t, seqs[1].alpha)], n)
        assert abs(delta_form(seqs, [trig[s], trig[t]], n) - want) <= 2.5e-16
    for seq, t in itertools.product(seqs, trig):
        want = weyl_mean([(t, seq.alpha)], n)
        assert abs(delta_form([seq], [trig[t]], n) - want) <= 2.5e-16


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                          st.sampled_from((0.0, 0.5, 0.75, 1.0))),
                min_size=1, max_size=12))
def test_rectangle_discrepancy_is_the_largest_corner_excess(points):
    # every data corner, on each side of it, one corner at a time
    x, y = (np.array(values) for values in zip(*points))
    n = len(points)
    want = max(abs(Fraction(int(np.sum(below_x & below_y)), n)
                   - Fraction(int(np.sum(below_x)) * int(np.sum(below_y)),
                              n * n))
               for s, t in itertools.product(x, y)
               for below_x in (x < s, x <= s) for below_y in (y < t, y <= t))
    assert rectangle_discrepancy(x, y) == float(want)


# total variation on [0, 1] of each default battery member
VARIATION = {"one": 0, "x": 1, "x2": 1, "ramp": 1, "sin2pix": 4,
             "cos2pix": 4}
BOUND_SEQUENCES = (
    KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1"),
    KroneckerSequence("golden"), VanDerCorputSequence(2),
    VanDerCorputSequence(3), make_block(0.0, 1.0, 2),
    PeriodicSequence([0.1, 0.9, 0.4]),
    AffineImageSequence(KroneckerSequence("sqrt2-1"), -1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BOUND_SEQUENCES), st.sampled_from(BOUND_SEQUENCES),
       st.lists(st.integers(1, MAX_DISCREPANCY_POINTS), min_size=1,
                max_size=3, unique=True).map(sorted))
def test_gap_within_variations_times_rectangle_discrepancy(u, v, schedule):
    # Hoeffding's covariance identity (1940): the gap of (f, g) over the
    # first N points is the sum over data corners of (C_N/N - F_N G_N)
    # times the increments of f and g, so |gap| <= V(f) V(g) D_N.  Slack:
    # the sums, means and products round by at most 3 (N + 1) 2^-53 on
    # values in [-1, 1], and each member's value by a few ulps; (N + 8)
    # 2^-50 = 8 (N + 8) 2^-53 is more than twice the first.
    battery = default_battery()
    rep = statind_test([u, v], battery, schedule, 0.01)
    variation = np.array([VARIATION[name] for name in battery.names])
    weight = variation[rep.members[:, 0]] * variation[rep.members[:, 1]]
    for k, n in enumerate(schedule):
        bound = weight * rectangle_discrepancy(u.prefix(n), v.prefix(n))
        assert np.all(np.abs(rep.gaps[:, k]) <= bound + (n + 8) * 2.0 ** -50)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOUND_SEQUENCES), st.sampled_from(BOUND_SEQUENCES),
       st.integers(1, MAX_DISCREPANCY_POINTS),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
def test_grid_table_brackets_the_rectangle_discrepancy(u, v, n, grid):
    # ROADMAP item 4, step 2: a Tally table at N over any grid brackets
    # N^2 D_N in integers.  Its corners are one-sided limits of data
    # rectangles, so its largest excess is at most N^2 D_N.  Inside a grid
    # cell, c, A and B lie between their values at the cell's corners, so
    # N c - A B is within N max dA + N max dB of a corner's excess.
    table = grid_counts([u, v], sorted_unique(grid), [n])[0]
    c = np.pad(table, ((1, 0), (1, 0)))  # 0 in front: nothing below
    a, b = c[:, -1], c[-1, :]  # each ends at N
    grid_sup = int(np.abs(n * c - np.outer(a, b)).max())
    excess = rectangle_excess(u.prefix(n), v.prefix(n))
    assert grid_sup <= excess <= grid_sup + n * int(np.diff(a).max()) \
        + n * int(np.diff(b).max())


def _same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


KERNEL_MEMBERS = (
    NamedFunction("one", lambda x: np.ones_like(np.asarray(x))),
    NamedFunction("c037", lambda x: np.full(np.shape(x), 0.37)),
    NamedFunction("x", IDENT),
    NamedFunction("cos", lambda x: np.cos(2 * np.pi * np.asarray(x))),
    NamedFunction("low", lambda x: (np.asarray(x) < 0.5).astype(np.float64)),
)


def _leading_run_periodic(run):
    # constant on its first `run` terms only, so a member's constant pattern
    # changes along a schedule that crosses `run`
    return PeriodicSequence([0.25] * run + [0.75, 0.5])


KERNEL_SEQUENCES = st.one_of(
    st.just(KroneckerSequence("sqrt2-1")),
    st.just(VanDerCorputSequence(3)),
    st.just(ConstantSequence(0.37)),
    st.integers(min_value=1, max_value=300).map(_leading_run_periodic),
    # constant runs that end just before, at and just after a block end
    st.sampled_from((8191, 8192, 8193)).map(_leading_run_periodic),
)


# schedule points around block boundaries, so sums cross blocks and end
# mid-block, at a block end and one past it
BLOCK_POINTS = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


@settings(max_examples=150, deadline=None)
# a slot that starts to vary at a schedule point just past a block end,
# and two constants before the varying slot
@example([KroneckerSequence("sqrt2-1"), VanDerCorputSequence(3),
          _leading_run_periodic(BLOCK)], [KERNEL_MEMBERS[2]],
         [BLOCK, BLOCK + 1])
@example([ConstantSequence(0.37), ConstantSequence(0.37),
          KroneckerSequence("sqrt2-1")], list(KERNEL_MEMBERS[1:3]), [5, 600])
@given(st.lists(KERNEL_SEQUENCES, min_size=1, max_size=MAX_TUPLE_ARITY),
       st.lists(st.sampled_from(KERNEL_MEMBERS), min_size=1, max_size=3,
                unique_by=lambda f: f.name),
       st.lists(st.integers(min_value=1, max_value=600)
                | st.sampled_from(BLOCK_POINTS), min_size=1,
                max_size=5, unique=True).map(sorted))
def test_kernel_bitwise_equals_block_reference(seqs, members, schedule):
    battery = FunctionBattery(tuple(members))
    rep = statind_test(seqs, battery, schedule, 0.01)
    assert len(rep.labels) == len(members) ** len(seqs)
    for i, label in enumerate(rep.labels):
        funcs = [members[j] for j in rep.members[i]]
        for k, n in enumerate(schedule):
            delta, product, varying = brute_forms(seqs, funcs, n)
            assert _same_bits(rep.deltas[i, k], delta), (label, n)
            assert _same_bits(rep.products[i, k], product), (label, n)
            if varying <= 1:
                assert rep.gaps[i, k] == 0.0, (label, n)


def test_traces_equal_single_tuple_forms_bitwise():
    seqs = [_leading_run_periodic(5), KroneckerSequence("golden"),
            ConstantSequence(0.37)]
    battery = FunctionBattery(KERNEL_MEMBERS)
    schedule = [2, 5, 6, 40, 97, BLOCK + 1]
    rep = statind_test(seqs, battery, schedule, 0.01)
    for i, row in enumerate(rep.members):
        funcs = [KERNEL_MEMBERS[j] for j in row]
        for k, n in enumerate(schedule):
            assert _same_bits(rep.deltas[i, k], delta_form(seqs, funcs, n))
            assert _same_bits(rep.products[i, k],
                              product_form(seqs, funcs, n))


def test_constant_pattern_changes_along_the_schedule():
    # "x" on the leading-run sequence is constant for N <= 5 and varies
    # after; its gap against a varying second slot is exactly zero only
    # while it is constant
    seqs = [_leading_run_periodic(5), KroneckerSequence("sqrt2-1")]
    battery = FunctionBattery((NamedFunction("x", IDENT),))
    rep = statind_test(seqs, battery, [3, 5, 6, 50], 0.01)
    gaps = rep.gaps[0]
    assert np.all(gaps[:2] == 0.0)
    assert np.all(gaps[2:] != 0.0)
    # the same with a constant run that ends in the middle of a later block
    seqs = [_leading_run_periodic(BLOCK + 9), KroneckerSequence("sqrt2-1")]
    rep = statind_test(seqs, battery, [BLOCK, BLOCK + 9, BLOCK + 10,
                                       3 * BLOCK + 5], 0.01)
    gaps = rep.gaps[0]
    assert np.all(gaps[:2] == 0.0)
    assert np.all(gaps[2:] != 0.0)


# schedule points at block edges and one either side
EDGE_POINTS = tuple(k * BLOCK + d for k in range(1, 6) for d in (-1, 0, 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6 * BLOCK)
                | st.sampled_from(EDGE_POINTS),
                min_size=1, max_size=8, unique=True).map(sorted))
def test_block_pieces_give_each_point_its_prefix(schedule):
    # a block's sums are added into the points past its start; the pieces
    # of the blocks give each of them exactly the indices 1..p, in block
    # order
    pieces = {p: [] for p in schedule}
    for start in range(0, schedule[-1], BLOCK):
        got = {}
        for length, lo, hi in independence._block_cuts(schedule, start):
            for j in range(lo, hi):
                assert j not in got
                got[j] = (start + 1, start + length)
        assert sorted(got) == [j for j, p in enumerate(schedule) if p > start]
        for j, piece in got.items():
            pieces[schedule[j]].append(piece)
    for p, got in pieces.items():
        assert got == [(lo + 1, min(lo + BLOCK, p))
                       for lo in range(0, p, BLOCK)]


NON_FINITE = {
    "nan": lambda x: np.where(x > 0.999, np.nan, x),
    "+inf": lambda x: np.where(x > 0.999, np.inf, x),
    "+-inf": lambda x: np.where(x > 0.999, np.inf,
                                np.where(x < 0.001, -np.inf, x)),
}


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_battery_values_are_named(bad):
    # the schedule test reached a verdict on a NaN gap, which the CLI
    # failed to serialize naming nothing
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("golden")]
    members = (NamedFunction("x", IDENT), NamedFunction("bad", bad))
    message = (r"^battery member bad is not finite on {} within its first "
               r"5000 terms$")
    with pytest.raises(ValueError, match=message.format(
            re.escape(seqs[0].label))):
        statind_test(seqs, FunctionBattery(members), [100, 5000], 0.01)
    with pytest.raises(ValueError, match=message.format(
            re.escape(seqs[1].label))):
        delta_form(seqs, members, 5000)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_declared_constant_is_named(value):
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("golden")]
    battery = FunctionBattery((NamedFunction("x", IDENT), NamedFunction(
        "c", lambda x: np.full(np.shape(x), value), constant=value)))
    with pytest.raises(ValueError, match=r"^battery member c is not finite"):
        statind_test(seqs, battery, [100, 5000], 0.01)


BLAS_PROBE = """
import hashlib
import numpy as np
from statindep import KroneckerSequence, VanDerCorputSequence, default_battery
from statindep import statind_test
rep = statind_test([KroneckerSequence("sqrt2-1"), VanDerCorputSequence(3),
                    KroneckerSequence("golden")], default_battery(),
                   [{points}], 0.01)
values = np.stack([rep.deltas, rep.products], axis=1)
print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_blas_threads():
    # the kernel makes no BLAS call, so its bits cannot follow the BLAS
    # library's thread count
    code = BLAS_PROBE.format(points=", ".join(map(str, BLOCK_POINTS)))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from((KroneckerSequence("sqrt2-1"),
                                 VanDerCorputSequence(3),
                                 ConstantSequence(0.37),
                                 _leading_run_periodic(40))),
                min_size=1, max_size=3),
       st.lists(st.sampled_from(KERNEL_MEMBERS), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=600)
       | st.sampled_from(BLOCK_POINTS[:3]))
def test_delta_within_blocked_summation_bound_of_exact(seqs, funcs, n):
    # exact rational average of the products of the float64 values; the
    # rounding of m products, a division and any summation order within a
    # block of b terms and across K block sums is at most
    # gamma(b + K + 2m) * mean |term| (Higham, SIAM J. Sci. Comput. 1993)
    funcs = funcs[:len(seqs)]
    columns = [np.broadcast_to(np.asarray(f(s.prefix(n)),
                                          dtype=np.float64), (n,))
               for s, f in zip(seqs, funcs)]
    exact = Fraction(0)
    size = Fraction(0)
    for k in range(n):
        term = Fraction(1)
        for column in columns:
            term *= Fraction(float(column[k]))
        exact += term
        size += abs(term)
    exact, size = exact / n, size / n
    steps = min(n, BLOCK) + -(-n // BLOCK) + 2 * len(seqs)
    gamma = steps * 2.0 ** -53 / (1 - steps * 2.0 ** -53)
    delta = delta_form(seqs, funcs, n)
    assert abs(Fraction(delta) - exact) <= Fraction(gamma) * size


# -- memory of the schedule test ---------------------------------------------

# about 13 rows of one block are live at the peak of a pair (10 varying
# members, the sequences' chunks and a member's temporaries): 1.1 MB
PEAK_LIMIT = 3 << 19  # 1.5 MiB


def _statind_peak(seqs, n):
    tracemalloc.start()
    try:
        statind_test(seqs, default_battery(), [n // 16, n // 4, n], 0.01)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the benchmark's schedule-quad sequences
QUAD = (KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1"),
        KroneckerSequence("golden"), VanDerCorputSequence(3))


@pytest.mark.parametrize("seqs, limit", [
    ((make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")), PEAK_LIMIT),
    # 20 varying members and the 10 product-buffer rows of slots 1 and 2,
    # with the chunks and temporaries: about 3.1 MB
    (QUAD, 7 << 19),  # 3.5 MiB
], ids=["pair", "quad"])
def test_statind_test_peak_memory_is_bounded(seqs, limit):
    # the kernel generates the values and holds block matrices and buffers
    # of one block, never a column or product of length N, so
    # its peak does not grow with N
    small = _statind_peak(seqs, 1 << 18)
    large = _statind_peak(seqs, 1 << 20)
    assert large <= small + (64 << 10), (small, large)
    assert large <= limit, large


def test_one_einsum_per_group_and_later_slot(monkeypatch):
    # one block of four sequences with three varying members each: the
    # block table contracts each later slot with every product row of a
    # slot at once, 6 + 3*3 + 9*1 + 3*1 calls, where one call per tuple
    # prefix made 3 + 9 + 27
    battery = FunctionBattery(tuple(default_battery().member(name)
                                    for name in ("x", "x2", "cos2pix")))
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(forkwalk, "usable_cpus", lambda: [0])
    monkeypatch.setattr(np, "einsum", counted)
    statind_test(list(QUAD), battery, [BLOCK], 0.01)
    assert len(calls) == 27


def test_each_varying_member_is_evaluated_once_a_step(monkeypatch):
    # four schedule points inside the first block, one inside the second
    # and one inside the third: each step evaluates each varying member
    # once, over its longest cut, where each cut used to evaluate it again
    calls = []

    def counted(name, fn):
        return NamedFunction(name, lambda x: (calls.append(x.size), fn(x))[1])

    battery = FunctionBattery((counted("x", IDENT),
                               counted("x2", lambda x: IDENT(x) ** 2)))
    runs = independence._constant_runs
    monkeypatch.setattr(independence, "_constant_runs",
                        lambda *args: (runs(*args), calls.clear())[0])
    monkeypatch.setattr(forkwalk, "usable_cpus", lambda: [0])
    seqs = [KroneckerSequence("sqrt2-1"), VanDerCorputSequence(2)]
    schedule = [5, 100, 4000, _CHUNK - 1, _CHUNK + 7, 2 * _CHUNK + 3]
    rep = statind_test(seqs, battery, schedule, 0.01)
    assert calls == [_CHUNK] * 8 + [3] * 4
    # and every point still reads the single-tuple forms' bits
    for i, label in enumerate(rep.labels):
        funcs = [battery.member(name) for name in label.split("*")]
        for k, n in enumerate(schedule):
            assert rep.deltas[i, k] == delta_form(seqs, funcs, n)


def test_count_grid_table_size_is_checked_before_any_grid(monkeypatch):
    # a count whose one joint row is too large fails before a single
    # grid is placed, a throwaway one included
    placed = []
    monkeypatch.setattr(independence, "continuity_grid",
                        lambda *args, **kwargs: placed.append(args))
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    with pytest.raises(ValueError, match="counting table of 1 checkpoints"):
        equivalence_harness(seqs, default_battery(), kappa_family_builder(1000),
                            [100, 1000], 0.02, grid=10 ** 6)
    assert placed == []


def _harness_peak(n):
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    family = [SubsequenceIndex(np.linspace(1, n, 64).astype(np.int64),
                               name="spread"),
              SubsequenceIndex(2 ** np.arange(0, n.bit_length()), name="pow2")]
    tracemalloc.start()
    try:
        equivalence_harness(seqs, default_battery(), family,
                            [n // 16, n // 4, n], 0.01,
                            grid=np.linspace(0.1, 0.9, 9))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_equivalence_harness_peak_memory_is_bounded():
    # one walk generates both sequences for the schedule test and the
    # counting table; nothing of length N is held
    small, large = _harness_peak(1 << 18), _harness_peak(1 << 20)
    assert large <= small + (64 << 10), (small, large)
    assert large <= PEAK_LIMIT, large


@pytest.fixture
def generation_log(monkeypatch, tmp_path):
    """``watch(*seqs)`` counts the terms each sequence generates, here and
    in a forked worker alike: every ``_eval_batch`` call appends one line
    to a file opened with O_APPEND.  ``totals()`` sums them per label."""
    path = tmp_path / "generated.log"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def watch(*seqs):
        for seq in seqs:
            real = seq._eval_batch

            def counting(ns, label=seq.label, real=real):
                os.write(fd, f"{label}\t{ns.size}\n".encode())
                return real(ns)

            monkeypatch.setattr(seq, "_eval_batch", counting)

    def totals():
        out = {}
        for line in path.read_text().splitlines():
            label, size = line.split("\t")
            out[label] = out.get(label, 0) + int(size)
        return out

    yield SimpleNamespace(watch=watch, totals=totals)
    os.close(fd)


def test_harness_generates_each_index_once(generation_log):
    # the constant-run scan reads one chunk of each Kronecker sequence,
    # and the one walk reads the rest for both tests, its odd steps in a
    # forked worker when there is one
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    generation_log.watch(*seqs)
    depth = 40_000
    family = kappa_family_builder(depth)
    rep = equivalence_harness(seqs, default_battery(), family,
                              [100, 1000, 30_000], 0.02,
                              grid=np.linspace(0.1, 0.9, 9))
    assert all(o.tested for o in rep.outcomes)
    assert generation_log.totals() == {s.label: depth + _CHUNK for s in seqs}


def test_constant_run_scan_stops_at_the_value_set(generation_log):
    # cos2pix is constant on a 0/1 block sequence's two values, so the
    # scan reads one chunk of it instead of the whole prefix
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    generation_log.watch(*seqs)
    n = 1 << 20
    rep = statind_test(seqs, default_battery(), [n // 16, n], 0.01)
    generated = generation_log.totals()
    assert n < generated[seqs[0].label] <= n + _CHUNK
    assert generated[seqs[1].label] == n + _CHUNK
    # and its means are still the constant's, cos(0) = cos(2 pi) = 1.0
    row = rep.labels.index("cos2pix*one")
    assert np.all(rep.products[row] == 1.0)
    assert np.all(rep.deltas[row] == 1.0)


@pytest.mark.parametrize("seq", [
    make_block(0.0, 1.0, 2), make_block(0.2, 0.9, 3),
    PeriodicSequence([0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.3]),
    ConstantSequence(0.5), ConstantSequence(1.0),
    AffineImageSequence(make_block(0.0, 1.0, 2), -1.0, 1.0),
    AffineImageSequence(PeriodicSequence([0.1, 0.6]), 0.5, 0.25, UNIT)],
    ids=lambda s: s.label)
def test_battery_on_a_value_set_equals_its_values_on_chunks(seq):
    # the scan's shortcut evaluates each member once per value; bit for
    # bit, that is its value wherever the value sits in a full chunk
    values = seq.value_set()
    chunks = [c for c in seq.chunks(0, 4 * _CHUNK) if c.size == _CHUNK]
    for f in default_battery(seq.interval):
        on_set = independence._apply(f, values)
        for chunk in chunks:
            on_chunk = independence._apply(f, chunk)
            where = np.searchsorted(values, chunk)
            assert _same_bits(values[where], chunk)
            assert _same_bits(on_set[where], on_chunk), f.name


def test_harness_joint_rows_that_do_not_fit_take_walks_of_their_own(
        monkeypatch):
    # The walk keeps one table per distinct grid, of every member's last
    # `window` checkpoints, within MAX_TABLE_CELLS in all: with room for
    # the first member's rows only, each member with a row outside them is
    # tested by kappa_independence_test after the schedule test, with the
    # same report.
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1"),
            KroneckerSequence("golden"), VanDerCorputSequence(2),
            VanDerCorputSequence(3)]
    battery = FunctionBattery(default_battery().members[:2])
    family = kappa_family_builder(2000)
    grid = np.array([0.3, 0.5, 0.7])

    def run():
        return canonical_json(equivalence_harness(
            seqs, battery, family, [100, 2000], 0.05, grid=grid).to_json_obj())

    want = run()
    own_walks = []
    real = independence.kappa_independence_test

    def spy(seqs, kappa, *args, **kwargs):
        own_walks.append(kappa.label)
        return real(seqs, kappa, *args, **kwargs)

    monkeypatch.setattr(independence, "kappa_independence_test", spy)
    window = independence.DEFAULT_WINDOW
    for module in (independence, density_module):
        monkeypatch.setattr(module, "MAX_TABLE_CELLS", window * 4 ** 5)
    assert run() == want
    assert sorted(own_walks) == sorted(_rows_outside_the_first(family,
                                                               window))
    assert 0 < len(own_walks) < len(family)


def _rows_outside_the_first(family, window):
    """Labels of the members with a last-window checkpoint that is not
    among the first member's."""
    first = set(family[0].checkpoints[-window:].tolist())
    return [k.label for k in family
            if not first.issuperset(k.checkpoints[-window:].tolist())]


@pytest.mark.parametrize("grid", [np.linspace(0.1, 0.9, 9),
                                  np.array([0.25, 0.5, 0.75]), 5],
                         ids=["deciles", "fixed", "count"])
def test_harness_reads_only_the_last_window_of_each_index(grid):
    # built as its last `window` checkpoints, the default family gives the
    # same report and CSV text; the block sequence is measurable along
    # some members only, so tested and skipped members both occur
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    window, depth = 7, 4096

    def texts(family):
        rep = equivalence_harness(seqs, default_battery(), family,
                                  [100, 1000, depth], 0.02, grid=grid,
                                  window=window)
        return (canonical_json(rep.to_json_obj()),
                csv_text(["N", "tuple label", "delta", "product", "gap"],
                         rep.statind.gap_columns()),
                csv_text(["kappa", "corner_1", "corner_2", "density",
                          "product", "residual"],
                         *[o.report.columns() for o in rep.outcomes
                           if o.tested]))

    want = texts(kappa_family_builder(depth))
    assert texts(kappa_family_builder(depth, last=window)) == want
    outcomes = json.loads(want[0])["kappa_outcomes"]
    assert {o["tested"] for o in outcomes} == {True, False}


def test_harness_rejects_a_short_tail_as_it_rejects_the_member():
    # pow2 at depth 1000 has 10 checkpoints, fewer than window 11
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    errors = []
    for family in (kappa_family_builder(1000),
                   kappa_family_builder(1000, last=11)):
        with pytest.raises(CheckpointError) as err:
            equivalence_harness(seqs, default_battery(), family, [100, 1000],
                                0.02, window=11)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == (
        "index pow2 has 10 checkpoints; need at least window = 11")


def test_count_grid_harness_generates_each_index_once(generation_log):
    # empirical CDFs along every member and the pool, the extraction and
    # the schedule walk all read one kept prefix per sequence
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    generation_log.watch(*seqs)
    pool = SubsequenceIndex(np.unique(np.round(
        2 ** (np.arange(8, 8 * 17) / 8)).astype(np.int64)), name="pool")
    family = [Extraction(pool), naturals(30_000, 300)]
    rep = equivalence_harness(seqs, default_battery(), family,
                              [100, 1000, 20_000], 0.02, grid=5)
    assert len(rep.outcomes) == 2
    assert generation_log.totals() == {s.label: pool.deepest for s in seqs}


def _two_walk_extract(seqs, extraction, schedule, tol, grid):
    kappa = helly_extract(seqs, extraction.pool, grid, tol=extraction.tol,
                          window=extraction.window)
    return equivalence_harness(seqs, default_battery(), [kappa], schedule,
                               tol, grid=grid)


@pytest.mark.parametrize("grid", [np.linspace(0.1, 0.9, 9), 5])
def test_harness_extraction_equals_the_two_walk_route(grid):
    # extracting from the counts of the schedule walk gives the report of
    # extracting first and testing the extracted index after
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    pool = SubsequenceIndex(np.unique(np.round(
        2 ** (np.arange(8, 8 * 17) / 8)).astype(np.int64)), name="pool")
    extraction = Extraction(pool)
    schedule = [100, 1000, 50_000]
    got = equivalence_harness(seqs, default_battery(), [extraction],
                              schedule, 0.02, grid=grid)
    if isinstance(grid, int):
        points = continuity_grid([empirical_cdf(s, pool) for s in seqs], grid)
        kappa = helly_extract(seqs, pool, points)
        want = equivalence_harness(seqs, default_battery(), [kappa],
                                   schedule, 0.02, grid=grid)
    else:
        want = _two_walk_extract(seqs, extraction, schedule, 0.02, grid)
    assert [o.kappa_label for o in got.outcomes] == ["extract(pool)"]
    assert canonical_json(got.to_json_obj()) == \
        canonical_json(want.to_json_obj())


def test_harness_extraction_when_the_pool_table_does_not_fit(monkeypatch):
    # a joint table over the whole pool would exceed MAX_TABLE_CELLS while
    # the marginal pool tables and the extracted index's rows fit: the
    # extraction is made first, in a walk of its own
    for module in (independence, density_module):
        monkeypatch.setattr(module, "MAX_TABLE_CELLS", 1000)
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    pool = SubsequenceIndex(np.unique(np.round(
        2 ** (np.arange(48, 112) / 8)).astype(np.int64)), name="pool")
    extraction = Extraction(pool, window=5)
    grid = np.linspace(0.1, 0.9, 9)
    assert len(pool) * 10 ** 2 > 1000 >= len(pool) * 10
    got = equivalence_harness(seqs, default_battery(), [extraction],
                              [100, 5000], 0.02, grid=grid)
    want = _two_walk_extract(seqs, extraction, [100, 5000], 0.02, grid)
    assert canonical_json(got.to_json_obj()) == \
        canonical_json(want.to_json_obj())


def test_harness_extraction_with_a_sequence_shorter_than_the_pool():
    # a finite sequence that ends before the pool's deepest checkpoint is
    # counted only as far as it reaches, in an extraction of its own
    first = FileSequence(np.repeat([0.0, 1.0], [60, 40]), UNIT, "first.txt")
    short = FileSequence(np.linspace(0.0, 1.0, 60), UNIT, "short.txt")
    extraction = Extraction(SubsequenceIndex(range(1, 101)), tol=0.01)
    grid = np.array([0.5])
    got = equivalence_harness([first, short], default_battery(),
                              [extraction], [10, 60], 0.02, grid=grid)
    want = _two_walk_extract([first, short], extraction, [10, 60], 0.02,
                             grid)
    assert canonical_json(got.to_json_obj()) == \
        canonical_json(want.to_json_obj())


def test_unit_interval_x_shares_the_prefix():
    values = KroneckerSequence("sqrt2-1").prefix(1000)
    x = default_battery().member("x")
    assert np.shares_memory(x(values), values)
    assert _same_bits(x(values), values)
    # a scalar still comes back as a numpy scalar, not a 0-d array
    assert type(x(0.25)) is np.float64
    assert type(x(np.float64(-0.0))) is np.float64
    assert _same_bits(x(-0.0), -0.0)
    # off [0, 1], and on [-0.0, 1] (where x - a maps -0.0 to +0.0), the
    # normalizer computes (x - a) / length
    for interval in (Interval(0.0, 2.0), Interval(-0.0, 1.0)):
        t = default_battery(interval).member("x")
        assert not np.shares_memory(t(values), values)
        assert _same_bits(t(values), (values - interval.a) / interval.length)
        assert _same_bits(t(-0.0), (-0.0 - interval.a) / interval.length)


# -- the two-process walk ----------------------------------------------------

WIDTH = BLOCK  # indices per walk step


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made from now on, in a list; and every
    walk of more than one step forks, however fast its first step."""
    monkeypatch.setattr(forkwalk, "FORK_MIN_S", 0.0)
    calls = []
    real = os.fork

    def spy():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return calls


def _cpu_mask():
    return getattr(os, "sched_getaffinity", lambda pid: None)(0)


MASK = _cpu_mask()


def _no_child_left():
    """No worker is left, and this process runs where it ran before."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _cpu_mask() == MASK
    return True


def _serial_and_forked(monkeypatch, forks, run, forked):
    """``run()`` on one usable CPU, then as it comes; asserts that only
    the second forks, and only when ``forked``."""
    with monkeypatch.context() as serial:
        serial.setattr(forkwalk, "usable_cpus", lambda: [0])
        want = run()
    assert forks == []
    got = run()
    assert len(forks) == forked
    assert _no_child_left()
    return want, got


def _statind_digest(seqs, schedule):
    rep = statind_test(seqs, default_battery(), schedule, 0.01)
    values = np.stack([rep.deltas, rep.products], axis=1)
    return hashlib.sha256(values.tobytes()).hexdigest()


WALKS = {1: [100, WIDTH], 2: [100, WIDTH + 1],
         3: [1000, 2 * WIDTH + 7, 3 * WIDTH],
         64: [BLOCK + 3, 40 * WIDTH, 64 * WIDTH]}


@pytest.mark.parametrize("steps", sorted(WALKS))
def test_worker_moves_no_bit_of_the_schedule_test(monkeypatch, forks, steps):
    schedule = WALKS[steps]
    file = FileSequence(np.random.default_rng(3).random(schedule[-1]), UNIT,
                        "random")
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1"), file]
    want, got = _serial_and_forked(
        monkeypatch, forks, lambda: _statind_digest(seqs, schedule),
        steps > 1)
    assert got == want


@pytest.mark.parametrize("steps", sorted(WALKS))
def test_worker_moves_no_bit_of_the_harness(monkeypatch, forks, steps):
    # tallies deeper than the schedule, a finite sequence, an extraction
    schedule = WALKS[steps][:-1] + [WALKS[steps][-1] - 50]
    depth = WALKS[steps][-1]
    file = FileSequence(np.random.default_rng(4).random(depth), UNIT,
                        "random")
    seqs = [make_block(0.0, 1.0, 2), file]
    pool = SubsequenceIndex(np.unique(np.linspace(1, depth, 80).astype(int)),
                            name="pool")
    family = [naturals(depth, max(1, depth // 300)),
              Extraction(pool, tol=0.1)]

    def run():
        return canonical_json(equivalence_harness(
            seqs, default_battery(), family, schedule, 0.02,
            grid=np.linspace(0.1, 0.9, 9)).to_json_obj())

    want, got = _serial_and_forked(monkeypatch, forks, run, steps > 1)
    assert got == want


def test_worker_counts_its_steps(monkeypatch, forks):
    # the worker's steps feed the tallies as this process's would
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    depth = 5 * BLOCK + 11

    def run():
        return canonical_json(equivalence_harness(
            seqs, default_battery(), [naturals(depth, 13)], [100, depth - 99],
            0.02, grid=np.linspace(0.1, 0.9, 9)).to_json_obj())

    want, got = _serial_and_forked(monkeypatch, forks, run, True)
    assert got == want


def test_a_failed_fork_walks_alone(monkeypatch, forks):
    seqs = [KroneckerSequence("golden"), KroneckerSequence("sqrt2-1")]
    want = _statind_digest(seqs, [100, 3 * WIDTH])

    def no_fork():
        forks.append(1)
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _statind_digest(seqs, [100, 3 * WIDTH]) == want
    assert len(forks) == 2 and _no_child_left()


def test_no_worker_where_children_are_reaped_for_us(forks):
    # with SIGCHLD ignored the kernel reaps a worker, so none is made
    seqs = [KroneckerSequence("golden"), KroneckerSequence("sqrt2-1")]
    want = _statind_digest(seqs, [100, 3 * WIDTH])
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _statind_digest(seqs, [100, 3 * WIDTH]) == want
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1 and _no_child_left()


def test_worker_moves_no_bit_of_a_count_grid_harness(monkeypatch, forks):
    # every sequence kept whole (MaterializedSequence) for the CDFs
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    family = [naturals(3 * WIDTH, 97)]

    def run():
        return canonical_json(equivalence_harness(
            seqs, default_battery(), family, [100, 2 * WIDTH + 5], 0.02,
            grid=5).to_json_obj())

    want, got = _serial_and_forked(monkeypatch, forks, run, True)
    assert got == want


def _counting_route_harness(monkeypatch):
    # the harness's own-walk fallback: with room for the first member's
    # rows only, every member with a row outside them is tested by
    # kappa_independence_test, in a walk of its own
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1"),
            KroneckerSequence("golden"), VanDerCorputSequence(2),
            VanDerCorputSequence(3)]
    battery = FunctionBattery(default_battery().members[:2])
    family = kappa_family_builder(3 * WIDTH)
    window = independence.DEFAULT_WINDOW
    for module in (independence, density_module):
        monkeypatch.setattr(module, "MAX_TABLE_CELLS", window * 4 ** 5)
    own = len(_rows_outside_the_first(family, window))
    return (lambda: canonical_json(equivalence_harness(
        seqs, battery, family, [100, 3 * WIDTH], 0.05,
        grid=np.array([0.3, 0.5, 0.7])).to_json_obj())), 1 + own


def _counting_route(name, monkeypatch):
    """``(run, forks)``: a counting-only walk of more than one step, as
    bytes, and the number of walks it forks for."""
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    kappa = naturals(5 * _CHUNK + 3, 97)
    deciles = np.linspace(0.1, 0.9, 9)
    if name == "grid_counts":
        return (lambda: grid_counts(seqs, deciles,
                                    kappa.checkpoints).tobytes()), 1
    if name == "detect_measurable":
        return (lambda: canonical_json(detect_measurable(
            seqs[1], kappa, deciles, tol=0.5).to_json_obj())), 1
    if name == "helly_extract":
        # a finite sequence that ends inside the pool is counted only up
        # to its end; the ramp's first pass keeps the pool's first 55%,
        # which end before it
        depth = kappa.deepest
        ramp = FileSequence(np.arange(1, depth + 1) / depth, UNIT, "ramp")
        short = FileSequence(np.random.default_rng(7).random(depth * 3 // 5),
                             UNIT, "short")
        return (lambda: helly_extract([ramp, short], kappa, np.array([0.5]),
                                      tol=0.1).checkpoints.tobytes()), 1
    if name == "kappa_independence_test":
        return (lambda: canonical_json(kappa_independence_test(
            seqs[1:] + [KroneckerSequence("sqrt3-1")], kappa, deciles,
            0.02).to_json_obj())), 1
    return _counting_route_harness(monkeypatch)


@pytest.mark.parametrize("name", ["grid_counts", "detect_measurable",
                                  "helly_extract", "kappa_independence_test",
                                  "harness_own_walk"])
def test_worker_moves_no_bit_of_a_counting_walk(monkeypatch, forks, name):
    # every counting-only route walks through forkwalk.steps, and a
    # worker that counts every other step gives the one-CPU bytes
    run, forked = _counting_route(name, monkeypatch)
    want, got = _serial_and_forked(monkeypatch, forks, run, forked)
    assert got == want


@pytest.mark.parametrize("route", ["fill", "schedule walk"])
def test_forked_walk_counts_step_zero_once(forks, route):
    # the worker starts from zeroed tables, so indices of step 0, counted
    # before the fork, are not counted again when its tables come back
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    points = np.linspace(0.1, 0.9, 9)
    checkpoints = [5, 100, _CHUNK - 1, _CHUNK + 3, 2 * WIDTH + 7,
                   3 * WIDTH + 11]
    tally = density_module.Tally(points, checkpoints, [0, 1])
    if route == "fill":
        density_module.fill(seqs, [tally])
    else:
        statind_test(seqs, default_battery(), [100, WIDTH + 5], 0.01,
                     tallies=[tally])
    assert forks and _no_child_left()
    assert np.array_equal(tally.table(),
                          brute_grid_counts(seqs, points, checkpoints))


def test_a_tally_error_in_the_worker_is_raised_at_its_step(monkeypatch,
                                                           forks):
    # Tally.add fails at step 1, which the worker counts, and at step 2,
    # which this process counts: step 1's error is raised, as alone
    real = density_module.Tally.add

    def add(self, lo, values):
        if lo in (_CHUNK, 2 * _CHUNK):
            raise ArithmeticError(f"no count at {lo}")
        return real(self, lo, values)

    monkeypatch.setattr(density_module.Tally, "add", add)
    seqs = [KroneckerSequence("golden")]

    def run():
        return _error_of(lambda: grid_counts(seqs, np.array([0.5]),
                                             [4 * _CHUNK]))

    want, got = _serial_and_forked(monkeypatch, forks, run, 1)
    assert got == want == (ArithmeticError, f"no count at {_CHUNK}")


def test_fill_without_tallies_walks_nothing(forks):
    seq = KroneckerSequence("golden")
    calls = []
    seq._eval_batch = lambda ns: calls.append(ns.size)
    density_module.fill([seq], [])
    assert calls == [] and forks == []


def _spiked(at, length=3 * WIDTH, value=2.0):
    values = np.random.default_rng(5).random(length)
    values[[n - 1 for n in at]] = value
    return FileSequence(values, UNIT, "spiked")


def _error_of(run):
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no exception")


@pytest.mark.parametrize("at", [[WIDTH + 7], [2 * WIDTH + 7],
                                [WIDTH + 9, 2 * WIDTH + 7], [BLOCK + 7]],
                         ids=["worker", "parent", "both", "first step"])
def test_walk_errors_are_the_serial_walk_errors(monkeypatch, forks, at):
    # a RangeViolation in a worker step, in a later step here, in both, and
    # in the first step, which runs before any fork: the first in step
    # order is raised, with its own type and message
    seqs = [KroneckerSequence("golden"), _spiked(at)]

    def run():
        return _error_of(lambda: statind_test(seqs, default_battery(),
                                              [100, 3 * WIDTH], 0.01))

    want, got = _serial_and_forked(monkeypatch, forks, run, at[0] > WIDTH)
    assert got == want
    assert want[0] is RangeViolation and f"at n={at[0]} " in want[1]


def test_a_battery_member_error_in_the_worker_is_raised_here(monkeypatch,
                                                              forks):
    seqs = [KroneckerSequence("golden"), _spiked([WIDTH + 3], value=0.125)]

    def picky(x):
        if np.any(np.asarray(x) == 0.125):
            raise ArithmeticError("met 0.125")
        return np.asarray(x, dtype=np.float64)

    battery = FunctionBattery((NamedFunction("picky", picky),))

    def run():
        return _error_of(lambda: statind_test(seqs, battery,
                                              [100, 3 * WIDTH], 0.01))

    want, got = _serial_and_forked(monkeypatch, forks, run, True)
    assert got == want == (ArithmeticError, "met 0.125")


def test_a_walk_past_a_finite_end_fails_before_any_fork(forks):
    # tallies deeper than a finite sequence: the walk's own check
    seqs = [KroneckerSequence("golden"), _spiked([], length=2 * WIDTH)]
    with pytest.raises(SequenceExhausted, match="beyond sequence length"):
        equivalence_harness(seqs, default_battery(), [naturals(3 * WIDTH, 7)],
                            [100, WIDTH + 5], 0.02, grid=np.array([0.5]))
    assert forks == []


def test_no_worker_outlives_an_abandoned_walk(monkeypatch, forks):
    # an exception in this process's in-order apply, while the worker may
    # be mid-step, leaves no child behind
    class Abandon(Exception):
        pass

    real = density_module.Tally.add

    def add(self, lo, values):
        if lo >= 2 * WIDTH:
            raise Abandon()
        return real(self, lo, values)

    monkeypatch.setattr(density_module.Tally, "add", add)
    seqs = [KroneckerSequence("golden"), KroneckerSequence("sqrt2-1")]
    with pytest.raises(Abandon):
        equivalence_harness(seqs, default_battery(), [naturals(9 * WIDTH, 5)],
                            [100, 9 * WIDTH], 0.02, grid=np.array([0.5]))
    assert forks and _no_child_left()


def test_a_failing_walk_does_not_wait_for_the_worker(forks):
    # this process fails at step 2 while the worker is deep in a slow
    # step 3: the worker is killed, not waited for
    values = np.random.default_rng(6).random(4 * WIDTH)
    values[2 * WIDTH + 5] = 2.0
    values[3 * WIDTH + 5] = 0.125
    seqs = [FileSequence(values, UNIT, "spiked")]

    def slow(x):
        if np.any(np.asarray(x) == 0.125):
            time.sleep(30)
        return np.asarray(x, dtype=np.float64)

    battery = FunctionBattery((NamedFunction("slow", slow),))
    started = time.monotonic()
    with pytest.raises(RangeViolation, match=f"at n={2 * WIDTH + 6} "):
        statind_test(seqs, battery, [100, 4 * WIDTH], 0.01)
    assert time.monotonic() - started < 10
    assert forks and _no_child_left()


def test_walk_runs_each_process_on_a_cpu_of_its_own(tmp_path, forks):
    # while they walk, this process runs on the first usable CPU and the
    # worker on the second; this process's CPU mask is restored after
    cpus = forkwalk.usable_cpus()
    if len(cpus) < 2:
        pytest.skip("needs two usable CPUs")
    fd = os.open(tmp_path / "cpus.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def where(x):
        os.write(fd, f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n"
                 .encode())
        return np.asarray(x, dtype=np.float64)

    battery = FunctionBattery((NamedFunction("where", where),))
    try:
        statind_test([KroneckerSequence("golden")], battery,
                     [100, 4 * WIDTH], 0.01)
    finally:
        os.close(fd)
    seen = set((tmp_path / "cpus.log").read_text().splitlines())
    assert f"{os.getpid()} {cpus[:1]}" in seen
    assert {line.split(" ", 1)[1] for line in seen
            if not line.startswith(f"{os.getpid()} ")} == {str(cpus[1:2])}
    assert forks and _no_child_left()


def test_worker_only_for_a_walk_long_enough_to_pay_for_it(monkeypatch):
    # at the default FORK_MIN_S, a short walk of cheap steps stays here,
    # and a walk whose first step projects the rest past it forks
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: (forks.append(1), real())[1])
    seqs = [KroneckerSequence("golden")]
    statind_test(seqs, default_battery(), [100, 3 * WIDTH], 0.01)
    assert forks == []

    def slow(x):
        time.sleep(forkwalk.FORK_MIN_S / 4)
        return np.asarray(x, dtype=np.float64)

    battery = FunctionBattery((NamedFunction("slow", slow),))
    statind_test(seqs, battery, [100, 6 * WIDTH], 0.01)
    assert forks == [1] and _no_child_left()


def test_serial_walk_when_a_worker_cannot_help(monkeypatch, forks):
    seqs = [KroneckerSequence("golden"), KroneckerSequence("sqrt2-1")]
    with monkeypatch.context() as patch:
        patch.setattr(forkwalk, "usable_cpus", lambda: [0])
        want = _statind_digest(seqs, [100, 3 * WIDTH])
    with monkeypatch.context() as patch:
        patch.delattr(os, "sched_getaffinity")
        assert forkwalk.usable_cpus() == []
        assert _statind_digest(seqs, [100, 3 * WIDTH]) == want
    with monkeypatch.context() as patch:
        patch.delattr(forkwalk.os, "fork")
        assert _statind_digest(seqs, [100, 3 * WIDTH]) == want
    with monkeypatch.context() as patch:
        patch.setattr(forkwalk.threading, "active_count", lambda: 2)
        assert _statind_digest(seqs, [100, 3 * WIDTH]) == want
    assert _statind_digest(seqs, [100, WIDTH]) is not None  # one step
    assert forks == []
    assert _statind_digest(seqs, [100, 3 * WIDTH]) == want
    assert len(forks) == 1 and _no_child_left()

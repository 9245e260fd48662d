"""Multilinear form, rectangle test, and equivalence harness tests."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _brute import BLOCK, brute_forms, brute_rectangle_count
from statindep import (
    AffineImageSequence,
    ConstantSequence,
    FunctionBattery,
    Interval,
    IntervalError,
    KroneckerSequence,
    MeasurabilityError,
    NamedFunction,
    PeriodicSequence,
    SubsequenceIndex,
    UNIT,
    VanDerCorputSequence,
    default_battery,
    delta_form,
    empirical_cdf,
    equivalence_harness,
    indicator_below,
    kappa_family_builder,
    kappa_independence_test,
    make_block,
    product_form,
    statind_test,
    stieltjes,
)
from statindep.density import grid_counts
from statindep import independence
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
        a = v1.prefix(n).values
        b = v2.prefix(n).values
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
        assert rep.traces[0].gaps[-1] == pytest.approx(1 / 12, abs=0.005)

    def test_constant_factor_gap_exactly_zero(self):
        v = VanDerCorputSequence(2)
        c = ConstantSequence(0.37)
        rep = statind_test([v, c], default_battery(), [10, 100, 1000], 0.01)
        for trace in rep.traces:
            assert np.all(trace.gaps == 0.0)
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
        labels = [t.label for t in rep.traces]
        assert labels == sorted(labels)
        assert len(labels) == len(default_battery()) ** 2

    def test_gap_rows_shape(self):
        v1 = KroneckerSequence("sqrt2-1")
        battery = FunctionBattery((NamedFunction("x", IDENT),))
        rep = statind_test([v1], battery, [10, 20], 0.1)
        rows = rep.gap_rows()
        assert [(r[0], r[1]) for r in rows] == [(10, "x"), (20, "x")]
        for r in rows:
            assert r[4] == pytest.approx(r[2] - r[3], abs=0)


class TestKappaIndependence:
    def test_m1_residual_exactly_zero(self):
        v = KroneckerSequence("sqrt2-1")
        kappa = naturals(10 ** 4, 100)
        rep = kappa_independence_test([v], kappa,
                                      np.linspace(0.1, 0.9, 9), 0.02)
        assert np.all(rep.residuals == 0.0)
        assert rep.verdict == "independent"

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
        i = rep.corners.index((0.5, 0.5))
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

    @pytest.mark.parametrize("bad, error, message", [
        ({"window": 0}, ValueError, "window must be >= 1"),
        ({"grid": [0.5, 1.5]}, IntervalError,
         r"grid point 1\.5 outside \[0\.0, 1\.0\]"),
        ({"grid": [-0.5]}, IntervalError, "grid point -0.5 outside"),
        ({"grid": []}, ValueError, "grid must be nonempty"),
        ({"grid": 0}, ValueError, "count must be >= 1"),
        ({"atom_tol": 0.0}, ValueError, "atom_tol must be positive"),
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

    def test_each_member_tested_through_kappa_independence_test(
            self, monkeypatch):
        calls = []
        real = independence.kappa_independence_test

        def spy(seqs, kappa, grid, tol, **kwargs):
            calls.append((kappa.label, tol, kwargs))
            return real(seqs, kappa, grid, tol, **kwargs)

        monkeypatch.setattr(independence, "kappa_independence_test", spy)
        seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
        family = kappa_family_builder(4096)
        rep = equivalence_harness(seqs, default_battery(), family,
                                  [100, 1000, 4096], 0.02, window=4)
        assert sorted(c[0] for c in calls) == sorted(k.label for k in family)
        assert all(c[1:] == (0.04, {"window": 4}) for c in calls)
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
    by_name = {f.name: f for f in members}
    assert len(rep.traces) == len(members) ** len(seqs)
    for trace in rep.traces:
        funcs = [by_name[name] for name in trace.function_names]
        for k, n in enumerate(schedule):
            delta, product, varying = brute_forms(seqs, funcs, n)
            assert _same_bits(trace.deltas[k], delta), (trace.label, n)
            assert _same_bits(trace.products[k], product), (trace.label, n)
            if varying <= 1:
                assert trace.gaps[k] == 0.0, (trace.label, n)


def test_traces_equal_single_tuple_forms_bitwise():
    seqs = [_leading_run_periodic(5), KroneckerSequence("golden"),
            ConstantSequence(0.37)]
    battery = FunctionBattery(KERNEL_MEMBERS)
    schedule = [2, 5, 6, 40, 97, BLOCK + 1]
    rep = statind_test(seqs, battery, schedule, 0.01)
    by_name = {f.name: f for f in KERNEL_MEMBERS}
    for trace in rep.traces:
        funcs = [by_name[name] for name in trace.function_names]
        for k, n in enumerate(schedule):
            assert _same_bits(trace.deltas[k], delta_form(seqs, funcs, n))
            assert _same_bits(trace.products[k],
                              product_form(seqs, funcs, n))


def test_constant_pattern_changes_along_the_schedule():
    # "x" on the leading-run sequence is constant for N <= 5 and varies
    # after; its gap against a varying second slot is exactly zero only
    # while it is constant
    seqs = [_leading_run_periodic(5), KroneckerSequence("sqrt2-1")]
    battery = FunctionBattery((NamedFunction("x", IDENT),))
    rep = statind_test(seqs, battery, [3, 5, 6, 50], 0.01)
    gaps = rep.traces[0].gaps
    assert np.all(gaps[:2] == 0.0)
    assert np.all(gaps[2:] != 0.0)
    # the same with a constant run that ends in the middle of a later block
    seqs = [_leading_run_periodic(BLOCK + 9), KroneckerSequence("sqrt2-1")]
    rep = statind_test(seqs, battery, [BLOCK, BLOCK + 9, BLOCK + 10,
                                       3 * BLOCK + 5], 0.01)
    gaps = rep.traces[0].gaps
    assert np.all(gaps[:2] == 0.0)
    assert np.all(gaps[2:] != 0.0)


def test_whole_block_grouping_leaves_the_bits(monkeypatch):
    # per-row sums and contractions of a (blocks, BLOCK) group equal the
    # one-block ones, so the group size moves no bit
    seqs = [VanDerCorputSequence(3), KroneckerSequence("sqrt2-1"),
            _leading_run_periodic(2 * BLOCK + 7)]
    schedule = [BLOCK - 1, 2 * BLOCK + 7, 5 * BLOCK + 3, 11 * BLOCK]
    results = []
    for group in (1, 2, 3, 8):
        monkeypatch.setattr(independence, "_GROUP", group)
        rep = statind_test(seqs, default_battery(), schedule, 0.01)
        results.append(np.stack([np.array([t.deltas, t.products])
                                 for t in rep.traces]))
    for other in results[1:]:
        assert _same_bits(other, results[0])


BLAS_PROBE = """
import hashlib
import numpy as np
from statindep import KroneckerSequence, VanDerCorputSequence, default_battery
from statindep import statind_test
rep = statind_test([KroneckerSequence("sqrt2-1"), VanDerCorputSequence(3),
                    KroneckerSequence("golden")], default_battery(),
                   [{points}], 0.01)
values = np.array([[t.deltas, t.products] for t in rep.traces])
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
    columns = [np.broadcast_to(np.asarray(f(s.prefix(n).values),
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

# about 13 rows of one group of blocks are live at the peak here: 10
# varying members, the product buffers and a member's temporaries
PEAK_LIMIT = 16 * 8 * BLOCK * independence._GROUP


def _statind_peak(n):
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    for s in seqs:
        s.prefix(n)
    tracemalloc.start()
    try:
        statind_test(seqs, default_battery(), [n // 16, n // 4, n], 0.01)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_statind_test_peak_memory_is_bounded():
    # the kernel holds block matrices and buffers of one group of blocks,
    # never a column or product of length N, so its peak does not grow
    # with N
    small, large = _statind_peak(1 << 18), _statind_peak(1 << 20)
    assert large <= small + (64 << 10), (small, large)
    assert large <= PEAK_LIMIT, large


def test_unit_interval_x_shares_the_prefix():
    values = KroneckerSequence("sqrt2-1").prefix(1000).values
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

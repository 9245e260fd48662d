"""Multilinear form, rectangle test, and equivalence harness tests."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _brute import brute_rectangle_count
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
from statindep.density import grid_codes, grid_counts
from statindep.independence import MAX_TUPLE_ARITY

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
    codes = [grid_codes(s, n, points) for s in seqs]
    return int(grid_counts(codes, points.size, np.array([n]))[(0, *position)])


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


# -- the multilinear kernel against a per-(tuple, N) reference loop ----------

def _loop_constant_of(fx):
    if fx.size and bool(np.all(fx == fx.flat[0])):
        return float(fx.flat[0])
    return None


def _loop_delta(fx_list, N):
    term = None
    for fx in fx_list:
        if _loop_constant_of(fx[:N]) is None:
            term = fx[:N].copy() if term is None else term * fx[:N]
    out = float(np.sum(term) / N) if term is not None else 1.0
    for fx in fx_list:
        c = _loop_constant_of(fx[:N])
        if c is not None:
            out *= c
    return float(out)


def _loop_mean(fx, N):
    c = _loop_constant_of(fx[:N])
    if c is not None:
        return c
    return float(np.sum(fx[:N]) / N)


def _loop_traces(seqs, battery, schedule):
    """{label: (deltas, products)} by one O(N) pass per (tuple, N)."""
    n_max = schedule[-1]
    fx = [[np.asarray(f(s.prefix(n_max).values), dtype=np.float64)
           for f in battery] for s in seqs]
    out = {}
    for combo in itertools.product(range(len(battery)), repeat=len(seqs)):
        label = "*".join(battery.members[j].name for j in combo)
        deltas = np.asarray([
            _loop_delta([fx[i][j] for i, j in enumerate(combo)], n)
            for n in schedule])
        products = np.asarray([
            float(np.prod([_loop_mean(fx[i][j], n)
                           for i, j in enumerate(combo)]))
            for n in schedule])
        out[label] = (deltas, products)
    return out


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
)


@settings(max_examples=150, deadline=None)
@given(st.lists(KERNEL_SEQUENCES, min_size=1, max_size=MAX_TUPLE_ARITY),
       st.lists(st.sampled_from(KERNEL_MEMBERS), min_size=1, max_size=3,
                unique_by=lambda f: f.name),
       st.lists(st.integers(min_value=1, max_value=600), min_size=1,
                max_size=5, unique=True).map(sorted))
def test_kernel_bitwise_equals_per_tuple_loop(seqs, members, schedule):
    # sums past 128 terms go through more than one pairwise block
    battery = FunctionBattery(tuple(members))
    rep = statind_test(seqs, battery, schedule, 0.01)
    want = _loop_traces(seqs, battery, schedule)
    assert sorted(want) == [t.label for t in rep.traces]
    for trace in rep.traces:
        deltas, products = want[trace.label]
        assert _same_bits(trace.deltas, deltas), trace.label
        assert _same_bits(trace.products, products), trace.label


def test_traces_equal_single_tuple_forms_bitwise():
    seqs = [_leading_run_periodic(5), KroneckerSequence("golden"),
            ConstantSequence(0.37)]
    battery = FunctionBattery(KERNEL_MEMBERS)
    schedule = [2, 5, 6, 40, 97]
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


# -- memory of the schedule test ---------------------------------------------

def test_statind_test_peak_memory_is_bounded():
    # slot-0 columns are evaluated one at a time and "x" on [0, 1] shares
    # the prefix: the Kronecker slot keeps 4 varying columns, plus one
    # buffer, one block column and one temporary while the next is made
    # (7.0 x 8N; holding every column at once needs 10.0 x 8N)
    n = 1 << 20
    seqs = [make_block(0.0, 1.0, 2), KroneckerSequence("sqrt2-1")]
    for s in seqs:
        s.prefix(n)
    tracemalloc.start()
    try:
        statind_test(seqs, default_battery(), [n // 16, n // 4, n], 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 8 * n, peak / (8 * n)


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

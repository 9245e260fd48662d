"""Acceptance gate: seven criteria, one printed verdict line each.

Run `pytest -s tests/test_acceptance.py -v` to see the [C*] lines.  Each
criterion states its tolerances inline; timing limits are asserted where
the criterion carries one.
"""

import json
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import brute_rectangle_count
from statindep import (
    AffineImageSequence,
    KroneckerSequence,
    NamedFunction,
    PeriodicSequence,
    SubsequenceIndex,
    UNIT,
    VanDerCorputSequence,
    default_battery,
    delta_form,
    detect_measurable,
    empirical_cdf,
    equivalence_harness,
    helly_extract,
    indicator_below,
    kappa_family_builder,
    kappa_independence_test,
    make_block,
    product_form,
    sandwich_indicator,
    statind_test,
    step_envelope,
    stieltjes,
)
from statindep.density import grid_counts

DECILES = np.linspace(0.1, 0.9, 9)


def _finish(tag, detail, failures, elapsed=None, limit=None):
    if elapsed is not None and limit is not None and elapsed >= limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded {limit:.0f}s")
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\n[{tag}] {detail}{timing}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"[{tag}] " + "; ".join(failures)


def test_c1_exact_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    pool = [
        KroneckerSequence("sqrt2-1"),
        KroneckerSequence("sqrt3-1"),
        KroneckerSequence("golden"),
        VanDerCorputSequence(2),
        VanDerCorputSequence(3),
        PeriodicSequence([0.1, 0.6, 0.35, 0.8]),
    ]
    battery = default_battery(UNIT)
    names = [m.name for m in battery]
    failures = []
    for trial in range(100):
        m = int(rng.integers(1, 4))
        seqs = [pool[i] for i in rng.integers(0, len(pool), m)]
        corners = [float(x) for x in rng.uniform(0.05, 0.95, m)]
        N = int(rng.integers(1, 10 ** 4 + 1))

        # counting identity: delta over indicators is an exact integer
        # count divided once by N, so comparing against count/N is the
        # tolerance-free form of N*delta == count
        inds = [indicator_below(x) for x in corners]
        lhs = delta_form(seqs, inds, N)
        count = brute_rectangle_count(seqs, corners, N)
        if lhs != count / N:
            failures.append(
                f"trial {trial}: delta {lhs!r} != {count}/{N}")

        # product of averages == product of integrals against empirical CDFs
        funcs = [battery.member(names[i])
                 for i in rng.integers(0, len(names), m)]
        cdfs = [empirical_cdf(s, SubsequenceIndex([N])) for s in seqs]
        prod = product_form(seqs, funcs, N)
        target = 1.0
        for f, cdf in zip(funcs, cdfs):
            target *= stieltjes(f, cdf)
        if abs(prod - target) > 1e-12:
            failures.append(f"trial {trial}: product gap {abs(prod - target)}")

        # averaged function == integral against its own empirical CDF
        for s, f, cdf in zip(seqs, funcs, cdfs):
            mean = product_form([s], [f], N)
            if abs(mean - stieltjes(f, cdf)) > 1e-12:
                failures.append(
                    f"trial {trial}: mean vs integral "
                    f"{abs(mean - stieltjes(f, cdf))}")
    elapsed = time.perf_counter() - t0
    _finish("C1", "100 random instances: counting identity exact, "
                  "product/averaging identities within 1e-12",
            failures, elapsed, 30.0)


def test_c2_dependent_pair_gap():
    t0 = time.perf_counter()
    seq = KroneckerSequence("sqrt2-1")
    ident = default_battery(UNIT).member("x")
    N = 10 ** 5
    gap = delta_form([seq, seq], [ident, ident], N) \
        - product_form([seq, seq], [ident, ident], N)
    failures = []
    if not abs(gap - 1.0 / 12.0) < 0.005:
        failures.append(f"gap {gap} not within 0.005 of 1/12")
    elapsed = time.perf_counter() - t0
    _finish("C2", f"duplicated sequence, identity integrand, N=1e5: "
                  f"gap {gap:.6f} vs 1/12 within 0.005",
            failures, elapsed, 5.0)


def test_c3_independent_pair_verdict():
    t0 = time.perf_counter()
    seqs = [KroneckerSequence("sqrt2-1"), KroneckerSequence("sqrt3-1")]
    failures = []

    report = statind_test(seqs, default_battery(UNIT),
                          [100, 1000, 10000, 100000], tol=0.01)
    if report.verdict != "independent":
        failures.append(f"schedule verdict {report.verdict!r}")
    if not report.max_terminal_gap < 0.01:
        failures.append(f"max terminal gap {report.max_terminal_gap}")

    worst = 0.0
    for kappa in kappa_family_builder(10 ** 4):
        rect = kappa_independence_test(seqs, kappa, DECILES, tol=0.02)
        worst = max(worst, rect.max_abs_residual)
        if not rect.max_abs_residual < 0.02:
            failures.append(f"{kappa.name}: residual {rect.max_abs_residual}")
        if rect.verdict != "independent":
            failures.append(f"{kappa.name}: verdict {rect.verdict!r}")
    elapsed = time.perf_counter() - t0
    _finish("C3", f"irrational-rotation pair independent on both routes "
                  f"(max terminal gap {report.max_terminal_gap:.2e}, "
                  f"worst rectangle residual {worst:.2e})",
            failures, elapsed, 120.0)


def test_c4_disagreement_detector(tmp_path):
    v = KroneckerSequence("sqrt2-1")
    w = AffineImageSequence(v, -1.0, 1.0)  # 1 - v(n)
    schedule = [100, 1000, 10000, 100000]
    failures = []

    report = statind_test([v, w], default_battery(UNIT), schedule, tol=0.01)
    if report.verdict != "dependent":
        failures.append(f"schedule verdict {report.verdict!r}")

    naturals = SubsequenceIndex(np.arange(100, 10 ** 4 + 1, 100),
                                name="naturals")
    rect = kappa_independence_test([v, w], naturals, np.array([0.5]), tol=0.02)
    if rect.verdict != "dependent":
        failures.append(f"rectangle verdict {rect.verdict!r}")
    residual = rect.columns()[-1][0]
    if not abs(residual - (-0.25)) <= 0.02:
        failures.append(f"residual at (0.5, 0.5) was {residual}")

    harness = equivalence_harness([v, w], default_battery(UNIT),
                                  kappa_family_builder(10 ** 4), schedule,
                                  tol=0.01)
    if not harness.agreement:
        failures.append("harness did not report agreement")

    # same experiment through the command line must exit 0
    from statindep.cli import main
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "sequences": [
            {"kind": "kronecker", "params": {"alpha": "sqrt2-1"}},
            {"kind": "affine_image",
             "params": {"c": -1.0, "d": 1.0,
                        "source": {"kind": "kronecker",
                                   "params": {"alpha": "sqrt2-1"}}}},
        ],
        "schedule": schedule,
    }), encoding="utf-8")
    code = main(["independence", "--spec", str(spec), "--out", str(tmp_path)])
    if code != 0:
        failures.append(f"command exit code {code}")
    _finish("C4", f"mirrored pair dependent on both routes, residual at "
                  f"(0.5, 0.5) = {residual:.4f} within 0.02 of -0.25, "
                  f"verdicts agree, exit 0", failures)


def test_c5_measurability_machinery():
    blk = make_block(0.0, 1.0, 2)
    half = np.array([0.5])
    failures = []

    # along octave checkpoints the density ratio keeps swinging
    pow2 = SubsequenceIndex(2 ** np.arange(0, 18), name="pow2")
    rep = detect_measurable(blk, pow2, half)
    if rep.measurable:
        failures.append("block sequence wrongly detected measurable")
    osc = float(rep.oscillations[0])
    if not osc > 0.2:
        failures.append(f"octave oscillation {osc} not > 0.2")
    pool = SubsequenceIndex(
        np.unique(np.round(np.exp2(np.arange(0, 8 * 18 + 1) / 8.0))
                  .astype(np.int64)), name="geometric")
    ratios = detect_measurable(blk, pool, half).traces[0].trace_ratios
    swing = float(np.max(ratios) - np.min(ratios))
    if not swing > 0.2:
        failures.append(f"full-pool ratio swing {swing} not > 0.2")

    kappa = helly_extract([blk], pool, half)
    est = detect_measurable(blk, kappa, half).traces[0]
    if not est.oscillation <= 1e-2:
        failures.append(f"extracted trace oscillation {est.oscillation}")
    again = helly_extract([blk], kappa, half, min_pool=5)
    if again != kappa:
        failures.append("extraction is not idempotent")
    _finish("C5", f"block sequence: oscillation {osc:.2f} > 0.2 before, "
                  f"{est.oscillation:.1e} <= 1e-2 after extraction, "
                  f"idempotent", failures)


def test_c6_approximation_machinery():
    rng = np.random.default_rng(29)
    cdfs = [
        empirical_cdf(KroneckerSequence("sqrt2-1"),
                      SubsequenceIndex([10 ** 4])),
        empirical_cdf(VanDerCorputSequence(2), SubsequenceIndex([2 ** 14])),
    ]
    grid = np.linspace(0.0, 1.0, 1000)
    failures = []

    for eps in (0.1, 0.01):
        for trial in range(10):
            x = float(rng.uniform(0.15, 0.85))
            width = eps / 4.0
            for cdf in cdfs:
                s = sandwich_indicator(x, width, UNIT, cdf=cdf)
                ind = (grid < x).astype(np.float64)
                if np.any(s.lower(grid) > ind + 1e-15) \
                        or np.any(ind > s.upper(grid) + 1e-15):
                    failures.append(f"sandwich domination x={x} eps={eps}")
                if not s.gap_bound < eps:
                    failures.append(
                        f"sandwich gap {s.gap_bound} >= {eps} at x={x}")

        for trial in range(10):
            c = rng.uniform(-1.0, 1.0, 3)
            k = int(rng.integers(1, 4))
            amp = float(rng.uniform(0.1, 0.5))

            def target(t, c=c, k=k, amp=amp):
                return (c[0] + c[1] * t + c[2] * t * t
                        + amp * np.sin(2.0 * np.pi * k * t))

            env = step_envelope(target, cdfs, eps)
            if not env.gap_bound < eps:
                failures.append(f"envelope gap {env.gap_bound} >= {eps}")
            f_vals = target(grid)
            if np.any(env.lower_step(grid) > f_vals + 1e-12) \
                    or np.any(f_vals > env.upper_step(grid) + 1e-12):
                failures.append(f"envelope domination trial {trial} eps={eps}")
    _finish("C6", "20 random targets: sandwiches and envelopes dominate "
                  "pointwise on a 1000-point grid with certified gap "
                  "below each requested bound", failures)


def test_c7_invariant_suite():
    t0 = time.perf_counter()
    battery = default_battery(UNIT)
    counter = {"cases": 0}
    failures = []
    common = settings(max_examples=200, derandomize=True, deadline=None)

    values_st = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)

    @common
    @given(values_st, st.sampled_from([m.name for m in battery]))
    def single_slot_collapse(values, name):
        counter["cases"] += 1
        seq = PeriodicSequence(values)
        f = battery.member(name)
        n = len(values)
        d = delta_form([seq], [f], n)
        p = product_form([seq], [f], n)
        if d != p:
            failures.append(f"collapse: {d!r} != {p!r}")

    @common
    @given(values_st, values_st,
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def multilinearity(vals_a, vals_b, alpha, beta):
        counter["cases"] += 1
        n = min(len(vals_a), len(vals_b))
        seqs = [PeriodicSequence(vals_a), PeriodicSequence(vals_b)]
        f = battery.member("x")
        g = battery.member("x2")
        combo = NamedFunction("combo", lambda t: alpha * f(t) + beta * g(t))
        lhs = delta_form(seqs, [combo, f], n)
        rhs = alpha * delta_form(seqs, [f, f], n) \
            + beta * delta_form(seqs, [g, f], n)
        if abs(lhs - rhs) > 1e-12:
            failures.append(f"multilinearity gap {abs(lhs - rhs)}")

    @common
    @given(values_st, values_st, st.permutations(range(2)))
    def permutation_symmetry(vals_a, vals_b, perm):
        counter["cases"] += 1
        n = min(len(vals_a), len(vals_b))
        seqs = [PeriodicSequence(vals_a), PeriodicSequence(vals_b)]
        funcs = [battery.member("x"), battery.member("sin2pix")]
        base = delta_form(seqs, funcs, n)
        shuffled = delta_form([seqs[i] for i in perm],
                              [funcs[i] for i in perm], n)
        if abs(base - shuffled) > 1e-12:
            failures.append(f"permutation gap {abs(base - shuffled)}")

    @common
    @given(values_st, st.floats(0.01, 1.0), st.integers(1, 200))
    def complement_counting(values, x, n):
        counter["cases"] += 1
        seq = PeriodicSequence(values)
        below, total = grid_counts([seq], np.array([x]), np.array([n]))[0]
        above = np.count_nonzero(seq.prefix(n) >= x)
        if below + above != n or total != n:
            failures.append(f"complement counts at n={n}")

    @common
    @given(values_st, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def cdf_shape(values, probes):
        counter["cases"] += 1
        n = len(values)
        cdf = empirical_cdf(PeriodicSequence(values), SubsequenceIndex([n]))
        evals = cdf.eval(np.sort(np.asarray(probes)))
        if np.any(np.diff(evals) < 0):
            failures.append("cdf not monotone")
        if cdf.total_mass != 1.0:
            failures.append(f"total mass {cdf.total_mass!r}")
        if np.any(cdf.masses <= 0):
            failures.append("non-positive mass")

    @common
    @given(values_st, values_st, st.integers(0, 30))
    def partition_independent_reduction(vals_a, vals_b, cut):
        counter["cases"] += 1
        n = min(len(vals_a), len(vals_b))
        k = min(cut, n)
        seqs = [PeriodicSequence(vals_a), PeriodicSequence(vals_b)]
        f = battery.member("x")
        term = f(seqs[0].prefix(n)) * f(seqs[1].prefix(n))
        split = (float(np.sum(term[:k])) + float(np.sum(term[k:]))) / n
        if abs(split - delta_form(seqs, [f, f], n)) > 1e-12:
            failures.append(f"partition split at k={k}")

    single_slot_collapse()
    multilinearity()
    permutation_symmetry()
    complement_counting()
    cdf_shape()
    partition_independent_reduction()

    if counter["cases"] < 1000:
        failures.append(f"only {counter['cases']} property cases ran")
    elapsed = time.perf_counter() - t0
    _finish("C7", f"{counter['cases']} property cases across six invariant "
                  f"families", failures, elapsed, 120.0)

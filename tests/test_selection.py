"""Measurability detection, extraction, and checkpoint family tests."""

import re

import numpy as np
import pytest

from statindep import (
    CheckpointError,
    ConstantSequence,
    ExtractionError,
    KroneckerSequence,
    SubsequenceIndex,
    detect_measurable,
    empirical_cdf,
    helly_extract,
    kappa_density,
    kappa_family_builder,
    make_block,
    preimage,
    selection,
)

DECILES = np.linspace(0.1, 0.9, 9)


def naturals(depth, stride=1):
    return SubsequenceIndex(np.arange(stride, depth + 1, stride),
                            name="naturals")


def geometric_pool(max_exp=18, per_octave=8):
    js = np.arange(0, per_octave * max_exp + 1)
    ks = np.unique(np.round(np.exp2(js / per_octave)).astype(np.int64))
    return SubsequenceIndex(ks, name="geometric")


class TestDetectMeasurable:
    def test_kronecker_measurable_with_uniform_cdf(self):
        seq = KroneckerSequence("sqrt2-1")
        rep = detect_measurable(seq, naturals(10 ** 4, 100), DECILES)
        assert rep.measurable
        # the limiting CDF estimate should be near F(x) = x
        for x, trace in zip(rep.grid, rep.traces):
            assert trace.value == pytest.approx(x, abs=0.01)

    def test_block_not_measurable_along_pow2(self):
        blk = make_block(0.0, 1.0, 2)
        pow2 = SubsequenceIndex(2 ** np.arange(0, 15), name="pow2")
        rep = detect_measurable(blk, pow2, np.array([0.5]))
        assert not rep.measurable
        assert rep.oscillations[0] > 0.2

    def test_constant_measurable_with_unit_jump(self):
        seq = ConstantSequence(0.3)
        for kappa in (naturals(500, 10), SubsequenceIndex([1, 4, 9, 16, 25])):
            rep = detect_measurable(seq, kappa, DECILES)
            assert rep.measurable
            assert np.all(rep.oscillations == 0.0)
        assert rep.limit_cdf.jump_points.tolist() == [0.3]
        assert rep.limit_cdf.masses.tolist() == [1.0]

    def test_shallow_kappa_rejected(self):
        seq = ConstantSequence(0.3)
        with pytest.raises(CheckpointError):
            detect_measurable(seq, SubsequenceIndex([1, 2]), DECILES, window=5)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            detect_measurable(ConstantSequence(0.3), naturals(100),
                              np.array([]))

    def test_limit_cdf_is_computed_once_on_first_access(self, monkeypatch):
        seq, kappa = KroneckerSequence("sqrt2-1"), naturals(2000, 20)
        want = empirical_cdf(seq, kappa)
        calls = []
        monkeypatch.setattr(
            selection, "empirical_cdf",
            lambda *args: (calls.append(args), empirical_cdf(*args))[1])
        rep = detect_measurable(seq, kappa, DECILES)
        assert rep.measurable and calls == []
        assert rep.limit_cdf is rep.limit_cdf
        assert calls == [(seq, kappa)]
        assert np.array_equal(rep.limit_cdf.jump_points, want.jump_points)
        assert np.array_equal(rep.limit_cdf.masses, want.masses)
        obj = rep.to_json_obj()
        assert obj["limit_cdf"] == want.to_json_obj()
        assert (obj["sequence"], obj["kappa"]) == (seq.label, kappa.label)


class TestHellyExtract:
    def test_block_extraction_stabilizes(self):
        blk = make_block(0.0, 1.0, 2)
        pool = geometric_pool()
        kappa = helly_extract([blk], pool, np.array([0.5]))
        # output is a subset of the pool, strictly increasing
        assert np.all(np.isin(kappa.checkpoints, pool.checkpoints))
        assert np.all(np.diff(kappa.checkpoints) > 0)
        # trailing-window ratios are Cauchy within tol
        est = kappa_density(preimage(blk, 0.0, 0.5), kappa)
        assert est.oscillation <= 1e-2
        assert detect_measurable(blk, kappa, np.array([0.5])).measurable

    def test_idempotent(self):
        blk = make_block(0.0, 1.0, 2)
        kappa = helly_extract([blk], geometric_pool(), np.array([0.5]))
        again = helly_extract([blk], kappa, np.array([0.5]), min_pool=5)
        assert again == kappa

    def test_already_measurable_keeps_pool(self):
        seq = KroneckerSequence("sqrt2-1")
        pool = naturals(6400, 100)
        kappa = helly_extract([seq], pool, np.array([0.5]))
        # ratios at depth >= 100 all sit within 0.01 of 1/2: nothing culled
        assert kappa == SubsequenceIndex(pool.checkpoints,
                                         rule=kappa.rule, name=kappa.name)

    def test_constant_trivially_stable(self):
        seq = ConstantSequence(0.7)
        pool = naturals(6400, 100)
        kappa = helly_extract([seq], pool, DECILES)
        assert np.array_equal(kappa.checkpoints, pool.checkpoints)

    def test_multiple_sequences_and_points(self):
        blk = make_block(0.0, 1.0, 2)
        vdc = __import__("statindep").VanDerCorputSequence(2)
        pool = geometric_pool()
        kappa = helly_extract([blk, vdc], pool, np.array([0.25, 0.5, 0.75]))
        for seq in (blk, vdc):
            assert detect_measurable(seq, kappa,
                                     np.array([0.25, 0.5, 0.75])).measurable

    def test_pool_minimum_enforced(self):
        seq = ConstantSequence(0.5)
        with pytest.raises(ExtractionError, match="64"):
            helly_extract([seq], naturals(100, 10), DECILES)

    def test_exhaustion_names_pair(self):
        seq = KroneckerSequence("sqrt2-1")
        # ratios at 2..7 are 1/2, 2/3, 1/2, 3/5, 2/3, 4/7: no value occurs
        # five times, so a hairline band cannot keep a full window alive
        pool = SubsequenceIndex([2, 3, 4, 5, 6, 7])
        with pytest.raises(ExtractionError, match=r"0\.5"):
            helly_extract([seq], pool, np.array([0.5]), tol=1e-9, min_pool=5)
        with pytest.raises(ExtractionError, match=re.escape(seq.label)):
            helly_extract([seq], pool, np.array([0.5]), tol=1e-9, min_pool=5)


class TestKappaFamily:
    def test_member_names_and_truncation(self):
        family = kappa_family_builder(10 ** 4)
        names = [k.name for k in family]
        assert names == ["naturals", "evens", "odds", "squares", "pow2",
                         "thinned"]
        for k in family:
            assert k.deepest <= 10 ** 4
            assert np.all(np.diff(k.checkpoints) > 0)

    def test_squares_at_100(self):
        family = {k.name: k for k in kappa_family_builder(10 ** 3)}
        sq = family["squares"].checkpoints
        assert sq.tolist() == [n * n for n in range(1, 32)]

    def test_pow2_at_64(self):
        # build at the minimum depth, then check the powers of two by hand
        family = {k.name: k for k in kappa_family_builder(10 ** 3)}
        p2 = family["pow2"].checkpoints
        assert p2.tolist() == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]

    def test_thinning_deterministic(self):
        a = {k.name: k for k in kappa_family_builder(5000)}["thinned"]
        b = {k.name: k for k in kappa_family_builder(5000)}["thinned"]
        assert a == b
        c = {k.name: k for k in kappa_family_builder(5000, seed=7)}["thinned"]
        assert not np.array_equal(a.checkpoints, c.checkpoints)

    def test_depth_minimum(self):
        with pytest.raises(ValueError):
            kappa_family_builder(999)

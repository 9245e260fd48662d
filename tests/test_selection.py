"""Measurability detection, extraction, and checkpoint family tests."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from _brute import brute_density
from statindep import (
    AffineImageSequence,
    CheckpointError,
    ConstantSequence,
    Extraction,
    ExtractionError,
    IntervalError,
    KroneckerSequence,
    SubsequenceIndex,
    detect_measurable,
    empirical_cdf,
    helly_extract,
    kappa_family_builder,
    kappa_member,
    make_block,
    selection,
)
from statindep.reporting import canonical_json
from statindep.selection import KAPPA_FAMILY

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
        assert canonical_json(obj["limit_cdf"]) == \
            canonical_json(want.to_json_obj())
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
        est = brute_density(blk, 0.5, kappa)
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

    def test_every_sequence_checked_before_any_pass(self):
        # the first sequence would exhaust the pool, but the grid point
        # lies outside the second sequence's interval [0, 0.25]
        seq = KroneckerSequence("sqrt2-1")
        short = AffineImageSequence(seq, 0.25, 0.0)
        pool = SubsequenceIndex([2, 3, 4, 5, 6, 7])
        with pytest.raises(IntervalError,
                           match=r"grid point 0\.5 outside \[0\.0, 0\.25\]"):
            helly_extract([seq, short], pool, np.array([0.5]), tol=1e-9,
                          min_pool=5)
        with pytest.raises(ValueError, match="window must be >= 1"):
            helly_extract([seq], pool, np.array([0.5]), window=0,
                          min_pool=5)

    def test_extraction_settings_are_checked_when_declared(self):
        # with helly_extract's messages, not after a harness's schedule test
        pool = naturals(6400, 100)
        for tol in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError,
                               match=f"^tol must be positive, got {tol}$"):
                Extraction(pool, tol=tol)
        with pytest.raises(ValueError, match="^window must be >= 1, got 0$"):
            Extraction(pool, window=0)
        assert Extraction(pool, tol=0.5, window=1).window == 1


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


def _family_at_once(base_depth, seed=0):
    """The family as it was built before kappa_member: every member at
    once, the coins in one draw of base_depth.  name -> (checkpoints, rule)."""
    stride = max(1, base_depth // 100)
    naturals = np.arange(stride, base_depth + 1, stride, dtype=np.int64)
    evens = np.arange(2, base_depth + 1, 2, dtype=np.int64)
    odds = np.arange(1, base_depth + 1, 2, dtype=np.int64)
    top = int(np.floor(np.sqrt(base_depth)))
    squares = np.arange(1, top + 1, dtype=np.int64) ** 2
    pow2 = 2 ** np.arange(0, int(np.floor(np.log2(base_depth))) + 1,
                          dtype=np.int64)
    rng = np.random.default_rng(seed)
    keep = rng.random(base_depth) < 0.5
    thinned = np.nonzero(keep)[0].astype(np.int64) + 1
    return {
        "naturals": (naturals, f"k_N = {stride}N"),
        "evens": (evens, "k_N = 2N"),
        "odds": (odds, "k_N = 2N-1"),
        "squares": (squares, "k_N = N^2"),
        "pow2": (pow2, "k_N = 2^(N-1)"),
        "thinned": (thinned, f"coin-thinned, seed={seed}"),
    }


class TestKappaMember:
    # 65536 * 3 + 1 ends one index into a fourth chunk of coins
    @pytest.mark.parametrize("depth", [1000, 4097, 65536 * 3 + 1, 10 ** 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_the_member_built_at_once(self, depth, seed):
        want = _family_at_once(depth, seed)
        family = kappa_family_builder(depth, seed=seed)
        assert [k.name for k in family] == list(KAPPA_FAMILY)
        for name, member in zip(KAPPA_FAMILY, family):
            got = kappa_member(name, depth, seed=seed)
            checkpoints, rule = want[name]
            for k in (got, member):
                assert k.checkpoints.dtype == np.int64
                assert np.array_equal(k.checkpoints, checkpoints), name
                assert (k.rule, k.name) == (rule, name)

    # 10**6 + 3 ends inside a chunk of coins and between two squares
    @pytest.mark.parametrize("depth", [1000, 4097, 65536 * 3 + 1, 10 ** 5,
                                       10 ** 6 + 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_last_is_the_tail_of_the_whole_member(self, depth, seed):
        whole = kappa_family_builder(depth, seed=seed)
        # depth + 1 is more than any member's length
        for last in (1, 5, 7, depth + 1):
            family = kappa_family_builder(depth, seed=seed, last=last)
            assert [k.name for k in family] == list(KAPPA_FAMILY)
            for member, in_family in zip(whole, family):
                got = kappa_member(member.name, depth, seed=seed, last=last)
                for k in (got, in_family):
                    assert k.checkpoints.dtype == np.int64
                    assert np.array_equal(k.checkpoints,
                                          member.checkpoints[-last:]), \
                        (member.name, last)
                    assert (k.rule, k.name) == (member.rule, member.name)

    def test_thinned_tail_at_any_depth_in_milliseconds(self):
        # the tail's coin chunks are drawn from the last one backward, each
        # from the state its first coin jumps to: drawing every coin up to
        # 2^40 would take hours
        took = time.perf_counter()
        tail = kappa_member("thinned", 2 ** 40, last=7)
        took = time.perf_counter() - took
        assert took < 0.1, took
        assert len(tail) == 7 and tail.deepest <= 2 ** 40
        # a shallower member keeps the same coins: its tail, over chunk
        # edges, is the deeper tail cut at its depth
        deep = kappa_member("thinned", 2 ** 40, last=70000).checkpoints
        assert np.array_equal(deep[-7:], tail.checkpoints)
        for cut in (2 ** 40 - 50000, 2 ** 40 - selection._COIN_CHUNK):
            shallow = kappa_member("thinned", cut, last=11).checkpoints
            assert np.array_equal(shallow, deep[deep <= cut][-11:])

    def test_integer_bounds_near_powers_of_two(self):
        # a float sqrt or log2 rounds up near 2^k: pow2 at 2^50 - 1 once
        # ended at 2^50, past its base depth
        for k in range(10, 63):
            for depth in (2 ** k - 1, 2 ** k, 2 ** k + 1):
                stride, root = depth // 100, math.isqrt(depth)
                top = depth // stride * stride
                even, odd = depth - depth % 2, depth - 1 + depth % 2
                power = 2 ** (depth.bit_length() - 1)
                want = {"naturals": [top - stride, top],
                        "evens": [even - 2, even], "odds": [odd - 2, odd],
                        "squares": [(root - 1) ** 2, root ** 2],
                        "pow2": [power // 2, power]}
                for name, tail in want.items():
                    got = kappa_member(name, depth, last=2).checkpoints
                    assert got.tolist() == tail, (name, depth)

    def test_rejects_shallow_depth_and_unknown_name(self):
        with pytest.raises(ValueError, match="base_depth must be >= 1000"):
            kappa_member("pow2", 999)
        with pytest.raises(ValueError, match=r"base_depth must be < 2\^63"):
            kappa_member("evens", 2 ** 63)
        with pytest.raises(ValueError, match="unknown kappa member 'cubes'"):
            kappa_member("cubes", 10 ** 4)
        for last in (0, -1):
            with pytest.raises(ValueError, match="last must be >= 1"):
                kappa_member("odds", 10 ** 4, last=last)

    @pytest.mark.parametrize("build", [
        lambda seed: kappa_member("thinned", 10 ** 4, seed=seed),
        lambda seed: kappa_member("pow2", 10 ** 4, seed=seed),
        lambda seed: kappa_family_builder(10 ** 4, seed=seed, last=5),
    ], ids=["thinned", "pow2", "family"])
    def test_seed_is_checked_at_entry(self, build):
        # numpy's SeedSequence checked it once, in words that name no
        # argument, and only for thinned
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            build(-1)
        for seed in (1.5, 2.0, "3"):
            with pytest.raises(TypeError,
                               match=f"^seed must be an integer, got "
                                     f"{re.escape(repr(seed))}$"):
                build(seed)
        # any natural seed is taken, as default_rng takes it
        build(2 ** 64 + 5)
        build(np.uint64(2 ** 63))

    def test_pow2_memory_does_not_grow_with_depth(self):
        tracemalloc.start()
        try:
            kappa = kappa_member("pow2", 2 ** 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kappa) == 23
        assert peak < 64 << 10, peak

    def test_thinned_holds_its_checkpoints_and_one_chunk_of_coins(self):
        # one draw of all 2^22 coins alone would take 32 MiB; the
        # increasing check of SubsequenceIndex takes one byte a checkpoint
        tracemalloc.start()
        try:
            kappa = kappa_member("thinned", 2 ** 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - kappa.checkpoints.nbytes - len(kappa)
        assert extra <= 16 * selection._COIN_CHUNK, extra

    def test_tail_memory_does_not_grow_with_depth(self):
        # evens whole at 2^24 would hold 64 MiB.  thinned at 2^22 holds
        # one chunk of coins, drawn as 8-byte floats and compared into one
        # byte each while the last chunk's bytes are still held, and 5 of
        # the kept indices
        tracemalloc.start()
        try:
            evens = kappa_member("evens", 2 ** 24, last=5)
            evens_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            thinned = kappa_member("thinned", 2 ** 22, last=5)
            thinned_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert evens.checkpoints.tolist() == [2 ** 24 - 2 * i
                                              for i in range(4, -1, -1)]
        assert evens_peak < 64 << 10, evens_peak
        assert len(thinned) == 5 and thinned.deepest <= 2 ** 22
        assert thinned_peak <= 10 * selection._COIN_CHUNK + (16 << 10), \
            thinned_peak

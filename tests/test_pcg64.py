"""The in-package PCG64 coin stream is numpy's, bit for bit."""

import numpy as np
import pytest

from statindep import _pcg64, kappa_member, selection

# past 2^64 the seed has three or more 32-bit words; past 2^128 more words
# than SeedSequence's pool of four
BIG_SEEDS = [2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 128, 2 ** 200 + 12345,
             3 ** 300]


def test_seed_state_is_numpys():
    for seed in list(range(100)) + BIG_SEEDS:
        state = np.random.PCG64(seed).state["state"]
        assert _pcg64.seed_state(seed) == (state["state"], state["inc"]), \
            seed


def test_jump_is_numpys_advance():
    state, inc = _pcg64.seed_state(5)
    for n in (0, 1, 2, 3, 4095, 2 ** 40 + 7, 2 ** 64 + 1):
        a, c = _pcg64.jump(n, inc)
        want = np.random.PCG64(5)
        want.advance(n)
        assert (a * state + c) % 2 ** 128 == want.state["state"]["state"]


def test_heads_are_default_rngs_coins():
    # three sub-blocks and one coin more, then windows across their edges
    block = _pcg64._BLOCK
    for seed in range(100):
        want = np.random.default_rng(seed).random(3 * block + 1) < 0.5
        coins = _pcg64.Coins(seed)
        assert np.array_equal(coins.heads(0, 3 * block + 1), want), seed
        for lo, n in ((block - 3, 7), (2 * block - 1, block + 2), (5, 1)):
            assert np.array_equal(coins.heads(lo, n), want[lo:lo + n]), \
                (seed, lo)


@pytest.mark.parametrize("seed", [0, 7] + BIG_SEEDS)
def test_heads_across_a_coin_chunk_and_far_offsets(seed):
    # 70000 coins cross thinned's chunk edge at 2^16
    want = np.random.default_rng(seed).random(12345 + 70000) < 0.5
    coins = _pcg64.Coins(seed)
    for lo in (0, 12345):
        assert np.array_equal(coins.heads(lo, 70000), want[lo:lo + 70000])
    for lo in (2 ** 32 + 7, 2 ** 40, 2 ** 63 - selection._COIN_CHUNK):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(lo)
        assert np.array_equal(coins.heads(lo, 5000), rng.random(5000) < 0.5)


def test_thinned_is_the_default_rng_oracle():
    # 4097 ends one coin into a second sub-block
    for seed in list(range(100)) + [2 ** 64 + 5]:
        rng = np.random.default_rng(seed)
        want = np.flatnonzero(rng.random(4097) < 0.5) + 1
        got = kappa_member("thinned", 4097, seed=seed)
        assert np.array_equal(got.checkpoints, want), seed
        assert got.rule == f"coin-thinned, seed={seed}"
        tail = kappa_member("thinned", 4097, seed=seed, last=9)
        assert np.array_equal(tail.checkpoints, want[-9:]), seed

"""numpy's PCG64 coin stream without ``numpy.random``.

``Coins(seed).heads(lo, n)`` equals ``default_rng(seed).random(lo + n)[lo:]
< 0.5`` bit for bit, for any non-negative int seed, in O(log lo + n) time.
Importing ``numpy.random`` costs more resident memory than the rest of a
CLI run holds beyond numpy itself, and one thinned checkpoint index is its
only use here.  :func:`_mul_add` is the package's one 128-bit multiply;
Kronecker sequences take their values from it too.

The generator (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905) is the 128-bit LCG s' = M s + inc mod 2^128 with the
XSL-RR output u = rotr64(hi ^ lo, hi >> 58) of each new state.  ``random``
is (u >> 11) 2^-53, so a coin is heads iff u < 2^63: iff bit
((hi >> 58) - 1) mod 64 of hi ^ lo is 0.  n steps at once are one affine
map s -> A s + C (Brown, "Random number generation with arbitrary
strides", Trans. Am. Nucl. Soc. 1994), found in O(log n) squarings.
Seeding is numpy's SeedSequence hash of the seed's 32-bit words followed by
``pcg64_set_seed``.
"""

from __future__ import annotations

import numpy as np

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# States per vectorised block: each block's temporaries are about 32 KiB
# per uint64 array.
_BLOCK = 1 << 12


def _hash(value: int, const: int, mult: int = 0x931E8875) -> tuple[int, int]:
    """SeedSequence's hash of a 32-bit ``value`` and the next hash constant
    (``hashmix`` with its default ``mult``, ``generate_state`` with its
    own)."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def seed_state(seed: int) -> tuple[int, int]:
    """(state, inc) of ``numpy.random.PCG64(seed)`` for an int seed >= 0."""
    words = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    words = words or [0]
    # SeedSequence.mix_entropy into a pool of 4 words
    const, pool = 0x43B0D7E5, []
    for i in range(4):
        word, const = _hash(words[i] if i < len(words) else 0, const)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hash(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in words[4:]:
        for dst in range(4):
            word, const = _hash(extra, const)
            pool[dst] = _mix(pool[dst], word)
    # SeedSequence.generate_state(4, uint64): 8 words from the pool, in
    # little-endian pairs; then pcg64_set_seed(state, inc) with the first
    # two uint64 (high limb first) as state and the last two as inc
    const, out = 0x8B51F9DD, []
    for i in range(8):
        word, const = _hash(pool[i % 4], const, 0x58F38DED)
        out.append(word)
    u = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
    state, inc = u[0] << 64 | u[1], (u[2] << 64 | u[3]) << 1 & _MASK128 | 1
    # one step from 0, add the state, one more step
    return ((inc + state) * _MULT + inc) & _MASK128, inc


def jump(n: int, inc: int) -> tuple[int, int]:
    """(A, C) with the state n steps on equal to A s + C mod 2^128."""
    a, c = 1, 0
    mult, add = _MULT, inc
    while n:
        if n & 1:
            a, c = a * mult & _MASK128, (c * mult + add) & _MASK128
        add = add * (mult + 1) & _MASK128
        mult = mult * mult & _MASK128
        n >>= 1
    return a, c


def _split(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """The limbs of uint64 128-bit values, with the low limb's 32-bit
    halves, as :func:`_mul_add` takes them."""
    return hi, lo, lo & np.uint64(_MASK32), lo >> np.uint64(32)


def _mul_add(x: tuple[np.ndarray, ...], a: int, c_hi, c_lo):
    """(hi, lo) uint64 limbs of a x + c mod 2^128, x as :func:`_split`
    gives it and c as uint64 limbs (arrays or scalars).  The high limb of
    the low limbs' product is summed from 32-bit partial products, none of
    which overflows 64 bits."""
    x_hi, x_lo, x0, x1 = x
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _MASK64)
    a0, a1 = np.uint64(a & _MASK32), np.uint64(a >> 32 & _MASK32)
    shift, low = np.uint64(32), np.uint64(_MASK32)
    t = x1 * a0
    t += x0 * a0 >> shift
    w = t & low
    w += x0 * a1
    hi = x1 * a1
    hi += t >> shift
    hi += w >> shift
    hi += x_hi * a_lo
    hi += x_lo * a_hi
    lo = x_lo * a_lo
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo
    return hi, lo


class Coins:
    """The coins ``default_rng(seed).random() < 0.5`` of one seed, drawn
    from any position without drawing those before it."""

    def __init__(self, seed: int):
        self.state, self.inc = seed_state(seed)
        # (A_i, C_i) for i < _BLOCK, in rows 0 and 1, doubled from i = 0:
        # the states of a block are A_i t + C_i for its first state t
        hi = np.zeros((2, 1), np.uint64)
        lo = np.array([[1], [0]], np.uint64)
        while lo.shape[1] < _BLOCK:
            a, c = jump(lo.shape[1], self.inc)
            more = _mul_add(_split(hi, lo), a,
                            np.array([[0], [c >> 64]], np.uint64),
                            np.array([[0], [c & _MASK64]], np.uint64))
            hi, lo = np.hstack([hi, more[0]]), np.hstack([lo, more[1]])
        self._a = _split(hi[0], lo[0])
        self._c = hi[1], lo[1]
        self._step = jump(_BLOCK, self.inc)

    def heads(self, lo: int, n: int) -> np.ndarray:
        """Boolean array: coin lo + i (from 0) is heads, for i < n."""
        out = np.empty(n, dtype=bool)
        step_a, step_c = jump(lo + 1, self.inc)
        t = (step_a * self.state + step_c) & _MASK128
        step_a, step_c = self._step
        for start in range(0, n, _BLOCK):
            k = min(_BLOCK, n - start)
            hi, x = _mul_add([limb[:k] for limb in self._a], t,
                             self._c[0][:k], self._c[1][:k])
            # heads iff bit (rot - 1) mod 64 of x = hi ^ lo is 0, for
            # rot = hi >> 58: x shifted left by -rot mod 64 is below 2^63
            x ^= hi
            hi >>= np.uint64(58)
            np.negative(hi, out=hi)
            hi &= np.uint64(63)
            x <<= hi
            np.less(x, np.uint64(1 << 63), out=out[start:start + k])
            t = (step_a * t + step_c) & _MASK128
        return out

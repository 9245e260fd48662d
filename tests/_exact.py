"""Exact references: large-N Weyl sums and marginal counts of Kronecker
sequences, and the rectangle discrepancy of a finite point set.

A Kronecker sequence v(n) = frac(n * alpha) enters ``sin2pix`` and
``cos2pix`` only through e^{2 pi i n alpha}, so an average of a product of
such factors over n = 1..N is a sum of geometric series (Weyl 1916;
Kuipers & Niederreiter, *Uniform Distribution of Sequences*, 1974), and
needs no walk.  Each rotation is taken exactly, as A / 2^128 for the
sequence's integer A, and summed at 200-bit precision, so the reference is
the exact average for the rotation the library multiplies by: what
separates the two is only the library's truncation of each value to 53
bits and the C library's sin and cos.

Marginal counts #{n <= N : v(n) < x} of a Kronecker sequence are floor
sums of n A / 2^128, exact in O(log) steps at any N (see
:func:`kronecker_count`).

The rectangle discrepancy is counted in integers (its N^2 multiple,
:func:`rectangle_excess`) and rounded once (see
:func:`rectangle_discrepancy`).
"""

import itertools
import math

import mpmath
import numpy as np

_BITS = 200


def _rotation(a: int) -> mpmath.mpf:
    """The rotation A / 2^128 of a Kronecker sequence's integer A, exactly."""
    return mpmath.mpf(a) / 2 ** 128


def _geometric(theta, n: int) -> mpmath.mpc:
    """sum_{k=1}^{n} e^{2 pi i k theta}."""
    if theta == mpmath.floor(theta):
        return mpmath.mpc(n)
    z = mpmath.expjpi(2 * theta)
    return z * (mpmath.expjpi(2 * n * theta) - 1) / (z - 1)


def weyl_mean(factors, n: int) -> float:
    """(1/n) sum_{k=1}^{n} prod_i trig_i(2 pi k alpha_i), rounded once to
    float64, for ``factors`` of (trig, A) with trig "sin" or "cos" and
    alpha_i = A / 2^128 (a Kronecker sequence's ``alpha``).

    Each cos is (e^+ + e^-)/2 and each sin (e^+ - e^-)/(2i), so the
    product expands over the sign choices s into geometric sums at
    theta = sum_i s_i alpha_i.
    """
    with mpmath.workprec(_BITS):
        alphas = [_rotation(a) for _, a in factors]
        total = mpmath.mpc(0)
        for signs in itertools.product((1, -1), repeat=len(factors)):
            coeff, theta = mpmath.mpc(1), mpmath.mpf(0)
            for (trig, _), alpha, s in zip(factors, alphas, signs):
                coeff *= mpmath.mpf(1) / 2 if trig == "cos" \
                    else mpmath.mpc(0, -s) / 2
                theta += s * alpha
            total += coeff * _geometric(theta, n)
        return float(total.real / n)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a i + b) / m) for n >= 0, m >= 1 and a, b >=
    0, in O(log m) steps: the Euclid-like reduction of Graham, Knuth &
    Patashnik, *Concrete Mathematics* (1994), section 3.5."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def kronecker_count(a: int, n: int, x: float) -> int:
    """#{k <= n : v(k) < x} for the Kronecker sequence of integer A = ``a``,
    v(k) = ((k A mod 2^128) >> 75) 2^-53, exactly.

    v(k) < x iff k A mod 2^128 < T = ceil(x 2^53) 2^75 (T held in
    [0, 2^128]), and for y >= 0, [y mod M < T] = 1 - floor((y + M - T)/M)
    + floor(y/M), so the count is n minus two floor sums over k = 1..n.
    """
    m = 1 << 128
    t = min(max(math.ceil(x * 2.0 ** 53), 0) << 75, m)
    return n - floor_sum(n, m, a, a + m - t) + floor_sum(n, m, a, a)


# rank-grid tables have (U + 1)(V + 1) cells for U and V distinct values
MAX_DISCREPANCY_POINTS = 1 << 10


def rectangle_discrepancy(x, y) -> float:
    """D_N = sup_{s,t} |C_N(s, t)/N - F_N(s) G_N(t)| of the N points
    (x[n], y[n]), rounded once to float64: C_N(s, t) counts the points
    with x <= s and y <= t, and F_N, G_N are the marginal empirical CDFs
    (the Blum-Kiefer-Rosenblatt statistic, Ann. Math. Stat. 1961).
    It is :func:`rectangle_excess` / N^2.
    """
    n = np.size(x)
    # int / int is correctly rounded
    return rectangle_excess(x, y) / (n * n)


def rectangle_excess(x, y) -> int:
    """N^2 D_N of the N points (x[n], y[n]), exactly: the largest
    |N c(s, t) - A(s) B(t)| over every s and t, where c(s, t) counts the
    points with x <= s and y <= t and A(s), B(t) the points with x <= s
    and with y <= t.

    All three step only at the data, so the supremum is reached at a data
    corner, on one of its sides: x <= s or x < s, and y <= t or y < t.  A
    table over the ranks of the distinct values, with a row and a column
    of zeros in front for "below the smallest value", holds every side of
    every corner: the cumulative sums of the rank histogram, with no loop
    over corners.  The excess is the largest |N*c - A*B| over its
    entries, whose last row and column are A and B.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if not 1 <= n <= MAX_DISCREPANCY_POINTS or y.size != n:
        raise ValueError(f"need 1 to {MAX_DISCREPANCY_POINTS} points, "
                         f"got {x.size} and {y.size} values")
    xs, i = np.unique(x, return_inverse=True)
    ys, j = np.unique(y, return_inverse=True)
    counts = np.zeros((xs.size + 1, ys.size + 1), dtype=np.int64)
    np.add.at(counts, (i + 1, j + 1), 1)
    counts = counts.cumsum(axis=0).cumsum(axis=1)
    excess = n * counts - np.outer(counts[:, -1], counts[-1, :])
    return int(np.abs(excess).max())

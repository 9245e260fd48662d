"""Exact references: large-N Weyl sums of Kronecker sequences, at 200-bit
precision, and the rectangle discrepancy of a finite point set.

A Kronecker sequence v(n) = frac(n * alpha) enters ``sin2pix`` and
``cos2pix`` only through e^{2 pi i n alpha}, so an average of a product of
such factors over n = 1..N is a sum of geometric series (Weyl 1916;
Kuipers & Niederreiter, *Uniform Distribution of Sequences*, 1974), and
needs no walk.  Each alpha is taken exactly, as the rational of the
sequence's extended-precision constant, so the reference is the exact
average for the alpha the library multiplies by: what separates the two
is only the library's rounding.

The rectangle discrepancy is counted in integers (its N^2 multiple,
:func:`rectangle_excess`) and rounded once (see
:func:`rectangle_discrepancy`).
"""

import itertools

import mpmath
import numpy as np

_BITS = 200


def _exact(alpha) -> mpmath.mpf:
    """The rational value of a float or longdouble ``alpha``, exactly
    (its denominator is a power of two)."""
    p, q = alpha.as_integer_ratio()
    return mpmath.mpf(p) / q


def _geometric(theta, n: int) -> mpmath.mpc:
    """sum_{k=1}^{n} e^{2 pi i k theta}."""
    if theta == mpmath.floor(theta):
        return mpmath.mpc(n)
    z = mpmath.expjpi(2 * theta)
    return z * (mpmath.expjpi(2 * n * theta) - 1) / (z - 1)


def weyl_mean(factors, n: int) -> float:
    """(1/n) sum_{k=1}^{n} prod_i trig_i(2 pi k alpha_i), rounded once to
    float64, for ``factors`` of (trig, alpha) with trig "sin" or "cos".

    Each cos is (e^+ + e^-)/2 and each sin (e^+ - e^-)/(2i), so the
    product expands over the sign choices s into geometric sums at
    theta = sum_i s_i alpha_i.
    """
    with mpmath.workprec(_BITS):
        alphas = [_exact(alpha) for _, alpha in factors]
        total = mpmath.mpc(0)
        for signs in itertools.product((1, -1), repeat=len(factors)):
            coeff, theta = mpmath.mpc(1), mpmath.mpf(0)
            for (trig, _), alpha, s in zip(factors, alphas, signs):
                coeff *= mpmath.mpf(1) / 2 if trig == "cos" \
                    else mpmath.mpc(0, -s) / 2
                theta += s * alpha
            total += coeff * _geometric(theta, n)
        return float(total.real / n)


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

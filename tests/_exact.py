"""Exact large-N references for Kronecker sequences, at 200-bit precision.

A Kronecker sequence v(n) = frac(n * alpha) enters ``sin2pix`` and
``cos2pix`` only through e^{2 pi i n alpha}, so an average of a product of
such factors over n = 1..N is a sum of geometric series (Weyl 1916;
Kuipers & Niederreiter, *Uniform Distribution of Sequences*, 1974), and
needs no walk.  Each alpha is taken exactly, as the rational of the
sequence's extended-precision constant, so the reference is the exact
average for the alpha the library multiplies by: what separates the two
is only the library's rounding.
"""

import itertools

import mpmath

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

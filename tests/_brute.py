"""Brute-force references, independent of the library's fast paths.

Each count is a plain boolean mask over a materialized prefix, reduced by
``np.count_nonzero`` or an integer cumulative sum; tests demand exact
equality between these and the library's ``grid_counts`` route.
``brute_forms`` evaluates one schedule-test tuple at a time by the
documented block contract, for bitwise comparison with the kernel.
"""

import itertools

import numpy as np

from statindep import DensityEstimate


def brute_density(seq, x, kappa, tol=1e-2, window=5):
    """Density of {n : v(n) < x} along kappa, by mask and cumulative sum."""
    checkpoints = kappa.checkpoints
    below = seq.prefix(int(checkpoints[-1])).values < x
    csum = np.cumsum(below, dtype=np.int64)
    return DensityEstimate.from_counts(checkpoints, csum[checkpoints - 1],
                                       tol, window)


def brute_rectangle_count(seqs, corners, n):
    """Number of k <= n with v_i(k) < x_i for every i."""
    mask = np.ones(n, dtype=bool)
    for s, x in zip(seqs, corners):
        mask &= s.prefix(n).values < x
    return int(np.count_nonzero(mask))


def brute_grid_counts(seqs, points, checkpoints):
    """The ``grid_counts`` table, one corner at a time: c[i, j_1..j_m] =
    #{n <= k_i : v_r(n) < points[j_r] for every r}, where the extra index
    j_r = len(points) leaves sequence r unbounded."""
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    depth = int(checkpoints[-1])
    values = [s.prefix(depth).values for s in seqs]
    bounds = list(points) + [np.inf]
    out = np.zeros((checkpoints.size,) + (len(bounds),) * len(seqs),
                   dtype=np.int64)
    for corner in itertools.product(range(len(bounds)), repeat=len(seqs)):
        mask = np.ones(depth, dtype=bool)
        for v, j in zip(values, corner):
            mask &= v < bounds[j]
        out[(slice(None),) + corner] = np.cumsum(mask, dtype=np.int64)[
            checkpoints - 1]
    return out


BLOCK = 1 << 13  # the schedule test's block length


def _block_sum(varying, lo, hi):
    """One block's sum of the product of the varying columns."""
    if len(varying) == 1:
        return np.sum(varying[0][lo:hi])
    term = varying[0][lo:hi]
    for column in varying[1:-1]:
        term = term * column[lo:hi]
    return np.einsum("n,n->", varying[-1][lo:hi], term)


def _blocked_mean(varying, n):
    total = -0.0
    for lo in range(0, n, BLOCK):
        total = total + _block_sum(varying, lo, min(lo + BLOCK, n))
    return total / n


def brute_forms(seqs, funcs, n):
    """``(delta, product, varying)`` of one tuple at N = n, by the contract.

    A slot is constant when f(v(k)) == f(v(1)) for every k <= n.  A sum is
    the left-to-right sum of per-block sums over blocks of ``BLOCK``
    indices, the last ending at n: ``np.sum`` when one slot varies, else the
    left-to-right product of the varying slots but the last, contracted
    with the last one by ``einsum``.  The delta multiplies, in slot order,
    the constants and, at the first varying slot, the blocked mean of the
    varying product; the product multiplies the means in slot order.
    ``varying`` counts the varying slots.
    """
    columns = []
    for s, f in zip(seqs, funcs):
        values = s.prefix(n).values
        columns.append(np.broadcast_to(
            np.asarray(f(values), dtype=np.float64), values.shape))
    constant = [bool(np.all(c == c[0])) for c in columns]
    varying = [c for c, flag in zip(columns, constant) if not flag]
    means = [c[0] if flag else _blocked_mean([c], n)
             for c, flag in zip(columns, constant)]
    product = means[0]
    for mean in means[1:]:
        product = product * mean
    delta, placed = None, False
    for c, flag in zip(columns, constant):
        if flag:
            factor = c[0]
        elif not placed:
            factor, placed = _blocked_mean(varying, n), True
        else:
            continue
        delta = factor if delta is None else delta * factor
    return float(delta), float(product), len(varying)

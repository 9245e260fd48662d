"""Brute-force counting references, independent of the grid counting core.

Each count is a plain boolean mask over the cached prefix, reduced by
``np.count_nonzero`` or an integer cumulative sum; tests demand exact
equality between these and the library's ``grid_codes``/``grid_counts``
route.
"""

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

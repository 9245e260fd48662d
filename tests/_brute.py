"""Brute-force references, independent of the library's fast paths.

Each count is a plain boolean mask over a materialized prefix, reduced by
``np.count_nonzero`` or an integer cumulative sum; tests demand exact
equality between these and the library's ``grid_counts`` route.
``brute_forms`` evaluates one schedule-test tuple at a time by the
documented block contract, for bitwise comparison with the kernel, and
``brute_van_der_corput`` reverses digits by boolean indexing, for bitwise
comparison with the in-place van der Corput core.
``brute_continuity_grid`` keeps ``continuity_grid``'s list-scanning
placement loop, quadratic in the point count, as its reference.
"""

import itertools

import numpy as np

from statindep import GridError
from statindep.distribution import _allowed_segments, _merged_blocked


def brute_density(seq, x, kappa, window=5):
    """Ratios #{n <= k : v(n) < x} / k at kappa's checkpoints k, by mask
    and cumulative sum, and their spread over the last ``window``, as a
    list of Python floats and a float."""
    checkpoints = kappa.checkpoints.tolist()
    below = np.cumsum(seq.prefix(checkpoints[-1]) < x, dtype=np.int64)
    ratios = [int(below[k - 1]) / k for k in checkpoints]
    tail = ratios[-window:]
    return ratios, max(tail) - min(tail)


def brute_rectangle_count(seqs, corners, n):
    """Number of k <= n with v_i(k) < x_i for every i."""
    mask = np.ones(n, dtype=bool)
    for s, x in zip(seqs, corners):
        mask &= s.prefix(n) < x
    return int(np.count_nonzero(mask))


def brute_grid_counts(seqs, points, checkpoints):
    """The ``grid_counts`` table, one corner at a time: c[i, j_1..j_m] =
    #{n <= k_i : v_r(n) < points[j_r] for every r}, where the extra index
    j_r = len(points) leaves sequence r unbounded."""
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    depth = int(checkpoints[-1])
    values = [s.prefix(depth) for s in seqs]
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
        values = s.prefix(n)
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


def brute_van_der_corput(base, ns):
    """The radical inverse of every int64 index in ``ns`` below
    2^63 / base: digits reversed into an integer numerator, updated at
    the indices with digits left, and one division."""
    remaining = ns.copy()
    numer = np.zeros(ns.shape, dtype=np.int64)
    denom = np.ones(ns.shape, dtype=np.int64)
    while remaining.max(initial=0) > 0:
        active = remaining > 0
        digits = remaining % base
        remaining = remaining // base
        numer[active] = numer[active] * base + digits[active]
        denom[active] *= base
    return numer / denom


def brute_continuity_grid(cdfs, count, atom_tol=1e-3, interval=None):
    """``continuity_grid`` for valid arguments by list membership tests
    and a rescan of every clear segment per fill-up point."""
    interval = cdfs[0].interval if interval is None else interval
    a, b = interval.a, interval.b
    blocked = _merged_blocked(np.concatenate(
        [np.empty(0)] + [cdf.heavy_atoms(atom_tol) for cdf in cdfs]), atom_tol)
    starts = np.asarray([lo for lo, _ in blocked])

    def relocate(x):
        if not blocked:
            return x
        i = int(np.searchsorted(starts, x, side="right")) - 1
        if i < 0 or x >= blocked[i][1]:
            return x
        lo, hi = blocked[i]
        options = [p for p in (lo, hi) if a < p < b]
        if not options:
            return None
        return min(options, key=lambda p: (abs(p - x), p))

    chosen = []
    for i in range(1, count + 1):
        placed = relocate(a + i * (b - a) / (count + 1))
        if placed is not None and placed not in chosen:
            chosen.append(placed)
    chosen.sort()
    if len(chosen) < count:
        segments = list(_allowed_segments(interval, blocked))
        budget = 4 * count + 64
        while len(chosen) < count and segments and budget > 0:
            budget -= 1
            j = max(range(len(segments)),
                    key=lambda i: (segments[i][1] - segments[i][0],
                                   -segments[i][0]))
            lo, hi = segments.pop(j)
            mid = lo + (hi - lo) / 2.0
            if mid not in chosen:
                chosen.append(mid)
            if lo < mid:
                segments.append((lo, np.nextafter(mid, lo)))
            if mid < hi:
                segments.append((np.nextafter(mid, hi), hi))
        chosen.sort()
        if len(chosen) < count:
            raise GridError(
                f"cannot place {count} atom-clear points on ({a}, {b}); "
                f"achievable: {len(chosen)}", achievable=len(chosen))
    return np.asarray(chosen, dtype=np.float64)

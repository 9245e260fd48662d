#!/usr/bin/env python3
"""Empirical distribution of two classic low-discrepancy sequences.

Prints the empirical CDF of frac(n*(sqrt(2)-1)) and the base-2 radical
inverse at the deciles for a few depths, then checks the averaged-function
identity: the mean of f over the first N terms equals the integral of f
against the depth-N empirical CDF, by rearrangement, to double precision.
"""

import numpy as np

from statindep import (
    KroneckerSequence,
    SubsequenceIndex,
    UNIT,
    VanDerCorputSequence,
    default_battery,
    empirical_cdf,
    stieltjes,
)

DEPTHS = (100, 1000, 10000, 100000)
DECILES = np.linspace(0.1, 0.9, 9)


def main():
    schedule = SubsequenceIndex(DEPTHS, name="depths")
    battery = default_battery(UNIT)

    for seq in (KroneckerSequence("sqrt2-1"), VanDerCorputSequence(2)):
        print(f"\n{seq.label}")
        print("  depth   " + "  ".join(f"F({x:.1f})" for x in DECILES))
        for j, n in enumerate(DEPTHS, start=1):
            cdf = empirical_cdf(seq, schedule, depth=j)
            row = "  ".join(f"{cdf.eval(float(x)):.4f}" for x in DECILES)
            print(f"  {n:>6}  {row}")
        print("  (a uniform limit would read 0.1000 .. 0.9000)")

        n = DEPTHS[-1]
        cdf = empirical_cdf(seq, schedule)
        values = seq.prefix(n)
        print(f"  averaged-function identity at depth {n}:")
        for member in battery:
            fx = np.asarray(member(values), dtype=np.float64)
            if fx.shape != values.shape:
                fx = np.broadcast_to(fx, values.shape)
            mean = float(np.sum(fx) / n)
            integral = stieltjes(member, cdf)
            print(f"    {member.name:<8} mean {mean:+.9f}  "
                  f"integral {integral:+.9f}  |diff| {abs(mean - integral):.2e}")


if __name__ == "__main__":
    main()

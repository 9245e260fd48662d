#!/usr/bin/env python3
"""A sequence with no limiting distribution, tamed by checkpoint extraction.

The block sequence sits at 0 for a stretch, then at 1 for a doubled
stretch, and so on; the running share of values below 0.5 swings between
1/3 and 2/3 forever. No density exists along the full checkpoint pool.
Greedy band selection over a geometric pool keeps only checkpoints whose
ratios cluster, which yields a subsequence along which every preimage
density settles down.
"""

import numpy as np

from statindep import (
    SubsequenceIndex,
    detect_measurable,
    helly_extract,
    make_block,
)


def geometric_pool(max_exp=18, per_octave=8):
    js = np.arange(0, per_octave * max_exp + 1)
    ks = np.unique(np.round(np.exp2(js / per_octave)).astype(np.int64))
    return SubsequenceIndex(ks, rule="geometric, eight per octave",
                            name="geometric")


def main():
    blk = make_block(0.0, 1.0, 2)
    grid = np.array([0.5])

    pow2 = SubsequenceIndex(2 ** np.arange(0, 18), name="pow2")
    rep = detect_measurable(blk, pow2, grid)
    print("share of terms below 0.5 along powers of two:")
    print("  " + "  ".join(f"{r:.3f}" for r in rep.ratios[-10:, 0])
          + "  (last 10)")
    print(f"  trailing oscillation {rep.oscillations[0]:.3f} -> no density "
          f"along this checkpoint sequence")
    print(f"  detect_measurable: measurable={rep.measurable}")

    pool = geometric_pool()
    kappa = helly_extract([blk], pool, grid)
    print(f"\nextraction kept {len(kappa)} of {len(pool)} checkpoints "
          f"(deepest {kappa.deepest}):")
    print("  " + ", ".join(str(int(k)) for k in kappa.checkpoints))
    rep2 = detect_measurable(blk, kappa, grid)
    print("  ratios along the extracted checkpoints:")
    print("  " + "  ".join(f"{r:.4f}" for r in rep2.ratios[:, 0]))
    print(f"  trailing oscillation {rep2.oscillations[0]:.2e} -> density "
          f"exists along these checkpoints")
    print(f"  detect_measurable: measurable={rep2.measurable}, "
          f"limiting F(0.5) ~ {rep2.ratios[-1, 0]:.4f}")

    again = helly_extract([blk], kappa, grid, min_pool=5)
    print(f"\nre-running extraction on its own output is a no-op: "
          f"{again == kappa}")


if __name__ == "__main__":
    main()

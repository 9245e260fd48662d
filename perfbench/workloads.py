"""Workload definitions: seeded experiment specs for ``statindep independence``.

Every workload runs the independence subcommand with the default six-member
battery.  A workload seed picks the Kronecker rotation numbers from a fixed
list of quadratic irrationals frac(sqrt(p)), p prime, and sets the spec's
``seed`` field (which draws the ``thinned`` checkpoints).  Distinct primes
give rationally independent rotations, so the expected verdict is always
``independent``.  Workload seed 0 uses the named constants instead; its
outputs are compared against reference files recorded from the seed commit.
"""

from __future__ import annotations

import random
from decimal import Decimal, localcontext

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Named rotation numbers (strings) become Kronecker sequences; a workload
# seed other than 0 replaces them with frac(sqrt(p)) for distinct primes p.

# Workload seeds checked at the seed commit by record.py: each gives exit
# code 0, every verdict independent, every kappa tested and agreement true
# on all three workloads.  A ``--seed n`` argument selects
# SEEDS[n % len(SEEDS)], so every seed the benchmark accepts has been checked.
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)

WORKLOADS = {
    # Rectangle and measurability path with long checkpoint traces: evens,
    # odds and thinned hold about 5e4 checkpoints each, so kappa_density
    # dominates and the schedule test barely runs.
    "pair-family": {
        "sequences": ("sqrt2-1", "sqrt3-1"),
        "schedule": (100, 1000, 10000, 100000),
        "kappa": "default",
        "grid": {"deciles": True},
        "depth": 100000,
    },
    # 6**4 = 1296 battery tuples x 4 schedule points stress the schedule
    # test's multilinear kernel; one short kappa keeps density near zero.
    "schedule-quad": {
        "sequences": ("sqrt2-1", "sqrt3-1", "golden",
                      {"kind": "van_der_corput", "params": {"base": 3}}),
        "schedule": (1000, 10000, 100000, 400000),
        "kappa": "pow2",
        "grid": (0.25, 0.5, 0.75),
        "depth": 400000,
    },
    # About 15 checkpoints over a 4M-long prefix: the same density layer in
    # the opposite shape to pair-family, plus extraction, prefix growth,
    # empirical CDFs and the only large memory footprint.
    "deep-extract": {
        "sequences": ({"kind": "block",
                       "params": {"low": 0, "high": 1, "growth": 2}},
                      "sqrt2-1"),
        "schedule": (10000, 100000, 1000000, 4194304),
        "kappa": "extract",
        "grid": {"deciles": True},
        "depth": 4194304,
    },
}


def frac_sqrt(p: int) -> str:
    """frac(sqrt(p)) as a 30-digit decimal string (parsed at extended precision)."""
    with localcontext() as ctx:
        ctx.prec = 40
        root = Decimal(p).sqrt()
    return format(root - int(root), ".30f")


def variant_seed(seed: int) -> int:
    """The checked workload seed that a ``--seed`` argument selects."""
    return SEEDS[seed % len(SEEDS)]


def make_spec(name: str, seed: int) -> dict:
    """The experiment spec of workload ``name`` at workload seed ``seed``."""
    w = WORKLOADS[name]
    named = [s for s in w["sequences"] if isinstance(s, str)]
    if seed == 0:
        alphas = iter(named)
    else:
        alphas = iter(frac_sqrt(p) for p in
                      random.Random(seed).sample(PRIMES, len(named)))
    sequences = [{"kind": "kronecker", "params": {"alpha": next(alphas)}}
                 if isinstance(s, str) else s for s in w["sequences"]]
    grid = w["grid"]
    return {
        "sequences": sequences,
        "schedule": list(w["schedule"]),
        "kappa": w["kappa"],
        "grid": list(grid) if isinstance(grid, tuple) else dict(grid),
        "outputs": {"basename": name.replace("-", "_")},
        "seed": seed,
    }


def cli_args(name: str, spec_path: str, out_dir: str) -> list[str]:
    """Arguments of the ``statindep`` CLI for one run of workload ``name``."""
    return ["independence", "--spec", spec_path, "--out", out_dir,
            "--depth", str(WORKLOADS[name]["depth"])]


def working_set_bytes(name: str) -> int:
    """Computed size of the float64 prefixes the workload materializes."""
    w = WORKLOADS[name]
    return len(w["sequences"]) * w["depth"] * 8

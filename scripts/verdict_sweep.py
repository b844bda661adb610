#!/usr/bin/env python3
"""Sweep random PL schedules and tabulate the three grid verdicts.

Checks the implication chain (mixing => weak mixing => transitivity) on
every draw, and that each verdict lists every row exactly once: k^2 cell
pairs for transitivity and mixing, k^4 pairs of pairs for weak mixing, on
a grid of k cells. Prints how often each property is witnessed at the
chosen resolution. Useful for eyeballing how much the verdicts separate
at a given (grid, horizon).
"""

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from randgen import rand_schedule  # noqa: E402

from nadyn import (  # noqa: E402
    mixing_verdict,
    open_grid,
    parse_rational,
    transitivity_verdict,
    weakmix_verdict,
)


def run(count: int, seed: int, grid: Fraction, horizon: int, mixing_bias: bool) -> int:
    rng = random.Random(seed)
    tally = {"mixing": 0, "weak_mixing": 0, "transitivity": 0}
    violations = 0
    for i in range(count):
        sch = rand_schedule(rng, mixing_bias=mixing_bias)
        mix = mixing_verdict(sch, grid, horizon)
        weak = weakmix_verdict(sch, grid, horizon)
        trans = transitivity_verdict(sch, grid, horizon)
        tally["mixing"] += mix.witnessed
        tally["weak_mixing"] += weak.witnessed
        tally["transitivity"] += trans.witnessed
        if (mix.witnessed and not weak.witnessed) or (weak.witnessed and not trans.witnessed):
            violations += 1
            print(f"  LATTICE VIOLATION at draw {i}", file=sys.stderr)
        k = len(open_grid(sch.domain, grid))
        for v, rows in ((mix, k**2), (weak, k**4), (trans, k**2)):
            if len(v.witnesses) + len(v.unhit) != rows:
                violations += 1
                print(f"  LISTING VIOLATION at draw {i}: {v.property_name} lists "
                      f"{len(v.witnesses)} + {len(v.unhit)} rows, not {rows}", file=sys.stderr)
    print(f"schedules: {count}   grid: {grid}   horizon: {horizon}   seed: {seed}")
    for name in ("mixing", "weak_mixing", "transitivity"):
        print(f"  witnessed {name:<13} {tally[name]:>4} / {count}")
    print(f"  violations           {violations:>4}")
    return 1 if violations else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=103)
    ap.add_argument("--grid", type=parse_rational, default=Fraction(1, 8))
    ap.add_argument("--horizon", type=int, default=12)
    ap.add_argument("--no-mixing-bias", action="store_true",
                    help="draw plain random schedules only")
    args = ap.parse_args()
    sys.exit(run(args.count, args.seed, args.grid, args.horizon, not args.no_mixing_bias))

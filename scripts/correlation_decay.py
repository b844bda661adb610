#!/usr/bin/env python3
"""Export exact correlation series and Cesàro averages for a bundled system.

Writes the per-lag CSV next to a printed summary, then cross-checks a
few lags against the Monte Carlo estimator and exits 1 if any estimate
is more than 5 sigma from the exact value. Example:

    python scripts/correlation_decay.py --system tent --A "[0,1/2]" \
        --B "[0,1/2]" --N 16 --csv /tmp/tent.csv
"""

import argparse
import csv
import math
import sys

from nadyn import (
    IntervalSet,
    SampleConfig,
    bundled_example,
    cesaro_deviation,
    correlation_series,
    format_rational,
    mc_correlation,
    parse_system_file,
)
from nadyn.plmaps import BUNDLED_EXAMPLE_NAMES


MAX_SIGMAS = 5.0


def sigmas_off(estimate: float, exact: float, m: int) -> float:
    """|estimate - exact| in binomial standard errors of the exact value.

    The error comes from the exact value, never from the estimate: a
    collapsed float orbit can report a wrong estimate with zero stderr.
    It is floored at one hit in m, so an exact 0 or 1 still has one.
    """
    sigma = math.sqrt(max(exact * (1 - exact), 1 / m) / m)
    return abs(estimate - exact) / sigma


def run(args) -> int:
    if args.system in BUNDLED_EXAMPLE_NAMES:
        sch = bundled_example(args.system)
    else:
        sch = parse_system_file(args.system)
    a = IntervalSet.parse(args.A)
    b = IntervalSet.parse(args.B)
    series = correlation_series(sch, a, b, args.N)
    print(f"system {args.system}: mu(A)={format_rational(series.mu_a)} "
          f"mu(B)={format_rational(series.mu_b)} product={format_rational(series.product)}")
    for n in (1, args.N // 2, args.N):
        if n >= 1:
            print(f"  cesaro deviation over first {n:>3}: "
                  f"{format_rational(cesaro_deviation(series, n))}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "c_i", "deviation_i"])
            for i, (v, d) in enumerate(zip(series.values, series.deviations)):
                writer.writerow([i, format_rational(v), format_rational(d)])
        print(f"  series written to {args.csv}")
    failed = False
    if args.mc_samples:
        cfg_lags = sorted({1, args.N - 1, args.N // 2} & set(range(args.N)))
        for lag in cfg_lags:
            estimate, _ = mc_correlation(
                sch, a, b, lag, SampleConfig(args.mc_samples, seed=lag)
            )
            exact = float(series.values[lag])
            sigmas = sigmas_off(estimate, exact, args.mc_samples)
            verdict = "" if sigmas <= MAX_SIGMAS else f"  FAIL (> {MAX_SIGMAS:g} sigma)"
            print(f"  mc lag {lag:>3}: estimate {estimate:.5f} "
                  f"(exact {exact:.5f}, {sigmas:.1f} sigma){verdict}")
            failed |= sigmas > MAX_SIGMAS
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--system", default="tent")
    ap.add_argument("--A", default="[0,1/2]")
    ap.add_argument("--B", default="[0,1/2]")
    ap.add_argument("--N", type=int, default=16)
    ap.add_argument("--csv", default=None)
    ap.add_argument("--mc-samples", type=int, default=100_000)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

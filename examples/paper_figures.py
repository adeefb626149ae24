#!/usr/bin/env python
"""Regenerate the paper's headline evaluation figures from the library API.

Prints Fig 2 (why duplication doesn't scale), Fig 13 (the main result), and
Fig 17 (composition traffic) for a configurable benchmark subset. The full
per-figure harness lives in benchmarks/ (pytest targets that check each
figure against its committed report); this example shows how to drive the
same experiment functions directly.

Run:  python examples/paper_figures.py [bench ...]
"""

import sys

from repro.harness import experiments as E
from repro.harness import report as R
from repro.traces import BENCHMARK_NAMES


def main() -> None:
    benchmarks = tuple(sys.argv[1:]) or BENCHMARK_NAMES[:4]
    print(f"benchmarks: {', '.join(benchmarks)}  (tiny scale)\n")

    shares = E.fig2_geometry_share(benchmarks=benchmarks)
    print(R.render_fig2(shares))
    print()

    table = E.fig13_performance(benchmarks=benchmarks)
    print(R.render_speedups(
        table, "Fig 13: 8-GPU speedup vs primitive duplication"))
    print()

    traffic = E.fig17_traffic(benchmarks=benchmarks)
    print(R.render_fig17(traffic))

    means = table["GMean"]
    print(f"\nCHOPIN+CompSched gmean speedup: {means['chopin+sched']:.3f}x "
          f"(paper: 1.25x); IdealCHOPIN: {means['chopin-ideal']:.3f}x "
          f"(paper: 1.31x)")


if __name__ == "__main__":
    main()

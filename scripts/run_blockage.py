#!/usr/bin/env python3
"""Blockage probability vs traffic density for both link distances.

Defaults: rho in {10, 20, 30, 40} cars/km/lane, r_d in {50, 100} m,
10^4 trials per point.  Extra CLI flags pass through, e.g.

    python3 scripts/run_blockage.py --trials 1000 --threads 4

The default run (8 points x 10^4 trials) took 12.1-14.2 s sequentially and
7.1-9.0 s with --threads 2, wall clock including start-up (3 runs each), on
2 vCPUs (Python 3.11.7, numpy 2.4.6, no BLAS thread variable set).
"""

import sys

from conformal_v2v.cli import main

if __name__ == "__main__":
    sys.exit(main(["blockage", "--out-dir", "results/blockage", *sys.argv[1:]]))

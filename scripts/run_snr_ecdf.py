#!/usr/bin/env python3
"""SNR ECDFs for the direct and relayed links.

Runs in the reduced-surface mode (100x100 elements with the amplitude
correction that preserves the 400x400 cascade budget, about 0.09 s per
trial) so a laptop finishes in minutes.  Pass --full for the full-size
surfaces, about 1.3 s per trial at rho 40 and r_d 100 on one core; any
other CLI flag passes through:

    python3 scripts/run_snr_ecdf.py --trials 500 --threads 4
    python3 scripts/run_snr_ecdf.py --full --trials 200
"""

import sys

from conformal_v2v.cli import main

if __name__ == "__main__":
    args = sys.argv[1:]
    if "--full" in args:
        args.remove("--full")
    else:
        args.insert(0, "--reduced")
    sys.exit(main(["snr-ecdf", "--out-dir", "results/snr_ecdf", *args]))

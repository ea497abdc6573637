#!/usr/bin/env python3
"""SNR ECDFs for the direct and relayed links.

Runs in the reduced-surface mode (100x100 elements with a x16 amplitude
correction, about 0.09 s per trial) so a laptop finishes in minutes.  The
correction restores only the far-field coherent budget of the 400x400
surface: at highway relay distances the reduced surface overstates the
full-size relayed gains by up to 16.5 dB (the full-surface run in
CHANGES.md: tunable median gain 42.82 dB reduced vs 26.35 dB full at
rho 40).  Pass --full for the full-size surfaces, about 1.3 s per trial at
rho 40 and r_d 100 on one core; any other CLI flag passes through:

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

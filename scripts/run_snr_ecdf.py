#!/usr/bin/env python3
"""SNR ECDFs for the direct and relayed links.

Defaults: rho in {10, 40} cars/km/lane, r_d in {50, 100} m, R in {2, 8} m,
200 trials per point on the full-size 400x400 surfaces.  Each door's
cascade is scored from a skeleton of 24 columns and, picked by DEIM, as
many rows as the door's numerical rank (5-14 at full size; the column
count doubles where four probe columns disagree by more than 1e-11), so a
full-size trial costs about 0.12 s per radius at rho 40 and r_d 100 on one
core.  A trial is one scene scored at every radius: the traffic, the direct
link and each door's path phases (one per leg) are drawn once, so the
direct ECDF is equal across radii by construction.  Each sidecar counts,
under "telemetry", the door cascades at each numerical rank, the IRS and
RIS doors gated per trial, the trials max_candidates truncated and the
dropped placements.  Extra CLI flags pass through, e.g.

    python3 scripts/run_snr_ecdf.py --trials 500 --threads 4
    python3 scripts/run_snr_ecdf.py --reduced --trials 50

Each worker process runs BLAS on one thread.  --reduced (100x100 elements
with a x16 amplitude correction, about 0.05 s per trial) is for quick looks
only: at highway relay distances it overstates the full-size relayed gains
by up to 16.5 dB (see the README).
"""

import sys

from conformal_v2v.cli import main

if __name__ == "__main__":
    sys.exit(main(["snr-ecdf", "--out-dir", "results/snr_ecdf", *sys.argv[1:]]))

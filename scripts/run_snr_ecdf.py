#!/usr/bin/env python3
"""SNR ECDFs for the direct and relayed links.

Defaults: rho in {10, 40} cars/km/lane, r_d in {50, 100} m, R in {2, 8} m,
200 trials per point on the full-size 400x400 surfaces.  Each door's
cascade is scored from a skeleton of 12 columns and, picked by DEIM, as
many rows as the door's numerical rank (5-14 at full size; where four
probe columns disagree by more than 1e-11, every midpoint between the
columns joins them, 12 -> 23 -> 45, and no column is evaluated twice), so
a full-size trial costs 0.10-0.11 s for both radii at rho 40 and r_d 100
on one core (seed 9, 12 trials, 3 runs of 3; 2 vCPUs, Python 3.11.7,
numpy 2.4.6, one BLAS thread).
A trial is one scene scored at every radius: the traffic, the direct link
and each door's path phases (one per leg) are drawn once, so the direct
ECDF is equal across radii by construction.  Each trial returns one
record: its SNRs, its gated IRS and RIS doors, its dropped placements and
its door cascades per (radius, numerical rank) and each relayed mode's
winning beam pair per radius.  Each ECDF sidecar's "telemetry" formats its
point's record (door counts per trial, the trials max_candidates
truncated, dropped placements, and the cascade ranks and winners at its
radius); snr_summary.json formats the record of every trial, with the
ranks and winners summed over radii.  Extra CLI flags pass through, e.g.

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

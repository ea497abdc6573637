"""Self-test of the benchmark's output checks: each must fail on a corrupted output.

    python3 bench/selftest.py

Runs one small round of each kind of workload, requires the checks to pass on
its genuine output, then corrupts a copy of that output in one way at a time
and requires the checks to report a problem.  Exits 1 if a genuine output is
refused or a corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

import run

run.prepare_environment()

import checks  # noqa: E402
from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, BlockageSweep, GainSweep, SnrEcdf  # noqa: E402

SEED = 7


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after ``edit(rows)`` changed its list of row dicts."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    edit(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def set_cell(rows, match: dict, column: str, value) -> None:
    hits = [r for r in rows if all(r[k] == v for k, v in match.items())]
    if not hits:
        raise LookupError(f"no row matches {match}")
    hits[0][column] = repr(float(value))


def shift_direct(workload):
    """Corruption moving every direct SNR up by 8 standard errors of their mean."""

    def corrupt(out: Path) -> None:
        config = workload.config(SEED)
        variance, count = 0.0, 0
        for rho in workload.rhos:
            for r_d in workload.r_ds:
                for t in range(workload.trials):
                    scene = checks.regenerate_scene(config, rho, r_d, SEED, t)
                    b = checks.direct_blockers(scene)
                    variance += checks.direct_snr_variance_db2(config, b)
                    count += 1
        shift = 8.0 * math.sqrt(variance) / count
        for path in out.glob("snr_ecdf_direct_*.csv"):
            edit_csv(path, lambda rows: [
                r.update(snr_db=repr(float(r["snr_db"]) + shift)) for r in rows
            ])
        columns = ("median_db", "median_ci_low_db", "median_ci_high_db")
        edit_csv(out / "snr_summary.csv", lambda rows: [
            r.update({c: repr(float(r[c]) + shift) for c in columns})
            for r in rows if r["mode"] == "direct"
        ])

    return corrupt


def cases(blockage, snr, gain):
    """(workload, description, words the expected problem holds, corruption)."""
    rho, r_d = blockage.rhos[-1], blockage.r_ds[-1]
    bl = "blockage.csv"
    one_trial = 1.0 / blockage.trials

    def bump_direct(rows):
        row = next(r for r in rows if r["mode"] == "direct" and
                   float(r["rho"]) == rho and float(r["r_d"]) == r_d)
        row["p_block"] = repr(float(row["p_block"]) + one_trial)

    def irs_above_direct(rows):
        at = [r for r in rows if float(r["rho"]) == rho and float(r["r_d"]) == r_d]
        direct = next(r for r in at if r["mode"] == "direct")
        irs = next(r for r in at if r["mode"] == "with_irs")
        irs["p_block"] = repr(float(direct["p_block"]) + one_trial)

    s_rho, s_rd, s_r = snr.rhos[0], snr.r_ds[0], snr.radii[0]
    ris = checks.ecdf_name("with_ris", s_r, s_rho, s_rd)
    direct = checks.ecdf_name("direct", s_r, s_rho, s_rd)

    def ris_below_direct(out: Path) -> None:
        lowest = float(checks.read_csv(out / direct)[0]["snr_db"])
        edit_csv(out / ris, lambda rows: rows[0].update(snr_db=repr(lowest - 1.0)))

    def direct_depends_on_radius(out: Path) -> None:
        other = checks.ecdf_name("direct", snr.radii[1], s_rho, s_rd)
        edit_csv(out / other, lambda rows: rows[0].update(
            snr_db=repr(float(rows[0]["snr_db"]) - 0.5)))

    def summary_median_off(rows):
        row = next(r for r in rows if r["mode"] == "with_ris")
        row["median_db"] = repr(float(row["median_ci_high_db"]) + 1.0)

    gain_bound = checks.gain_bound_db(gain.config(SEED).f_ghz)

    def gain_cell(name, angle, column, value):
        return lambda out: edit_csv(
            out / name, lambda rows: set_cell(rows, {"angle_deg": f"{angle:g}"}, column, value)
        )

    elevation, azimuth = gain.angles(SEED)
    off_peak = next(a for a in elevation if a != 90.0)
    return [
        (blockage, "direct p_block one trial high", "recount",
         lambda out: edit_csv(out / bl, bump_direct)),
        (blockage, "with_irs blocked more often than direct", "not ordered",
         lambda out: edit_csv(out / bl, irs_above_direct)),
        (blockage, "a row missing", "modes",
         lambda out: edit_csv(out / bl, lambda rows: rows.pop())),
        (snr, "an ECDF row missing", "rows, want",
         lambda out: edit_csv(out / ris, lambda rows: rows.pop())),
        (snr, "a non-finite SNR", "finite",
         lambda out: edit_csv(out / ris, lambda rows: rows[-1].update(snr_db="nan"))),
        (snr, "a relayed order statistic below the direct one", "below the direct",
         ris_below_direct),
        (snr, "direct SNRs shifted by 8 standard errors", "standard errors",
         shift_direct(snr)),
        (snr, "direct ECDF changes with the radius", "differs from the direct",
         direct_depends_on_radius),
        (snr, "summary median outside its interval", "summary median",
         lambda out: edit_csv(out / "snr_summary.csv", summary_median_off)),
        (gain, "flat column 1e-4 dB off the bound", "flat",
         gain_cell("gain_elevation.csv", off_peak, "gain_db_flat", gain_bound - 1e-4)),
        (gain, "bare surface above the bound", "above bound",
         gain_cell("gain_azimuth.csv", azimuth[0], "gain_db_bare", gain_bound + 1e-3)),
        (gain, "configured surface misses the bound at 90 deg elevation", "does not reach",
         gain_cell("gain_elevation.csv", 90.0, "gain_db_cirs", gain_bound - 1e-3)),
        (gain, "configured surface misses the bound at -thetabar azimuth", "does not reach",
         gain_cell("gain_azimuth.csv", -60.0, "gain_db_cirs", gain_bound - 1e-3)),
        (gain, "an angle row missing", "angles",
         lambda out: edit_csv(out / "gain_azimuth.csv", lambda rows: rows.pop(1))),
    ]


def spec_problems() -> list[str]:
    """Differences between BENCHMARK.json and the metrics and workloads here."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("end_to_end metrics differ from run.END_TO_END_UNITS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(METRICS):
        problems.append("per_layer metrics differ from tracing.METRICS")
    return problems


def main() -> int:
    blockage = BlockageSweep(trials=20)
    snr = SnrEcdf("snr_selftest", reduced=True, trials=3,
                  rhos=(40.0,), r_ds=(50.0,), radii=(2.0, 8.0))
    gain = GainSweep(angles_per_figure=4)
    work = run.OUT_DIR / f"selftest-{os.getpid()}"
    problems = spec_problems()
    failures = len(problems)
    print(f"{'BENCHMARK.json':14s} matches the code: {'; '.join(problems) or 'ok'}")
    try:
        genuine = {}
        for workload in (blockage, snr, gain):
            out = work / workload.name
            workload.run_round(SEED, out)
            problems = workload.check([(SEED, out)])
            genuine[workload.name] = out
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            failures += bool(problems)
            print(f"{workload.name:14s} genuine output passes: {status}")
        for i, (workload, what, expected, corrupt) in enumerate(cases(blockage, snr, gain)):
            out = work / f"case{i}"
            shutil.copytree(genuine[workload.name], out)
            corrupt(out)
            hits = [p for p in workload.check([(SEED, out)]) if expected in p]
            failures += not hits
            status = f"caught ({hits[0]})" if hits else "NOT CAUGHT"
            print(f"{workload.name:14s} {what}: {status}")
        twin = work / "twin"
        shutil.copytree(genuine[gain.name], twin)
        edit_csv(twin / "gain_azimuth.csv", lambda rows: rows.reverse())
        caught = not run.same_outputs(genuine[gain.name], twin)
        failures += not caught
        print(f"{'trace':14s} traced output differs from untraced: "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.OUT_DIR.rmdir()
    print("self-test passed" if not failures else f"self-test FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

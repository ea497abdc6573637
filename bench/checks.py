"""Correctness checks on the simulator's outputs, made apart from the simulator.

Every check reads the CSV files a workload wrote and compares them with a
property derived here, from the configuration and first principles, never
with a stored copy of an earlier output.  The only program functions used are
``generate_traffic`` and ``trial_rng``, to regenerate the scenes a sweep saw;
the blockage geometry, the direct-link budget and the gain bound are computed
in this file.

Each check function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SPEED_OF_LIGHT_M_S = 299_792_458.0
GAIN_APERTURE_SIDE_M = 1.0       # the gain figures use a 1 m x 1 m aperture
GAIN_SPACING_WAVELENGTHS = 0.25  # at quarter-wave element spacing
GAIN_TOLERANCE_DB = 1e-6         # CSV cells carry 9 significant digits
MODES = ("direct", "with_irs", "with_ris")


def read_csv(path: Path) -> list[dict[str, str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_sidecar(csv_path: Path) -> dict:
    return json.loads(Path(csv_path).with_suffix(".json").read_text())


# --- plan-view blockage, written independently of the simulator -------------


def _orientation(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(
        a[1], b[1]
    )


def _segments_meet(p, q, a, b) -> bool:
    """Closed segments p-q and a-b share a point (orientation test)."""
    d1, d2 = _orientation(a, b, p), _orientation(a, b, q)
    d3, d4 = _orientation(p, q, a), _orientation(p, q, b)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _on_segment(a, b, p))
        or (d2 == 0 and _on_segment(a, b, q))
        or (d3 == 0 and _on_segment(p, q, a))
        or (d4 == 0 and _on_segment(p, q, b))
    )


def segment_meets_rectangle(p, q, rect) -> bool:
    """Whether the plan-view segment p-q meets the closed rectangle.

    ``rect`` is (xmin, xmax, ymin, ymax).  The segment meets it when an
    endpoint lies inside or the segment crosses one of the four edges.
    """
    xmin, xmax, ymin, ymax = rect
    if max(p[0], q[0]) < xmin or min(p[0], q[0]) > xmax:
        return False
    if max(p[1], q[1]) < ymin or min(p[1], q[1]) > ymax:
        return False
    for pt in (p, q):
        if xmin <= pt[0] <= xmax and ymin <= pt[1] <= ymax:
            return True
    corners = ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax))
    return any(_segments_meet(p, q, corners[i], corners[(i + 1) % 4]) for i in range(4))


def direct_blockers(scene) -> int:
    """Vehicles other than the two link ends that the TxV-RxV ray crosses."""
    p = (float(scene.p_t[0]), float(scene.p_t[1]))
    q = (float(scene.p_r[0]), float(scene.p_r[1]))
    ends = {scene.txv, scene.rxv}
    return sum(
        1
        for i, vehicle in enumerate(scene.vehicles)
        if i not in ends and segment_meets_rectangle(p, q, vehicle.footprint)
    )


def regenerate_scene(config, rho: float, r_d: float, seed: int, trial: int):
    """The scene trial ``trial`` of a sweep at master seed ``seed`` saw."""
    from conformal_v2v.experiments import trial_rng
    from conformal_v2v.geometry import RoadConfig
    from conformal_v2v.scenario import generate_traffic

    road = RoadConfig(
        length=config.road_length_m,
        n_lanes=config.n_lanes,
        lane_width=config.lane_width_m,
    )
    return generate_traffic(
        road,
        rho,
        trial_rng(seed, trial),
        link_distance_m=r_d,
        vehicle_length_m=config.vehicle_length_m,
        vehicle_width_m=config.vehicle_width_m,
        vehicle_height_m=config.vehicle_height_m,
    )


# --- blockage sweep -----------------------------------------------------------


def check_blockage(
    csv_path: Path, config, seed: int, trials: int, rhos, r_ds
) -> list[str]:
    """blockage.csv: complete rows, recounted direct blockage, mode ordering."""
    problems: list[str] = []
    rows = read_csv(csv_path)
    by_point: dict[tuple[float, float], dict[str, dict]] = {}
    for row in rows:
        by_point.setdefault((float(row["rho"]), float(row["r_d"])), {})[row["mode"]] = row
    for rho in rhos:
        for r_d in r_ds:
            point = by_point.get((rho, r_d), {})
            if sorted(point) != sorted(MODES):
                problems.append(f"rho={rho} r_d={r_d}: modes {sorted(point)}")
                continue
            p = {mode: float(point[mode]["p_block"]) for mode in MODES}
            if any(int(point[mode]["trials"]) != trials for mode in MODES):
                problems.append(f"rho={rho} r_d={r_d}: trials column is not {trials}")
            expected = sum(
                direct_blockers(regenerate_scene(config, rho, r_d, seed, t)) >= 1
                for t in range(trials)
            )
            if abs(p["direct"] * trials - expected) > 1e-6:
                problems.append(
                    f"rho={rho} r_d={r_d}: p_block(direct) x trials = "
                    f"{p['direct'] * trials:.6f}, recount {expected}"
                )
            if not p["with_ris"] <= p["with_irs"] <= p["direct"]:
                problems.append(
                    f"rho={rho} r_d={r_d}: p_block not ordered "
                    f"ris {p['with_ris']} <= irs {p['with_irs']} <= direct {p['direct']}"
                )
    if len(rows) != 3 * len(rhos) * len(r_ds):
        problems.append(f"{len(rows)} rows, expected {3 * len(rhos) * len(r_ds)}")
    return problems


# --- SNR ECDFs ----------------------------------------------------------------


def ecdf_name(mode: str, radius: float, rho: float, r_d: float) -> str:
    return f"snr_ecdf_{mode}_R{radius:g}_rho{rho:g}_rd{r_d:g}.csv"


def direct_snr_mean_db(config, r_d: float, blockers: int) -> float:
    """Expected direct SNR of a trial with ``blockers`` vehicles on the ray.

    Both ends sit at roof height, so the ray is horizontal and each endpoint
    pattern is at its peak sqrt(G), G = 2(2q+1).  Matched K-element beams on
    the rank-one channel give P_t - N + 30 log10 K + 20 log10 G - PL, with
    PL = 32.4 + 20 log10 r_d + 20 log10 f_GHz + A_b + shadowing.  A_b has
    mean 0 without blockers and mu1 + step (b - 1) with b >= 1.
    """
    gain = 2.0 * (2.0 * config.q_pattern + 1.0)
    mean_block = (
        0.0
        if blockers == 0
        else config.block_mu1_db + config.block_step_db * (blockers - 1)
    )
    return (
        config.tx_power_dbm
        - config.noise_power_dbm
        + 30.0 * math.log10(config.k_antennas)
        + 20.0 * math.log10(gain)
        - (32.4 + 20.0 * math.log10(r_d) + 20.0 * math.log10(config.f_ghz))
        - mean_block
    )


def direct_snr_variance_db2(config, blockers: int) -> float:
    var = config.sigma_shadow_db**2
    if blockers >= 1:
        var += config.block_sigma_db**2
    return var


class DirectSnrMean:
    """Pools direct-SNR residuals over ECDFs; the mean must lie within 4 SE.

    Each trial's direct SNR is its closed-form mean minus two Gaussian draws
    (shadowing and blockage), so the pooled residual sum has a known variance.
    """

    LIMIT = 4.0

    def __init__(self):
        self.residual = 0.0
        self.variance = 0.0
        self.trials = 0

    def add(self, values_db, expected_db, variances) -> None:
        self.residual += sum(values_db) - sum(expected_db)
        self.variance += sum(variances)
        self.trials += len(values_db)

    @property
    def z(self) -> float:
        return self.residual / math.sqrt(self.variance) if self.variance > 0 else 0.0

    def problems(self) -> list[str]:
        if self.trials == 0:
            return ["no direct SNR samples to test"]
        if abs(self.z) > self.LIMIT:
            return [
                f"mean direct SNR is {self.residual / self.trials:+.3f} dB from the "
                f"closed form over {self.trials} trials ({self.z:+.2f} standard errors)"
            ]
        return []


def check_snr(
    out_dir: Path, config, seed: int, trials: int, radii, rhos, r_ds,
    pool: DirectSnrMean,
) -> list[str]:
    """ECDF files and summary of one snr-ecdf call.

    Every ECDF has ``trials`` finite rows; each relayed ECDF dominates the
    direct one order statistic by order statistic (every mode keeps the direct
    beam as its fallback); the summary median sits inside its bootstrap
    interval and equals the ECDF median.  The direct link involves no surface,
    so its ECDF is the same at every radius; it feeds ``pool`` once per
    (rho, r_d), with the blocker counts recounted here.
    """
    problems: list[str] = []
    summary = {
        (r["mode"], float(r["radius_m"]), float(r["rho"]), float(r["r_d"])): r
        for r in read_csv(Path(out_dir) / "snr_summary.csv")
    }
    for rho in rhos:
        for r_d in r_ds:
            counts = [
                direct_blockers(regenerate_scene(config, rho, r_d, seed, t))
                for t in range(trials)
            ]
            first_direct = None
            for radius in radii:
                values: dict[str, list[float]] = {}
                for mode in MODES:
                    name = ecdf_name(mode, radius, rho, r_d)
                    path = Path(out_dir) / name
                    if not path.is_file():
                        problems.append(f"{name}: missing")
                        continue
                    rows = read_csv(path)
                    v = [float(r["snr_db"]) for r in rows]
                    if len(v) != trials or not all(math.isfinite(x) for x in v):
                        problems.append(f"{name}: {len(v)} rows, want {trials} finite")
                        continue
                    if v != sorted(v):
                        problems.append(f"{name}: not sorted")
                    values[mode] = v
                    row = summary.get((mode, radius, rho, r_d))
                    if row is None:
                        problems.append(f"{name}: no summary row")
                        continue
                    med = float(row["median_db"])
                    lo, hi = float(row["median_ci_low_db"]), float(row["median_ci_high_db"])
                    true_med = _median(v)
                    off = abs(med - true_med) > 1e-6 * max(1.0, abs(med))
                    if off or not lo <= med <= hi:
                        problems.append(
                            f"{name}: summary median {med} [{lo}, {hi}], ECDF median {true_med}"
                        )
                if "direct" not in values:
                    continue
                for mode in ("with_irs", "with_ris"):
                    if mode in values and any(
                        r < d for r, d in zip(values[mode], values["direct"])
                    ):
                        problems.append(
                            f"{ecdf_name(mode, radius, rho, r_d)}: an order statistic "
                            f"below the direct one"
                        )
                if first_direct is None:
                    first_direct = values["direct"]
                    pool.add(
                        first_direct,
                        [direct_snr_mean_db(config, r_d, b) for b in counts],
                        [direct_snr_variance_db2(config, b) for b in counts],
                    )
                elif values["direct"] != first_direct:
                    problems.append(
                        f"{ecdf_name('direct', radius, rho, r_d)}: differs from the direct "
                        f"ECDF at radius {radii[0]:g}"
                    )
    return problems


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


# --- angular gain figures -------------------------------------------------------


def gain_bound_db(f_ghz: float) -> float:
    """-10 log10(MN): the gain of a perfectly coherent M x N aperture.

    MN follows from the wavelength alone: an even count of quarter-wave
    elements per side of the 1 m square aperture.
    """
    wavelength = SPEED_OF_LIGHT_M_S / (f_ghz * 1e9)
    per_side = 2 * round(GAIN_APERTURE_SIDE_M / (2.0 * GAIN_SPACING_WAVELENGTHS * wavelength))
    return -10.0 * math.log10(per_side * per_side)


def check_gain(csv_path: Path, angles, peak_angles, f_ghz: float) -> list[str]:
    """One gain figure: the flat column reads the bound, nothing exceeds it,
    and the configured surface reaches it at each of ``peak_angles``.

    The normalized gain is |sum c phi t|^2 / (|c|^2 |t|^2 |phi|^2) with unit
    |phi|, so Cauchy-Schwarz caps it at 1/MN.
    """
    problems: list[str] = []
    bound = gain_bound_db(f_ghz)
    rows = read_csv(csv_path)
    got = [float(r["angle_deg"]) for r in rows]
    if got != [float(a) for a in angles]:
        return [f"{Path(csv_path).name}: angles {got[:4]}..., want {list(angles)[:4]}..."]
    tol = GAIN_TOLERANCE_DB
    for row in rows:
        angle = float(row["angle_deg"])
        flat = float(row["gain_db_flat"])
        if abs(flat - bound) > tol:
            problems.append(f"{Path(csv_path).name} @ {angle}: flat {flat} != bound {bound}")
        for col in ("gain_db_cirs", "gain_db_bare"):
            if float(row[col]) > bound + tol:
                problems.append(
                    f"{Path(csv_path).name} @ {angle}: {col} {row[col]} above bound {bound}"
                )
        if angle in peak_angles and abs(float(row["gain_db_cirs"]) - bound) > tol:
            problems.append(
                f"{Path(csv_path).name} @ {angle}: configured {row['gain_db_cirs']} "
                f"does not reach the bound {bound}"
            )
    return problems

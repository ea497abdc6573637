"""Monte-Carlo drivers: gain sweeps, blockage probability, SNR ECDFs.

Determinism contract: every stochastic trial draws from an RNG substream
seeded by (master seed, trial index), so results are independent of worker
scheduling and identical between sequential and parallel runs.  Relayed links
are evaluated one relay at a time: each candidate door yields its own
single-relay channel, and the winner is chosen jointly with the beam pair by
received power (the multi-relay sum remains available via total_channel).
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .channel import (
    cascaded_channels,
    channel_gain_azimuth,
    channel_gain_elevation,
    direct_channel,
    sample_blockage_db,
    sample_direct_pathloss,
)
from .config import SimConfig
from .geometry import RoadConfig, build_cirs_geometry, pose_local_angles
from .link import beam_power, build_codebooks, compute_snr, rescale_direct
from .phase import PhaseProfile, optimal_phase, preconfigured_phase
from .scenario import (
    Scenario,
    blocked_modes,
    candidate_relays_irs,
    candidate_relays_ris,
    count_blockers,
    door_pose,
    door_reference_point,
    generate_traffic,
)

MODES = ("direct", "with_irs", "with_ris")

DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "gain-elevation": tuple(np.arange(30.0, 150.0 + 1e-9, 0.5)),
    "gain-azimuth": tuple(np.arange(-89.0, 89.0 + 1e-9, 0.5)),
    "gain-frequency": (28.0, 60.0, 120.0),
    "blockage": (10.0, 20.0, 30.0, 40.0),
    "snr-ecdf": (10.0, 40.0),
    "angle-pdf": (30.0,),
}

DEFAULT_TRIALS: dict[str, int] = {
    "gain-elevation": 1,
    "gain-azimuth": 1,
    "gain-frequency": 1,
    "blockage": 10_000,
    "snr-ecdf": 200,
    "angle-pdf": 2_000,
}


@dataclass(frozen=True)
class SweepSpec:
    """One experiment request: what to sweep and under which parameters."""

    kind: str
    grid: tuple[float, ...]
    config: SimConfig
    trials: int
    seed: int

    def __post_init__(self):
        if self.kind not in DEFAULT_GRIDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


def make_sweep(
    kind: str,
    config: SimConfig,
    grid: tuple[float, ...] | None = None,
) -> SweepSpec:
    """SweepSpec with per-kind default grid/trials, honoring config overrides."""
    if kind not in DEFAULT_GRIDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    return SweepSpec(
        kind=kind,
        grid=tuple(grid) if grid is not None else DEFAULT_GRIDS[kind],
        config=config,
        trials=config.trials if config.trials is not None else DEFAULT_TRIALS[kind],
        seed=config.seed,
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial, stable across schedulers."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _run_trial(worker, point: str, trial: int):
    """worker(trial), re-raising a failure as a ValueError naming point and trial."""
    try:
        return worker(trial)
    except Exception as exc:
        raise ValueError(f"{point}, trial {trial}: {exc}") from exc


def _map_trials(worker, n_trials: int, threads: int, point: str) -> list:
    """worker(trial_index) over range(n_trials), optionally process-parallel.

    Results come back in trial order either way, so reductions see the same
    sequence regardless of scheduling.  At most one worker process runs per
    core and per trial.  A trial that raises aborts the sweep with a
    ValueError naming the sweep ``point`` and the trial index.
    """
    run = partial(_run_trial, worker, point)
    workers = min(threads, os.cpu_count() or 1, n_trials)
    if workers <= 1:
        return [run(i) for i in range(n_trials)]
    chunk = max(1, n_trials // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n_trials), chunksize=chunk))


def generate_scene(
    config: SimConfig, rho: float, r_d: float, rng: np.random.Generator | int
) -> Scenario:
    """One traffic scene on the configured road and vehicles (see generate_traffic)."""
    road = RoadConfig(
        length=config.road_length_m,
        n_lanes=config.n_lanes,
        lane_width=config.lane_width_m,
    )
    return generate_traffic(
        road,
        rho,
        rng,
        link_distance_m=r_d,
        vehicle_length_m=config.vehicle_length_m,
        vehicle_width_m=config.vehicle_width_m,
        vehicle_height_m=config.vehicle_height_m,
    )


# --- normalized gain sweeps -------------------------------------------------

GAIN_AREA_M2 = 1.0       # physical aperture used by the angular-gain figures
FLAT_RADIUS_M = 1.0e9    # curvature that is numerically indistinguishable from flat


def element_counts_for_area(
    area_m2: float, wavelength: float, spacing_wl: float = 0.25
) -> int:
    """Even per-axis element count of a square grid covering ``area_m2``."""
    if area_m2 <= 0 or wavelength <= 0 or spacing_wl <= 0:
        raise ValueError("area, wavelength and spacing must be positive")
    side = math.sqrt(area_m2)
    half = max(1, round(side / (2.0 * spacing_wl * wavelength)))
    return 2 * half


def _gain_geometry(radius: float, wavelength: float, spacing_wl: float, area_m2: float):
    d = spacing_wl * wavelength
    count = element_counts_for_area(area_m2, wavelength, spacing_wl)
    return build_cirs_geometry(count, count, radius, d, d)


def _zero_profile(geometry) -> PhaseProfile:
    return PhaseProfile(np.zeros(geometry.m_count), np.zeros(geometry.n_count))


def run_gain_elevation(spec: SweepSpec, area_m2: float = GAIN_AREA_M2) -> list[dict]:
    """Specular elevation gain G(phi_i) with phi_o = pi - phi_i.

    Columns: phi_i (deg), surface with the perpendicular profile (the fixed
    profile at thetabar = 0), flat reference (huge radius, zero phases), and
    the bare cylinder (zero phases).
    """
    cfg = spec.config
    lam = cfg.wavelength_m
    geom = _gain_geometry(cfg.radius_m, lam, cfg.element_spacing_wl, area_m2)
    flat = _gain_geometry(FLAT_RADIUS_M, lam, cfg.element_spacing_wl, area_m2)
    prof = preconfigured_phase(geom, 0.0, lam)
    zero_c = _zero_profile(geom)
    zero_f = _zero_profile(flat)
    rows = []
    for angle_deg in spec.grid:
        phi_i = math.radians(angle_deg)
        phi_o = math.pi - phi_i
        rows.append(
            {
                "angle_deg": float(angle_deg),
                "gain_db_cirs": channel_gain_elevation(
                    geom, prof, phi_i, phi_o, lam, cfg.q_pattern
                ),
                "gain_db_flat": channel_gain_elevation(
                    flat, zero_f, phi_i, phi_o, lam, cfg.q_pattern
                ),
                "gain_db_bare": channel_gain_elevation(
                    geom, zero_c, phi_i, phi_o, lam, cfg.q_pattern
                ),
            }
        )
    return rows


def run_gain_azimuth(spec: SweepSpec, area_m2: float = GAIN_AREA_M2) -> list[dict]:
    """Specular azimuth gain G(theta_i) with theta_o = -theta_i.

    The configured surface carries the fixed profile built for the design
    azimuth thetabar from the config, at the horizontal design elevation
    pi/2 since the whole figure lies in the azimuth plane.
    """
    cfg = spec.config
    lam = cfg.wavelength_m
    geom = _gain_geometry(cfg.radius_m, lam, cfg.element_spacing_wl, area_m2)
    flat = _gain_geometry(FLAT_RADIUS_M, lam, cfg.element_spacing_wl, area_m2)
    prof = preconfigured_phase(geom, cfg.thetabar_rad, lam)
    zero_c = _zero_profile(geom)
    zero_f = _zero_profile(flat)
    rows = []
    for angle_deg in spec.grid:
        theta_i = math.radians(angle_deg)
        rows.append(
            {
                "angle_deg": float(angle_deg),
                "gain_db_cirs": channel_gain_azimuth(
                    geom, prof, theta_i, lam, cfg.q_pattern
                ),
                "gain_db_flat": channel_gain_azimuth(
                    flat, zero_f, theta_i, lam, cfg.q_pattern
                ),
                "gain_db_bare": channel_gain_azimuth(
                    geom, zero_c, theta_i, lam, cfg.q_pattern
                ),
            }
        )
    return rows


def run_gain_frequency(
    spec: SweepSpec,
    area_m2: float = GAIN_AREA_M2,
    angle_step_deg: float = 1.0,
    angle_span_deg: tuple[float, float] = (30.0, 150.0),
) -> list[dict]:
    """Elevation gain curves across carrier frequencies at fixed aperture.

    spec.grid holds the frequencies in GHz; element counts rescale with
    frequency to keep the physical area constant at quarter-wave spacing.
    """
    cfg = spec.config
    angles = np.arange(angle_span_deg[0], angle_span_deg[1] + 1e-9, angle_step_deg)
    rows = []
    for f_ghz in spec.grid:
        sub = cfg.replace(f_ghz=float(f_ghz))
        lam = sub.wavelength_m
        geom = _gain_geometry(sub.radius_m, lam, sub.element_spacing_wl, area_m2)
        prof = preconfigured_phase(geom, 0.0, lam)
        zero_c = _zero_profile(geom)
        for angle_deg in angles:
            phi_i = math.radians(angle_deg)
            phi_o = math.pi - phi_i
            rows.append(
                {
                    "f_ghz": float(f_ghz),
                    "angle_deg": float(angle_deg),
                    "gain_db_cirs": channel_gain_elevation(
                        geom, prof, phi_i, phi_o, lam, sub.q_pattern
                    ),
                    "gain_db_bare": channel_gain_elevation(
                        geom, zero_c, phi_i, phi_o, lam, sub.q_pattern
                    ),
                }
            )
    return rows


def gain_width_deg(
    angles_deg: np.ndarray, gains_db: np.ndarray, drop_db: float = 3.0
) -> float:
    """Width of the contiguous interval around the peak within drop_db of it.

    Crossings are linearly interpolated; when the curve never drops below the
    level on one side, the grid edge bounds the interval (the result is then
    a lower bound on the true width).
    """
    angles = np.asarray(angles_deg, dtype=float)
    gains = np.asarray(gains_db, dtype=float)
    if angles.shape != gains.shape or angles.ndim != 1 or len(angles) < 2:
        raise ValueError("need matching 1D angle/gain arrays with >= 2 points")
    peak = int(np.argmax(gains))
    level = gains[peak] - drop_db

    def cross(idx_from: int, step: int) -> float:
        i = idx_from
        while 0 <= i + step < len(gains) and gains[i + step] >= level:
            i += step
        j = i + step
        if not 0 <= j < len(gains):
            return angles[i]
        # interpolate between the last point above and the first below
        g1, g2 = gains[i], gains[j]
        if g1 == g2:
            return angles[j]
        frac = (g1 - level) / (g1 - g2)
        return angles[i] + frac * (angles[j] - angles[i])

    return float(abs(cross(peak, +1) - cross(peak, -1)))


# --- blockage probability ----------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _blockage_trial(
    config: SimConfig, rho: float, r_d: float, seed: int, trial: int
) -> tuple[bool, bool, bool]:
    """(direct, with_irs, with_ris) blockage flags for one shared scene."""
    scen = generate_scene(config, rho, r_d, trial_rng(seed, trial))
    return blocked_modes(
        scen, config.door_length_m, config.door_center_height_m, config.max_range_m
    )


def run_blockage_sweep(
    spec: SweepSpec, r_d_values: tuple[float, ...] = (50.0, 100.0)
) -> list[dict]:
    """Blockage probability per (rho, r_d, mode) with Wilson 95% intervals."""
    rows = []
    for rho in spec.grid:
        for r_d in r_d_values:
            worker = partial(_blockage_trial, spec.config, float(rho), float(r_d), spec.seed)
            flags = _map_trials(
                worker, spec.trials, spec.config.threads, f"blockage rho={rho:g} r_d={r_d:g}"
            )
            counts = [sum(f[i] for f in flags) for i in range(3)]
            for mode, blocked in zip(MODES, counts):
                lo, hi = wilson_interval(blocked, spec.trials)
                rows.append(
                    {
                        "rho": float(rho),
                        "r_d": float(r_d),
                        "mode": mode,
                        "p_block": blocked / spec.trials,
                        "ci_low": lo,
                        "ci_high": hi,
                        "trials": spec.trials,
                    }
                )
    return rows


# --- SNR ECDFs ----------------------------------------------------------------


@dataclass(frozen=True)
class EcdfResult:
    """Sorted Monte-Carlo sample with quantile access."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size == 0:
            raise ValueError("ECDF needs at least one sample")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        return float(np.quantile(self.values, q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def bootstrap_median_ci(
    values: np.ndarray,
    rng: np.random.Generator,
    n_boot: int = 1000,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for the sample median."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty sample")
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    medians = np.median(values[idx], axis=1)
    return (
        float(np.quantile(medians, alpha / 2)),
        float(np.quantile(medians, 1 - alpha / 2)),
    )


def _ranked_candidates(
    scen: Scenario, candidates, door_center_height: float, cap: int
) -> list:
    """Cap a candidate list by cascade budget (smallest r_t * r_r first)."""

    def key(cand):
        idx, side = cand
        door = door_reference_point(scen.vehicles[idx], side, door_center_height)
        r_t = float(np.linalg.norm(door - scen.p_t))
        r_r = float(np.linalg.norm(door - scen.p_r))
        return (r_t * r_r, idx, side)

    return sorted(candidates, key=key)[:cap]


def _tuned_profile(
    config: SimConfig, geom, door: np.ndarray, p_t: np.ndarray, p_r: np.ndarray
) -> np.ndarray:
    """Reflection coefficients steering the actual TxV -> door -> RxV pair."""
    ang_t = pose_local_angles(geom.pose, p_t - door)
    ang_r = pose_local_angles(geom.pose, p_r - door)
    return optimal_phase(geom, ang_t, ang_r, config.wavelength_m).coefficients()


def _fixed_profile(config: SimConfig, geom) -> np.ndarray:
    """Factory coefficients for (thetabar, phibar) -> (-thetabar, phibar).

    They depend on the element layout only, not on the door's pose, so one
    profile serves every door of a trial.
    """
    return preconfigured_phase(
        geom, config.thetabar_rad, config.wavelength_m, config.phibar_rad
    ).coefficients()


def _snr_trial(
    config: SimConfig, radius: float, rho: float, r_d: float, seed: int, trial: int
) -> tuple[float, float, float]:
    """(direct, with_irs, with_ris) SNRs in dB for one shared scene.

    All three modes reuse the same scenario, path-loss draws, and cascade
    phase draws, so mode-to-mode gaps reflect the relaying strategy rather
    than sampling noise.  Each relayed mode picks relay and beams jointly by
    received power over single-relay channels.
    """
    rng = trial_rng(seed, trial)
    scen = generate_scene(config, rho, r_d, rng)
    p_t, p_r = scen.p_t, scen.p_r
    lam = config.wavelength_m
    k = config.k_antennas
    height = config.door_center_height_m

    irs = _ranked_candidates(
        scen,
        candidate_relays_irs(scen, config.door_length_m, height),
        height,
        config.max_candidates,
    )
    ris = _ranked_candidates(
        scen,
        candidate_relays_ris(scen, config.max_range_m, height),
        height,
        config.max_candidates,
    )
    # one cascade assembly and one blockage draw per distinct door, in a
    # fixed order so the RNG stream is identical for every mode
    relays = sorted(set(irs) | set(ris))
    direct_blockers, legs = count_blockers(scen, relays, height)

    pl = sample_direct_pathloss(
        float(np.linalg.norm(p_r - p_t)),
        config.f_ghz,
        direct_blockers,
        rng,
        sigma_shadow_db=config.sigma_shadow_db,
        block_mu1_db=config.block_mu1_db,
        block_step_db=config.block_step_db,
        block_sigma_db=config.block_sigma_db,
    )
    h_d = rescale_direct(direct_channel(p_t, p_r, k, pl.loss_db, rng, config.q_pattern), k)

    # each door is scored only by the profile of the mode(s) that gated it
    irs_doors, ris_doors = set(irs), set(ris)
    fixed = None
    doors: dict[tuple[int, str], np.ndarray] = {}
    tuned_contrib: dict[tuple[int, str], np.ndarray] = {}
    fixed_contrib: dict[tuple[int, str], np.ndarray] = {}
    # the element layout is the same on every door; only the pose differs
    layout = build_cirs_geometry(
        config.m_elements,
        config.n_elements,
        radius,
        config.element_spacing_m,
        config.element_spacing_m,
    )
    for (idx, side), (b_t, b_r) in zip(relays, legs):
        vehicle = scen.vehicles[idx]
        pose = door_pose(
            vehicle, side, config.n_elements, config.element_spacing_m, height
        )
        geom = replace(layout, pose=pose)
        h_tc, h_cr = cascaded_channels(
            geom,
            p_t,
            p_r,
            k,
            lam,
            config.q_pattern,
            rng,
            array_spacing_m=config.array_spacing_m,
            amp_scale=config.cascade_amp_scale,
        )
        att_t = sample_blockage_db(
            b_t, rng, config.block_mu1_db, config.block_step_db, config.block_sigma_db
        )
        att_r = sample_blockage_db(
            b_r, rng, config.block_mu1_db, config.block_step_db, config.block_sigma_db
        )
        h_tc = h_tc * 10.0 ** (-att_t / 20.0)
        h_cr = h_cr * 10.0 ** (-att_r / 20.0)

        door = door_reference_point(vehicle, side, height)
        doors[(idx, side)] = door
        if (idx, side) in ris_doors:
            tuned = _tuned_profile(config, geom, door, p_t, p_r)
            tuned_contrib[(idx, side)] = h_cr @ (tuned[:, None] * h_tc)
        if (idx, side) in irs_doors:
            if fixed is None:
                fixed = _fixed_profile(config, geom)
            fixed_contrib[(idx, side)] = h_cr @ (fixed[:, None] * h_tc)

    codebook = build_codebooks(
        p_t,
        p_r,
        [(f"relay:{idx}:{side}", doors[(idx, side)]) for idx, side in sorted(doors)],
        k,
    )
    entry_by_label = {e.label: e for e in codebook.entries}
    direct_entry = codebook.direct
    power_direct = beam_power(h_d, direct_entry.f, direct_entry.w)
    snr_direct = compute_snr(
        h_d,
        direct_entry.f,
        direct_entry.w,
        config.tx_power_dbm,
        config.noise_power_dbm,
        k,
    )

    def best_mode_snr(candidates, contrib: dict) -> float:
        best_power = power_direct
        best = snr_direct
        for idx, side in candidates:
            entry = entry_by_label[f"relay:{idx}:{side}"]
            h_c = h_d + contrib[(idx, side)]
            p_c = beam_power(h_c, entry.f, entry.w)
            if p_c > best_power:
                best_power = p_c
                best = compute_snr(
                    h_c,
                    entry.f,
                    entry.w,
                    config.tx_power_dbm,
                    config.noise_power_dbm,
                    k,
                )
        return best

    return (
        snr_direct,
        best_mode_snr(irs, fixed_contrib),
        best_mode_snr(ris, tuned_contrib),
    )


def run_snr_ecdf(
    spec: SweepSpec,
    r_d_values: tuple[float, ...] = (50.0, 100.0),
    radius_values: tuple[float, ...] = (2.0, 8.0),
) -> dict[tuple[str, float, float, float], EcdfResult]:
    """SNR ECDFs per (mode, radius, rho, r_d); rho values come from spec.grid."""
    results: dict[tuple[str, float, float, float], EcdfResult] = {}
    for radius in radius_values:
        for rho in spec.grid:
            for r_d in r_d_values:
                worker = partial(
                    _snr_trial, spec.config, float(radius), float(rho), float(r_d), spec.seed
                )
                point = f"snr-ecdf radius={radius:g} rho={rho:g} r_d={r_d:g}"
                samples = np.array(
                    _map_trials(worker, spec.trials, spec.config.threads, point)
                )
                for col, mode in enumerate(MODES):
                    key = (mode, float(radius), float(rho), float(r_d))
                    results[key] = EcdfResult(values=samples[:, col])
    return results


def snr_summary(
    results: dict[tuple[str, float, float, float], EcdfResult], seed: int
) -> list[dict]:
    """Median rows (with bootstrap CIs) for an ECDF result set."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    rows = []
    for (mode, radius, rho, r_d), ecdf in sorted(results.items()):
        lo, hi = bootstrap_median_ci(ecdf.values, rng)
        rows.append(
            {
                "mode": mode,
                "radius_m": radius,
                "rho": rho,
                "r_d": r_d,
                "trials": len(ecdf),
                "median_db": ecdf.median,
                "median_ci_low_db": lo,
                "median_ci_high_db": hi,
            }
        )
    return rows


# --- incidence-angle statistics ------------------------------------------------


def _angle_trial(
    config: SimConfig, rho: float, r_d: float, seed: int, trial: int
) -> tuple[list[float], list[float]]:
    """Door-frame incidence elevations/azimuths (deg) over one scene."""
    rng = trial_rng(seed, trial)
    scen = generate_scene(config, rho, r_d, rng)
    elev: list[float] = []
    azim: list[float] = []
    for idx, side in candidate_relays_ris(
        scen, config.max_range_m, config.door_center_height_m
    ):
        vehicle = scen.vehicles[idx]
        pose = door_pose(
            vehicle, side, config.n_elements, config.element_spacing_m,
            config.door_center_height_m,
        )
        door = door_reference_point(vehicle, side, config.door_center_height_m)
        ang = pose_local_angles(pose, scen.p_t - door)
        elev.append(math.degrees(ang.phi))
        azim.append(math.degrees(ang.theta))
    return elev, azim


def run_angle_pdf(
    spec: SweepSpec, bin_width_deg: float = 1.0
) -> tuple[list[dict], dict[str, float]]:
    """Empirical PDFs of candidate-door incidence angles.

    Returns (histogram rows, summary stats).  Rows: variable, bin_left_deg,
    bin_right_deg, density; densities integrate to one per variable.
    """
    rho = float(spec.grid[0])
    worker = partial(
        _angle_trial, spec.config, rho, spec.config.link_distance_m, spec.seed
    )
    parts = _map_trials(
        worker,
        spec.trials,
        spec.config.threads,
        f"angle-pdf rho={rho:g} r_d={spec.config.link_distance_m:g}",
    )
    elev = np.array([v for p in parts for v in p[0]])
    azim = np.array([v for p in parts for v in p[1]])
    if elev.size == 0:
        raise ValueError("no relay candidates observed; increase rho or trials")

    rows = []
    stats = {
        "elevation_mean_deg": float(np.mean(elev)),
        "elevation_std_deg": float(np.std(elev)),
        "azimuth_mean_deg": float(np.mean(azim)),
        "azimuth_std_deg": float(np.std(azim)),
        "samples": int(elev.size),
    }
    for name, data in (("elevation", elev), ("azimuth", azim)):
        lo = math.floor(np.min(data) / bin_width_deg) * bin_width_deg
        hi = math.ceil(np.max(data) / bin_width_deg) * bin_width_deg
        edges = np.arange(lo, hi + bin_width_deg / 2, bin_width_deg)
        if len(edges) < 2:
            edges = np.array([lo, lo + bin_width_deg])
        density, edges = np.histogram(data, bins=edges, density=True)
        for left, right, dens in zip(edges[:-1], edges[1:], density):
            rows.append(
                {
                    "variable": name,
                    "bin_left_deg": float(left),
                    "bin_right_deg": float(right),
                    "density": float(dens),
                }
            )
    return rows, stats


# --- table output ---------------------------------------------------------------


def format_cell(value) -> str:
    """Fixed formatting: 9 significant digits for floats, plain text otherwise."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def write_csv(path: str | Path, columns: list[str], rows: list[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(row[c]) for c in columns])
    return path


def write_sidecar(
    csv_path: str | Path, config: SimConfig, seed: int, extra: dict | None = None
) -> Path:
    """JSON provenance next to a CSV: resolved config, seed, extras."""
    csv_path = Path(csv_path)
    payload = {"config": config.to_dict(), "seed": seed}
    if extra:
        payload.update(extra)
    side = csv_path.with_suffix(".json")
    side.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return side

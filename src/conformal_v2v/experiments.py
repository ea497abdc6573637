"""Monte-Carlo drivers: gain sweeps, blockage probability, SNR ECDFs.

Determinism contract: every stochastic trial draws from an RNG substream
seeded by (master seed, trial index), so results are independent of worker
scheduling and identical between sequential and parallel runs.  An SNR trial
is one scene scored at every radius: the scene and every random draw, the
path phases of each door's two legs included, come once per trial, so the
direct column is equal across radii by construction.  Relayed links are
evaluated one relay at a time: each candidate door is scored with its own
beam pair on its own single-relay channel, and the winner is the door whose
received amplitude is strongest.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    TWO_PI,
    cascaded_channels,
    channel_gain_azimuth,
    channel_gain_elevation,
    direct_channel,
    sample_blockage_db,
    sample_direct_pathloss,
    steering_vector,
)
from .config import SimConfig
from .geometry import DoorPose, RoadConfig, azimuth, build_cirs_geometry, pose_local_angles
from .link import beam_amplitude, best_snr
from .phase import PhaseProfile, optimal_phase, preconfigured_phase
from .scenario import (
    SIDES,
    Doors,
    Scenes,
    blocked_modes,
    check_scene,
    door_pose,
    draw_scenes,
    relay_doors,
)

MODES = ("direct", "with_irs", "with_ris")

DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "gain-elevation": tuple(np.arange(30.0, 150.0 + 1e-9, 0.5)),
    "gain-azimuth": tuple(np.arange(-89.0, 89.0 + 1e-9, 0.5)),
    "gain-frequency": (28.0, 60.0, 120.0),
    "blockage": (10.0, 20.0, 30.0, 40.0),
    "snr-ecdf": (10.0, 40.0),
}

DEFAULT_TRIALS: dict[str, int] = {
    "gain-elevation": 1,
    "gain-azimuth": 1,
    "gain-frequency": 1,
    "blockage": 10_000,
    "snr-ecdf": 200,
    "angle-pdf": 2_000,
}

# link distances (m) and cylinder radii (m) the blockage and SNR sweeps cover
# unless told otherwise
DEFAULT_R_D_M: tuple[float, ...] = (50.0, 100.0)
DEFAULT_RADII_M: tuple[float, ...] = (2.0, 8.0)

# the axes each kind sweeps, in SweepSpec's order: grid, r_d, radius
_AXES = {
    "gain-elevation": ("angle",), "gain-azimuth": ("angle",), "gain-frequency": ("f_ghz",),
    "blockage": ("rho", "r_d"), "snr-ecdf": ("rho", "r_d", "radius"), "angle-pdf": ("rho", "r_d"),
}

# the most trials a Monte-Carlo chunk draws, gates and scores together, so
# each numpy call of those passes serves this many trials
SCENE_CHUNK = 25

# the drop below the peak (dB) at which ``gain_width_deg`` measures a width,
# the normal quantile of the 95 % Wilson intervals, and the resamples and
# two-sided miss rate of ``bootstrap_median_ci``
GAIN_WIDTH_DROP_DB = 3.0
WILSON_Z = 1.959963984540054
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_ALPHA = 0.05


@dataclass(frozen=True)
class SweepSpec:
    """One experiment request: what to sweep and under which parameters.

    ``grid`` holds a gain sweep's angles (deg) or carrier frequencies (GHz),
    or a scene sweep's densities rho, run at every link distance of ``r_d``
    (m) and, for snr-ecdf, every cylinder radius of ``radius`` (m).  Every
    axis its kind sweeps (``_AXES``) is checked here: non-empty, no value
    twice, and each (rho, r_d) point drawable (``check_scene``).
    """

    kind: str
    grid: tuple[float, ...]
    config: SimConfig
    trials: int
    r_d: tuple[float, ...] = ()
    radius: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _AXES:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for axis, values in zip(_AXES[self.kind], (self.grid, self.r_d, self.radius)):
            if len(values) == 0:
                raise ValueError(f"sweep {axis} values must be non-empty")
            # a repeated value would run its point twice and write it once
            for value, count in Counter(map(float, values)).items():
                if count > 1:
                    raise ValueError(f"repeated {axis} value {value:g}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        cfg = self.config
        for rho, r_d in self.points:
            try:
                check_scene(cfg.road_length_m, rho, r_d, cfg.vehicle_length_m)
            except ValueError as exc:
                raise ValueError(f"{self.kind} rho={rho:g} r_d={r_d:g}: {exc}") from exc

    @property
    def points(self) -> list[tuple[float, float]]:
        """The (rho, r_d) points of a scene sweep, rho-major; none for a gain sweep."""
        return [(float(rho), float(r_d)) for rho in self.grid for r_d in self.r_d]


def make_sweep(
    kind: str,
    config: SimConfig,
    grid: tuple[float, ...] | None = None,
    r_d: tuple[float, ...] | None = None,
    radius: tuple[float, ...] | None = None,
) -> SweepSpec:
    """SweepSpec of ``kind``, each axis not given at its default, with the
    configured trials or the kind's default.  The default axes are
    ``DEFAULT_GRIDS``, ``DEFAULT_R_D_M`` and ``DEFAULT_RADII_M``; angle-pdf
    runs at one point, by default the configured rho and link distance."""
    if kind not in _AXES:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if kind == "angle-pdf":
        defaults = ((config.rho,), (config.link_distance_m,))
    else:
        defaults = (DEFAULT_GRIDS[kind], DEFAULT_R_D_M, DEFAULT_RADII_M)
    given = (grid, r_d, radius)[: len(_AXES[kind])]
    grid, *axes = (tuple(d if axis is None else axis) for axis, d in zip(given, defaults))
    trials = config.trials if config.trials is not None else DEFAULT_TRIALS[kind]
    return SweepSpec(kind, grid, config, trials, *axes)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial, stable across schedulers."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def merge_records(records: list[dict]) -> dict:
    """One record from the records of consecutive runs of trials: each
    column concatenated in order, each Counter summed."""
    return {
        name: sum((r[name] for r in records), Counter())
        if isinstance(value, Counter)
        else np.concatenate([r[name] for r in records])
        for name, value in records[0].items()
    }


def _run_chunk(
    kind: str, config: SimConfig, score, rho: float, r_d: float, trials: range
) -> dict:
    """Record of a chunk of consecutive ``trials`` at (rho, r_d).

    Each trial draws its scene from its own substream, as a one-trial sweep
    would, and the chunk's scenes are gated together (``draw_chunk``).  The
    record is ``score(scenes, doors, rngs)``, where each generator has drawn
    its scene only, plus the columns every sidecar reads: per trial the
    ``dropped`` placements and the doors each mode gated, ``irs_doors`` and
    ``ris_doors``.  A chunk that raises runs again one trial at a time, so
    the ValueError, ``"<kind> rho=.. r_d=.., trial t: ..."``, names and
    chains from the first trial that fails on its own (the chunk's first
    trial, with the chunk's error, if none does).
    """
    try:
        rngs = [trial_rng(config.seed, t) for t in trials]
        scenes, doors = draw_chunk(config, rho, r_d, rngs)
        irs, ris = (
            np.bincount(doors.scene[mask], minlength=len(rngs)) for mask in (doors.irs, doors.ris)
        )
        record = score(scenes, doors, rngs)
        return {**record, "irs_doors": irs, "ris_doors": ris, "dropped": scenes.dropped}
    except Exception as exc:
        if len(trials) > 1:
            for one in trials:
                _run_chunk(kind, config, score, rho, r_d, range(one, one + 1))
        raise ValueError(f"{kind} rho={rho:g} r_d={r_d:g}, trial {trials[0]}: {exc}") from exc


def _map_trials(spec: SweepSpec, score) -> dict[tuple[float, float], dict]:
    """The record of all ``spec.trials`` trials at each (rho, r_d) of ``spec.points``.

    Every point's trials run in chunks of consecutive trials, each drawn,
    gated and scored by ``score(scenes, doors, rngs)`` (``_run_chunk``),
    which returns a dict of named columns, arrays with one row per trial
    (or per door) in trial order, and named Counters.  Each point's chunk
    records merge in trial order (``merge_records``) whether the chunks run
    here or in a process pool, so a point's record is the same whatever the
    scheduling.  A chunk holds min(SCENE_CHUNK, ceil(P n / W)) trials, for
    P points of n trials over W = min(threads, cores) workers, so a short
    sweep still gives every worker a chunk.  Every point of a sweep shares
    one pool of W processes, or one per chunk when the chunks of every
    point are fewer; each is spawned fresh and runs BLAS on one thread
    (``_one_blas_thread``).  A trial that raises aborts the sweep with a
    ValueError naming the point and the trial index.
    """
    grid = spec.points
    n = spec.trials
    workers = min(spec.config.threads, os.cpu_count() or 1)
    chunk = min(SCENE_CHUNK, -(-len(grid) * n // workers))
    chunks = [range(t, min(t + chunk, n)) for t in range(0, n, chunk)]
    run = partial(_run_chunk, spec.kind, spec.config, score)
    rhos = [rho for rho, _ in grid for _ in chunks]
    r_ds = [r_d for _, r_d in grid for _ in chunks]
    trials = chunks * len(grid)
    processes = min(workers, len(trials))
    if processes <= 1:
        flat = list(map(run, rhos, r_ds, trials))
    else:
        # imported here, so that runs without a pool do not pay for loading
        # the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        chunksize = max(1, len(trials) // (processes * 8))
        with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=processes, mp_context=get_context("spawn")
        ) as pool:
            flat = list(pool.map(run, rhos, r_ds, trials, chunksize=chunksize))
    k = len(chunks)
    return {point: merge_records(flat[i * k : (i + 1) * k]) for i, point in enumerate(grid)}


# thread-count variables of OpenBLAS, OpenMP and MKL
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread counts to 1 for the processes spawned inside, then restore them.

    A BLAS library reads its thread count once, when it loads, so this acts
    on freshly spawned worker processes and not on this one (a forked worker
    would inherit this process's loaded BLAS).  With several threads each,
    workers that fill the cores spin on each other's cores.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def draw_chunk(
    config: SimConfig, rho: float, r_d: float, rngs: list[np.random.Generator]
) -> tuple[Scenes, Doors]:
    """One scene per generator on the configured road and vehicles, as one
    chunk (see ``draw_scenes``), and its doors gated under the configured
    door length, height and range (``relay_doors``)."""
    scenes = draw_scenes(
        RoadConfig(config.road_length_m, config.n_lanes, config.lane_width_m),
        rho,
        rngs,
        link_distance_m=r_d,
        vehicle_length_m=config.vehicle_length_m,
        vehicle_width_m=config.vehicle_width_m,
        vehicle_height_m=config.vehicle_height_m,
    )
    doors = relay_doors(
        scenes, config.door_length_m, config.door_center_height_m, config.max_range_m
    )
    return scenes, doors


def sidecar_telemetry(
    record: dict, cap: int | None = None, radius: float | None = None
) -> dict:
    """Sidecar telemetry of a blockage or SNR record (see ``_map_trials``).

    Gives the dropped placements summed and the doors each mode gated per
    trial (mean and max of the ``irs_doors`` and ``ris_doors`` columns);
    with ``cap``, also the trials in which each mode gated more than ``cap``
    doors (``irs_truncated``, ``ris_truncated``).  A record with
    ``cascade_ranks``, a Counter over (radius, rank label), adds the door
    cascades per rank label at ``radius``, or summed over every radius; one
    with ``winners``, a Counter over (radius, mode, winner label), adds each
    mode's winners per label, at ``radius`` or summed the same way.
    """
    telemetry = {"dropped": int(record["dropped"].sum())}
    for mode in ("irs", "ris"):
        column = record[f"{mode}_doors"]
        telemetry[f"{mode}_candidates"] = {
            "mean": int(column.sum()) / len(column),
            "max": int(column.max()),
        }
        if cap is not None:
            telemetry[f"{mode}_truncated"] = int(np.count_nonzero(column > cap))
    if "cascade_ranks" in record:
        ranks = Counter()
        for (at, label), count in record["cascade_ranks"].items():
            if radius is None or at == radius:
                ranks[label] += count
        telemetry["cascade_ranks"] = dict(ranks)
    if "winners" in record:
        winners = {"irs": Counter(), "ris": Counter()}
        for (at, mode, label), count in record["winners"].items():
            if radius is None or at == radius:
                winners[mode][label] += count
        telemetry["winners"] = {mode: dict(counts) for mode, counts in winners.items()}
    return telemetry


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


def _gain_rows(
    config: SimConfig, angles_deg, thetabar: float, gain, flat: bool = True, **tags
) -> list[dict]:
    """One row per angle of ``gain(geometry, profile, angles, wavelength, q)``.

    Every surface spans GAIN_AREA_M2 at the configured element spacing:
    ``gain_db_cirs`` is the configured radius with the fixed profile at the
    design azimuth thetabar, ``gain_db_bare`` the same cylinder with zero
    phases and, when ``flat``, ``gain_db_flat`` a flat reference (huge
    radius, zero phases).  ``gain`` scores each surface over the whole
    angle grid in one call.  ``tags`` lead every row.
    """
    lam = config.wavelength_m
    d = config.element_spacing_m
    count = element_counts_for_area(GAIN_AREA_M2, lam, config.element_spacing_wl)
    geom = build_cirs_geometry(count, count, config.radius_m, d, d)
    zero = PhaseProfile(np.zeros(count), np.zeros(count))
    surfaces = {"gain_db_cirs": (geom, preconfigured_phase(geom, thetabar, lam))}
    if flat:
        flat_geom = build_cirs_geometry(count, count, FLAT_RADIUS_M, d, d)
        surfaces["gain_db_flat"] = (flat_geom, zero)
    surfaces["gain_db_bare"] = (geom, zero)
    angles = np.radians(angles_deg)
    columns = {
        column: gain(g, profile, angles, lam, config.q_pattern).tolist()
        for column, (g, profile) in surfaces.items()
    }
    return [
        {**tags, "angle_deg": float(angle_deg), **dict(zip(columns, gains))}
        for angle_deg, *gains in zip(angles_deg, *columns.values())
    ]


def run_gain_elevation(spec: SweepSpec) -> list[dict]:
    """Specular elevation gain G(phi_i) with phi_o = pi - phi_i.

    The configured surface carries the perpendicular profile (the fixed
    profile at thetabar = 0); see ``_gain_rows`` for the columns.
    """
    return _gain_rows(spec.config, spec.grid, 0.0, channel_gain_elevation)


def run_gain_azimuth(spec: SweepSpec) -> list[dict]:
    """Specular azimuth gain G(theta_i) with theta_o = -theta_i.

    The configured surface carries the fixed profile built for the design
    azimuth thetabar from the config, at the horizontal design elevation
    pi/2 since the whole figure lies in the azimuth plane.
    """
    return _gain_rows(
        spec.config, spec.grid, spec.config.thetabar_rad, channel_gain_azimuth
    )


def run_gain_frequency(spec: SweepSpec) -> list[dict]:
    """Specular elevation gain curves across carrier frequencies at fixed aperture.

    spec.grid holds the frequencies in GHz; element counts rescale with
    frequency to keep the physical area constant at the configured spacing
    in wavelengths.  Every curve covers 30-150 deg in 1 deg steps, with the
    perpendicular profile and the bare cylinder but no flat reference; rows
    come frequency-major.
    """
    angles = np.arange(30.0, 150.0 + 1e-9, 1.0)
    rows = []
    for f_ghz in map(float, spec.grid):
        sub = spec.config.replace(f_ghz=f_ghz)
        rows += _gain_rows(
            sub, angles, 0.0, channel_gain_elevation, flat=False, f_ghz=f_ghz
        )
    return rows


def gain_width_deg(angles_deg: np.ndarray, gains_db: np.ndarray) -> float:
    """Width of the contiguous interval around the peak within
    GAIN_WIDTH_DROP_DB of it.

    Crossings are linearly interpolated; when the curve never drops below the
    level on one side, the grid edge bounds the interval (the result is then
    a lower bound on the true width).
    """
    angles = np.asarray(angles_deg, dtype=float)
    gains = np.asarray(gains_db, dtype=float)
    if angles.shape != gains.shape or angles.ndim != 1 or len(angles) < 2:
        raise ValueError("need matching 1D angle/gain arrays with >= 2 points")
    peak = int(np.argmax(gains))
    level = gains[peak] - GAIN_WIDTH_DROP_DB

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


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _blockage_scores(scenes: Scenes, doors: Doors, rngs) -> dict:
    """Each trial's (direct, with_irs, with_ris) ``blocked`` flags (``blocked_modes``)."""
    return {"blocked": blocked_modes(doors)}


def run_blockage_sweep(spec: SweepSpec) -> tuple[list[dict], dict[tuple[float, float], dict]]:
    """Blockage probability per (rho, r_d, mode) with Wilson 95% intervals,
    and the record of each (rho, r_d) (see ``_blockage_scores`` and
    ``_run_chunk``).

    Every trial's scene is gated, whether or not its direct ray is blocked.
    """
    rows = []
    records = _map_trials(spec, _blockage_scores)
    for (rho, r_d), record in records.items():
        for mode, blocked in zip(MODES, record["blocked"].sum(axis=0).tolist()):
            lo, hi = wilson_interval(blocked, spec.trials)
            rows.append(
                {
                    "rho": rho,
                    "r_d": r_d,
                    "mode": mode,
                    "p_block": blocked / spec.trials,
                    "ci_low": lo,
                    "ci_high": hi,
                    "trials": spec.trials,
                }
            )
    return rows, records


# --- SNR ECDFs ----------------------------------------------------------------


def bootstrap_median_ci(values: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """Percentile-bootstrap 1 - BOOTSTRAP_ALPHA confidence interval for the
    sample median, from BOOTSTRAP_RESAMPLES resamples."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty sample")
    idx = rng.integers(0, len(values), size=(BOOTSTRAP_RESAMPLES, len(values)))
    medians = np.median(values[idx], axis=1)
    return (
        float(np.quantile(medians, BOOTSTRAP_ALPHA / 2)),
        float(np.quantile(medians, 1 - BOOTSTRAP_ALPHA / 2)),
    )


def _ranked_candidates(doors: Doors, mask: np.ndarray, cap: int) -> np.ndarray:
    """Indices of the ``mask`` doors by cascade budget (smallest r_t * r_r
    first), at most ``cap`` of them.

    Ties in r_t * r_r go to the lower vehicle row, then to the left door.
    """
    picked = np.flatnonzero(mask)
    r = doors.r[picked]
    order = np.lexsort((doors.side[picked], doors.row[picked], r[:, 0] * r[:, 1]))
    return picked[order[:cap]]


def _snr_scores(config: SimConfig, surfaces, scenes: Scenes, doors: Doors, rngs) -> dict:
    """Scores of a chunk of SNR trials: ``snr_db``, each trial's (R, 3)
    (direct, with_irs, with_ris) SNRs in dB on each of the R ``surfaces``;
    ``cascade_ranks``, the door cascades counted per (radius, numerical
    rank, "exact" for a whole surface); and ``winners``, the beam pair each
    relayed mode picked, counted per (radius, mode, label).

    Trial s scores scene s with ``rngs[s]``, which goes on from its scene's
    draws: the direct link, then each ranked door's leg phases (xi_t, xi_r)
    and blockage, door by door in (row, side) order.  It scores each door
    once per (layout, fixed profile) of ``surfaces`` into one table,
    ``amps[radius, mode][door]``, under the profile of each mode that ranked
    it (fixed for irs, tuned for ris).  The direct column is thus equal
    across radii, and the modes share every draw, so their gaps reflect the
    relaying strategy, not sampling noise.  Door c only ever meets its own
    beam pair (f_c, w_c): its amplitude is w_c^H H_d f_c + sum(phi * a * b)
    with the beamformed segments a = H_tc f_c and b = w_c^H H_cr, whose
    product both profiles score from the one factorisation
    ``cascaded_channels`` returns.  Each mode then takes ``best_snr`` over
    the direct amplitude and the scene's doors in their
    ``_ranked_candidates`` order, so the winner's index is its label: "1"
    for the smallest r_t r_r, "direct" for index 0.
    """
    lam = config.wavelength_m
    k = config.k_antennas

    def snr(amplitudes) -> tuple[float, int]:
        return best_snr(amplitudes, config.tx_power_dbm, config.noise_power_dbm, k)

    snrs, ranks, winners = [], Counter(), Counter()
    for s, (rng, (p_t, p_r)) in enumerate(zip(rngs, scenes.ends)):
        ranked = {
            mode: _ranked_candidates(
                doors, getattr(doors, mode) & (doors.scene == s), config.max_candidates
            ).tolist()
            for mode in ("irs", "ris")
        }

        loss_db = sample_direct_pathloss(
            float(np.linalg.norm(p_r - p_t)),
            config.f_ghz,
            int(doors.direct[s]),
            rng,
            sigma_shadow_db=config.sigma_shadow_db,
            block_mu1_db=config.block_mu1_db,
            block_step_db=config.block_step_db,
            block_sigma_db=config.block_sigma_db,
        )
        xi = rng.uniform(0.0, TWO_PI)
        h_d = direct_channel(p_t, p_r, k, loss_db, xi, config.q_pattern)
        # the direct beams steer along the TxV->RxV ray on both ends
        beam_d = steering_vector(k, azimuth(p_t, p_r))
        amp_direct = beam_amplitude(h_d, beam_d, beam_d)

        amps = {(layout.radius, mode): {} for layout, _ in surfaces for mode in ranked}
        # one set of draws per distinct door, in a fixed (row, side) order so
        # the RNG stream is identical for every mode and every radius
        for relay in sorted({*ranked["irs"], *ranked["ris"]}):
            door, side = doors.points[relay], SIDES[doors.side[relay]]
            b_t, b_r = doors.legs[relay]
            phases = (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
            att_t = sample_blockage_db(
                b_t, rng, config.block_mu1_db, config.block_step_db, config.block_sigma_db
            )
            att_r = sample_blockage_db(
                b_r, rng, config.block_mu1_db, config.block_step_db, config.block_sigma_db
            )
            blockage = 10.0 ** (-att_t / 20.0) * 10.0 ** (-att_r / 20.0)
            # the TxV steers toward the door, the RxV along the door-to-RxV ray
            f = steering_vector(k, azimuth(p_t, door))
            w = steering_vector(k, azimuth(door, p_r))
            via_direct = beam_amplitude(h_d, f, w)
            pose = door_pose(door, side, config.n_elements, config.element_spacing_m)
            # the tuned profile steers the door-frame TxV -> door -> RxV pair
            ang_t = pose_local_angles(pose, p_t - door)
            ang_r = pose_local_angles(pose, p_r - door)
            for layout, fixed in surfaces:
                geom = replace(layout, pose=pose)
                try:
                    left, right = cascaded_channels(
                        geom, p_t, p_r, k, lam, f, w, config.q_pattern, phases,
                        amp_scale=config.cascade_amp_scale,
                    )
                except ValueError as exc:
                    raise ValueError(f"radius={layout.radius:g}: {exc}") from exc
                rank = left.shape[1]
                exact = rank == min(layout.m_count, layout.n_count)
                ranks[layout.radius, "exact" if exact else str(rank)] += 1
                for mode, relays in ranked.items():
                    if relay in relays:
                        profile = (
                            fixed if mode == "irs" else optimal_phase(geom, ang_t, ang_r, lam)
                        )
                        amp = via_direct + blockage * profile.weighted_sum(left, right)
                        amps[layout.radius, mode][relay] = amp

        direct, _ = snr([amp_direct])
        rows = []
        for layout, _ in surfaces:
            row = [direct]
            for mode, relays in ranked.items():
                scored = amps[layout.radius, mode]
                snr_db, winner = snr([amp_direct, *(scored[relay] for relay in relays)])
                winners[layout.radius, mode, str(winner) if winner else "direct"] += 1
                row.append(snr_db)
            rows.append(row)
        snrs.append(rows)
    return {"snr_db": np.array(snrs), "cascade_ranks": ranks, "winners": winners}


def run_snr_ecdf(
    spec: SweepSpec,
) -> tuple[dict[tuple[str, float, float, float], np.ndarray], dict[tuple[float, float], dict]]:
    """SNR ECDFs per (mode, radius, rho, r_d), each the sorted float array of
    its per-trial samples, and the record of each (rho, r_d).

    Each trial is one scene of a point of ``spec.points`` scored at every
    radius of ``spec.radius`` (see ``_snr_scores``) on element layouts and
    fixed profiles built once here.  The fixed profile, for (thetabar,
    phibar) -> (-thetabar, phibar), depends on the layout only, so one per
    radius serves every door.
    """
    cfg = spec.config
    d = cfg.element_spacing_m
    surfaces = []
    for radius in spec.radius:
        layout = build_cirs_geometry(cfg.m_elements, cfg.n_elements, float(radius), d, d)
        fixed = preconfigured_phase(layout, cfg.thetabar_rad, cfg.wavelength_m, cfg.phibar_rad)
        surfaces.append((layout, fixed))
    records = _map_trials(spec, partial(_snr_scores, cfg, surfaces))
    ecdfs = {
        (mode, float(radius), rho, r_d): np.sort(record["snr_db"][:, i, col])
        for (rho, r_d), record in records.items()
        for i, radius in enumerate(spec.radius)
        for col, mode in enumerate(MODES)
    }
    return ecdfs, records


def snr_summary(ecdfs: dict[tuple[str, float, float, float], np.ndarray], seed: int) -> list[dict]:
    """Median rows (with bootstrap CIs) of the ECDFs of ``run_snr_ecdf``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    rows = []
    for (mode, radius, rho, r_d), values in sorted(ecdfs.items()):
        lo, hi = bootstrap_median_ci(values, rng)
        rows.append(
            {
                "mode": mode,
                "radius_m": radius,
                "rho": rho,
                "r_d": r_d,
                "trials": len(values),
                "median_db": float(np.quantile(values, 0.5)),
                "median_ci_low_db": lo,
                "median_ci_high_db": hi,
            }
        )
    return rows


# --- incidence-angle statistics ------------------------------------------------


def _angle_scores(scenes: Scenes, doors: Doors, rngs) -> dict:
    """The door-frame incidence ``elevation`` and ``azimuth`` (deg) of a
    chunk, one row per RIS door, in trial order.  The angles depend on the
    door side's rotation only, so no surface size enters."""
    p_t = scenes.ends[doors.scene, 0]
    elev: list[float] = []
    azim: list[float] = []
    for relay in np.flatnonzero(doors.ris).tolist():
        door = doors.points[relay]
        ang = pose_local_angles(DoorPose(door, SIDES[doors.side[relay]]), p_t[relay] - door)
        elev.append(math.degrees(ang.phi))
        azim.append(math.degrees(ang.theta))
    return {"elevation": np.array(elev), "azimuth": np.array(azim)}


def run_angle_pdf(spec: SweepSpec) -> tuple[list[dict], dict[str, float], dict]:
    """Empirical PDFs of candidate-door incidence angles, in 1 deg bins, at
    the one point of the spec (see ``make_sweep``).

    Returns (histogram rows, summary stats, the point's record; see
    ``_angle_scores`` and ``_run_chunk``).  Rows: variable, bin_left_deg,
    bin_right_deg, density; densities integrate to one per variable.
    """
    for axis, values in (("rho", spec.grid), ("r_d", spec.r_d)):
        if len(values) != 1:
            grid = ", ".join(f"{value:g}" for value in values)
            raise ValueError(f"angle-pdf runs at one {axis}, got the grid ({grid})")
    bin_deg = 1.0
    [record] = _map_trials(spec, _angle_scores).values()
    elev, azim = record["elevation"], record["azimuth"]
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
        lo = math.floor(np.min(data) / bin_deg) * bin_deg
        hi = math.ceil(np.max(data) / bin_deg) * bin_deg
        edges = np.arange(lo, hi + bin_deg / 2, bin_deg)
        if len(edges) < 2:
            edges = np.array([lo, lo + bin_deg])
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
    return rows, stats, record


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


def _git_revision(start: Path) -> str | None:
    """Commit checked out where ``start`` lies, or None outside a git checkout.

    The nearest ``.git`` at or above ``start`` (a directory, or a file
    naming one as ``gitdir: <path>``) gives HEAD; a symbolic HEAD resolves
    through its ref file or ``packed-refs``, in the ``commondir`` of a
    linked worktree.  Read from the files, without running git.
    """
    try:
        for folder in (start, *start.parents):
            git = folder / ".git"
            if git.is_file():
                text = git.read_text().strip()
                if text.startswith("gitdir:"):
                    git = folder / text[len("gitdir:"):].strip()
            if git.is_dir():
                break
        else:
            return None
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head or None
        ref = head[len("ref:"):].strip()
        commondir = git / "commondir"
        common = git / commondir.read_text().strip() if commondir.is_file() else git
        for refs in (git, common):
            if (refs / ref).is_file():
                return (refs / ref).read_text().strip()
        packed = common / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                sha, _, name = line.partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


@cache
def _package_revision() -> str | None:
    """``_git_revision`` of the source tree this package was imported from.

    Read once per process: the code a process runs was loaded when it
    imported the package, and a later checkout does not change it.
    """
    return _git_revision(Path(__file__).resolve().parent)


def write_sidecar(
    csv_path: str | Path, config: SimConfig, seed: int, extra: dict | None = None
) -> Path:
    """JSON provenance next to a CSV: resolved config, seed, versions, extras.

    Provenance names the package, numpy and Python versions and the git
    revision of the source tree the package was imported from (None when it
    is not a checkout).
    """
    csv_path = Path(csv_path)
    payload = {
        "config": config.to_dict(),
        "seed": seed,
        "provenance": {
            "package": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git": _package_revision(),
        },
    }
    if extra:
        payload.update(extra)
    side = csv_path.with_suffix(".json")
    side.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return side

"""Experiment drivers: sweeps, Monte-Carlo plumbing, and table output."""

import concurrent.futures
import json
import math
import os
import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_v2v import experiments, scenario
from conformal_v2v.channel import (
    SKELETON_START_COLUMNS,
    cascaded_channels,
    channel_gain_elevation,
    steering_vector,
)
from conformal_v2v.config import SimConfig
from conformal_v2v.experiments import (
    DEFAULT_GRIDS,
    DEFAULT_TRIALS,
    MODES,
    SCENE_CHUNK,
    SweepSpec,
    _blockage_chunk,
    _git_revision,
    _map_trials,
    _ranked_candidates,
    _snr_trial,
    bootstrap_median_ci,
    draw_chunk,
    element_counts_for_area,
    format_cell,
    gain_width_deg,
    make_sweep,
    merge_records,
    run_angle_pdf,
    run_blockage_sweep,
    run_gain_elevation,
    run_gain_frequency,
    run_snr_ecdf,
    sidecar_telemetry,
    snr_summary,
    trial_rng,
    wilson_interval,
    write_csv,
    write_sidecar,
)
from conformal_v2v.geometry import (
    RoadConfig,
    Vehicle,
    azimuth,
    build_cirs_geometry,
    pose_local_angles,
)
from conformal_v2v.phase import PhaseProfile, optimal_phase, preconfigured_phase
from conformal_v2v.scenario import SIDES, door_pose, generate_traffic, relay_doors
from oracles import (
    door_center,
    reflection_matrix,
    scalar_candidates_irs,
    scalar_candidates_ris,
    scalar_generate_traffic,
    scene_from_vehicles,
    scenes_of,
)
from test_channel import kernel_segments, recording_skeleton
from test_scenario import door_pairs, gated, reference_modes

LAM28 = 299_792_458.0 / 28e9


def tiny_config(**over) -> SimConfig:
    base = dict(m_elements=16, n_elements=16, cascade_amp_scale=625.0, trials=12)
    base.update(over)
    return SimConfig().replace(**base)


def fixed_profile(cfg: SimConfig, geometry) -> PhaseProfile:
    """The factory profile an SNR sweep gives every door of a radius."""
    return preconfigured_phase(geometry, cfg.thetabar_rad, cfg.wavelength_m, cfg.phibar_rad)


def test_sweep_spec_validation_and_defaults():
    cfg = SimConfig()
    spec = make_sweep("blockage", cfg)
    assert spec.grid == DEFAULT_GRIDS["blockage"]
    assert spec.trials == DEFAULT_TRIALS["blockage"]
    spec2 = make_sweep("blockage", cfg.replace(trials=77), grid=(5.0,))
    assert spec2.trials == 77 and spec2.grid == (5.0,)
    # angle-pdf has no grid of its own: it runs at the configured density
    assert make_sweep("angle-pdf", cfg.replace(rho=40.0)).grid == (40.0,)
    assert make_sweep("angle-pdf", cfg).grid == (cfg.rho,)
    with pytest.raises(ValueError):
        make_sweep("warmup", cfg)
    with pytest.raises(ValueError):
        SweepSpec(kind="blockage", grid=(), config=cfg, trials=1)
    with pytest.raises(ValueError):
        SweepSpec(kind="blockage", grid=(10.0,), config=cfg, trials=0)
    # a value given twice would run its point twice and write it once
    with pytest.raises(ValueError, match="^repeated rho value 10$"):
        make_sweep("blockage", cfg, grid=(10.0, 40.0, 10))
    with pytest.raises(ValueError, match="^repeated f_ghz value 28$"):
        make_sweep("gain-frequency", cfg, grid=(28.0, 28.0))
    # every axis has its default in make_sweep, and a kind leaves the axes it
    # does not sweep empty
    assert (spec.r_d, spec.radius) == ((50.0, 100.0), ())
    assert make_sweep("snr-ecdf", cfg).radius == (2.0, 8.0)
    assert make_sweep("angle-pdf", cfg.replace(link_distance_m=60.0)).r_d == (60.0,)
    assert make_sweep("gain-elevation", cfg, r_d=(50.0,)).points == []
    assert make_sweep("blockage", cfg, grid=(10.0, 40.0), r_d=(50.0,)).points == [
        (10.0, 50.0), (40.0, 50.0)
    ]
    with pytest.raises(ValueError, match="^repeated r_d value 50$"):
        make_sweep("blockage", cfg, r_d=(50.0, 50))
    with pytest.raises(ValueError, match="^repeated radius value 2$"):
        make_sweep("snr-ecdf", cfg, radius=(2.0, 2.0))
    with pytest.raises(ValueError, match="^sweep radius values must be non-empty$"):
        SweepSpec("snr-ecdf", (10.0,), cfg, 1, r_d=(50.0,))
    # each point is checked against the scene rules when the spec is made
    with pytest.raises(ValueError, match=r"^angle-pdf rho=inf r_d=100: rho must be finite"):
        make_sweep("angle-pdf", cfg, grid=(math.inf,))
    with pytest.raises(ValueError, match="^blockage rho=10 r_d=496: link distance 496.0 m"):
        make_sweep("blockage", cfg, grid=(10.0,), r_d=(495.0, 496.0))


def test_trial_rng_substreams_are_stable_and_distinct():
    a = trial_rng(0, 5).random(4)
    b = trial_rng(0, 5).random(4)
    c = trial_rng(0, 6).random(4)
    d = trial_rng(1, 5).random(4)
    assert a == pytest.approx(b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def listed(record: dict) -> dict:
    """A record with its array columns as lists, for == comparisons."""
    return {
        name: column if isinstance(column, Counter) else column.tolist()
        for name, column in record.items()
    }


def test_process_pool_matches_the_sequential_trial_order():
    # two points share one pool and come back per point, each merged in
    # trial order from its chunks of trials (the last chunk short)
    cfg = SimConfig().replace(trials=24)
    worker = partial(_blockage_chunk, cfg)

    def swept(threads):
        spec = make_sweep(
            "blockage", cfg.replace(threads=threads), grid=(10.0, 30.0), r_d=(100.0,)
        )
        records = _map_trials(spec, worker, chunk=5)
        return {point: listed(record) for point, record in records.items()}

    seq = swept(1)
    assert seq == swept(2)
    assert list(seq) == [(10.0, 100.0), (30.0, 100.0)]
    ranges = [range(t, min(t + 5, 24)) for t in range(0, 24, 5)]
    chunks = [worker(30.0, 100.0, trials) for trials in ranges]
    assert seq[(30.0, 100.0)] == listed(merge_records(chunks))


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_of_process(rho, r_d, trials):
    """Record of the process id and BLAS thread-count variables each trial
    runs with."""
    variables = [os.environ.get(name) for name in BLAS_THREAD_VARIABLES]
    return {
        "pid": np.array([os.getpid()] * len(trials)),
        "blas": np.array([variables] * len(trials)),
    }


def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    # a pooled sweep's workers see one BLAS thread whatever the parent set,
    # and the parent's environment is left as it was
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    spec = make_sweep("blockage", SimConfig(trials=4, threads=2), grid=(30.0,), r_d=(100.0,))
    (out,) = _map_trials(spec, blas_threads_of_process).values()
    assert dict(os.environ) == before
    assert all(pid != os.getpid() for pid in out["pid"].tolist())
    assert out["blas"].tolist() == [["1", "1", "1"]] * 4


@pytest.mark.parametrize(
    "threads, cores, n_trials, n_points, workers",
    [
        pytest.param(1000, 4, 50, 1, 4, id="1000-4-50-4"),
        pytest.param(1000, 4, 3, 1, 3, id="1000-4-3-3"),
        pytest.param(3, 8, 50, 1, 3, id="3-8-50-3"),
        pytest.param(1000, None, 50, 1, None, id="1000-None-50-None"),
        pytest.param(1, 8, 50, 1, None, id="1-8-50-None"),
        pytest.param(8, 8, 1, 1, None, id="8-8-1-None"),
        # the clamp counts the trials of every point: one trial at each of
        # eight points fills a pool of two, three points a pool of three
        pytest.param(2, 4, 1, 8, 2, id="2-4-1x8-2"),
        pytest.param(1000, 4, 1, 3, 3, id="1000-4-1x3-3"),
    ],
)
def test_worker_count_is_clamped_to_cores_and_trials(
    monkeypatch, threads, cores, n_trials, n_points, workers
):
    started = []

    class RecordingPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            assert chunksize >= 1
            return map(fn, *iterables)

    # _map_trials imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    grid = tuple(float(k) for k in range(n_points))
    config = SimConfig(trials=n_trials, threads=threads)
    spec = make_sweep("blockage", config, grid=grid, r_d=(100.0,))

    def worker(rho, r_d, trials):
        return {"value": np.array([rho + i * i for i in trials])}

    out = _map_trials(spec, worker)
    assert {point: record["value"].tolist() for point, record in out.items()} == {
        (float(k), 100.0): [k + i * i for i in range(n_trials)] for k in range(n_points)
    }
    assert started == ([] if workers is None else [workers])


def test_a_failing_trial_aborts_the_sweep_naming_its_point_and_index(monkeypatch):
    spec = make_sweep("snr-ecdf", SimConfig(trials=5), grid=(10.0,), r_d=(50.0,))

    def worker(rho, r_d, trials):
        [trial] = trials
        if trial == 3:
            raise ValueError("antenna-element distance violates the model guard")
        return {"trial": np.array([trial])}

    point = r"^snr-ecdf rho=10 r_d=50, trial 3: antenna-element"
    with pytest.raises(ValueError, match=point) as info:
        _map_trials(spec, worker)
    assert isinstance(info.value.__cause__, ValueError)
    assert "model guard" in str(info.value.__cause__)

    # a chunk that raises names the failing trial, not the chunk
    def chunk_worker(rho, r_d, trials):
        if 3 in trials:
            raise ValueError("antenna-element distance violates the model guard")
        return {"trial": np.array(trials)}

    with pytest.raises(ValueError, match=point) as info:
        _map_trials(spec, chunk_worker, chunk=2)
    assert "model guard" in str(info.value.__cause__)

    # trial 2 of the rho = 40 point fails while drawing its scene, inside a
    # chunk of four trials
    cfg = SimConfig().replace(trials=4, threads=1)
    failing = trial_rng(cfg.seed, 2).bit_generator.state
    placements = scenario._placements

    def fail_once(road, rho, rng, *args):
        if rho == 40.0 and rng.bit_generator.state == failing:
            raise ZeroDivisionError("float division by zero")
        return placements(road, rho, rng, *args)

    monkeypatch.setattr(scenario, "_placements", fail_once)
    spec = make_sweep("blockage", cfg, grid=(10.0, 40.0), r_d=(100.0,))
    with pytest.raises(ValueError, match=r"^blockage rho=40 r_d=100, trial 2: float") as info:
        run_blockage_sweep(spec)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.0370, abs=5e-4)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo == pytest.approx(1.0 - 0.0370, abs=5e-4)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo < 0.2


def test_element_counts_track_frequency_at_fixed_area():
    c = 299_792_458.0
    assert element_counts_for_area(1.0, c / 28e9) == 374
    assert element_counts_for_area(1.0, c / 60e9) == 800
    assert element_counts_for_area(1.0, c / 120e9) == 1602
    assert element_counts_for_area(1e-9, c / 28e9) == 2  # floor: one pair


def test_bootstrap_median_ci_is_deterministic_and_covers_the_median():
    values = np.random.default_rng(11).normal(5.0, 2.0, size=200)
    lo1, hi1 = bootstrap_median_ci(values, np.random.default_rng(3))
    lo2, hi2 = bootstrap_median_ci(values, np.random.default_rng(3))
    assert (lo1, hi1) == (lo2, hi2)
    med = float(np.median(values))
    assert lo1 <= med <= hi1
    assert hi1 - lo1 < 2.0
    with pytest.raises(ValueError):
        bootstrap_median_ci(np.array([]), np.random.default_rng(0))


def test_gain_width_on_a_triangle_is_exact():
    angles = np.arange(80.0, 101.0)
    gains = -np.abs(angles - 90.0)
    assert gain_width_deg(angles, gains) == pytest.approx(6.0)


def test_gain_width_interpolates_between_grid_points():
    angles = np.arange(80.0, 101.0, 2.0)
    gains = -((angles - 90.0) ** 2) / 9.0
    # level -3 falls between the sample at 94 (-16/9) and at 96 (-4)
    frac = (-16.0 / 9.0 + 3.0) / (-16.0 / 9.0 + 4.0)
    expected = 2.0 * (4.0 + 2.0 * frac)
    assert gain_width_deg(angles, gains) == pytest.approx(expected)


def test_gain_width_clips_at_the_grid_edge():
    angles = np.arange(0.0, 10.0)
    gains = np.zeros(10)
    assert gain_width_deg(angles, gains) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        gain_width_deg(angles, gains[:-1])


def test_elevation_gain_peaks_at_broadside_with_the_profile_applied():
    cfg = SimConfig().replace(trials=1)
    spec = make_sweep("gain-elevation", cfg, grid=(70.0, 80.0, 90.0, 100.0, 110.0))
    rows = run_gain_elevation(spec)
    assert [r["angle_deg"] for r in rows] == [70.0, 80.0, 90.0, 100.0, 110.0]
    gains = [r["gain_db_cirs"] for r in rows]
    assert int(np.argmax(gains)) == 2
    broadside = rows[2]
    assert broadside["gain_db_cirs"] >= broadside["gain_db_bare"]
    assert broadside["gain_db_cirs"] >= broadside["gain_db_flat"] - 1e-6


def test_gain_frequency_table_is_frequency_major_over_fixed_apertures():
    cfg = SimConfig().replace(trials=1)
    spec = make_sweep("gain-frequency", cfg, grid=(2.0, 4.0))
    rows = run_gain_frequency(spec)
    angles = np.arange(30.0, 150.0 + 1e-9, 1.0)
    assert len(angles) == 121
    assert len(rows) == 2 * 121
    for row in rows:
        assert list(row) == ["f_ghz", "angle_deg", "gain_db_cirs", "gain_db_bare"]
    for i, f_ghz in enumerate((2.0, 4.0)):
        block = rows[121 * i : 121 * (i + 1)]
        assert [r["f_ghz"] for r in block] == [f_ghz] * 121
        assert [r["angle_deg"] for r in block] == angles.tolist()
        sub = cfg.replace(f_ghz=f_ghz)
        lam = sub.wavelength_m
        count = element_counts_for_area(1.0, lam, sub.element_spacing_wl)
        d = sub.element_spacing_m
        geom = build_cirs_geometry(count, count, sub.radius_m, d, d)
        perpendicular = preconfigured_phase(geom, 0.0, lam)
        zero = PhaseProfile(np.zeros(count), np.zeros(count))
        phi_i = np.radians([row["angle_deg"] for row in block])
        assert [row["gain_db_cirs"] for row in block] == channel_gain_elevation(
            geom, perpendicular, phi_i, lam, sub.q_pattern
        ).tolist()
        assert [row["gain_db_bare"] for row in block] == channel_gain_elevation(
            geom, zero, phi_i, lam, sub.q_pattern
        ).tolist()


def test_blockage_sweep_orders_the_modes_pointwise():
    cfg = SimConfig().replace(trials=300)
    spec = make_sweep("blockage", cfg, grid=(20.0, 40.0), r_d=(100.0,))
    rows, _ = run_blockage_sweep(spec)
    assert len(rows) == 2 * 1 * len(MODES)
    by_key = {(r["rho"], r["mode"]): r for r in rows}
    for rho in (20.0, 40.0):
        p = {m: by_key[(rho, m)]["p_block"] for m in MODES}
        assert 0.0 <= p["with_ris"] <= p["with_irs"] <= p["direct"] <= 1.0
        for m in MODES:
            row = by_key[(rho, m)]
            assert row["ci_low"] <= row["p_block"] <= row["ci_high"]
            assert row["trials"] == 300
    # denser traffic blocks the direct path more often
    assert by_key[(40.0, "direct")]["p_block"] >= by_key[(20.0, "direct")]["p_block"]


def reference_blockage_sweep(cfg, rhos, r_ds):
    """``run_blockage_sweep`` rows, listed records and sidecar telemetry, one
    trial at a time, from the one-draw-at-a-time scene, per-door gating and
    per-segment references."""
    road = RoadConfig(
        length=cfg.road_length_m, n_lanes=cfg.n_lanes, lane_width=cfg.lane_width_m
    )
    h, n = cfg.door_center_height_m, cfg.trials
    rows, records, telemetry = [], {}, {}
    for rho in rhos:
        for r_d in r_ds:
            scenes = [
                scalar_generate_traffic(
                    road, rho, trial_rng(cfg.seed, trial), r_d,
                    cfg.vehicle_length_m, cfg.vehicle_width_m, cfg.vehicle_height_m,
                )
                for trial in range(n)
            ]
            flags = [reference_modes(s, cfg.door_length_m, h, cfg.max_range_m) for s in scenes]
            irs = [len(scalar_candidates_irs(s, cfg.door_length_m, h)) for s in scenes]
            ris = [len(scalar_candidates_ris(s, cfg.max_range_m, h)) for s in scenes]
            records[(rho, r_d)] = {
                "blocked": [list(f) for f in flags], "irs_doors": irs, "ris_doors": ris,
                "dropped": [s.dropped for s in scenes],
            }
            telemetry[(rho, r_d)] = {
                "dropped": sum(s.dropped for s in scenes),
                "irs_candidates": {"mean": sum(irs) / n, "max": max(irs)},
                "ris_candidates": {"mean": sum(ris) / n, "max": max(ris)},
            }
            for mode, column in zip(MODES, zip(*flags)):
                lo, hi = wilson_interval(sum(column), n)
                rows.append({
                    "rho": rho, "r_d": r_d, "mode": mode, "p_block": sum(column) / n,
                    "ci_low": lo, "ci_high": hi, "trials": n,
                })
    return rows, records, telemetry


def sidecar_view(sweep):
    """``run_blockage_sweep``'s rows, listed records and sidecar telemetry."""
    rows, records = sweep
    telemetry = {point: sidecar_telemetry(record) for point, record in records.items()}
    listed_records = {point: listed(record) for point, record in records.items()}
    return rows, listed_records, telemetry


@pytest.mark.parametrize("trials", [1, SCENE_CHUNK - 1, SCENE_CHUNK, SCENE_CHUNK + 1])
def test_blockage_sweep_matches_the_per_trial_reference_at_chunk_edges(trials):
    # rho = 0 leaves only the endpoints: no door and no leg segment
    cfg = SimConfig().replace(trials=trials, seed=3)
    spec = make_sweep("blockage", cfg, grid=(0.0, 40.0), r_d=(50.0, 100.0))
    got = sidecar_view(run_blockage_sweep(spec))
    assert got == reference_blockage_sweep(cfg, (0.0, 40.0), (50.0, 100.0))


def test_a_chunk_with_every_direct_ray_clear_matches_the_reference():
    # at this seed no trial of the chunk has a blocker on its direct ray,
    # while its scenes hold gated doors
    cfg = SimConfig().replace(trials=SCENE_CHUNK, seed=8)
    got = sidecar_view(run_blockage_sweep(make_sweep("blockage", cfg, grid=(2.0,), r_d=(50.0,))))
    rows, _, telemetry = got
    assert all(row["p_block"] == 0.0 for row in rows)
    assert telemetry[(2.0, 50.0)]["ris_candidates"]["max"] > 0
    assert got == reference_blockage_sweep(cfg, (2.0,), (50.0,))


def test_pooled_blockage_sweep_matches_the_sequential_one(monkeypatch):
    # three chunks per point over two workers: rows and records are merged
    # to the same values
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    cfg = SimConfig().replace(trials=2 * SCENE_CHUNK + 1, seed=7)
    spec = make_sweep("blockage", cfg, grid=(10.0, 40.0), r_d=(100.0,))
    seq = run_blockage_sweep(spec)
    pooled = replace(spec, config=cfg.replace(threads=2))
    assert sidecar_view(run_blockage_sweep(pooled)) == sidecar_view(seq)


def test_snr_ecdf_modes_dominate_direct_samplewise():
    spec = make_sweep("snr-ecdf", tiny_config(), grid=(30.0,), r_d=(50.0,), radius=(2.0,))
    results, _ = run_snr_ecdf(spec)
    assert set(results) == {(m, 2.0, 30.0, 50.0) for m in MODES}
    # each ECDF is the sorted float array of its samples
    assert all(v.dtype == float and np.all(v[:-1] <= v[1:]) for v in results.values())
    direct = results[("direct", 2.0, 30.0, 50.0)]
    irs = results[("with_irs", 2.0, 30.0, 50.0)]
    ris = results[("with_ris", 2.0, 30.0, 50.0)]
    assert len(direct) == len(irs) == len(ris) == spec.trials
    # relay selection includes the direct entry, so sorted samples dominate
    assert np.all(irs >= direct - 1e-9)
    assert np.all(ris >= direct - 1e-9)
    assert np.all(ris >= irs - 1e-9)  # tuned profile can only beat a fixed one
    again, _ = run_snr_ecdf(spec)
    assert again[("direct", 2.0, 30.0, 50.0)] == pytest.approx(direct)


def test_every_radius_is_scored_on_one_scene_per_trial(monkeypatch):
    # a sweep over two radii generates one scene per trial and gives each
    # radius the samples of a sweep at that radius alone
    spec = make_sweep(
        "snr-ecdf", tiny_config(trials=5), grid=(40.0,), r_d=(50.0,), radius=(2.0, 8.0)
    )
    scenes = []

    def counting_scene(*args):
        chunk, doors = draw_chunk(*args)
        scenes.extend(chunk.txv.tolist())
        return chunk, doors

    monkeypatch.setattr(experiments, "draw_chunk", counting_scene)
    both, _ = run_snr_ecdf(spec)
    assert len(scenes) == spec.trials
    for radius in (2.0, 8.0):
        alone, _ = run_snr_ecdf(replace(spec, radius=(radius,)))
        for mode in MODES:
            key = (mode, radius, 40.0, 50.0)
            assert np.array_equal(both[key], alone[key])
    assert len(scenes) == 3 * spec.trials
    assert np.array_equal(
        both[("direct", 2.0, 40.0, 50.0)], both[("direct", 8.0, 40.0, 50.0)]
    )
    # the surfaces do differ, so the radii are not trivially equal
    assert not np.array_equal(
        both[("with_ris", 2.0, 40.0, 50.0)], both[("with_ris", 8.0, 40.0, 50.0)]
    )


def test_near_field_guard_in_a_worker_names_point_trial_and_radius(monkeypatch):
    # at 0.1 GHz the guard distance is 30 m, which relay doors fall inside;
    # two cores, so the trials run in a real process pool
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    cfg = SimConfig(f_ghz=0.1, m_elements=2, n_elements=2, trials=4, threads=2)
    spec = make_sweep("snr-ecdf", cfg, grid=(40.0,), r_d=(50.0,))
    with pytest.raises(ValueError) as info:
        run_snr_ecdf(spec)
    assert re.match(
        r"^snr-ecdf rho=40 r_d=50, trial [0-3]: radius=[28]: antenna-element distance "
        r".* violates the 10.0 wavelength model guard$",
        str(info.value),
    )


def test_empty_road_relays_nothing_and_scores_no_door(monkeypatch):
    # at rho = 0 the road holds only the two endpoints: there is no relay
    # candidate, so both relayed modes fall back to the direct beam pair, no
    # cascade is ever assembled, and nothing blocks any mode
    calls = []

    def no_cascade(*args, **kwargs):
        calls.append(args)
        raise AssertionError("cascaded_channels called on an empty road")

    monkeypatch.setattr(experiments, "cascaded_channels", no_cascade)
    cfg = tiny_config(trials=6)
    results, records = run_snr_ecdf(
        make_sweep("snr-ecdf", cfg, grid=(0.0,), r_d=(50.0, 100.0), radius=(2.0,))
    )
    assert calls == []
    assert all(not record["cascade_ranks"] for record in records.values())
    for r_d in (50.0, 100.0):
        direct = results[("direct", 2.0, 0.0, r_d)]
        assert np.all(np.isfinite(direct))
        for mode in ("with_irs", "with_ris"):
            assert np.array_equal(results[(mode, 2.0, 0.0, r_d)], direct)
    rows, _ = run_blockage_sweep(make_sweep("blockage", cfg, grid=(0.0,)))
    assert len(rows) == 2 * len(MODES)
    assert all(row["p_block"] == 0.0 for row in rows)


@pytest.mark.parametrize("radius", [2.0, 8.0])
def test_fixed_profile_serves_a_strip_door_nearly_as_well_as_the_tuned_one(radius):
    # empty road at the configured link distance plus one vehicle two lanes
    # over at the midpoint, its left door facing both endpoints
    cfg = SimConfig().replace(
        m_elements=100, n_elements=100, cascade_amp_scale=16.0, radius_m=radius
    )
    road = RoadConfig(cfg.road_length_m, cfg.n_lanes, cfg.lane_width_m)
    rng = np.random.default_rng(0)
    ends = generate_traffic(road, 0.0, rng, link_distance_m=cfg.link_distance_m)
    mid_y = 0.5 * (ends.p_t[1] + ends.p_r[1])
    relay = Vehicle(x=road.lane_center(road.n_lanes - 1), y=mid_y, lane=road.n_lanes - 1)
    scen = scene_from_vehicles(road, (*ends.vehicles, relay))
    irs, _ = gated(scen, cfg.door_length_m, cfg.door_center_height_m, cfg.max_range_m)
    assert irs == [(2, "left")]

    door = door_center(relay, "left", cfg.door_center_height_m)
    pose = door_pose(door, "left", cfg.n_elements, cfg.element_spacing_m)
    d = cfg.element_spacing_m
    geom = replace(build_cirs_geometry(cfg.m_elements, cfg.n_elements, radius, d, d), pose=pose)
    p_t, p_r = scen.p_t, scen.p_r
    f = steering_vector(cfg.k_antennas, azimuth(p_t, door))
    w = steering_vector(cfg.k_antennas, azimuth(door, p_r))
    left, right = cascaded_channels(
        geom, p_t, p_r, cfg.k_antennas, cfg.wavelength_m, f, w, cfg.q_pattern,
        amp_scale=cfg.cascade_amp_scale,
    )
    tuned = optimal_phase(
        geom,
        pose_local_angles(pose, p_t - door),
        pose_local_angles(pose, p_r - door),
        cfg.wavelength_m,
    )
    p_tuned = abs(tuned.weighted_sum(left, right)) ** 2
    p_fixed = abs(fixed_profile(cfg, geom).weighted_sum(left, right)) ** 2
    shortfall_db = 10.0 * math.log10(p_tuned / p_fixed)
    assert shortfall_db <= 3.0


def test_factored_cascade_scores_seeded_full_size_doors(monkeypatch):
    # the nearest relay doors of seeded full-size trials, at both radii:
    # each profile scores the skeleton's factors as it scores the product of
    # the kernel's segments over the whole surface, within 1e-10 of sum|s|;
    # no door evaluates a column twice, and none more than the 24 columns
    # and 4 probes of a single pass at the former start width
    cfg = SimConfig()
    lam, k, d = cfg.wavelength_m, cfg.k_antennas, cfg.element_spacing_m
    rng = np.random.default_rng(14)
    doors = 0
    calls = recording_skeleton(monkeypatch)
    for trial in range(2):
        scenes, gate = draw_chunk(cfg, 40.0, 100.0, [trial_rng(9, trial)])
        [(p_t, p_r)] = scenes.ends
        for relay in _ranked_candidates(gate, gate.ris, 1):
            door, side = gate.points[relay], SIDES[gate.side[relay]]
            pose = door_pose(door, side, cfg.n_elements, d)
            f = steering_vector(k, azimuth(p_t, door))
            w = steering_vector(k, azimuth(door, p_r))
            phases = tuple(rng.uniform(0.0, 2.0 * math.pi, 2))
            for radius in (2.0, 8.0):
                layout = build_cirs_geometry(cfg.m_elements, cfg.n_elements, radius, d, d)
                geom = replace(layout, pose=pose)
                calls.clear()
                left, right = cascaded_channels(
                    geom, p_t, p_r, k, lam, f, w, cfg.q_pattern, phases
                )
                evaluated = np.concatenate([c for r, c in calls if isinstance(r, slice)])
                assert evaluated.size == np.unique(evaluated).size <= 28
                a, b = kernel_segments(geom, p_t, p_r, k, lam, f, w, cfg.q_pattern, phases)
                product = (a * b).ravel()
                tuned = optimal_phase(
                    geom,
                    pose_local_angles(pose, p_t - door),
                    pose_local_angles(pose, p_r - door),
                    lam,
                )
                for prof in (tuned, fixed_profile(cfg, geom)):
                    want = np.sum(reflection_matrix(prof.phases_raw) * product)
                    got = prof.weighted_sum(left, right)
                    assert abs(got - want) <= 1e-10 * float(np.sum(np.abs(product)))
                doors += 1
    assert doors == 4


def test_cascade_ranks_are_counted_per_door_and_summed_over_workers(monkeypatch):
    # a 64 x 64 surface takes the skeleton path: every cascaded door counts
    # once under the numerical rank its skeleton kept, which is below
    # SKELETON_START_COLUMNS for these low-rank doors, and a process pool
    # sums to the same counts
    cfg = tiny_config(m_elements=64, n_elements=64, cascade_amp_scale=39.0625, trials=4)
    spec = make_sweep("snr-ecdf", cfg, grid=(40.0,), r_d=(50.0,), radius=(2.0, 8.0))
    calls = Counter()
    cascade = experiments.cascaded_channels

    def counting(geometry, *args, **kwargs):
        calls[geometry.radius] += 1
        return cascade(geometry, *args, **kwargs)

    monkeypatch.setattr(experiments, "cascaded_channels", counting)
    _, records = run_snr_ecdf(spec)
    assert list(records) == [(40.0, 50.0)]
    ranks = records[(40.0, 50.0)]["cascade_ranks"]
    assert {radius for radius, _ in ranks} == {2.0, 8.0}
    for radius in (2.0, 8.0):
        counts = sidecar_telemetry(records[(40.0, 50.0)], radius=radius)["cascade_ranks"]
        assert sum(counts.values()) == calls[radius] > 0
        assert set(counts) <= {str(rank) for rank in range(1, SKELETON_START_COLUMNS)}

    monkeypatch.setattr(experiments, "cascaded_channels", cascade)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    _, again = run_snr_ecdf(replace(spec, config=cfg.replace(threads=2)))
    assert again[(40.0, 50.0)]["cascade_ranks"] == ranks


def test_snr_winners_name_the_beam_pair_each_mode_picked():
    # per trial and radius each relayed mode counts one winner: "direct"
    # exactly where the mode's SNR is the direct one, else the winning
    # door's place in the mode's ranked doors, within the cap and the doors
    # the mode gated, and the door then beats the direct beams
    cfg = tiny_config(seed=4, max_candidates=2)
    d = cfg.element_spacing_m
    radii = (2.0, 8.0)
    surfaces = []
    for radius in radii:
        layout = build_cirs_geometry(cfg.m_elements, cfg.n_elements, radius, d, d)
        surfaces.append((layout, fixed_profile(cfg, layout)))
    seen = Counter()
    for rho in (10.0, 40.0):
        for trial in range(6):
            record = _snr_trial(cfg, surfaces, rho, 50.0, range(trial, trial + 1))
            [snrs] = record["snr_db"]
            assert sum(record["winners"].values()) == 2 * len(radii)
            for (radius, mode, label), count in record["winners"].items():
                assert count == 1
                row = snrs[radii.index(radius)]
                got, direct = row[MODES.index(f"with_{mode}")], row[0]
                gated = int(record[f"{mode}_doors"][0])
                if label == "direct":
                    assert got == direct
                else:
                    assert 1 <= int(label) <= min(gated, cfg.max_candidates)
                    assert got >= direct
                seen[label] += 1
    assert seen["direct"] > 0 and seen["1"] > 0 and seen["2"] > 0


def test_a_winner_label_names_the_door_that_won(monkeypatch):
    # only the lowest (row, side) door that either mode ranked, the first
    # door a trial scores, gets a non-zero product, scaled to dominate: a
    # mode that ranked it names its 1-based place in the mode's ranked
    # order, and a mode that did not falls back to the direct beams, which
    # see the direct ray at least as well as any door's beams do
    cascade = experiments.cascaded_channels
    target = []

    def only_the_target_door(geometry, *args, **kwargs):
        left, right = cascade(geometry, *args, **kwargs)
        pose = (geometry.pose.position.tolist(), geometry.pose.side)
        return (1e9 if pose == target[0] else 0.0) * left, right

    monkeypatch.setattr(experiments, "cascaded_channels", only_the_target_door)
    d = SimConfig().element_spacing_m
    seen = Counter()
    for cap, seed in ((2, 4), (3, 11)):
        cfg = tiny_config(seed=seed, max_candidates=cap)
        surfaces = []
        for radius in (2.0, 8.0):
            layout = build_cirs_geometry(cfg.m_elements, cfg.n_elements, radius, d, d)
            surfaces.append((layout, fixed_profile(cfg, layout)))
        for rho in (10.0, 40.0):
            for trial in range(6):
                _, doors = draw_chunk(cfg, rho, 100.0, [trial_rng(seed, trial)])
                ranked = {
                    mode: _ranked_candidates(doors, getattr(doors, mode), cap).tolist()
                    for mode in ("irs", "ris")
                }
                scored = {*ranked["irs"], *ranked["ris"]}
                if not scored:
                    continue
                first = min(scored, key=lambda i: (doors.row[i], doors.side[i]))
                pose = door_pose(
                    doors.points[first], SIDES[doors.side[first]], cfg.n_elements, d
                )
                target[:] = [(pose.position.tolist(), pose.side)]
                record = _snr_trial(cfg, surfaces, rho, 100.0, range(trial, trial + 1))
                want = {
                    mode: str(doors_of.index(first) + 1) if first in doors_of else "direct"
                    for mode, doors_of in ranked.items()
                }
                assert record["winners"] == Counter(
                    {(radius, mode, want[mode]): 1 for radius in (2.0, 8.0) for mode in want}
                )
                seen.update(want.values())
    assert seen["direct"] > 0 and seen["1"] > 0
    assert set(seen) - {"direct", "1"}, "the target door is never ranked below first"


def reference_snr_counts(cfg, rho, r_d):
    """Per-trial (IRS doors, RIS doors, dropped placements) of an SNR point,
    from the one-draw-at-a-time scene and the per-door gating references."""
    road = RoadConfig(
        length=cfg.road_length_m, n_lanes=cfg.n_lanes, lane_width=cfg.lane_width_m
    )
    h = cfg.door_center_height_m
    rows = []
    for trial in range(cfg.trials):
        s = scalar_generate_traffic(
            road, rho, trial_rng(cfg.seed, trial), r_d,
            cfg.vehicle_length_m, cfg.vehicle_width_m, cfg.vehicle_height_m,
        )
        rows.append([
            len(scalar_candidates_irs(s, cfg.door_length_m, h)),
            len(scalar_candidates_ris(s, cfg.max_range_m, h)),
            s.dropped,
        ])
    return rows


def reference_door_telemetry(rows, cap):
    """Sidecar door telemetry of per-trial (IRS doors, RIS doors, dropped) rows."""
    irs, ris, dropped = (list(column) for column in zip(*rows))
    return {
        "dropped": sum(dropped),
        "irs_candidates": {"mean": sum(irs) / len(irs), "max": max(irs)},
        "ris_candidates": {"mean": sum(ris) / len(ris), "max": max(ris)},
        "irs_truncated": sum(n > cap for n in irs),
        "ris_truncated": sum(n > cap for n in ris),
    }


def test_snr_door_counts_match_the_per_trial_reference(monkeypatch):
    # a cap of 2 truncates the RIS doors of most trials; on the one-lane
    # 120 m road placements are dropped and no door faces the link
    cfg = tiny_config(trials=5, max_candidates=2, seed=4)
    crowded = cfg.replace(road_length_m=120.0, n_lanes=1)
    for config, rhos in ((cfg, (10.0, 40.0)), (crowded, (400.0,))):
        spec = make_sweep("snr-ecdf", config, grid=rhos, r_d=(50.0,), radius=(2.0,))
        _, records = run_snr_ecdf(spec)
        assert list(records) == [(rho, 50.0) for rho in rhos]
        for (rho, r_d), record in records.items():
            want = reference_snr_counts(config, rho, r_d)
            columns = (record[name] for name in ("irs_doors", "ris_doors", "dropped"))
            assert np.column_stack(list(columns)).tolist() == want
            telemetry = sidecar_telemetry(record, config.max_candidates)
            ranks = telemetry.pop("cascade_ranks")
            assert sum(ranks.values()) == sum(record["cascade_ranks"].values())
            winners = telemetry.pop("winners")
            assert [sum(winners[mode].values()) for mode in ("irs", "ris")] == [5, 5]
            assert telemetry == reference_door_telemetry(want, 2)
    telemetry = sidecar_telemetry(records[(400.0, 50.0)])
    assert telemetry["dropped"] > 0 and telemetry["ris_candidates"]["max"] == 0

    # a process pool returns the same records, in trial order
    spec = make_sweep("snr-ecdf", cfg, grid=(40.0,), r_d=(50.0,), radius=(2.0,))
    _, seq = run_snr_ecdf(spec)
    assert sidecar_telemetry(seq[(40.0, 50.0)], 2)["ris_truncated"] > 0
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    _, records = run_snr_ecdf(replace(spec, config=cfg.replace(threads=2)))
    assert listed(records[(40.0, 50.0)]) == listed(seq[(40.0, 50.0)])


TRIAL_ROWS = st.tuples(
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 3),
    st.lists(st.tuples(st.sampled_from([2.0, 8.0]), st.sampled_from(["exact", "3", "5"]))),
)


@given(
    data=st.data(),
    n_trials=st.integers(1, 40),
    rho=st.sampled_from([0.0, 10.0, 40.0]),
    seed=st.integers(0, 2**16),
    cap=st.integers(0, 6),
)
@settings(max_examples=50, deadline=None)
def test_merged_chunk_records_equal_the_record_of_the_whole_run(
    data, n_trials, rho, seed, cap
):
    # any split of a run's trials into chunks merges to the record of the
    # concatenated trials, for the blockage worker and for SNR-shaped records
    # with a Counter; the formatter of the merged record reads its mean, max,
    # sum, cap counts and ranks straight from the trial columns
    cuts = sorted(data.draw(st.sets(st.integers(1, n_trials))) - {n_trials})
    bounds = [0, *cuts, n_trials]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]

    blockage = partial(_blockage_chunk, SimConfig(seed=seed), rho, 100.0)
    merged = merge_records([blockage(trials) for trials in ranges])
    assert listed(merged) == listed(blockage(range(n_trials)))

    rows = data.draw(st.lists(TRIAL_ROWS, min_size=n_trials, max_size=n_trials))

    def record_of(trials):
        return {
            "snr_db": np.array([[[t, -t, 0.5 * t]] for t in trials], dtype=float),
            "irs_doors": np.array([rows[t][0] for t in trials]),
            "ris_doors": np.array([rows[t][1] for t in trials]),
            "dropped": np.array([rows[t][2] for t in trials]),
            "cascade_ranks": Counter(key for t in trials for key in rows[t][3]),
        }

    merged = merge_records([record_of(trials) for trials in ranges])
    assert listed(merged) == listed(record_of(range(n_trials)))
    irs, ris, dropped, ranks = zip(*rows)
    for radius in (None, 2.0, 8.0):
        labels = Counter(
            label for keys in ranks for at, label in keys if radius in (None, at)
        )
        assert sidecar_telemetry(merged, cap, radius) == {
            "dropped": sum(dropped),
            "irs_candidates": {"mean": sum(irs) / n_trials, "max": max(irs)},
            "ris_candidates": {"mean": sum(ris) / n_trials, "max": max(ris)},
            "irs_truncated": sum(n > cap for n in irs),
            "ris_truncated": sum(n > cap for n in ris),
            "cascade_ranks": dict(labels),
        }
    assert "irs_truncated" not in sidecar_telemetry(merged)


def test_snr_summary_reports_medians_with_intervals():
    spec = make_sweep("snr-ecdf", tiny_config(), grid=(30.0,), r_d=(50.0,), radius=(2.0,))
    results, _ = run_snr_ecdf(spec)
    rows = snr_summary(results, seed=spec.config.seed)
    assert len(rows) == len(results)
    for row in rows:
        assert row["median_ci_low_db"] <= row["median_db"] <= row["median_ci_high_db"]
        assert row["mode"] in MODES
        assert row["trials"] == spec.trials


def test_angle_histograms_integrate_to_one():
    cfg = SimConfig().replace(trials=60)
    spec = make_sweep("angle-pdf", cfg, grid=(30.0,))
    rows, stats = run_angle_pdf(spec)
    assert stats["samples"] > 0
    for name in ("elevation", "azimuth"):
        mass = sum(
            r["density"] * (r["bin_right_deg"] - r["bin_left_deg"])
            for r in rows
            if r["variable"] == name
        )
        assert mass == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < stats["elevation_mean_deg"] < 180.0


def test_angle_pdf_rejects_a_grid_of_several_rhos():
    spec = make_sweep("angle-pdf", SimConfig().replace(trials=2), grid=(10.0, 40.0))
    with pytest.raises(ValueError, match=r"one rho, got the grid \(10, 40\)"):
        run_angle_pdf(spec)


def test_angle_pdf_matches_the_per_trial_reference_across_chunks():
    # three chunks, the last of one trial: the samples of every RIS door,
    # from the one-draw-at-a-time scenes and the per-door gating reference
    cfg = SimConfig().replace(trials=2 * SCENE_CHUNK + 1, seed=6)
    road = RoadConfig(cfg.road_length_m, cfg.n_lanes, cfg.lane_width_m)
    h = cfg.door_center_height_m
    elev, azim = [], []
    for trial in range(cfg.trials):
        s = scalar_generate_traffic(
            road, cfg.rho, trial_rng(cfg.seed, trial), cfg.link_distance_m,
            cfg.vehicle_length_m, cfg.vehicle_width_m, cfg.vehicle_height_m,
        )
        for i, side in scalar_candidates_ris(s, cfg.max_range_m, h):
            door = door_center(s.vehicles[i], side, h)
            pose = door_pose(door, side, cfg.n_elements, cfg.element_spacing_m)
            ang = pose_local_angles(pose, s.p_t - door)
            elev.append(math.degrees(ang.phi))
            azim.append(math.degrees(ang.theta))
    _, stats = run_angle_pdf(make_sweep("angle-pdf", cfg))
    assert stats == {
        "elevation_mean_deg": float(np.mean(elev)),
        "elevation_std_deg": float(np.std(elev)),
        "azimuth_mean_deg": float(np.mean(azim)),
        "azimuth_std_deg": float(np.std(azim)),
        "samples": len(elev),
    }


def test_format_cell_renders_floats_compactly():
    assert format_cell(0.123456789123) == "0.123456789"
    assert format_cell(1.0) == "1"
    assert format_cell(True) == "true" and format_cell(False) == "false"
    assert format_cell(42) == "42"
    assert format_cell("with_ris") == "with_ris"


def test_csv_and_sidecar_round_trip(tmp_path):
    rows = [{"a": 1.5, "b": "x"}, {"a": -2.25, "b": "y"}]
    path = write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert path.read_text() == "a,b\n1.5,x\n-2.25,y\n"
    cfg = SimConfig().replace(seed=9)
    side = write_sidecar(path, cfg, seed=9, extra={"kind": "unit"})
    payload = json.loads(side.read_text())
    assert payload["seed"] == 9
    assert payload["kind"] == "unit"
    assert payload["config"]["m_elements"] == 400
    assert side.name == "t.json"


def test_git_revision_is_read_from_the_checkout_files(tmp_path):
    main_sha, dev_sha, loose_sha = "1f" * 20, "a0" * 20, "c3" * 20
    git = tmp_path / "repo" / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    inside = tmp_path / "repo" / "src" / "pkg"
    inside.mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        f"{dev_sha} refs/heads/dev\n{main_sha} refs/heads/main\n"
    )
    assert _git_revision(inside) == main_sha
    # a loose ref file is newer than packed-refs
    (git / "refs" / "heads" / "main").write_text(loose_sha + "\n")
    assert _git_revision(inside) == loose_sha
    # a linked worktree names its git directory in a .git file and finds
    # the shared refs through commondir
    worktree = tmp_path / "worktree"
    private = git / "worktrees" / "worktree"
    private.mkdir(parents=True)
    worktree.mkdir()
    (worktree / ".git").write_text(f"gitdir: {private}\n")
    (private / "HEAD").write_text("ref: refs/heads/dev\n")
    (private / "commondir").write_text("../..\n")
    assert _git_revision(worktree) == dev_sha
    # a detached HEAD is the revision itself; an unborn branch has none
    (git / "HEAD").write_text(main_sha + "\n")
    assert _git_revision(inside) == main_sha
    (git / "HEAD").write_text("ref: refs/heads/unborn\n")
    assert _git_revision(inside) is None
    assert _git_revision(tmp_path / "elsewhere") is None


@given(
    st.floats(0.0, 80.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([50.0, 100.0, 300.0]),
    st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_ranked_candidates_match_the_per_door_budget_key(rho, seed, r_d, cap):
    rng = np.random.default_rng(seed)
    scen = generate_traffic(RoadConfig(), rho, rng, link_distance_m=r_d)
    doors = relay_doors(scenes_of([scen]), max_range_m=1000.0)
    pairs = door_pairs(doors)
    cands = [pair for pair, ris in zip(pairs, doors.ris.tolist()) if ris]

    def key(cand):
        door = door_center(scen.vehicles[cand[0]], cand[1], 0.9)
        r_t = float(np.linalg.norm(door - scen.p_t))
        r_r = float(np.linalg.norm(door - scen.p_r))
        return (r_t * r_r, *cand)

    ranked = _ranked_candidates(doors, doors.ris, cap)
    assert [pairs[k] for k in ranked] == sorted(cands, key=key)[:cap]


def test_ranked_candidates_break_budget_ties_by_row():
    # mirror-image cars two lanes either side of the link present doors at
    # x = +-4.1 with equal r_t * r_r: the lower row ranks first
    road = RoadConfig()
    ends = generate_traffic(road, 0.0, np.random.default_rng(0), link_distance_m=100.0)
    cars = [Vehicle(x=5.0, y=40.0, lane=3), Vehicle(x=-5.0, y=40.0, lane=1)]
    for pair in (cars, cars[::-1]):
        scen = scene_from_vehicles(road, (*ends.vehicles, *pair))
        doors = relay_doors(scenes_of([scen]))
        budget = doors.r[:, 0] * doors.r[:, 1]
        assert len(budget) == 2 and budget[0] == budget[1]
        assert doors.row[_ranked_candidates(doors, doors.ris, 2)].tolist() == [2, 3]

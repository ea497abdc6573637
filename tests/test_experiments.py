"""Experiment drivers: sweeps, Monte-Carlo plumbing, and table output."""

import json
import math
from functools import partial

import numpy as np
import pytest

from conformal_v2v import experiments
from conformal_v2v.channel import cascaded_channels
from conformal_v2v.config import SimConfig
from conformal_v2v.experiments import (
    DEFAULT_GRIDS,
    DEFAULT_TRIALS,
    MODES,
    EcdfResult,
    SweepSpec,
    _blockage_trial,
    _fixed_profile,
    _map_trials,
    _tuned_profile,
    bootstrap_median_ci,
    element_counts_for_area,
    format_cell,
    gain_width_deg,
    make_sweep,
    run_angle_pdf,
    run_blockage_sweep,
    run_gain_elevation,
    run_snr_ecdf,
    snr_summary,
    trial_rng,
    wilson_interval,
    write_csv,
    write_sidecar,
)
from conformal_v2v.geometry import RoadConfig, Vehicle, build_cirs_geometry
from conformal_v2v.link import beam_power, build_codebooks
from conformal_v2v.scenario import (
    Scenario,
    candidate_relays_irs,
    door_pose,
    door_reference_point,
    generate_traffic,
)

LAM28 = 299_792_458.0 / 28e9


def tiny_config(**over) -> SimConfig:
    base = dict(m_elements=16, n_elements=16, cascade_amp_scale=625.0, trials=12)
    base.update(over)
    return SimConfig().replace(**base)


def test_sweep_spec_validation_and_defaults():
    cfg = SimConfig()
    spec = make_sweep("blockage", cfg)
    assert spec.grid == DEFAULT_GRIDS["blockage"]
    assert spec.trials == DEFAULT_TRIALS["blockage"]
    assert spec.seed == cfg.seed
    spec2 = make_sweep("blockage", cfg.replace(trials=77), grid=(5.0,))
    assert spec2.trials == 77 and spec2.grid == (5.0,)
    with pytest.raises(ValueError):
        make_sweep("warmup", cfg)
    with pytest.raises(ValueError):
        SweepSpec(kind="blockage", grid=(), config=cfg, trials=1, seed=0)
    with pytest.raises(ValueError):
        SweepSpec(kind="blockage", grid=(10.0,), config=cfg, trials=0, seed=0)


def test_trial_rng_substreams_are_stable_and_distinct():
    a = trial_rng(0, 5).random(4)
    b = trial_rng(0, 5).random(4)
    c = trial_rng(0, 6).random(4)
    d = trial_rng(1, 5).random(4)
    assert a == pytest.approx(b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_process_pool_matches_the_sequential_trial_order():
    worker = partial(_blockage_trial, SimConfig(), 30.0, 100.0, 0)
    seq = _map_trials(worker, 24, threads=1, point="rho=30")
    par = _map_trials(worker, 24, threads=2, point="rho=30")
    assert seq == par


@pytest.mark.parametrize(
    "threads, cores, n_trials, workers",
    [
        (1000, 4, 50, 4),
        (1000, 4, 3, 3),
        (3, 8, 50, 3),
        (1000, None, 50, None),
        (1, 8, 50, None),
        (8, 8, 1, None),
    ],
)
def test_worker_count_is_clamped_to_cores_and_trials(
    monkeypatch, threads, cores, n_trials, workers
):
    started = []

    class RecordingPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            assert chunksize >= 1
            return map(fn, iterable)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    out = _map_trials(lambda i: i * i, n_trials, threads, point="rho=30")
    assert out == [i * i for i in range(n_trials)]
    assert started == ([] if workers is None else [workers])


def test_a_failing_trial_aborts_the_sweep_naming_its_point_and_index(monkeypatch):
    def worker(trial):
        if trial == 3:
            raise ValueError("antenna-element distance violates the model guard")
        return trial

    with pytest.raises(ValueError, match=r"^rho=10, trial 3: antenna-element") as info:
        _map_trials(worker, 5, 1, point="rho=10")
    assert isinstance(info.value.__cause__, ValueError)
    assert "model guard" in str(info.value.__cause__)

    def fail_once(config, rho, r_d, seed, trial):
        if rho == 40.0 and trial == 2:
            raise ZeroDivisionError("float division by zero")
        return (False, False, False)

    monkeypatch.setattr(experiments, "_blockage_trial", fail_once)
    spec = make_sweep(
        "blockage", SimConfig().replace(trials=4, threads=1), grid=(10.0, 40.0)
    )
    with pytest.raises(ValueError, match=r"^blockage rho=40 r_d=100, trial 2: float") as info:
        run_blockage_sweep(spec, r_d_values=(100.0,))
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


def test_ecdf_result_sorts_and_bounds_quantiles():
    e = EcdfResult(values=np.array([3.0, -1.0, 2.0]))
    assert e.values == pytest.approx([-1.0, 2.0, 3.0])
    assert len(e) == 3
    assert e.median == 2.0
    assert e.quantile(0.0) == -1.0 and e.quantile(1.0) == 3.0
    with pytest.raises(ValueError):
        e.quantile(1.5)
    with pytest.raises(ValueError):
        EcdfResult(values=np.array([]))


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
    rows = run_gain_elevation(spec, area_m2=0.04)
    assert [r["angle_deg"] for r in rows] == [70.0, 80.0, 90.0, 100.0, 110.0]
    gains = [r["gain_db_cirs"] for r in rows]
    assert int(np.argmax(gains)) == 2
    broadside = rows[2]
    assert broadside["gain_db_cirs"] >= broadside["gain_db_bare"]
    assert broadside["gain_db_cirs"] >= broadside["gain_db_flat"] - 1e-6


def test_blockage_sweep_orders_the_modes_pointwise():
    cfg = SimConfig().replace(trials=300)
    spec = make_sweep("blockage", cfg, grid=(20.0, 40.0))
    rows = run_blockage_sweep(spec, r_d_values=(100.0,))
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


def test_snr_ecdf_modes_dominate_direct_samplewise():
    spec = make_sweep("snr-ecdf", tiny_config(), grid=(30.0,))
    results = run_snr_ecdf(spec, r_d_values=(50.0,), radius_values=(2.0,))
    assert set(results) == {(m, 2.0, 30.0, 50.0) for m in MODES}
    direct = results[("direct", 2.0, 30.0, 50.0)].values
    irs = results[("with_irs", 2.0, 30.0, 50.0)].values
    ris = results[("with_ris", 2.0, 30.0, 50.0)].values
    assert len(direct) == len(irs) == len(ris) == spec.trials
    # relay selection includes the direct entry, so sorted samples dominate
    assert np.all(irs >= direct - 1e-9)
    assert np.all(ris >= direct - 1e-9)
    assert np.all(ris >= irs - 1e-9)  # tuned profile can only beat a fixed one
    again = run_snr_ecdf(spec, r_d_values=(50.0,), radius_values=(2.0,))
    assert again[("direct", 2.0, 30.0, 50.0)].values == pytest.approx(direct)


@pytest.mark.parametrize("radius", [2.0, 8.0])
def test_fixed_profile_serves_a_strip_door_nearly_as_well_as_the_tuned_one(radius):
    # empty road at the configured link distance plus one vehicle two lanes
    # over at the midpoint, its left door facing both endpoints
    cfg = SimConfig().replace(
        m_elements=100, n_elements=100, cascade_amp_scale=16.0, radius_m=radius
    )
    road = RoadConfig(cfg.road_length_m, cfg.n_lanes, cfg.lane_width_m)
    ends = generate_traffic(road, 0.0, 0, link_distance_m=cfg.link_distance_m)
    mid_y = 0.5 * (ends.p_t[1] + ends.p_r[1])
    relay = Vehicle(x=road.lane_center(road.n_lanes - 1), y=mid_y, lane=road.n_lanes - 1)
    scen = Scenario(road=road, vehicles=ends.vehicles + (relay,), txv=0, rxv=1)
    assert candidate_relays_irs(scen, cfg.door_length_m, cfg.door_center_height_m) == [
        (2, "left")
    ]

    pose = door_pose(
        relay, "left", cfg.n_elements, cfg.element_spacing_m, cfg.door_center_height_m
    )
    geom = build_cirs_geometry(
        cfg.m_elements, cfg.n_elements, radius,
        cfg.element_spacing_m, cfg.element_spacing_m, pose,
    )
    door = door_reference_point(relay, "left", cfg.door_center_height_m)
    p_t, p_r = scen.p_t, scen.p_r
    h_tc, h_cr = cascaded_channels(
        geom, p_t, p_r, cfg.k_antennas, cfg.wavelength_m, cfg.q_pattern,
        array_spacing_m=cfg.array_spacing_m, amp_scale=cfg.cascade_amp_scale,
    )
    entry = build_codebooks(p_t, p_r, [("relay", door)], cfg.k_antennas).entries[1]
    tuned = _tuned_profile(cfg, geom, door, p_t, p_r)
    fixed = _fixed_profile(cfg, geom)
    p_tuned = beam_power(h_cr @ (tuned[:, None] * h_tc), entry.f, entry.w)
    p_fixed = beam_power(h_cr @ (fixed[:, None] * h_tc), entry.f, entry.w)
    shortfall_db = 10.0 * math.log10(p_tuned / p_fixed)
    assert shortfall_db <= 3.0


def test_snr_summary_reports_medians_with_intervals():
    spec = make_sweep("snr-ecdf", tiny_config(), grid=(30.0,))
    results = run_snr_ecdf(spec, r_d_values=(50.0,), radius_values=(2.0,))
    rows = snr_summary(results, seed=spec.seed)
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

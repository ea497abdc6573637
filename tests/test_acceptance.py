"""End-to-end acceptance checks for the conformal-surface V2V simulator.

Each test covers one headline behavior: phase-law identities, reflection-law
residuals, coherence of the tuned cascade, channel-model equivalence, angular
gain windows, blockage rescue rates, SNR distributions, and statistical
hygiene.  Tolerances are fixed up front; measured values are printed so a
failing window still documents what the model produces.
"""

import math

import numpy as np
import pytest
from scipy import stats

from conformal_v2v.channel import (
    cascaded_channels,
    mean_pathloss_db,
    sample_direct_pathloss,
)
from conformal_v2v.cli import main as cli_main
from conformal_v2v.config import SimConfig
from conformal_v2v.experiments import (
    gain_width_deg,
    make_sweep,
    run_blockage_sweep,
    run_gain_azimuth,
    run_gain_elevation,
    run_gain_frequency,
    run_snr_ecdf,
)
from conformal_v2v.geometry import (
    AnglePair,
    DoorPose,
    RoadConfig,
    build_cirs_geometry,
    pose_local_angles,
    vec3,
)
from conformal_v2v.phase import optimal_phase
from conformal_v2v.scenario import generate_traffic
from oracles import (
    azimuth_phase,
    beamformed,
    elevation_phase,
    planar_phase,
    reflection_matrix,
    snell_residual,
    specular_phase,
)
from test_channel import brute_force_cascade, kernel_segments, random_beams

LAM = 299_792_458.0 / 28e9


def verify(checks: list[tuple[bool, str]]) -> None:
    """Assert every sub-check, reporting all measured values together."""
    lines = [("PASS  " if ok else "FAIL  ") + msg for ok, msg in checks]
    report = "\n" + "\n".join(lines)
    print(report)
    assert all(ok for ok, _ in checks), report


def test_closed_form_profiles_match_the_general_phase_law():
    geom = build_cirs_geometry(80, 4, 2.0, LAM / 4.0, LAM / 4.0)
    checks = []

    perp = specular_phase(geom, 0.0, math.pi / 2.0, LAM)
    broadside = optimal_phase(
        geom, AnglePair(0.0, math.pi / 2.0), AnglePair(0.0, math.pi / 2.0), LAM
    ).phases_raw
    d_perp = float(np.max(np.abs(perp - broadside)))
    checks.append((d_perp <= 1e-9, f"perpendicular vs general: {d_perp:.3e} rad"))

    phis = np.linspace(0.3, math.pi - 0.3, 50)
    worst = 0.0
    for phi_i in phis:
        for phi_o in phis:
            a = elevation_phase(geom, phi_i, phi_o, LAM)
            b = optimal_phase(
                geom, AnglePair(0.0, phi_i), AnglePair(0.0, phi_o), LAM
            ).phases_raw
            worst = max(worst, float(np.max(np.abs(a - b))))
    checks.append((worst <= 1e-9, f"elevation vs general, 50x50 grid: {worst:.3e} rad"))

    thetas = np.linspace(-1.2, 1.2, 50)
    worst = 0.0
    for theta_i in thetas:
        for theta_o in thetas:
            a = azimuth_phase(geom, theta_i, theta_o, LAM)
            b = optimal_phase(
                geom,
                AnglePair(theta_i, math.pi / 2.0),
                AnglePair(theta_o, math.pi / 2.0),
                LAM,
            ).phases_raw
            worst = max(worst, float(np.max(np.abs(a - b))))
    checks.append((worst <= 1e-9, f"azimuth vs general, 50x50 grid: {worst:.3e} rad"))

    worst = 0.0
    for thetabar in np.linspace(0.0, math.pi / 2.0, 50):
        a = specular_phase(geom, thetabar, math.pi / 2.0, LAM)
        b = optimal_phase(
            geom,
            AnglePair(thetabar, math.pi / 2.0),
            AnglePair(-thetabar, math.pi / 2.0),
            LAM,
        ).phases_raw
        worst = max(worst, float(np.max(np.abs(a - b))))
    checks.append(
        (worst <= 1e-9, f"specular closed form vs general specular pair: {worst:.3e} rad")
    )

    inc, out = AnglePair(0.3, 1.2), AnglePair(-0.5, 1.9)
    big = build_cirs_geometry(400, 400, 1.0e6, LAM / 4.0, LAM / 4.0)
    curved = optimal_phase(big, inc, out, LAM).phases_raw
    flat = planar_phase(400, 400, LAM / 4.0, LAM / 4.0, inc, out, LAM)
    sup = float(np.max(np.abs(curved - flat)))
    checks.append((sup < 1e-3, f"planar limit at R=1e6 m, 400x400: sup {sup:.3e} rad"))

    verify(checks)


def test_phase_gradient_satisfies_the_generalized_reflection_law():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        f_x, f_z = rng.normal(0.0, 1.0, 2)
        k = -(2.0 * math.pi / LAM) * AnglePair(
            rng.uniform(-1.3, 1.3), rng.uniform(0.2, math.pi - 0.2)
        ).direction()
        kbar = (2.0 * math.pi / LAM) * AnglePair(
            rng.uniform(-1.3, 1.3), rng.uniform(0.2, math.pi - 0.2)
        ).direction()
        grad = kbar - k
        worst = max(worst, snell_residual(f_x, f_z, grad, k, kbar))
    verify([(worst < 1e-9, f"max tangential residual over 1000 draws: {worst:.3e}")])


def test_tuned_cascade_is_coherent_for_exactly_one_sign_convention():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = build_cirs_geometry(60, 60, 2.0, LAM / 4.0, LAM / 4.0, pose)
    p_t, p_r = vec3(25.0, -35.0, 1.5), vec3(25.0, 35.0, 1.5)
    left, right = cascaded_channels(geom, p_t, p_r, 1, LAM, [1.0], [1.0])
    incidence = pose_local_angles(pose, p_t - pose.position)
    reflection = pose_local_angles(pose, p_r - pose.position)
    coeff = reflection_matrix(optimal_phase(geom, incidence, reflection, LAM).phases_raw)
    product = (left @ right).ravel()
    terms = coeff * product
    envelope = float(np.sum(np.abs(terms)))
    ratio = float(np.abs(np.sum(terms))) / envelope
    flipped = float(np.abs(np.sum(np.conj(coeff) * product))) / envelope
    verify(
        [
            (ratio >= 0.99, f"coherence with the adopted sign: {ratio:.4f}"),
            (flipped < 0.99, f"coherence with the sign negated: {flipped:.4f}"),
        ]
    )


def test_cascaded_matrices_match_the_elementwise_scalar_sum():
    rng = np.random.default_rng(31)
    worst = 0.0
    exact = True
    for _ in range(100):
        m = 2 * int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 3))
        pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
        geom = build_cirs_geometry(
            m, n, float(rng.uniform(0.5, 4.0)), LAM / 4.0, LAM / 4.0, pose
        )
        p_t = vec3(rng.uniform(4.0, 30.0), rng.uniform(-30.0, -4.0), 1.5)
        p_r = vec3(rng.uniform(4.0, 30.0), rng.uniform(4.0, 30.0), 1.5)
        f, w = random_beams(rng, k)
        got = kernel_segments(geom, p_t, p_r, k, LAM, f, w)
        want = beamformed(geom, *brute_force_cascade(geom, p_t, p_r, k, LAM), f, w)
        for g, w_ in zip(got, want):
            worst = max(worst, float(np.max(np.abs(g - w_)) / np.max(np.abs(w_))))
        # these surfaces are no larger than the skeleton: the cascade's
        # factored product is exactly the product of the two segments
        left, right = cascaded_channels(geom, p_t, p_r, k, LAM, f, w)
        exact = exact and np.array_equal(left @ right, got[0] * got[1])
    verify(
        [
            (worst <= 1e-10, f"max relative deviation over 100 draws: {worst:.3e}"),
            (exact, f"factored product equals the segment product: {exact}"),
        ]
    )


def test_elevation_beamwidth_windows_and_relief_over_the_bare_surface():
    cfg = SimConfig().replace(trials=1)
    widths = {}
    relief = None
    for radius in (2.0, 8.0):
        spec = make_sweep("gain-elevation", cfg.replace(radius_m=radius))
        rows = run_gain_elevation(spec)
        angles = np.array([r["angle_deg"] for r in rows])
        cirs = np.array([r["gain_db_cirs"] for r in rows])
        widths[radius] = gain_width_deg(angles, cirs)
        if radius == 2.0:
            at_broadside = rows[int(np.argmin(np.abs(angles - 90.0)))]
            relief = at_broadside["gain_db_cirs"] - at_broadside["gain_db_bare"]
    verify(
        [
            (
                15.0 <= widths[2.0] <= 25.0,
                f"3 dB elevation width at R=2 m: {widths[2.0]:.2f} deg (window 20 +/- 5)",
            ),
            (
                30.0 <= widths[8.0] <= 50.0,
                f"3 dB elevation width at R=8 m: {widths[8.0]:.2f} deg (window 40 +/- 10)",
            ),
            (
                relief >= 15.0,
                f"configured minus bare at broadside: {relief:.2f} dB (floor 15)",
            ),
        ]
    )


def test_azimuth_beamwidth_windows_for_the_fixed_profile():
    cfg = SimConfig().replace(trials=1, thetabar_deg=60.0)
    widths = {}
    for radius in (2.0, 8.0):
        spec = make_sweep("gain-azimuth", cfg.replace(radius_m=radius))
        rows = run_gain_azimuth(spec)
        angles = np.array([r["angle_deg"] for r in rows])
        cirs = np.array([r["gain_db_cirs"] for r in rows])
        widths[radius] = gain_width_deg(angles, cirs)
    verify(
        [
            (
                10.0 <= widths[2.0] <= 20.0,
                f"3 dB azimuth width at R=2 m: {widths[2.0]:.2f} deg (window 15 +/- 5)",
            ),
            (
                widths[8.0] >= 60.0,
                f"3 dB azimuth width at R=8 m: {widths[8.0]:.2f} deg (floor 60)",
            ),
        ]
    )


def test_gain_and_beamwidth_trends_across_carrier_frequencies():
    cfg = SimConfig().replace(trials=1)
    spec = make_sweep("gain-frequency", cfg)
    rows = run_gain_frequency(spec)
    peaks, widths = [], []
    for f in spec.grid:
        sub = [r for r in rows if r["f_ghz"] == f]
        angles = np.array([r["angle_deg"] for r in sub])
        cirs = np.array([r["gain_db_cirs"] for r in sub])
        bare = np.array([r["gain_db_bare"] for r in sub])
        peaks.append(float(np.max(cirs) - np.max(bare)))
        widths.append(gain_width_deg(angles, cirs))
    peak_txt = "/".join(f"{p:.2f}" for p in peaks)
    width_txt = "/".join(f"{w:.2f}" for w in widths)
    verify(
        [
            (
                peaks[0] < peaks[1] < peaks[2],
                f"peak gain over bare strictly increasing with f: {peak_txt} dB",
            ),
            (
                widths[0] > widths[1] > widths[2],
                f"3 dB width strictly decreasing with f: {width_txt} deg",
            ),
        ]
    )


def test_blockage_rescue_rates_from_door_mounted_relays():
    cfg = SimConfig().replace(trials=10_000)
    spec = make_sweep("blockage", cfg, grid=(10.0, 20.0, 30.0, 40.0))
    rows, _ = run_blockage_sweep(spec, r_d_values=(100.0,))
    p = {(r["rho"], r["mode"]): r["p_block"] for r in rows}
    direct = [p[(rho, "direct")] for rho in spec.grid]
    base = p[(30.0, "direct")]
    red_irs = 100.0 * (base - p[(30.0, "with_irs")]) / base
    red_ris = 100.0 * (base - p[(30.0, "with_ris")]) / base
    verify(
        [
            (
                all(a <= b + 1e-12 for a, b in zip(direct, direct[1:])),
                "direct blockage monotone in rho: "
                + "/".join(f"{v:.3f}" for v in direct),
            ),
            (
                10.0 <= red_irs <= 30.0,
                f"fixed-profile reduction at rho=30, r_d=100: {red_irs:.1f}% "
                "(window 20 +/- 10)",
            ),
            (
                60.0 <= red_ris <= 80.0,
                f"tunable reduction at rho=30, r_d=100: {red_ris:.1f}% "
                "(window 70 +/- 10)",
            ),
        ]
    )


def test_median_snr_gains_dominance_and_radius_insensitivity():
    cfg = SimConfig().replace(
        m_elements=100, n_elements=100, cascade_amp_scale=16.0, trials=200
    )
    spec = make_sweep("snr-ecdf", cfg, grid=(10.0, 40.0))
    results, _ = run_snr_ecdf(spec, r_d_values=(50.0,), radius_values=(2.0, 8.0))

    def med(mode, radius, rho):
        return results[(mode, radius, rho, 50.0)].median

    gaps = {
        ("with_irs", 10.0): med("with_irs", 2.0, 10.0) - med("direct", 2.0, 10.0),
        ("with_irs", 40.0): med("with_irs", 2.0, 40.0) - med("direct", 2.0, 40.0),
        ("with_ris", 10.0): med("with_ris", 2.0, 10.0) - med("direct", 2.0, 10.0),
        ("with_ris", 40.0): med("with_ris", 2.0, 40.0) - med("direct", 2.0, 40.0),
    }

    quantiles = np.arange(0.1, 0.91, 0.1)
    radius_gap = 0.0
    dominance_margin = math.inf
    for rho in spec.grid:
        for mode in ("direct", "with_irs", "with_ris"):
            a = results[(mode, 2.0, rho, 50.0)]
            b = results[(mode, 8.0, rho, 50.0)]
            radius_gap = max(
                radius_gap,
                float(np.max(np.abs([a.quantile(q) - b.quantile(q) for q in quantiles]))),
            )
        for radius in (2.0, 8.0):
            d = results[("direct", radius, rho, 50.0)]
            i = results[("with_irs", radius, rho, 50.0)]
            r = results[("with_ris", radius, rho, 50.0)]
            for q in quantiles:
                dominance_margin = min(
                    dominance_margin,
                    i.quantile(q) - d.quantile(q),
                    r.quantile(q) - i.quantile(q),
                )

    verify(
        [
            (
                0.0 <= gaps[("with_irs", 10.0)] <= 6.0,
                f"fixed-profile median gain, rho=10: {gaps[('with_irs', 10.0)]:.2f} dB "
                "(window 3 +/- 3)",
            ),
            (
                5.0 <= gaps[("with_irs", 40.0)] <= 15.0,
                f"fixed-profile median gain, rho=40: {gaps[('with_irs', 40.0)]:.2f} dB "
                "(window 10 +/- 5)",
            ),
            (
                15.0 <= gaps[("with_ris", 10.0)] <= 25.0,
                f"tunable median gain, rho=10: {gaps[('with_ris', 10.0)]:.2f} dB "
                "(window 20 +/- 5)",
            ),
            (
                gaps[("with_ris", 40.0)] >= 30.0,
                f"tunable median gain, rho=40: {gaps[('with_ris', 40.0)]:.2f} dB "
                "(floor 30)",
            ),
            (
                radius_gap <= 3.0,
                f"max decile gap between R=2 and R=8: {radius_gap:.2f} dB (cap 3)",
            ),
            (
                dominance_margin >= -1e-9,
                f"stochastic dominance margin at q >= 0.1: {dominance_margin:.4f} dB",
            ),
        ]
    )


def test_sampled_statistics_match_their_models_and_runs_are_deterministic(tmp_path):
    checks = []
    n = 10_000

    rng = np.random.default_rng(5)
    clear = np.array(
        [sample_direct_pathloss(50.0, 28.0, 0, rng) for _ in range(n)]
    )
    mu = mean_pathloss_db(50.0, 28.0)
    se_mean = 3.0 / math.sqrt(n)
    se_std = 3.0 / math.sqrt(2.0 * n)
    checks.append(
        (
            abs(float(np.mean(clear)) - mu) <= 3.0 * se_mean,
            f"unblocked mean {np.mean(clear):.4f} dB vs {mu:.4f} (3 SE = {3*se_mean:.4f})",
        )
    )
    checks.append(
        (
            abs(float(np.std(clear)) - 3.0) <= 3.0 * se_std,
            f"unblocked sigma {np.std(clear):.4f} dB vs 3.0 (3 SE = {3*se_std:.4f})",
        )
    )

    blocked = np.array(
        [sample_direct_pathloss(50.0, 28.0, 2, rng) for _ in range(n)]
    )
    sigma2 = math.sqrt(3.0**2 + 4.0**2)
    checks.append(
        (
            abs(float(np.mean(blocked)) - (mu + 21.0)) <= 3.0 * sigma2 / math.sqrt(n),
            f"two-blocker mean {np.mean(blocked):.4f} dB vs {mu + 21.0:.4f}",
        )
    )
    checks.append(
        (
            abs(float(np.std(blocked)) - sigma2) <= 3.0 * sigma2 / math.sqrt(2.0 * n),
            f"two-blocker sigma {np.std(blocked):.4f} dB vs {sigma2:.4f}",
        )
    )

    road = RoadConfig()
    lam = 30.0 * road.length / 1000.0
    counts = []
    for seed in range(300):
        scene = generate_traffic(road, 30.0, np.random.default_rng(seed))
        assert scene.dropped == 0
        for lane in (0, 1, 3, 4):  # off the endpoint lane
            counts.append(sum(1 for v in scene.vehicles if v.lane == lane))
    counts = np.array(counts)
    lo_bin, hi_bin = 9, 21
    edges = list(range(lo_bin, hi_bin + 1))
    observed = [int(np.sum(counts <= lo_bin - 1))]
    observed += [int(np.sum(counts == v)) for v in edges]
    observed.append(int(np.sum(counts >= hi_bin + 1)))
    probs = [stats.poisson.cdf(lo_bin - 1, lam)]
    probs += [stats.poisson.pmf(v, lam) for v in edges]
    probs.append(stats.poisson.sf(hi_bin, lam))
    expected = np.array(probs) * len(counts)
    chi = stats.chisquare(observed, expected)
    checks.append(
        (
            chi.pvalue >= 0.01,
            f"Poisson lane counts chi-square p = {chi.pvalue:.4f} "
            f"({len(counts)} counts, mean {lam:.1f})",
        )
    )

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    argv = ["blockage", "--trials", "60", "--rho", "25", "--seed", "11"]
    assert cli_main(argv + ["--out-dir", str(out1)]) == 0
    assert cli_main(argv + ["--out-dir", str(out2)]) == 0
    same = (out1 / "blockage.csv").read_bytes() == (out2 / "blockage.csv").read_bytes()
    checks.append((same, "reruns with one seed give byte-identical tables"))

    verify(checks)

"""Path loss, antenna/element patterns, direct and cascaded channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_v2v.channel import (
    MIN_DISTANCE_WAVELENGTHS,
    PathLossSample,
    antenna_positions,
    array_response,
    blockage_mean_db,
    cascaded_channels,
    channel_gain_azimuth,
    channel_gain_elevation,
    direct_channel,
    element_pattern,
    endpoint_pattern,
    mean_pathloss_db,
    normalized_gain,
    pattern_from_cosine,
    sample_blockage_db,
    sample_direct_pathloss,
    total_channel,
)
from conformal_v2v.geometry import AnglePair, DoorPose, build_cirs_geometry, vec3
from conformal_v2v.phase import PhaseProfile, optimal_phase, preconfigured_phase
from oracles import dense_normalized_gain, plane_wave_vectors, reflection_matrix

LAM = 299_792_458.0 / 28e9
Q = 0.285


def test_mean_pathloss_reference_values():
    # 32.4 + 20 log10(r) + 20 log10(f): hand-checked at 50 m, 28 GHz
    assert mean_pathloss_db(50.0, 28.0) == pytest.approx(95.32256071, abs=1e-6)
    assert mean_pathloss_db(100.0, 28.0) - mean_pathloss_db(50.0, 28.0) == (
        pytest.approx(20.0 * math.log10(2.0))
    )
    assert mean_pathloss_db(50.0, 56.0) - mean_pathloss_db(50.0, 28.0) == (
        pytest.approx(20.0 * math.log10(2.0))
    )
    with pytest.raises(ValueError):
        mean_pathloss_db(0.0, 28.0)


def test_blockage_mean_steps_linearly_from_first_blocker():
    assert blockage_mean_db(0) == 0.0
    assert blockage_mean_db(1) == 15.0
    assert blockage_mean_db(2) == 21.0
    assert blockage_mean_db(3) == 27.0
    assert blockage_mean_db(2, mu1_db=10.0, step_db=2.0) == 12.0


def test_blockage_sample_is_zero_without_blockers_and_noisy_with():
    rng = np.random.default_rng(0)
    assert sample_blockage_db(0, rng) == 0.0
    draws = np.array([sample_blockage_db(2, rng) for _ in range(4000)])
    assert np.mean(draws) == pytest.approx(21.0, abs=4.0 * 4.0 / math.sqrt(4000))
    assert np.std(draws) == pytest.approx(4.0, rel=0.1)


def test_pathloss_sample_component_bookkeeping():
    rng = np.random.default_rng(1)
    s = sample_direct_pathloss(50.0, 28.0, 2, rng)
    assert s.loss_db == pytest.approx(s.mu_los_db + s.blockage_db + s.shadowing_db)
    assert s.blocker_count == 2
    clean = sample_direct_pathloss(50.0, 28.0, 0, rng, sigma_shadow_db=0.0)
    assert clean.loss_db == pytest.approx(mean_pathloss_db(50.0, 28.0))
    assert clean.blockage_db == 0.0
    with pytest.raises(ValueError):
        PathLossSample(
            loss_db=100.0,
            mu_los_db=95.0,
            blocker_count=0,
            shadowing_db=0.0,
            blockage_db=1.0,  # nonzero without blockers
        )


def test_array_response_is_unit_norm_with_half_wave_phases():
    for k in (1, 4, 8):
        a = array_response(k, 0.7)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        expected = np.exp(-1j * math.pi * np.arange(k) * math.cos(0.7)) / math.sqrt(k)
        assert a == pytest.approx(expected)


def test_antenna_positions_are_centered_on_the_reference_point():
    pos = antenna_positions(vec3(1.0, 2.0, 1.5), 4, 0.01)
    assert np.mean(pos, axis=0) == pytest.approx([1.0, 2.0, 1.5])
    assert pos[:, 0] == pytest.approx([0.985, 0.995, 1.005, 1.015])
    assert pos[:, 1] == pytest.approx([2.0] * 4)


def test_element_pattern_broadside_value_and_cutoff():
    # sqrt(2 (2q+1)) at u = 1 for q = 0.285, hand-computed
    assert pattern_from_cosine(1.0, Q) == pytest.approx(1.77200451467, abs=1e-9)
    assert pattern_from_cosine(0.0, Q) == 0.0
    assert pattern_from_cosine(-0.3, Q) == 0.0
    assert pattern_from_cosine(1.0, 0.0) == pytest.approx(math.sqrt(2.0))
    assert element_pattern(AnglePair(0.0, math.pi / 2.0), Q) == pytest.approx(
        1.77200451467
    )
    # past grazing in azimuth (exact pi/2 leaves a float-epsilon cosine)
    assert element_pattern(AnglePair(math.pi / 2.0 + 0.01, math.pi / 2.0), Q) == 0.0


def test_endpoint_pattern_depends_on_elevation_only():
    full = pattern_from_cosine(1.0, Q)
    assert endpoint_pattern(vec3(1.0, 0.0, 0.0), Q) == pytest.approx(full)
    assert endpoint_pattern(vec3(0.0, -2.0, 0.0), Q) == pytest.approx(full)
    assert endpoint_pattern(vec3(0.0, 0.0, 1.0), Q) == pytest.approx(0.0)
    tilted = endpoint_pattern(vec3(1.0, 0.0, 1.0), Q)
    assert tilted == pytest.approx(full * math.sin(math.pi / 4.0) ** Q)


def test_direct_channel_is_rank_one_with_the_budgeted_magnitude():
    p_t, p_r = vec3(0.0, 0.0, 1.5), vec3(0.0, 50.0, 1.5)
    loss = 95.0
    h = direct_channel(p_t, p_r, 4, loss, rng=None, q=Q)
    assert h.shape == (4, 4)
    assert np.linalg.matrix_rank(h) == 1
    rho = pattern_from_cosine(1.0, Q)  # horizontal ray
    expected_mag = 10.0 ** (-loss / 20.0) * rho * rho / 4.0
    assert np.abs(h) == pytest.approx(np.full((4, 4), expected_mag))
    # deterministic without an rng, random phase with one
    assert direct_channel(p_t, p_r, 4, loss, rng=None, q=Q) == pytest.approx(h)
    h2 = direct_channel(p_t, p_r, 4, loss, np.random.default_rng(3), q=Q)
    assert np.abs(h2) == pytest.approx(np.abs(h))
    assert not np.allclose(h2, h)


def test_direct_channel_rejects_coincident_endpoints():
    with pytest.raises(ValueError):
        direct_channel(vec3(0, 0, 1.5), vec3(0, 0, 1.5), 2, 90.0, None)


def brute_force_cascade(geom, p_t, p_r, k_antennas, lam, q=Q):
    """Scalar per-entry reference from the far-field RIS law of Tang et al.

    Tang et al. (IEEE TWC 2021) give, per element and endpoint antenna pair,
    P_r / P_t = G_t G_r G d_m d_n lam^2 F(t) F(r) / (64 pi^3 r_t^2 r_r^2):
    the unit-cell gain G = 2(2q+1) appears once and F = u^(2q) is the
    normalized element power pattern.  The endpoints are vertical radiators
    with power pattern G_e sin(phi)^(2q), G_e = 2(2q+1).  Splitting the law
    evenly over the two segments gives each entry the amplitude
    (G d_m d_n lam^2 / (64 pi^3))^(1/4) u^q sqrt(G_e) sin(phi)^q / r and the
    spherical phase exp(-j 2 pi r / lam).
    """
    unit_gain = 2.0 * (2.0 * q + 1.0)
    endpoint_gain = 2.0 * (2.0 * q + 1.0)
    amp = (unit_gain * geom.d_m * geom.d_n * lam**2 / (64.0 * math.pi**3)) ** 0.25
    tx = antenna_positions(p_t, k_antennas, lam / 2.0)
    rx = antenna_positions(p_r, k_antennas, lam / 2.0)
    pos = geom.flat_positions
    normals = np.repeat(geom.normals, geom.n_count, axis=0)
    mn = pos.shape[0]
    h_tc = np.zeros((mn, k_antennas), complex)
    h_cr = np.zeros((k_antennas, mn), complex)
    for ell in range(mn):
        for k in range(k_antennas):
            for ant, into_tc in ((tx[k], True), (rx[k], False)):
                d = ant - pos[ell]
                r = np.linalg.norm(d)
                ray = d / r
                u = float(ray @ normals[ell])
                element = u**q if u > 0.0 else 0.0
                sin_phi = math.sqrt(max(0.0, 1.0 - ray[2] ** 2))
                endpoint = math.sqrt(endpoint_gain) * sin_phi**q
                val = amp / r * element * endpoint * np.exp(-2j * math.pi * r / lam)
                if into_tc:
                    h_tc[ell, k] = val
                else:
                    h_cr[k, ell] = val
    return h_tc, h_cr


def test_cascade_power_matches_the_far_field_ris_law_at_broadside():
    # Tang et al. (IEEE TWC 2021) at broadside with both patterns at their
    # peak: P_r / P_t = G_t G_r G (MN)^2 d_m d_n lam^2 / (64 pi^3 r_t^2 r_r^2).
    # A small, nearly flat surface co-phased for broadside, single antennas
    # on its axis at two distances.
    m, n, d = 8, 6, LAM / 4
    pose = DoorPose(position=vec3(0.0, -(n - 1) * d / 2.0, 0.9), side="right")
    geom = build_cirs_geometry(m, n, 1.0e6, d, d, pose)
    r_t, r_r = 10.0, 25.0
    h_tc, h_cr = cascaded_channels(geom, vec3(r_t, 0.0, 0.9), vec3(r_r, 0.0, 0.9), 1, LAM)
    broadside = AnglePair(0.0, math.pi / 2.0)
    phi = optimal_phase(geom, broadside, broadside, LAM).coefficients()
    power = abs(h_cr[0] @ (phi * h_tc[:, 0])) ** 2
    g = 2.0 * (2.0 * Q + 1.0)  # G_t = G_r = G for q = 0.285
    closed = g**3 * (m * n) ** 2 * d * d * LAM**2 / (64.0 * math.pi**3 * r_t**2 * r_r**2)
    assert power == pytest.approx(closed, rel=1e-3)


def test_cascaded_channel_matches_scalar_reference():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = 2 * int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 3))
        pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right", yaw=0.0)
        geom = build_cirs_geometry(m, n, float(rng.uniform(0.5, 4.0)), LAM / 4, LAM / 4, pose)
        p_t = vec3(rng.uniform(5, 30), rng.uniform(-30, -5), 1.5)
        p_r = vec3(rng.uniform(5, 30), rng.uniform(5, 30), 1.5)
        got = cascaded_channels(geom, p_t, p_r, k, LAM)
        want = brute_force_cascade(geom, p_t, p_r, k, LAM)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))


def test_cascade_amp_scale_multiplies_the_product_once():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right", yaw=0.0)
    geom = build_cirs_geometry(4, 4, 2.0, LAM / 4, LAM / 4, pose)
    p_t, p_r = vec3(10.0, -20.0, 1.5), vec3(10.0, 20.0, 1.5)
    base_tc, base_cr = cascaded_channels(geom, p_t, p_r, 2, LAM)
    sc_tc, sc_cr = cascaded_channels(geom, p_t, p_r, 2, LAM, amp_scale=16.0)
    assert sc_tc == pytest.approx(4.0 * base_tc)
    assert sc_cr == pytest.approx(4.0 * base_cr)
    # cascade product therefore scales by amp_scale exactly
    prod = sc_cr @ sc_tc
    assert prod == pytest.approx(16.0 * (base_cr @ base_tc))


def test_cascade_shares_one_random_phase_per_segment():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right", yaw=0.0)
    geom = build_cirs_geometry(4, 2, 2.0, LAM / 4, LAM / 4, pose)
    p_t, p_r = vec3(8.0, -15.0, 1.5), vec3(8.0, 15.0, 1.5)
    plain_tc, plain_cr = cascaded_channels(geom, p_t, p_r, 2, LAM)
    seeded_tc, seeded_cr = cascaded_channels(
        geom, p_t, p_r, 2, LAM, rng=np.random.default_rng(4)
    )
    ratio_tc = seeded_tc / plain_tc
    ratio_cr = seeded_cr / plain_cr
    assert np.abs(ratio_tc) == pytest.approx(np.ones_like(ratio_tc, dtype=float))
    assert np.std(np.angle(ratio_tc)) < 1e-12       # one phase for the whole segment
    assert np.std(np.angle(ratio_cr)) < 1e-12
    assert abs(np.angle(ratio_tc[0, 0]) - np.angle(ratio_cr[0, 0])) > 1e-3


def test_cascade_rejects_near_field_endpoints():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right", yaw=0.0)
    geom = build_cirs_geometry(4, 2, 2.0, LAM / 4, LAM / 4, pose)
    too_close = vec3(MIN_DISTANCE_WAVELENGTHS * LAM * 0.5, 0.0, 0.9)
    with pytest.raises(ValueError):
        cascaded_channels(geom, too_close, vec3(10.0, 10.0, 1.5), 2, LAM)


def test_reflection_matrix_is_the_flat_coefficient_vector():
    # not row + column separable: 0 + 1 != pi/2 + pi
    raw = np.array([[0.0, math.pi / 2.0], [math.pi, 1.0]])
    diag = reflection_matrix(raw)
    assert diag.shape == (4,)
    assert diag == pytest.approx([1.0, 1j, -1.0, np.exp(1j)])
    assert np.abs(diag) == pytest.approx(np.ones(4))
    prof = PhaseProfile(np.array([0.0, math.pi]), np.array([0.0, math.pi / 2.0]))
    assert prof.coefficients() == pytest.approx(reflection_matrix(prof.phases_raw))
    assert prof.coefficients() == pytest.approx([1.0, 1j, -1.0, -1j])


def test_total_channel_sums_relay_contributions():
    rng = np.random.default_rng(2)
    h_d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h_tc = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    h_cr = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    phi = np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
    got = total_channel(h_d, [(h_cr, phi, h_tc)])
    want = h_d + h_cr @ np.diag(phi) @ h_tc
    assert got == pytest.approx(want)
    two = total_channel(h_d, [(h_cr, phi, h_tc), (h_cr, phi, h_tc)])
    assert two == pytest.approx(2.0 * (want - h_d) + h_d)
    with pytest.raises(ValueError):
        total_channel(h_d, [(h_cr, phi[:-1], h_tc)])


def test_perfectly_coherent_gain_equals_element_count_floor():
    # flat limit at broadside: every term aligned, gain = -10 log10(MN)
    geom = build_cirs_geometry(8, 4, 1.0e9, LAM / 4, LAM / 4)
    zero = PhaseProfile(np.zeros(8), np.zeros(4))
    g = channel_gain_elevation(geom, zero, math.pi / 2, math.pi / 2, LAM, Q)
    assert g == pytest.approx(-10.0 * math.log10(32.0), abs=1e-6)


def test_configured_cylinder_recovers_the_flat_gain():
    geom = build_cirs_geometry(60, 8, 2.0, LAM / 4, LAM / 4)
    prof = preconfigured_phase(geom, 0.0, LAM)
    zero = PhaseProfile(np.zeros(60), np.zeros(8))
    g_conf = channel_gain_elevation(geom, prof, math.pi / 2, math.pi / 2, LAM, Q)
    g_bare = channel_gain_elevation(geom, zero, math.pi / 2, math.pi / 2, LAM, Q)
    assert g_conf > g_bare
    assert g_conf == pytest.approx(-10.0 * math.log10(480.0), abs=0.05)


def test_azimuth_gain_defaults_to_specular_reflection():
    geom = build_cirs_geometry(16, 4, 2.0, LAM / 4, LAM / 4)
    prof = optimal_phase(
        geom, AnglePair(0.4, math.pi / 2), AnglePair(-0.4, math.pi / 2), LAM
    )
    a = channel_gain_azimuth(geom, prof, 0.4, LAM, Q)
    b = channel_gain_azimuth(geom, prof, 0.4, LAM, Q, theta_o=-0.4)
    assert a == pytest.approx(b)


@given(st.integers(2, 12), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_normalized_gain_never_exceeds_coherent_bound(m_half, n):
    geom = build_cirs_geometry(2 * m_half, n, 2.0, LAM / 4, LAM / 4)
    prof = PhaseProfile(np.zeros(2 * m_half), np.zeros(n))
    g = channel_gain_elevation(geom, prof, 1.2, math.pi - 1.2, LAM, Q)
    assert g <= -10.0 * math.log10(2 * m_half * n) + 1e-9


def test_gain_of_rays_grazing_every_element_stays_finite():
    # only the m = 0 row is lit, at u = sin(phi); its pattern factor is
    # ~1e-92 at phi = 5e-324, whose squared norms underflow unless rescaled
    geom = build_cirs_geometry(2, 1, 1.0, LAM / 4, LAM / 4)
    zero = PhaseProfile(np.zeros(2), np.zeros(1))
    for phi in (1e-100, 1e-300, 5e-324):
        graze = AnglePair(0.0, phi)
        g = normalized_gain(geom, zero, graze, graze, LAM, Q)
        assert g == pytest.approx(-10.0 * math.log10(2.0))


angle_pairs = st.builds(
    AnglePair, st.floats(-math.pi, math.pi), st.floats(0.0, math.pi)
)


@st.composite
def separable_gain_cases(draw):
    """A surface, one profile of each synthesized kind, and an angle pair."""
    m = 2 * draw(st.integers(1, 32))
    n = draw(st.integers(1, 64))
    radius = draw(st.floats(0.05, 1.0e9))
    geom = build_cirs_geometry(m, n, radius, LAM / 4, LAM / 4)
    kind = draw(st.sampled_from(("zero", "preconfigured", "optimal")))
    if kind == "zero":
        prof = PhaseProfile(np.zeros(m), np.zeros(n))
    elif kind == "preconfigured":
        thetabar = draw(st.floats(0.0, math.pi / 2.0))
        phibar = draw(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
        prof = preconfigured_phase(geom, thetabar, LAM, phibar)
    else:
        prof = optimal_phase(geom, draw(angle_pairs), draw(angle_pairs), LAM)
    return geom, prof, draw(angle_pairs), draw(angle_pairs)


@given(separable_gain_cases())
@settings(max_examples=300, deadline=None)
def test_separable_gain_matches_the_dense_oracle(case):
    geom, prof, incidence, reflection = case
    phi = reflection_matrix(prof.phases_raw)
    got = normalized_gain(geom, prof, incidence, reflection, LAM, Q)
    want = dense_normalized_gain(geom, phi, incidence, reflection, LAM, Q)
    if math.isinf(want):
        assert got == want
        return
    # Each term's phase argument reaches a few hundred radians and is rounded
    # to ~1e-13 rad in either sum.  Where the terms cancel (a null), that
    # rounding is amplified by cond = sum|terms| / |sum terms|; elsewhere
    # cond is small and the bound is 1e-9 dB.
    t, c = plane_wave_vectors(geom, incidence, reflection, LAM, Q)
    terms = c * phi * t
    cond = float(np.sum(np.abs(terms)) / np.abs(np.sum(terms)))
    assert abs(got - want) <= 1e-9 + 20.0 / math.log(10.0) * 1e-13 * cond

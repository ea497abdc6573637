"""Path loss, antenna/element patterns, direct and cascaded channels."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conformal_v2v import channel
from conformal_v2v.channel import (
    MIN_DISTANCE_WAVELENGTHS,
    SKELETON_PROBES,
    SKELETON_START_COLUMNS,
    SKELETON_TOL,
    _beamformed_segment,
    _leg,
    antenna_positions,
    blockage_mean_db,
    cascaded_channels,
    channel_gain_azimuth,
    channel_gain_elevation,
    direct_channel,
    endpoint_pattern,
    mean_pathloss_db,
    normalized_gain,
    pattern_from_cosine,
    sample_blockage_db,
    sample_direct_pathloss,
    steering_vector,
)
from conformal_v2v.config import SimConfig
from conformal_v2v.geometry import (
    AnglePair,
    DoorPose,
    azimuth,
    build_cirs_geometry,
    pose_local_angles,
    vec3,
)
from conformal_v2v.phase import PhaseProfile, optimal_phase, preconfigured_phase
from oracles import (
    beamformed,
    dense_cascaded_channels,
    dense_normalized_gain,
    element_positions,
    per_antenna_segment,
    plane_wave_vectors,
    reflection_matrix,
    total_channel,
)

LAM = 299_792_458.0 / 28e9
Q = 0.285
MAX_RANGE_M = SimConfig().max_range_m


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


def test_direct_pathloss_sums_its_three_components():
    # mu_LoS + blockage + shadowing, drawn in that order from one generator
    loss = sample_direct_pathloss(50.0, 28.0, 2, np.random.default_rng(1))
    rng = np.random.default_rng(1)
    blockage = sample_blockage_db(2, rng)
    shadowing = float(rng.normal(0.0, 3.0))
    assert loss == mean_pathloss_db(50.0, 28.0) + blockage + shadowing
    clean = sample_direct_pathloss(50.0, 28.0, 0, rng, sigma_shadow_db=0.0)
    assert clean == mean_pathloss_db(50.0, 28.0)


def test_array_response_is_unit_norm_with_half_wave_phases():
    # steering_vector is the one array response: exactly the half-wave
    # phases, unit-norm once scaled by 1/sqrt(K) (the K divisor of best_snr)
    for k in (1, 4, 8):
        s = steering_vector(k, 0.7)
        assert np.linalg.norm(s / math.sqrt(k)) == pytest.approx(1.0)
        expected = np.exp(-1j * math.pi * np.arange(k) * math.cos(0.7))
        assert np.array_equal(s, expected)
    with pytest.raises(ValueError):
        steering_vector(0, 0.7)


@given(
    k=st.integers(1, 16),
    theta=st.floats(-math.pi, math.pi),
    center=st.tuples(*(st.floats(-100.0, 100.0),) * 2, st.floats(0.5, 3.0)),
)
@settings(max_examples=200, deadline=None)
def test_steering_vector_cophases_the_antennas_toward_its_azimuth(k, theta, center):
    # Far-field phasors exp(-j 2 pi |p - antenna_k| / lambda) from the
    # lambda/2 ULA to a point p a distance r off along the plan-view azimuth
    # theta, weighted by the steering vector at azimuth's bearing to p, add
    # to K.  The remainders of |p - antenna_k| - (r - x_k cos theta) leave
    # a phase error of at most eps = pi x_max^2 / (lambda r) per antenna,
    # x_max = (K - 1) lambda / 4, so the sum falls short of K by at most
    # K eps^2 / 2.  A spacing that the steering phase does not encode misses
    # K by O(K) at generic azimuths.
    center = np.array(center)
    r = 1.0e4
    p = center + r * np.array([math.cos(theta), math.sin(theta), 0.0])
    ants = antenna_positions(center, k, LAM / 2.0)
    phasors = np.exp(-2j * math.pi * np.linalg.norm(p - ants, axis=1) / LAM)
    coherent = abs(np.sum(steering_vector(k, azimuth(center, p)) * phasors))
    eps = math.pi * ((k - 1) * LAM / 4.0) ** 2 / (LAM * r)
    assert k * (1.0 - eps**2 / 2.0) - 1e-9 <= coherent <= k + 1e-9


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
    h = direct_channel(p_t, p_r, 4, loss, phase=0.0, q=Q)
    assert h.shape == (4, 4)
    assert np.linalg.matrix_rank(h) == 1
    rho = pattern_from_cosine(1.0, Q)  # horizontal ray
    # unit-amplitude steering vectors: each entry carries |alpha| rho rho,
    # the per-pair amplitude scale of the cascaded segments
    expected_mag = 10.0 ** (-loss / 20.0) * rho * rho
    assert np.abs(h) == pytest.approx(np.full((4, 4), expected_mag))
    # zero phase by default; a path phase rotates every entry by it
    assert direct_channel(p_t, p_r, 4, loss, q=Q) == pytest.approx(h)
    h2 = direct_channel(p_t, p_r, 4, loss, phase=1.3, q=Q)
    assert h2 == pytest.approx(h * np.exp(1.3j))
    assert not np.allclose(h2, h)


def test_direct_channel_rejects_coincident_endpoints():
    with pytest.raises(ValueError):
        direct_channel(vec3(0, 0, 1.5), vec3(0, 0, 1.5), 2, 90.0, 0.0)


def test_direct_channel_takes_its_bearing_from_azimuth():
    # endpoints one above the other have no plan-view bearing: the direct
    # channel fails exactly as azimuth does, also where they differ in height
    p_t, above = vec3(3.0, 7.0, 1.5), vec3(3.0, 7.0, 4.0)
    with pytest.raises(ValueError) as from_azimuth:
        azimuth(p_t, above)
    with pytest.raises(ValueError) as from_channel:
        direct_channel(p_t, above, 2, 90.0, 0.0)
    assert str(from_channel.value) == str(from_azimuth.value)
    # and steers at azimuth's bearing: the matched beam collects K^2 |h|
    p_r = vec3(-4.0, 40.0, 1.2)
    h = direct_channel(p_t, p_r, 4, 90.0, 0.7)
    s = steering_vector(4, azimuth(p_t, p_r))
    assert abs(np.vdot(s, h @ s)) == pytest.approx(16.0 * abs(h[0, 0]))


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
    pos = element_positions(geom)
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


def random_beams(rng, k):
    """Complex beam pair of non-unit, unequal entry moduli."""
    f = rng.uniform(0.2, 2.0, k) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    w = rng.uniform(0.2, 2.0, k) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    return f, w


def kernel_segments(geom, p_t, p_r, k, lam, f, w, q=Q, phases=(0.0, 0.0), amp_scale=1.0):
    """a = H_tc f and b = w^H H_cr, (M, N), from the cascade's kernel on the whole surface.

    ``cascaded_channels`` returns only the factored product a * b, so the
    per-segment properties are checked on its kernel, scaled as the cascade
    scales it: the per-segment amplitude of the far-field law, sqrt(amp_scale)
    and the endpoint pattern's peak sqrt(G).
    """
    g = 2.0 * (2.0 * q + 1.0)
    scale = (g * geom.d_m * geom.d_n * lam**2 / (64.0 * math.pi**3)) ** 0.25
    scale *= math.sqrt(amp_scale) * math.sqrt(g)
    tx, rx = (antenna_positions(p, k, lam / 2.0) for p in (p_t, p_r))
    f, w = np.asarray(f, dtype=complex), np.asarray(w, dtype=complex)
    a, b = (
        scale * _beamformed_segment(
            _leg(geom, antennas, weights, xi), slice(None), geom.column_offsets_local, lam, q
        )
        for antennas, weights, xi in ((tx, f, phases[0]), (rx, w.conj(), phases[1]))
    )
    return a, b


def assert_scores_match(left, right, want, envelope, profiles):
    """Each profile scores left @ right as the dense product want[0] * want[1].

    Rounding scales with the sum of the terms' moduli, which random beams
    can make far larger than the modulus of their sum: the bound is 1e-10
    of the product of the envelopes, summed over the surface.
    """
    bound = 1e-10 * float(np.sum(np.abs(envelope[0] * envelope[1])))
    dense = (want[0] * want[1]).ravel()
    for prof in profiles:
        got = prof.weighted_sum(left, right)
        assert abs(got - np.sum(reflection_matrix(prof.phases_raw) * dense)) <= bound


def test_cascade_power_matches_the_far_field_ris_law_at_broadside():
    # Tang et al. (IEEE TWC 2021) at broadside with both patterns at their
    # peak: P_r / P_t = G_t G_r G (MN)^2 d_m d_n lam^2 / (64 pi^3 r_t^2 r_r^2).
    # A small, nearly flat surface co-phased for broadside, single antennas
    # on its axis at two distances.
    m, n, d = 8, 6, LAM / 4
    pose = DoorPose(position=vec3(0.0, -(n - 1) * d / 2.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(m, n, 1.0e6, d, d), pose=pose)
    r_t, r_r = 10.0, 25.0
    left, right = cascaded_channels(
        geom, vec3(r_t, 0.0, 0.9), vec3(r_r, 0.0, 0.9), 1, LAM, [1.0], [1.0]
    )
    broadside = AnglePair(0.0, math.pi / 2.0)
    phi = reflection_matrix(optimal_phase(geom, broadside, broadside, LAM).phases_raw)
    power = abs(np.sum(phi * (left @ right).ravel())) ** 2
    g = 2.0 * (2.0 * Q + 1.0)  # G_t = G_r = G for q = 0.285
    closed = g**3 * (m * n) ** 2 * d * d * LAM**2 / (64.0 * math.pi**3 * r_t**2 * r_r**2)
    assert power == pytest.approx(closed, rel=1e-3)


def test_cascaded_channel_matches_scalar_reference():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = 2 * int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 3))
        pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
        radius = float(rng.uniform(0.5, 4.0))
        geom = replace(build_cirs_geometry(m, n, radius, LAM / 4, LAM / 4), pose=pose)
        p_t = vec3(rng.uniform(5, 30), rng.uniform(-30, -5), 1.5)
        p_r = vec3(rng.uniform(5, 30), rng.uniform(5, 30), 1.5)
        f, w = random_beams(rng, k)
        got = kernel_segments(geom, p_t, p_r, k, LAM, f, w)
        want = beamformed(geom, *brute_force_cascade(geom, p_t, p_r, k, LAM), f, w)
        for g, w_ in zip(got, want):
            assert np.max(np.abs(g - w_)) <= 1e-10 * np.max(np.abs(w_))
        # no larger than the skeleton, the factored product is the kernel's
        left, right = cascaded_channels(geom, p_t, p_r, k, LAM, f, w)
        assert np.array_equal(left @ right, got[0] * got[1])


def test_cascade_amp_scale_multiplies_the_product_once():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(4, 4, 2.0, LAM / 4, LAM / 4), pose=pose)
    p_t, p_r = vec3(10.0, -20.0, 1.5), vec3(10.0, 20.0, 1.5)
    f, w = random_beams(np.random.default_rng(6), 2)
    base = cascaded_channels(geom, p_t, p_r, 2, LAM, f, w)
    scaled = cascaded_channels(geom, p_t, p_r, 2, LAM, f, w, amp_scale=16.0)
    assert scaled[0] @ scaled[1] == pytest.approx(16.0 * (base[0] @ base[1]))
    # so every profile's score scales by amp_scale exactly
    prof = PhaseProfile(np.array([0.3, 1.0, -2.0, 0.5]), np.array([0.0, 2.5, -1.0, 0.7]))
    assert prof.weighted_sum(*scaled) == pytest.approx(16.0 * prof.weighted_sum(*base))


def test_cascade_shares_one_random_phase_per_segment():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(4, 2, 2.0, LAM / 4, LAM / 4), pose=pose)
    p_t, p_r = vec3(8.0, -15.0, 1.5), vec3(8.0, 15.0, 1.5)
    f, w = random_beams(np.random.default_rng(7), 2)
    plain_a, plain_b = kernel_segments(geom, p_t, p_r, 2, LAM, f, w)
    xi_t, xi_r = 0.7, 2.9
    phased_a, phased_b = kernel_segments(geom, p_t, p_r, 2, LAM, f, w, phases=(xi_t, xi_r))
    ratio_a = phased_a / plain_a
    ratio_b = phased_b / plain_b
    assert np.abs(ratio_a) == pytest.approx(np.ones_like(ratio_a, dtype=float))
    # one phase for the whole segment: xi_t on the TxV leg, xi_r on the RxV leg
    assert np.angle(ratio_a) == pytest.approx(np.full(ratio_a.shape, xi_t), abs=1e-12)
    assert np.angle(ratio_b) == pytest.approx(np.full(ratio_b.shape, xi_r), abs=1e-12)
    # and the door product turns by their sum
    plain = cascaded_channels(geom, p_t, p_r, 2, LAM, f, w)
    phased = cascaded_channels(geom, p_t, p_r, 2, LAM, f, w, phases=(xi_t, xi_r))
    ratio = (phased[0] @ phased[1]) / (plain[0] @ plain[1])
    assert np.abs(ratio) == pytest.approx(np.ones_like(ratio, dtype=float))
    turn = np.angle(ratio * np.exp(-1j * (xi_t + xi_r)))
    assert turn == pytest.approx(np.zeros(ratio.shape), abs=1e-12)


def test_cascade_rejects_near_field_endpoints():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(4, 2, 2.0, LAM / 4, LAM / 4), pose=pose)
    too_close = vec3(MIN_DISTANCE_WAVELENGTHS * LAM * 0.5, 0.0, 0.9)
    with pytest.raises(ValueError):
        cascaded_channels(geom, too_close, vec3(10.0, 10.0, 1.5), 2, LAM, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        cascaded_channels(geom, vec3(10.0, 10.0, 1.5), too_close, 2, LAM, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        cascaded_channels(geom, vec3(10.0, 10.0, 1.5), vec3(8.0, 15.0, 1.5), 2, LAM, [1], [1])


def draw_endpoint(draw, geom, distance, tangent_only=False):
    """An endpoint ``distance`` metres from the surface centre.

    It sits either in a random door-frame direction, behind the door
    included, or close to the tangent plane of a random row, so that part of
    the surface is lit and part is not.
    """
    centre = element_positions(geom).mean(axis=0)
    if not tangent_only and draw(st.booleans()):
        local = AnglePair(draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, math.pi)))
        local = local.direction()
    else:
        psi = geom.psi[draw(st.integers(0, geom.m_count - 1))]
        normal = np.array([math.cos(psi), 0.0, math.sin(psi)])
        tangent = np.array([-math.sin(psi), 0.0, math.cos(psi)])
        beta = draw(st.floats(-math.pi, math.pi))
        local = (
            draw(st.floats(-0.05, 0.05)) * normal
            + math.cos(beta) * tangent
            + math.sin(beta) * np.array([0.0, 1.0, 0.0])
        )
    local = local / np.linalg.norm(local)
    return centre + draw(distance) * (geom.pose.rotation() @ local)


def draw_beams(draw, k):
    """A beam pair whose entries have random phases and moduli, zero included."""
    return [
        np.array(
            [
                draw(st.sampled_from((0.0, draw(st.floats(1e-3, 3.0)))))
                * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
                for _ in range(k)
            ]
        )
        for _ in range(2)
    ]


def random_profile(geom, seed):
    """Unit-modulus profile with uniform random row and column phases."""
    rng = np.random.default_rng(seed)
    return PhaseProfile(
        rng.uniform(0.0, 2.0 * math.pi, geom.m_count),
        rng.uniform(0.0, 2.0 * math.pi, geom.n_count),
    )


def assume_clear_of_pattern_jumps(geom, legs):
    """Skip cases in which a ray grazes an element or runs vertically.

    There (u = 0 or sin phi = 0) the ray sits on a jump of the pattern
    rules, which rounding decides either way, and u^q and sin(phi)^q are
    ill-conditioned close to one.
    """
    pos = element_positions(geom)
    normals = np.repeat(geom.normals, geom.n_count, axis=0)
    for ants in legs:
        diff = ants[None, :, :] - pos[:, None, :]
        ray = diff / np.linalg.norm(diff, axis=2)[:, :, None]
        assume(np.all(np.abs(np.einsum("lki,li->lk", ray, normals)) > 1e-4))
        assume(np.all(1.0 - ray[:, :, 2] ** 2 > 1e-4))


@st.composite
def cascade_cases(draw):
    """A posed surface, two endpoints, K, q, beams and an amplitude scale.

    The surface is no larger than the skeleton rank, so the cascade is
    exact.  Endpoints come from ``draw_endpoint``; the distances stay clear
    of the near-field guard and reach the relay gating range, where the
    phase runs to about 14,000 turns of r / lambda.
    """
    m = 2 * draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    radius = draw(st.one_of(st.floats(0.02, 0.5), st.floats(0.02, 1.0e4)))
    pose = DoorPose(
        position=vec3(
            draw(st.floats(-20.0, 20.0)), draw(st.floats(-100.0, 100.0)), draw(st.floats(0.3, 1.5))
        ),
        side=draw(st.sampled_from(("left", "right"))),
    )
    geom = replace(build_cirs_geometry(m, n, radius, LAM / 4, LAM / 4), pose=pose)
    distance = st.floats(0.3, MAX_RANGE_M)
    p_t, p_r = draw_endpoint(draw, geom, distance), draw_endpoint(draw, geom, distance)
    k = draw(st.integers(1, 8))
    q = draw(st.sampled_from((0.0, 0.285, draw(st.floats(0.0, 3.0)))))
    f, w = draw_beams(draw, k)
    amp_scale = draw(st.floats(0.01, 1000.0))
    return geom, p_t, p_r, k, q, f, w, amp_scale


path_phase = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@given(cascade_cases(), st.tuples(path_phase, path_phase), st.integers(0, 2**32 - 1))
@example(
    # q / 2 underflows to 0, and every element is unlit for the one
    # weighted antenna: the entries must stay exact zeros
    case=(
        replace(
            build_cirs_geometry(2, 1, 0.5, LAM / 4, LAM / 4),
            pose=DoorPose(position=vec3(0.0, 0.0, 1.0), side="left"),
        ),
        vec3(0.35017907, -0.7651474, 1.53896395),
        vec3(-0.841467402, 0.0, 1.53896395),
        4,
        5e-324,
        np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
        np.zeros(4, dtype=complex),
        1.0,
    ),
    phases=(0.0, 0.0),
    seed=0,
)
@settings(max_examples=200, deadline=None)
def test_beamformed_cascade_matches_the_dense_oracle(case, phases, seed):
    geom, p_t, p_r, k, q, f, w, amp_scale = case
    pos = element_positions(geom)
    assume_clear_of_pattern_jumps(geom, [antenna_positions(p, k, LAM / 2.0) for p in (p_t, p_r)])
    h_tc, h_cr = dense_cascaded_channels(geom, p_t, p_r, k, LAM, q, phases, amp_scale)
    got = kernel_segments(geom, p_t, p_r, k, LAM, f, w, q, phases, amp_scale)
    want = beamformed(geom, h_tc, h_cr, f, w)
    # rounding scales with the sum of the K terms' moduli, which random
    # beams can make far larger than the modulus of their sum
    envelope = beamformed(geom, np.abs(h_tc), np.abs(h_cr), np.abs(f), np.abs(w))
    for g, w_, e in zip(got, want, envelope):
        assert g.shape == (geom.m_count, geom.n_count)
        # unlit elements are exact zeros in both
        assert np.array_equal(g == 0, w_ == 0)
        assert np.max(np.abs(g - w_), initial=0.0) <= 1e-10 * np.max(np.abs(e), initial=0.0)
    # no larger than the skeleton, the factored product is the kernel's
    left, right = cascaded_channels(geom, p_t, p_r, k, LAM, f, w, q, phases, amp_scale)
    assert np.array_equal(left @ right, got[0] * got[1])
    assert_scores_match(left, right, want, envelope, [random_profile(geom, seed)])

    # the near-field guard fires on the closest antenna-element pair of
    # either leg, at MIN_DISTANCE_WAVELENGTHS wavelengths
    def r_min(lam):
        return min(
            float(np.min(np.linalg.norm(pos[:, None, :] - ants[None, :, :], axis=2)))
            for ants in (antenna_positions(p, k, lam / 2.0) for p in (p_t, p_r))
        )

    # the antennas sit lambda/2 apart, so the edge is the fixed point of
    # lambda = r_min(lambda) / MIN_DISTANCE_WAVELENGTHS; r_min moves by at
    # most (K - 1) / 4 per unit of lambda, so the iteration contracts
    edge = LAM
    for _ in range(60):
        edge = r_min(edge) / MIN_DISTANCE_WAVELENGTHS
    cascaded_channels(geom, p_t, p_r, k, edge * (1.0 - 1e-9), f, w, q)
    with pytest.raises(ValueError, match="wavelength model guard"):
        cascaded_channels(geom, p_t, p_r, k, edge * (1.0 + 1e-9), f, w, q)


@given(cascade_cases(), path_phase)
@settings(max_examples=200, deadline=None)
def test_beamformed_segment_equals_the_per_antenna_oracle(case, xi):
    # the kernel takes every antenna's row terms in one pass before its
    # antenna loop; on both legs (K 1-8, zero and random weight moduli,
    # endpoints that light all, part or none of the rows) it returns the
    # same bits as the oracle that takes them per antenna
    geom, p_t, p_r, k, q, f, w, _ = case
    for endpoint, weights in ((p_t, f), (p_r, w.conj())):
        antennas = antenna_positions(endpoint, k, LAM / 2.0)
        leg = _leg(geom, antennas, weights, xi)
        got = _beamformed_segment(leg, slice(None), geom.column_offsets_local, LAM, q)
        want = per_antenna_segment(geom, antennas, weights, xi, LAM, q)
        assert np.array_equal(got, want)


@st.composite
def skeleton_cases(draw):
    """A surface larger than the skeleton rank, partly lit from near legs.

    Both endpoints sit close to the tangent plane of a random row, the TxV
    about 4 m out, where the door product's rank peaks, and the RxV near or
    far; both door sides and the two simulated radii are drawn.
    """
    m = 2 * draw(st.integers(13, 80))
    n = draw(st.integers(25, 160))
    radius = draw(st.sampled_from((2.0, 8.0)))
    pose = DoorPose(
        position=vec3(draw(st.floats(-20.0, 20.0)), draw(st.floats(-100.0, 100.0)), 0.9),
        side=draw(st.sampled_from(("left", "right"))),
    )
    geom = replace(build_cirs_geometry(m, n, radius, LAM / 4, LAM / 4), pose=pose)
    near = st.floats(3.5, 5.0)
    p_t = draw_endpoint(draw, geom, near, tangent_only=True)
    p_r = draw_endpoint(draw, geom, st.one_of(near, st.floats(5.0, MAX_RANGE_M)), True)
    k = draw(st.integers(1, 8))
    q = draw(st.sampled_from((0.0, 0.285, draw(st.floats(0.0, 3.0)))))
    f, w = draw_beams(draw, k)
    return geom, p_t, p_r, k, q, f, w


@given(skeleton_cases(), st.tuples(path_phase, path_phase), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_factored_cascade_scores_large_surfaces_as_the_dense_oracle(case, phases, seed):
    # the skeleton path runs, since its first pass is narrower than
    # min(M, N), and may refine up to the exact product; the tuned, fixed and a random
    # profile score its factors as they score the dense product
    geom, p_t, p_r, k, q, f, w = case
    assert SKELETON_START_COLUMNS + SKELETON_PROBES < min(geom.m_count, geom.n_count)
    assume_clear_of_pattern_jumps(geom, [antenna_positions(p, k, LAM / 2.0) for p in (p_t, p_r)])
    h_tc, h_cr = dense_cascaded_channels(geom, p_t, p_r, k, LAM, q, phases)
    want = beamformed(geom, h_tc, h_cr, f, w)
    envelope = beamformed(geom, np.abs(h_tc), np.abs(h_cr), np.abs(f), np.abs(w))
    left, right = cascaded_channels(geom, p_t, p_r, k, LAM, f, w, q, phases)
    centre = geom.pose.position
    tuned = optimal_phase(
        geom,
        pose_local_angles(geom.pose, p_t - centre),
        pose_local_angles(geom.pose, p_r - centre),
        LAM,
    )
    cfg = SimConfig()
    fixed = preconfigured_phase(geom, cfg.thetabar_rad, LAM, cfg.phibar_rad)
    assert_scores_match(left, right, want, envelope, [tuned, fixed, random_profile(geom, seed)])


def index_sets(size):
    """Distinct indices of range(size) in any order, as the skeleton's DEIM
    rows come, or sorted, as its columns come."""
    picked = st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)
    return st.one_of(picked, picked.map(sorted)).map(np.array)


@given(
    st.one_of(cascade_cases().map(lambda case: case[:7]), skeleton_cases()), path_phase, st.data()
)
@settings(max_examples=200, deadline=None)
def test_beamformed_segment_on_index_sets_is_the_whole_surface_sliced(case, xi, data):
    # the skeleton evaluates the kernel on row and column index sets, from
    # row terms taken once on the whole surface; every entry has the same
    # bits as the whole-surface kernel's, which keeps the factors, and so
    # every seeded output, independent of the sets the skeleton picks
    geom, p_t, p_r, k, q, f, w = case
    rows = data.draw(index_sets(geom.m_count))
    cols = data.draw(index_sets(geom.n_count))
    offsets = geom.column_offsets_local
    for endpoint, weights in ((p_t, f), (p_r, w.conj())):
        leg = _leg(geom, antenna_positions(endpoint, k, LAM / 2.0), weights, xi)
        whole = _beamformed_segment(leg, slice(None), offsets, LAM, q)
        for r, c in ((rows, slice(None)), (slice(None), cols), (rows, cols)):
            got = _beamformed_segment(leg, r, offsets[c], LAM, q)
            assert np.array_equal(got, whole[r][:, c])


def test_beamformed_cascade_is_finite_at_the_half_angle_pole():
    # One antenna 16 m = 1024 wavelengths out along the normal of the
    # reference element, with weight -1: the phase is exactly pi, so the
    # kernel's half-angle tangent is taken at fl(pi / 2), its pole (the
    # conjugated receive weight puts that leg at -fl(pi / 2)).
    lam = 2.0**-6
    pose = DoorPose(position=vec3(0.0, 0.0, 1.0), side="right")
    geom = replace(build_cirs_geometry(2, 1, 2.0, lam / 4, lam / 4), pose=pose)
    ref = geom.m_count // 2
    endpoint = vec3(16.0, 0.0, 1.0)
    assert np.linalg.norm(endpoint - element_positions(geom)[ref]) / lam == 1024.0
    assert abs(math.tan(0.5 * float(np.angle(-1.0)))) > 1e16
    f = w = np.array([-1.0 + 0.0j])
    got = kernel_segments(geom, endpoint, endpoint, 1, lam, f, w, Q)
    h_tc, h_cr = dense_cascaded_channels(geom, endpoint, endpoint, 1, lam, Q)
    want = beamformed(geom, h_tc, h_cr, f, w)
    envelope = beamformed(geom, np.abs(h_tc), np.abs(h_cr), np.abs(f), np.abs(w))
    for g, w_, e in zip(got, want, envelope):
        assert np.all(np.isfinite(g))
        assert abs(g[ref, 0]) > 0.0
        assert np.max(np.abs(g - w_)) <= 1e-10 * np.max(np.abs(e))
    left, right = cascaded_channels(geom, endpoint, endpoint, 1, lam, f, w, Q)
    assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))
    assert np.array_equal(left @ right, got[0] * got[1])


def test_near_field_guard_covers_elements_off_the_skeleton(monkeypatch):
    # A full-size door whose element closest to the TxV lies on no row and no
    # column that the cascade evaluates: the guard still fires at the edge
    # the dense distances give, so it cannot take r_min from the index sets.
    # The RxV is behind the door, so the product is zero and the skeleton
    # evaluates no row at all: its rows are picked from the product, and on
    # a lit door they include the brightest, closest one.
    cfg = SimConfig()
    d = cfg.element_spacing_m
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(cfg.m_elements, cfg.n_elements, 2.0, d, d), pose=pose)
    m0, n0 = geom.m_count // 2, 100  # the reference row, normal along +x
    pos = element_positions(geom)
    p_t = pos[m0 * geom.n_count + n0] + vec3(4.0, 0.0, 0.0)
    p_r = vec3(-30.0, 60.0, 1.5)
    k = 2
    beam = np.ones(k, dtype=complex)

    def nearest(lam):
        ants = antenna_positions(p_t, k, lam / 2.0)
        r = np.linalg.norm(pos[:, None, :] - ants[None, :, :], axis=2)
        return float(np.min(r)), int(np.argmin(r)) // k

    # fixed point of lambda = r_min(lambda) / MIN_DISTANCE_WAVELENGTHS (the
    # RxV is far); r_min moves by (K - 1) / 4 per unit of lambda
    edge = LAM
    for _ in range(20):
        edge = nearest(edge)[0] / MIN_DISTANCE_WAVELENGTHS
    assert nearest(edge)[1] == m0 * geom.n_count + n0

    calls = recording_skeleton(monkeypatch)
    left, right = cascaded_channels(geom, p_t, p_r, k, edge * (1.0 - 1e-9), beam, beam)
    assert left.shape[1] < geom.n_count
    assert calls
    for rows, cols in calls:
        row_seen = isinstance(rows, slice) or m0 in rows
        column_seen = isinstance(cols, slice) or n0 in cols
        assert not (row_seen and column_seen)
    with pytest.raises(ValueError, match="wavelength model guard"):
        cascaded_channels(geom, p_t, p_r, k, edge * (1.0 + 1e-9), beam, beam)


def test_unlit_large_surface_factors_to_a_zero_product():
    # both endpoints behind a door larger than the skeleton: every element
    # is unlit, so the product is zero, and its factors are finite and
    # multiply to exactly zero
    cfg = SimConfig()
    d = cfg.element_spacing_m
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(64, 48, 2.0, d, d), pose=pose)
    assert SKELETON_START_COLUMNS + SKELETON_PROBES < min(geom.m_count, geom.n_count)
    p_t, p_r = vec3(-5.0, -3.0, 1.5), vec3(-30.0, 60.0, 1.5)
    k = 4
    f, w = steering_vector(k, 0.3), steering_vector(k, -1.2)
    left, right = cascaded_channels(geom, p_t, p_r, k, LAM, f, w, Q, (0.4, 2.5))
    assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))
    assert np.array_equal(left @ right, np.zeros((geom.m_count, geom.n_count)))
    assert preconfigured_phase(geom, 0.0, LAM).weighted_sum(left, right) == 0.0


def recording_skeleton(monkeypatch):
    """The list that every later ``product(rows, cols)`` call of
    ``channel._skeleton`` appends its (rows, cols) to."""
    calls = []
    skeleton = channel._skeleton

    def recording(m, n, product):
        def recorded(rows, cols):
            calls.append((rows, cols))
            return product(rows, cols)

        return skeleton(m, n, recorded)

    monkeypatch.setattr(channel, "_skeleton", recording)
    return calls


def recording_product(dense):
    """A cascade product that reads ``dense`` (M, N) on index sets, and the
    record of its calls: ("column", column indices) for every row,
    ("row", row indices) for every column."""
    calls = []

    def product(rows, cols):
        if isinstance(rows, slice):
            calls.append(("column", cols))
        else:
            assert isinstance(cols, slice)
            calls.append(("row", rows))
        return dense[rows, cols]

    return calls, product


def test_skeleton_nests_its_columns_and_evaluates_each_once():
    # A full-rank product fails every pass.  Each failed pass adds every
    # midpoint of its columns' gaps, so its probes become columns, and its
    # probes' residual after projection onto the columns' span fails it
    # before any row pass.  Once the columns and probes would reach
    # min(M, N) = 40 the product is exact, assembled from the columns
    # evaluated so far and the rest: no column is evaluated twice.
    m, n = 48, 40
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    calls, product = recording_product(dense)
    left, right = channel._skeleton(m, n, product)
    assert np.array_equal(left, dense) and np.array_equal(right, np.eye(n))
    assert [kind for kind, _ in calls] == ["column"] * 3
    evaluated = np.concatenate([cols for _, cols in calls])
    assert np.array_equal(np.sort(evaluated), np.arange(n))

    cols = np.rint(np.linspace(0, n - 1, SKELETON_START_COLUMNS)).astype(int)
    seen = set()
    for _, new in calls[:2]:
        mids = {(a + b) // 2 for a, b in zip(cols, cols[1:]) if b - a > 1}
        seen |= set(new.tolist())
        # this pass's columns, all earlier columns and probes among them,
        # and SKELETON_PROBES probes from the midpoints of their gaps
        assert set(cols.tolist()) <= seen
        assert len(seen) == cols.size + SKELETON_PROBES
        assert seen - set(cols.tolist()) <= mids
        cols = np.union1d(cols, sorted(mids))
    # the third pass's columns would be the whole surface
    assert cols.size == n


@pytest.mark.parametrize("m, n", [(40, 16), (16, 40), (40, 17), (18, 40)])
def test_skeleton_takes_the_exact_product_up_to_min_m_n_of_sixteen(m, n):
    # min(M, N) <= 12 + 4: the first pass would cover every column (or
    # every row), so the product is exact from one call on the whole
    # surface; from 17 (M is even, so 18 rows) the skeleton's first pass
    # keeps the numerical rank 2 of the product, from 12 columns and 4
    # probes and 2 DEIM rows
    rng = np.random.default_rng(m * n)
    a, b = (rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size)) for size in (m, n))
    dense = a.T @ b
    calls, product = recording_product(dense)
    left, right = channel._skeleton(m, n, product)
    if min(m, n) <= SKELETON_START_COLUMNS + SKELETON_PROBES:
        assert [kind for kind, _ in calls] == ["column"]
        assert np.array_equal(calls[0][1], np.arange(n))
        exact = (dense, np.eye(n)) if n <= m else (np.eye(m), dense)
        assert np.array_equal(left, exact[0]) and np.array_equal(right, exact[1])
    else:
        assert [kind for kind, _ in calls] == ["column", "row"]
        assert calls[0][1].size == SKELETON_START_COLUMNS + SKELETON_PROBES
        assert left.shape == (m, 2) and right.shape == (2, n)
        residual = np.linalg.norm(left @ right - dense)
        assert residual <= SKELETON_TOL * np.linalg.norm(dense)


@given(
    st.integers(2, 60),
    st.data(),
    st.sampled_from((0.0, 1e-13, 1e-6, 1.0)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_projection_residual_never_exceeds_the_deim_residual(m, data, off_span, seed):
    # The DEIM interpolant of a probe block P lies in span(U), so no probe
    # column's residual after interpolation is below its residual after
    # orthogonal projection onto span(U), beyond rounding: the skeleton's
    # span check can fail a pass without the row pass.  Probe columns lie
    # in span(U) up to an off-span part of relative size off_span.
    r = data.draw(st.integers(1, m))
    p = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    basis, _ = np.linalg.qr(gaussian(m, r))
    rows = channel._deim(basis)
    probes = basis @ gaussian(r, p) + off_span * gaussian(m, p)
    projection = np.linalg.norm(probes - basis @ (basis.conj().T @ probes), axis=0)
    deim = np.linalg.norm(probes - basis @ np.linalg.solve(basis[rows], probes[rows]), axis=0)
    rounding = 1e-13 * np.linalg.cond(basis[rows]) * np.linalg.norm(probes, axis=0)
    assert np.all(projection <= deim + rounding)


def test_reflection_matrix_is_the_flat_coefficient_vector():
    # not row + column separable: 0 + 1 != pi/2 + pi
    raw = np.array([[0.0, math.pi / 2.0], [math.pi, 1.0]])
    diag = reflection_matrix(raw)
    assert diag.shape == (4,)
    assert diag == pytest.approx([1.0, 1j, -1.0, np.exp(1j)])
    assert np.abs(diag) == pytest.approx(np.ones(4))
    prof = PhaseProfile(np.array([0.0, math.pi]), np.array([0.0, math.pi / 2.0]))
    assert reflection_matrix(prof.phases_raw) == pytest.approx([1.0, 1j, -1.0, -1j])


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
    g = channel_gain_elevation(geom, zero, math.pi / 2, LAM, Q)
    assert g == pytest.approx(-10.0 * math.log10(32.0), abs=1e-6)


def test_configured_cylinder_recovers_the_flat_gain():
    geom = build_cirs_geometry(60, 8, 2.0, LAM / 4, LAM / 4)
    prof = preconfigured_phase(geom, 0.0, LAM)
    zero = PhaseProfile(np.zeros(60), np.zeros(8))
    g_conf = channel_gain_elevation(geom, prof, math.pi / 2, LAM, Q)
    g_bare = channel_gain_elevation(geom, zero, math.pi / 2, LAM, Q)
    assert g_conf > g_bare
    assert g_conf == pytest.approx(-10.0 * math.log10(480.0), abs=0.05)


def test_azimuth_gain_defaults_to_specular_reflection():
    geom = build_cirs_geometry(16, 4, 2.0, LAM / 4, LAM / 4)
    incidence = AnglePair(0.4, math.pi / 2)
    specular = AnglePair(-0.4, math.pi / 2)
    prof = optimal_phase(geom, incidence, specular, LAM)
    a = channel_gain_azimuth(geom, prof, 0.4, LAM, Q)
    b = normalized_gain(geom, prof, incidence.direction(), specular.direction(), LAM, Q)
    assert a.shape == b.shape == (1,)
    assert a == pytest.approx(b)


@given(st.integers(2, 12), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_normalized_gain_never_exceeds_coherent_bound(m_half, n):
    geom = build_cirs_geometry(2 * m_half, n, 2.0, LAM / 4, LAM / 4)
    prof = PhaseProfile(np.zeros(2 * m_half), np.zeros(n))
    g = channel_gain_elevation(geom, prof, 1.2, LAM, Q)
    assert g <= -10.0 * math.log10(2 * m_half * n) + 1e-9


def test_gain_of_rays_grazing_every_element_stays_finite():
    # only the m = 0 row is lit, at u = sin(phi); its pattern factor is
    # ~1e-92 at phi = 5e-324, whose squared norms underflow unless rescaled,
    # each angle by its own peak
    geom = build_cirs_geometry(2, 1, 1.0, LAM / 4, LAM / 4)
    zero = PhaseProfile(np.zeros(2), np.zeros(1))
    graze = np.array([AnglePair(0.0, phi).direction() for phi in (1e-100, 1e-300, 5e-324)])
    g = normalized_gain(geom, zero, graze, graze, LAM, Q)
    assert g == pytest.approx([-10.0 * math.log10(2.0)] * 3)


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


def assert_gain_matches_the_dense_oracle(got, geom, phi, incidence, reflection):
    """``got`` equals the dense gain of one pair of (3,) directions."""
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


@given(separable_gain_cases())
@settings(max_examples=300, deadline=None)
def test_separable_gain_matches_the_dense_oracle(case):
    geom, prof, incidence, reflection = case
    d_i, d_o = incidence.direction(), reflection.direction()
    got = normalized_gain(geom, prof, d_i, d_o, LAM, Q)
    assert got.shape == (1,)
    assert_gain_matches_the_dense_oracle(
        got[0], geom, reflection_matrix(prof.phases_raw), d_i, d_o
    )


@st.composite
def gain_array_cases(draw):
    """A surface and profile as above, A angle pairs as (A, 3) directions, and
    which rows light no element."""
    geom, prof, incidence, reflection = draw(separable_gain_cases())
    rows = [(incidence.direction(), reflection.direction(), False)]
    for a, b in draw(st.lists(st.tuples(angle_pairs, angle_pairs), max_size=7)):
        rows.append((a.direction(), b.direction(), False))
    # a ray along the column axis meets every element normal at u = 0
    # exactly, so it lights no element on its side
    for _ in range(draw(st.integers(0, 2))):
        graze = np.array([0.0, draw(st.sampled_from((1.0, -1.0))), 0.0])
        other = draw(angle_pairs).direction()
        pair = (graze, other) if draw(st.booleans()) else (other, graze)
        rows.insert(draw(st.integers(0, len(rows))), (*pair, True))
    d_i, d_o, unlit = zip(*rows)
    return geom, prof, np.array(d_i), np.array(d_o), np.array(unlit)


@given(gain_array_cases())
@settings(max_examples=100, deadline=None)
def test_gain_over_an_angle_array_matches_the_oracle_and_one_angle_calls(case):
    geom, prof, d_i, d_o, unlit = case
    phi = reflection_matrix(prof.phases_raw)
    got = normalized_gain(geom, prof, d_i, d_o, LAM, Q)
    assert got.shape == (len(d_i),)
    assert np.all(got[unlit] == -math.inf)
    for gain, incidence, reflection in zip(got, d_i, d_o):
        assert_gain_matches_the_dense_oracle(gain, geom, phi, incidence, reflection)
    # each row does the arithmetic of its own one-angle call: over 17,817
    # random rows (3000 surfaces, A = 1..11) the largest difference was 0
    one_by_one = [normalized_gain(geom, prof, a, b, LAM, Q)[0] for a, b in zip(d_i, d_o)]
    assert got.tolist() == one_by_one

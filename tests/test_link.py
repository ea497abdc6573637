"""Steering toward positions, beam selection, and the SNR budget."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conformal_v2v.channel import (
    cascaded_channels,
    direct_channel,
    mean_pathloss_db,
    pattern_from_cosine,
    sample_direct_pathloss,
    steering_vector,
)
from conformal_v2v.geometry import DoorPose, azimuth, build_cirs_geometry, vec3
from conformal_v2v.link import beam_amplitude, best_snr
from oracles import LinkResult, select_beams

K = 8


def test_steering_vector_has_unit_amplitude_entries():
    for theta in (0.0, 0.7, math.pi / 2.0, 2.9):
        s = steering_vector(K, theta)
        assert np.abs(s) == pytest.approx(np.ones(K))
        assert np.linalg.norm(s) ** 2 == pytest.approx(K)
        assert s[0] == pytest.approx(1.0)


def test_azimuth_is_the_plan_view_bearing_of_the_ray():
    p_t, p_r = vec3(0.0, 0.0, 1.5), vec3(0.0, 50.0, 1.5)
    door = vec3(4.1, 30.0, 0.9)
    # a +y link has azimuth pi/2 from either end's heights
    assert azimuth(p_t, p_r) == pytest.approx(math.pi / 2.0)
    assert azimuth(p_t, door) == pytest.approx(math.atan2(30.0, 4.1))
    assert azimuth(door, p_r) == pytest.approx(math.atan2(20.0, -4.1))
    with pytest.raises(ValueError):
        azimuth(p_t, vec3(0.0, 0.0, 0.9))  # straight below: no plan-view ray


def test_rescale_direct_multiplies_by_the_antenna_count():
    # direct_channel is alpha rho rho s s^H with unit-amplitude s: K times
    # the unit-norm outer product a a^H, a = s / sqrt(K)
    p_t, p_r = vec3(0.0, 0.0, 1.5), vec3(0.0, 50.0, 1.5)
    loss = 95.0
    scale = 10.0 ** (-loss / 20.0) * pattern_from_cosine(1.0, 0.285) ** 2
    for k in (1, 2, K):
        s = steering_vector(k, math.pi / 2.0)
        h = direct_channel(p_t, p_r, k, loss, 0.0)
        assert h == pytest.approx(scale * np.outer(s, s.conj()))
        a = s / math.sqrt(k)
        assert h == pytest.approx(float(k) * scale * np.outer(a, a.conj()))
    with pytest.raises(ValueError):
        direct_channel(p_t, p_r, 0, loss, 0.0)


def test_beam_power_matches_the_quadratic_form():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    f = steering_vector(K, 0.3)
    w = steering_vector(K, 1.1)
    manual = abs(np.conj(w) @ h @ f) ** 2
    assert abs(beam_amplitude(h, f, w)) ** 2 == pytest.approx(manual)


def test_selection_recovers_the_beams_a_rank_one_channel_was_built_from():
    thetas = [0.4, 1.0, 1.9, 2.6]
    beams = [(steering_vector(K, t), steering_vector(K, t)) for t in thetas]
    target = 2
    s = steering_vector(K, thetas[target])
    h = np.outer(s, s.conj())  # w_t f_t^H: matched beams give w^H H f = K * K
    result = select_beams(beams, h)
    assert result.selected_index == target
    assert result.received_power == pytest.approx(float(np.max(result.powers)))
    assert result.powers[target] == pytest.approx(float(K) ** 4)


def test_ties_resolve_to_the_earliest_entry():
    f = steering_vector(K, 0.2)
    result = select_beams([(f, f), (f, f)], np.eye(K, dtype=complex))
    assert result.selected_index == 0


def test_best_snr_agrees_with_selection_over_one_channel_matrix():
    # the strongest of the per-pair amplitudes is the selection oracle's
    # pick, and best_snr names it
    rng = np.random.default_rng(5)
    thetas = [0.3, 0.9, 1.6, 2.4, 2.9]
    beams = [(steering_vector(K, t), steering_vector(K, t + 0.2)) for t in thetas]
    for _ in range(20):
        h = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
        picked = select_beams(beams, h).selected_index
        f, w = beams[picked]
        amplitudes = [beam_amplitude(h, f_, w_) for f_, w_ in beams]
        snr, winner = best_snr(amplitudes, 10.0, -88.0, K)
        assert winner == picked
        assert snr == pytest.approx(
            best_snr([beam_amplitude(h, f, w)], 10.0, -88.0, K)[0], abs=1e-12
        )
    assert best_snr([0.0, 0j], 10.0, -88.0, K) == (-math.inf, 0)
    assert best_snr([1.0, 2.0, -2.0], 10.0, -88.0, K)[1] == 1
    with pytest.raises(ValueError):
        best_snr([1.0], 10.0, -88.0, 0)


def test_link_result_rejects_a_non_maximal_selection():
    with pytest.raises(ValueError):
        LinkResult(selected_index=0, powers=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        LinkResult(selected_index=5, powers=np.array([1.0, 2.0]))


def test_snr_budget_identity_on_an_unblocked_direct_link():
    # tx - noise - PL + 30 log10 K + 40 log10 rho, checked end to end
    p_t, p_r = vec3(0.0, 0.0, 1.5), vec3(0.0, 50.0, 1.5)
    loss_db = sample_direct_pathloss(50.0, 28.0, 0, np.random.default_rng(0),
                                     sigma_shadow_db=0.0)
    assert loss_db == pytest.approx(mean_pathloss_db(50.0, 28.0))
    h = direct_channel(p_t, p_r, K, loss_db, 2.1)
    beam = steering_vector(K, azimuth(p_t, p_r))
    snr, _ = best_snr([beam_amplitude(h, beam, beam)], 10.0, -88.0, K)
    rho = pattern_from_cosine(1.0, 0.285)
    expected = (
        10.0
        - (-88.0)
        - loss_db
        + 30.0 * math.log10(K)
        + 40.0 * math.log10(rho)
    )
    assert snr == pytest.approx(expected, abs=1e-9)
    assert snr == pytest.approx(39.71, abs=0.01)


def test_snr_handles_a_null_channel_and_bad_antenna_counts():
    f = steering_vector(K, 0.1)
    null = beam_amplitude(np.zeros((K, K)), f, f)
    assert best_snr([null], 10.0, -88.0, K) == (-math.inf, 0)
    with pytest.raises(ValueError):
        best_snr([beam_amplitude(np.eye(K), f, f)], 10.0, -88.0, 0)


def test_mismatched_beam_vectors_are_rejected():
    # the cascade is where beams meet the channel: f and w need K entries each
    lam = 299_792_458.0 / 28e9
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right")
    geom = replace(build_cirs_geometry(4, 2, 2.0, lam / 4, lam / 4), pose=pose)
    p_t, p_r = vec3(10.0, 10.0, 1.5), vec3(8.0, 15.0, 1.5)
    f = steering_vector(K, 0.1)
    cascaded_channels(geom, p_t, p_r, K, lam, f, f)
    with pytest.raises(ValueError):
        cascaded_channels(geom, p_t, p_r, K, lam, f, steering_vector(K + 1, 0.1))
    with pytest.raises(ValueError):
        cascaded_channels(geom, p_t, p_r, K, lam, steering_vector(K + 1, 0.1), f)
    with pytest.raises(ValueError):
        cascaded_channels(geom, p_t, p_r, K, lam, f[:-1], f[:-1])

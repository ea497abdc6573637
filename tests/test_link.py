"""Beam codebooks, beam selection, and the SNR budget."""

import math

import numpy as np
import pytest

from conformal_v2v.channel import (
    direct_channel,
    mean_pathloss_db,
    pattern_from_cosine,
    sample_direct_pathloss,
)
from conformal_v2v.geometry import vec3
from conformal_v2v.link import (
    Codebook,
    CodebookEntry,
    beam_amplitude,
    best_snr,
    build_codebooks,
    rescale_direct,
    steering_vector,
)
from oracles import LinkResult, select_beams

K = 8


def test_steering_vector_has_unit_amplitude_entries():
    for theta in (0.0, 0.7, math.pi / 2.0, 2.9):
        s = steering_vector(K, theta)
        assert np.abs(s) == pytest.approx(np.ones(K))
        assert np.linalg.norm(s) ** 2 == pytest.approx(K)
        assert s[0] == pytest.approx(1.0)


def test_rescale_direct_multiplies_by_the_antenna_count():
    h = np.array([[1.0 + 1.0j, 2.0], [0.0, -1.0j]])
    assert rescale_direct(h, 4) == pytest.approx(4.0 * h)
    with pytest.raises(ValueError):
        rescale_direct(h, 0)


def test_codebook_puts_direct_first_and_reserves_its_label():
    p_t, p_r = vec3(0.0, 0.0, 1.5), vec3(0.0, 50.0, 1.5)
    relays = [("relay:2:left", vec3(4.1, 30.0, 0.9))]
    cb = build_codebooks(p_t, p_r, relays, K)
    assert [e.label for e in cb.entries] == ["direct", "relay:2:left"]
    assert cb.direct is cb.entries[0]
    # direct beams steer along the +y link: azimuth pi/2 on both ends
    expected = steering_vector(K, math.pi / 2.0)
    assert cb.direct.f == pytest.approx(expected)
    assert cb.direct.w == pytest.approx(expected)
    with pytest.raises(ValueError):
        build_codebooks(p_t, p_r, [("direct", vec3(1.0, 1.0, 1.0))], K)
    with pytest.raises(ValueError):
        Codebook(entries=(cb.entries[1],))


def test_beam_power_matches_the_quadratic_form():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    f = steering_vector(K, 0.3)
    w = steering_vector(K, 1.1)
    manual = abs(np.conj(w) @ h @ f) ** 2
    assert abs(beam_amplitude(h, f, w)) ** 2 == pytest.approx(manual)


def test_selection_recovers_the_beams_a_rank_one_channel_was_built_from():
    thetas = [0.4, 1.0, 1.9, 2.6]
    entries = tuple(
        CodebookEntry(
            label="direct" if i == 0 else f"relay:{i}:left",
            f=steering_vector(K, t),
            w=steering_vector(K, t),
        )
        for i, t in enumerate(thetas)
    )
    cb = Codebook(entries=entries)
    target = 2
    s = steering_vector(K, thetas[target])
    h = np.outer(s, s.conj())  # w_t f_t^H: matched beams give w^H H f = K * K
    result = select_beams(cb, h)
    assert result.selected_index == target
    assert result.selected.label == "relay:2:left"
    assert result.received_power == pytest.approx(float(np.max(result.powers)))
    assert result.powers[target] == pytest.approx(float(K) ** 4)


def test_ties_resolve_to_the_earliest_entry():
    e = CodebookEntry(label="direct", f=steering_vector(K, 0.2), w=steering_vector(K, 0.2))
    dup = CodebookEntry(label="relay:1:left", f=e.f, w=e.w)
    cb = Codebook(entries=(e, dup))
    result = select_beams(cb, np.eye(K, dtype=complex))
    assert result.selected_index == 0
    assert result.selected.label == "direct"


def test_best_snr_agrees_with_selection_over_one_channel_matrix():
    # the strongest of the per-entry amplitudes is the selection oracle's pick
    rng = np.random.default_rng(5)
    thetas = [0.3, 0.9, 1.6, 2.4, 2.9]
    entries = tuple(
        CodebookEntry(
            label="direct" if i == 0 else f"relay:{i}:right",
            f=steering_vector(K, t),
            w=steering_vector(K, t + 0.2),
        )
        for i, t in enumerate(thetas)
    )
    cb = Codebook(entries=entries)
    for _ in range(20):
        h = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
        picked = select_beams(cb, h).selected
        amplitudes = [beam_amplitude(h, e.f, e.w) for e in entries]
        assert best_snr(amplitudes, 10.0, -88.0, K) == pytest.approx(
            best_snr([beam_amplitude(h, picked.f, picked.w)], 10.0, -88.0, K), abs=1e-12
        )
    assert best_snr([0.0, 0j], 10.0, -88.0, K) == -math.inf
    with pytest.raises(ValueError):
        best_snr([1.0], 10.0, -88.0, 0)


def test_link_result_rejects_a_non_maximal_selection():
    e = CodebookEntry(label="direct", f=steering_vector(K, 0.2), w=steering_vector(K, 0.2))
    with pytest.raises(ValueError):
        LinkResult(selected=e, selected_index=0, powers=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        LinkResult(selected=e, selected_index=5, powers=np.array([1.0, 2.0]))


def test_snr_budget_identity_on_an_unblocked_direct_link():
    # tx - noise - PL + 30 log10 K + 40 log10 rho, checked end to end
    p_t, p_r = vec3(0.0, 0.0, 1.5), vec3(0.0, 50.0, 1.5)
    sample = sample_direct_pathloss(50.0, 28.0, 0, np.random.default_rng(0),
                                    sigma_shadow_db=0.0)
    assert sample.loss_db == pytest.approx(mean_pathloss_db(50.0, 28.0))
    h = rescale_direct(direct_channel(p_t, p_r, K, sample.loss_db, None), K)
    cb = build_codebooks(p_t, p_r, [], K)
    snr = best_snr([beam_amplitude(h, cb.direct.f, cb.direct.w)], 10.0, -88.0, K)
    rho = pattern_from_cosine(1.0, 0.285)
    expected = (
        10.0
        - (-88.0)
        - sample.loss_db
        + 30.0 * math.log10(K)
        + 40.0 * math.log10(rho)
    )
    assert snr == pytest.approx(expected, abs=1e-9)
    assert snr == pytest.approx(39.71, abs=0.01)


def test_snr_handles_a_null_channel_and_bad_antenna_counts():
    f = steering_vector(K, 0.1)
    null = beam_amplitude(np.zeros((K, K)), f, f)
    assert best_snr([null], 10.0, -88.0, K) == -math.inf
    with pytest.raises(ValueError):
        best_snr([beam_amplitude(np.eye(K), f, f)], 10.0, -88.0, 0)


def test_mismatched_beam_vectors_are_rejected():
    with pytest.raises(ValueError):
        CodebookEntry(
            label="direct",
            f=steering_vector(K, 0.1),
            w=steering_vector(K + 1, 0.1),
        )

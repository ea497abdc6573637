"""Phase-profile synthesis and the generalized reflection law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_v2v.geometry import AnglePair, build_cirs_geometry
from conformal_v2v.phase import (
    PHASE_SIGN,
    PhaseProfile,
    Wavevector,
    incident_wavevector,
    is_evanescent,
    optimal_phase,
    preconfigured_phase,
    reflected_elevation,
    reflected_wavevector,
    snell_residual,
    wrap_phase,
)
from oracles import azimuth_phase, elevation_phase, planar_phase

LAM = 299_792_458.0 / 28e9


def small_geometry(radius=2.0, m=40, n=6, d=None):
    d = LAM / 4.0 if d is None else d
    return build_cirs_geometry(m, n, radius, d, d)


def test_global_sign_convention_is_positive():
    assert PHASE_SIGN == 1.0


def test_perpendicular_profile_matches_hand_computed_value():
    # rows at psi = +/-0.2 rad on R=2 m: magnitude (8 pi / lambda)(1 - cos 0.2)
    geom = build_cirs_geometry(4, 3, 2.0, 4.0 * math.sin(0.1), 0.01)
    raw = preconfigured_phase(geom, 0.0, LAM).phases_raw
    assert raw[3] == pytest.approx(
        np.full(3, 46.790647234122495), rel=1e-12
    )  # m = +1 row
    assert raw[0] == pytest.approx(np.full(3, 185.297193487691), rel=1e-12)  # m = -2
    assert raw[2] == pytest.approx(np.zeros(3), abs=1e-30)  # m = 0 at the origin


def test_perpendicular_equals_identity_elevation_pair():
    geom = small_geometry()
    a = AnglePair(0.0, math.pi / 2.0)
    direct = optimal_phase(geom, a, a, LAM).phases_raw
    closed = preconfigured_phase(geom, 0.0, LAM).phases_raw
    assert np.max(np.abs(direct - closed)) < 1e-9


def test_elevation_product_form_equals_general_rule():
    geom = small_geometry()
    worst = 0.0
    for phi_i in np.linspace(0.2, math.pi - 0.2, 9):
        for phi_o in np.linspace(0.2, math.pi - 0.2, 9):
            a = optimal_phase(
                geom, AnglePair(0.0, phi_i), AnglePair(0.0, phi_o), LAM
            ).phases_raw
            b = elevation_phase(geom, phi_i, phi_o, LAM)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-9


def test_azimuth_form_equals_general_rule():
    geom = small_geometry()
    worst = 0.0
    for theta_i in np.linspace(-1.4, 1.4, 9):
        for theta_o in np.linspace(-1.4, 1.4, 9):
            a = optimal_phase(
                geom,
                AnglePair(theta_i, math.pi / 2.0),
                AnglePair(theta_o, math.pi / 2.0),
                LAM,
            ).phases_raw
            b = azimuth_phase(geom, theta_i, theta_o, LAM)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-9


def test_preconfigured_is_specular_azimuth_profile_at_design_angle():
    geom = small_geometry()
    for thetabar in (0.0, math.pi / 4.0, math.radians(75.0)):
        a = azimuth_phase(geom, thetabar, -thetabar, LAM)
        b = preconfigured_phase(geom, thetabar, LAM).phases_raw
        assert np.max(np.abs(a - b)) < 1e-9
    with pytest.raises(ValueError):
        preconfigured_phase(geom, math.pi / 2.0 + 0.01, LAM)


def test_preconfigured_is_the_general_specular_pair_at_the_design_elevation():
    geom = small_geometry()
    for thetabar in (0.0, math.radians(75.0)):
        for phibar in (math.radians(80.0), math.radians(89.31), math.radians(100.0)):
            a = optimal_phase(
                geom, AnglePair(thetabar, phibar), AnglePair(-thetabar, phibar), LAM
            ).phases_raw
            b = preconfigured_phase(geom, thetabar, LAM, phibar).phases_raw
            assert np.max(np.abs(a - b)) < 1e-9
    for bad in (0.0, math.pi):
        with pytest.raises(ValueError):
            preconfigured_phase(geom, 0.5, LAM, bad)


def test_large_radius_limit_approaches_planar_profile():
    d = LAM / 4.0
    geom = build_cirs_geometry(64, 16, 1.0e6, d, d)
    inc, out = AnglePair(0.3, 1.2), AnglePair(-0.5, 1.9)
    a = optimal_phase(geom, inc, out, LAM).phases_raw
    b = planar_phase(64, 16, d, d, inc, out, LAM)
    # residual curvature sag over this aperture is ~4e-6 rad at R = 1e6 m
    assert np.max(np.abs(a - b)) < 1e-4


def test_optimal_profile_is_zero_at_the_reference_element():
    geom = small_geometry()
    raw = optimal_phase(geom, AnglePair(0.4, 1.0), AnglePair(-0.2, 2.0), LAM).phases_raw
    i0 = geom.flat_index(0, 0)
    assert raw.ravel()[i0] == pytest.approx(0.0, abs=1e-30)


@given(st.floats(-50.0, 50.0))
def test_wrap_phase_lands_in_principal_interval(x):
    w = wrap_phase(x)
    assert 0.0 <= w < 2.0 * math.pi
    assert np.exp(1j * w) == pytest.approx(np.exp(1j * x), abs=1e-9)


@given(st.floats(-20.0, 20.0))
def test_profile_coefficients_are_wrap_invariant(x):
    row, col = np.array([x]), np.array([0.0, -x])
    a = PhaseProfile(row, col).coefficients()
    b = PhaseProfile(row + 2.0 * math.pi, col).coefficients()
    assert a == pytest.approx(b, abs=1e-12)


def test_profile_validation():
    with pytest.raises(ValueError):
        PhaseProfile(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        PhaseProfile(np.zeros(2), np.zeros(0))
    with pytest.raises(ValueError):
        PhaseProfile(np.array([0.0, np.nan]), np.zeros(2))
    prof = PhaseProfile(np.array([1.0]), np.array([-1.0, 6.0]))
    assert prof.shape == (1, 2)
    assert prof.phases_raw == pytest.approx(np.array([[0.0, 7.0]]))
    assert prof.amplitudes == pytest.approx(np.ones((1, 2)))
    assert prof.phases[0, 1] == pytest.approx(7.0 - 2.0 * math.pi)


def test_wavevectors_scale_and_orient_correctly():
    a = AnglePair(0.3, 1.1)
    k = incident_wavevector(a, LAM)
    kbar = reflected_wavevector(a, LAM)
    two_pi_over_lam = 2.0 * math.pi / LAM
    assert k.magnitude == pytest.approx(two_pi_over_lam)
    assert k.as_array() == pytest.approx(-two_pi_over_lam * a.direction())
    assert kbar.as_array() == pytest.approx(two_pi_over_lam * a.direction())


def test_snell_residual_vanishes_for_the_matching_phase_gradient():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f_x, f_z = rng.normal(0.0, 1.0, 2)
        k = incident_wavevector(
            AnglePair(rng.uniform(-1.2, 1.2), rng.uniform(0.3, math.pi - 0.3)), LAM
        )
        kbar = reflected_wavevector(
            AnglePair(rng.uniform(-1.2, 1.2), rng.uniform(0.3, math.pi - 0.3)), LAM
        )
        grad = kbar.as_array() - k.as_array()
        assert snell_residual(f_x, f_z, grad, k, kbar) < 1e-9


def test_snell_residual_measures_tangential_perturbations():
    k = incident_wavevector(AnglePair(0.2, 1.3), LAM)
    kbar = reflected_wavevector(AnglePair(-0.4, 1.8), LAM)
    grad = kbar.as_array() - k.as_array()
    f_x, f_z = 0.3, 0.5
    u = np.array([-f_x, 1.0, -f_z]) / math.sqrt(1.0 + f_x**2 + f_z**2)
    tangent = np.array([1.0, 0.4, -0.2])
    tangent -= (tangent @ u) * u
    tangent *= 0.1 / np.linalg.norm(tangent)
    assert snell_residual(f_x, f_z, grad + tangent, k, kbar) == pytest.approx(0.1)
    # normal perturbations are invisible to the law
    assert snell_residual(f_x, f_z, grad + 0.7 * u, k, kbar) < 1e-12


def test_snell_residual_validates_inputs():
    k = incident_wavevector(AnglePair(0.0, 1.0), LAM)
    with pytest.raises(ValueError):
        snell_residual(0.0, 0.0, np.zeros(2), k, k)
    with pytest.raises(ValueError):
        snell_residual(0.0, 0.0, np.array([np.nan, 0, 0]), k, k)


def test_reflected_elevation_known_cases():
    # horizontal rays stay horizontal for any row tilt
    for psi in (-1.0, 0.0, 0.7, math.pi / 2.0):
        assert reflected_elevation(math.pi / 2.0, psi) == pytest.approx(math.pi / 2.0)
    # an untilted row mirrors the elevation
    for phi_i in (0.3, 1.0, 2.5):
        assert reflected_elevation(phi_i, 0.0) == pytest.approx(math.pi - phi_i)
    # straight down onto a quarter-turned row leaves horizontally
    assert reflected_elevation(math.pi, math.pi / 2.0) == pytest.approx(math.pi / 2.0)
    # straight up cannot reflect off a quarter-turned row
    assert math.isnan(reflected_elevation(0.0, math.pi / 2.0))
    assert is_evanescent(0.0, math.pi / 2.0)
    assert not is_evanescent(math.pi / 2.0, 0.4)


def test_reflected_elevation_vectorizes_and_validates():
    phi = np.array([0.0, math.pi / 2.0, math.pi])
    out = reflected_elevation(phi, math.pi / 2.0)
    assert math.isnan(out[0])
    assert out[1] == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError):
        reflected_elevation(-0.1, 0.0)


@given(
    phi_i=st.floats(0.0, math.pi),
    psi=st.floats(-1.5, 1.5),
)
@settings(max_examples=150)
def test_reflected_elevation_nan_exactly_when_evanescent(phi_i, psi):
    out = reflected_elevation(phi_i, psi)
    if is_evanescent(phi_i, psi):
        assert math.isnan(out)
    else:
        assert 0.0 <= out + psi / 2.0 <= math.pi + 1e-9


def test_phase_functions_reject_nonpositive_wavelength():
    geom = small_geometry(m=4, n=2)
    a = AnglePair(0.0, math.pi / 2.0)
    for fn in (
        lambda: optimal_phase(geom, a, a, 0.0),
        lambda: preconfigured_phase(geom, 0.0, -1.0),
        lambda: preconfigured_phase(geom, 0.5, 0.0),
    ):
        with pytest.raises(ValueError):
            fn()

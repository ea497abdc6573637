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
    optimal_phase,
    preconfigured_phase,
    wrap_phase,
)
from oracles import (
    azimuth_phase,
    elevation_phase,
    planar_phase,
    reflection_matrix,
    snell_residual,
    specular_phase,
)

LAM = 299_792_458.0 / 28e9
K0 = 2.0 * math.pi / LAM


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
    closed = elevation_phase(geom, math.pi / 2.0, math.pi / 2.0, LAM)
    perpendicular = preconfigured_phase(geom, 0.0, LAM).phases_raw
    assert np.max(np.abs(closed - perpendicular)) < 1e-9


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
        a = specular_phase(geom, thetabar, math.pi / 2.0, LAM)
        b = preconfigured_phase(geom, thetabar, LAM).phases_raw
        assert np.max(np.abs(a - b)) < 1e-9
        # the specular closed form is the azimuth-plane one at theta_o = -theta_i
        assert np.max(np.abs(a - azimuth_phase(geom, thetabar, -thetabar, LAM))) < 1e-9
    with pytest.raises(ValueError):
        preconfigured_phase(geom, math.pi / 2.0 + 0.01, LAM)


def test_preconfigured_is_the_general_specular_pair_at_the_design_elevation():
    geom = small_geometry()
    for thetabar in (0.0, math.radians(75.0)):
        for phibar in (math.radians(80.0), math.radians(89.31), math.radians(100.0)):
            a = specular_phase(geom, thetabar, phibar, LAM)
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
    assert raw[geom.m_count // 2, 0] == pytest.approx(0.0, abs=1e-30)


@given(st.floats(-50.0, 50.0))
def test_wrap_phase_lands_in_principal_interval(x):
    w = wrap_phase(x)
    assert 0.0 <= w < 2.0 * math.pi
    assert np.exp(1j * w) == pytest.approx(np.exp(1j * x), abs=1e-9)


@given(st.floats(-20.0, 20.0))
def test_profile_coefficients_are_wrap_invariant(x):
    row, col = np.array([x]), np.array([0.0, -x])
    a = PhaseProfile(row, col)
    b = PhaseProfile(row + 2.0 * math.pi, col)
    assert reflection_matrix(a.phases_raw) == pytest.approx(
        reflection_matrix(b.phases_raw), abs=1e-12
    )
    left, right = np.array([[1.0 + 2.0j]]), np.array([[1.0, -0.5j]])
    assert a.weighted_sum(left, right) == pytest.approx(b.weighted_sum(left, right), abs=1e-12)


@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1)
)
@settings(max_examples=50, deadline=None)
def test_weighted_sum_matches_the_dense_coefficients(m, n, r, seed):
    rng = np.random.default_rng(seed)
    prof = PhaseProfile(rng.uniform(-300.0, 300.0, m), rng.uniform(-300.0, 300.0, n))
    left = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
    right = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    values = left @ right
    want = np.sum(values.ravel() * reflection_matrix(prof.phases_raw))
    scale = float(np.sum(np.abs(values)))
    assert abs(prof.weighted_sum(left, right) - want) <= 1e-12 * scale
    # a dense (M, N) array is its own left factor over the identity
    assert abs(prof.weighted_sum(values, np.eye(n)) - want) <= 1e-12 * scale
    for bad in (
        (np.zeros((m + 1, r)), right),
        (left, np.zeros((r, n + 1))),
        (left, np.zeros((r + 1, n))),
        (values.ravel(), np.eye(n)),
    ):
        with pytest.raises(ValueError):
            prof.weighted_sum(*bad)


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
    assert prof.phases[0, 1] == pytest.approx(7.0 - 2.0 * math.pi)


def test_snell_residual_vanishes_for_the_matching_phase_gradient():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f_x, f_z = rng.normal(0.0, 1.0, 2)
        k = -K0 * AnglePair(rng.uniform(-1.2, 1.2), rng.uniform(0.3, math.pi - 0.3)).direction()
        kbar = K0 * AnglePair(rng.uniform(-1.2, 1.2), rng.uniform(0.3, math.pi - 0.3)).direction()
        grad = kbar - k
        assert snell_residual(f_x, f_z, grad, k, kbar) < 1e-9


def test_snell_residual_measures_tangential_perturbations():
    k = -K0 * AnglePair(0.2, 1.3).direction()
    kbar = K0 * AnglePair(-0.4, 1.8).direction()
    grad = kbar - k
    f_x, f_z = 0.3, 0.5
    u = np.array([-f_x, 1.0, -f_z]) / math.sqrt(1.0 + f_x**2 + f_z**2)
    tangent = np.array([1.0, 0.4, -0.2])
    tangent -= (tangent @ u) * u
    tangent *= 0.1 / np.linalg.norm(tangent)
    assert snell_residual(f_x, f_z, grad + tangent, k, kbar) == pytest.approx(0.1)
    # normal perturbations are invisible to the law
    assert snell_residual(f_x, f_z, grad + 0.7 * u, k, kbar) < 1e-12


def test_snell_residual_validates_inputs():
    k = -K0 * AnglePair(0.0, 1.0).direction()
    with pytest.raises(ValueError):
        snell_residual(0.0, 0.0, np.zeros(2), k, k)
    with pytest.raises(ValueError):
        snell_residual(0.0, 0.0, np.array([np.nan, 0, 0]), k, k)


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

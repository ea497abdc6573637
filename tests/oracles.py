"""Dense reference implementations that the package's closed forms are checked against.

Phase oracles return dense (M, N) raw phase arrays built from closed forms
that the package no longer carries; the gain oracle sums the four dense
MN-vectors of the plane-wave cascade element by element.  None of them uses
the row + column factorization that ``PhaseProfile`` and
``channel.normalized_gain`` rely on.
"""

import math

import numpy as np

from conformal_v2v.channel import pattern_from_cosine
from conformal_v2v.phase import PHASE_SIGN

TWO_PI = 2.0 * math.pi


def elevation_phase(geometry, phi_i, phi_o, wavelength):
    """Profile for incidence and reflection in the elevation (x-z) plane.

    Product form of the general rule at theta_i = theta_o = 0:
    Phi_m = -s*(8*pi*R/lambda) sin(psi/2) cos((phi_o-phi_i)/2) cos((phi_o+phi_i+psi)/2)
    """
    psi = geometry.psi
    raw_m = (
        -PHASE_SIGN
        * (8.0 * math.pi * geometry.radius / wavelength)
        * np.sin(psi / 2.0)
        * math.cos((phi_o - phi_i) / 2.0)
        * np.cos((phi_o + phi_i + psi) / 2.0)
    )
    return np.repeat(raw_m[:, None], geometry.n_count, axis=1)


def azimuth_phase(geometry, theta_i, theta_o, wavelength):
    """Profile for incidence and reflection in the azimuth (x-y) plane.

    Product form of the general rule at phi_i = phi_o = pi/2:
    Phi_{m,n} = -s*(4*pi/lambda) cos((to-ti)/2) [R(cos psi - 1) cos((to+ti)/2)
                + y sin((to+ti)/2)]
    """
    half_diff = (theta_o - theta_i) / 2.0
    half_sum = (theta_o + theta_i) / 2.0
    x = geometry.radius * (np.cos(geometry.psi) - 1.0)
    y = geometry.d_n * np.arange(geometry.n_count)
    return (
        -PHASE_SIGN
        * (4.0 * math.pi / wavelength)
        * math.cos(half_diff)
        * (x[:, None] * math.cos(half_sum) + y[None, :] * math.sin(half_sum))
    )


def planar_phase(m_count, n_count, d_m, d_n, incidence, reflection, wavelength):
    """Flat-surface limit of the general rule: elements on a planar y-z grid."""
    di, do = incidence.direction(), reflection.direction()
    z = d_m * (np.arange(m_count) - m_count // 2)
    y = d_n * np.arange(n_count)
    return -PHASE_SIGN * (TWO_PI / wavelength) * (
        y[None, :] * (di[1] + do[1]) + z[:, None] * (di[2] + do[2])
    )


def reflection_matrix(phases_raw):
    """Diagonal of the unit-amplitude reflection matrix as a flat vector (MN,).

    Accepts any dense (M, N) phase array, separable over rows and columns
    or not.
    """
    return np.exp(1j * np.asarray(phases_raw, dtype=float)).ravel()


def plane_wave_vectors(geometry, incidence, reflection, wavelength, q):
    """Single-antenna far-field segment vectors (t, c) in the door frame, (MN,).

    Plane-wave limit of the spherical phasor: exp(-j 2 pi r / lambda) ->
    common factor times exp(+j (2 pi / lambda) d_hat . p) for unit direction
    d_hat toward the far endpoint.
    """
    pos = geometry.flat_positions_local
    normals = np.repeat(geometry.normals_local, geometry.n_count, axis=0)
    k0 = TWO_PI / wavelength

    def vec(angles):
        d = angles.direction()
        rho = pattern_from_cosine(normals @ d, q)
        return rho * np.exp(1j * k0 * (pos @ d))

    return vec(incidence), vec(reflection)


def dense_normalized_gain(geometry, phi, incidence, reflection, wavelength, q):
    """|sum_l c_l phi_l t_l|^2 over the three Frobenius norms, dB, from dense vectors.

    ``phi`` is a flat (MN,) coefficient vector, for instance from
    ``reflection_matrix``.
    """
    t, c = plane_wave_vectors(geometry, incidence, reflection, wavelength, q)
    phi = np.asarray(phi)
    if phi.shape != t.shape:
        raise ValueError(f"profile size {phi.shape} vs geometry {t.shape}")
    if not (np.any(t) and np.any(c) and np.any(phi)):
        return -math.inf
    # scale-free in t and c; a peak of 1 keeps the squares from underflowing
    t = t / np.max(np.abs(t))
    c = c / np.max(np.abs(c))
    nt = np.linalg.norm(t)
    nc = np.linalg.norm(c)
    nphi = np.linalg.norm(phi)
    coherent = abs(np.sum(c * phi * t)) ** 2 / (nt**2 * nc**2 * nphi**2)
    if coherent == 0:
        return -math.inf
    return 10.0 * math.log10(coherent)

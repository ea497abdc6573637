"""Reflection phase-profile synthesis for cylindrical surfaces.

A phase profile makes the curved surface steer an incident plane wave into a
chosen reflected direction.  The general profile is linear in the element
position with slope kbar - k (difference of reflected and incident
wavevectors); the fixed profile is its specular case in closed form.  The
closed forms of the elevation-plane, azimuth-plane and flat-surface cases
serve as independent oracles in the test suite.

Angles are expressed in the door frame of the surface they configure: theta
is azimuth from the outward reference normal (+x), phi is elevation from +z.
Both angle pairs point AWAY from the surface (toward source and destination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AnglePair, CirsGeometry

TWO_PI = 2.0 * math.pi

# Overall sign of every synthesized profile. The value +1 is the one for
# which the cascaded far-field sum is fully coherent under the e^{+j*phase}
# reflection convention and e^{-j*2*pi*r/lambda} propagation phasors used in
# the channel module; the coherence test asserts +1 passes and -1 fails.
PHASE_SIGN = 1.0


def wrap_phase(phase: np.ndarray | float) -> np.ndarray | float:
    """Wrap radians into [0, 2*pi)."""
    wrapped = np.mod(phase, TWO_PI)
    # np.mod of a tiny negative rounds up to exactly 2*pi; keep the
    # interval half-open
    wrapped = np.where(wrapped == TWO_PI, 0.0, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Wavevector:
    """Plane-wave vector, components in radians per meter."""

    kx: float
    ky: float
    kz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.kx, self.ky, self.kz])

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.as_array()))


def incident_wavevector(angles: AnglePair, wavelength: float) -> Wavevector:
    """Wavevector of a plane wave arriving FROM direction ``angles``.

    The wave travels toward the surface, hence the minus sign:
    k = -(2*pi/lambda) * [sin(phi)cos(theta), sin(phi)sin(theta), cos(phi)].
    """
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    v = -(TWO_PI / wavelength) * angles.direction()
    return Wavevector(*v)


def reflected_wavevector(angles: AnglePair, wavelength: float) -> Wavevector:
    """Wavevector of a plane wave departing TOWARD direction ``angles``."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    v = (TWO_PI / wavelength) * angles.direction()
    return Wavevector(*v)


@dataclass(frozen=True)
class PhaseProfile:
    """Unit-amplitude reflection phases of an M x N surface, row + column.

    Element (m, n) carries the raw phase ``row_raw[m] + col_raw[n]``.  Every
    profile synthesized here has that form: element positions are
    (x_m, y_n, z_m) in the door frame, so a phase linear in position splits
    into a row term and a column term, and the fixed profiles have no column
    term at all.  The dense (M, N) views are built on demand; the raw values
    are kept unwrapped so algebraic identities between profiles can be
    checked exactly (wrapping never changes the complex coefficient).
    """

    row_raw: np.ndarray
    col_raw: np.ndarray

    def __post_init__(self):
        row = np.asarray(self.row_raw, dtype=float)
        col = np.asarray(self.col_raw, dtype=float)
        if row.ndim != 1 or col.ndim != 1 or row.size == 0 or col.size == 0:
            raise ValueError(
                f"row {row.shape} and column {col.shape} phases must be non-empty 1D"
            )
        if not (np.all(np.isfinite(row)) and np.all(np.isfinite(col))):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "row_raw", row)
        object.__setattr__(self, "col_raw", col)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_raw.size, self.col_raw.size)

    @property
    def phases_raw(self) -> np.ndarray:
        """Unwrapped phases, shape (M, N)."""
        return self.row_raw[:, None] + self.col_raw[None, :]

    @property
    def phases(self) -> np.ndarray:
        """Wrapped phases in [0, 2*pi), shape (M, N)."""
        return wrap_phase(self.phases_raw)

    @property
    def amplitudes(self) -> np.ndarray:
        """Reflection amplitudes, shape (M, N): every element reflects fully."""
        return np.ones(self.shape)

    def coefficients(self) -> np.ndarray:
        """Flat complex reflection coefficients exp(j*Phi_l), (M*N,)."""
        return np.exp(1j * self.phases_raw).ravel()

    def weighted_sum(self, values: np.ndarray) -> complex:
        """sum_{m,n} values[m, n] exp(j*Phi_{m,n}) for an (M, N) array.

        Computed as exp(j*row)^T values exp(j*col), without the dense
        coefficients.
        """
        if values.shape != self.shape:
            raise ValueError(f"values {values.shape} vs profile {self.shape}")
        return np.exp(1j * self.row_raw) @ values @ np.exp(1j * self.col_raw)


def _check_geometry_wavelength(geometry: CirsGeometry, wavelength: float) -> None:
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if geometry.element_count < 1:
        raise ValueError("geometry has no elements")


def optimal_phase(
    geometry: CirsGeometry,
    incidence: AnglePair,
    reflection: AnglePair,
    wavelength: float,
) -> PhaseProfile:
    """Anomalous-reflection profile for arbitrary incidence/reflection angles.

    Phi_{m,n} = -s*(2*pi/lambda) * p_{m,n} . (d_o + d_i) with p in the door
    frame and d_i, d_o the unit directions toward source and destination.
    """
    _check_geometry_wavelength(geometry, wavelength)
    slope = incidence.direction() + reflection.direction()
    scale = -PHASE_SIGN * (TWO_PI / wavelength)
    return PhaseProfile(
        row_raw=scale * (geometry.row_positions_local @ slope),
        col_raw=scale * (geometry.column_offsets_local * slope[1]),
    )


def preconfigured_phase(
    geometry: CirsGeometry,
    thetabar: float,
    wavelength: float,
    phibar: float = math.pi / 2.0,
) -> PhaseProfile:
    """Fixed manufacturing profile: specular for the pair (thetabar, phibar) ->
    (-thetabar, phibar).

    Phi_m = -s*(4*pi*R/lambda)[(cos psi_m - 1) sin(phibar) cos(thetabar)
            + sin(psi_m) cos(phibar)],
    which reduces to -s*(4*pi*R/lambda)(cos psi_m - 1) cos(thetabar) for the
    horizontal design pair phibar = pi/2.  At thetabar = 0 and phibar = pi/2
    it is the perpendicular profile, which flattens the surface for
    broadside incidence.  A phibar below pi/2 serves rays that arrive from,
    and leave toward, endpoints above the door.
    """
    if not 0.0 <= thetabar <= math.pi / 2.0:
        raise ValueError(f"thetabar must lie in [0, pi/2], got {thetabar}")
    if not 0.0 < phibar < math.pi:
        raise ValueError(f"phibar must lie in (0, pi), got {phibar}")
    _check_geometry_wavelength(geometry, wavelength)
    psi = geometry.psi
    raw_m = (
        -PHASE_SIGN
        * (4.0 * math.pi * geometry.radius / wavelength)
        * (
            (np.cos(psi) - 1.0) * math.sin(phibar) * math.cos(thetabar)
            + np.sin(psi) * math.cos(phibar)
        )
    )
    return PhaseProfile(row_raw=raw_m, col_raw=np.zeros(geometry.n_count))


# --- reflected-wave classification for the bare / preconfigured surface ----


def reflected_elevation(phi_i, psi_m):
    """Elevation of the wave leaving a specularly coated row at arc angle psi.

    phi_o = arccos[-2 sin(psi/2) - cos(phi_i + psi/2)] - psi/2.  Arguments
    within 1e-12 outside [-1, 1] are clamped; beyond that the reflected wave
    is evanescent and NaN is returned.  Accepts scalars or arrays.
    """
    phi_i = np.asarray(phi_i, dtype=float)
    psi_m = np.asarray(psi_m, dtype=float)
    if np.any(phi_i < 0) or np.any(phi_i > np.pi):
        raise ValueError("phi_i must lie in [0, pi]")
    arg = -2.0 * np.sin(psi_m / 2.0) - np.cos(phi_i + psi_m / 2.0)
    clamped = np.clip(arg, -1.0, 1.0)
    out = np.where(
        np.abs(arg) <= 1.0 + 1e-12, np.arccos(clamped) - psi_m / 2.0, np.nan
    )
    if out.ndim == 0:
        return float(out)
    return out


def is_evanescent(phi_i, psi_m):
    """True where the specular row reflection cannot propagate."""
    phi_i = np.asarray(phi_i, dtype=float)
    psi_m = np.asarray(psi_m, dtype=float)
    arg = -2.0 * np.sin(psi_m / 2.0) - np.cos(phi_i + psi_m / 2.0)
    out = np.abs(arg) > 1.0 + 1e-12
    if out.ndim == 0:
        return bool(out)
    return out


def snell_residual(
    f_x: float,
    f_z: float,
    grad_phi: np.ndarray,
    k: Wavevector | np.ndarray,
    kbar: Wavevector | np.ndarray,
) -> float:
    """Tangential defect of the generalized reflection law at one point.

    The surface is y = f(x, z) with slopes (f_x, f_z); its unit normal is
    u = [-f_x, 1, -f_z]/sqrt(1 + f_x^2 + f_z^2).  Returns the norm of the
    tangential part of (kbar - k - grad_phi); zero means grad_phi realizes
    the requested reflection.
    """
    k = k.as_array() if isinstance(k, Wavevector) else np.asarray(k, dtype=float)
    kbar = (
        kbar.as_array() if isinstance(kbar, Wavevector) else np.asarray(kbar, dtype=float)
    )
    grad_phi = np.asarray(grad_phi, dtype=float)
    for name, v in (("grad_phi", grad_phi), ("k", k), ("kbar", kbar)):
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be a finite 3-vector")
    u = np.array([-f_x, 1.0, -f_z]) / math.sqrt(1.0 + f_x * f_x + f_z * f_z)
    r = kbar - k - grad_phi
    r_tan = r - np.dot(r, u) * u
    return float(np.linalg.norm(r_tan))

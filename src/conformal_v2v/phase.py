"""Reflection phase-profile synthesis for cylindrical surfaces.

A phase profile makes the curved surface steer an incident plane wave into a
chosen reflected direction.  The general profile is linear in the element
position with slope kbar - k (difference of reflected and incident
wavevectors); the fixed profile is that law at its specular design pair.
The closed forms of the specular, elevation-plane, azimuth-plane and
flat-surface cases, and the generalized reflection (Snell) law, serve as
independent oracles in the test suite.

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

    def weighted_sum(self, left: np.ndarray, right: np.ndarray) -> complex:
        """sum_{m,n} s[m, n] exp(j*Phi_{m,n}) for s = left @ right.

        ``left`` is (M, r) and ``right`` (r, N), as ``cascaded_channels``
        factors a door's product.  The coefficients are the outer product of
        exp(j*row) and exp(j*col), so the sum is (exp(j*row)^T left) .
        (right exp(j*col)): O(r (M + N)), without the dense coefficients or
        s itself.
        """
        m, n = self.shape
        if (
            left.ndim != 2
            or right.ndim != 2
            or left.shape[0] != m
            or right.shape[1] != n
            or left.shape[1] != right.shape[0]
        ):
            raise ValueError(f"factors {left.shape} @ {right.shape} vs profile {self.shape}")
        return (np.exp(1j * self.row_raw) @ left) @ (right @ np.exp(1j * self.col_raw))


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
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
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
    """Fixed manufacturing profile: ``optimal_phase`` at the specular design
    pair (thetabar, phibar) -> (-thetabar, phibar).

    The pair's azimuths cancel in the slope, so the profile has no column
    term.  At thetabar = 0 and phibar = pi/2 it is the perpendicular
    profile, which flattens the surface for broadside incidence.  A phibar
    below pi/2 serves rays that arrive from, and leave toward, endpoints
    above the door.
    """
    if not 0.0 <= thetabar <= math.pi / 2.0:
        raise ValueError(f"thetabar must lie in [0, pi/2], got {thetabar}")
    if not 0.0 < phibar < math.pi:
        raise ValueError(f"phibar must lie in (0, pi), got {phibar}")
    return optimal_phase(
        geometry, AnglePair(thetabar, phibar), AnglePair(-thetabar, phibar), wavelength
    )

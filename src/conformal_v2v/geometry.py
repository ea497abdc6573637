"""Cylindrical door-surface layouts, frames, the road and vehicle footprints.

Frame conventions used throughout the package:

* global x = lateral (across lanes), y = direction of travel, z = up
* the cylinder axis of a door surface runs along the door length (y in the
  door frame), so the surface curves over its height; the outward normal of
  the reference element of a "right" door points along +x
* azimuth theta is measured from +x in the x-y plane, elevation phi from +z
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def vec3(x: float, y: float, z: float) -> np.ndarray:
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True)
class AnglePair:
    """Propagation direction as (azimuth from +x, elevation from +z), radians."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError(f"elevation must lie in [0, pi], got {self.phi}")

    def direction(self) -> np.ndarray:
        """Unit vector [sin(phi)cos(theta), sin(phi)sin(theta), cos(phi)]."""
        sp = math.sin(self.phi)
        return np.array(
            [sp * math.cos(self.theta), sp * math.sin(self.theta), math.cos(self.phi)]
        )

    @classmethod
    def from_direction(cls, v: np.ndarray) -> "AnglePair":
        v = np.asarray(v, dtype=float)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValueError("zero direction vector")
        v = v / n
        return cls(theta=math.atan2(v[1], v[0]), phi=math.acos(max(-1.0, min(1.0, v[2]))))


def azimuth(frm: np.ndarray, to: np.ndarray) -> float:
    """Plan-view azimuth (from +x) of the ray from ``frm`` to ``to``."""
    d = np.asarray(to, dtype=float) - np.asarray(frm, dtype=float)
    if d[0] == 0.0 and d[1] == 0.0:
        raise ValueError("points coincide in plan view, azimuth undefined")
    return math.atan2(d[1], d[0])


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class DoorPose:
    """Placement of a door surface: reference-element position plus orientation.

    side "right" faces +x (vehicle heading +y), side "left" faces -x.
    """

    position: np.ndarray
    side: str = "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "position", vec3(*np.asarray(self.position, dtype=float)))

    def rotation(self) -> np.ndarray:
        """Door-frame -> global-frame rotation matrix."""
        return _rot_z(0.0 if self.side == "right" else math.pi)


@dataclass(frozen=True, eq=False)
class CirsGeometry:
    """Element layout of one cylindrical surface, stored as row x column factors.

    Elements are indexed (m, n) with m = -M/2 .. M/2-1 along the curved
    coordinate (height) and n = 0 .. N-1 along the cylinder axis (length).
    Element (m, n) sits at row m's position plus ``column_offsets_local[n]``
    along the door-frame y axis, and its normal depends on m only; the dense
    (M, N, 3) door-frame positions are built on demand.
    """

    m_count: int
    n_count: int
    radius: float
    d_m: float
    d_n: float
    pose: DoorPose
    psi: np.ndarray = field(repr=False)                  # (M,) arc angle of each row
    row_positions_local: np.ndarray = field(repr=False)  # (M, 3) door frame, n = 0
    column_offsets_local: np.ndarray = field(repr=False)  # (N,) door-frame y
    normals_local: np.ndarray = field(repr=False)        # (M, 3) door frame

    @property
    def element_count(self) -> int:
        return self.m_count * self.n_count

    @property
    def m_signed(self) -> np.ndarray:
        return np.arange(self.m_count) - self.m_count // 2

    @property
    def positions_local(self) -> np.ndarray:
        """Door-frame element positions, shape (M, N, 3)."""
        pos = np.repeat(self.row_positions_local[:, None, :], self.n_count, axis=1)
        pos[:, :, 1] += self.column_offsets_local[None, :]
        return pos

    @property
    def normals(self) -> np.ndarray:
        """Global outward element normals, shape (M, 3) (independent of n)."""
        return self.normals_local @ self.pose.rotation().T


def build_cirs_geometry(
    m_count: int,
    n_count: int,
    radius: float,
    d_m: float,
    d_n: float,
) -> CirsGeometry:
    """Lay out M x N elements on a cylinder section of radius R.

    Row m sits at arc angle psi_m = m * 2*arcsin(d_m / (2R)) so that the chord
    between vertically adjacent elements is exactly d_m.  Local coordinates:
    x = R(cos psi - 1), y = n * d_n, z = R sin psi; the reference element
    (m = 0, n = 0) sits at the door-frame origin, and the door frame at the
    global origin (``dataclasses.replace(layout, pose=...)`` mounts it).
    """
    if m_count < 1 or m_count % 2 != 0:
        raise ValueError(f"m_count must be a positive even integer, got {m_count}")
    if n_count < 1:
        raise ValueError(f"n_count must be >= 1, got {n_count}")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not 0 < d_m < 2 * radius:
        raise ValueError(f"d_m must satisfy 0 < d_m < 2R, got {d_m}")
    if d_n <= 0:
        raise ValueError(f"d_n must be positive, got {d_n}")

    m = np.arange(m_count) - m_count // 2
    psi = m * 2.0 * math.asin(d_m / (2.0 * radius))
    x = radius * (np.cos(psi) - 1.0)
    z = radius * np.sin(psi)

    rows = np.stack([x, np.zeros_like(x), z], axis=1)
    normals = np.stack([np.cos(psi), np.zeros_like(psi), np.sin(psi)], axis=1)

    return CirsGeometry(
        m_count=m_count,
        n_count=n_count,
        radius=radius,
        d_m=d_m,
        d_n=d_n,
        pose=DoorPose(position=np.zeros(3)),
        psi=psi,
        row_positions_local=rows,
        column_offsets_local=d_n * np.arange(n_count),
        normals_local=normals,
    )


def pose_local_angles(pose: DoorPose, direction: np.ndarray) -> AnglePair:
    """Door-frame angles of a global direction vector."""
    # the rotation is orthogonal, so v @ R is the door-frame vector R^T v
    return AnglePair.from_direction(np.asarray(direction, dtype=float) @ pose.rotation())


# --- road and vehicles ------------------------------------------------------


@dataclass(frozen=True)
class RoadConfig:
    """Straight multi-lane road along y, laterally centered on x = 0."""

    length: float = 500.0
    n_lanes: int = 5
    lane_width: float = 5.0

    def __post_init__(self):
        if self.length <= 0 or self.n_lanes < 1 or self.lane_width <= 0:
            raise ValueError("road dimensions must be positive")

    def lane_center(self, lane: int) -> float:
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"lane {lane} out of range")
        return (lane - (self.n_lanes - 1) / 2.0) * self.lane_width

    @property
    def width(self) -> float:
        return self.n_lanes * self.lane_width


@dataclass(frozen=True)
class Vehicle:
    """One ``Scenario`` row: an axis-aligned box centered at (x, y), length along y."""

    x: float
    y: float
    length: float = 5.0
    width: float = 1.8
    height: float = 1.5
    lane: int = -1

    @property
    def footprint(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the 2D footprint."""
        return (
            self.x - self.width / 2.0,
            self.x + self.width / 2.0,
            self.y - self.length / 2.0,
            self.y + self.length / 2.0,
        )

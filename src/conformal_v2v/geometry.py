"""Cylindrical door-surface layouts, vehicle footprints, and relay-candidate regions.

Frame conventions used throughout the package:

* global x = lateral (across lanes), y = direction of travel, z = up
* the cylinder axis of a door surface runs along the door length (y in the
  door frame), so the surface curves over its height; the outward normal of
  the reference element of a "right" door with zero yaw points along +x
* azimuth theta is measured from +x in the x-y plane, elevation phi from +z
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


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


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class DoorPose:
    """Placement of a door surface: reference-element position plus orientation.

    side "right" faces +x at yaw 0 (vehicle heading +y), side "left" faces -x.
    yaw is an extra rotation about z on top of the side flip.
    """

    position: np.ndarray
    side: str = "right"
    yaw: float = 0.0

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "position", vec3(*np.asarray(self.position, dtype=float)))

    def rotation(self) -> np.ndarray:
        """Door-frame -> global-frame rotation matrix."""
        flip = 0.0 if self.side == "right" else math.pi
        return _rot_z(self.yaw + flip)


@dataclass(frozen=True, eq=False)
class CirsGeometry:
    """Element layout of one cylindrical surface.

    Elements are indexed (m, n) with m = -M/2 .. M/2-1 along the curved
    coordinate (height) and n = 0 .. N-1 along the cylinder axis (length).
    The flat index is ell = (m + M/2) * N + n, i.e. C-order over (m, n).
    """

    m_count: int
    n_count: int
    radius: float
    d_m: float
    d_n: float
    pose: DoorPose
    psi: np.ndarray = field(repr=False)            # (M,) arc angle of each row
    positions_local: np.ndarray = field(repr=False)  # (M, N, 3) door frame
    normals_local: np.ndarray = field(repr=False)    # (M, 3) door frame

    @property
    def element_count(self) -> int:
        return self.m_count * self.n_count

    @property
    def m_signed(self) -> np.ndarray:
        return np.arange(self.m_count) - self.m_count // 2

    @property
    def positions(self) -> np.ndarray:
        """Global element positions, shape (M, N, 3)."""
        rot = self.pose.rotation()
        return self.pose.position + self.positions_local @ rot.T

    @property
    def normals(self) -> np.ndarray:
        """Global outward element normals, shape (M, 3) (independent of n)."""
        return self.normals_local @ self.pose.rotation().T

    @property
    def row_positions_local(self) -> np.ndarray:
        """Door-frame position of each row's n = 0 element, shape (M, 3).

        Element (m, n) sits at row m's position plus ``column_offsets_local[n]``
        along the door-frame y axis.
        """
        return self.positions_local[:, 0, :]

    @property
    def column_offsets_local(self) -> np.ndarray:
        """Door-frame y of each column, shape (N,)."""
        return self.positions_local[0, :, 1]

    @property
    def flat_positions_local(self) -> np.ndarray:
        return self.positions_local.reshape(self.element_count, 3)

    @property
    def flat_positions(self) -> np.ndarray:
        return self.positions.reshape(self.element_count, 3)

    @property
    def flat_psi(self) -> np.ndarray:
        """psi per flat element index (row angle repeated across n)."""
        return np.repeat(self.psi, self.n_count)

    def flat_index(self, m: int, n: int) -> int:
        """Flat index for signed row m in [-M/2, M/2) and column n in [0, N)."""
        mi = m + self.m_count // 2
        if not (0 <= mi < self.m_count and 0 <= n < self.n_count):
            raise IndexError(f"element ({m}, {n}) outside the layout")
        return mi * self.n_count + n


def build_cirs_geometry(
    m_count: int,
    n_count: int,
    radius: float,
    d_m: float,
    d_n: float,
    pose: DoorPose | None = None,
) -> CirsGeometry:
    """Lay out M x N elements on a cylinder section of radius R.

    Row m sits at arc angle psi_m = m * 2*arcsin(d_m / (2R)) so that the chord
    between vertically adjacent elements is exactly d_m.  Local coordinates:
    x = R(cos psi - 1), y = n * d_n, z = R sin psi; the reference element
    (m = 0, n = 0) sits at the door-frame origin.
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
    if pose is None:
        pose = DoorPose(position=np.zeros(3))

    m = np.arange(m_count) - m_count // 2
    psi = m * 2.0 * math.asin(d_m / (2.0 * radius))
    x = radius * (np.cos(psi) - 1.0)
    z = radius * np.sin(psi)
    y = d_n * np.arange(n_count)

    pos = np.empty((m_count, n_count, 3))
    pos[:, :, 0] = x[:, None]
    pos[:, :, 1] = y[None, :]
    pos[:, :, 2] = z[:, None]

    normals = np.stack([np.cos(psi), np.zeros_like(psi), np.sin(psi)], axis=1)

    return CirsGeometry(
        m_count=m_count,
        n_count=n_count,
        radius=radius,
        d_m=d_m,
        d_n=d_n,
        pose=pose,
        psi=psi,
        positions_local=pos,
        normals_local=normals,
    )


def arc_area(m_count: int, n_count: int, radius: float, d_m: float, d_n: float) -> float:
    """Surface area L * 2R*psi_M with L = N*d_n and psi_M = M*arcsin(d_m/2R)."""
    if m_count == 0:
        return 0.0
    psi_half = m_count * math.asin(d_m / (2.0 * radius))
    return n_count * d_n * 2.0 * radius * psi_half


def surface_area(geometry: CirsGeometry) -> float:
    return arc_area(
        geometry.m_count, geometry.n_count, geometry.radius, geometry.d_m, geometry.d_n
    )


def direction_to_door_frame(pose: DoorPose, direction: np.ndarray) -> np.ndarray:
    """Express a global direction in the door frame (pose rotation inverse)."""
    rot = pose.rotation()
    return np.asarray(direction, dtype=float) @ rot


def pose_local_angles(pose: DoorPose, direction: np.ndarray) -> AnglePair:
    """Door-frame angles of a global direction vector."""
    return AnglePair.from_direction(direction_to_door_frame(pose, direction))


def global_to_local_angles(
    geometry: CirsGeometry, index: int, angles: AnglePair
) -> AnglePair:
    """Angles of a global direction in the frame of element ``index``.

    The element frame is the door frame rotated by psi_m about the door y axis,
    so the element's outward normal is its local +x (theta = 0, phi = pi/2).
    """
    if not 0 <= index < geometry.element_count:
        raise IndexError(f"element index {index} out of range")
    v = direction_to_door_frame(geometry.pose, angles.direction())
    psi = geometry.flat_psi[index]
    c, s = math.cos(psi), math.sin(psi)
    v_elem = np.array([c * v[0] + s * v[2], v[1], -s * v[0] + c * v[2]])
    return AnglePair.from_direction(v_elem)


def local_to_global_angles(
    geometry: CirsGeometry, index: int, angles: AnglePair
) -> AnglePair:
    """Inverse of global_to_local_angles for the same element."""
    if not 0 <= index < geometry.element_count:
        raise IndexError(f"element index {index} out of range")
    v = angles.direction()
    psi = geometry.flat_psi[index]
    c, s = math.cos(psi), math.sin(psi)
    v_door = np.array([c * v[0] - s * v[2], v[1], s * v[0] + c * v[2]])
    return AnglePair.from_direction(v_door @ geometry.pose.rotation().T)


# --- road, vehicles, relay-candidate region -------------------------------


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
    """Axis-aligned vehicle box, centered at (x, y), length along y."""

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

    def array_position(self) -> np.ndarray:
        """Roof-mounted antenna array reference point."""
        return np.array([self.x, self.y, self.height])

    def door_center(self, side: str, door_height: float) -> np.ndarray:
        """Mid-door reference point on the requested side."""
        sign = 1.0 if side == "right" else -1.0
        return np.array([self.x + sign * self.width / 2.0, self.y, door_height])

    def door_normal(self, side: str) -> np.ndarray:
        sign = 1.0 if side == "right" else -1.0
        return np.array([sign, 0.0, 0.0])


@dataclass(frozen=True)
class SpecularArea:
    """Rectangle (plan view) in which a door can act as a specular relay."""

    center: np.ndarray
    width: float   # lateral extent (x)
    length: float  # longitudinal extent (y)

    def contains(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(
            abs(p[0] - self.center[0]) <= self.width / 2.0
            and abs(p[1] - self.center[1]) <= self.length / 2.0
        )


def specular_area(
    p_t: np.ndarray, p_r: np.ndarray, road: RoadConfig, door_length: float
) -> SpecularArea:
    """Candidate region for fixed-phase door relays.

    Centered longitudinally at the transmitter-receiver midpoint, spanning all
    lanes laterally, and two door lengths along the road.
    """
    p_t = np.asarray(p_t, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    if np.allclose(p_t[:2], p_r[:2]):
        raise ValueError("endpoints must be distinct in the road plane")
    mid_y = 0.5 * (p_t[1] + p_r[1])
    return SpecularArea(
        center=np.array([0.0, mid_y, 0.0]),
        width=road.width,
        length=2.0 * door_length,
    )

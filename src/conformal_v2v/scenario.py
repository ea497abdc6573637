"""Random highway scenes: Poisson traffic, relay candidates, blockage.

Scenes are plan-view snapshots: every vehicle is an axis-aligned box on a
lane, the two link endpoints (TxV, RxV) sit in the center lane, and blockage
of a path is a 2D segment-vs-footprint intersection test (all roofs share
the same height, so a same-height ray is blocked exactly by the boxes its
plan-view projection crosses).  ``count_blockers`` is the one place that
test is made; ``blocked_modes`` turns its counts into per-mode outcomes.

A scene is stored as per-vehicle arrays.  Door gating and the blockage test
work on them without a per-door loop; generation loops over position draws
only, testing each against its two same-lane neighbours.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import DoorPose, RoadConfig, Vehicle, _isclose, specular_area

Candidate = tuple[int, str]  # (vehicle index, door side)
SIDES = ("left", "right")
# draws per placement before it is dropped as unplaceable
MAX_RETRIES = 100
_SIGNS = np.array([-1.0, 1.0])  # outward x direction of each side's door


class _VehicleRows(Sequence):
    """Read-only view of a scene's rows as ``Vehicle`` objects, built on access."""

    def __init__(self, scene: Scenario):
        self._scene = scene

    def __len__(self) -> int:
        return len(self._scene.x)

    def __getitem__(self, i) -> Vehicle:
        s = self._scene
        return Vehicle(
            x=float(s.x[i]),
            y=float(s.y[i]),
            length=float(s.length[i]),
            width=float(s.width[i]),
            height=float(s.height[i]),
            lane=int(s.lane[i]),
        )


@dataclass(frozen=True, eq=False)
class Scenario:
    """One plan-view scene as (V,) per-vehicle arrays.

    Vehicle i is a box centered at (x[i], y[i]) on lane ``lane[i]``, ``length``
    along the road (y) and ``width`` across it; its roof array sits at
    ``height``.  ``footprints`` holds the (V, 4) boxes (xmin, xmax, ymin,
    ymax), and ``vehicles`` views the rows as ``Vehicle`` objects.
    """

    road: RoadConfig
    x: np.ndarray
    y: np.ndarray
    lane: np.ndarray
    length: np.ndarray
    width: np.ndarray
    height: np.ndarray
    txv: int
    rxv: int
    dropped: int = 0  # placements abandoned after the retry budget
    footprints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("x", "y", "length", "width", "height"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "lane", np.asarray(self.lane, dtype=int))
        n = len(self.x)
        for name in ("x", "y", "lane", "length", "width", "height"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.txv == self.rxv:
            raise ValueError("txv and rxv must differ")
        for idx in (self.txv, self.rxv):
            if not 0 <= idx < n:
                raise ValueError(f"endpoint index {idx} out of range")
        half_w, half_l = self.width / 2.0, self.length / 2.0
        boxes = np.stack(
            [self.x - half_w, self.x + half_w, self.y - half_l, self.y + half_l], axis=1
        )
        object.__setattr__(self, "footprints", boxes)

    @property
    def vehicles(self) -> Sequence[Vehicle]:
        return _VehicleRows(self)

    @property
    def p_t(self) -> np.ndarray:
        """TxV roof-array position."""
        return np.array([self.x[self.txv], self.y[self.txv], self.height[self.txv]])

    @property
    def p_r(self) -> np.ndarray:
        """RxV roof-array position."""
        return np.array([self.x[self.rxv], self.y[self.rxv], self.height[self.rxv]])

    def all_door_points(self, door_center_height: float) -> np.ndarray:
        """(V, 2, 3) mid-door reference points of every vehicle, columns ``SIDES``."""
        points = np.empty((len(self.x), 2, 3))
        points[..., 0] = self.x[:, None] + _SIGNS * self.width[:, None] / 2.0
        points[..., 1] = self.y[:, None]
        points[..., 2] = door_center_height
        return points

    def door_points(
        self, doors: Sequence[Candidate], door_center_height: float
    ) -> np.ndarray:
        """(C, 3) mid-door reference points of the given (index, side) doors."""
        rows = [i for i, _ in doors]
        cols = [SIDES.index(side) for _, side in doors]
        return self.all_door_points(door_center_height)[rows, cols]

    def endpoint_distances(self, points: np.ndarray) -> np.ndarray:
        """(..., 2) distances (r_t, r_r) of (..., 3) points from both roof arrays."""
        d = np.asarray(points)[..., None, :] - np.stack([self.p_t, self.p_r])
        # a stack of (1, 3) @ (3, 1) products runs the dot kernel that
        # np.linalg.norm runs on one 3-vector, so every distance matches the
        # per-point norm to the last bit and range ties resolve the same way
        return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


def _fits(occupied: list[float], y: float, min_gap: float) -> bool:
    """Whether y keeps ``min_gap`` from every entry of the sorted ``occupied``.

    fl(y - o) is monotone in o, so the two sorted neighbours of y decide
    exactly what testing every entry would.
    """
    i = bisect.bisect_left(occupied, y)
    return (i == 0 or y - occupied[i - 1] >= min_gap) and (
        i == len(occupied) or occupied[i] - y >= min_gap
    )


def generate_traffic(
    road: RoadConfig,
    rho: float,
    rng: np.random.Generator | int,
    link_distance_m: float = 100.0,
    vehicle_length_m: float = 5.0,
    vehicle_width_m: float = 1.8,
    vehicle_height_m: float = 1.5,
) -> Scenario:
    """Drop Poisson traffic on every lane around a fixed TxV-RxV pair.

    Per-lane vehicle counts are Poisson(rho * road_length_km); longitudinal
    positions are uniform, redrawn up to ``MAX_RETRIES`` times when two
    same-lane footprints would overlap (drops are counted, not silently
    clipped).  TxV sits at the road start of the center lane and RxV
    ``link_distance_m`` further down the same lane.  Draws come in the order
    of one placement at a time, each retried until it fits or runs out.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence(int(rng)))

    center = road.n_lanes // 2
    y_t = vehicle_length_m / 2.0
    y_r = y_t + link_distance_m
    if y_r + vehicle_length_m / 2.0 > road.length:
        raise ValueError(
            f"link distance {link_distance_m} m does not fit a {road.length} m road"
        )

    lanes, ys = [center, center], [y_t, y_r]
    dropped = 0
    length_km = road.length / 1000.0
    for lane in range(road.n_lanes):
        occupied = sorted((y_t, y_r)) if lane == center else []
        owed = int(rng.poisson(rho * length_km))
        tries = 0
        while owed:
            # every owed placement takes at least one more draw, so a batch of
            # ``owed`` draws ends where drawing one at a time would have
            for y in rng.uniform(0.0, road.length, size=owed).tolist():
                if _fits(occupied, y, vehicle_length_m):
                    bisect.insort(occupied, y)
                    lanes.append(lane)
                    ys.append(y)
                    owed, tries = owed - 1, 0
                else:
                    tries += 1
                    if tries >= MAX_RETRIES:
                        dropped += 1
                        owed, tries = owed - 1, 0

    centers = np.array([road.lane_center(lane) for lane in range(road.n_lanes)])
    n = len(ys)
    return Scenario(
        road=road,
        x=centers[lanes],
        y=np.array(ys),
        lane=np.array(lanes),
        length=np.full(n, vehicle_length_m),
        width=np.full(n, vehicle_width_m),
        height=np.full(n, vehicle_height_m),
        txv=0,
        rxv=1,
        dropped=dropped,
    )


def door_pose(
    door: np.ndarray, side: str, n_elements: int, element_spacing_m: float
) -> DoorPose:
    """Mounting pose for a door surface centered on the door reference point.

    The pose origin is the surface reference element (column n = 0); the
    columns extend (n_elements - 1) * element_spacing_m along the vehicle
    from there, so the origin is shifted back by half that extent to center
    the surface on ``door`` (a point from ``Scenario.door_points``).
    """
    offset = (n_elements - 1) * element_spacing_m / 2.0
    shift = -offset if side == "right" else offset
    position = np.asarray(door, dtype=float) + np.array([0.0, shift, 0.0])
    return DoorPose(position=position, side=side)


def _facing_doors(scenario: Scenario, door_center_height: float):
    """(V, 2, 3) door points, columns ``SIDES``, and the (V, 2) mask of doors
    facing both endpoints; the endpoints' own doors are masked out.

    A door faces a point when the point lies strictly on the outward side of
    the door plane: a coplanar endpoint does not count.
    """
    s = scenario
    points = s.all_door_points(door_center_height)
    door_x = points[..., 0]
    facing = (_SIGNS * (s.p_t[0] - door_x) > 0.0) & (_SIGNS * (s.p_r[0] - door_x) > 0.0)
    facing[[s.txv, s.rxv]] = False
    return points, facing


def _candidates(mask: np.ndarray) -> list[Candidate]:
    """(index, side) of every set entry of a (V, 2) door mask, in row order."""
    rows, cols = np.nonzero(mask)
    return [(i, SIDES[c]) for i, c in zip(rows.tolist(), cols.tolist())]


def candidate_relays_irs(
    scenario: Scenario,
    door_length_m: float = 1.0,
    door_center_height: float = 0.9,
) -> list[Candidate]:
    """Doors inside the specular area that face both endpoints."""
    area = specular_area(scenario.p_t, scenario.p_r, scenario.road, door_length_m)
    points, mask = _facing_doors(scenario, door_center_height)
    return _candidates(mask & area.contains(points))


def candidate_relays_ris(
    scenario: Scenario,
    max_range_m: float = 150.0,
    door_center_height: float = 0.9,
) -> list[Candidate]:
    """Doors within range of both endpoints that face both endpoints."""
    if max_range_m <= 0:
        raise ValueError(f"max_range_m must be positive, got {max_range_m}")
    points, mask = _facing_doors(scenario, door_center_height)
    in_range = (scenario.endpoint_distances(points) <= max_range_m).all(axis=-1)
    return _candidates(mask & in_range)


def _segments_hit_boxes(
    starts: np.ndarray, ends: np.ndarray, boxes: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """(S, V) mask of open plan-view segments crossing axis-aligned rectangles.

    ``starts`` and ``ends`` are (S, 2); ``boxes`` is (V, 4) of (xmin, xmax,
    ymin, ymax).  Slab clipping: a segment crosses a box iff the parameter
    interval [tmin, tmax] over both axes is non-empty and overlaps the open
    (0, 1).  Along an axis the segment does not move on, it must start inside
    the slab instead.
    """
    d = ends - starts
    tmin = np.zeros((len(starts), len(boxes)))
    tmax = np.ones_like(tmin)
    ok = np.ones(tmin.shape, dtype=bool)
    for axis in range(2):
        lo, hi = boxes[:, 2 * axis], boxes[:, 2 * axis + 1]
        p, step = starts[:, axis, None], d[:, axis, None]
        still = np.abs(step) < eps
        ok &= ~still | ((p >= lo) & (p <= hi))
        step = np.where(still, 1.0, step)
        t1 = (lo - p) / step
        t2 = (hi - p) / step
        tmin = np.where(still, tmin, np.maximum(tmin, np.minimum(t1, t2)))
        tmax = np.where(still, tmax, np.minimum(tmax, np.maximum(t1, t2)))
    return ok & (tmin <= tmax) & (tmax > eps) & (tmin < 1.0 - eps)


def count_blockers(
    scenario: Scenario,
    doors: Sequence[Candidate] = (),
    door_center_height: float = 0.9,
) -> tuple[int, np.ndarray]:
    """Blocker counts of the direct ray and of both relay legs of every door.

    This is the one blockage rule.  The segments are the direct ray TxV->RxV,
    then TxV->door and door->RxV for each door in order, each between the
    roof array and the door reference point in plan view.  A vehicle blocks
    a segment when its footprint crosses the open segment; the TxV and RxV
    never count, and neither does a door's own vehicle on its two legs.

    Returns (direct count, (C, 2) int array of (first, second) leg counts).
    """
    doors = list(doors)
    n_seg = 1 + 2 * len(doors)
    p_t, p_r = scenario.p_t[:2], scenario.p_r[:2]
    starts = np.empty((n_seg, 2))
    ends = np.empty((n_seg, 2))
    starts[0], ends[0] = p_t, p_r
    if doors:
        points = scenario.door_points(doors, door_center_height)[:, :2]
        starts[1::2], ends[1::2] = p_t, points
        starts[2::2], ends[2::2] = points, p_r
    if _isclose(starts, ends).all(axis=1).any():
        raise ValueError("segment endpoints must be distinct in plan view")

    hits = _segments_hit_boxes(starts, ends, scenario.footprints)
    hits[:, [scenario.txv, scenario.rxv]] = False
    if doors:
        relays = np.repeat([idx for idx, _ in doors], 2)
        hits[np.arange(1, n_seg), relays] = False
    counts = np.count_nonzero(hits, axis=1)
    return int(counts[0]), counts[1:].reshape(-1, 2)


def blocked_modes(
    scenario: Scenario,
    door_length_m: float = 1.0,
    door_center_height: float = 0.9,
    max_range_m: float = 150.0,
) -> tuple[bool, bool, bool]:
    """Whether the link is blocked under each mode: (direct, with_irs, with_ris).

    direct: any blocker on the TxV-RxV ray.  with_irs / with_ris: the direct
    ray is blocked AND no door of the mode (specular-area doors for with_irs,
    any in-range door for with_ris) has both legs clear; a mode without doors
    stays blocked.  Every gated door counts here, while SNR trials keep only
    the max_candidates doors with the smallest r_t * r_r per mode.
    """
    direct, _ = count_blockers(scenario)
    if direct == 0:
        return False, False, False
    irs = candidate_relays_irs(scenario, door_length_m, door_center_height)
    ris = candidate_relays_ris(scenario, max_range_m, door_center_height)
    doors = sorted(set(irs) | set(ris))
    _, legs = count_blockers(scenario, doors, door_center_height)
    clear = {door for door, (first, second) in zip(doors, legs) if first == second == 0}
    return True, clear.isdisjoint(irs), clear.isdisjoint(ris)

"""Random highway scenes: Poisson traffic, relay candidates, blockage.

Scenes are plan-view snapshots: every vehicle is an axis-aligned box on a
lane, the two link endpoints (TxV, RxV) sit in the center lane, and blockage
of a path is a 2D segment-vs-footprint intersection test (all roofs share
the same height, so a same-height ray is blocked exactly by the boxes its
plan-view projection crosses).  ``count_blockers`` is the one place that
test is made; ``blocked_modes`` turns its counts into per-mode outcomes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import DoorPose, RoadConfig, Vehicle, specular_area

Candidate = tuple[int, str]  # (vehicle index, door side)


@dataclass(frozen=True)
class Scenario:
    road: RoadConfig
    vehicles: tuple[Vehicle, ...]
    txv: int
    rxv: int
    seed: int | None = None
    dropped: int = 0  # placements abandoned after the retry budget

    def __post_init__(self):
        if self.txv == self.rxv:
            raise ValueError("txv and rxv must differ")
        for idx in (self.txv, self.rxv):
            if not 0 <= idx < len(self.vehicles):
                raise ValueError(f"endpoint index {idx} out of range")

    @property
    def txv_vehicle(self) -> Vehicle:
        return self.vehicles[self.txv]

    @property
    def rxv_vehicle(self) -> Vehicle:
        return self.vehicles[self.rxv]

    @property
    def p_t(self) -> np.ndarray:
        return self.txv_vehicle.array_position()

    @property
    def p_r(self) -> np.ndarray:
        return self.rxv_vehicle.array_position()


def generate_traffic(
    road: RoadConfig,
    rho: float,
    rng: np.random.Generator | int,
    link_distance_m: float = 100.0,
    vehicle_length_m: float = 5.0,
    vehicle_width_m: float = 1.8,
    vehicle_height_m: float = 1.5,
    max_retries: int = 100,
) -> Scenario:
    """Drop Poisson traffic on every lane around a fixed TxV-RxV pair.

    Per-lane vehicle counts are Poisson(rho * road_length_km); longitudinal
    positions are uniform, redrawn up to ``max_retries`` times when two
    same-lane footprints would overlap (drops are counted, not silently
    clipped).  TxV sits at the road start of the center lane and RxV
    ``link_distance_m`` further down the same lane.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(np.random.SeedSequence(seed))

    center = road.n_lanes // 2
    y_t = vehicle_length_m / 2.0
    y_r = y_t + link_distance_m
    if y_r + vehicle_length_m / 2.0 > road.length:
        raise ValueError(
            f"link distance {link_distance_m} m does not fit a {road.length} m road"
        )

    def make(lane: int, y: float) -> Vehicle:
        return Vehicle(
            x=road.lane_center(lane),
            y=y,
            length=vehicle_length_m,
            width=vehicle_width_m,
            height=vehicle_height_m,
            lane=lane,
        )

    vehicles = [make(center, y_t), make(center, y_r)]
    dropped = 0
    length_km = road.length / 1000.0
    for lane in range(road.n_lanes):
        occupied = [v.y for v in vehicles if v.lane == lane]
        count = int(rng.poisson(rho * length_km))
        for _ in range(count):
            placed = False
            for _ in range(max_retries):
                y = float(rng.uniform(0.0, road.length))
                if all(abs(y - other) >= vehicle_length_m for other in occupied):
                    occupied.append(y)
                    vehicles.append(make(lane, y))
                    placed = True
                    break
            if not placed:
                dropped += 1

    return Scenario(
        road=road, vehicles=tuple(vehicles), txv=0, rxv=1, seed=seed, dropped=dropped
    )


def door_reference_point(vehicle: Vehicle, side: str, door_center_height: float) -> np.ndarray:
    """Center of the door surface on the requested side."""
    return vehicle.door_center(side, door_center_height)


def door_pose(
    vehicle: Vehicle,
    side: str,
    n_elements: int,
    element_spacing_m: float,
    door_center_height: float,
) -> DoorPose:
    """Mounting pose for the door surface of ``vehicle`` on ``side``.

    The pose origin is the surface reference element (column n = 0); the
    columns extend (n_elements - 1) * element_spacing_m along the vehicle
    from there, so the origin is shifted back by half that extent to center
    the surface on the door reference point.
    """
    center = vehicle.door_center(side, door_center_height)
    offset = (n_elements - 1) * element_spacing_m / 2.0
    shift = -offset if side == "right" else offset
    position = center + np.array([0.0, shift, 0.0])
    return DoorPose(position=position, side=side, yaw=0.0)


def _faces_both(
    vehicle: Vehicle, side: str, p_t: np.ndarray, p_r: np.ndarray, door_center_height: float
) -> bool:
    door = vehicle.door_center(side, door_center_height)
    normal = vehicle.door_normal(side)
    return (
        float(np.dot(p_t - door, normal)) > 0.0
        and float(np.dot(p_r - door, normal)) > 0.0
    )


def candidate_relays_irs(
    scenario: Scenario,
    door_length_m: float = 1.0,
    door_center_height: float = 0.9,
) -> list[Candidate]:
    """Doors inside the specular area that face both endpoints."""
    area = specular_area(scenario.p_t, scenario.p_r, scenario.road, door_length_m)
    out: list[Candidate] = []
    for i, vehicle in enumerate(scenario.vehicles):
        if i in (scenario.txv, scenario.rxv):
            continue
        for side in ("left", "right"):
            door = door_reference_point(vehicle, side, door_center_height)
            if area.contains(door) and _faces_both(
                vehicle, side, scenario.p_t, scenario.p_r, door_center_height
            ):
                out.append((i, side))
    return out


def candidate_relays_ris(
    scenario: Scenario,
    max_range_m: float = 150.0,
    door_center_height: float = 0.9,
) -> list[Candidate]:
    """Doors within range of both endpoints that face both endpoints."""
    if max_range_m <= 0:
        raise ValueError(f"max_range_m must be positive, got {max_range_m}")
    out: list[Candidate] = []
    for i, vehicle in enumerate(scenario.vehicles):
        if i in (scenario.txv, scenario.rxv):
            continue
        for side in ("left", "right"):
            door = door_reference_point(vehicle, side, door_center_height)
            if (
                np.linalg.norm(door - scenario.p_t) <= max_range_m
                and np.linalg.norm(door - scenario.p_r) <= max_range_m
                and _faces_both(
                    vehicle, side, scenario.p_t, scenario.p_r, door_center_height
                )
            ):
                out.append((i, side))
    return out


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
    starts = np.empty((n_seg, 2))
    ends = np.empty((n_seg, 2))
    starts[0], ends[0] = scenario.p_t[:2], scenario.p_r[:2]
    if doors:
        points = np.array([
            door_reference_point(scenario.vehicles[idx], side, door_center_height)[:2]
            for idx, side in doors
        ])
        starts[1::2], ends[1::2] = scenario.p_t[:2], points
        starts[2::2], ends[2::2] = points, scenario.p_r[:2]
    if np.any(np.all(np.isclose(starts, ends), axis=1)):
        raise ValueError("segment endpoints must be distinct in plan view")

    boxes = np.array([v.footprint for v in scenario.vehicles])
    hits = _segments_hit_boxes(starts, ends, boxes)
    hits[:, [scenario.txv, scenario.rxv]] = False
    relays = np.repeat(np.array([idx for idx, _ in doors], dtype=int), 2)
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

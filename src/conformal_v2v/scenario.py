"""Random highway scenes: Poisson traffic, relay doors, blockage.

Scenes are plan-view snapshots: every vehicle is an axis-aligned box on a
lane, the two link endpoints (TxV, RxV) sit in the center lane, and blockage
of a path is a 2D segment-vs-footprint intersection test (all roofs share
the same height, so a same-height ray is blocked exactly by the boxes its
plan-view projection crosses).  ``_segment_counts`` is the one place that
test is made, and ``relay_doors`` the one place doors are gated.

A chunk of scenes (``Scenes``) is one set of per-vehicle arrays with a scene
id, and the only scene storage: every scene is drawn as a chunk
(``draw_scenes``), one scene included.  ``relay_doors`` gates the doors of a
whole chunk and counts the blockers of its direct rays and relay legs
without a per-scene or per-door loop; ``blocked_modes`` reduces its ``Doors``
record to the blockage sweep's mode flags.  Generation loops over position
draws only, testing each against its two same-lane neighbours.  ``Scenario``
is a read-only row view of a one-scene chunk (``generate_traffic``): its
``Vehicle`` rows, TxV first and RxV second, for code that inspects a scene
vehicle by vehicle.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .geometry import DoorPose, RoadConfig, Vehicle

SIDES = ("left", "right")
# draws per placement before it is dropped as unplaceable
MAX_RETRIES = 100
_SIGNS = np.array([-1.0, 1.0])  # outward x direction of each side's door
# slack (m) of the y-window a segment's boxes are looked up in; it only has
# to exceed the rounding of box ends and window bounds
_Y_MARGIN = 1e-6
# a segment moves along an axis when its extent there is at least this (m)
_EPS = 1e-12
# about the most (segment, box) pairs ``_segment_counts`` tests in one pass
_PAIR_BUDGET = 2048


def _boxes(x, y, length, width) -> np.ndarray:
    """(V, 4) plan-view footprints (xmin, xmax, ymin, ymax)."""
    half_w, half_l = width / 2.0, length / 2.0
    return np.stack([x - half_w, x + half_w, y - half_l, y + half_l], axis=1)


def _door_points(x, y, width, door_center_height: float) -> np.ndarray:
    """(V, 2, 3) mid-door reference points, columns ``SIDES``."""
    points = np.empty((len(x), 2, 3))
    points[..., 0] = x[:, None] + _SIGNS * width[:, None] / 2.0
    points[..., 1] = y[:, None]
    points[..., 2] = door_center_height
    return points


def _isclose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.isclose(a, b) at its default tolerances, |a - b| <= 1e-8 + 1e-5 |b|,
    elementwise and without its overhead."""
    return np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)


def _distances(points: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(..., 2) distances of (..., 3) points from the (..., 2, 3) endpoint pairs."""
    d = points[..., None, :] - ends
    # a stack of (1, 3) @ (3, 1) products runs the dot kernel that
    # np.linalg.norm runs on one 3-vector, so every distance matches the
    # per-point norm to the last bit and range ties resolve the same way
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Scenario:
    """One scene as ``Vehicle`` rows: the TxV, the RxV, then the traffic.

    A row view of a one-scene chunk (``generate_traffic``) for code that
    inspects a scene vehicle by vehicle; ``Scenes`` is the scene storage.
    """

    road: RoadConfig
    vehicles: tuple[Vehicle, ...]
    dropped: int = 0  # placements abandoned after the retry budget
    txv: ClassVar[int] = 0
    rxv: ClassVar[int] = 1

    @property
    def p_t(self) -> np.ndarray:
        """TxV roof-array position."""
        v = self.vehicles[self.txv]
        return np.array([v.x, v.y, v.height])

    @property
    def p_r(self) -> np.ndarray:
        """RxV roof-array position."""
        v = self.vehicles[self.rxv]
        return np.array([v.x, v.y, v.height])


@dataclass(frozen=True, eq=False)
class Scenes:
    """A chunk of plan-view scenes as one set of (V,) per-vehicle arrays.

    Row i is a vehicle of scene ``scene[i]``: a box centered at (x[i], y[i])
    on lane ``lane[i]``, ``length`` along the road (y) and ``width`` across
    it, its roof array at ``height``.  The rows of a scene are contiguous and
    scenes come in order.  Scene s has its TxV at row ``txv[s]``, its RxV
    right after it and ``dropped[s]`` abandoned placements.  Every scene of
    a chunk lies on ``road``.
    """

    road: RoadConfig
    x: np.ndarray
    y: np.ndarray
    lane: np.ndarray
    length: np.ndarray
    width: np.ndarray
    height: np.ndarray
    scene: np.ndarray
    txv: np.ndarray
    dropped: np.ndarray

    @property
    def rxv(self) -> np.ndarray:
        """(S,) RxV row of every scene."""
        return self.txv + 1

    @property
    def ends(self) -> np.ndarray:
        """(S, 2, 3) TxV and RxV roof-array positions of every scene."""
        rows = np.stack([self.txv, self.rxv], axis=1)
        return np.stack([self.x[rows], self.y[rows], self.height[rows]], axis=-1)

    @cached_property
    def _box_index(self):
        """The footprints ``_segment_counts`` looks blockers up in.

        Every vehicle but the scenes' TxVs and RxVs, which never block,
        sorted by key = scene * stride + ymin.  The stride exceeds the
        chunk's y-span plus the reach (the longest box plus ``_Y_MARGIN``),
        so no scene's y-window reaches a neighbour's keys.  Returns (rows,
        (4, B) columns xmin, xmax, ymin, ymax, keys, stride, reach), rows
        and columns in key order.
        """
        boxes = _boxes(self.x, self.y, self.length, self.width)
        ymin, ymax = boxes[:, 2], boxes[:, 3]
        reach = float(np.max(ymax - ymin)) + _Y_MARGIN
        stride = float(np.max(ymax) - np.min(ymin)) + reach + 1.0
        others = np.ones(len(boxes), dtype=bool)
        others[self.txv] = others[self.rxv] = False
        rows = np.flatnonzero(others)
        keys = self.scene[rows] * stride + ymin[rows]
        order = np.argsort(keys, kind="stable")
        rows = rows[order]
        return rows, boxes[rows].T.copy(), keys[order], stride, reach


def check_scene(
    road_length_m: float, rho: float, link_distance_m: float, vehicle_length_m: float
) -> None:
    """Reject a scene ``draw_scenes`` cannot draw: a density that is negative
    or not finite, or a link that is not positive or ends past the road."""
    if not 0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if not link_distance_m > 0:
        raise ValueError(f"link distance must be positive, got {link_distance_m} m")
    # the RxV's far end, summed as ``_placements`` places the RxV
    if vehicle_length_m / 2.0 + link_distance_m + vehicle_length_m / 2.0 > road_length_m:
        raise ValueError(
            f"link distance {link_distance_m} m does not fit a {road_length_m} m road"
        )


def _placements(
    road: RoadConfig,
    rho: float,
    rng: np.random.Generator,
    link_distance_m: float,
    vehicle_length_m: float,
) -> tuple[list[int], list[float], int]:
    """Lane and center y of every vehicle of one scene, TxV and RxV first,
    and the number of dropped placements; see ``draw_scenes``."""
    center = road.n_lanes // 2
    y_t = vehicle_length_m / 2.0
    y_r = y_t + link_distance_m

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
                # fl(y - o) is monotone in o, so the two sorted neighbours of
                # y decide exactly what testing every occupied y would
                i = bisect.bisect_left(occupied, y)
                if (i == 0 or y - occupied[i - 1] >= vehicle_length_m) and (
                    i == len(occupied) or occupied[i] - y >= vehicle_length_m
                ):
                    occupied.insert(i, y)
                    lanes.append(lane)
                    ys.append(y)
                    owed, tries = owed - 1, 0
                else:
                    tries += 1
                    if tries >= MAX_RETRIES:
                        dropped += 1
                        owed, tries = owed - 1, 0
    return lanes, ys, dropped


def generate_traffic(
    road: RoadConfig,
    rho: float,
    rng: np.random.Generator,
    link_distance_m: float = 100.0,
    vehicle_length_m: float = 5.0,
    vehicle_width_m: float = 1.8,
    vehicle_height_m: float = 1.5,
) -> Scenario:
    """The one-scene chunk ``draw_scenes`` draws from ``rng``, as ``Vehicle`` rows."""
    s = draw_scenes(
        road, rho, [rng], link_distance_m, vehicle_length_m, vehicle_width_m, vehicle_height_m
    )
    columns = (s.x, s.y, s.length, s.width, s.height, s.lane)
    rows = zip(*(column.tolist() for column in columns))
    return Scenario(road, tuple(Vehicle(*row) for row in rows), int(s.dropped[0]))


def draw_scenes(
    road: RoadConfig,
    rho: float,
    rngs: Iterable[np.random.Generator],
    link_distance_m: float = 100.0,
    vehicle_length_m: float = 5.0,
    vehicle_width_m: float = 1.8,
    vehicle_height_m: float = 1.5,
) -> Scenes:
    """One scene per generator of ``rngs``, as one chunk: Poisson traffic on
    every lane around a fixed TxV-RxV pair.

    Per-lane vehicle counts are Poisson(rho * road_length_km); longitudinal
    positions are uniform, redrawn up to ``MAX_RETRIES`` times when two
    same-lane footprints would overlap (drops are counted, not silently
    clipped).  TxV sits at the road start of the center lane and RxV
    ``link_distance_m`` further down the same lane.  Draws come in the order
    of one placement at a time, each retried until it fits or runs out.
    """
    check_scene(road.length, rho, link_distance_m, vehicle_length_m)
    lanes: list[int] = []
    ys: list[float] = []
    txv, dropped = [], []
    for rng in rngs:
        lane, y, drop = _placements(road, rho, rng, link_distance_m, vehicle_length_m)
        txv.append(len(ys))
        lanes += lane
        ys += y
        dropped.append(drop)
    n = len(ys)
    txv = np.array(txv)
    centers = np.array([road.lane_center(lane) for lane in range(road.n_lanes)])
    return Scenes(
        road=road,
        x=centers[lanes],
        y=np.array(ys),
        lane=np.array(lanes, dtype=int),
        length=np.full(n, vehicle_length_m),
        width=np.full(n, vehicle_width_m),
        height=np.full(n, vehicle_height_m),
        scene=np.repeat(np.arange(len(txv)), np.diff(txv, append=n)),
        txv=txv,
        dropped=np.array(dropped),
    )


def door_pose(
    door: np.ndarray, side: str, n_elements: int, element_spacing_m: float
) -> DoorPose:
    """Mounting pose for a door surface centered on the door reference point.

    The pose origin is the surface reference element (column n = 0); the
    columns extend (n_elements - 1) * element_spacing_m along the vehicle
    from there, so the origin is shifted back by half that extent to center
    the surface on ``door`` (a point from ``relay_doors``).
    """
    offset = (n_elements - 1) * element_spacing_m / 2.0
    shift = -offset if side == "right" else offset
    position = np.asarray(door, dtype=float) + np.array([0.0, shift, 0.0])
    return DoorPose(position=position, side=side)


def _facing_doors(scenes: Scenes, door_center_height: float):
    """(V, 2, 3) door points, columns ``SIDES``; the (V, 2, 3) endpoints of
    each row's scene; and the (V, 2) mask of doors facing both of them.  The
    endpoints' own doors are masked out.

    A door faces a point when the point lies strictly on the outward side of
    the door plane: a coplanar endpoint does not count.
    """
    s = scenes
    points = _door_points(s.x, s.y, s.width, door_center_height)
    ends = s.ends[s.scene]
    door_x = points[..., 0]
    facing = (_SIGNS * (ends[:, :1, 0] - door_x) > 0.0) & (
        _SIGNS * (ends[:, 1:, 0] - door_x) > 0.0
    )
    facing[s.txv] = False
    facing[s.rxv] = False
    return points, ends, facing


def _slab_hits(segments, columns, seg, pos) -> np.ndarray:
    """(P,) mask: whether open plan-view segment ``seg[k]`` crosses box ``pos[k]``.

    ``segments`` holds per axis the (S,) start coordinates, steps (1 where
    the segment does not move along the axis) and moving masks;
    ``columns`` is (4, B) of box (xmin, xmax, ymin, ymax).  Slab clipping
    (Kay and Kajiya, SIGGRAPH 1986): a segment crosses a box iff the
    parameter interval [tmin, tmax] over both axes is non-empty and overlaps
    the open (0, 1).  Along an axis the segment does not move on, it must
    start inside the slab instead.
    """
    tmin = np.zeros(len(seg))
    tmax = np.ones_like(tmin)
    ok = np.ones(tmin.shape, dtype=bool)
    for (p, step, moving), lo, hi in zip(segments, columns[0::2], columns[1::2]):
        p, step, moving, lo, hi = p[seg], step[seg], moving[seg], lo[pos], hi[pos]
        ok &= moving | ((p >= lo) & (p <= hi))
        t1 = (lo - p) / step
        t2 = (hi - p) / step
        tmin = np.where(moving, np.maximum(tmin, np.minimum(t1, t2)), tmin)
        tmax = np.where(moving, np.minimum(tmax, np.maximum(t1, t2)), tmax)
    return ok & (tmin <= tmax) & (tmax > _EPS) & (tmin < 1.0 - _EPS)


def _segment_counts(
    scenes: Scenes,
    seg_scene: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    relay: np.ndarray,
) -> np.ndarray:
    """Blocker count of each open plan-view segment ``starts[k] -> ends[k]``.

    This is the one blockage rule.  Segment k belongs to scene
    ``seg_scene[k]`` and joins two of its vehicle reference points; a
    vehicle of that scene blocks it when its footprint crosses the open
    segment (``_slab_hits``).  The scene's TxV and RxV never count, and
    neither does row ``relay[k]`` (-1 for none).

    Only the boxes of the segment's scene whose ymin lies within
    [y_lo - reach, y_hi + ``_Y_MARGIN``] are tested, (y_lo, y_hi) being the
    segment's y-range and reach the longest box plus the margin.  Any other
    box misses the segment's y-slab, so the slab test would reject it: the
    counts are those of testing every box of the scene.
    """
    if _isclose(starts, ends).all(axis=1).any():
        raise ValueError("segment endpoints must be distinct in plan view")
    rows, columns, keys, stride, reach = scenes._box_index
    base = seg_scene * stride
    first = np.searchsorted(keys, base + (np.minimum(starts[:, 1], ends[:, 1]) - reach))
    stop = np.searchsorted(
        keys, base + (np.maximum(starts[:, 1], ends[:, 1]) + _Y_MARGIN), side="right"
    )
    sizes = stop - first
    d = ends - starts
    moving = ~(np.abs(d) < _EPS)
    step = np.where(moving, d, 1.0)
    segments = [
        (starts[:, axis].copy(), step[:, axis].copy(), moving[:, axis].copy())
        for axis in range(2)
    ]
    # runs of segments with about _PAIR_BUDGET pairs each keep the pair
    # arrays small and of few sizes: a chunk's tens of thousands of pairs in
    # one pass ran slower and raised peak memory.  The last run keeps at
    # least half a budget, so its arrays stay above the sizes numpy caches
    # after use (under 1 KiB, up to 7 blocks of each size).
    done = np.cumsum(sizes)
    total = int(done[-1]) if len(done) else 0
    cuts = np.arange(_PAIR_BUDGET, total - _PAIR_BUDGET // 2, _PAIR_BUDGET)
    cuts = np.searchsorted(done, cuts).tolist()
    counts = np.empty(len(starts), dtype=np.intp)
    for a, b in zip([0, *cuts], [*cuts, len(starts)]):
        n = sizes[a:b]
        seg = np.repeat(np.arange(a, b), n)
        pos = np.arange(len(seg)) + np.repeat(first[a:b] - np.cumsum(n) + n, n)
        hit = _slab_hits(segments, columns, seg, pos) & (rows[pos] != relay[seg])
        counts[a:b] = np.bincount(seg[hit] - a, minlength=b - a)
    return counts


@dataclass(frozen=True, eq=False)
class Doors:
    """The gated relay doors of a chunk of scenes, in (vehicle row, side) order.

    Door k is the ``SIDES[side[k]]`` door of row ``row[k]`` of the chunk,
    in scene ``scene[k]``: its mid-door reference point is ``points[k]``
    and its distances from the scene's TxV and RxV roof arrays are
    ``r[k]`` = (r_t, r_r).  ``irs[k]`` and ``ris[k]`` say which modes gate
    it, and ``legs[k]`` holds the blocker counts of its legs TxV -> door
    and door -> RxV.  ``direct[s]`` is the blocker count of scene s's
    TxV -> RxV ray.
    """

    scene: np.ndarray
    row: np.ndarray
    side: np.ndarray
    points: np.ndarray
    r: np.ndarray
    irs: np.ndarray
    ris: np.ndarray
    legs: np.ndarray
    direct: np.ndarray


def relay_doors(
    scenes: Scenes,
    door_length_m: float = 1.0,
    door_center_height: float = 0.9,
    max_range_m: float = 150.0,
) -> Doors:
    """Every door of a chunk that either mode gates, with its blocker counts.

    A door must face both endpoints of its scene (``_facing_doors``).  A
    pre-configured C-IRS door (``irs``) must also lie on the scene's
    specular strip: across every lane, |x| <= road width / 2, and within
    ``door_length_m`` of the endpoints' midpoint along the road.  A tunable
    C-RIS door (``ris``) must lie within ``max_range_m`` of both endpoints.
    The direct rays and both legs of every gated door are counted in one
    ``_segment_counts`` pass, which rejects a scene whose endpoints coincide
    in plan view; a door's own vehicle never blocks its legs.
    """
    if max_range_m <= 0:
        raise ValueError(f"max_range_m must be positive, got {max_range_m}")
    points, ends, facing = _facing_doors(scenes, door_center_height)
    rows, sides = np.nonzero(facing)
    points, ends = points[rows, sides], ends[rows]
    mid_y = 0.5 * (ends[:, 0, 1] + ends[:, 1, 1])
    irs = (np.abs(points[:, 0]) <= scenes.road.width / 2.0) & (
        np.abs(points[:, 1] - mid_y) <= door_length_m
    )
    r = _distances(points, ends)
    ris = (r <= max_range_m).all(axis=1)
    gated = irs | ris
    rows, sides, points, ends, r, irs, ris = (
        column[gated] for column in (rows, sides, points, ends, r, irs, ris)
    )
    scene = scenes.scene[rows]

    # the direct rays, then both legs of every gated door, in one pass
    n_scenes = len(scenes.txv)
    n_seg = n_scenes + 2 * len(rows)
    starts = np.empty((n_seg, 2))
    stops = np.empty_like(starts)
    starts[:n_scenes], stops[:n_scenes] = scenes.ends[:, :, :2].transpose(1, 0, 2)
    starts[n_scenes::2], stops[n_scenes::2] = ends[:, 0, :2], points[:, :2]
    starts[n_scenes + 1::2], stops[n_scenes + 1::2] = points[:, :2], ends[:, 1, :2]
    counts = _segment_counts(
        scenes,
        np.concatenate([np.arange(n_scenes), np.repeat(scene, 2)]),
        starts,
        stops,
        np.concatenate([np.full(n_scenes, -1), np.repeat(rows, 2)]),
    )
    return Doors(
        scene=scene,
        row=rows,
        side=sides,
        points=points,
        r=r,
        irs=irs,
        ris=ris,
        legs=counts[n_scenes:].reshape(-1, 2),
        direct=counts[:n_scenes],
    )


def blocked_modes(doors: Doors) -> tuple[np.ndarray, np.ndarray]:
    """Whether each scene's link is blocked under each mode, and its candidates.

    Returns the (S, 3) flags (direct, with_irs, with_ris) and the (S, 2)
    counts of (IRS, RIS) candidate doors of every scene of a chunk gated by
    ``relay_doors``.  direct: any blocker on the TxV-RxV ray.
    with_irs / with_ris: the direct ray is blocked AND no door the mode
    gates has both legs clear; a mode without doors stays blocked.  Every
    gated door counts here, while SNR trials keep only the max_candidates
    doors with the smallest r_t * r_r per mode.
    """
    n_scenes = len(doors.direct)
    direct = doors.direct > 0
    clear = (doors.legs == 0).all(axis=1)
    flags = np.stack([direct, direct, direct], axis=1)
    for column, mask in ((1, doors.irs), (2, doors.ris)):
        flags[doors.scene[clear & mask], column] = False
    candidates = np.stack(
        [np.bincount(doors.scene[m], minlength=n_scenes) for m in (doors.irs, doors.ris)],
        axis=1,
    )
    return flags, candidates

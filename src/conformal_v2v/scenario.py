"""Random highway scenes: Poisson traffic, relay candidates, blockage.

Scenes are plan-view snapshots: every vehicle is an axis-aligned box on a
lane, the two link endpoints (TxV, RxV) sit in the center lane, and blockage
of a path is a 2D segment-vs-footprint intersection test (all roofs share
the same height, so a same-height ray is blocked exactly by the boxes its
plan-view projection crosses).  ``_segment_counts`` is the one place that
test is made; ``count_blockers`` and ``blocked_modes`` read their counts
from it.

A scene is stored as per-vehicle arrays, and a chunk of scenes (``Scenes``)
as one set of them with a scene id.  Door gating and the blockage test work
on a chunk without a per-scene or per-door loop; the one-scene functions
(``candidate_relays_irs``, ``candidate_relays_ris``, ``count_blockers``) run
them on a chunk of one.  Generation loops over position draws only, testing
each against its two same-lane neighbours.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import DoorPose, RoadConfig, Vehicle, _isclose, specular_area

Candidate = tuple[int, str]  # (vehicle index, door side)
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


def _distances(points: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(..., 2) distances of (..., 3) points from the (..., 2, 3) endpoint pairs."""
    d = points[..., None, :] - ends
    # a stack of (1, 3) @ (3, 1) products runs the dot kernel that
    # np.linalg.norm runs on one 3-vector, so every distance matches the
    # per-point norm to the last bit and range ties resolve the same way
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


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
        boxes = _boxes(self.x, self.y, self.length, self.width)
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

    def door_points(
        self, doors: Sequence[Candidate], door_center_height: float
    ) -> np.ndarray:
        """(C, 3) mid-door reference points of the given (index, side) doors."""
        rows = [i for i, _ in doors]
        cols = [SIDES.index(side) for _, side in doors]
        return _door_points(self.x, self.y, self.width, door_center_height)[rows, cols]

    def endpoint_distances(self, points: np.ndarray) -> np.ndarray:
        """(..., 2) distances (r_t, r_r) of (..., 3) points from both roof arrays."""
        return _distances(np.asarray(points), np.stack([self.p_t, self.p_r]))


@dataclass(frozen=True, eq=False)
class Scenes:
    """A chunk of plan-view scenes as one set of (V,) per-vehicle arrays.

    Row i is a vehicle of scene ``scene[i]``, with the columns of
    ``Scenario``; the rows of a scene are contiguous and scenes come in
    order.  Scene s has its TxV at row ``txv[s]``, its RxV at row
    ``rxv[s]`` and ``dropped[s]`` abandoned placements.  Every scene of a
    chunk lies on ``road``.
    """

    road: RoadConfig
    x: np.ndarray
    y: np.ndarray
    length: np.ndarray
    width: np.ndarray
    height: np.ndarray
    scene: np.ndarray
    txv: np.ndarray
    rxv: np.ndarray
    dropped: np.ndarray

    @classmethod
    def of(cls, scenarios: Sequence[Scenario]) -> Scenes:
        """The given scenes as one chunk, in order."""
        road = scenarios[0].road
        if any(s.road != road for s in scenarios):
            raise ValueError("the scenes of a chunk must share one road")
        sizes = [len(s.x) for s in scenarios]
        offsets = np.cumsum([0, *sizes[:-1]])

        def rows(name):
            return np.concatenate([getattr(s, name) for s in scenarios])

        return cls(
            road=road,
            x=rows("x"),
            y=rows("y"),
            length=rows("length"),
            width=rows("width"),
            height=rows("height"),
            scene=np.repeat(np.arange(len(sizes)), sizes),
            txv=offsets + [s.txv for s in scenarios],
            rxv=offsets + [s.rxv for s in scenarios],
            dropped=np.array([s.dropped for s in scenarios]),
        )

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


def _placements(
    road: RoadConfig,
    rho: float,
    rng: np.random.Generator,
    link_distance_m: float,
    vehicle_length_m: float,
) -> tuple[list[int], list[float], int]:
    """Lane and center y of every vehicle of one scene, TxV and RxV first,
    and the number of dropped placements; see ``generate_traffic``."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
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


def _lane_centers(road: RoadConfig) -> np.ndarray:
    return np.array([road.lane_center(lane) for lane in range(road.n_lanes)])


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
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence(int(rng)))
    lanes, ys, dropped = _placements(road, rho, rng, link_distance_m, vehicle_length_m)
    n = len(ys)
    return Scenario(
        road=road,
        x=_lane_centers(road)[lanes],
        y=np.array(ys),
        lane=np.array(lanes),
        length=np.full(n, vehicle_length_m),
        width=np.full(n, vehicle_width_m),
        height=np.full(n, vehicle_height_m),
        txv=0,
        rxv=1,
        dropped=dropped,
    )


def draw_scenes(
    road: RoadConfig,
    rho: float,
    rngs: Iterable[np.random.Generator],
    link_distance_m: float = 100.0,
    vehicle_length_m: float = 5.0,
    vehicle_width_m: float = 1.8,
    vehicle_height_m: float = 1.5,
) -> Scenes:
    """One scene per generator of ``rngs``, each drawn as ``generate_traffic``
    draws it from that generator, as one chunk."""
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
    return Scenes(
        road=road,
        x=_lane_centers(road)[lanes],
        y=np.array(ys),
        length=np.full(n, vehicle_length_m),
        width=np.full(n, vehicle_width_m),
        height=np.full(n, vehicle_height_m),
        scene=np.repeat(np.arange(len(txv)), np.diff(txv, append=n)),
        txv=txv,
        rxv=txv + 1,
        dropped=np.array(dropped),
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


def _in_strip(points, ends, road: RoadConfig, door_length_m: float) -> np.ndarray:
    """Whether each door point lies in its scene's specular area."""
    area = specular_area(ends[:, None, 0], ends[:, None, 1], road, door_length_m)
    return area.contains(points)


def _in_range(points, ends, facing, max_range_m: float) -> np.ndarray:
    """Which of the ``facing`` doors lie within ``max_range_m`` of both endpoints."""
    if max_range_m <= 0:
        raise ValueError(f"max_range_m must be positive, got {max_range_m}")
    rows, cols = np.nonzero(facing)
    mask = np.zeros_like(facing)
    r = _distances(points[rows, cols], ends[rows])
    mask[rows, cols] = (r <= max_range_m).all(axis=-1)
    return mask


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
    points, ends, facing = _facing_doors(Scenes.of([scenario]), door_center_height)
    return _candidates(facing & _in_strip(points, ends, scenario.road, door_length_m))


def candidate_relays_ris(
    scenario: Scenario,
    max_range_m: float = 150.0,
    door_center_height: float = 0.9,
) -> list[Candidate]:
    """Doors within range of both endpoints that face both endpoints."""
    points, ends, facing = _facing_doors(Scenes.of([scenario]), door_center_height)
    return _candidates(_in_range(points, ends, facing, max_range_m))


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


def count_blockers(
    scenario: Scenario,
    doors: Sequence[Candidate] = (),
    door_center_height: float = 0.9,
) -> tuple[int, np.ndarray]:
    """Blocker counts of the direct ray and of both relay legs of every door.

    The segments are the direct ray TxV->RxV, then TxV->door and door->RxV
    for each door in order, each between the roof array and the door
    reference point in plan view.  A vehicle blocks a segment when its
    footprint crosses the open segment; the TxV and RxV never count, and
    neither does a door's own vehicle on its two legs (``_segment_counts``).

    Returns (direct count, (C, 2) int array of (first, second) leg counts).
    """
    doors = list(doors)
    n_seg = 1 + 2 * len(doors)
    p_t, p_r = scenario.p_t[:2], scenario.p_r[:2]
    starts = np.empty((n_seg, 2))
    ends = np.empty((n_seg, 2))
    starts[0], ends[0] = p_t, p_r
    relay = np.full(n_seg, -1)
    if doors:
        points = scenario.door_points(doors, door_center_height)[:, :2]
        starts[1::2], ends[1::2] = p_t, points
        starts[2::2], ends[2::2] = points, p_r
        relay[1:] = np.repeat([idx for idx, _ in doors], 2)
    counts = _segment_counts(
        Scenes.of([scenario]), np.zeros(n_seg, dtype=int), starts, ends, relay
    )
    return int(counts[0]), counts[1:].reshape(-1, 2)


def blocked_modes(
    scenes: Scenes,
    door_length_m: float = 1.0,
    door_center_height: float = 0.9,
    max_range_m: float = 150.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each scene's link is blocked under each mode, and its candidates.

    Returns the (S, 3) flags (direct, with_irs, with_ris) and the (S, 2)
    counts of (IRS, RIS) candidate doors of every scene of the chunk.
    direct: any blocker on the TxV-RxV ray.  with_irs / with_ris: the direct
    ray is blocked AND no door of the mode (specular-area doors for with_irs,
    any in-range door for with_ris) has both legs clear; a mode without doors
    stays blocked.  Every gated door counts here, while SNR trials keep only
    the max_candidates doors with the smallest r_t * r_r per mode.  The
    direct rays and both legs of every gated door are counted in one pass.
    ``Scenes.of`` makes a chunk of given scenes, one scene included.
    """
    n_scenes = len(scenes.txv)
    points, door_ends, facing = _facing_doors(scenes, door_center_height)
    irs = facing & _in_strip(points, door_ends, scenes.road, door_length_m)
    ris = _in_range(points, door_ends, facing, max_range_m)
    sides = np.repeat(scenes.scene, 2)
    candidates = np.stack(
        [np.bincount(sides[mask.ravel()], minlength=n_scenes) for mask in (irs, ris)],
        axis=1,
    )

    # the direct rays, then both legs of every gated door, in one pass
    rows, cols = np.nonzero(irs | ris)
    door_scene = scenes.scene[rows]
    doors = points[rows, cols, :2]
    ends = scenes.ends[:, :, :2]
    n_seg = n_scenes + 2 * len(rows)
    starts = np.empty((n_seg, 2))
    stops = np.empty_like(starts)
    starts[:n_scenes], stops[:n_scenes] = ends[:, 0], ends[:, 1]
    starts[n_scenes::2], stops[n_scenes::2] = ends[door_scene, 0], doors
    starts[n_scenes + 1::2], stops[n_scenes + 1::2] = doors, ends[door_scene, 1]
    counts = _segment_counts(
        scenes,
        np.concatenate([np.arange(n_scenes), np.repeat(door_scene, 2)]),
        starts,
        stops,
        np.concatenate([np.full(n_scenes, -1), np.repeat(rows, 2)]),
    )
    direct = counts[:n_scenes] > 0
    legs = counts[n_scenes:].reshape(-1, 2)
    clear = (legs == 0).all(axis=1)
    flags = np.stack([direct, direct, direct], axis=1)
    for column, mask in ((1, irs), (2, ris)):
        flags[door_scene[clear & mask[rows, cols]], column] = False
    return flags, candidates

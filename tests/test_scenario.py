"""Traffic generation, plan-view blockage, and relay door gating."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_v2v.config import SimConfig
from conformal_v2v.geometry import RoadConfig, Vehicle, build_cirs_geometry
from conformal_v2v.scenario import (
    SIDES,
    _boxes,
    _segment_counts,
    blocked_modes,
    door_pose,
    draw_scenes,
    generate_traffic,
    relay_doors,
)
from oracles import (
    door_center,
    element_positions,
    scalar_candidates_irs,
    scalar_candidates_ris,
    scalar_generate_traffic,
    scene_from_vehicles,
    scenes_of,
)

ROAD = RoadConfig()


# --- reference blockage rule: one segment at a time --------------------------


def reference_hits(p, q, boxes, eps=1e-12):
    """Open-segment vs axis-aligned rectangle intersection (plan view).

    ``boxes`` is (V, 4) of (xmin, xmax, ymin, ymax); returns a boolean mask.
    Slab clipping: the segment crosses a box iff the parameter interval
    [tmin, tmax] over both axes is non-empty and overlaps the open (0, 1).
    """
    if boxes.size == 0:
        return np.zeros(0, dtype=bool)
    p2, q2 = np.asarray(p, dtype=float)[:2], np.asarray(q, dtype=float)[:2]
    d = q2 - p2
    tmin = np.zeros(len(boxes))
    tmax = np.ones(len(boxes))
    ok = np.ones(len(boxes), dtype=bool)
    for axis in range(2):
        lo, hi = boxes[:, 2 * axis], boxes[:, 2 * axis + 1]
        if abs(d[axis]) < eps:
            ok &= (p2[axis] >= lo) & (p2[axis] <= hi)
        else:
            t1 = (lo - p2[axis]) / d[axis]
            t2 = (hi - p2[axis]) / d[axis]
            t_lo, t_hi = np.minimum(t1, t2), np.maximum(t1, t2)
            tmin = np.maximum(tmin, t_lo)
            tmax = np.minimum(tmax, t_hi)
    return ok & (tmin <= tmax) & (tmax > eps) & (tmin < 1.0 - eps)


def reference_segment_count(scenario, frm, to, excluded=()):
    """Vehicles other than TxV, RxV and ``excluded`` crossing the segment frm->to."""
    p = np.asarray(frm, dtype=float)
    q = np.asarray(to, dtype=float)
    if np.allclose(p[:2], q[:2]):
        raise ValueError("segment endpoints must be distinct in plan view")
    skip = {scenario.txv, scenario.rxv, *excluded}
    idx = [i for i in range(len(scenario.vehicles)) if i not in skip]
    if not idx:
        return 0
    boxes = np.array([scenario.vehicles[i].footprint for i in idx])
    return int(np.count_nonzero(reference_hits(p, q, boxes)))


def reference_counts(scenario, doors, door_center_height=0.9):
    """(direct, legs) of count_blockers, one segment and one door at a time."""
    direct = reference_segment_count(scenario, scenario.p_t, scenario.p_r)
    legs = []
    for idx, side in doors:
        door = door_center(scenario.vehicles[idx], side, door_center_height)
        legs.append((
            reference_segment_count(scenario, scenario.p_t, door, excluded={idx}),
            reference_segment_count(scenario, door, scenario.p_r, excluded={idx}),
        ))
    return direct, legs


def reference_modes(scenario, door_length_m=1.0, door_center_height=0.9, max_range_m=150.0):
    """(direct, with_irs, with_ris) of one scene from the per-segment and
    per-door references."""
    direct, _ = reference_counts(scenario, [], door_center_height)
    if direct == 0:
        return False, False, False
    irs = scalar_candidates_irs(scenario, door_length_m, door_center_height)
    ris = scalar_candidates_ris(scenario, max_range_m, door_center_height)
    doors = sorted(set(irs) | set(ris))
    _, legs = reference_counts(scenario, doors, door_center_height)
    clear = {door for door, (first, second) in zip(doors, legs) if first == second == 0}
    return True, clear.isdisjoint(irs), clear.isdisjoint(ris)


def modes(scenario, **kwargs):
    """``blocked_modes`` flags of a chunk of one scene, as a tuple."""
    flags, _ = blocked_modes(relay_doors(scenes_of([scenario]), **kwargs))
    return tuple(flags[0].tolist())


def count_blockers(scenario, doors=(), door_center_height=0.9):
    """(direct count, (C, 2) leg counts) of one scene's direct ray and of both
    legs of each given (index, side) door, gated or not, through
    ``_segment_counts`` on a chunk of that scene."""
    doors = list(doors)
    starts, ends = segments_of(scenario, doors, door_center_height)
    counts = _segment_counts(
        scenes_of([scenario]), np.zeros(len(starts), dtype=int), starts, ends,
        legs_relay(doors),
    )
    return int(counts[0]), counts[1:].reshape(-1, 2)


def door_pairs(doors):
    """(row, side) of every door of a ``relay_doors`` result, in order."""
    return list(zip(doors.row.tolist(), (SIDES[side] for side in doors.side.tolist())))


def gated(scenario, door_length_m=1.0, door_center_height=0.9, max_range_m=150.0):
    """(IRS, RIS) lists of the (index, side) doors ``relay_doors`` gates in a
    chunk of one scene, in door order."""
    chunk = scenes_of([scenario])
    doors = relay_doors(chunk, door_length_m, door_center_height, max_range_m)
    pairs = door_pairs(doors)
    return tuple(
        [pair for pair, gate in zip(pairs, mask.tolist()) if gate]
        for mask in (doors.irs, doors.ris)
    )


def scene(*extra: Vehicle, link_m: float = 100.0):
    """Hand-built scenario: TxV/RxV on the center lane plus extra vehicles."""
    txv = Vehicle(x=0.0, y=2.5, lane=2)
    rxv = Vehicle(x=0.0, y=2.5 + link_m, lane=2)
    return scene_from_vehicles(ROAD, (txv, rxv, *extra))


def seeded(seed):
    """The generator of an int seed, as ``scenario-dump`` makes it."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def test_generated_traffic_is_reproducible_from_an_int_seed():
    a = generate_traffic(ROAD, 20.0, seeded(42))
    b = generate_traffic(ROAD, 20.0, seeded(42))
    assert a.vehicles == b.vehicles
    assert a.dropped == b.dropped
    c = generate_traffic(ROAD, 20.0, seeded(43))
    assert c.vehicles != a.vehicles


def test_endpoints_sit_on_the_center_lane_at_the_link_distance():
    s = generate_traffic(ROAD, 15.0, seeded(0), link_distance_m=80.0)
    assert s.txv == 0 and s.rxv == 1
    assert s.vehicles[s.txv].lane == 2 and s.vehicles[s.rxv].lane == 2
    assert s.p_t == pytest.approx([0.0, 2.5, 1.5])
    assert s.p_r == pytest.approx([0.0, 82.5, 1.5])


def test_same_lane_vehicles_never_overlap():
    s = generate_traffic(ROAD, 60.0, seeded(7))
    for lane in range(ROAD.n_lanes):
        ys = sorted(v.y for v in s.vehicles if v.lane == lane)
        gaps = np.diff(ys)
        assert np.all(gaps >= 5.0 - 1e-9)


def test_retry_budget_drops_placements_on_a_saturated_road():
    tight = RoadConfig(length=60.0, n_lanes=1, lane_width=5.0)
    s = generate_traffic(tight, 4000.0, seeded(1), link_distance_m=50.0)
    assert s.dropped > 0
    # the survivors still respect the spacing rule
    ys = sorted(v.y for v in s.vehicles)
    assert np.all(np.diff(ys) >= 5.0 - 1e-9)


def test_generate_traffic_validates_inputs():
    with pytest.raises(ValueError):
        generate_traffic(ROAD, -1.0, seeded(0))
    with pytest.raises(ValueError):
        generate_traffic(RoadConfig(length=50.0), 10.0, seeded(0), link_distance_m=100.0)


def test_a_same_lane_car_between_the_endpoints_blocks():
    s = scene(Vehicle(x=0.0, y=50.0, lane=2))
    direct, legs = count_blockers(s)
    assert direct == 1
    assert legs.shape == (0, 2)


def test_an_adjacent_lane_car_beside_the_path_does_not_block():
    s = scene(Vehicle(x=5.0, y=50.0, lane=3))
    assert count_blockers(s)[0] == 0


def test_excluded_vehicles_are_ignored_when_counting():
    # the car at (2.5, 27.5) straddles both legs of its own right door and
    # the first leg of the other car's left door at (5.0, 52.5); only the
    # other door's leg counts it.  The endpoints' own boxes never count.
    near = Vehicle(x=2.5, y=27.5, lane=2)
    far = Vehicle(x=5.9, y=52.5, lane=3)
    s = scene(near, far)
    direct, legs = count_blockers(s, [(2, "right"), (3, "left")])
    assert direct == 0
    assert legs.tolist() == [[0, 0], [1, 0]]


def test_a_diagonal_segment_sees_the_blocker_it_crosses():
    # the relay's left door sits at (5.0, 52.5): the Tx->door ray
    # (0, 2.5) -> (5, 52.5) passes x = 2.5 at y = 27.5, and the door->Rx ray
    # (5, 52.5) -> (0, 102.5) passes it at y = 77.5.
    relay = Vehicle(x=5.9, y=52.5, lane=3)
    s = scene(Vehicle(x=2.5, y=27.5, lane=2), Vehicle(x=2.5, y=77.5, lane=2), relay)
    direct, legs = count_blockers(s, [(4, "left")])
    assert direct == 0
    assert legs.tolist() == [[1, 1]]


def test_count_blockers_rejects_coincident_plan_view_points():
    txv = Vehicle(x=0.0, y=2.5, lane=2)
    above = Vehicle(x=0.0, y=2.5, height=3.0, lane=2)
    with pytest.raises(ValueError):
        count_blockers(scene_from_vehicles(ROAD, (txv, above)))
    # a left door at x = 0.0, level with the transmitter
    s = scene(Vehicle(x=0.9, y=2.5, lane=2))
    with pytest.raises(ValueError):
        count_blockers(s, [(2, "left")])


# x on a 0.9 m grid puts door points on lane centers and box edges on door
# points; y on a 2.5 m grid puts doors level with an endpoint (legs along x)
# and box ends on the endpoints.
grid_vehicles = st.lists(
    st.builds(
        Vehicle,
        x=st.integers(-10, 10).map(lambda i: 0.9 * i),
        y=st.integers(0, 44).map(lambda i: 2.5 * i),
    ),
    max_size=12,
)


@given(grid_vehicles, st.data())
@settings(max_examples=200, deadline=None)
def test_count_blockers_matches_the_per_segment_reference(vehicles, data):
    s = scene(*vehicles)
    all_doors = [(i, side) for i in range(2, len(s.vehicles)) for side in ("left", "right")]
    doors = data.draw(st.lists(st.sampled_from(all_doors), unique=True) if all_doors
                      else st.just([]))
    try:
        expected = reference_counts(s, doors)
    except ValueError:
        with pytest.raises(ValueError):
            count_blockers(s, doors)
        return
    direct, legs = count_blockers(s, doors)
    assert direct == expected[0]
    assert legs.tolist() == [list(pair) for pair in expected[1]]


def test_relay_doors_must_face_both_endpoints():
    # lane-3 car left door faces the center-lane link, right door faces away
    s = scene(Vehicle(x=5.0, y=52.5, lane=3))
    _, ris = gated(s)
    assert ris == [(2, "left")]
    # a car on the link's own lane presents neither door to the endpoints
    s2 = scene(Vehicle(x=0.0, y=52.5, lane=2))
    assert gated(s2) == ([], [])


def test_specular_membership_gates_fixed_relay_candidates():
    inside = Vehicle(x=5.0, y=52.0, lane=3)    # within 1 m of the midpoint
    outside = Vehicle(x=5.0, y=60.0, lane=3)   # facing, but off the strip
    s = scene(inside, outside)
    irs, ris = gated(s)
    assert irs == [(2, "left")]
    assert set(ris) == {(2, "left"), (3, "left")}


def test_range_gates_tunable_relay_candidates():
    far = Vehicle(x=5.0, y=400.0, lane=3)      # ~350 m from the receiver
    s = scene(far)
    assert gated(s)[1] == []
    assert gated(s, max_range_m=1000.0)[1] == [(2, "left")]
    with pytest.raises(ValueError):
        gated(s, max_range_m=0.0)


def test_door_pose_centers_the_surface_on_the_vehicle():
    # the element centroid sits on the door point in plan view.  Across the
    # road only a flat surface is checked: a curved one sags into the door by
    # its shape, whatever its placement.
    v = Vehicle(x=5.0, y=52.5, lane=3)
    spacing = SimConfig().element_spacing_m
    for n_elements in (100, 400):
        for side in ("left", "right"):
            door = door_center(v, side, 0.9)
            pose = door_pose(door, side, n_elements, spacing)
            assert pose.side == side
            for radius in (2.0, 1e9):
                geom = build_cirs_geometry(4, n_elements, radius, spacing, spacing, pose)
                centroid = element_positions(geom).mean(axis=0)
                assert centroid[1] == pytest.approx(door[1], abs=1e-9)
                if radius > 2.0:
                    assert centroid[0] == pytest.approx(door[0], abs=1e-9)


def test_count_blockers_ignores_the_relay_itself():
    relay = Vehicle(x=5.0, y=52.5, lane=3)
    blocker = Vehicle(x=0.0, y=50.0, lane=2)
    s = scene(relay, blocker)
    direct, legs = count_blockers(s, [(2, "left")])
    assert direct == 1
    # both relay segments clear: the relay's own body does not self-block
    assert legs.tolist() == [[0, 0]]


def test_blocked_modes_on_crafted_scenes():
    assert modes(scene()) == (False, False, False)

    blocker = Vehicle(x=0.0, y=50.0, lane=2)
    relay = Vehicle(x=5.0, y=52.5, lane=3)

    assert modes(scene(blocker)) == (True, True, True)  # no candidates
    assert modes(scene(blocker, relay)) == (True, False, False)

    # relay far from the specular strip helps only the tunable mode
    distant_relay = Vehicle(x=5.0, y=20.0, lane=3)
    assert modes(scene(blocker, distant_relay)) == (True, True, False)

    # the same scenes as one chunk, with their (IRS, RIS) candidate counts
    chunk = [scene(), scene(blocker), scene(blocker, relay), scene(blocker, distant_relay)]
    flags, candidates = blocked_modes(relay_doors(scenes_of(chunk)))
    assert flags.tolist() == [list(modes(s)) for s in chunk]
    assert candidates.tolist() == [[0, 0], [0, 0], [1, 1], [0, 1]]


def test_a_blocked_relay_segment_defeats_the_rescue():
    blocker = Vehicle(x=0.0, y=50.0, lane=2)
    relay = Vehicle(x=5.0, y=52.5, lane=3)
    # parked across the relay's second segment (door -> receiver)
    second_leg = Vehicle(x=2.5, y=80.0, lane=2, width=4.0)
    s = scene(blocker, relay, second_leg)
    assert modes(s) == (True, True, True)


# --- array layers against the one-vehicle-at-a-time oracles ---------------------


@given(
    rho=st.floats(0.0, 200.0),
    road_m=st.floats(50.0, 500.0),
    n_lanes=st.integers(1, 5),
    link_frac=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
# a crowded one-lane road that drops placements
@example(rho=200.0, road_m=50.0, n_lanes=1, link_frac=0.5, seed=0)
@settings(max_examples=200, deadline=None)
def test_generate_traffic_matches_the_one_draw_at_a_time_reference(
    rho, road_m, n_lanes, link_frac, seed
):
    road = RoadConfig(length=road_m, n_lanes=n_lanes)
    link = link_frac * (road_m - 5.0)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_traffic(road, rho, rng, link_distance_m=link)
    want = scalar_generate_traffic(road, rho, ref_rng, link_distance_m=link)
    assert got.vehicles == want.vehicles
    assert got.dropped == want.dropped
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a chunk draws the same scene, and the same number of draws, per generator
    rng = np.random.default_rng(seed)
    chunk = draw_scenes(road, rho, [rng], link_distance_m=link)
    for name in ("x", "y", "length", "width", "height"):
        assert getattr(chunk, name).tolist() == [getattr(v, name) for v in want.vehicles]
    assert chunk.scene.tolist() == [0] * len(want.vehicles)
    assert (chunk.txv.tolist(), chunk.rxv.tolist(), chunk.dropped.tolist()) == (
        [0], [1], [want.dropped]
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "road, rho, link",
    [
        (ROAD, 0.0, 100.0),
        (ROAD, 40.0, 100.0),
        # a saturated short road, where every scene drops placements
        (RoadConfig(length=60.0, n_lanes=1), 4000.0, 50.0),
    ],
    ids=["empty", "typical", "saturated"],
)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_generate_traffic_is_the_one_scene_chunk(road, rho, link, seed):
    # bench/checks.py recounts scenes through these rows, drops, endpoint
    # positions and footprints: they are exactly those of the chunk
    got = generate_traffic(road, rho, seeded(seed), link_distance_m=link)
    chunk = draw_scenes(road, rho, [seeded(seed)], link_distance_m=link)
    for name in ("x", "y", "length", "width", "height", "lane"):
        assert [getattr(v, name) for v in got.vehicles] == getattr(chunk, name).tolist()
    assert (got.txv, got.rxv) == (chunk.txv[0], chunk.rxv[0]) == (0, 1)
    assert got.dropped == chunk.dropped[0]
    assert (got.dropped > 0) == (rho == 4000.0)
    assert np.array_equal(np.stack([got.p_t, got.p_r]), chunk.ends[0])
    boxes = _boxes(chunk.x, chunk.y, chunk.length, chunk.width)
    assert [v.footprint for v in got.vehicles] == [tuple(box) for box in boxes.tolist()]


free_vehicles = st.lists(
    st.builds(
        Vehicle,
        x=st.one_of(st.floats(-15.0, 15.0), st.integers(-20, 20).map(lambda i: 0.9 * i)),
        y=st.one_of(st.floats(-50.0, 550.0), st.integers(0, 44).map(lambda i: 2.5 * i)),
        width=st.floats(1.0, 3.0),
        lane=st.integers(0, 4),
    ),
    max_size=20,
)


@st.composite
def scenes(draw):
    """Generated traffic, or hand-placed vehicles of any width around the link."""
    if draw(st.booleans()):
        return generate_traffic(
            ROAD, draw(st.floats(0.0, 60.0)), seeded(draw(st.integers(0, 2**32 - 1))),
            link_distance_m=draw(st.floats(10.0, 400.0)),
        )
    return scene(*draw(free_vehicles), link_m=draw(st.floats(1.0, 400.0)))


@given(scenes(), st.floats(0.5, 3.0), st.floats(10.0, 400.0), st.floats(0.2, 2.0))
@settings(max_examples=200, deadline=None)
def test_door_gating_matches_the_per_door_reference(s, door_length, max_range, height):
    assert gated(s, door_length, height, max_range) == (
        scalar_candidates_irs(s, door_length, height),
        scalar_candidates_ris(s, max_range, height),
    )


def test_door_gating_boundaries():
    # a left door at roof height, (90, 120) m from the transmitter: exactly 150 m
    s = scene(Vehicle(x=91.0, y=122.5, width=2.0, lane=4))
    for max_range, want in ((150.0, [(2, "left")]), (np.nextafter(150.0, 0.0), [])):
        assert gated(s, door_center_height=1.5, max_range_m=max_range)[1] == want
        assert scalar_candidates_ris(s, max_range, door_center_height=1.5) == want
    # a door on the specular strip's edge, |y - mid| = door_length_m, then past it
    for y, want in ((53.5, [(2, "left")]), (np.nextafter(53.5, 60.0), [])):
        s = scene(Vehicle(x=5.9, y=y, lane=3))
        assert gated(s, door_length_m=1.0)[0] == want
        assert scalar_candidates_irs(s, door_length_m=1.0) == want
    # a left door in the endpoints' plane x = 0 faces neither endpoint
    s = scene(Vehicle(x=0.9, y=52.5, lane=2))
    assert gated(s) == ([], [])
    assert scalar_candidates_irs(s) == scalar_candidates_ris(s) == []


# vehicles of mixed length: the pair lookup reaches back by the longest box
mixed_vehicles = st.lists(
    st.builds(
        Vehicle,
        x=st.one_of(st.floats(-15.0, 15.0), st.integers(-20, 20).map(lambda i: 0.9 * i)),
        y=st.one_of(st.floats(-50.0, 550.0), st.integers(0, 44).map(lambda i: 2.5 * i)),
        length=st.one_of(st.sampled_from([0.5, 5.0, 12.0, 40.0]), st.floats(0.1, 60.0)),
        width=st.floats(1.0, 3.0),
        lane=st.integers(0, 4),
    ),
    max_size=10,
)


@given(
    st.lists(
        st.tuples(mixed_vehicles, st.floats(1.0, 400.0)), min_size=1, max_size=4
    ),
    st.floats(10.0, 400.0),
)
@settings(max_examples=100, deadline=None)
def test_chunk_kernel_matches_the_per_scene_references(crafted, max_range):
    # every door of every scene of a chunk, counted in one pass, against the
    # one-segment-at-a-time reference; the chunk's flags against the
    # per-scene reference rule; and every field of the chunk's gate against
    # the per-door references
    scenes = [scene(*vehicles, link_m=link) for vehicles, link in crafted]
    chunk = scenes_of(scenes)
    seg_scene, starts, ends, relay, want = [], [], [], [], []
    for k, s in enumerate(scenes):
        doors = [(i, side) for i in range(2, len(s.vehicles)) for side in ("left", "right")]
        try:
            direct, legs = reference_counts(s, doors)
        except ValueError:
            # a door level with an endpoint: the chunk raises as the scene does
            with pytest.raises(ValueError):
                _segment_counts(
                    chunk, np.full(1 + 2 * len(doors), k),
                    *segments_of(s, doors), legs_relay(doors),
                )
            return
        seg, end = segments_of(s, doors)
        seg_scene += [k] * len(seg)
        starts += list(seg)
        ends += list(end)
        relay += legs_relay(doors).tolist()
        want += [direct, *(count for pair in legs for count in pair)]
    offsets = np.cumsum([0] + [len(s.vehicles) for s in scenes])[np.array(seg_scene)]
    relay = np.where(np.array(relay) < 0, -1, np.array(relay) + offsets)
    got = _segment_counts(chunk, np.array(seg_scene), np.array(starts), np.array(ends), relay)
    assert got.tolist() == want

    flags, candidates = blocked_modes(relay_doors(chunk, max_range_m=max_range))
    assert flags.tolist() == [list(reference_modes(s, max_range_m=max_range)) for s in scenes]
    assert candidates.tolist() == [
        [len(scalar_candidates_irs(s)), len(scalar_candidates_ris(s, max_range))]
        for s in scenes
    ]

    doors = relay_doors(chunk, max_range_m=max_range)
    offsets = np.cumsum([0] + [len(s.vehicles) for s in scenes])
    want = {name: [] for name in ("scene", "row", "points", "r", "irs", "ris", "legs")}
    for k, s in enumerate(scenes):
        irs, ris = scalar_candidates_irs(s), scalar_candidates_ris(s, max_range)
        gate = sorted(set(irs) | set(ris))
        points = [door_center(s.vehicles[i], side, 0.9) for i, side in gate]
        want["scene"] += [k] * len(gate)
        want["row"] += [(int(offsets[k]) + i, side) for i, side in gate]
        want["points"] += [p.tolist() for p in points]
        want["r"] += [
            [float(np.linalg.norm(p - s.p_t)), float(np.linalg.norm(p - s.p_r))]
            for p in points
        ]
        want["irs"] += [door in irs for door in gate]
        want["ris"] += [door in ris for door in gate]
        want["legs"] += [list(pair) for pair in reference_counts(s, gate)[1]]
    assert doors.scene.tolist() == want["scene"]
    assert door_pairs(doors) == want["row"]
    assert doors.points.reshape(-1, 3).tolist() == want["points"]
    assert doors.r.reshape(-1, 2).tolist() == want["r"]
    assert doors.irs.tolist() == want["irs"]
    assert doors.ris.tolist() == want["ris"]
    assert doors.legs.tolist() == want["legs"]
    assert doors.direct.tolist() == [reference_counts(s, [])[0] for s in scenes]


def segments_of(scenario, doors, door_center_height=0.9):
    """(starts, ends) of the direct ray and both legs of every door, in plan view."""
    p_t, p_r = scenario.p_t[:2], scenario.p_r[:2]
    points = [door_center(scenario.vehicles[i], side, door_center_height)[:2] for i, side in doors]
    starts = [p_t, *(q for point in points for q in (p_t, point))]
    ends = [p_r, *(q for point in points for q in (point, p_r))]
    return np.array(starts).reshape(-1, 2), np.array(ends).reshape(-1, 2)


def legs_relay(doors):
    """Relay row of the direct ray (-1) and of both legs of every door."""
    return np.array([-1, *(i for i, _ in doors for _ in range(2))])

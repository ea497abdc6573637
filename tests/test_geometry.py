"""Surface geometry, frames, road primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_v2v.geometry import (
    AnglePair,
    DoorPose,
    RoadConfig,
    SpecularArea,
    Vehicle,
    build_cirs_geometry,
    pose_local_angles,
    specular_area,
    vec3,
)
from conformal_v2v.scenario import Scenario
from oracles import door_center


def test_direction_components_follow_spherical_convention():
    # theta from +x in the xy plane, phi from +z
    a = AnglePair(0.3, 1.1)
    d = a.direction()
    assert d == pytest.approx(
        [math.sin(1.1) * math.cos(0.3), math.sin(1.1) * math.sin(0.3), math.cos(1.1)]
    )
    assert np.linalg.norm(d) == pytest.approx(1.0)


@given(
    theta=st.floats(-math.pi, math.pi, allow_nan=False),
    phi=st.floats(1e-3, math.pi - 1e-3),
)
def test_angle_direction_round_trip(theta, phi):
    back = AnglePair.from_direction(AnglePair(theta, phi).direction())
    assert back.phi == pytest.approx(phi, abs=1e-9)
    # azimuth is undefined at the poles, excluded by the phi range
    assert math.remainder(back.theta - theta, 2 * math.pi) == pytest.approx(0, abs=1e-9)


def test_angle_pair_rejects_elevation_outside_range():
    with pytest.raises(ValueError):
        AnglePair(0.0, -0.1)
    with pytest.raises(ValueError):
        AnglePair(0.0, math.pi + 0.1)


@given(
    m_half=st.integers(1, 40),
    n=st.integers(1, 10),
    radius=st.floats(0.2, 50.0),
    ratio=st.floats(1e-4, 0.5),
)
@settings(max_examples=60)
def test_adjacent_vertical_elements_are_one_chord_apart(m_half, n, radius, ratio):
    d_m = ratio * 2.0 * radius
    geom = build_cirs_geometry(2 * m_half, n, radius, d_m, 0.01)
    pos = geom.positions_local
    chords = np.linalg.norm(np.diff(pos[:, 0, :], axis=0), axis=1)
    assert chords == pytest.approx(np.full(2 * m_half - 1, d_m), rel=1e-9)


def test_elements_lie_on_cylinder_through_origin():
    geom = build_cirs_geometry(16, 3, 2.0, 0.3, 0.1)
    pos = geom.positions_local
    # cylinder axis along y at x = -R: (x + R)^2 + z^2 = R^2
    rr = (pos[..., 0] + 2.0) ** 2 + pos[..., 2] ** 2
    assert rr == pytest.approx(np.full_like(rr, 4.0))
    # and the m = 0 row passes through the mounting origin
    assert pos[geom.m_count // 2, 0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_normals_point_radially_outward():
    geom = build_cirs_geometry(10, 2, 3.0, 0.4, 0.1)
    axis = np.array([-3.0, 0.0, 0.0])
    for i in range(geom.m_count):
        radial = geom.positions_local[i, 0] - (axis + [0, geom.positions_local[i, 0, 1], 0])
        assert geom.normals_local[i] == pytest.approx(radial / 3.0, abs=1e-12)
        assert np.linalg.norm(geom.normals_local[i]) == pytest.approx(1.0)


def test_vertical_angles_are_antisymmetric_in_signed_index():
    geom = build_cirs_geometry(8, 1, 2.0, 0.2, 0.1)
    m = geom.m_signed
    psi = geom.psi
    for i, mi in enumerate(m):
        j = np.where(m == -mi)[0]
        if j.size:
            assert psi[i] == pytest.approx(-psi[j[0]])
    assert list(m) == list(range(-4, 4))


def test_flat_index_matches_row_major_layout():
    # row m + M/2 holds signed row m; flat element (m + M/2) * N + n is (m, n)
    geom = build_cirs_geometry(6, 5, 2.0, 0.2, 0.1)
    flat = geom.positions_local.reshape(geom.element_count, 3)
    for m in (-3, -1, 0, 2):
        for n in (0, 2, 4):
            row = m + 3
            assert geom.m_signed[row] == m
            want = [2.0 * (math.cos(geom.psi[row]) - 1.0), 0.1 * n, 2.0 * math.sin(geom.psi[row])]
            assert flat[row * 5 + n] == pytest.approx(want, abs=1e-12)


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_cirs_geometry(5, 4, 2.0, 0.1, 0.1)   # odd M
    with pytest.raises(ValueError):
        build_cirs_geometry(4, 0, 2.0, 0.1, 0.1)   # no columns
    with pytest.raises(ValueError):
        build_cirs_geometry(4, 4, -1.0, 0.1, 0.1)  # negative radius
    with pytest.raises(ValueError):
        build_cirs_geometry(4, 4, 2.0, 5.0, 0.1)   # chord exceeds diameter


def test_local_frame_aligns_door_normal_with_broadside():
    # row m's global normal, seen from the door frame, is broadside tilted up
    # by its arc angle: theta = 0, phi = pi/2 - psi_m
    for side in ("right", "left"):
        pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side=side)
        geom = build_cirs_geometry(8, 2, 2.0, 0.3, 0.1, pose)
        for m in (-2, 0, 3):
            local = pose_local_angles(pose, geom.normals[m + 4])
            assert local.theta == pytest.approx(0.0, abs=1e-9)
            assert local.phi == pytest.approx(math.pi / 2.0 - geom.psi[m + 4], abs=1e-9)


def test_left_door_frame_faces_negative_x():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="left")
    local = pose_local_angles(pose, vec3(-1.0, 0.0, 0.0))
    assert local.theta == pytest.approx(0.0, abs=1e-12)
    assert local.phi == pytest.approx(math.pi / 2.0)


def test_lane_centers_are_symmetric_about_road_axis():
    road = RoadConfig(length=500.0, n_lanes=5, lane_width=5.0)
    centers = [road.lane_center(i) for i in range(5)]
    assert centers == [-10.0, -5.0, 0.0, 5.0, 10.0]
    assert road.width == 25.0
    with pytest.raises(ValueError):
        road.lane_center(5)


def test_vehicle_box_and_doors():
    v = Vehicle(x=5.0, y=30.0, length=5.0, width=1.8, height=1.5, lane=3)
    assert v.footprint == (5.0 - 0.9, 5.0 + 0.9, 27.5, 32.5)
    s = Scenario(road=RoadConfig(), vehicles=(v, Vehicle(x=0.0, y=80.0, lane=2)))
    assert s.p_t == pytest.approx([5.0, 30.0, 1.5])
    assert s.p_r == pytest.approx([0.0, 80.0, 1.5])
    doors = [door_center(s.vehicles[0], side, 0.9) for side in ("right", "left")]
    assert doors == pytest.approx(np.array([[5.9, 30.0, 0.9], [4.1, 30.0, 0.9]]))
    # the outward door normal is the door frame's +x axis
    for side, normal in (("right", [1.0, 0.0, 0.0]), ("left", [-1.0, 0.0, 0.0])):
        assert DoorPose(np.zeros(3), side).rotation()[:, 0] == pytest.approx(normal)


def test_specular_area_sits_at_link_midpoint_spanning_all_lanes():
    road = RoadConfig()
    p_t = vec3(0.0, 2.5, 1.5)
    p_r = vec3(0.0, 102.5, 1.5)
    area = specular_area(p_t, p_r, road, door_length=1.0)
    assert area.center == pytest.approx([0.0, 52.5, 0.0])
    assert area.width == 25.0
    assert area.length == 2.0
    assert area.contains(vec3(10.0, 53.0, 0.9))
    assert not area.contains(vec3(10.0, 54.0, 0.9))
    assert not area.contains(vec3(13.0, 52.5, 0.9))


def test_specular_area_is_symmetric_in_endpoint_order():
    road = RoadConfig()
    a = specular_area(vec3(0, 10, 1.5), vec3(0, 60, 1.5), road, 1.0)
    b = specular_area(vec3(0, 60, 1.5), vec3(0, 10, 1.5), road, 1.0)
    assert a.center == pytest.approx(b.center)
    assert (a.width, a.length) == (b.width, b.length)


def test_specular_area_rejects_coincident_endpoints():
    road = RoadConfig()
    with pytest.raises(ValueError):
        specular_area(vec3(0, 5, 1.5), vec3(0, 5, 0.9), road, 1.0)
    # plan-view coordinates coincide when |a - b| <= 1e-8 + 1e-5 |b| (b from
    # p_r), which is 1.00001e-3 m along y at y = 100 m
    with pytest.raises(ValueError):
        specular_area(vec3(5e-9, 100.0009, 1.5), vec3(0, 100, 1.5), road, 1.0)
    for p_t in (vec3(0, 100.0011, 1.5), vec3(2e-8, 100, 1.5)):
        area = specular_area(p_t, vec3(0, 100, 1.5), road, 1.0)
        assert area.center[1] == pytest.approx(0.5 * (p_t[1] + 100.0))

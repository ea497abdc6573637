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
    arc_area,
    build_cirs_geometry,
    global_to_local_angles,
    local_to_global_angles,
    pose_local_angles,
    specular_area,
    surface_area,
    vec3,
)
from conformal_v2v.scenario import Scenario

WAVELENGTH_28 = 299_792_458.0 / 28e9
D_QUARTER = WAVELENGTH_28 / 4.0


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
    i0 = geom.flat_index(0, 0)
    assert geom.flat_positions_local[i0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


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
    geom = build_cirs_geometry(6, 5, 2.0, 0.2, 0.1)
    for m in (-3, -1, 0, 2):
        for n in (0, 2, 4):
            idx = geom.flat_index(m, n)
            row = m + 3
            assert idx == row * 5 + n
            assert geom.flat_positions_local[idx] == pytest.approx(
                geom.positions_local[row, n]
            )


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_cirs_geometry(5, 4, 2.0, 0.1, 0.1)   # odd M
    with pytest.raises(ValueError):
        build_cirs_geometry(4, 0, 2.0, 0.1, 0.1)   # no columns
    with pytest.raises(ValueError):
        build_cirs_geometry(4, 4, -1.0, 0.1, 0.1)  # negative radius
    with pytest.raises(ValueError):
        build_cirs_geometry(4, 4, 2.0, 5.0, 0.1)   # chord exceeds diameter


def test_surface_area_of_default_sized_door_panel():
    # 400 x 400 elements at quarter-wave spacing, R = 2 m, 28 GHz:
    # 1.07069 m arc x 1.07069 m length (hand-computed)
    geom = build_cirs_geometry(400, 400, 2.0, D_QUARTER, D_QUARTER)
    assert surface_area(geom) == pytest.approx(1.1463716, rel=1e-6)
    assert arc_area(400, 400, 2.0, D_QUARTER, D_QUARTER) == pytest.approx(
        surface_area(geom)
    )


def test_arc_area_exceeds_chord_area_slightly():
    area = arc_area(100, 50, 1.0, 0.01, 0.02)
    chord_area = 100 * 0.01 * 50 * 0.02
    assert area > chord_area
    assert area / chord_area == pytest.approx(1.0, abs=1e-4)


@given(
    theta=st.floats(-math.pi, math.pi),
    phi=st.floats(0.05, math.pi - 0.05),
    yaw=st.floats(-math.pi, math.pi),
    side=st.sampled_from(["right", "left"]),
    m=st.integers(-4, 3),
)
@settings(max_examples=80)
def test_element_frame_angle_round_trip(theta, phi, yaw, side, m):
    pose = DoorPose(position=vec3(1.0, -2.0, 0.9), side=side, yaw=yaw)
    geom = build_cirs_geometry(8, 2, 2.0, 0.3, 0.1, pose)
    idx = geom.flat_index(m, 0)
    local = global_to_local_angles(geom, idx, AnglePair(theta, phi))
    back = local_to_global_angles(geom, idx, local)
    assert np.dot(back.direction(), AnglePair(theta, phi).direction()) == pytest.approx(
        1.0, abs=1e-9
    )


def test_local_frame_aligns_door_normal_with_broadside():
    # a ray along the element's outward normal must appear at theta=0, phi=pi/2
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="right", yaw=0.0)
    geom = build_cirs_geometry(8, 2, 2.0, 0.3, 0.1, pose)
    for m in (-2, 0, 3):
        idx = geom.flat_index(m, 1)
        normal = geom.normals[m + 4]
        local = global_to_local_angles(geom, idx, AnglePair.from_direction(normal))
        assert local.theta == pytest.approx(0.0, abs=1e-9)
        assert local.phi == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_left_door_frame_faces_negative_x():
    pose = DoorPose(position=vec3(0.0, 0.0, 0.9), side="left", yaw=0.0)
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
    s = Scenario(
        road=RoadConfig(), x=[5.0, 0.0], y=[30.0, 80.0], lane=[3, 2],
        length=[5.0, 5.0], width=[1.8, 1.8], height=[1.5, 1.5], txv=0, rxv=1,
    )
    assert s.vehicles[0] == v
    assert s.footprints[0].tolist() == list(v.footprint)
    assert s.p_t == pytest.approx([5.0, 30.0, 1.5])
    doors = s.door_points([(0, "right"), (0, "left")], 0.9)
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
    with pytest.raises(ValueError):
        specular_area(vec3(0, 5, 1.5), vec3(0, 5, 0.9), RoadConfig(), 1.0)

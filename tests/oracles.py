"""Dense reference implementations that the package's fast paths are checked against.

Phase oracles return dense (M, N) raw phase arrays built from closed forms
that the package does not carry; the gain oracle sums the four dense
MN-vectors of the plane-wave cascade element by element; the cascade oracle
builds the (MN, K) and (K, MN) segment matrices entry by entry, and the
selection oracle scores every beam pair on one channel matrix.  None of
them uses the row + column factorization that ``PhaseProfile``,
``channel.normalized_gain`` and ``channel.cascaded_channels`` rely on.
``per_antenna_segment`` is the cascade kernel with every row term taken
inside its antenna loop, the bitwise reference of the kernel that takes
them for all antennas at once.  The
scene oracles place traffic one uniform draw at a time and gate relay doors
one ``Vehicle`` at a time, where ``scenario`` works on per-vehicle arrays;
``scenes_of`` joins hand-built scenes into the chunk the package gates.
``snell_residual`` checks a phase gradient against the generalized
reflection law.
"""

import math
from dataclasses import dataclass

import numpy as np

from conformal_v2v.channel import (
    MIN_DISTANCE_WAVELENGTHS,
    antenna_positions,
    cosine_rolloff,
    pattern_from_cosine,
    unit_cell_gain,
)
from conformal_v2v.geometry import Vehicle
from conformal_v2v.link import beam_amplitude
from conformal_v2v.phase import PHASE_SIGN
from conformal_v2v.scenario import MAX_RETRIES, Scenario, Scenes

TWO_PI = 2.0 * math.pi


def specular_phase(geometry, thetabar, phibar, wavelength):
    """Profile for the specular pair (thetabar, phibar) -> (-thetabar, phibar).

    Closed form of the general rule, with no column term:
    Phi_m = -s*(4*pi*R/lambda)[(cos psi_m - 1) sin(phibar) cos(thetabar)
            + sin(psi_m) cos(phibar)],
    which reduces to -s*(4*pi*R/lambda)(cos psi_m - 1) cos(thetabar) for the
    horizontal design pair phibar = pi/2.
    """
    psi = geometry.psi
    raw_m = (
        -PHASE_SIGN
        * (4.0 * math.pi * geometry.radius / wavelength)
        * (
            (np.cos(psi) - 1.0) * math.sin(phibar) * math.cos(thetabar)
            + np.sin(psi) * math.cos(phibar)
        )
    )
    return np.repeat(raw_m[:, None], geometry.n_count, axis=1)


def elevation_phase(geometry, phi_i, phi_o, wavelength):
    """Profile for incidence and reflection in the elevation (x-z) plane.

    Product form of the general rule at theta_i = theta_o = 0:
    Phi_m = -s*(8*pi*R/lambda) sin(psi/2) cos((phi_o-phi_i)/2) cos((phi_o+phi_i+psi)/2)
    """
    psi = geometry.psi
    raw_m = (
        -PHASE_SIGN
        * (8.0 * math.pi * geometry.radius / wavelength)
        * np.sin(psi / 2.0)
        * math.cos((phi_o - phi_i) / 2.0)
        * np.cos((phi_o + phi_i + psi) / 2.0)
    )
    return np.repeat(raw_m[:, None], geometry.n_count, axis=1)


def azimuth_phase(geometry, theta_i, theta_o, wavelength):
    """Profile for incidence and reflection in the azimuth (x-y) plane.

    Product form of the general rule at phi_i = phi_o = pi/2:
    Phi_{m,n} = -s*(4*pi/lambda) cos((to-ti)/2) [R(cos psi - 1) cos((to+ti)/2)
                + y sin((to+ti)/2)]
    """
    half_diff = (theta_o - theta_i) / 2.0
    half_sum = (theta_o + theta_i) / 2.0
    x = geometry.radius * (np.cos(geometry.psi) - 1.0)
    y = geometry.d_n * np.arange(geometry.n_count)
    return (
        -PHASE_SIGN
        * (4.0 * math.pi / wavelength)
        * math.cos(half_diff)
        * (x[:, None] * math.cos(half_sum) + y[None, :] * math.sin(half_sum))
    )


def planar_phase(m_count, n_count, d_m, d_n, incidence, reflection, wavelength):
    """Flat-surface limit of the general rule: elements on a planar y-z grid."""
    di, do = incidence.direction(), reflection.direction()
    z = d_m * (np.arange(m_count) - m_count // 2)
    y = d_n * np.arange(n_count)
    return -PHASE_SIGN * (TWO_PI / wavelength) * (
        y[None, :] * (di[1] + do[1]) + z[:, None] * (di[2] + do[2])
    )


def snell_residual(f_x, f_z, grad_phi, k, kbar):
    """Tangential defect of the generalized reflection law at one point.

    The surface is y = f(x, z) with slopes (f_x, f_z); its unit normal is
    u = [-f_x, 1, -f_z]/sqrt(1 + f_x^2 + f_z^2).  ``k`` and ``kbar`` are the
    incident and reflected wavevectors, -(2 pi / lambda) and +(2 pi / lambda)
    times the ``AnglePair.direction()`` of each ray.  Returns the norm of the
    tangential part of (kbar - k - grad_phi); zero means grad_phi realizes
    the requested reflection.
    """
    vectors = [np.asarray(v, dtype=float) for v in (grad_phi, k, kbar)]
    for name, v in zip(("grad_phi", "k", "kbar"), vectors):
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be a finite 3-vector")
    grad_phi, k, kbar = vectors
    u = np.array([-f_x, 1.0, -f_z]) / math.sqrt(1.0 + f_x * f_x + f_z * f_z)
    r = kbar - k - grad_phi
    r_tan = r - np.dot(r, u) * u
    return float(np.linalg.norm(r_tan))


def element_positions(geometry):
    """Global element positions, (MN, 3), row-major over (row, column)."""
    local = geometry.positions_local.reshape(geometry.element_count, 3)
    return geometry.pose.position + local @ geometry.pose.rotation().T


def reflection_matrix(phases_raw):
    """Diagonal of the unit-amplitude reflection matrix as a flat vector (MN,).

    Accepts any dense (M, N) phase array, separable over rows and columns
    or not.
    """
    return np.exp(1j * np.asarray(phases_raw, dtype=float)).ravel()


def plane_wave_vectors(geometry, incidence, reflection, wavelength, q):
    """Single-antenna far-field segment vectors (t, c) in the door frame, (MN,).

    Plane-wave limit of the spherical phasor: exp(-j 2 pi r / lambda) ->
    common factor times exp(+j (2 pi / lambda) d_hat . p) for unit direction
    d_hat toward the far endpoint; ``incidence`` and ``reflection`` are those
    (3,) directions.
    """
    pos = geometry.positions_local.reshape(geometry.element_count, 3)
    normals = np.repeat(geometry.normals_local, geometry.n_count, axis=0)
    k0 = TWO_PI / wavelength

    def vec(d):
        rho = pattern_from_cosine(normals @ d, q)
        return rho * np.exp(1j * k0 * (pos @ d))

    return vec(incidence), vec(reflection)


def dense_normalized_gain(geometry, phi, incidence, reflection, wavelength, q):
    """|sum_l c_l phi_l t_l|^2 over the three Frobenius norms, dB, from dense vectors.

    ``phi`` is a flat (MN,) coefficient vector, for instance from
    ``reflection_matrix``; ``incidence`` and ``reflection`` are one (3,)
    unit direction each.
    """
    t, c = plane_wave_vectors(geometry, incidence, reflection, wavelength, q)
    phi = np.asarray(phi)
    if phi.shape != t.shape:
        raise ValueError(f"profile size {phi.shape} vs geometry {t.shape}")
    if not (np.any(t) and np.any(c) and np.any(phi)):
        return -math.inf
    # scale-free in t and c; a peak of 1 keeps the squares from underflowing
    t = t / np.max(np.abs(t))
    c = c / np.max(np.abs(c))
    nt = np.linalg.norm(t)
    nc = np.linalg.norm(c)
    nphi = np.linalg.norm(phi)
    coherent = abs(np.sum(c * phi * t)) ** 2 / (nt**2 * nc**2 * nphi**2)
    if coherent == 0:
        return -math.inf
    return 10.0 * math.log10(coherent)


def dense_cascaded_channels(
    geometry,
    p_t,
    p_r,
    k_antennas,
    wavelength,
    q=0.285,
    phases=(0.0, 0.0),
    amp_scale=1.0,
):
    """Entry-exact segment matrices (H_tc of shape (MN, K), H_cr of (K, MN)).

    The same entries as ``channel.cascaded_channels`` before beamforming,
    from the dense (MN, K, 3) element-to-antenna differences: H_tc f and
    w^H H_cr, reshaped to (M, N), are that kernel's two outputs.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if amp_scale <= 0:
        raise ValueError("amp_scale must be positive")
    elem_pos = element_positions(geometry)                 # (MN, 3)
    normals = np.repeat(geometry.normals, geometry.n_count, axis=0)  # (MN, 3)
    tx = antenna_positions(p_t, k_antennas, wavelength / 2.0)
    rx = antenna_positions(p_r, k_antennas, wavelength / 2.0)

    seg_amp = (
        unit_cell_gain(q) * geometry.d_m * geometry.d_n * wavelength**2
        / (64.0 * math.pi**3)
    ) ** 0.25
    seg_amp *= math.sqrt(amp_scale)
    xi_t, xi_r = phases

    def segment(antennas, xi):
        diff = elem_pos[:, None, :] - antennas[None, :, :]   # (MN, K, 3) element<-antenna
        r = np.linalg.norm(diff, axis=2)                     # (MN, K)
        if np.min(r) < MIN_DISTANCE_WAVELENGTHS * wavelength:
            raise ValueError(
                f"antenna-element distance {np.min(r):.3g} m violates the "
                f"{MIN_DISTANCE_WAVELENGTHS} wavelength model guard"
            )
        ray = -diff / r[:, :, None]                          # unit element->antenna
        u_local = np.einsum("lki,li->lk", ray, normals)
        rho_elem = cosine_rolloff(u_local, q)
        sin_phi = np.sqrt(np.maximum(0.0, 1.0 - ray[:, :, 2] ** 2))
        rho_end = pattern_from_cosine(sin_phi, q)
        return (
            (seg_amp / r)
            * rho_elem
            * rho_end
            * np.exp(-1j * (TWO_PI / wavelength * r - xi))
        )

    h_tc = segment(tx, xi_t)           # (MN, K)
    h_cr = segment(rx, xi_r).T.copy()  # (K, MN)
    return h_tc, h_cr


def per_antenna_segment(geometry, antennas, weights, xi, wavelength, q):
    """``channel._beamformed_segment`` with its row terms taken per antenna.

    Each antenna computes its own (M,)-vector terms (the across-axis part
    of A = row_m - antenna and its square, the cosine numerator c and its
    square on lit rows, the horizontal square) and the weight's phase and
    modulus, then runs the same (M, N) operations in the same order, so
    its output is bit-identical to the kernel's.
    """
    rot = geometry.pose.rotation()
    rows = geometry.pose.position + geometry.row_positions_local @ rot.T
    axis = rot[:, 1]
    normals = geometry.normals
    along = (rows - antennas[0]) @ axis
    along_sq = np.add(along[:, None], geometry.column_offsets_local)
    np.square(along_sq, out=along_sq)
    shape = along_sq.shape
    re, im = np.zeros(shape), np.zeros(shape)
    r, amp, work, t = (np.empty(shape) for _ in range(4))
    for antenna, weight in zip(antennas, weights):
        rel = rows - antenna
        across = rel - along[:, None] * axis
        across_sq = np.einsum("mi,mi->m", across, across)
        np.add(along_sq, across_sq[:, None], out=r)
        cos_num = -np.einsum("mi,mi->m", rel, normals)
        cos_num2 = np.where(cos_num > 0.0, cos_num * cos_num, 0.0)
        np.divide(cos_num2[:, None], r, out=amp)
        np.minimum(amp, 1.0, out=amp)
        level = across[:, :2]
        np.add(along_sq, np.einsum("mi,mi->m", level, level)[:, None], out=work)
        amp *= work
        amp /= r
        np.power(amp, 0.5 * q, out=amp, where=amp > 0.0)
        np.sqrt(r, out=r)
        amp /= r
        np.divide(r, wavelength, out=work)
        np.rint(work, out=t)
        work -= t
        work *= -math.pi
        work += 0.5 * (xi + np.angle(weight))
        np.tan(work, out=t)
        np.multiply(t, t, out=work)
        work += 1.0
        np.divide(2.0 * abs(weight), work, out=work)
        t *= work
        t *= amp
        im += t
        work -= abs(weight)
        work *= amp
        re += work
    return re + 1j * im


def total_channel(h_d, relays):
    """End-to-end channel H_d + sum_c H_cr diag(phi) H_tc.

    ``relays`` holds (H_cr, phi_diagonal_vector, H_tc) triples.
    """
    h = np.array(h_d, dtype=complex, copy=True)
    for h_cr, phi, h_tc in relays:
        phi = np.asarray(phi)
        if phi.ndim != 1 or h_cr.shape[1] != phi.shape[0] or h_tc.shape[0] != phi.shape[0]:
            raise ValueError(
                f"relay shapes mismatch: H_cr {h_cr.shape}, phi {phi.shape}, H_tc {h_tc.shape}"
            )
        contrib = h_cr @ (phi[:, None] * h_tc)
        if contrib.shape != h.shape:
            raise ValueError(f"relay contribution {contrib.shape} vs H_d {h.shape}")
        h += contrib
    return h


@dataclass(frozen=True)
class LinkResult:
    selected_index: int
    powers: np.ndarray          # |w^H H f|^2 per beam pair, in the given order

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "powers", powers)
        if not 0 <= self.selected_index < powers.size:
            raise ValueError("selected_index out of range")
        if powers[self.selected_index] < np.max(powers):
            raise ValueError("selected pair must attain the maximum power")

    @property
    def received_power(self) -> float:
        return float(self.powers[self.selected_index])


def select_beams(beams, h) -> LinkResult:
    """Pick the (f, w) pair with maximum |w^H H f|^2 on one channel matrix.

    Ties resolve to the earliest pair in ``beams``.
    """
    powers = np.array([abs(beam_amplitude(h, f, w)) ** 2 for f, w in beams])
    return LinkResult(selected_index=int(np.argmax(powers)), powers=powers)


def beamformed(geometry, h_tc, h_cr, f, w):
    """H_tc f and w^H H_cr of dense segment matrices, each reshaped to (M, N)."""
    shape = (geometry.m_count, geometry.n_count)
    a = h_tc @ np.asarray(f, dtype=complex)
    b = np.asarray(w, dtype=complex).conj() @ h_cr
    return a.reshape(shape), b.reshape(shape)


# --- scenes: one vehicle and one door at a time --------------------------------


def scene_from_vehicles(road, vehicles, dropped=0):
    """``Scenario`` whose rows are the given ``Vehicle`` objects, TxV and RxV first."""
    return Scenario(road=road, vehicles=tuple(vehicles), dropped=dropped)


def scenes_of(scenarios):
    """The given ``Scenario`` objects as one ``Scenes`` chunk, in order."""
    road = scenarios[0].road
    if any(s.road != road for s in scenarios):
        raise ValueError("the scenes of a chunk must share one road")
    sizes = [len(s.vehicles) for s in scenarios]
    offsets = np.cumsum([0, *sizes[:-1]])
    vehicles = [v for s in scenarios for v in s.vehicles]

    def rows(name, dtype=float):
        return np.array([getattr(v, name) for v in vehicles], dtype=dtype)

    return Scenes(
        road=road,
        **{name: rows(name) for name in ("x", "y", "length", "width", "height")},
        lane=rows("lane", int),
        scene=np.repeat(np.arange(len(sizes)), sizes),
        txv=offsets + [s.txv for s in scenarios],
        dropped=np.array([s.dropped for s in scenarios]),
    )


def door_center(vehicle, side, door_height):
    """Mid-door reference point on the requested side of one vehicle."""
    sign = 1.0 if side == "right" else -1.0
    return np.array([vehicle.x + sign * vehicle.width / 2.0, vehicle.y, door_height])


def scalar_generate_traffic(
    road,
    rho,
    rng,
    link_distance_m=100.0,
    vehicle_length_m=5.0,
    vehicle_width_m=1.8,
    vehicle_height_m=1.5,
):
    """``generate_traffic`` drawing one uniform per attempt and testing each
    attempt against every vehicle already on its lane."""
    center = road.n_lanes // 2
    y_t = vehicle_length_m / 2.0
    y_r = y_t + link_distance_m

    def make(lane, y):
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
            for _ in range(MAX_RETRIES):
                y = float(rng.uniform(0.0, road.length))
                if all(abs(y - other) >= vehicle_length_m for other in occupied):
                    occupied.append(y)
                    vehicles.append(make(lane, y))
                    placed = True
                    break
            if not placed:
                dropped += 1
    return scene_from_vehicles(road, vehicles, dropped=dropped)


def _faces_both(vehicle, side, p_t, p_r, door_center_height):
    door = door_center(vehicle, side, door_center_height)
    normal = np.array([1.0 if side == "right" else -1.0, 0.0, 0.0])
    return (
        float(np.dot(p_t - door, normal)) > 0.0
        and float(np.dot(p_r - door, normal)) > 0.0
    )


def scalar_candidates_irs(scenario, door_length_m=1.0, door_center_height=0.9):
    """Doors on the specular strip that face both endpoints, door by door.

    The strip spans every lane across the road and two door lengths along
    it, centered on the endpoints' midpoint.
    """
    mid_y = 0.5 * (scenario.p_t[1] + scenario.p_r[1])
    out = []
    for i, vehicle in enumerate(scenario.vehicles):
        if i in (scenario.txv, scenario.rxv):
            continue
        for side in ("left", "right"):
            door = door_center(vehicle, side, door_center_height)
            inside = (
                abs(door[0]) <= scenario.road.width / 2.0
                and abs(door[1] - mid_y) <= door_length_m
            )
            if inside and _faces_both(
                vehicle, side, scenario.p_t, scenario.p_r, door_center_height
            ):
                out.append((i, side))
    return out


def scalar_candidates_ris(scenario, max_range_m=150.0, door_center_height=0.9):
    """Doors within range of both endpoints that face both, door by door."""
    out = []
    for i, vehicle in enumerate(scenario.vehicles):
        if i in (scenario.txv, scenario.rxv):
            continue
        for side in ("left", "right"):
            door = door_center(vehicle, side, door_center_height)
            if (
                np.linalg.norm(door - scenario.p_t) <= max_range_m
                and np.linalg.norm(door - scenario.p_r) <= max_range_m
                and _faces_both(
                    vehicle, side, scenario.p_t, scenario.p_r, door_center_height
                )
            ):
                out.append((i, side))
    return out

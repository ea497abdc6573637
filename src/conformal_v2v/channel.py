"""Direct and cascaded channel assembly, path-loss statistics, normalized gains.

Amplitude bookkeeping follows the far-field RIS path-loss law of Tang et al.
(IEEE TWC 2021),

    P_r / P_t = G_t G_r G (MN)^2 d_m d_n lambda^2 F(t) F(r) / (64 pi^3 r_t^2 r_r^2),

in which the unit-cell gain G = 2(2q+1) enters ONCE and F = u^{2q} is the
normalized element power pattern.  The per-segment entry between one
endpoint antenna and one surface element therefore carries amplitude
(G d_m d_n lambda^2 / (64 pi^3))^{1/4} u^q / r with the exact spherical
distance r, times the endpoint pattern; a cascaded antenna-element-antenna
pair has power gain G_t G_r G d_m d_n lambda^2 F F / (64 pi^3 r_t^2 r_r^2).
Direct entries carry 10^(-PL/20) with PL from the 3GPP-style law below.
Phases are exact spherical phasors exp(-j 2 pi r / lambda), which keeps the
model valid in the near field of large surfaces.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import CirsGeometry, azimuth
from .phase import PhaseProfile

TWO_PI = 2.0 * math.pi

# enforce far-field of a single ELEMENT (not of the whole surface): the
# per-element amplitude model breaks down when an antenna sits closer than
# a few wavelengths to the nearest element
MIN_DISTANCE_WAVELENGTHS = 10.0

# skeleton of a door's cascade product (``_skeleton``): the evenly spaced
# columns of its first pass, the probe columns that check each pass, and the
# residual on them, relative to their norm, at which a pass is accepted
SKELETON_START_COLUMNS = 12
SKELETON_PROBES = 4
SKELETON_TOL = 1e-11


def mean_pathloss_db(distance_m: float, f_ghz: float) -> float:
    """Deterministic LoS term 32.4 + 20 log10(r [m]) + 20 log10(f [GHz])."""
    if distance_m <= 0 or f_ghz <= 0:
        raise ValueError("distance and frequency must be positive")
    return 32.4 + 20.0 * math.log10(distance_m) + 20.0 * math.log10(f_ghz)


def blockage_mean_db(blockers: int, mu1_db: float = 15.0, step_db: float = 6.0) -> float:
    """Mean extra attenuation for b blockers: 0 for b=0, mu1 + step*(b-1) else."""
    if blockers < 0:
        raise ValueError(f"blocker count must be >= 0, got {blockers}")
    if blockers == 0:
        return 0.0
    return mu1_db + step_db * (blockers - 1)


def sample_blockage_db(
    blockers: int,
    rng: np.random.Generator,
    mu1_db: float = 15.0,
    step_db: float = 6.0,
    sigma_db: float = 4.0,
) -> float:
    """Draw the blockage attenuation A_b ~ N(mu_b, sigma_b^2), 0 when b = 0."""
    if blockers == 0:
        return 0.0
    return float(rng.normal(blockage_mean_db(blockers, mu1_db, step_db), sigma_db))


def sample_direct_pathloss(
    distance_m: float,
    f_ghz: float,
    blockers: int,
    rng: np.random.Generator,
    sigma_shadow_db: float = 3.0,
    block_mu1_db: float = 15.0,
    block_step_db: float = 6.0,
    block_sigma_db: float = 4.0,
) -> float:
    """Sample PL = mu_LoS + A_b + chi in dB, with chi ~ N(0, sigma_sh^2)."""
    mu_los = mean_pathloss_db(distance_m, f_ghz)
    blockage = sample_blockage_db(blockers, rng, block_mu1_db, block_step_db, block_sigma_db)
    shadowing = float(rng.normal(0.0, sigma_shadow_db)) if sigma_shadow_db > 0 else 0.0
    return mu_los + blockage + shadowing


# --- antenna arrays and patterns -------------------------------------------


def steering_vector(k_antennas: int, theta: float) -> np.ndarray:
    """Unit-amplitude ULA steering [1, ..., exp(-j pi (K-1) cos theta)].

    The phase step pi cos(theta) is that of antennas lambda/2 apart along
    global x (``antenna_positions`` at ``wavelength / 2``), toward a
    plan-view azimuth theta.  ||s||^2 = K.
    """
    if k_antennas < 1:
        raise ValueError(f"k_antennas must be >= 1, got {k_antennas}")
    k = np.arange(k_antennas)
    return np.exp(-1j * math.pi * k * math.cos(theta))


def antenna_positions(
    center: np.ndarray, k_antennas: int, spacing_m: float
) -> np.ndarray:
    """Antenna coordinates of a ULA along global x, centered on ``center``."""
    if k_antennas < 1 or spacing_m <= 0:
        raise ValueError("k_antennas must be >= 1 and spacing positive")
    offsets = (np.arange(k_antennas) - (k_antennas - 1) / 2.0) * spacing_m
    pos = np.tile(np.asarray(center, dtype=float), (k_antennas, 1))
    pos[:, 0] += offsets
    return pos


def unit_cell_gain(q: float) -> float:
    """Boresight power gain G = 2(2q+1) of the cos^{2q} front-hemisphere pattern."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return 2.0 * (2.0 * q + 1.0)


def cosine_rolloff(u, q: float):
    """Normalized amplitude pattern u^q for u > 0, else 0 (1 at boresight)."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    u = np.asarray(u, dtype=float)
    out = np.where(u > 0.0, np.power(np.clip(u, 0.0, 1.0), q), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def pattern_from_cosine(u, q: float):
    """Element amplitude pattern sqrt(2(2q+1)) * u^q for u > 0, else 0.

    u = cos(theta) sin(phi) is the cosine between the boresight and the ray;
    the q-th power shapes the rolloff and the scale sqrt(G) makes the pattern
    power-normalized over the front hemisphere.
    """
    return math.sqrt(unit_cell_gain(q)) * cosine_rolloff(u, q)


def endpoint_pattern(direction: np.ndarray, q: float):
    """Antenna-element gain at the TxV/RxV side for a global ray direction.

    Vertically oriented radiator: azimuth-omnidirectional, elevation rolloff
    sqrt(2(2q+1)) sin(phi)^q.  A fixed horizontal boresight would null the
    along-road or cross-road rays that both the direct and relayed links use.
    """
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d, axis=-1)
    if np.any(norm == 0):
        raise ValueError("zero direction vector")
    sin_phi = np.sqrt(np.maximum(0.0, 1.0 - (d[..., 2] / norm) ** 2))
    return pattern_from_cosine(sin_phi, q)


# --- channel matrices -------------------------------------------------------


def direct_channel(
    p_t: np.ndarray,
    p_r: np.ndarray,
    k_antennas: int,
    loss_db: float,
    phase: float = 0.0,
    q: float = 0.285,
) -> np.ndarray:
    """Rank-one direct channel H_d = alpha rho_r rho_t s s^H, shape (K, K).

    The steering vector s is evaluated at the azimuth of the TxV->RxV ray
    (the shared plane-wave direction); alpha carries the path loss and the
    path phase ``phase``, as ``cascaded_channels`` takes the path phases of
    the relayed legs.  s has unit-amplitude entries, so every entry carries
    the amplitude |alpha| rho rho that the cascaded segments carry per
    antenna pair.
    """
    theta_d = azimuth(p_t, p_r)
    d = np.asarray(p_r, dtype=float) - np.asarray(p_t, dtype=float)
    rho_t = endpoint_pattern(d, q)
    rho_r = endpoint_pattern(-d, q)
    alpha = 10.0 ** (-loss_db / 20.0) * np.exp(1j * phase)
    s = steering_vector(k_antennas, theta_d)
    return alpha * rho_r * rho_t * np.outer(s, s.conj())


def cascaded_channels(
    geometry: CirsGeometry,
    p_t: np.ndarray,
    p_r: np.ndarray,
    k_antennas: int,
    wavelength: float,
    f: np.ndarray,
    w: np.ndarray,
    q: float = 0.285,
    phases: tuple[float, float] = (0.0, 0.0),
    amp_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Door product s = a * b of the beamformed segments, as factors (left, right).

    a = H_tc f and b = w^H H_cr are (M, N); H_tc (MN, K) and H_cr (K, MN)
    are the entry-exact segment channels.  Each entry combines the
    per-segment amplitude (G d_m d_n lambda^2 / (64 pi^3))^{1/4} / r
    (``amp_scale`` multiplies the cascade PRODUCT, so each segment carries
    its square root), the endpoint antenna pattern, the normalized element
    rolloff u^q at the local ray cosine, and the exact spherical phasor.  The
    unit-cell gain G enters the cascade once, as in the far-field law of the
    module docstring: G^{1/4} per segment.  ``phases = (xi_t, xi_r)`` are the
    path phases of the TxV and RxV legs, one per segment; they belong to the
    door's legs, not to the surface, so every surface scored on the same
    door takes the same pair.

    A relay scored with the beam pair (f, w) and reflection coefficients phi
    contributes w^H H_cr diag(phi) H_tc f = sum(phi * s), which
    ``PhaseProfile.weighted_sum(left, right)`` evaluates from the factors
    with s ~ left @ right, left (M, r) and right (r, N).  s is numerically
    low-rank: an element's squared distance to an antenna is a row term plus
    a column term, and only their mixed curvature adds rank.  So s is taken
    from a skeleton (see ``_skeleton``) whose entries come from
    ``_beamformed_segment`` on row and column index sets of the surface,
    each column evaluated at most once; the dense matrices are never built,
    and s itself only where the skeleton is the whole surface.  The row
    terms of each leg are taken once (``_leg``), and the near-field guard
    reads them for the closest antenna-element pair over every element of
    the surface (``_near_field_guard``), not over the index sets.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if amp_scale <= 0:
        raise ValueError("amp_scale must be positive")
    f = np.asarray(f, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if f.shape != (k_antennas,) or w.shape != (k_antennas,):
        raise ValueError(
            f"beams {f.shape} and {w.shape} must both have k_antennas = {k_antennas} entries"
        )
    xi_t, xi_r = phases
    # lambda/2 apart, the spacing that steering_vector's phase step encodes
    tx = _leg(geometry, antenna_positions(p_t, k_antennas, wavelength / 2.0), f, xi_t)
    rx = _leg(geometry, antenna_positions(p_r, k_antennas, wavelength / 2.0), w.conj(), xi_r)
    offsets = geometry.column_offsets_local
    for leg in (tx, rx):
        _near_field_guard(leg, offsets, wavelength)

    # segment amplitude times the endpoint pattern's peak sqrt(G)
    scale = (
        unit_cell_gain(q) * geometry.d_m * geometry.d_n * wavelength**2
        / (64.0 * math.pi**3)
    ) ** 0.25
    scale *= math.sqrt(amp_scale) * math.sqrt(unit_cell_gain(q))

    def product(rows, cols) -> np.ndarray:
        a = scale * _beamformed_segment(tx, rows, offsets[cols], wavelength, q)
        b = scale * _beamformed_segment(rx, rows, offsets[cols], wavelength, q)
        return a * b

    return _skeleton(geometry.m_count, geometry.n_count, product)


def _skeleton(m: int, n: int, product) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) with the (m, n) product s ~ left @ right, from index sets.

    A CUR-type skeleton whose rows are chosen by the discrete empirical
    interpolation method (DEIM: Chaturantabut and Sorensen, SIAM J. Sci.
    Comput. 32, 2010; for CUR, Sorensen and Embree, SIAM J. Sci. Comput. 38,
    2016).  ``product(rows, cols)`` evaluates s[rows][:, cols] on an index
    array along one axis and ``slice(None)`` along the other.  The columns
    of s are smooth in n, since lighting depends on the row and the antenna
    only, so evenly spaced columns J span them: left = U, the left singular
    vectors of s[:, J] whose singular values exceed SKELETON_TOL / 10 of the
    largest (an all-zero product keeps none).  DEIM picks one row of s per
    column of U, so U[I] is square and well conditioned, and right =
    U[I]^{-1} s[I, :] interpolates s on those rows.

    The rows of s are not smooth, so each pass checks J on SKELETON_PROBES
    probe columns P taken from the midpoints of J's gaps, and is accepted
    once the DEIM residual on them is at most SKELETON_TOL of their norm.
    The interpolant lies in span(U), so its residual is never below that of
    the orthogonal projection, |P - U U^H P|: a pass whose projection
    residual already exceeds the bound fails without the row pass.  The
    first pass takes SKELETON_START_COLUMNS columns, and a failed pass adds
    every midpoint of J's gaps to J (12 -> 23 -> 45 -> ...), so its probes
    become columns; a column is evaluated once, whatever the number of
    passes.  Once J and P would reach min(m, n) columns the skeleton is the
    whole surface and the product exact, (s, I) or (I, s), assembled from
    the columns evaluated so far and the rest.
    """
    block = np.empty((m, 0), dtype=complex)  # every column evaluated so far
    place = np.full(n, -1)  # each column's index in block, -1 if unevaluated

    def columns(idx: np.ndarray) -> np.ndarray:
        """s[:, idx], evaluating only the columns not evaluated before."""
        nonlocal block
        new = idx[place[idx] < 0]
        if new.size:
            place[new] = block.shape[1] + np.arange(new.size)
            block = np.hstack([block, product(slice(None), new)])
        return block[:, place[idx]]

    cols = _spread(n, SKELETON_START_COLUMNS)
    while True:
        gaps = np.flatnonzero(np.diff(cols) > 1)
        mids = (cols[gaps] + cols[gaps + 1]) // 2
        probes = mids[_spread(mids.size, min(SKELETON_PROBES, mids.size))]
        if cols.size + probes.size >= min(m, n):
            break
        s_cols = columns(np.concatenate([cols, probes]))
        probed = s_cols[:, cols.size:]
        bound = SKELETON_TOL * np.linalg.norm(probed)
        u, sigma, _ = np.linalg.svd(s_cols[:, : cols.size], full_matrices=False)
        left = u[:, sigma > 0.1 * SKELETON_TOL * sigma[0]]
        if np.linalg.norm(probed - left @ (left.conj().T @ probed)) <= bound:
            rows = _deim(left)
            right = np.linalg.solve(left[rows], product(rows, slice(None)))
            if np.linalg.norm(probed - left @ right[:, probes]) <= bound:
                return left, right
        cols = np.union1d(cols, mids)
    s = columns(np.arange(n))
    if n <= m:
        return s, np.eye(n)
    return np.eye(m), s


def _deim(basis: np.ndarray) -> np.ndarray:
    """DEIM row indices of an orthonormal (M, r) basis, one per column.

    Each column's interpolation error on the rows picked so far is the
    column minus its interpolant from the previous columns, and the next
    row is where that error is largest.
    """
    rows = np.empty(basis.shape[1], dtype=int)
    for j in range(basis.shape[1]):
        picked = rows[:j]
        coef = np.linalg.solve(basis[picked, :j], basis[picked, j])
        rows[j] = np.argmax(np.abs(basis[:, j] - basis[:, :j] @ coef))
    return rows


def _spread(count: int, k: int) -> np.ndarray:
    """k distinct, evenly spaced indices of range(count), both ends included."""
    return np.rint(np.linspace(0, count - 1, k)).astype(int)


class _Leg(NamedTuple):
    """The row terms of one endpoint's K antennas on a posed surface (``_leg``)."""

    along: np.ndarray      # (M,) A . e, shared by the antennas
    across_sq: np.ndarray  # (K, M) |A_across|^2
    cos_num2: np.ndarray   # (K, M) c^2 on rows whose c is positive, else 0
    level_sq: np.ndarray   # (K, M) horizontal part of |A_across|^2
    half_phase: list       # (xi + arg w_k) / 2 per antenna
    moduli: list           # |w_k| per antenna, scalar ``abs``


def _leg(geometry: CirsGeometry, antennas: np.ndarray, weights: np.ndarray, xi: float) -> _Leg:
    """Row terms of the segment between ``antennas`` and every row of the surface.

    Element (m, n) sits at row m's position plus y_n along the door's
    column axis e, which is horizontal and orthogonal to every normal.  With
    A = row_m - antenna_k split into a part along e and a part across it,
    r^2 = (A . e + y_n)^2 + |A_across|^2.  The ULA lies along global x and
    e is +-y, so A . e is the same for every antenna.  The numerators
    c = -(A . normal_m) of the element cosine u = c / r and A_z of the
    ray's vertical component depend on (m, k) only, so
    u^2 sin^2(phi) = min(c^2 / r^2, 1) (r^2 - A_z^2) / r^2 on the r^2 at
    hand; r^2 - A_z^2 is summed from its horizontal parts, so it is never
    negative.  The weights' half phases and moduli are taken once per
    antenna, the moduli with scalar ``abs``, which the array ``np.abs`` can
    differ from in the last bit.
    """
    rot = geometry.pose.rotation()
    rows = geometry.pose.position + geometry.row_positions_local @ rot.T  # (M, 3)
    axis = rot[:, 1]
    along = (rows - antennas[0]) @ axis
    rel = rows - antennas[:, None, :]  # (K, M, 3)
    across = rel - along[:, None] * axis
    cos_num = -np.einsum("kmi,mi->km", rel, geometry.normals)
    level = across[..., :2]
    return _Leg(
        along=along,
        across_sq=np.einsum("kmi,kmi->km", across, across),
        cos_num2=np.where(cos_num > 0.0, cos_num * cos_num, 0.0),
        level_sq=np.einsum("kmi,kmi->km", level, level),
        half_phase=[0.5 * (xi + np.angle(weight)) for weight in weights],
        moduli=[abs(weight) for weight in weights],
    )


def _near_field_guard(leg: _Leg, offsets: np.ndarray, wavelength: float) -> None:
    """Raise ValueError if an antenna is closer than the model guard to ANY element.

    r^2 = (A . e + y_n)^2 + |A_across|^2 over the column offsets y_n
    (``_leg``).  The first term is shared by the antennas, and its minimum
    over a row's columns is at one of the two offsets y_n around -A . e, so
    the closest pair over the whole surface costs O(K (M + N)).
    """
    offsets = np.sort(offsets)
    above = np.searchsorted(offsets, -leg.along)
    below = offsets[np.maximum(above - 1, 0)]
    above = offsets[np.minimum(above, offsets.size - 1)]
    along_sq_min = np.minimum((leg.along + below) ** 2, (leg.along + above) ** 2)
    r_min = math.sqrt(float(np.min(along_sq_min + leg.across_sq)))
    if r_min < MIN_DISTANCE_WAVELENGTHS * wavelength:
        raise ValueError(
            f"antenna-element distance {r_min:.3g} m violates the "
            f"{MIN_DISTANCE_WAVELENGTHS} wavelength model guard"
        )


def _beamformed_segment(
    leg: _Leg, rows: np.ndarray | slice, offsets: np.ndarray, wavelength: float, q: float
) -> np.ndarray:
    """sum_k w_k u^q sin(phi)^q exp(-j (2 pi r / lambda - xi)) / r on ``rows`` x ``offsets``.

    ``rows`` indexes the surface rows of ``leg`` (an index array or
    ``slice(None)``), and ``offsets`` holds the column offsets y_n of the
    columns to evaluate; the result is (rows, columns).  The row terms come
    from ``leg``; the near-field guard is not applied here: the kernel runs
    on index sets of a surface (``_near_field_guard``).

    The phasor comes from the half-angle tangent t = tan(phi / 2):
    cos phi = 2 / (1 + t^2) - 1 and sin phi = 2 t / (1 + t^2), so an antenna
    of weight modulus |w| and amplitude a adds (g - |w|) a to the real part
    and g t a to the imaginary part, with g = 2 |w| / (1 + t^2).  One
    vectorised tan replaces a cos and a sin.  The identity has no singular
    point: at phi / 2 = fl(pi / 2), t ~ 1.6e16 gives cos phi = -1 and
    sin phi ~ 1e-16.  Only the (rows, columns) work, in arrays reused
    across antennas, runs per antenna.
    """
    along_sq = np.add(leg.along[rows, None], offsets)
    np.square(along_sq, out=along_sq)
    across_sq = leg.across_sq[:, rows]
    cos_num2 = leg.cos_num2[:, rows]
    level_sq = leg.level_sq[:, rows]

    shape = along_sq.shape
    re, im = np.zeros(shape), np.zeros(shape)
    r, amp, work, t = (np.empty(shape) for _ in range(4))
    for k, (half_phase, modulus) in enumerate(zip(leg.half_phase, leg.moduli)):
        np.add(along_sq, across_sq[k, :, None], out=r)
        np.divide(cos_num2[k, :, None], r, out=amp)
        np.minimum(amp, 1.0, out=amp)
        np.add(along_sq, level_sq[k, :, None], out=work)
        amp *= work
        amp /= r
        # (u^2 sin^2 phi)^{q/2} = u^q sin(phi)^q, and 0 wherever u <= 0 or
        # sin(phi) = 0, also where q / 2 is 0 (q = 0, or q subnormal)
        np.power(amp, 0.5 * q, out=amp, where=amp > 0.0)
        np.sqrt(r, out=r)
        amp /= r

        # half the phase, reduced to whole turns of r / lambda before the tan
        np.divide(r, wavelength, out=work)
        np.rint(work, out=t)
        work -= t
        work *= -math.pi
        work += half_phase
        np.tan(work, out=t)

        # g = 2 |w| / (1 + t^2): re += (g - |w|) amp, im += g t amp
        np.multiply(t, t, out=work)
        work += 1.0
        np.divide(2.0 * modulus, work, out=work)
        t *= work
        t *= amp
        im += t
        work -= modulus
        work *= amp
        re += work
    return re + 1j * im


# --- normalized angular gains ----------------------------------------------


def normalized_gain(
    geometry: CirsGeometry,
    profile: PhaseProfile,
    incidence: np.ndarray,
    reflection: np.ndarray,
    wavelength: float,
    q: float = 0.285,
) -> np.ndarray:
    """Path-loss-free cascade gains |sum_l c_l phi_l t_l|^2, normalized, in dB, (A,).

    ``incidence`` and ``reflection`` hold A unit directions, shape (A, 3)
    (a single (3,) direction is the case A = 1), in the door frame; row a
    of each scores one angle pair.  t and c are the single-antenna
    far-field segment vectors toward the incidence and reflection
    directions d (the plane-wave limit of the spherical phasor:
    rho(n_l . d) exp(+j (2 pi / lambda) d . p_l)).  The three factors are
    Frobenius-normalized, so the result only reflects phase alignment and
    pattern rolloff, not absolute link budget; 0 dB is a fully coherent
    lossless surface with flat patterns.  A pair that lights no element on
    either side, or whose terms cancel exactly, reads -inf.

    Element (m, n) sits at row m's position plus y_n along the door-frame y
    axis, its normal depends on m only, and the profile phase is
    row_m + col_n.  So every factor is a row vector times a unit-modulus
    column vector, and the sum and the three norms are products of an
    M-sum and an N-sum: O(A (M + N)) work for A angle pairs, in one pass.
    """
    m_count, n_count = profile.shape
    if (m_count, n_count) != (geometry.m_count, geometry.n_count):
        raise ValueError(
            f"profile shape {profile.shape} vs geometry "
            f"{(geometry.m_count, geometry.n_count)}"
        )
    d_i = np.atleast_2d(np.asarray(incidence, dtype=float))
    d_o = np.atleast_2d(np.asarray(reflection, dtype=float))
    slope = (TWO_PI / wavelength) * (d_i + d_o)  # (A, 3)
    rho_i = cosine_rolloff(d_i @ geometry.normals_local.T, q)  # (A, M)
    rho_o = cosine_rolloff(d_o @ geometry.normals_local.T, q)
    # the gain does not depend on the patterns' scale, so they enter without
    # the element gain sqrt(G), and each angle's peak is scaled to 1, which
    # keeps the squared norms from underflowing for rays that graze every
    # element.  An unlit side stays all zero, and so does its row sum
    for rho in (rho_i, rho_o):
        peak = rho.max(axis=1, keepdims=True)
        rho /= np.where(peak > 0.0, peak, 1.0)
    cos_row, sin_row = _unit_phasor(slope @ geometry.row_positions_local.T + profile.row_raw)
    cos_col, sin_col = _unit_phasor(slope[:, 1:2] * geometry.column_offsets_local + profile.col_raw)
    weight = rho_i * rho_o
    row_sq = np.sum(weight * cos_row, axis=1) ** 2 + np.sum(weight * sin_row, axis=1) ** 2
    col_sq = np.sum(cos_col, axis=1) ** 2 + np.sum(sin_col, axis=1) ** 2
    # |t|^2 = N sum_m rho_i^2, |c|^2 = N sum_m rho_o^2 and |phi|^2 = M N.
    # Only an unlit pair has norms 0; its coherent sum stays 0, so -inf dB
    norms = np.sum(rho_i**2, axis=1) * np.sum(rho_o**2, axis=1) * float(n_count**3 * m_count)
    coherent = row_sq * col_sq / np.where(norms > 0.0, norms, 1.0)
    gain = np.full(coherent.shape, -np.inf)
    np.log10(coherent, out=gain, where=coherent > 0.0)
    return 10.0 * gain


def _unit_phasor(phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of ``phase`` in radians, from the half-angle tangent.

    The phase is reduced to whole turns first, so t = tan(phase / 2) takes
    an argument in [-pi/2, pi/2]: cos = 2 / (1 + t^2) - 1 and
    sin = 2 t / (1 + t^2), as in ``_beamformed_segment``.  One tan replaces
    a cos and a sin.
    """
    t = phase / TWO_PI
    t -= np.rint(t)
    t *= math.pi
    np.tan(t, out=t)
    g = t * t
    g += 1.0
    np.divide(2.0, g, out=g)
    t *= g
    g -= 1.0
    return g, t


def _directions(theta, phi) -> np.ndarray:
    """``AnglePair(theta, phi).direction()`` for arrays of angles, shape (A, 3)."""
    sin_phi = np.sin(phi)
    out = np.empty(np.broadcast(theta, phi).shape + (3,))
    out[:, 0] = sin_phi * np.cos(theta)
    out[:, 1] = sin_phi * np.sin(theta)
    out[:, 2] = np.cos(phi)
    return out


def channel_gain_elevation(
    geometry: CirsGeometry,
    profile: PhaseProfile,
    phi_i,
    wavelength: float,
    q: float = 0.285,
) -> np.ndarray:
    """Normalized gains in the elevation plane (theta = 0) for specular
    reflection, phi_o = pi - phi_i, dB, one per angle of ``phi_i``, (A,)."""
    phi_i = np.atleast_1d(np.asarray(phi_i, dtype=float))
    return normalized_gain(
        geometry,
        profile,
        _directions(0.0, phi_i),
        _directions(0.0, math.pi - phi_i),
        wavelength,
        q,
    )


def channel_gain_azimuth(
    geometry: CirsGeometry,
    profile: PhaseProfile,
    theta_i,
    wavelength: float,
    q: float = 0.285,
) -> np.ndarray:
    """Normalized gains in the azimuth plane (phi = pi/2) for specular
    reflection, theta_o = -theta_i, dB, one per angle of ``theta_i``, (A,)."""
    theta_i = np.atleast_1d(np.asarray(theta_i, dtype=float))
    return normalized_gain(
        geometry,
        profile,
        _directions(theta_i, math.pi / 2.0),
        _directions(-theta_i, math.pi / 2.0),
        wavelength,
        q,
    )

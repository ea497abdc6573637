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
from dataclasses import dataclass

import numpy as np

from .geometry import AnglePair, CirsGeometry
from .phase import PhaseProfile

TWO_PI = 2.0 * math.pi

# enforce far-field of a single ELEMENT (not of the whole surface): the
# per-element amplitude model breaks down when an antenna sits closer than
# a few wavelengths to the nearest element
MIN_DISTANCE_WAVELENGTHS = 10.0


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


@dataclass(frozen=True)
class PathLossSample:
    """One realization of the direct-path loss decomposition (all dB)."""

    loss_db: float
    mu_los_db: float
    blocker_count: int
    shadowing_db: float
    blockage_db: float

    def __post_init__(self):
        if self.blocker_count < 0:
            raise ValueError("blocker count must be >= 0")
        if self.blocker_count == 0 and self.blockage_db != 0.0:
            raise ValueError("blockage term must be 0 without blockers")
        total = self.mu_los_db + self.blockage_db + self.shadowing_db
        if abs(total - self.loss_db) > 1e-9:
            raise ValueError("loss_db must equal mu_los + blockage + shadowing")


def sample_direct_pathloss(
    distance_m: float,
    f_ghz: float,
    blockers: int,
    rng: np.random.Generator,
    sigma_shadow_db: float = 3.0,
    block_mu1_db: float = 15.0,
    block_step_db: float = 6.0,
    block_sigma_db: float = 4.0,
) -> PathLossSample:
    """Sample PL = mu_LoS + A_b + chi with chi ~ N(0, sigma_sh^2)."""
    mu_los = mean_pathloss_db(distance_m, f_ghz)
    blockage = sample_blockage_db(blockers, rng, block_mu1_db, block_step_db, block_sigma_db)
    shadowing = float(rng.normal(0.0, sigma_shadow_db)) if sigma_shadow_db > 0 else 0.0
    return PathLossSample(
        loss_db=mu_los + blockage + shadowing,
        mu_los_db=mu_los,
        blocker_count=blockers,
        shadowing_db=shadowing,
        blockage_db=blockage,
    )


# --- antenna arrays and patterns -------------------------------------------


def array_response(k_antennas: int, theta: float) -> np.ndarray:
    """Unit-norm ULA response (1/sqrt(K)) [1, ..., exp(-j pi (K-1) cos theta)]."""
    if k_antennas < 1:
        raise ValueError(f"k_antennas must be >= 1, got {k_antennas}")
    k = np.arange(k_antennas)
    return np.exp(-1j * math.pi * k * math.cos(theta)) / math.sqrt(k_antennas)


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


def element_pattern(angles: AnglePair, q: float) -> float:
    """Pattern gain for a surface element, boresight along local +x."""
    u = math.cos(angles.theta) * math.sin(angles.phi)
    return pattern_from_cosine(u, q)


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
    rng: np.random.Generator | None,
    q: float = 0.285,
) -> np.ndarray:
    """Rank-one direct channel H_d = alpha rho_r rho_t a_r a_t^H, shape (K, K).

    Both steering vectors are evaluated at the azimuth of the TxV->RxV ray
    (the shared plane-wave direction); alpha carries the path loss and a
    uniform random phase (zero when rng is None).
    """
    p_t = np.asarray(p_t, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    d = p_r - p_t
    if np.linalg.norm(d) == 0:
        raise ValueError("endpoints must be distinct")
    theta_d = math.atan2(d[1], d[0])
    rho_t = endpoint_pattern(d, q)
    rho_r = endpoint_pattern(-d, q)
    xi = float(rng.uniform(0.0, TWO_PI)) if rng is not None else 0.0
    alpha = 10.0 ** (-loss_db / 20.0) * np.exp(1j * xi)
    a = array_response(k_antennas, theta_d)
    return alpha * rho_r * rho_t * np.outer(a, a.conj())


def cascaded_channels(
    geometry: CirsGeometry,
    p_t: np.ndarray,
    p_r: np.ndarray,
    k_antennas: int,
    wavelength: float,
    q: float = 0.285,
    rng: np.random.Generator | None = None,
    array_spacing_m: float | None = None,
    amp_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Entry-exact segment channels (H_tc of shape (MN, K), H_cr of (K, MN)).

    Each entry combines the per-segment amplitude (G d_m d_n lambda^2 /
    (64 pi^3))^{1/4} / r (``amp_scale`` multiplies the cascade PRODUCT, so
    each segment carries its square root), the endpoint antenna pattern, the
    normalized element rolloff u^q at the local ray cosine, and the exact
    spherical phasor.  The unit-cell gain G enters the cascade once, as in
    the far-field law of the module docstring: G^{1/4} per segment.  One
    random path phase is drawn per segment (zero when rng is None).
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if amp_scale <= 0:
        raise ValueError("amp_scale must be positive")
    if array_spacing_m is None:
        array_spacing_m = wavelength / 2.0
    elem_pos = geometry.flat_positions                     # (MN, 3)
    normals = np.repeat(geometry.normals, geometry.n_count, axis=0)  # (MN, 3)
    tx = antenna_positions(p_t, k_antennas, array_spacing_m)
    rx = antenna_positions(p_r, k_antennas, array_spacing_m)

    seg_amp = (
        unit_cell_gain(q) * geometry.d_m * geometry.d_n * wavelength**2
        / (64.0 * math.pi**3)
    ) ** 0.25
    seg_amp *= math.sqrt(amp_scale)
    xi_t = float(rng.uniform(0.0, TWO_PI)) if rng is not None else 0.0
    xi_r = float(rng.uniform(0.0, TWO_PI)) if rng is not None else 0.0

    def segment(antennas: np.ndarray, xi: float) -> np.ndarray:
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


def total_channel(
    h_d: np.ndarray,
    relays: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
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


# --- normalized angular gains ----------------------------------------------


def normalized_gain(
    geometry: CirsGeometry,
    profile: PhaseProfile,
    incidence: AnglePair,
    reflection: AnglePair,
    wavelength: float,
    q: float = 0.285,
) -> float:
    """Path-loss-free cascade gain |sum_l c_l phi_l t_l|^2, normalized, in dB.

    t and c are the single-antenna far-field segment vectors toward the
    incidence and reflection directions d (the plane-wave limit of the
    spherical phasor: rho(n_l . d) exp(+j (2 pi / lambda) d . p_l)).  The
    three factors are Frobenius-normalized, so the result only reflects
    phase alignment and pattern rolloff, not absolute link budget; 0 dB is
    a fully coherent lossless surface with flat patterns.

    Element (m, n) sits at row m's position plus y_n along the door-frame y
    axis, its normal depends on m only, and the profile phase is
    row_m + col_n.  So every factor is a row vector times a unit-modulus
    column vector, and the sum and the three norms are products of an
    M-sum and an N-sum: O(M + N) work per angle pair.
    """
    m_count, n_count = profile.shape
    if (m_count, n_count) != (geometry.m_count, geometry.n_count):
        raise ValueError(
            f"profile shape {profile.shape} vs geometry "
            f"{(geometry.m_count, geometry.n_count)}"
        )
    d_i, d_o = incidence.direction(), reflection.direction()
    slope = (TWO_PI / wavelength) * (d_i + d_o)
    rho_i = pattern_from_cosine(geometry.normals_local @ d_i, q)
    rho_o = pattern_from_cosine(geometry.normals_local @ d_o, q)
    if not (rho_i.any() and rho_o.any()):
        return -math.inf
    # the gain does not depend on the patterns' scale; a peak of 1 keeps the
    # squared norms from underflowing for rays that graze every element
    rho_i = rho_i / rho_i.max()
    rho_o = rho_o / rho_o.max()
    row_sum = np.sum(
        rho_i * rho_o * np.exp(1j * (geometry.row_positions_local @ slope + profile.row_raw))
    )
    col_sum = np.sum(
        np.exp(1j * (geometry.column_offsets_local * slope[1] + profile.col_raw))
    )
    # |t|^2 = N sum_m rho_i^2, |c|^2 = N sum_m rho_o^2 and |phi|^2 = M N
    norms = float(np.sum(rho_i**2) * np.sum(rho_o**2)) * n_count**3 * m_count
    coherent = abs(row_sum) ** 2 * abs(col_sum) ** 2 / norms
    if coherent == 0:
        return -math.inf
    return 10.0 * math.log10(coherent)


def channel_gain_elevation(
    geometry: CirsGeometry,
    profile: PhaseProfile,
    phi_i: float,
    phi_o: float,
    wavelength: float,
    q: float = 0.285,
) -> float:
    """Normalized gain for an elevation-plane (theta = 0) angle pair, dB."""
    return normalized_gain(
        geometry,
        profile,
        AnglePair(0.0, phi_i),
        AnglePair(0.0, phi_o),
        wavelength,
        q,
    )


def channel_gain_azimuth(
    geometry: CirsGeometry,
    profile: PhaseProfile,
    theta_i: float,
    wavelength: float,
    q: float = 0.285,
    theta_o: float | None = None,
) -> float:
    """Normalized gain in the azimuth plane (phi = pi/2), specular by default."""
    if theta_o is None:
        theta_o = -theta_i
    return normalized_gain(
        geometry,
        profile,
        AnglePair(theta_i, math.pi / 2.0),
        AnglePair(theta_o, math.pi / 2.0),
        wavelength,
        q,
    )

"""Beam codebooks from positions, received amplitudes, and end-to-end SNR."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .channel import array_response


def steering_vector(k_antennas: int, theta: float) -> np.ndarray:
    """Unit-amplitude steering [1, ..., exp(-j pi (K-1) cos theta)]."""
    return math.sqrt(k_antennas) * array_response(k_antennas, theta)


def rescale_direct(h_d: np.ndarray, k_antennas: int) -> np.ndarray:
    """Match the direct channel's per-entry amplitude to the cascaded model.

    The rank-one direct channel is built from two unit-NORM steering vectors,
    which leaves per-antenna-pair amplitude |alpha| rho rho / K, while the
    cascaded matrices carry physical per-pair amplitudes.  Scaling by K makes
    each direct entry |alpha| rho rho, so the two terms of the total channel
    live on the same amplitude scale.
    """
    if k_antennas < 1:
        raise ValueError(f"k_antennas must be >= 1, got {k_antennas}")
    return float(k_antennas) * h_d


@dataclass(frozen=True)
class CodebookEntry:
    label: str              # "direct" or "relay:<index>:<side>"
    f: np.ndarray           # TxV beamformer, unit per-antenna amplitude
    w: np.ndarray           # RxV combiner, unit per-antenna amplitude

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex)
        w = np.asarray(self.w, dtype=complex)
        if f.ndim != 1 or w.ndim != 1 or f.shape != w.shape:
            raise ValueError("f and w must be equal-length vectors")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class Codebook:
    entries: tuple[CodebookEntry, ...]

    def __post_init__(self):
        if sum(1 for e in self.entries if e.label == "direct") != 1:
            raise ValueError("codebook needs exactly one direct entry")

    @property
    def direct(self) -> CodebookEntry:
        return next(e for e in self.entries if e.label == "direct")


def _azimuth(frm: np.ndarray, to: np.ndarray) -> float:
    d = np.asarray(to, dtype=float) - np.asarray(frm, dtype=float)
    if d[0] == 0.0 and d[1] == 0.0:
        raise ValueError("points coincide in plan view, azimuth undefined")
    return math.atan2(d[1], d[0])


def build_codebooks(
    p_t: np.ndarray,
    p_r: np.ndarray,
    candidates: list[tuple[str, np.ndarray]],
    k_antennas: int,
) -> Codebook:
    """Direct plus per-relay beam pairs from endpoint/relay positions.

    ``candidates`` holds (label, position) pairs; each relay entry steers the
    TxV toward the relay and the RxV along the relay-to-RxV ray.  The direct
    entry uses the TxV->RxV azimuth on both sides.
    """
    theta_d = _azimuth(p_t, p_r)
    entries = [
        CodebookEntry(
            label="direct",
            f=steering_vector(k_antennas, theta_d),
            w=steering_vector(k_antennas, theta_d),
        )
    ]
    for label, p_c in candidates:
        if label == "direct":
            raise ValueError("relay label 'direct' is reserved")
        theta_t = _azimuth(p_t, p_c)
        theta_r = _azimuth(p_c, p_r)
        entries.append(
            CodebookEntry(
                label=label,
                f=steering_vector(k_antennas, theta_t),
                w=steering_vector(k_antennas, theta_r),
            )
        )
    return Codebook(entries=tuple(entries))


def beam_amplitude(h: np.ndarray, f: np.ndarray, w: np.ndarray) -> complex:
    """Received amplitude w^H H f (noise-free)."""
    return np.vdot(w, h @ f)


def best_snr(
    amplitudes: Iterable[complex],
    tx_power_dbm: float,
    noise_power_dbm: float,
    k_antennas: int,
) -> float:
    """SNR in dB of the strongest received amplitude: sigma_s^2 |a|^2 / (K sigma_n^2).

    Each amplitude is w^H H f for one beam pair on its own channel, so the
    maximum is the choice of relay and beams by received power.  f and w
    are unit per-antenna-amplitude vectors (||f||^2 = K); the K divisor
    absorbs that scaling.
    """
    if k_antennas < 1:
        raise ValueError(f"k_antennas must be >= 1, got {k_antennas}")
    power = max(float(abs(a) ** 2) for a in amplitudes)
    if power == 0.0:
        return -math.inf
    return (
        tx_power_dbm
        - noise_power_dbm
        + 10.0 * math.log10(power / k_antennas)
    )


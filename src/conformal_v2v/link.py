"""Received amplitudes of beam pairs and end-to-end SNR."""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np


def beam_amplitude(h: np.ndarray, f: np.ndarray, w: np.ndarray) -> complex:
    """Received amplitude w^H H f (noise-free)."""
    return np.vdot(w, h @ f)


def best_snr(
    amplitudes: Iterable[complex],
    tx_power_dbm: float,
    noise_power_dbm: float,
    k_antennas: int,
) -> tuple[float, int]:
    """SNR in dB of the strongest received amplitude, sigma_s^2 |a|^2 / (K sigma_n^2),
    and that amplitude's index (the first of equal ones).

    Each amplitude is w^H H f for one beam pair on its own channel, so the
    maximum is the choice of relay and beams by received power, and the
    index names the pair that won.  f and w are unit per-antenna-amplitude
    vectors (||f||^2 = K); the K divisor absorbs that scaling.
    """
    if k_antennas < 1:
        raise ValueError(f"k_antennas must be >= 1, got {k_antennas}")
    powers = [float(abs(a) ** 2) for a in amplitudes]
    power = max(powers)
    winner = powers.index(power)
    if power == 0.0:
        return -math.inf, winner
    return (
        tx_power_dbm
        - noise_power_dbm
        + 10.0 * math.log10(power / k_antennas)
    ), winner


"""Run configuration: defaults, file/env/flag resolution, validation.

Precedence (highest wins): explicit flag overrides > environment variables
(prefix CONFORMAL_V2V_, e.g. CONFORMAL_V2V_RADIUS_M=8) > JSON config file >
built-in defaults.  Unknown keys are rejected; dB/dBm quantities live in
fields whose names carry the unit, so a unit-less spelling fails key lookup.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

SPEED_OF_LIGHT = 299_792_458.0
ENV_PREFIX = "CONFORMAL_V2V_"


@dataclass(frozen=True)
class SimConfig:
    """All tunable simulation parameters with their default values."""

    # carrier and arrays
    f_ghz: float = 28.0
    k_antennas: int = 8
    m_elements: int = 400
    n_elements: int = 400
    element_spacing_wl: float = 0.25  # surface element spacing, wavelengths
    radius_m: float = 2.0
    thetabar_deg: float = 75.0        # fixed-profile design azimuth

    # link budget
    tx_power_dbm: float = 10.0
    noise_power_dbm: float = -88.0

    # vehicles and road
    vehicle_length_m: float = 5.0
    vehicle_width_m: float = 1.8
    vehicle_height_m: float = 1.5
    door_length_m: float = 1.0
    door_center_height_m: float = 0.9
    road_length_m: float = 500.0
    n_lanes: int = 5
    lane_width_m: float = 5.0
    rho: float = 30.0                 # vehicle density per lane, 1/km
    link_distance_m: float = 100.0    # TxV-RxV longitudinal separation

    # element pattern and stochastic channel terms
    q_pattern: float = 0.285
    sigma_shadow_db: float = 3.0
    block_mu1_db: float = 15.0        # mean extra loss, first blocker
    block_step_db: float = 6.0        # mean increment per further blocker
    block_sigma_db: float = 4.0

    # relay selection and experiment harness
    max_range_m: float = 150.0
    max_candidates: int = 8
    cascade_amp_scale: float = 1.0    # amplitude correction for shrunk surfaces
    trials: int | None = None         # None = per-experiment default
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        self.validate()

    # --- derived quantities -------------------------------------------

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / (self.f_ghz * 1e9)

    @property
    def element_spacing_m(self) -> float:
        return self.element_spacing_wl * self.wavelength_m

    @property
    def thetabar_rad(self) -> float:
        return math.radians(self.thetabar_deg)

    @property
    def phibar_rad(self) -> float:
        """Fixed-profile design elevation for door relays.

        The elevation, seen from a door centre, of a roof-mounted array half
        the configured link distance away: pi/2 - atan((vehicle_height_m -
        door_center_height_m) / (link_distance_m / 2)), 89.31 deg at the
        defaults.  Every relay leg runs from a roof array down to a door, so
        a profile designed for horizontal rays would aim below the receiver.
        """
        drop = self.vehicle_height_m - self.door_center_height_m
        return math.pi / 2.0 - math.atan(drop / (self.link_distance_m / 2.0))

    # --- validation and serialization ---------------------------------

    def validate(self) -> None:
        def positive(name):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

        for name in (
            "f_ghz",
            "element_spacing_wl",
            "radius_m",
            "vehicle_length_m",
            "vehicle_width_m",
            "vehicle_height_m",
            "door_length_m",
            "door_center_height_m",
            "road_length_m",
            "lane_width_m",
            "link_distance_m",
            "max_range_m",
            "cascade_amp_scale",
        ):
            positive(name)
        for name in _INT_FIELDS:
            if name == "seed":
                continue
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.m_elements % 2 != 0:
            raise ValueError(f"m_elements must be even, got {self.m_elements}")
        if not 0.0 <= self.thetabar_deg < 90.0:
            raise ValueError(f"thetabar_deg must lie in [0, 90), got {self.thetabar_deg}")
        if self.q_pattern < 0:
            raise ValueError(f"q_pattern must be >= 0, got {self.q_pattern}")
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        for name in ("sigma_shadow_db", "block_step_db", "block_sigma_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.trials is not None and not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer or null, got {self.trials!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in _FIELDS:
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    def to_dict(self) -> dict[str, Any]:
        # every field holds a number or None (see _coerce): a flat copy is a deep one
        return {name: getattr(self, name) for name in _FIELDS}

    def replace(self, **changes) -> "SimConfig":
        return dataclasses.replace(self, **changes)


# field names in declaration order
_FIELDS = tuple(f.name for f in dataclasses.fields(SimConfig))
_FIELD_NAMES = set(_FIELDS)
# in declaration order, so validate() reports the first bad field first; the
# annotations are strings under ``from __future__ import annotations``
_INT_FIELDS = tuple(f.name for f in dataclasses.fields(SimConfig) if f.type == "int")
_OPTIONAL_INT_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimConfig) if f.type == "int | None"
)


def _reject_unknown(data: Mapping[str, Any], source: str) -> dict[str, Any]:
    out = {}
    for key, value in data.items():
        if key not in _FIELD_NAMES:
            hint = ""
            for name in sorted(_FIELD_NAMES):
                if name.startswith(key + "_"):
                    hint = f" (did you mean {name!r}? units are part of the name)"
                    break
            raise ValueError(f"unknown config key {key!r} in {source}{hint}")
        out[key] = value
    return out


def _coerce(key: str, value: Any) -> Any:
    """``value`` as field ``key`` holds it; ValueError naming the key if it is
    not a number (or None for an optional field)."""
    if key in _OPTIONAL_INT_FIELDS and value is None:
        return None
    integer = key in _INT_FIELDS or key in _OPTIONAL_INT_FIELDS
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        if not integer:
            return float(value)
        value = int(value, 10) if isinstance(value, str) else value
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}") from None


def _env_overrides(env: Mapping[str, str]) -> dict[str, Any]:
    out = {}
    for name in _FIELD_NAMES:
        raw = env.get(ENV_PREFIX + name.upper())
        if raw is None:
            continue
        out[name] = None if raw.strip().lower() in ("null", "none") else raw
    return out


def resolve_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
    env: Mapping[str, str] | None = None,
) -> SimConfig:
    """Merge config sources into a validated SimConfig.

    ``overrides`` entries with value None are treated as absent so CLI flags
    that were not passed do not mask lower-precedence sources.
    """
    env = os.environ if env is None else env
    merged: dict[str, Any] = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        merged.update(_reject_unknown(data, f"config file {path}"))
    merged.update(_reject_unknown(_env_overrides(env), "environment"))
    if overrides:
        present = {k: v for k, v in overrides.items() if v is not None}
        merged.update(_reject_unknown(present, "flag overrides"))
    return SimConfig(**{k: _coerce(k, v) for k, v in merged.items()})

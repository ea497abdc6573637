"""Configuration resolution, validation, precedence."""

import dataclasses
import json
import math

import pytest

from conformal_v2v.config import ENV_PREFIX, SimConfig, resolve_config


def test_defaults_match_reference_setup():
    cfg = SimConfig()
    assert cfg.f_ghz == 28.0
    assert cfg.k_antennas == 8
    assert (cfg.m_elements, cfg.n_elements) == (400, 400)
    assert cfg.element_spacing_wl == 0.25
    assert cfg.radius_m == 2.0
    assert cfg.thetabar_deg == 75.0
    assert cfg.tx_power_dbm == 10.0
    assert cfg.noise_power_dbm == -88.0
    assert (cfg.vehicle_length_m, cfg.vehicle_width_m, cfg.vehicle_height_m) == (
        5.0,
        1.8,
        1.5,
    )
    assert cfg.trials is None
    assert cfg.seed == 0


def test_derived_quantities():
    cfg = SimConfig()
    assert cfg.wavelength_m == pytest.approx(0.0107068735, rel=1e-9)
    assert cfg.element_spacing_m == pytest.approx(cfg.wavelength_m / 4)
    assert cfg.thetabar_rad == pytest.approx(math.radians(75.0))
    # roof array 0.6 m above a door half of the 100 m link away
    assert cfg.phibar_rad == pytest.approx(math.pi / 2.0 - math.atan(0.6 / 50.0))
    assert math.degrees(cfg.phibar_rad) == pytest.approx(89.3125, abs=1e-4)


def test_resolution_precedence_flags_env_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rho": 10.0, "radius_m": 4.0, "k_antennas": 4}))
    env = {ENV_PREFIX + "RADIUS_M": "6.5", ENV_PREFIX + "SEED": "3"}
    cfg = resolve_config(path, overrides={"rho": 40.0}, env=env)
    assert cfg.rho == 40.0          # flag beats file
    assert cfg.radius_m == 6.5      # env beats file
    assert cfg.seed == 3            # env beats default
    assert cfg.k_antennas == 4      # file beats default
    assert cfg.m_elements == 400    # default

    flag_wins = resolve_config(path, overrides={"radius_m": 8.0}, env=env)
    assert flag_wins.radius_m == 8.0


def test_none_valued_overrides_do_not_mask_lower_sources(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rho": 20.0}))
    cfg = resolve_config(path, overrides={"rho": None}, env={})
    assert cfg.rho == 20.0


def test_unknown_key_rejected_with_unit_hint(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tx_power": 10}))
    with pytest.raises(ValueError, match="tx_power_dbm.*units are part of the name"):
        resolve_config(path, env={})
    path.write_text(json.dumps({"Mx": -1}))
    with pytest.raises(ValueError, match="unknown config key 'Mx'"):
        resolve_config(path, env={})
    # the endpoint arrays sit lambda/2 apart, the spacing the steering phase
    # encodes; no field moves them
    with pytest.raises(ValueError, match="unknown config key 'array_spacing_wl'"):
        resolve_config(overrides={"array_spacing_wl": "1"}, env={})


def test_invalid_json_and_non_object_files_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        resolve_config(path, env={})
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        resolve_config(path, env={})
    with pytest.raises(ValueError, match="cannot read"):
        resolve_config(tmp_path / "missing.json", env={})


@pytest.mark.parametrize(
    "field,value",
    [
        ("radius_m", -1.0),
        ("radius_m", 0.0),
        ("m_elements", 401),     # must stay even
        ("m_elements", 0),
        ("thetabar_deg", 95.0),
        ("thetabar_deg", -1.0),
        ("q_pattern", -0.1),
        ("rho", -1.0),
        ("sigma_shadow_db", -1.0),
        ("trials", 0),
        ("seed", -1),
        ("threads", 0),
        ("f_ghz", math.inf),
    ],
)
def test_validation_errors_name_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


def test_env_values_parse_including_null_trials():
    # the integer fields are read from the annotations; their int defaults
    # say independently which fields those are
    ints = [f.name for f in dataclasses.fields(SimConfig) if type(f.default) is int]
    assert len(ints) == 7
    env = {ENV_PREFIX + name.upper(): "2" for name in ints}
    env.update({
        ENV_PREFIX + "TRIALS": "null",
        ENV_PREFIX + "M_ELEMENTS": "200",
        ENV_PREFIX + "RHO": "12.5",
    })
    cfg = resolve_config(env=env)
    assert cfg.trials is None
    assert cfg.m_elements == 200
    assert cfg.rho == 12.5
    for name in ints:
        assert type(getattr(cfg, name)) is int


def test_integer_fields_reject_fractions_and_bools():
    with pytest.raises(ValueError, match="k_antennas"):
        resolve_config(overrides={"k_antennas": 2.5}, env={})
    with pytest.raises(ValueError, match="rho"):
        resolve_config(overrides={"rho": True}, env={})
    cfg = resolve_config(overrides={"k_antennas": 4.0, "trials": "12"}, env={})
    assert cfg.k_antennas == 4
    assert cfg.trials == 12


NOT_A_NUMBER = {"radius_m": "a number", "k_antennas": "an integer"}


@pytest.mark.parametrize("key", NOT_A_NUMBER)
@pytest.mark.parametrize("text", ["null", "[2]", '"abc"', '{"a": 1}'])
def test_file_values_that_are_not_numbers_name_their_key(tmp_path, key, text):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{key}": {text}}}')
    with pytest.raises(ValueError, match=f"config key '{key}' must be {NOT_A_NUMBER[key]}"):
        resolve_config(path, env={})


def test_file_integer_too_large_for_a_float_names_its_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"radius_m": 1%s}' % ("0" * 400))
    with pytest.raises(ValueError, match="config key 'radius_m' must be a number"):
        resolve_config(path, env={})


@pytest.mark.parametrize("key", NOT_A_NUMBER)
@pytest.mark.parametrize("raw", ["null", "None", "abc", "[2]", ""])
def test_env_and_flag_values_that_are_not_numbers_name_their_key(key, raw):
    message = f"config key '{key}' must be {NOT_A_NUMBER[key]}"
    with pytest.raises(ValueError, match=message):
        resolve_config(env={ENV_PREFIX + key.upper(): raw})
    # ``--set key=value`` passes the text after '=' as an override; a null
    # there is the word itself, not None
    with pytest.raises(ValueError, match=message):
        resolve_config(overrides={key: raw}, env={})


def test_to_dict_and_replace_round_trip():
    cfg = SimConfig(radius_m=8.0)
    data = cfg.to_dict()
    assert data["radius_m"] == 8.0
    assert SimConfig(**data) == cfg
    assert cfg.replace(rho=15.0).rho == 15.0
    assert cfg.rho == 30.0  # original untouched

"""End-to-end command-line runs against temporary output directories."""

import argparse
import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from conformal_v2v import experiments
from conformal_v2v.cli import build_parser, main
from conformal_v2v.config import SimConfig
from conformal_v2v.experiments import _git_revision, make_sweep, run_angle_pdf, run_snr_ecdf
from test_experiments import (
    reference_blockage_sweep,
    reference_door_telemetry,
    reference_snr_counts,
    tiny_config,
)

TINY_SURFACE = [
    "--set", "m_elements=16",
    "--set", "n_elements=16",
    "--set", "cascade_amp_scale=625",
]


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with path.open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames), rows


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_invalid_override_value_reports_and_fails(tmp_path, capsys):
    code = main(["geometry-dump", "--out-dir", str(tmp_path),
                 "--set", "radius_m=-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "radius_m" in err



def test_values_that_are_not_numbers_exit_with_an_error_naming_the_key(
    tmp_path, capsys, monkeypatch
):
    config = tmp_path / "cfg.json"
    config.write_text('{"radius_m": null}')
    runs = [
        (["--set", "radius_m=abc"], {}),
        (["--config", str(config)], {}),
        ([], {"CONFORMAL_V2V_RADIUS_M": "null"}),
    ]
    for extra, env in runs:
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["geometry-dump", "--out-dir", str(tmp_path / "out"), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config key 'radius_m' must be a number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r_d", ["-20", "0"])
@pytest.mark.parametrize("command", ["blockage", "snr-ecdf", "scenario-dump"])
def test_non_positive_link_distances_exit_with_an_error(tmp_path, capsys, command, r_d):
    argv = [command, "--out-dir", str(tmp_path), "--r-d", r_d, *TINY_SURFACE]
    if command != "scenario-dump":
        argv += ["--trials", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search("link.distance", err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rho", ["nan", "inf"])
@pytest.mark.parametrize("command", ["blockage", "snr-ecdf"])
def test_non_finite_densities_exit_with_an_error(tmp_path, capsys, command, rho):
    argv = [command, "--out-dir", str(tmp_path), "--rho", rho, "--trials", "2"]
    assert main([*argv, *TINY_SURFACE]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"rho must be finite and >= 0, got {rho}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("blockage", "--rho", "10"),
        ("blockage", "--r-d", "50"),
        ("snr-ecdf", "--radius", "2"),
        ("gain-frequency", "--f-ghz", "28"),
    ],
)
def test_a_repeated_sweep_value_exits_with_an_error(tmp_path, capsys, command, flag, value):
    argv = [command, "--out-dir", str(tmp_path), flag, value, flag, f"{float(value)}"]
    if command != "gain-frequency":
        argv += ["--trials", "2", *TINY_SURFACE]
    assert main(argv) == 2
    err = capsys.readouterr().err
    axis = flag[2:].replace("-", "_")
    assert err == f"error: repeated {axis} value {value}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, worker, message",
    [
        (["blockage", "--rho", "10", "--rho", "nan", "--threads", "2"], "_blockage_scores",
         "blockage rho=nan r_d=50: rho must be finite and >= 0, got nan"),
        (["snr-ecdf", "--r-d", "50", "--r-d", "600"], "_snr_scores",
         "snr-ecdf rho=10 r_d=600: link distance 600.0 m does not fit a 500.0 m road"),
    ],
    ids=["blockage", "snr-ecdf"],
)
def test_a_bad_sweep_point_fails_before_any_trial(
    tmp_path, capsys, monkeypatch, argv, worker, message
):
    # the sweep's points are checked when its spec is made: the valid points
    # run no trial first, and nothing is written
    calls = []
    monkeypatch.setattr(experiments, worker, lambda *args: calls.append(args))
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "base, flag, field, value, other",
    [
        pytest.param(["scenario-dump"], ["--seed", "5"], "seed", 5, 6, id="seed"),
        pytest.param(["blockage", "--rho", "10", "--r-d", "50"], ["--trials", "7"],
                     "trials", 7, 8, id="trials"),
        # one trial is one chunk, so no worker pool starts
        pytest.param(["blockage", "--rho", "10", "--r-d", "50", "--trials", "1"],
                     ["--threads", "2"], "threads", 2, 3, id="threads"),
        pytest.param(["geometry-dump"], ["--reduced"], "m_elements", 100, 50, id="reduced"),
        pytest.param(["gain-azimuth", "--set", "f_ghz=2"], ["--thetabar-deg", "45"],
                     "thetabar_deg", 45.0, 30.0, id="thetabar-deg"),
        pytest.param(["angle-pdf", "--trials", "5"], ["--rho", "40"], "rho", 40.0, 20.0,
                     id="angle-pdf-rho"),
        pytest.param(["scenario-dump"], ["--rho", "40"], "rho", 40.0, 20.0,
                     id="scenario-dump-rho"),
        pytest.param(["scenario-dump"], ["--r-d", "60"], "link_distance_m", 60.0, 80.0,
                     id="scenario-dump-r-d"),
    ],
)
def test_a_value_flag_yields_to_a_set_entry_of_its_field(
    tmp_path, base, flag, field, value, other
):
    # a value flag and --set write one override map, --set last
    def recorded(name, *extra):
        out = tmp_path / name
        assert main([*base, "--out-dir", str(out), *extra]) == 0
        [sidecar] = out.glob("*.json")
        return json.loads(sidecar.read_text())["config"][field]

    assert recorded("flag", *flag) == value
    assert recorded("set", "--set", f"{field}={other}") == other
    assert recorded("both", *flag, "--set", f"{field}={other}") == other


REDUCED = {"m_elements": 100, "n_elements": 100, "cascade_amp_scale": 16.0}


@pytest.mark.parametrize(
    "command, dropped, kept, sidecar, fields",
    [
        ("gain-elevation", ["--seed", "--trials", "--threads", "--reduced"], None, None, None),
        ("gain-azimuth", ["--seed", "--trials", "--threads", "--reduced"],
         ["--thetabar-deg", "45", "--set", "f_ghz=2"], "gain_azimuth.json",
         {"thetabar_deg": 45.0}),
        ("gain-frequency", ["--seed", "--trials", "--threads", "--reduced"], None, None, None),
        ("blockage", ["--reduced"],
         ["--seed", "5", "--trials", "1", "--threads", "2", "--rho", "10", "--r-d", "50"],
         "blockage.json", {"seed": 5, "trials": 1, "threads": 2}),
        ("snr-ecdf", [],
         ["--seed", "5", "--trials", "1", "--threads", "2", "--reduced",
          "--rho", "10", "--r-d", "50", "--radius", "2"],
         "snr_summary.json", {"seed": 5, "trials": 1, "threads": 2, **REDUCED}),
        ("angle-pdf", ["--reduced"],
         ["--seed", "5", "--trials", "1", "--threads", "2", "--rho", "40"],
         "angle_pdf.json", {"seed": 5, "trials": 1, "threads": 2, "rho": 40.0}),
        ("phase-dump", ["--seed", "--trials", "--threads"], ["--reduced"],
         "phase_profile.json", REDUCED),
        ("scenario-dump", ["--trials", "--threads", "--reduced"],
         ["--seed", "5", "--rho", "25", "--r-d", "60"], "scenario.json",
         {"seed": 5, "rho": 25.0, "link_distance_m": 60.0}),
        ("geometry-dump", ["--seed", "--trials", "--threads"], ["--reduced"],
         "geometry.json", REDUCED),
    ],
)
def test_each_subcommand_takes_only_the_flags_it_reads(
    tmp_path, capsys, command, dropped, kept, sidecar, fields
):
    # a flag a subcommand does not read is a usage error before anything is
    # written; each value flag it keeps reaches its sidecar (one trial is one
    # chunk, so --threads 2 starts no worker pool)
    out = tmp_path / "out"
    for flag in dropped:
        value = [] if flag == "--reduced" else ["3"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--out-dir", str(out), flag, *value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()
    if kept is not None:
        assert main([command, "--out-dir", str(out), *kept]) == 0
        config = json.loads((out / sidecar).read_text())["config"]
        assert {field: config[field] for field in fields} == fields
        assert all(SimConfig.__dataclass_fields__[f].default != v for f, v in fields.items())


def test_readme_flag_table_matches_the_parser():
    # the Configuration section's table lists each subcommand's flags beyond
    # --config, --out-dir and --set, which every subcommand takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 2 and cells[0].strip().startswith("`"):
            [name] = re.findall(r"`([^`]+)`", cells[0])
            table[name] = re.findall(r"`([^`]+)`", cells[1])
    [subparsers] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    common = ["--config", "--out-dir", "--set"]
    parsed = {}
    for name, parser in subparsers.choices.items():
        options = [o for a in parser._actions for o in a.option_strings if o.startswith("--")]
        assert [o for o in options if o in common] == common
        parsed[name] = [o for o in options if o not in (*common, "--help")]
    assert table == parsed


def test_unknown_override_key_mentions_unit_suffixes(tmp_path, capsys):
    code = main(["geometry-dump", "--out-dir", str(tmp_path),
                 "--set", "tx_power=10"])
    assert code == 2
    err = capsys.readouterr().err
    assert "tx_power_dbm" in err


def test_malformed_override_is_rejected(tmp_path, capsys):
    code = main(["geometry-dump", "--out-dir", str(tmp_path), "--set", "radius_m"])
    assert code == 2
    assert "field=value" in capsys.readouterr().err


def test_geometry_dump_emits_one_row_per_element(tmp_path, capsys):
    code = main(["geometry-dump", "--out-dir", str(tmp_path),
                 "--set", "m_elements=8", "--set", "n_elements=4"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "geometry.csv")
    assert header == ["m", "n", "psi_m", "x", "y", "z", "nx", "ny", "nz"]
    assert len(rows) == 32
    assert sorted({int(r["m"]) for r in rows}) == list(range(-4, 4))
    # local surface coordinates never leave the cylinder (x <= 0)
    assert all(float(r["x"]) <= 1e-12 for r in rows)
    sidecar = json.loads((tmp_path / "geometry.json").read_text())
    assert sidecar["config"]["m_elements"] == 8
    assert sidecar["experiment"] == "geometry-dump"


def test_reduced_flag_is_recorded_in_the_sidecar(tmp_path):
    assert main(["geometry-dump", "--out-dir", str(tmp_path), "--reduced"]) == 0
    sidecar = json.loads((tmp_path / "geometry.json").read_text())
    assert sidecar["config"]["m_elements"] == 100
    assert sidecar["config"]["n_elements"] == 100
    assert sidecar["config"]["cascade_amp_scale"] == 16.0


def test_phase_dump_profiles_differ_where_they_should(tmp_path):
    common = ["phase-dump", "--out-dir", str(tmp_path),
              "--set", "m_elements=8", "--set", "n_elements=2"]
    assert main(common + ["--profile", "perpendicular"]) == 0
    header, perp = read_csv(tmp_path / "phase_profile.csv")
    assert header == ["m", "n", "psi_m", "phase_rad"]
    assert len(perp) == 16
    assert all(0.0 <= float(r["phase_rad"]) < 2 * math.pi for r in perp)

    # normal incidence and specular reflection reduce optimal to perpendicular
    assert main(common + ["--profile", "optimal",
                          "--theta-i", "0", "--phi-i", "90",
                          "--theta-o", "0", "--phi-o", "90"]) == 0
    _, opt = read_csv(tmp_path / "phase_profile.csv")
    for a, b in zip(perp, opt):
        assert float(a["phase_rad"]) == pytest.approx(float(b["phase_rad"]), abs=1e-9)

    assert main(common + ["--profile", "preconfigured"]) == 0
    _, pre = read_csv(tmp_path / "phase_profile.csv")
    mismatches = sum(
        abs(float(a["phase_rad"]) - float(b["phase_rad"])) > 1e-6
        for a, b in zip(perp, pre)
    )
    assert mismatches > 0
    sidecar = json.loads((tmp_path / "phase_profile.json").read_text())
    assert sidecar["profile"] == "preconfigured"


def test_scenario_dump_marks_the_endpoint_vehicles(tmp_path, capsys):
    code = main(["scenario-dump", "--out-dir", str(tmp_path),
                 "--seed", "3", "--rho", "25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "candidates" in out and "blockers" in out
    _, rows = read_csv(tmp_path / "scenario.csv")
    roles = [r["role"] for r in rows]
    assert roles.count("txv") == 1
    assert roles.count("rxv") == 1
    assert roles.count("traffic") == len(rows) - 2
    sidecar = json.loads((tmp_path / "scenario.json").read_text())
    assert sidecar["ris_candidates"] >= sidecar["irs_candidates"]


def test_blockage_table_has_the_documented_header(tmp_path):
    code = main(["blockage", "--out-dir", str(tmp_path), "--trials", "40",
                 "--rho", "20", "--rho", "40", "--r-d", "100"])
    assert code == 0
    text = (tmp_path / "blockage.csv").read_text().splitlines()
    assert text[0] == "rho,r_d,mode,p_block,ci_low,ci_high,trials"
    header, rows = read_csv(tmp_path / "blockage.csv")
    assert len(rows) == 6
    assert {r["mode"] for r in rows} == {"direct", "with_irs", "with_ris"}
    assert all(0.0 <= float(r["p_block"]) <= 1.0 for r in rows)
    # one telemetry entry per point, in grid order, each the per-trial
    # reference's counts of its own point
    telemetry = json.loads((tmp_path / "blockage.json").read_text())["telemetry"]
    grid = [(point["rho"], point["r_d"]) for point in telemetry]
    assert grid == [(20.0, 100.0), (40.0, 100.0)]
    for point in telemetry:
        assert point["dropped"] == 0
        for mode in ("irs", "ris"):
            counts = point[f"{mode}_candidates"]
            assert 0.0 <= counts["mean"] <= counts["max"]
    _, _, want = reference_blockage_sweep(SimConfig(trials=40), (20.0, 40.0), (100.0,))
    assert want[(20.0, 100.0)] != want[(40.0, 100.0)]
    assert list(want) == grid
    assert telemetry == [{"rho": rho, "r_d": r_d, **want[(rho, r_d)]} for rho, r_d in grid]


def test_snr_ecdf_writes_per_combination_files_and_a_summary(tmp_path):
    argv = ["snr-ecdf", "--out-dir", str(tmp_path), "--trials", "6",
            "--rho", "30", "--r-d", "50", "--radius", "2", *TINY_SURFACE]
    assert main(argv) == 0
    for mode in ("direct", "with_irs", "with_ris"):
        path = tmp_path / f"snr_ecdf_{mode}_R2_rho30_rd50.csv"
        header, rows = read_csv(path)
        assert header == ["snr_db", "ecdf"]
        assert len(rows) == 6
        ecdf = [float(r["ecdf"]) for r in rows]
        assert ecdf == pytest.approx([i / 6 for i in range(1, 7)])
        snrs = [float(r["snr_db"]) for r in rows]
        assert snrs == sorted(snrs)
    _, summary = read_csv(tmp_path / "snr_summary.csv")
    assert len(summary) == 3
    # the sidecars count the door cascades by rank (the whole 16 x 16
    # surface is its own skeleton) and the doors each trial gated, and one
    # point sums to the whole run
    telemetry = [
        json.loads((tmp_path / f"snr_ecdf_{mode}_R2_rho30_rd50.json").read_text())
        ["telemetry"]
        for mode in ("direct", "with_irs", "with_ris")
    ]
    assert telemetry[0] == telemetry[1] == telemetry[2]
    ranks = telemetry[0]["cascade_ranks"]
    assert list(ranks) == ["exact"] and ranks["exact"] > 0
    assert sorted(telemetry[0]) == [
        "cascade_ranks", "dropped", "irs_candidates", "irs_truncated",
        "ris_candidates", "ris_truncated", "winners",
    ]
    # each relayed mode picks one beam pair per trial
    winners = telemetry[0]["winners"]
    assert sorted(winners) == ["irs", "ris"]
    assert all(sum(counts.values()) == 6 for counts in winners.values())
    assert telemetry[0]["ris_candidates"]["max"] >= 1
    summary_side = json.loads((tmp_path / "snr_summary.json").read_text())
    assert summary_side["telemetry"] == telemetry[0]


def test_snr_ecdf_sidecars_carry_their_own_point_and_radius(tmp_path):
    # two densities and two radii: each ECDF sidecar carries its own point's
    # door counts and its own radius' cascade ranks and winners; the summary
    # carries the counts over every trial and the ranks and winners summed
    # over radii and points
    argv = ["snr-ecdf", "--out-dir", str(tmp_path), "--trials", "4", "--seed", "4",
            "--rho", "10", "--rho", "40", "--r-d", "50", "--radius", "2", "--radius", "8",
            "--set", "max_candidates=2", *TINY_SURFACE]
    assert main(argv) == 0
    config = tiny_config(trials=4, seed=4, max_candidates=2)
    counts = {rho: reference_snr_counts(config, rho, 50.0) for rho in (10.0, 40.0)}
    doors = {rho: reference_door_telemetry(rows, 2) for rho, rows in counts.items()}
    assert doors[10.0] != doors[40.0]
    spec = make_sweep("snr-ecdf", config, grid=(10.0, 40.0), r_d=(50.0,), radius=(2.0, 8.0))
    _, records = run_snr_ecdf(spec)
    ranks = {
        (rho, radius): Counter(
            {label: n for (at, label), n in record["cascade_ranks"].items() if at == radius}
        )
        for (rho, _), record in records.items()
        for radius in (2.0, 8.0)
    }
    winners = {
        (rho, radius): {
            mode: Counter(
                {label: n for (at, m, label), n in record["winners"].items()
                 if (at, m) == (radius, mode)}
            )
            for mode in ("irs", "ris")
        }
        for (rho, _), record in records.items()
        for radius in (2.0, 8.0)
    }
    # every door is scored at both radii of its trial: the 16 x 16 surface
    # is its own skeleton
    assert ranks[(40.0, 2.0)] == ranks[(40.0, 8.0)] and ranks[(40.0, 2.0)]["exact"] > 0
    for (rho, radius), point_ranks in ranks.items():
        for mode in ("direct", "with_irs", "with_ris"):
            name = f"snr_ecdf_{mode}_R{radius:g}_rho{rho:g}_rd50.json"
            telemetry = json.loads((tmp_path / name).read_text())["telemetry"]
            assert telemetry == {
                **doors[rho], "cascade_ranks": point_ranks, "winners": winners[rho, radius]
            }
    summary = json.loads((tmp_path / "snr_summary.json").read_text())["telemetry"]
    assert summary == {
        **reference_door_telemetry(counts[10.0] + counts[40.0], 2),
        "cascade_ranks": sum(ranks.values(), Counter()),
        "winners": {
            mode: sum((point[mode] for point in winners.values()), Counter())
            for mode in ("irs", "ris")
        },
    }


def test_snr_ecdf_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["snr-ecdf", "--trials", "5", "--rho", "30", "--r-d", "50",
            "--radius", "2", "--seed", "7", *TINY_SURFACE]
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    # the tables and their JSON sidecars
    files = sorted(p.name for p in out1.iterdir())
    assert {Path(name).suffix for name in files} == {".csv", ".json"}
    assert files == sorted(p.name for p in out2.iterdir())
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gain_elevation_run_at_a_low_carrier(tmp_path, capsys):
    code = main(["gain-elevation", "--out-dir", str(tmp_path),
                 "--set", "f_ghz=2"])
    assert code == 0
    assert "3 dB width" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "gain_elevation.csv")
    assert header == ["angle_deg", "gain_db_cirs", "gain_db_flat", "gain_db_bare"]
    assert len(rows) == 241
    best = max(rows, key=lambda r: float(r["gain_db_cirs"]))
    assert abs(float(best["angle_deg"]) - 90.0) <= 5.0


def test_gain_azimuth_design_angle_flag_yields_to_explicit_override(tmp_path):
    base = ["gain-azimuth", "--set", "f_ghz=2"]
    assert main(base + ["--out-dir", str(tmp_path / "flag"),
                        "--thetabar-deg", "45"]) == 0
    flag_cfg = json.loads((tmp_path / "flag" / "gain_azimuth.json").read_text())
    assert flag_cfg["config"]["thetabar_deg"] == 45.0
    assert main(base + ["--out-dir", str(tmp_path / "both"),
                        "--thetabar-deg", "45",
                        "--set", "thetabar_deg=30"]) == 0
    both_cfg = json.loads((tmp_path / "both" / "gain_azimuth.json").read_text())
    assert both_cfg["config"]["thetabar_deg"] == 30.0


def test_gain_azimuth_keeps_a_configured_design_angle(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"thetabar_deg": 30.0}))
    base = ["gain-azimuth", "--config", str(cfg_path), "--set", "f_ghz=1"]

    def design_angle(name, *extra):
        assert main(base + ["--out-dir", str(tmp_path / name), *extra]) == 0
        sidecar = json.loads((tmp_path / name / "gain_azimuth.json").read_text())
        return sidecar["config"]["thetabar_deg"]

    assert design_angle("file") == 30.0
    assert design_angle("flag", "--thetabar-deg", "45") == 45.0
    assert design_angle("set", "--thetabar-deg", "45", "--set", "thetabar_deg=20") == 20.0


def test_angle_pdf_runs_at_the_configured_rho(tmp_path, monkeypatch):
    # --rho, --set rho and the environment reach the run alike, and the
    # sidecar records the density that ran
    def run(name, *extra):
        out = tmp_path / name
        assert main(["angle-pdf", "--out-dir", str(out), "--trials", "20", *extra]) == 0
        sidecar = json.loads((out / "angle_pdf.json").read_text())
        return (out / "angle_pdf.csv").read_bytes(), sidecar["config"]["rho"]

    flag = run("flag", "--rho", "40")
    assert flag[1] == 40.0
    assert run("set", "--set", "rho=40") == flag
    monkeypatch.setenv("CONFORMAL_V2V_RHO", "40")
    assert run("env") == flag
    assert run("default", "--set", "rho=30")[0] != flag[0]


def test_angle_pdf_sidecar_counts_the_doors_of_its_run(tmp_path):
    # the telemetry is the dropped placements and the doors each mode gated,
    # counted from the point's record, whose columns are the per-trial
    # references' counts
    argv = ["angle-pdf", "--out-dir", str(tmp_path), "--trials", "20", "--seed", "3",
            "--rho", "40"]
    assert main(argv) == 0
    telemetry = json.loads((tmp_path / "angle_pdf.json").read_text())["telemetry"]
    config = SimConfig(trials=20, seed=3, rho=40.0)
    *_, record = run_angle_pdf(make_sweep("angle-pdf", config))
    irs, ris, dropped = (record[name].tolist() for name in ("irs_doors", "ris_doors", "dropped"))
    assert telemetry == {
        "dropped": sum(dropped),
        "irs_candidates": {"mean": sum(irs) / 20, "max": max(irs)},
        "ris_candidates": {"mean": sum(ris) / 20, "max": max(ris)},
    }
    rows = reference_snr_counts(config, 40.0, config.link_distance_m)
    assert [list(row) for row in zip(irs, ris, dropped)] == rows


def test_scenario_dump_records_the_scene_it_drew(tmp_path):
    # an empty road: only the two link ends, at the requested distance
    assert main(["scenario-dump", "--out-dir", str(tmp_path), "--seed", "3",
                 "--rho", "0", "--r-d", "60"]) == 0
    config = json.loads((tmp_path / "scenario.json").read_text())["config"]
    assert (config["rho"], config["link_distance_m"]) == (0.0, 60.0)
    _, rows = read_csv(tmp_path / "scenario.csv")
    assert [r["role"] for r in rows] == ["txv", "rxv"]
    assert abs(float(rows[1]["y"]) - float(rows[0]["y"])) == pytest.approx(60.0)


def test_config_file_feeds_the_run(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"m_elements": 6, "n_elements": 2}))
    assert main(["geometry-dump", "--out-dir", str(tmp_path),
                 "--config", str(cfg_path)]) == 0
    _, rows = read_csv(tmp_path / "geometry.csv")
    assert len(rows) == 12


def test_sidecars_record_package_and_library_versions(tmp_path):
    import platform

    import numpy as np

    import conformal_v2v

    assert main(["scenario-dump", "--out-dir", str(tmp_path), "--seed", "3"]) == 0
    sidecar = json.loads((tmp_path / "scenario.json").read_text())
    revision = _git_revision(Path(conformal_v2v.__file__).resolve().parent)
    assert sidecar["provenance"] == {
        "package": conformal_v2v.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git": revision,
    }
    # the revision is a 40-digit hex commit, or None outside a checkout
    assert revision is None or re.fullmatch(r"[0-9a-f]{40}", revision)

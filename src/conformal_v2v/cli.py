"""Command line front end: experiment drivers and inspection dumps.

Every subcommand resolves one SimConfig (defaults < JSON file < environment
< value flags < ``--set``; see ``_resolve``), runs, and writes CSV tables plus
a JSON sidecar recording the resolved configuration and seed, so any output
file can be reproduced from its sidecar alone.  A sweep takes its axes from
its repeatable sweep flags only (``_sweep``).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import SimConfig, resolve_config
from .experiments import (
    SweepSpec,
    draw_chunk,
    gain_width_deg,
    make_sweep,
    merge_records,
    run_angle_pdf,
    run_blockage_sweep,
    run_gain_azimuth,
    run_gain_elevation,
    run_gain_frequency,
    run_snr_ecdf,
    sidecar_telemetry,
    snr_summary,
    write_csv,
    write_sidecar,
)
from .geometry import AnglePair, build_cirs_geometry
from .phase import optimal_phase, preconfigured_phase


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument(
        "--out-dir", type=Path, default=Path("results"), help="output directory"
    )
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials")
    parser.add_argument("--threads", type=int, default=None, help="worker processes")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override any config field, e.g. --set radius_m=8; wins over every flag",
    )
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="shrink surfaces to 100x100 elements with a x16 amplitude correction, "
        "for quick looks only: relayed gains come out up to 16.5 dB above the "
        "full-size surface's at highway relay distances (see README)",
    )


def _resolve(args: argparse.Namespace) -> SimConfig:
    """The run's SimConfig: defaults < JSON file < environment < value flags
    < ``--set``.  Here alone flags become config overrides: a value flag is
    one whose destination is a config field (``--reduced`` stands for three),
    and the ``--set`` entries go in last, so each wins over any flag."""
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in SimConfig.__dataclass_fields__ and value is not None
    }
    if args.reduced:
        overrides.update(m_elements=100, n_elements=100, cascade_amp_scale=16.0)
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"override must look like field=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    return resolve_config(path=args.config, overrides=overrides)


def _sweep(args: argparse.Namespace, config: SimConfig, kind: str) -> SweepSpec:
    """``make_sweep`` of ``kind`` over its repeatable sweep flags (destinations
    ``grid``, ``r_d``, ``radius``); an axis without its flag takes its default."""
    axes = {axis: tuple(getattr(args, axis, ())) or None for axis in ("grid", "r_d", "radius")}
    return make_sweep(kind, config, **axes)


def _finish(args, config: SimConfig, name: str, columns, rows, extra=None) -> Path:
    path = write_csv(args.out_dir / name, columns, rows)
    write_sidecar(path, config, config.seed, extra)
    print(f"wrote {path}")
    return path


GAIN_COLUMNS = ["angle_deg", "gain_db_cirs", "gain_db_flat", "gain_db_bare"]


def _print_gain_summary(rows: list[dict], label: str) -> None:
    angles = np.array([r["angle_deg"] for r in rows])
    gains = np.array([r["gain_db_cirs"] for r in rows])
    peak = float(np.max(gains))
    width = gain_width_deg(angles, gains)
    print(f"{label}: peak {peak:.2f} dB, 3 dB width {width:.2f} deg")


def _cmd_gain_elevation(args) -> int:
    config = _resolve(args)
    rows = run_gain_elevation(_sweep(args, config, "gain-elevation"))
    _print_gain_summary(rows, "configured surface, elevation")
    _finish(args, config, "gain_elevation.csv", GAIN_COLUMNS, rows,
            {"experiment": "gain-elevation"})
    return 0


def _cmd_gain_azimuth(args) -> int:
    config = _resolve(args)
    rows = run_gain_azimuth(_sweep(args, config, "gain-azimuth"))
    _print_gain_summary(rows, f"fixed profile at {config.thetabar_deg:g} deg, azimuth")
    _finish(args, config, "gain_azimuth.csv", GAIN_COLUMNS, rows,
            {"experiment": "gain-azimuth"})
    return 0


def _cmd_gain_frequency(args) -> int:
    config = _resolve(args)
    spec = _sweep(args, config, "gain-frequency")
    rows = run_gain_frequency(spec)
    for f_ghz in spec.grid:
        sub = [r for r in rows if r["f_ghz"] == f_ghz]
        angles = np.array([r["angle_deg"] for r in sub])
        gains = np.array([r["gain_db_cirs"] for r in sub])
        rel = float(np.max(gains) - np.max([r["gain_db_bare"] for r in sub]))
        width = gain_width_deg(angles, gains)
        print(
            f"{f_ghz:g} GHz: peak {np.max(gains):.2f} dB "
            f"({rel:+.2f} dB vs bare), 3 dB width {width:.2f} deg"
        )
    _finish(args, config, "gain_frequency.csv",
            ["f_ghz", "angle_deg", "gain_db_cirs", "gain_db_bare"], rows,
            {"experiment": "gain-frequency"})
    return 0


def _cmd_blockage(args) -> int:
    config = _resolve(args)
    spec = _sweep(args, config, "blockage")
    rows, records = run_blockage_sweep(spec)
    for row in rows:
        print(
            f"rho={row['rho']:g} r_d={row['r_d']:g} {row['mode']}: "
            f"p_block={row['p_block']:.4f} "
            f"[{row['ci_low']:.4f}, {row['ci_high']:.4f}]"
        )
    _finish(args, config, "blockage.csv",
            ["rho", "r_d", "mode", "p_block", "ci_low", "ci_high", "trials"], rows,
            {"experiment": "blockage", "r_d_values": list(spec.r_d),
             "telemetry": [{"rho": rho, "r_d": r_d, **sidecar_telemetry(record)}
                           for (rho, r_d), record in records.items()]})
    return 0


def _cmd_snr_ecdf(args) -> int:
    config = _resolve(args)
    spec = _sweep(args, config, "snr-ecdf")
    ecdfs, records = run_snr_ecdf(spec)
    cap = config.max_candidates
    for (mode, radius, rho, r_d), values in sorted(ecdfs.items()):
        name = f"snr_ecdf_{mode}_R{radius:g}_rho{rho:g}_rd{r_d:g}.csv"
        rows = [
            {"snr_db": v, "ecdf": (i + 1) / len(values)}
            for i, v in enumerate(values.tolist())
        ]
        _finish(args, config, name, ["snr_db", "ecdf"], rows,
                {"experiment": "snr-ecdf", "mode": mode, "radius_m": radius,
                 "rho": rho, "r_d": r_d,
                 "telemetry": sidecar_telemetry(records[(rho, r_d)], cap, radius)})
    summary = snr_summary(ecdfs, spec.config.seed)
    for row in summary:
        print(
            f"{row['mode']} R={row['radius_m']:g} rho={row['rho']:g} "
            f"r_d={row['r_d']:g}: median {row['median_db']:.2f} dB "
            f"[{row['median_ci_low_db']:.2f}, {row['median_ci_high_db']:.2f}]"
        )
    _finish(args, config, "snr_summary.csv",
            ["mode", "radius_m", "rho", "r_d", "trials", "median_db",
             "median_ci_low_db", "median_ci_high_db"], summary,
            {"experiment": "snr-ecdf",
             "telemetry": sidecar_telemetry(merge_records(list(records.values())), cap)})
    return 0


def _cmd_angle_pdf(args) -> int:
    config = _resolve(args)
    rows, stats = run_angle_pdf(_sweep(args, config, "angle-pdf"))
    print(
        f"elevation {stats['elevation_mean_deg']:.2f} deg "
        f"(std {stats['elevation_std_deg']:.2f}), "
        f"azimuth {stats['azimuth_mean_deg']:.2f} deg "
        f"(std {stats['azimuth_std_deg']:.2f}), "
        f"{stats['samples']} samples"
    )
    _finish(args, config, "angle_pdf.csv",
            ["variable", "bin_left_deg", "bin_right_deg", "density"], rows,
            {"experiment": "angle-pdf", "stats": stats})
    return 0


def _layout(config: SimConfig):
    d = config.element_spacing_m
    return build_cirs_geometry(config.m_elements, config.n_elements, config.radius_m, d, d)


def _cmd_phase_dump(args) -> int:
    config = _resolve(args)
    geometry = _layout(config)
    lam = config.wavelength_m
    if args.profile == "perpendicular":
        profile = preconfigured_phase(geometry, 0.0, lam)
    elif args.profile == "preconfigured":
        profile = preconfigured_phase(
            geometry, config.thetabar_rad, lam, config.phibar_rad
        )
    else:
        incidence = AnglePair(math.radians(args.theta_i), math.radians(args.phi_i))
        reflection = AnglePair(math.radians(args.theta_o), math.radians(args.phi_o))
        profile = optimal_phase(geometry, incidence, reflection, lam)
    rows = [
        {"m": m, "n": j, "psi_m": psi, "phase_rad": phase}
        for m, psi, phases in zip(
            geometry.m_signed.tolist(), geometry.psi.tolist(), profile.phases.tolist()
        )
        for j, phase in enumerate(phases)
    ]
    _finish(args, config, "phase_profile.csv",
            ["m", "n", "psi_m", "phase_rad"], rows,
            {"experiment": "phase-dump", "profile": args.profile})
    return 0


def _cmd_scenario_dump(args) -> int:
    config = _resolve(args)
    # the scene comes from the master seed itself, not from a trial substream
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    scenes, doors = draw_chunk(config, config.rho, config.link_distance_m, [rng])
    roles = {int(scenes.txv[0]): "txv", int(scenes.rxv[0]): "rxv"}
    fields = ("lane", "x", "y", "length", "width", "height")
    rows = [
        {"index": i, **dict(zip(fields, values)), "role": roles.get(i, "traffic")}
        for i, values in enumerate(zip(*(getattr(scenes, f).tolist() for f in fields)))
    ]
    dropped, direct_blockers = int(scenes.dropped[0]), int(doors.direct[0])
    irs, ris = int(doors.irs.sum()), int(doors.ris.sum())
    print(
        f"{len(rows)} vehicles ({dropped} dropped), "
        f"direct blockers {direct_blockers}, "
        f"{irs} fixed-surface candidates, {ris} tunable candidates"
    )
    _finish(args, config, "scenario.csv",
            ["index", *fields, "role"], rows,
            {"experiment": "scenario-dump", "dropped": dropped,
             "direct_blockers": direct_blockers,
             "irs_candidates": irs, "ris_candidates": ris})
    return 0


def _cmd_geometry_dump(args) -> int:
    config = _resolve(args)
    geometry = _layout(config)
    columns = ["m", "n", "psi_m", "x", "y", "z", "nx", "ny", "nz"]
    arrays = (geometry.m_signed, geometry.psi, geometry.normals_local, geometry.positions_local)
    rows = [
        dict(zip(columns, (m, j, psi, *xyz, *normal)))
        for m, psi, normal, row in zip(*(a.tolist() for a in arrays))
        for j, xyz in enumerate(row)
    ]
    _finish(args, config, "geometry.csv", columns, rows, {"experiment": "geometry-dump"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformal-v2v",
        description="Conformal reflecting-surface V2V link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    add("gain-elevation", _cmd_gain_elevation,
        "specular elevation gain sweep: configured, flat, bare")
    p = add("gain-azimuth", _cmd_gain_azimuth,
            "specular azimuth gain sweep with the fixed profile")
    p.add_argument("--thetabar-deg", type=float, default=None,
                   help="design azimuth for this sweep in degrees "
                        "(default: the configured thetabar_deg; "
                        "an explicit --set thetabar_deg wins)")
    p = add("gain-frequency", _cmd_gain_frequency,
            "elevation gain across carrier frequencies at fixed aperture")
    p.add_argument("--f-ghz", type=float, action="append", default=[], dest="grid",
                   metavar="F_GHZ", help="carrier frequency in GHz (repeatable)")
    p = add("blockage", _cmd_blockage,
            "Monte-Carlo blockage probability vs traffic density")
    p.add_argument("--rho", type=float, action="append", default=[], dest="grid",
                   metavar="RHO", help="traffic density per lane per km (repeatable)")
    p.add_argument("--r-d", type=float, action="append", default=[],
                   help="TxV-RxV distance in m (repeatable)")
    p = add("snr-ecdf", _cmd_snr_ecdf,
            "Monte-Carlo SNR ECDFs for direct and relayed links")
    p.add_argument("--rho", type=float, action="append", default=[], dest="grid",
                   metavar="RHO", help="traffic density per lane per km (repeatable)")
    p.add_argument("--r-d", type=float, action="append", default=[],
                   help="TxV-RxV distance in m (repeatable)")
    p.add_argument("--radius", type=float, action="append", default=[],
                   help="cylinder radius in m (repeatable)")
    p = add("angle-pdf", _cmd_angle_pdf,
            "incidence-angle statistics over candidate relay doors")
    p.add_argument("--rho", type=float, default=None,
                   help="traffic density per lane per km (default: the configured rho)")
    p = add("phase-dump", _cmd_phase_dump, "per-element phase profile table")
    p.add_argument("--profile",
                   choices=("optimal", "perpendicular", "preconfigured"),
                   default="preconfigured")
    p.add_argument("--theta-i", type=float, default=0.0, help="degrees")
    p.add_argument("--phi-i", type=float, default=90.0, help="degrees")
    p.add_argument("--theta-o", type=float, default=0.0, help="degrees")
    p.add_argument("--phi-o", type=float, default=90.0, help="degrees")
    p = add("scenario-dump", _cmd_scenario_dump, "one generated traffic scene")
    p.add_argument("--rho", type=float, default=None,
                   help="traffic density per lane per km (default: the configured rho)")
    p.add_argument("--r-d", type=float, default=None, dest="link_distance_m",
                   metavar="R_D",
                   help="TxV-RxV distance in m (default: the configured link_distance_m)")
    add("geometry-dump", _cmd_geometry_dump,
        "per-element surface coordinates and normals")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

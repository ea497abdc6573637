"""The benchmark's workloads: what one round runs, and how its outputs are checked.

A round is one call of a public entry point at a fixed size, with its own
master seed, writing its CSV files and sidecars into its own directory.  A run
repeats rounds until its time is up, so every run attempts whole rounds of the
same operations.  Round ``r`` of a run with ``--seed s`` uses master seed
``round_seed(s, r)``.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import checks

ROUND_SEED_STRIDE = 1_000_000
MAX_CHECKED_ROUNDS = 12


def round_seed(seed: int, index: int) -> int:
    return seed * ROUND_SEED_STRIDE + index


def _flags(flag: str, values) -> list[str]:
    return [item for v in values for item in (flag, f"{v:g}")]


def checked_rounds(rounds: list) -> list:
    """All rounds, or an even spread of MAX_CHECKED_ROUNDS including both ends.

    Recounting scenes costs about as much as generating them, so a run of a
    much faster program checks a sample of its rounds rather than all.
    """
    n = len(rounds)
    if n <= MAX_CHECKED_ROUNDS:
        return list(rounds)
    step = (n - 1) / (MAX_CHECKED_ROUNDS - 1)
    picks = sorted({round(i * step) for i in range(MAX_CHECKED_ROUNDS)})
    return [rounds[i] for i in picks]


class RoundFailed(RuntimeError):
    pass


class Workload:
    """One workload; subclasses define the round and its checks."""

    name = ""
    ops_per_round = 0
    scores_relays = False   # whether trials score IRS doors with the fixed profile

    def setup_argv(self) -> list[str]:
        """CLI arguments whose parsing and config resolution set-up times."""
        raise NotImplementedError

    def overrides(self, seed: int) -> dict:
        """Config fields this workload sets, as the CLI would resolve them."""
        raise NotImplementedError

    def config(self, seed: int):
        from conformal_v2v.config import resolve_config

        return resolve_config(overrides=self.overrides(seed), env={})

    def run_round(self, seed: int, out: Path) -> None:
        raise NotImplementedError

    def check(self, rounds: list[tuple[int, Path]]) -> list[str]:
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose round is one ``conformal_v2v.cli.main`` call."""

    def argv(self, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        return self.argv(0, Path("unused"))

    def run_round(self, seed: int, out: Path) -> None:
        from conformal_v2v import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(seed, out))
        if code != 0:
            raise RoundFailed(f"{self.name}: cli.main returned {code}")


class BlockageSweep(CliWorkload):
    name = "blockage_sweep"

    def __init__(self, trials: int = 100, rhos=(10.0, 40.0), r_ds=(50.0, 100.0)):
        self.trials, self.rhos, self.r_ds = trials, tuple(rhos), tuple(r_ds)
        self.ops_per_round = trials * len(self.rhos) * len(self.r_ds)

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "blockage", *_flags("--rho", self.rhos), *_flags("--r-d", self.r_ds),
            "--trials", str(self.trials), "--seed", str(seed), "--threads", "1",
            "--out-dir", str(out),
        ]

    def overrides(self, seed: int) -> dict:
        return {"seed": seed, "trials": self.trials, "threads": 1}

    def check(self, rounds) -> list[str]:
        problems = []
        for seed, out in checked_rounds(rounds):
            csv_path = out / "blockage.csv"
            if checks.read_sidecar(csv_path).get("seed") != seed:
                problems.append(f"{csv_path}: sidecar seed is not {seed}")
            problems += checks.check_blockage(
                csv_path, self.config(seed), seed, self.trials, self.rhos, self.r_ds
            )
        return problems


class SnrEcdf(CliWorkload):
    scores_relays = True

    def __init__(self, name: str, reduced: bool, trials: int, rhos, r_ds, radii):
        self.name, self.reduced, self.trials = name, reduced, trials
        self.rhos, self.r_ds, self.radii = tuple(rhos), tuple(r_ds), tuple(radii)
        self.ops_per_round = trials * len(self.rhos) * len(self.r_ds) * len(self.radii)

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "snr-ecdf", *(["--reduced"] if self.reduced else []),
            *_flags("--rho", self.rhos), *_flags("--r-d", self.r_ds),
            *_flags("--radius", self.radii),
            "--trials", str(self.trials), "--seed", str(seed), "--threads", "1",
            "--out-dir", str(out),
        ]

    def overrides(self, seed: int) -> dict:
        out = {"seed": seed, "trials": self.trials, "threads": 1}
        if self.reduced:
            out.update(m_elements=100, n_elements=100, cascade_amp_scale=16.0)
        return out

    def check(self, rounds) -> list[str]:
        problems = []
        pool = checks.DirectSnrMean()
        for seed, out in checked_rounds(rounds):
            problems += checks.check_snr(
                out, self.config(seed), seed, self.trials,
                self.radii, self.rhos, self.r_ds, pool,
            )
        return problems + pool.problems()


class GainSweep(Workload):
    """Elevation and azimuth gain figures on a seeded subset of their angles.

    The CLI always sweeps the whole default grid, which one round cannot
    afford, so the round calls the sweep functions the CLI wraps and writes
    the same CSV files and sidecars through ``write_csv`` / ``write_sidecar``.
    """

    name = "gain_sweep"
    thetabar_deg = 60.0
    elevation_peak = (90.0,)
    azimuth_peak = (-60.0, 60.0)
    columns = ["angle_deg", "gain_db_cirs", "gain_db_flat", "gain_db_bare"]

    def __init__(self, angles_per_figure: int = 8):
        self.per_figure = angles_per_figure
        self.ops_per_round = 2 * angles_per_figure

    @staticmethod
    def _grid(lo: float, hi: float) -> list[float]:
        return [lo + 0.5 * i for i in range(int(round((hi - lo) / 0.5)) + 1)]

    def angles(self, seed: int) -> tuple[list[float], list[float]]:
        """Seeded elevation and azimuth angles, always holding the peaks."""
        rng = random.Random(seed)
        out = []
        for grid, peaks in (
            (self._grid(30.0, 150.0), self.elevation_peak),
            (self._grid(-89.0, 89.0), self.azimuth_peak),
        ):
            rest = [a for a in grid if a not in peaks]
            out.append(sorted([*peaks, *rng.sample(rest, self.per_figure - len(peaks))]))
        return out[0], out[1]

    def setup_argv(self) -> list[str]:
        return ["gain-azimuth", "--thetabar-deg", f"{self.thetabar_deg:g}"]

    def overrides(self, seed: int) -> dict:
        return {"seed": seed, "thetabar_deg": self.thetabar_deg}

    def run_round(self, seed: int, out: Path) -> None:
        from conformal_v2v import experiments as ex

        config = self.config(seed)
        elevation, azimuth = self.angles(seed)
        for kind, grid, sweep in (
            ("gain-elevation", elevation, ex.run_gain_elevation),
            ("gain-azimuth", azimuth, ex.run_gain_azimuth),
        ):
            rows = sweep(ex.make_sweep(kind, config, grid=tuple(grid)))
            path = ex.write_csv(out / f"{kind.replace('-', '_')}.csv", self.columns, rows)
            ex.write_sidecar(path, config, config.seed, {"experiment": kind})

    def check(self, rounds) -> list[str]:
        problems = []
        for seed, out in checked_rounds(rounds):
            f_ghz = self.config(seed).f_ghz
            elevation, azimuth = self.angles(seed)
            problems += checks.check_gain(
                out / "gain_elevation.csv", elevation, self.elevation_peak, f_ghz
            )
            problems += checks.check_gain(
                out / "gain_azimuth.csv", azimuth, self.azimuth_peak, f_ghz
            )
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        BlockageSweep(),
        SnrEcdf(
            "snr_reduced", reduced=True, trials=2,
            rhos=(10.0, 40.0), r_ds=(50.0, 100.0), radii=(2.0, 8.0),
        ),
        SnrEcdf(
            "snr_full", reduced=False, trials=1, rhos=(40.0,), r_ds=(100.0,), radii=(2.0,),
        ),
        GainSweep(),
    )
}

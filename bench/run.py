"""Benchmark of the conformal-v2v simulator: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; the package is imported from ``src/``.
The run repeats whole rounds of the workload for S seconds, checks every
output it wrote (see checks.py), and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``ops_per_s`` and ``peak_rss_mb``.  With ``--trace 1`` the run alternates
untraced and traced copies of each round and reports the per-layer metrics of
tracing.py plus the tracing overhead.  Progress and problems go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TRACE_DIR = BENCH_DIR / "traces"
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# one BLAS thread, like the single worker process every workload runs
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import conformal_v2v.cli as cli
from conformal_v2v.config import resolve_config
args = cli.build_parser().parse_args({argv!r})
resolve_config(path=args.config, overrides={overrides!r})
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def prepare_environment() -> None:
    """Import the package from this tree's src/, with one BLAS thread and no
    CONFORMAL_V2V_* variables leaking into the configuration."""
    if not (SRC / "conformal_v2v" / "__init__.py").is_file():
        raise SystemExit(f"error: no conformal_v2v package under {SRC}")
    for key in [k for k in os.environ if k.startswith("CONFORMAL_V2V_")]:
        del os.environ[key]
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path.insert(0, str(SRC))
    import conformal_v2v

    if Path(conformal_v2v.__file__).resolve().parent != (SRC / "conformal_v2v").resolve():
        raise SystemExit(f"error: conformal_v2v imported from {conformal_v2v.__file__}")


def provenance() -> dict:
    """Machine and software the figures of a run belong to."""
    import platform

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    rev = ""
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            rev = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": rev or "unknown",
    }


def measure_setup(workload, samples: int = SETUP_SAMPLES) -> float:
    """Median over fresh interpreters of importing the package and resolving
    the workload's configuration from its command line."""
    code = SETUP_SNIPPET.format(
        argv=workload.setup_argv(), overrides=workload.overrides(0)
    )
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(workload, seed: int, seconds: float, run_dir: Path, tracer=None):
    """Repeat rounds until ``seconds`` have passed.

    Returns (rounds, stats, attempted, failed): rounds lists (round seed,
    output dir, traced) of every round that completed; stats maps "untraced"
    and "traced" to [ops, seconds] summed over the entry-point calls.  With a
    tracer each round runs twice on the same seed, untraced then traced.
    """
    from workloads import round_seed

    rounds: list[tuple[int, Path, bool]] = []
    stats = {"untraced": [0, 0.0], "traced": [0, 0.0]}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        rseed = round_seed(seed, index)
        for traced in ((False, True) if tracer else (False,)):
            out = run_dir / f"r{index}{'t' if traced else ''}"
            attempted += workload.ops_per_round
            if traced:
                tracer.install()
                tracer.begin_round()
            start = time.perf_counter()
            try:
                workload.run_round(rseed, out)
            except Exception:
                failed += workload.ops_per_round
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.end_round()
                    tracer.uninstall()
            side = stats["traced" if traced else "untraced"]
            side[0] += workload.ops_per_round
            side[1] += elapsed
            rounds.append((rseed, out, traced))
        index += 1
        if time.perf_counter() >= deadline:
            break
    return rounds, stats, attempted, failed


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def rate(side) -> float:
    ops, secs = side
    return ops / secs if secs > 0 else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    trace = bool(args.trace)
    env = provenance()
    print(f"{workload.name} seed {args.seed}: {json.dumps(env)}", file=sys.stderr)
    setup_s = None if trace else measure_setup(workload)

    tracer = None
    if trace:
        from tracing import Tracer

        config = workload.config(0)
        tracer = Tracer(config.max_candidates, workload.scores_relays)

    run_dir = OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        rounds, stats, attempted, failed = run_rounds(
            workload, args.seed, args.seconds, run_dir, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = {rseed: out for rseed, out, traced in rounds if not traced}
        problems = workload.check(list(untraced.items()))
        for rseed, out, traced in rounds:
            if traced and rseed in untraced and not same_outputs(untraced[rseed], out):
                problems.append(f"{out}: traced outputs differ from untraced ones")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        traced, untraced = rate(stats["traced"]), rate(stats["untraced"])
        values = tracer.metrics(max(stats["traced"][0], 1), traced, untraced)
        from tracing import METRICS

        units = {name: unit for name, unit, _ in METRICS}
        tracer.write(
            TRACE_DIR / f"{workload.name}.json.gz",
            {"workload": workload.name, "seed": args.seed, "environment": env,
             "metrics": values},
        )
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": rate(stats["untraced"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

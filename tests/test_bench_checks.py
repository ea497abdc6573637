"""The benchmark's own output checks, run on this tree's program.

``bench/run.py`` refuses a run whose outputs fail a workload's ``check``; some
of those checks pool statistics over a run's rounds, so a fault may show on
some round seeds only.  These tests run fixed round seeds of the benchmark's
workloads, exactly as a benchmark run does, and require every check to pass.
The benchmark's files are imported, never written.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# (workload, round seeds): the first rounds of a run at one master seed
ROUNDS = {"snr_reduced": (1, 12), "blockage_sweep": (2, 3)}


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py``, imported without writing bytecode under bench/
    and with no ``CONFORMAL_V2V_*`` variable reaching the rounds' configs."""
    for key in [k for k in os.environ if k.startswith("CONFORMAL_V2V_")]:
        monkeypatch.delenv(key)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "checks"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", list(ROUNDS))
def test_benchmark_checks_pass_on_a_run_of_rounds(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    seed, count = ROUNDS[name]
    rounds = []
    for index in range(count):
        round_seed = workloads.round_seed(seed, index)
        out = tmp_path / f"r{index}"
        workload.run_round(round_seed, out)
        rounds.append((round_seed, out))
    assert workload.check(rounds) == []

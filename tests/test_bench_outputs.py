"""The benchmark's workloads, run in process, against their recorded reports.

``bench/run.py`` refuses a timed run whose stdout, exit code or report
files differ from ``bench/reference/<workload>.json`` beyond rounding; these
tests make the same check at seed 0 for every workload ``BENCHMARK.json``
names, so a change that alters what a workload prints fails here first.
The bench modules are read from ``bench/`` and nothing is written there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fvaudit import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name: str):
    """``bench/<name>.py`` as module ``bench_<name>``, without bytecode."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # a dataclass looks its module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


check, workloads = _load("check"), _load("workloads")
BENCHMARKED = [w["name"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_workload_report_matches_reference(name, tmp_path, capsys):
    code = cli.main(workloads.WORKLOADS[name].argv(0, str(tmp_path)))
    stdout = capsys.readouterr().out
    assert check.compare(check.collect(stdout, tmp_path), code,
                         check.load_reference(name)) == []

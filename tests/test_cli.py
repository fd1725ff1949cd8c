"""Command line tests: exit codes, report files, config plumbing.

Everything drives ``main(argv)`` in process except one subprocess smoke
test for the ``python -m`` entry point.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import fvaudit
from fvaudit import harness
from fvaudit.cli import main

MESH_FILE = """\
dim 1
vertices 4
0.0
0.25
0.5
1.0
cells 3
2 0 1
2 1 2
2 2 3
boundary 2
0 outflow
3 outflow
"""


def _read(out_dir, sub, name):
    return (out_dir / sub / name).read_text().splitlines()


# ---------------------------------------------------------------------------
# exit codes


def test_run_passes_on_default_problem(tmp_path, capsys):
    rc = main(["run", "--set", "base_n=24", "--set", "t_final=0.2",
               "--out", str(tmp_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "problem riemann_shock" in stdout
    assert "audit max_principle" in stdout and "PASS" in stdout
    assert (tmp_path / "run" / "report.csv").exists()
    assert (tmp_path / "run" / "timings.csv").exists()
    assert (tmp_path / "run" / "field_level0.txt").exists()


def test_run_fails_when_a_gated_audit_fails(tmp_path):
    # the undissipated central rule violates the cell entropy inequality
    rc = main(["run", "--set", "flux_rule=central", "--set", "audits=entropy",
               "--set", "base_n=20", "--set", "t_final=0.2",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 1


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--set", "problem=nope", "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--set", "no_such_key=1", "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert main(["run", "--set", "flux_rule=bogus", "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert main(["converge", "--set", "levels=1", "--out", str(tmp_path),
                 "--quiet"]) == 2


@pytest.mark.parametrize("command,override,fragment", [
    ("converge", "k_points=1", "at least two grid points"),
    ("entropy-audit", "k_points=1", "at least two grid points"),
    ("kinetic-audit", "n_v=4", "at least 8 nodes"),
    ("young-audit", "bins=1", "at least two bins"),
    ("young-audit", "patches=0", "at least one patch"),
])
def test_invalid_audit_size_exits_2_before_solving(tmp_path, capsys,
                                                   monkeypatch, command,
                                                   override, fragment):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was solved for an invalid request")
    monkeypatch.setattr(harness, "solve_level", refuse)
    rc = main([command, "--set", "problem=expansion_shock", "--set", override,
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("t_final", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["run", "converge", "entropy-audit",
                                     "kinetic-audit", "young-audit"])
def test_invalid_t_final_exits_2_before_solving(tmp_path, capsys, monkeypatch,
                                                command, t_final):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was solved for an invalid request")
    monkeypatch.setattr(harness, "solve_level", refuse)
    rc = main([command, "--set", "problem=expansion_shock",
               "--set", f"t_final={t_final}", "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert "t_final must be finite and nonnegative" in capsys.readouterr().err


def test_numerical_blow_up_exits_1(tmp_path, capsys, monkeypatch):
    # data so large that the flux overflows in the first step; the
    # overflow is reported once, as an error, not as runtime warnings
    spec = harness.PROBLEMS["smooth_sine"]
    monkeypatch.setitem(harness.PROBLEMS, "overflowing", replace(
        spec, name="overflowing",
        initial_fn=lambda mesh: 1e200 * spec.initial_fn(mesh)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["entropy-audit", "--set", "problem=overflowing",
                   "--set", "levels=1", "--set", "base_n=8",
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite cell values in the step from t=0")


def test_quiet_suppresses_stdout(tmp_path, capsys):
    rc = main(["run", "--set", "base_n=16", "--set", "t_final=0.1",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# converge


def test_converge_reports_rate_and_gate(tmp_path, capsys):
    argv = ["converge", "--set", "base_n=20", "--set", "levels=3",
            "--set", "t_final=0.2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "fitted_rate" in capsys.readouterr().out
    lines = _read(tmp_path, "converge", "report.csv")
    assert lines[0].startswith("# config: problem=riemann_shock")
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 3
    assert (tmp_path / "converge" / "rate.dat").exists()
    # an unreachable rate gate flips the exit code, reports still written
    assert main(argv + ["--min-rate", "5.0"]) == 1


# ---------------------------------------------------------------------------
# config file and overrides


def test_config_file_with_set_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("problem = riemann_shock\nlevels = 2\nbase_n = 16\n"
                   "t_final = 0.1\n")
    out = tmp_path / "out"
    rc = main(["converge", "--config", str(cfg), "--set", "levels=3",
               "--out", str(out), "--quiet"])
    assert rc == 0
    lines = _read(out, "converge", "report.csv")
    assert "levels=3" in lines[0]
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 3


def test_out_env_var_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("FVAUDIT_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--set", "base_n=16", "--set", "t_final=0.1", "--quiet"])
    assert rc == 0
    assert (tmp_path / "envout" / "run" / "report.csv").exists()


# ---------------------------------------------------------------------------
# audit subcommands and their CSV shapes


def test_entropy_audit_csv(tmp_path, capsys):
    rc = main(["entropy-audit", "--set", "base_n=20", "--set", "levels=2",
               "--set", "t_final=0.2", "--out", str(tmp_path)])
    assert rc == 0
    assert "entropy inequality" in capsys.readouterr().out.lower()
    lines = _read(tmp_path, "entropy-audit", "entropy_report.csv")
    assert lines[0].startswith("# config: ")
    assert any(l.startswith("# k_values ") for l in lines)
    assert any(l.startswith("# residual_tolerance ") for l in lines)
    assert any(l.startswith("# e_flux_rule godunov") for l in lines)
    assert any(l.startswith("# e_flux_worst_violation ") for l in lines)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "level,step,max_positive_residual"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert all(len(r.split(",")) == 3 for r in rows)
    # both levels appear
    assert {r.split(",")[0] for r in rows} == {"0", "1"}


def test_entropy_audit_fail_line_names_location(tmp_path, capsys,
                                                monkeypatch):
    # gate the central rule as if it were an E-flux, so the audit fails
    monkeypatch.setattr(harness, "exact_regime", lambda cfg: True)
    rc = main(["entropy-audit", "--set", "flux_rule=central",
               "--set", "base_n=20", "--set", "levels=2",
               "--set", "t_final=0.2", "--out", str(tmp_path)])
    assert rc == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("entropy inequality: ") and " FAIL at level " in line
    assert " step " in line and " cell " in line and " k=" in line


def test_entropy_audit_buckley_leverett(tmp_path, capsys):
    # the nonconvex flux gets exact oracles from its critical points too
    rc = main(["entropy-audit", "--set", "problem=buckley_leverett_step",
               "--set", "levels=2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entropy inequality" in out and "PASS" in out
    assert "FAIL" not in out


def test_entropy_audit_with_no_steps(tmp_path, capsys):
    # t_final=0 takes no steps: nothing to audit is a pass, not a usage error
    rc = main(["entropy-audit", "--set", "t_final=0", "--set", "levels=2",
               "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    assert "entropy inequality: worst=0.000e+00" in capsys.readouterr().out
    lines = _read(tmp_path, "entropy-audit", "entropy_report.csv")
    assert [l for l in lines if not l.startswith("#")] == \
        ["level,step,max_positive_residual"]


def test_kinetic_audit_csv(tmp_path):
    # the 10x frozen-baseline separation needs the fan reasonably resolved
    rc = main(["kinetic-audit", "--set", "problem=expansion_shock",
               "--set", "base_n=40", "--set", "levels=3",
               "--set", "t_final=0.4", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    lines = _read(tmp_path, "kinetic-audit", "kinetic_report.csv")
    assert lines[0].startswith("# config: ")
    assert any(l.startswith("# frozen_expansion_negativity ") for l in lines)
    assert any(l.startswith("# nondegeneracy_tol ") for l in lines)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "level,n_cells,h,negativity,total_mass,nondegeneracy"
    assert len(body) == 1 + 3
    nd = float(body[1].split(",")[5])
    assert 0.0 < nd < 0.01  # burgers is genuinely nonlinear


def test_kinetic_audit_rejects_open_boundaries(tmp_path, capsys):
    rc = main(["kinetic-audit", "--set", "problem=riemann_shock",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert "periodic" in capsys.readouterr().err


def test_young_audit_csv_rarefaction(tmp_path):
    rc = main(["young-audit", "--set", "problem=riemann_rarefaction",
               "--set", "base_n=40", "--set", "levels=3",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    lines = _read(tmp_path, "young-audit", "young_report.csv")
    assert any(l.startswith("# checkerboard_variance ") for l in lines)
    assert any(l.startswith("# checkerboard_flux_gap ") for l in lines)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "level,max_variance,max_nonlinearity_gap,initial_consistency"
    vars_ = [float(r.split(",")[1]) for r in body[1:]]
    assert vars_[0] > vars_[1] > vars_[2]


def test_young_audit_checkerboard_fixture(tmp_path, capsys):
    rc = main(["young-audit", "--set", "problem=checkerboard",
               "--set", "base_n=64", "--set", "levels=3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "oscillation detected" in capsys.readouterr().out
    body = [l for l in _read(tmp_path, "young-audit", "young_report.csv")
            if not l.startswith("#")]
    assert all(float(r.split(",")[1]) >= 0.9 for r in body[1:])


# ---------------------------------------------------------------------------
# mesh-info


def test_mesh_info_builtin_interval(capsys):
    assert main(["mesh-info", "interval:8"]) == 0
    out = capsys.readouterr().out
    assert "dimension 1" in out
    assert "cells 8" in out
    assert "fully_periodic true" in out
    assert main(["mesh-info", "interval:8", "--open"]) == 0
    assert "outflow 2" in capsys.readouterr().out


def test_mesh_info_builtin_square(capsys, tmp_path):
    assert main(["mesh-info", "square:4", "--periodic"]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out
    assert "cells 32" in out
    assert "fully_periodic true" in out
    vtk = tmp_path / "mesh.vtk"
    assert main(["mesh-info", "square:4", "--jitter", "0.2",
                 "--vtk", str(vtk)]) == 0
    assert vtk.exists()
    assert "regularity_max" in capsys.readouterr().out


def test_mesh_info_from_file(tmp_path, capsys):
    path = tmp_path / "three.mesh"
    path.write_text(MESH_FILE)
    assert main(["mesh-info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cells 3" in out
    assert "fully_periodic false" in out


def test_mesh_info_usage_errors(tmp_path, capsys):
    assert main(["mesh-info", "interval:"]) == 2
    assert main(["mesh-info", "hexgrid:9"]) == 2
    assert main(["mesh-info", str(tmp_path / "missing.mesh")]) == 2
    bad = tmp_path / "bad.mesh"
    bad.write_text("dim 1\nvertices x\n")
    assert main(["mesh-info", str(bad)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fvaudit", "mesh-info", "interval:4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "cells 4" in proc.stdout


def _run_without_scipy(code, *args):
    """Run ``code`` in a fresh interpreter, then assert scipy was never imported."""
    src = str(Path(fvaudit.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += "assert 'scipy' not in sys.modules\n"
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_converge_does_not_import_scipy(tmp_path):
    # scipy would add its import time and memory to every 1-D run
    _run_without_scipy(
        "import sys\n"
        "from fvaudit.cli import main\n"
        "rc = main(['converge', '--set', 'base_n=10', '--set', 'levels=2',"
        " '--set', 't_final=0.1', '--out', sys.argv[1], '--quiet'])\n"
        "assert rc == 0, rc\n", tmp_path)


def test_mesh_info_on_quads_does_not_import_scipy(tmp_path):
    # quad cells take the inscribed-circle path of the regularity report
    path = tmp_path / "quads.mesh"
    path.write_text("dim 2\nvertices 6\n0 0\n1 0\n2 0\n2 1\n1 1\n0 1\n"
                    "cells 2\n4 0 1 4 5\n4 1 2 3 4\n")
    _run_without_scipy(
        "import sys\n"
        "from fvaudit.cli import main\n"
        "assert main(['mesh-info', sys.argv[1]]) == 0\n", path)

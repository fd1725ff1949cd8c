"""Command line tests: exit codes, report files, config plumbing.

Everything drives ``main(argv)`` in process except one subprocess smoke
test for the ``python -m`` entry point.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fvaudit
from fvaudit import cli, harness
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


@pytest.fixture
def refuse_to_solve(monkeypatch):
    """Every level and twin run marches through ``harness._march``; the
    list returned holds one entry per march attempted.  The study runs on
    one CPU, so every march is attempted in this process."""
    attempts = []

    def refuse(*args, **kwargs):
        attempts.append(args)
        raise AssertionError("a level was solved for an invalid request")
    monkeypatch.setattr(harness, "_march", refuse)
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    return attempts


@pytest.mark.parametrize("command,override,fragment", [
    ("converge", "k_points=1", "at least two grid points"),
    ("entropy-audit", "k_points=1", "at least two grid points"),
    ("kinetic-audit", "n_v=4", "at least 8 nodes"),
    ("young-audit", "bins=1", "at least two bins"),
    ("young-audit", "patches=0", "at least one patch"),
])
def test_invalid_audit_size_exits_2_before_solving(tmp_path, capsys,
                                                   refuse_to_solve, command,
                                                   override, fragment):
    rc = main([command, "--set", "problem=expansion_shock", "--set", override,
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides,fragment", [
    # 8 x 8 patches over 128 triangles hold two cells each
    ("young-audit", ["problem=rotated_shock_2d", "base_n=8"],
     "patch grid too fine"),
    ("kinetic-audit", ["problem=riemann_shock"], "periodic"),
    ("run", ["audits=conservation,bogus"], "unknown audits"),
])
def test_observer_refusal_exits_2_before_solving(tmp_path, capsys,
                                                 refuse_to_solve, command,
                                                 overrides, fragment):
    argv = [command, "--out", str(tmp_path), "--quiet"]
    for pair in overrides:
        argv += ["--set", pair]
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command,audits,repeated", [
    ("run", "tv,tv", "['tv']"),
    ("converge", "contraction,entropy,contraction", "['contraction']"),
])
def test_repeated_audit_exits_2_before_solving(tmp_path, capsys,
                                               refuse_to_solve, command,
                                               audits, repeated):
    # each named audit would run, and print its line, once per mention
    rc = main([command, "--set", "problem=smooth_sine", "--set", f"audits={audits}",
               "--set", "levels=2", "--out", str(tmp_path), "--quiet"])
    assert rc == 2 and refuse_to_solve == []
    assert f"audits named more than once: {repeated}" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
def test_non_finite_rate_gate_exits_2_before_solving(tmp_path, capsys,
                                                     refuse_to_solve, bound):
    # nan fails every comparison, so the gate could never pass
    rc = main(["converge", "--set", "levels=2", f"--min-rate={bound}",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2 and refuse_to_solve == []
    assert f"--min-rate must be finite, got {float(bound)}" in capsys.readouterr().err
    assert not (tmp_path / "converge").exists()


@pytest.mark.parametrize("command", ["run", "converge", "entropy-audit",
                                     "kinetic-audit", "young-audit"])
def test_output_root_that_cannot_exist_exits_2_before_solving(
        tmp_path, capsys, refuse_to_solve, command):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc = main([command, "--set", "problem=expansion_shock", "--set", "levels=2",
               "--out", str(blocker / "reports")])
    assert rc == 2 and refuse_to_solve == []
    out = capsys.readouterr()
    assert out.out == "" and str(blocker) in out.err


@pytest.mark.parametrize("command", ["run", "converge", "entropy-audit",
                                     "kinetic-audit", "young-audit"])
def test_negative_seed_exits_2_before_solving(tmp_path, capsys,
                                              refuse_to_solve, command):
    rc = main([command, "--set", "problem=expansion_shock", "--set", "seed=-1",
               "--set", "levels=2", "--out", str(tmp_path), "--quiet"])
    assert rc == 2 and refuse_to_solve == []
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command", ["run", "converge", "entropy-audit",
                                     "kinetic-audit", "young-audit"])
def test_report_directory_that_is_a_file_exits_2_before_solving(
        tmp_path, capsys, refuse_to_solve, command):
    blocker = tmp_path / command
    # a regular file, then a link to nowhere
    for make in (lambda: blocker.write_text(""),
                 lambda: blocker.symlink_to(tmp_path / "nowhere")):
        blocker.unlink(missing_ok=True)
        make()
        rc = main([command, "--set", "problem=expansion_shock",
                   "--set", "levels=2", "--out", str(tmp_path)])
        assert rc == 2 and refuse_to_solve == []
        out = capsys.readouterr()
        assert out.out == ""
        assert f"{tmp_path / command} exists and is not a directory" in out.err


INVALID_T_FINAL = [(command, t_final, "t_final must be finite and nonnegative")
                   for command in ("run", "converge", "entropy-audit",
                                   "kinetic-audit", "young-audit")
                   for t_final in ("nan", "inf", "-1")] + [
    # no step, so no defect measure; the march counts a horizon within
    # 1e-12 of the start as reached
    ("kinetic-audit", t_final, "kinetic-audit needs t_final > 0")
    for t_final in ("0", "1e-13")]


@pytest.mark.parametrize("command,t_final,message", INVALID_T_FINAL,
                         ids=[f"{c}-{t}" for c, t, _ in INVALID_T_FINAL])
def test_invalid_t_final_exits_2_before_solving(tmp_path, capsys,
                                                refuse_to_solve,
                                                command, t_final, message):
    rc = main([command, "--set", "problem=expansion_shock",
               "--set", f"t_final={t_final}", "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_numerical_blow_up_exits_1(tmp_path, capsys, monkeypatch):
    # data so large that the flux overflows in the first step; the
    # overflow is reported once, as a failed level, not as runtime warnings
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
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("level 0: FAILED NumericalError: non-finite "
                              "cell values in the step from t=0")
    assert not (tmp_path / "entropy-audit").exists()


def test_level_whose_mesh_cannot_be_built_is_a_failed_level(tmp_path, capsys,
                                                           monkeypatch):
    spec = harness.PROBLEMS["smooth_sine"]

    def coarse_mesh_only(n):
        if n > 20:
            raise MemoryError("no mesh this fine")
        return spec.mesh_fn(n)

    def converge(problem):
        rc = main(["converge", "--set", f"problem={problem}",
                   "--set", "base_n=20", "--set", "levels=2",
                   "--out", str(tmp_path / problem)])
        return (rc, capsys.readouterr().out,
                _read(tmp_path / problem, "converge", "report.csv"))

    rc, _, whole = converge("smooth_sine")
    assert rc == 0
    monkeypatch.setitem(harness.PROBLEMS, "coarse_mesh_only", replace(
        spec, name="coarse_mesh_only", mesh_fn=coarse_mesh_only))
    rc, out, cut = converge("coarse_mesh_only")
    assert rc == 1 and "level 1: FAILED MemoryError: no mesh this fine" in out
    # four comment lines and the header, then one row per level
    assert cut[5] == whole[5]
    assert cut[6].startswith("1,0,nan,0,nan,")
    assert cut[6].endswith(",failed:MemoryError: no mesh this fine")


SINE_HORIZON = 0.95 / (2.0 * math.pi * 0.25)     # smooth_sine's reference


@pytest.mark.parametrize("command,report", [
    ("entropy-audit", "entropy_report.csv"),
    ("kinetic-audit", "kinetic_report.csv"),
    ("young-audit", "young_report.csv")])
def test_audit_past_the_reference_horizon_writes_its_report(tmp_path, capsys,
                                                           command, report):
    # no audit reads the reference, so its horizon does not fail a level
    rc = main([command, "--set", "problem=smooth_sine", "--set", "t_final=0.7",
               "--set", "levels=2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert rc == 0 and (tmp_path / command / report).exists()


def test_converge_past_the_reference_horizon_has_no_error(tmp_path, capsys):
    # like a problem without a reference: nan errors and rate, a rate gate fails
    rc = main(["converge", "--set", "problem=smooth_sine", "--set", "t_final=0.7",
               "--set", "levels=2", "--set", "base_n=20", "--min-rate", "0.5",
               "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "level 0: n=20 h=5.0000e-02 l1=nan" in out
    assert "fitted_rate nan" in out and "rate gate (>= 0.5): FAIL" in out
    assert "FAILED" not in out
    rows = _read(tmp_path, "converge", "report.csv")
    assert rows[2] == "# fitted_rate: nan"
    assert [row.split(",")[4] for row in rows[5:]] == ["nan", "nan"]
    assert all(row.endswith(",ok") for row in rows[5:])
    assert _read(tmp_path, "converge", "rate.dat")[2:] == []


@pytest.mark.parametrize("t_final", [0.3, SINE_HORIZON,
                                     SINE_HORIZON * (1.0 + 1e-13)])
def test_converge_inside_the_reference_horizon_measures_errors(tmp_path,
                                                               capsys, t_final):
    rc = main(["converge", "--set", "problem=smooth_sine",
               "--set", f"t_final={t_final!r}", "--set", "levels=2",
               "--set", "base_n=20", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    rows = _read(tmp_path, "converge", "report.csv")
    errors = [float(row.split(",")[4]) for row in rows[5:]]
    assert all(0.0 < e < 0.1 for e in errors) and errors[1] < errors[0]
    assert len(_read(tmp_path, "converge", "rate.dat")[2:]) == 2


def test_march_past_the_step_cap_exits_2_within_seconds(tmp_path):
    # about 2.6e301 steps of dt = 0.039: refused, not marched until killed
    proc = subprocess.run(
        [sys.executable, "-m", "fvaudit", "run", "--set", "problem=smooth_sine",
         "--set", "t_final=1e300", "--set", "base_n=8", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: reaching t_final=1e+300 from t=0.0 ")
    assert "about 2.578e+301 steps, more than the cap of 1000000000 steps" \
        in proc.stderr


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
def test_finer_level_past_the_step_cap_is_a_failed_level(tmp_path, capsys,
                                                         monkeypatch, cpus):
    # smooth_sine at 8, 16 and 32 cells needs about 8, 16 and 32 steps
    from fvaudit import scheme

    monkeypatch.setattr(scheme, "_STEP_CAP", 10)
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    rc = main(["converge", "--set", "problem=smooth_sine", "--set", "base_n=8",
               "--set", "levels=3", "--set", "audits=none",
               "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "level 0: FAILED" not in out
    for lvl in (1, 2):
        assert f"level {lvl}: FAILED StepCapError: reaching t_final=0.3" in out
    assert "more than the cap of 10 steps" in out


def _central_shock(tmp_path, base_n):
    return main(["entropy-audit", "--set", "problem=riemann_shock",
                 "--set", "flux_rule=central", "--set", f"base_n={base_n}",
                 "--set", "levels=1", "--out", str(tmp_path)])


def test_diverging_level_spends_its_step_budget(tmp_path, capsys):
    # the undissipated rule blows up on the shock at 400 cells; its first
    # stable step would reach t_final in 475 steps, so the level stops at
    # 16 x 475 instead of shrinking dt until the values overflow
    assert _central_shock(tmp_path, 400) == 1
    out = capsys.readouterr().out
    assert out.startswith("level 0: FAILED NumericalError: step budget of "
                          "7600 steps spent at step 7600: t=0.21")
    assert " dt=" in out and "values in [" in out
    assert not (tmp_path / "entropy-audit").exists()


def test_growing_level_with_bounded_dt_completes(tmp_path, capsys):
    # at 200 cells the central rule's values grow too, but it reaches
    # t_final in 878 steps, 3.7x what its first step would need
    assert _central_shock(tmp_path, 200) == 1
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert out.startswith("entropy inequality: worst=1.680e+00 ")
    assert "e-flux sampling (10004 cases): worst=1.100e+00 FAIL" in out
    lines = _read(tmp_path, "entropy-audit", "entropy_report.csv")
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 878
    assert max(float(r[2]) for r in rows) == pytest.approx(
        1.6803932362128737, rel=1e-12)
    assert float(rows[-1][2]) == pytest.approx(1.4128615976933481, rel=1e-12)


def _failing_problems():
    """Valid requests whose solve fails: data that overflows in the first
    step, and data that raises on any mesh finer than three cells."""
    spec = harness.PROBLEMS["smooth_sine"]

    def coarse_only(mesh):
        if mesh.n_cells > 3:
            raise ValueError("no data on this level")
        return spec.initial_fn(mesh)

    return {"overflowing": replace(spec, name="overflowing",
                                   initial_fn=lambda m: 1e200 * spec.initial_fn(m)),
            "coarse_only": replace(spec, name="coarse_only",
                                   initial_fn=coarse_only)}


# valid values of config keys, as the text a user would pass; small sizes
# keep every run short
VALID_SETS = {
    "problem": sorted(harness.PROBLEMS) + sorted(_failing_problems()),
    "flux_rule": ["godunov", "lax_friedrichs", "engquist_osher", "central"],
    "reconstruction": ["constant", "limited_linear"],
    "time_integrator": ["euler", "ssp_rk2"],
    "lf_dissipation_mode": ["local", "global"],
    "cfl_number": ["0.45", "0.9"],
    "base_n": ["3", "6"],
    "levels": ["1", "2"],
    "t_final": ["0", "0.02", "0.05"],
    "audits": ["auto", "none", "tv,entropy", "contraction"],
    "k_points": ["2", "5"],
    "n_v": ["8", "16"],
    "patches": ["1", "2"],
    "bins": ["2", "8"],
    "seed": ["0", "3"],
}
INVALID_SETS = [("problem", "nope"), ("flux_rule", "bogus"),
                ("reconstruction", "cubic"), ("lf_dissipation_mode", "often"),
                ("cfl_number", "1.5"), ("base_n", "1"), ("levels", "0"),
                ("levels", "two"), ("t_final", "-1"), ("t_final", "nan"),
                ("t_final", "1e-13"), ("audits", "bogus"), ("k_points", "1"),
                ("n_v", "4"), ("patches", "0"), ("bins", "1"), ("seed", "-1"),
                ("vtk", "maybe")]


# about two examples in three take valid values only; combinations of
# valid values can still be refused (kinetic-audit of an open problem)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["run", "converge", "entropy-audit",
                                "kinetic-audit", "young-audit"]),
       pairs=st.fixed_dictionaries({key: st.sampled_from(values)
                                    for key, values in VALID_SETS.items()}),
       invalid=st.none() | st.none() | st.sampled_from(INVALID_SETS),
       quiet=st.booleans())
def test_exit_code_contract(tmp_path_factory, command, pairs, invalid, quiet):
    """Exit 0, 1 or 2, never an uncaught exception, and 2 only when no
    level has taken a step.  Exit 2 prints only its error, exit 1 is
    exactly a run that prints a FAIL line, and --quiet prints nothing."""
    if invalid is not None:
        pairs = {**pairs, invalid[0]: invalid[1]}
    argv = [command, "--out", str(tmp_path_factory.mktemp("fuzz"))]
    if quiet:
        argv.append("--quiet")
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value}"]
    marches = []
    march = harness._march

    def counted(*args, **kwargs):
        marches.append(args)
        return march(*args, **kwargs)

    failing = _failing_problems()
    stdout, stderr = io.StringIO(), io.StringIO()
    harness._march = counted
    harness.PROBLEMS.update(failing)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    finally:
        harness._march = march
        for name in failing:
            del harness.PROBLEMS[name]
    out = stdout.getvalue()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert marches == [], argv
        assert out == "" and stderr.getvalue().startswith("error:"), argv
    elif not quiet:
        assert (rc == 1) == ("FAIL" in out), argv
    if quiet:
        assert out == "", argv


@pytest.fixture
def returned(monkeypatch):
    """What each handler that ``main`` calls returns, in call order."""
    seen = []

    def spy(handler):
        def handle(*args):
            seen.append(handler(*args))
            return seen[-1]
        return handle

    for name in ("_cmd_run", "_cmd_converge", "_run_audit"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    return seen


def _sets(*pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


# one passing and one failing request per solver subcommand, and levels
# that fail
@pytest.mark.parametrize("argv, code", [
    pytest.param(["run", *_sets("base_n=24", "t_final=0.2")], 0, id="run-0"),
    pytest.param(["run", *_sets("flux_rule=central", "audits=entropy",
                                "base_n=20", "t_final=0.2")], 1, id="run-1"),
    pytest.param(["converge", *_sets("base_n=20", "levels=2", "t_final=0.2"),
                  "--min-rate", "0.3"], 0, id="converge-0"),
    pytest.param(["converge", *_sets("base_n=20", "levels=2", "t_final=0.2"),
                  "--min-rate", "5.0"], 1, id="converge-1"),
    pytest.param(["entropy-audit", *_sets("base_n=20", "levels=2",
                                          "t_final=0.2")], 0, id="entropy-0"),
    pytest.param(["entropy-audit", *_sets("flux_rule=central", "base_n=20",
                                          "levels=2", "t_final=0.2")], 1,
                 id="entropy-1"),
    pytest.param(["kinetic-audit", *_sets("problem=expansion_shock",
                                          "base_n=40", "levels=3",
                                          "t_final=0.4")], 0, id="kinetic-0"),
    # the trend holds; the frozen baseline is not 10x the finest score
    pytest.param(["kinetic-audit", *_sets("problem=expansion_shock",
                                          "base_n=20", "levels=2")], 1,
                 id="kinetic-1"),
    pytest.param(["young-audit", *_sets("problem=smooth_sine", "base_n=40",
                                        "levels=2")], 0, id="young-0"),
    # no trend verdict; the flux gap of the 40-cell checkerboard is off
    pytest.param(["young-audit", *_sets("problem=smooth_sine", "base_n=40",
                                        "levels=1")], 1, id="young-1"),
    pytest.param(["converge", *_sets("problem=overflowing", "base_n=8",
                                     "levels=2"), "--min-rate", "1"], 1,
                 id="failed-levels")])
def test_verdicts_decide_the_exit_code(tmp_path, capsys, monkeypatch, returned,
                                       argv, code):
    """The handler's verdicts alone set the exit code, and stdout is its
    lines, with one PASS or FAIL for each verdict."""
    monkeypatch.setitem(harness.PROBLEMS, "overflowing",
                        _failing_problems()["overflowing"])
    rc = main([*argv, "--out", str(tmp_path)])
    [(lines, verdicts)] = returned
    assert verdicts and all(isinstance(v, harness.AuditResult)
                            and type(v.passed) is bool for v in verdicts)
    assert rc == code == (0 if all(v.passed for v in verdicts) else 1)
    out = capsys.readouterr().out.splitlines()
    assert out == lines
    assert sum(line.count("PASS") for line in out) == \
        sum(v.passed for v in verdicts)
    assert sum(line.count("FAIL") for line in out) == \
        sum(not v.passed for v in verdicts)


def test_study_audit_fail_line_names_its_location(tmp_path, capsys, returned):
    # the failing central run of test_run_fails_when_a_gated_audit_fails;
    # the entropy audit locates its worst residual by step, cell and k, as
    # entropy-audit does, the TV audit its worst growth by step only
    rc = main(["run", *_sets("flux_rule=central", "audits=entropy,tv",
                             "base_n=20", "t_final=0.2"), "--out", str(tmp_path)])
    assert rc == 1
    entropy, tv = returned[0][1]
    assert entropy.worst_step >= 0 and entropy.worst_cell >= 0
    assert entropy.worst_k is not None and math.isfinite(entropy.worst_k)
    assert tv.worst_step >= 0 and tv.worst_cell == -1 and tv.worst_k is None
    out = capsys.readouterr().out.splitlines()
    assert (f"level 0 audit entropy: value={entropy.value:.3e} "
            f"threshold={entropy.threshold:.3e} FAIL at step "
            f"{entropy.worst_step} cell {entropy.worst_cell} "
            f"k={entropy.worst_k:.17g}") in out
    assert (f"level 0 audit tv: value={tv.value:.3e} "
            f"threshold={tv.threshold:.3e} FAIL at step {tv.worst_step}") in out


# correct Godunov runs whose "strictly decreasing" gate fails on one
# pre-asymptotic level, or on a score that meets a velocity-grid floor; a
# gate on a fitted rate over the levels should pass them
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a by-level trend is gated on every step down")
@pytest.mark.parametrize("argv", [
    ["young-audit"],
    ["young-audit", "--set", "problem=buckley_leverett_step"],
    ["kinetic-audit", "--set", "problem=smooth_sine"],
    ["kinetic-audit", "--set", "problem=advected_profile"]],
    ids=["young-riemann_shock", "young-buckley_leverett_step",
         "kinetic-smooth_sine", "kinetic-advected_profile"])
def test_correct_scheme_passes_its_trend_gate(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0


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


def test_entropy_audit_gates_where_the_entropy_row_says(tmp_path, capsys,
                                                        monkeypatch):
    argv = ["entropy-audit", "--set", "flux_rule=central", "--set", "base_n=20",
            "--set", "levels=2", "--set", "t_final=0.2", "--out", str(tmp_path)]
    assert main(argv) == 1    # central is no E-flux: the sampling fails
    assert " reported (" in capsys.readouterr().out.splitlines()[0]
    # widening the entropy row alone widens the subcommand's gate
    row = harness.AUDITS["entropy"]
    monkeypatch.setitem(harness.AUDITS, "entropy",
                        row._replace(gated=lambda cfg, spec: True))
    assert main(argv) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert " FAIL at level " in line and " step " in line and " cell " in line


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


def test_kinetic_audit_is_seedless(tmp_path):
    # the nondegeneracy measure is exact, so only the config echo names
    # the seed (a sampled measure read 1.404e-03 at seed 0, 1.465e-03 at 9)
    reports = []
    for seed in (0, 9):
        out = tmp_path / f"seed{seed}"
        rc = main(["kinetic-audit", "--set", "problem=expansion_shock",
                   "--set", "base_n=20", "--set", "levels=2",
                   "--set", f"seed={seed}", "--out", str(out), "--quiet"])
        assert rc in (0, 1)
        lines = _read(out, "kinetic-audit", "kinetic_report.csv")
        assert f" seed={seed} " in lines[0]
        reports.append([lines[0].replace(f" seed={seed} ", " seed=_ "),
                        *lines[1:]])
    assert reports[0] == reports[1]


def test_kinetic_audit_rejects_open_boundaries(tmp_path, capsys):
    rc = main(["kinetic-audit", "--set", "problem=riemann_shock",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert "periodic" in capsys.readouterr().err


@pytest.mark.parametrize("command, problem, head", [
    ("kinetic-audit", "expansion_shock", "negativity by level: "),
    ("young-audit", "smooth_sine", "max patch variance by level: ")],
    ids=["kinetic-audit", "young-audit"])
def test_one_level_has_no_trend_verdict(tmp_path, capsys, command, problem,
                                        head):
    # a single value is not a decreasing sequence: the line says so, and
    # the other verdicts alone set the exit code
    rc = main([command, "--set", f"problem={problem}", "--set", "base_n=40",
               "--set", "levels=1", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(head)
    assert lines[0].endswith("  (one level: no trend to check)")
    assert rc == (1 if any("FAIL" in line for line in lines) else 0)
    # two levels still get the strictly-decreasing check
    main([command, "--set", f"problem={problem}", "--set", "base_n=40",
          "--set", "levels=2", "--out", str(tmp_path)])
    line = capsys.readouterr().out.splitlines()[0]
    assert "no trend" not in line
    assert line.endswith("(strictly decreasing PASS)") or "FAIL" in line


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


@pytest.mark.parametrize("command", ["young-audit", "entropy-audit",
                                     "kinetic-audit", "converge"])
def test_each_level_builds_its_mesh_once(tmp_path, monkeypatch, command):
    # one CPU, so every build happens in this process; level 0's patch grid
    # is checked on the field its march starts from
    built = []
    build = harness.build_problem_mesh

    def counted(cfg, level):
        built.append(level)
        return build(cfg, level)

    monkeypatch.setattr(harness, "build_problem_mesh", counted)
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    rc = main([command, "--set", "problem=smooth_sine",
               "--set", "base_n=40", "--set", "levels=2",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    assert built == [0, 1]


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


def test_mesh_info_jitter_bound(capsys):
    assert main(["mesh-info", "square:16", "--jitter", "0.3"]) == 2
    assert "jitter must sit in [0, 0.25]" in capsys.readouterr().err
    assert main(["mesh-info", "square:16", "--jitter", "0.25"]) == 0
    assert "regularity_max" in capsys.readouterr().out


@pytest.mark.parametrize("source,flag", [
    ("interval:8", ["--jitter", "0.2"]), ("interval:8", ["--jitter", "-1"]),
    ("file", ["--jitter", "0.1"]), ("file", ["--periodic"]),
    ("file", ["--open"])])
def test_mesh_info_refuses_a_flag_its_source_ignores(tmp_path, capsys,
                                                     monkeypatch, source, flag):
    path = tmp_path / "three.mesh"
    path.write_text(MESH_FILE)
    built = []
    for name in ("_builtin_mesh", "load_mesh"):
        monkeypatch.setattr(cli, name, lambda *a: built.append(a))
    assert main(["mesh-info", str(path) if source == "file" else source,
                 *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[0] in err
    assert built == []


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
# levels solved side by side: what a run prints and writes does not depend
# on where its levels were solved


def _mesh_only_up_to(limit):
    spec = harness.PROBLEMS["smooth_sine"]

    def mesh_fn(n):
        if n > limit:
            raise MemoryError("no mesh this fine")
        return spec.mesh_fn(n)
    return replace(spec, name="coarse_mesh_only", mesh_fn=mesh_fn)


def _outputs(tmp_path, argv):
    """Exit code, stdout, stderr and every report but timings.csv."""
    out, stdout, stderr = tmp_path / "out", io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([*argv, "--out", str(out)])
    reports = {str(p.relative_to(out)): p.read_bytes()
               for p in sorted(out.rglob("*"))
               if p.is_file() and p.name != "timings.csv"}
    return (rc, stdout.getvalue().replace(str(out), "OUT"),
            stderr.getvalue().replace(str(out), "OUT"), reports)


SPLIT_RUNS = {
    "converge": ["converge", "--set", "problem=smooth_sine", "--set", "levels=5"],
    "kinetic": ["kinetic-audit", "--set", "problem=expansion_shock",
                "--set", "levels=4"],
    # levels 0-2 are marched again, level 3 spends its step budget
    "central": ["entropy-audit", "--set", "problem=riemann_shock",
                "--set", "flux_rule=central", "--set", "levels=4"],
    "young": ["young-audit", "--set", "problem=riemann_rarefaction",
              "--set", "levels=4"],
    "mesh_fails": ["converge", "--set", "problem=coarse_mesh_only",
                   "--set", "levels=4"],
}


@pytest.mark.parametrize("run", list(SPLIT_RUNS))
def test_forked_levels_print_and_write_what_serial_ones_do(tmp_path,
                                                          monkeypatch, run):
    monkeypatch.setitem(harness.PROBLEMS, "coarse_mesh_only", _mesh_only_up_to(100))
    got = {}
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_cpus", lambda: cpus)
        got[cpus] = _outputs(tmp_path / str(cpus), SPLIT_RUNS[run])
    assert got[1] == got[2]
    assert got[1][0] == {"central": 1, "mesh_fails": 1}.get(run, 0)


@pytest.mark.parametrize("death,how", [
    ("exit", "exited with status 3"),
    ("kill", "was killed by signal 9"),
])
def test_dead_child_fails_its_levels(tmp_path, capsys, monkeypatch, death, how):
    import signal

    spec, parent = harness.PROBLEMS["smooth_sine"], os.getpid()

    def mesh_fn(n):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return spec.mesh_fn(n)

    monkeypatch.setitem(harness.PROBLEMS, "dying", replace(
        spec, name="dying", mesh_fn=mesh_fn))
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    rc = main(["converge", "--set", "problem=dying", "--set", "base_n=10",
               "--set", "levels=4", "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr()
    assert out.err == ""
    for lvl in (1, 2):
        assert (f"level {lvl}: FAILED ChildProcessError: the process solving "
                f"levels 1, 2 {how}") in out.out
    assert "level 3: FAILED" not in out.out and "level 0: FAILED" not in out.out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_levels_fork_once_with_one_thread_alive(tmp_path, monkeypatch):
    # forking a process that runs other threads can copy a lock one of them
    # holds; Python 3.12 and later warn about it
    import threading

    fork, alive = os.fork, []

    def counted_fork():
        alive.append(threading.active_count())
        return fork()

    monkeypatch.setattr(harness.os, "fork", counted_fork)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    rc = main(["converge", "--set", "levels=4", "--out", str(tmp_path),
               "--quiet"])
    assert rc == 0
    assert alive == [1]


def test_forked_levels_load_no_process_pool_module(tmp_path):
    # multiprocessing and concurrent.futures cost more to import than a
    # small study gains from a second CPU
    _run_without_scipy(
        "import sys\n"
        "from fvaudit import harness\n"
        "from fvaudit.cli import main\n"
        "harness._cpus = lambda: 2\n"
        "rc = main(['converge', '--set', 'base_n=10', '--set', 'levels=3',"
        " '--set', 't_final=0.1', '--out', sys.argv[1], '--quiet'])\n"
        "assert rc == 0, rc\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n", tmp_path)


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fvaudit", "mesh-info", "interval:4"],
        capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0
    assert "cells 4" in proc.stdout


def _src_env() -> dict:
    """This environment with the tested package's source directory first on
    ``PYTHONPATH``, for a fresh interpreter."""
    src = str(Path(fvaudit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _run_without_scipy(code, *args):
    """Run ``code`` in a fresh interpreter, then assert scipy was never imported."""
    code += "assert 'scipy' not in sys.modules\n"
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr


def test_converge_does_not_import_scipy(tmp_path):
    # scipy would add its import time and memory to every 1-D run
    _run_without_scipy(
        "import sys\n"
        "from fvaudit.cli import main\n"
        "rc = main(['converge', '--set', 'base_n=10', '--set', 'levels=2',"
        " '--set', 't_final=0.1', '--out', sys.argv[1], '--quiet'])\n"
        "assert rc == 0, rc\n", tmp_path)


def _run_without_numpy_ma(argv):
    # np.unique's first call imports numpy.ma, about 18 ms of every run
    _run_without_scipy(
        "import sys\n"
        "from fvaudit.cli import main\n"
        f"rc = main({argv!r})\n"
        "assert rc == 0, rc\n"
        "assert 'numpy.ma' not in sys.modules\n")


def test_converge_does_not_import_numpy_ma(tmp_path):
    _run_without_numpy_ma(["converge", "--set", "problem=smooth_sine",
                           "--set", "levels=2", "--out", str(tmp_path),
                           "--quiet"])


@pytest.mark.parametrize("argv", [
    ["converge", "--set", "problem=rotated_shock_2d", "--set", "levels=2",
     "--set", "base_n=4", "--quiet"],
    ["mesh-info", "square:8"],
], ids=["converge", "mesh-info"])
def test_2d_runs_do_not_import_numpy_ma(tmp_path, argv):
    if argv[0] == "converge":
        argv = [*argv, "--out", str(tmp_path)]
    _run_without_numpy_ma(argv)


def test_mesh_info_on_quads_does_not_import_scipy(tmp_path):
    # quad cells take the inscribed-circle path of the regularity report
    path = tmp_path / "quads.mesh"
    path.write_text("dim 2\nvertices 6\n0 0\n1 0\n2 0\n2 1\n1 1\n0 1\n"
                    "cells 2\n4 0 1 4 5\n4 1 2 3 4\n")
    _run_without_scipy(
        "import sys\n"
        "from fvaudit.cli import main\n"
        "assert main(['mesh-info', sys.argv[1]]) == 0\n", path)

"""Study harness tests: rates, configs, audit gating, reports on disk."""

import numpy as np
import pytest

from fvaudit import (
    CellField,
    StudyConfig,
    cell_averages,
    config_echo,
    fit_rate,
    l1_error,
    make_flux,
    parse_config,
    reference,
    run_study,
    solve_level,
    uniform_interval_mesh,
    write_study_report,
)
from fvaudit import harness


# ---------------------------------------------------------------------------
# rate fitting and errors


def test_fit_rate_exact_first_order():
    assert fit_rate([0.1, 0.05], [0.1, 0.05]) == pytest.approx(1.0)


def test_fit_rate_exact_half_order():
    assert fit_rate([0.1, 0.05], [0.1, 0.1 / np.sqrt(2.0)]) == pytest.approx(0.5)


def test_fit_rate_least_squares_over_three_levels():
    hs = np.array([0.1, 0.05, 0.025])
    errs = 3.0 * hs ** 0.8
    assert fit_rate(hs, errs) == pytest.approx(0.8)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([0.1], [0.1])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.1], [0.1, 0.05])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.05], [0.1, 0.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.05], [0.1, 0.05, 0.025])


def test_l1_error_of_constant_shift():
    flux = make_flux("burgers")
    ref = reference("riemann_shock", flux, ul=1.0, ur=0.0)
    mesh = uniform_interval_mesh(30, -0.5, 1.0, periodic=False)
    exact = cell_averages(mesh, lambda x: ref(0.0, x))
    field = CellField(mesh, exact + 0.1, t=0.0)
    # domain has measure 1.5, so a uniform 0.1 shift costs exactly 0.15
    assert l1_error(field, ref) == pytest.approx(0.15, abs=1e-13)
    assert l1_error(CellField(mesh, exact, t=0.0), ref) <= 1e-15


def test_l1_error_time_override():
    flux = make_flux("linear_advection", a=1.0)
    ref = reference("advected_profile", flux)
    mesh = uniform_interval_mesh(20, 0.0, 1.0, periodic=True)
    field = CellField(mesh, cell_averages(mesh, lambda x: ref(0.25, x)), t=0.0)
    assert l1_error(field, ref, t=0.25) <= 1e-12


# ---------------------------------------------------------------------------
# configuration


def test_study_config_defaults_resolve_problem_time():
    cfg = StudyConfig()
    assert cfg.problem == "riemann_shock"
    assert cfg.resolved_t_final == pytest.approx(0.4)
    assert StudyConfig(t_final=0.1).resolved_t_final == pytest.approx(0.1)


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(problem="nonexistent")
    with pytest.raises(ValueError):
        StudyConfig(levels=0)
    with pytest.raises(ValueError):
        StudyConfig(base_n=1)
    with pytest.raises(Exception):
        StudyConfig(flux_rule="not_a_rule")
    for key, bad, fragment in (("n_v", 7, "at least 8 nodes"),
                               ("k_points", 1, "at least two grid points"),
                               ("bins", 1, "at least two bins"),
                               ("patches", 0, "at least one patch"),
                               ("t_final", -1.0, "t_final must be finite"),
                               ("t_final", float("inf"), "t_final must be finite"),
                               ("t_final", float("nan"), "t_final must be finite")):
        with pytest.raises(ValueError, match=fragment):
            StudyConfig(**{key: bad})
    assert StudyConfig(t_final=0.0).resolved_t_final == 0.0


def test_parse_config_lines_and_comments():
    cfg = parse_config("""
        problem = smooth_sine   # periodic test case
        levels = 3

        cfl_number = 0.3
    """)
    assert cfg.problem == "smooth_sine"
    assert cfg.levels == 3
    assert cfg.cfl_number == pytest.approx(0.3)
    assert cfg.base_n == 50  # untouched default


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(["no_such_key=1"])
    with pytest.raises(ValueError, match="key=value"):
        parse_config(["just a sentence"])
    with pytest.raises(ValueError):
        parse_config(["levels=three"])


def test_parse_config_layers_over_base():
    base = parse_config(["problem=advected_profile", "levels=2"])
    cfg = parse_config(["levels=5"], base=base)
    assert cfg.problem == "advected_profile"
    assert cfg.levels == 5


def test_config_echo_round_trip():
    cfg = StudyConfig(problem="smooth_sine", flux_rule="engquist_osher",
                      levels=3, t_final=0.2, cfl_number=0.4, vtk=True)
    assert parse_config(config_echo(cfg).split()) == cfg


def test_audit_names_gating():
    # non-periodic first-order E-flux run: no conservation/contraction
    cfg = StudyConfig(problem="riemann_shock")
    assert cfg.audit_names() == ("max_principle", "tv", "entropy")
    # periodic adds conservation and the twin-run contraction check
    cfg = StudyConfig(problem="smooth_sine")
    assert cfg.audit_names() == ("conservation", "max_principle", "tv",
                                 "contraction", "entropy")
    # exact per-step inequalities hold only for first-order euler E-fluxes
    cfg = StudyConfig(problem="smooth_sine", reconstruction="limited_linear")
    assert cfg.audit_names() == ("conservation",)
    cfg = StudyConfig(problem="riemann_shock", flux_rule="central")
    assert cfg.audit_names() == ()
    assert StudyConfig(audits="none").audit_names() == ()
    cfg = StudyConfig(audits="conservation,tv")
    assert cfg.audit_names() == ("conservation", "tv")
    with pytest.raises(ValueError, match="unknown audits"):
        StudyConfig(audits="conservation,bogus").audit_names()


def test_audit_names_2d_drops_tv():
    cfg = StudyConfig(problem="rotated_shock_2d", base_n=8)
    names = cfg.audit_names()
    assert "tv" not in names
    assert "max_principle" in names


# ---------------------------------------------------------------------------
# studies end to end


def _small_cfg(**kw):
    base = dict(problem="riemann_shock", base_n=20, levels=2, t_final=0.2)
    base.update(kw)
    return StudyConfig(**base)


def test_solve_level_hits_output_times():
    traj, flux = solve_level(_small_cfg(), 0, output_times=(0.1,))
    assert flux.name == "burgers"
    assert any(abs(t - 0.1) <= 1e-12 for t in traj.times)
    assert traj.final.t == pytest.approx(0.2)


def test_run_study_shock_levels_and_rate():
    result = run_study(_small_cfg(levels=3))
    assert [lv.level for lv in result.levels] == [0, 1, 2]
    assert [lv.n_cells for lv in result.levels] == [20, 40, 80]
    errs = [lv.l1 for lv in result.levels]
    assert all(np.isfinite(errs)) and errs[0] > errs[1] > errs[2]
    assert result.audits_pass
    assert 0.4 <= result.fitted_rate <= 1.5
    assert len(result.rate_pairs) == 3
    assert result.trajectories == []


def test_run_study_keeps_trajectories_on_request():
    result = run_study(_small_cfg(), keep_trajectories=True)
    assert len(result.trajectories) == 2
    assert result.trajectories[1].mesh.n_cells == 40


def test_run_study_without_reference_reports_nan():
    result = run_study(StudyConfig(problem="expansion_shock", base_n=16,
                                   levels=2, t_final=0.1))
    assert all(np.isnan(lv.l1) for lv in result.levels)
    assert np.isnan(result.fitted_rate)
    assert result.rate_pairs == []
    assert result.audits_pass  # audits still ran and passed


def test_run_study_records_level_failure_and_continues():
    spec = harness.PROBLEMS["riemann_shock"]

    def bad_initial(mesh):
        if mesh.n_cells > 30:
            raise ValueError("synthetic level failure")
        return spec.initial_fn(mesh)

    harness.PROBLEMS["_bad_problem"] = harness.ProblemSpec(
        name="_bad_problem", dim=1, periodic=False,
        flux_fn=spec.flux_fn, mesh_fn=spec.mesh_fn, initial_fn=bad_initial,
        reference_fn=spec.reference_fn, default_t_final=0.2,
        states=spec.states)
    try:
        result = run_study(StudyConfig(problem="_bad_problem", base_n=20,
                                       levels=2))
        assert not result.levels[0].failed
        assert result.levels[1].failed
        assert "synthetic level failure" in result.levels[1].error_message
        assert np.isnan(result.levels[1].l1)
        assert not result.audits_pass
        assert np.isnan(result.fitted_rate)  # one surviving pair is not a rate
    finally:
        del harness.PROBLEMS["_bad_problem"]


# ---------------------------------------------------------------------------
# reports on disk


def test_write_study_report_files_and_columns(tmp_path):
    result = run_study(_small_cfg(), keep_trajectories=True)
    files = write_study_report(result, tmp_path, trajectories=result.trajectories)
    text = files["report"].read_text().splitlines()
    assert text[0].startswith("# config: problem=riemann_shock")
    assert text[1] == "# seed: 0"
    assert text[2].startswith("# fitted_rate: ")
    assert text[3] == "# audits_pass: true"
    assert text[4] == ("level,n_cells,h,steps,l1_error,audit_conservation,"
                       "audit_max_principle,audit_tv,audit_contraction,"
                       "audit_entropy,status")
    body = text[5:]
    assert len(body) == 2
    assert all(row.endswith(",ok") for row in body)
    # non-periodic study: conservation column is not populated
    assert body[0].split(",")[5] == "nan"

    rate_lines = files["rate"].read_text().splitlines()
    assert rate_lines[0] == "# h  l1_error"
    assert len(rate_lines) == 2 + len(result.rate_pairs)

    timing_lines = files["timings"].read_text().splitlines()
    assert timing_lines[0] == "level,n_cells,steps,runtime_seconds"
    assert len(timing_lines) == 3

    dump = files["field_1"].read_text().splitlines()
    assert dump[1] == "# idx x value"
    assert len(dump) == 2 + 40


def test_report_is_deterministic_across_reruns(tmp_path):
    cfg = _small_cfg()
    files_a = write_study_report(run_study(cfg), tmp_path / "a")
    files_b = write_study_report(run_study(cfg), tmp_path / "b")
    assert files_a["report"].read_bytes() == files_b["report"].read_bytes()
    assert files_a["rate"].read_bytes() == files_b["rate"].read_bytes()
    # timings are wall-clock and deliberately live in their own file
    assert files_a["timings"].name == "timings.csv"


def test_report_marks_failed_level(tmp_path):
    spec = harness.PROBLEMS["riemann_shock"]
    harness.PROBLEMS["_always_fails"] = harness.ProblemSpec(
        name="_always_fails", dim=1, periodic=False, flux_fn=spec.flux_fn,
        mesh_fn=spec.mesh_fn,
        initial_fn=lambda mesh: (_ for _ in ()).throw(ValueError("boom, csv")),
        reference_fn=None, default_t_final=0.1, states=())
    try:
        result = run_study(StudyConfig(problem="_always_fails", base_n=10,
                                       levels=1))
        files = write_study_report(result, tmp_path)
        row = files["report"].read_text().splitlines()[-1]
        assert row.endswith("failed:ValueError: boom; csv")  # comma sanitized
        assert "# audits_pass: false" in files["report"].read_text()
    finally:
        del harness.PROBLEMS["_always_fails"]


def test_vtk_dump_when_enabled(tmp_path):
    cfg = StudyConfig(problem="rotated_shock_2d", base_n=6, levels=1,
                      t_final=0.05, vtk=True, audits="none")
    result = run_study(cfg, keep_trajectories=True)
    files = write_study_report(result, tmp_path, trajectories=result.trajectories)
    vtk_text = files["vtk_0"].read_text()
    assert vtk_text.startswith("# vtk DataFile Version 3.0")
    assert "CELL_DATA" in vtk_text

"""Study harness tests: rates, configs, audit gating, reports on disk."""

import tracemalloc

import numpy as np
import pytest

from fvaudit import (
    CellField,
    StudyConfig,
    VGrid,
    cell_averages,
    config_echo,
    defect_measure,
    fit_rate,
    kinetic_residual,
    kruzkov_k_grid,
    l1_error,
    make_flux,
    parse_config,
    reference,
    run,
    run_entropy_audit,
    run_study,
    solve_level,
    twin_run,
    uniform_interval_mesh,
    write_study_report,
)
from fvaudit import entropy as entropy_mod
from fvaudit import harness
from fvaudit import kinetic as kinetic_mod
from fvaudit.harness import build_problem_mesh
from fvaudit.scheme import state_range


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


def test_run_study_shock_levels_and_rate():
    result = run_study(_small_cfg(levels=3))
    assert [lv.level for lv in result.levels] == [0, 1, 2]
    assert [lv.n_cells for lv in result.levels] == [20, 40, 80]
    errs = [lv.l1 for lv in result.levels]
    assert all(np.isfinite(errs)) and errs[0] > errs[1] > errs[2]
    assert result.audits_pass
    assert 0.4 <= result.fitted_rate <= 1.5
    assert len(result.rate_pairs) == 3


def test_run_study_keeps_final_fields():
    result = run_study(_small_cfg())
    finals = [lv.final for lv in result.levels]
    assert [f.mesh.n_cells for f in finals] == [20, 40]
    assert all(f.t == pytest.approx(0.2) for f in finals)


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
    result = run_study(_small_cfg())
    files = write_study_report(result, tmp_path)
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
    result = run_study(cfg)
    files = write_study_report(result, tmp_path)
    vtk_text = files["vtk_0"].read_text()
    assert vtk_text.startswith("# vtk DataFile Version 3.0")
    assert "CELL_DATA" in vtk_text


# ---------------------------------------------------------------------------
# the level driver: streamed audits against the library functions over the
# kept trajectory


def _reference_audits(traj, flux, scheme_cfg):
    """Conservation, max principle, TV and contraction values computed from
    every field of a kept trajectory, as the audits did before they streamed."""
    fields = traj.fields
    masses = np.array([f.total_mass for f in fields])
    conservation = float(np.abs(masses - masses[0]).max()) \
        / max(1.0, float(np.abs(masses[0])))
    lo, hi = float(fields[0].values.min()), float(fields[0].values.max())
    over = 0.0
    for f in fields[1:]:
        over = max(over, float(f.values.max()) - hi, lo - float(f.values.min()))
    tvs = np.array([harness._total_variation(f) for f in fields])
    tv = max(float(np.diff(tvs).max()) if len(tvs) > 1 else 0.0, 0.0)
    mesh, initial = traj.mesh, fields[0]
    center = float(mesh.vertices[:, 0].mean())
    bump = cell_averages(
        mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
    ta, tb = twin_run(initial, CellField(mesh, initial.values + bump),
                      flux, scheme_cfg, traj.final.t)
    dist = np.array([float(mesh.cell_area @ np.abs(a.values - b.values))
                     for a, b in zip(ta.fields, tb.fields)])
    contraction = max(float(np.diff(dist).max()) if len(dist) > 1 else 0.0, 0.0)
    return {"conservation": conservation, "max_principle": max(over, 0.0),
            "tv": tv, "contraction": contraction}


EQUIVALENCE_CASES = {
    # first-order E-flux: the range never leaves the data's, no replay
    "exact": dict(problem="smooth_sine", flux_rule="godunov", base_n=60,
                  t_final=0.2),
    # the central rule overshoots: the range grows and the level replays
    "central_shock": dict(problem="riemann_shock", flux_rule="central",
                          base_n=60, t_final=0.2),
    "central_sine": dict(problem="smooth_sine", flux_rule="central",
                         base_n=60, t_final=0.2),
}


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_streamed_level_matches_library_functions(case, monkeypatch):
    cfg = StudyConfig(levels=1, n_v=32,
                      audits="conservation,max_principle,tv,contraction,entropy",
                      **EQUIVALENCE_CASES[case])
    spec = harness.PROBLEMS[cfg.problem]

    def observe(cfg, level, flux):
        out = harness.study_observers(cfg, level, flux)
        out.append(lambda lo, hi: entropy_mod.EntropyAudit(
            flux, cfg.scheme(), kruzkov_k_grid(lo, hi, n=cfg.k_points,
                                               extra=spec.states)))
        if spec.periodic:
            out.append(lambda lo, hi: kinetic_mod.DefectAudit(
                flux, VGrid.for_range(lo, hi, n=cfg.n_v)))
        return out

    replayed = []
    step_fn = harness.step
    monkeypatch.setattr(harness, "step",
                        lambda *a, **k: replayed.append(1) or step_fn(*a, **k))
    lv = solve_level(cfg, 0, observe)

    flux, scheme_cfg = spec.flux_fn(), cfg.scheme()
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    traj = run(initial, flux, scheme_cfg, cfg.resolved_t_final)
    lo, hi = state_range(traj)
    grows = (lo, hi) != (float(initial.values.min()), float(initial.values.max()))
    assert grows == (case != "exact")
    assert len(replayed) == (lv.steps if grows else 0)
    assert lv.steps == len(traj) - 1
    assert lv.state_range == (lo, hi)
    assert lv.final.values.tobytes() == traj.final.values.tobytes()
    assert lv.final.t == traj.final.t

    audits = lv.audits
    ref = _reference_audits(traj, flux, scheme_cfg)
    for a in audits[:4]:
        assert a.value.hex() == ref[a.name].hex(), a.name

    k_grid = kruzkov_k_grid(lo, hi, n=cfg.k_points, extra=spec.states)
    want = run_entropy_audit(traj, flux, scheme_cfg, k_grid, tol=1e-12)
    study_entropy, rpt = audits[4], audits[5]
    assert study_entropy.value.hex() == want.worst.hex()
    assert study_entropy.passed == want.passed
    assert rpt.per_step.tobytes() == want.per_step.tobytes()
    assert rpt.k_grid.tobytes() == want.k_grid.tobytes()
    assert (rpt.worst.hex(), rpt.worst_step, rpt.worst_cell, repr(rpt.worst_k)) \
        == (want.worst.hex(), want.worst_step, want.worst_cell, repr(want.worst_k))

    if spec.periodic:
        got = audits[6]
        dm = defect_measure(kinetic_residual(traj, flux,
                                             VGrid.for_range(lo, hi, n=cfg.n_v)))
        for name in ("negativity_score", "pointwise_negativity", "total_mass",
                     "edge_mass", "worst_step", "worst_cell", "worst_v"):
            assert getattr(got, name) == getattr(dm, name), name


def test_entropy_k_grid_adds_the_problem_states():
    # smooth_sine's cell averages miss its landmark states 0.25 and 0.75;
    # the study audit and the entropy-audit subcommand share one k grid
    from fvaudit import cli

    cfg = StudyConfig(problem="smooth_sine", levels=1, base_n=20,
                      t_final=0.05, audits="entropy")
    spec = harness.PROBLEMS[cfg.problem]
    lv = solve_level(cfg, 0)
    want = kruzkov_k_grid(*lv.state_range, n=cfg.k_points, extra=spec.states)
    assert want.size == cfg.k_points + 2
    assert lv.audits[0].detail.endswith(f"over {want.size} k values")
    rpt = solve_level(cfg, 0, cli._entropy_observers).audits[0]
    assert rpt.k_grid.tobytes() == want.tobytes()


def test_observers_built_from_a_range_see_only_fields_inside_it():
    class Inside:
        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi

        def start(self, field0):
            self.step(None, field0, 0.0)

        def step(self, before, after, dt):
            assert self.lo <= after.values.min() <= after.values.max() <= self.hi

        def finish(self):
            return self.lo, self.hi

    # the central rule overshoots the data: the level is replayed
    cfg = StudyConfig(problem="riemann_shock", flux_rule="central", base_n=60,
                      levels=1, t_final=0.2)
    lv = solve_level(cfg, 0, lambda cfg, level, flux: [Inside])
    assert lv.audits == [lv.state_range] and lv.state_range != (0.0, 1.0)


def test_first_level_observer_refusal_is_an_invalid_request():
    def refusing(cfg, level, flux):
        if level == 0:
            raise ValueError("refused")
        return []

    with pytest.raises(harness.InvalidRequest, match="refused"):
        run_study(_small_cfg(), refusing)


def test_later_level_observer_failure_is_a_failed_level():
    def refusing(cfg, level, flux):
        if level == 1:
            raise ValueError("refused at level 1")
        return []

    result = run_study(_small_cfg(), refusing)
    assert not result.levels[0].failed
    assert result.levels[1].error_message == "ValueError: refused at level 1"


def test_level_memory_does_not_grow_with_steps():
    # a level keeps its final field and O(1) or O(steps) scalars; one field
    # per step kept by the run, its audits or the contraction twins would
    # add 8 * n_cells bytes per step
    n_cells = 1000

    def peak(t_final):
        cfg = StudyConfig(problem="smooth_sine", base_n=n_cells, levels=1,
                          t_final=t_final)
        tracemalloc.start()
        try:
            lv = solve_level(cfg, 0)
            return tracemalloc.get_traced_memory()[1], lv.steps
        finally:
            tracemalloc.stop()

    peak(0.05)  # first-call allocations of the interpreter and numpy
    (short, few), (long, many) = peak(0.05), peak(0.1)
    assert many >= 2 * few - 1
    assert long - short <= 8 * n_cells * (many - few) // 4

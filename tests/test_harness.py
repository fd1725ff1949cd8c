"""Study harness tests: rates, configs, audit gating, reports on disk."""

import itertools
import math
import os
import tracemalloc
from dataclasses import replace

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
from fvaudit.scheme import (FLUX_RULES, INTEGRATORS, LF_MODES, RECONSTRUCTIONS,
                            _replay, state_range)


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
    # NaN sizes count as one size; 0 and -0 are the same size
    for hs in ([np.nan, np.nan], [0.0, -0.0], [0.1, 0.1]):
        with pytest.raises(ValueError, match="two distinct mesh sizes"):
            fit_rate(hs, [0.1, 0.05])
    with pytest.raises(ValueError, match="must be positive"):
        fit_rate([np.nan, 0.1], [0.1, 0.05])


def test_l1_error_of_constant_shift():
    flux = make_flux("burgers")
    ref = reference("riemann_shock", flux)
    mesh = uniform_interval_mesh(30, -0.5, 1.0, periodic=False)
    exact = cell_averages(mesh, lambda x: ref(0.0, x))
    field = CellField(mesh, exact + 0.1, t=0.0)
    # domain has measure 1.5, so a uniform 0.1 shift costs exactly 0.15
    assert l1_error(field, ref) == pytest.approx(0.15, abs=1e-13)
    assert l1_error(CellField(mesh, exact, t=0.0), ref) <= 1e-15


@pytest.mark.parametrize("base_n", [37, 50, 100])
@pytest.mark.parametrize("problem", ["riemann_shock", "riemann_rarefaction",
                                     "smooth_sine", "advected_profile"])
def test_problem_data_is_its_reference_at_time_zero(problem, base_n):
    """The problem table and ``reference`` each state a problem's data: the
    table's cell averages equal the reference's at t = 0, bit for bit."""
    spec = harness.PROBLEMS[problem]
    mesh = spec.mesh_fn(base_n)
    want = cell_averages(mesh, spec.reference_fn(spec.flux_fn()).initial)
    assert spec.initial_fn(mesh).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [7, 64, 3200])
def test_every_problem_with_a_reference_starts_from_it(n):
    """Every problem row with a ``reference_fn`` takes its data from it: the
    level's initial field is the reference's cell averages at t = 0, bit
    for bit."""
    rows = [spec for spec in harness.PROBLEMS.values() if spec.reference_fn]
    assert len(rows) >= 4
    for spec in rows:
        mesh = spec.mesh_fn(n)
        want = cell_averages(mesh, spec.reference_fn(spec.flux_fn()).initial)
        got = harness.initial_field(spec, mesh).values
        assert got.tobytes() == want.tobytes(), spec.name


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
                               ("t_final", float("nan"), "t_final must be finite"),
                               ("seed", -1, "seed must be nonnegative")):
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


def test_parse_config_bool_words():
    for text in ("1", "true", "YES", "On"):
        assert parse_config([f"vtk={text}"]).vtk is True
    for text in ("0", "False", "no", "OFF"):
        assert parse_config([f"vtk={text}"]).vtk is False
    for text in ("flase", "2", "", "maybe"):
        with pytest.raises(ValueError, match=f"vtk must be one of .*got '{text}'"):
            parse_config([f"vtk={text}"])


def test_parse_config_layers_over_base():
    base = parse_config(["problem=advected_profile", "levels=2"])
    cfg = parse_config(["levels=5"], base=base)
    assert cfg.problem == "advected_profile"
    assert cfg.levels == 5


def test_config_echo_round_trip():
    cfg = StudyConfig(problem="smooth_sine", flux_rule="engquist_osher",
                      levels=3, t_final=0.2, cfl_number=0.4, vtk=True)
    assert parse_config(config_echo(cfg).split()) == cfg


def test_config_echo_is_pinned():
    # report headers carry this line, so its format must not drift
    assert config_echo(StudyConfig()) == (
        "problem=riemann_shock flux_rule=godunov reconstruction=constant "
        "time_integrator=euler cfl_number=0.45000000000000001 "
        "lf_dissipation_mode=local base_n=50 levels=4 "
        "t_final=0.40000000000000002 audits=auto seed=0 n_v=128 k_points=33 "
        "patches=8 bins=64 vtk=false")
    every = parse_config([
        "problem=rotated_shock_2d", "flux_rule=lax_friedrichs",
        "reconstruction=limited_linear", "time_integrator=ssp_rk2",
        "cfl_number=0.3", "lf_dissipation_mode=global", "base_n=6",
        "levels=2", "t_final=0.125", "audits=entropy,tv", "seed=7", "n_v=16",
        "k_points=5", "patches=2", "bins=4", "vtk=yes"])
    assert config_echo(every) == (
        "problem=rotated_shock_2d flux_rule=lax_friedrichs "
        "reconstruction=limited_linear time_integrator=ssp_rk2 "
        "cfl_number=0.29999999999999999 lf_dissipation_mode=global base_n=6 "
        "levels=2 t_final=0.125 audits=entropy,tv seed=7 n_v=16 k_points=5 "
        "patches=2 bins=4 vtk=true")


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
    with pytest.raises(ValueError, match=r"more than once: \['tv'\]"):
        StudyConfig(audits="tv,conservation,tv")


def _nested_if_audit_names(cfg: StudyConfig) -> tuple[str, ...]:
    """The audit selection as nested ifs over one regime, kept verbatim as
    the reference the audit table must reproduce."""
    spec = harness.PROBLEMS[cfg.problem]
    if cfg.audits == "none":
        return ()
    if cfg.audits != "auto":
        return tuple(s.strip() for s in cfg.audits.split(",") if s.strip())
    names = []
    if spec.periodic:
        names.append("conservation")
    if (cfg.reconstruction == "constant" and cfg.time_integrator == "euler"
            and cfg.flux_rule in ("godunov", "lax_friedrichs", "engquist_osher")):
        names.append("max_principle")
        if spec.dim == 1:
            names.append("tv")
        if spec.periodic:
            names.append("contraction")
        names.append("entropy")
    return tuple(names)


@pytest.mark.parametrize("audits", ["auto", "none", "entropy,tv",
                                    " conservation , contraction,"])
def test_audit_table_selects_what_the_nested_ifs_did(audits):
    configs = itertools.product(harness.PROBLEMS, FLUX_RULES, RECONSTRUCTIONS,
                                INTEGRATORS, LF_MODES)
    for problem, rule, recon, integrator, mode in configs:
        cfg = StudyConfig(problem=problem, flux_rule=rule, reconstruction=recon,
                          time_integrator=integrator, lf_dissipation_mode=mode,
                          audits=audits)
        assert cfg.audit_names() == _nested_if_audit_names(cfg), cfg
    assert harness.AUDIT_ORDER == ("conservation", "max_principle", "tv",
                                   "contraction", "entropy")


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
    tvs = np.array([parent_total_variation(f) for f in fields])
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
    # no replay: the entropy audit takes the face record the march advanced
    # with, and run_entropy_audit rebuilds it from the kept trajectory
    "lf_local": dict(problem="smooth_sine", flux_rule="lax_friedrichs",
                     base_n=60, t_final=0.2),
    "lf_global": dict(problem="riemann_shock", flux_rule="lax_friedrichs",
                      lf_dissipation_mode="global", base_n=60, t_final=0.2),
    "engquist_osher": dict(problem="expansion_shock",
                           flux_rule="engquist_osher", base_n=60,
                           t_final=0.2),
    "ssp_rk2": dict(problem="smooth_sine", time_integrator="ssp_rk2",
                    base_n=60, t_final=0.2),
    "limited_linear": dict(problem="riemann_shock",
                           reconstruction="limited_linear", base_n=60,
                           t_final=0.2),
    "rotated_shock_2d": dict(problem="rotated_shock_2d", base_n=6,
                             t_final=0.2),
}
REPLAYING_CASES = ("central_shock", "central_sine")


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

    marches = []
    march_fn = harness._march
    monkeypatch.setattr(harness, "_march",
                        lambda *a, **k: marches.append(1) or march_fn(*a, **k))
    lv = solve_level(cfg, 0, observe)

    flux, scheme_cfg = spec.flux_fn(), cfg.scheme()
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    traj = run(initial, flux, scheme_cfg, cfg.resolved_t_final)
    lo, hi = state_range(traj)
    grows = (lo, hi) != (float(initial.values.min()), float(initial.values.max()))
    assert grows == (case in REPLAYING_CASES)
    # every pass over the level is one march, its twin pair in the same
    # stack; a level whose range grows is marched again, without the twin
    assert len(marches) == (2 if grows else 1)
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


def twin_run_contraction(cfg, spec):
    """The contraction verdict from a kept twin run to ``t_final``, as the
    audit computed it when it marched the twin after its level."""
    flux, scheme_cfg = spec.flux_fn(), cfg.scheme()
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    mesh = initial.mesh
    center = float(mesh.vertices[:, 0].mean())
    bump = cell_averages(
        mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
    ta, tb = twin_run(initial, CellField(mesh, initial.values + bump),
                      flux, scheme_cfg, cfg.resolved_t_final)
    dist = [float(mesh.cell_area @ np.abs(a.values - b.values))
            for a, b in zip(ta.fields, tb.fields)]
    growth, where = -math.inf, -1
    for n, (before, after) in enumerate(zip(dist, dist[1:])):
        if after - before > growth:
            growth, where = after - before, n
    return harness._exact(
        "contraction", growth, dist[0],
        "largest one-step growth of the L1 distance to a twin run", where)


CONTRACTION_CASES = {
    **EQUIVALENCE_CASES,
    # equal steps that sum to 2 ulp below t_final: the level arrives
    # unclipped, and its twin marches on to t_final itself
    "off_t_final": dict(problem="advected_profile", base_n=24, t_final=0.3),
}


@pytest.mark.parametrize("case", list(CONTRACTION_CASES))
def test_contraction_of_the_level_march_matches_a_twin_run(case):
    """The twin pair marched as a group of the level's stack gives the
    verdict of a separate twin run to ``t_final``, bit for bit."""
    cfg = StudyConfig(levels=1, audits="contraction", **CONTRACTION_CASES[case])
    lv = solve_level(cfg, 0)
    assert (lv.final.t != cfg.resolved_t_final) == (case == "off_t_final")
    (got,) = lv.audits
    want = twin_run_contraction(cfg, harness.PROBLEMS[cfg.problem])
    assert got == want
    assert (got.value.hex(), got.threshold.hex()) \
        == (want.value.hex(), want.threshold.hex())
    assert got.worst_step >= 0


def test_a_level_marched_again_marches_its_twin_once(monkeypatch):
    """The central rule leaves the data range, so the level is marched
    again for the entropy audit; the first pass fed the contraction audit
    to the end, so its twin is not marched again: its ``take`` runs once
    per step of a ``twin_run`` of the same pair."""
    cfg = StudyConfig(flux_rule="central", audits="contraction,entropy",
                      levels=1)
    takes, marches = [], []
    take, march = harness._Contraction._take, harness._march
    monkeypatch.setattr(harness._Contraction, "_take",
                        lambda obs, entry: takes.append(1) or take(obs, entry))
    monkeypatch.setattr(harness, "_march",
                        lambda *a, **k: marches.append(1) or march(*a, **k))
    lv = solve_level(cfg, 0)
    assert len(marches) == 2
    spec = harness.PROBLEMS[cfg.problem]
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    mesh = initial.mesh
    center = float(mesh.vertices[:, 0].mean())
    bump = cell_averages(
        mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
    ta, _ = twin_run(initial, CellField(mesh, initial.values + bump),
                     spec.flux_fn(), cfg.scheme(), cfg.resolved_t_final)
    assert len(takes) == len(ta) - 1 == lv.steps
    assert lv.audits[0] == twin_run_contraction(cfg, spec)


def test_entropy_audit_takes_the_face_flux_the_step_advanced_with(monkeypatch):
    # the scheme's face flux goes through scheme.numerical_flux, the clipped
    # entropy flux through entropy's own binding: one call per step of each
    # march, and none to locate the worst step, which keeps its record
    from fvaudit import scheme as scheme_mod

    calls = []
    flux_fn = scheme_mod.numerical_flux
    monkeypatch.setattr(scheme_mod, "numerical_flux",
                        lambda *a, **k: calls.append(1) or flux_fn(*a, **k))
    cfg = StudyConfig(problem="smooth_sine", base_n=40, levels=1,
                      t_final=0.1, audits="entropy")
    lv = solve_level(cfg, 0)
    assert lv.steps > 1 and lv.audits[0].passed
    assert len(calls) == lv.steps

    # the central rule leaves the data range: the level is marched twice,
    # and the second march hands the audit its records too
    calls.clear()
    lv = solve_level(replace(cfg, problem="riemann_shock", flux_rule="central",
                             base_n=60, t_final=0.2), 0)
    assert lv.steps == 50 and lv.state_range != (0.0, 1.0)
    assert len(calls) == 2 * lv.steps


class Recorder:
    """Every call an observer gets, as (name, field, faces)."""

    def __init__(self, lo=None, hi=None):
        self.calls = []

    def start(self, field0):
        self.calls.append(("start", field0, None))

    def step(self, field, faces):
        self.calls.append(("step", field, faces))

    def finish(self):
        return self.calls


@pytest.mark.parametrize("problem,rule,base_n,t_final", [
    ("smooth_sine", "godunov", 40, 0.1),
    # the central rule overshoots the data: the level is marched twice
    ("riemann_shock", "central", 60, 0.2)])
def test_observers_get_every_state_the_march_reaches(problem, rule, base_n,
                                                     t_final):
    cfg = StudyConfig(problem=problem, flux_rule=rule, base_n=base_n,
                      levels=1, t_final=t_final)
    built = []

    def observe(cfg, level, flux):
        return [lambda lo, hi: built.append(Recorder(lo, hi)) or built[-1]]

    calls = solve_level(cfg, 0, observe).audits[0]
    spec = harness.PROBLEMS[problem]
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    traj = run(initial, spec.flux_fn(), cfg.scheme(), cfg.resolved_t_final)
    assert len(built) == (2 if rule == "central" else 1) and len(traj) > 3

    def states(calls):
        return [(name, f.values.tobytes(), f.t) for name, f, _ in calls]

    names = ["start"] + ["step"] * (len(traj) - 1)
    want = [(name, f.values.tobytes(), f.t)
            for name, f in zip(names, traj.fields)]
    assert states(calls) == want
    assert calls[0][2] is None
    assert all(len(faces) == 4 for _, _, faces in calls[1:])
    replayed = _replay(traj.fields, [Recorder()])[0]
    assert states(replayed) == want
    assert all(faces is None for _, _, faces in replayed)


def test_marched_again_level_hands_observers_every_face_record():
    from fvaudit.scheme import _face_record

    def observe(cfg, level, flux):
        class Records:
            """Whether each step's record is the one that step advanced with."""

            def __init__(self, lo, hi):
                self.same = []

            def start(self, field0):
                self.before = field0

            def step(self, field, faces):
                before, self.before = self.before, field
                want = _face_record(before.mesh, flux, cfg.scheme(),
                                    before.values)
                self.same.append(faces is not None and all(
                    x.tobytes() == y.tobytes() for x, y in zip(faces[:3], want)))

            def finish(self):
                return self.same

        return [Records]

    # the central rule overshoots the data: the level is marched twice
    cfg = StudyConfig(problem="riemann_shock", flux_rule="central", base_n=60,
                      levels=1, t_final=0.2)
    lv = solve_level(cfg, 0, observe)
    assert lv.state_range != (0.0, 1.0)
    assert len(lv.audits[0]) == lv.steps == 50 and all(lv.audits[0])


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
            self.step(field0, None)

        def step(self, field, faces):
            assert self.lo <= field.values.min() <= field.values.max() <= self.hi

        def finish(self):
            return self.lo, self.hi

    # the central rule overshoots the data: the level is replayed
    cfg = StudyConfig(problem="riemann_shock", flux_rule="central", base_n=60,
                      levels=1, t_final=0.2)
    lv = solve_level(cfg, 0, lambda cfg, level, flux: [Inside])
    assert lv.audits == [lv.state_range] and lv.state_range != (0.0, 1.0)


class ScaledTwin:
    """An observer that hands the driver a group of its own, ``scale``
    times the level's data, and counts the level's steps and its own."""

    def __init__(self, scale, seen):
        self.scale, self.seen = scale, seen

    def start(self, field0):
        self.group = (CellField(field0.mesh, self.scale * field0.values,
                                field0.t),)
        self.lead = self.own = 0
        self.error = None

    def twin(self):
        return self.group, self.take

    def take(self, entry):
        if isinstance(entry, Exception):
            self.error = entry
        else:
            self.own += 1

    def step(self, field, faces):
        self.lead += 1

    def finish(self):
        self.seen.append((self.lead, self.own))
        if self.error is not None:
            raise self.error
        return self.own


def test_twin_failure_fails_its_level_after_the_level_march(monkeypatch):
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    cfg = StudyConfig(problem="smooth_sine", base_n=8, levels=2, t_final=0.3)
    seen = []
    # data near the largest float overflows the twin's first step
    result = run_study(cfg, lambda cfg, level, flux: [ScaledTwin(1e200, seen)])
    plain = run_study(replace(cfg, audits="none"))
    for lv, ok in zip(result.levels, plain.levels):
        assert lv.error_message == ("NumericalError: non-finite cell values "
                                    "in the step from t=0.0")
    # every level marched to its end before its twin's error failed it
    assert seen == [(ok.steps, 0) for ok in plain.levels]


def test_contraction_twin_failure_fails_its_level(monkeypatch):
    # the twin's bumped field near the largest float overflows its first step
    twin = harness._Contraction.twin

    def blown(self):
        (a, b), take = twin(self)
        return (a, CellField(b.mesh, 1e200 * b.values, b.t)), take

    monkeypatch.setattr(harness._Contraction, "twin", blown)
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    cfg = StudyConfig(problem="smooth_sine", base_n=8, levels=2, t_final=0.3,
                      audits="conservation,contraction")
    for lv in run_study(cfg).levels:
        assert lv.error_message == ("NumericalError: non-finite cell values "
                                    "in the step from t=0.0")


def test_twin_refused_by_the_step_cap_is_a_failed_level(monkeypatch):
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    cfg = StudyConfig(problem="smooth_sine", base_n=8, levels=1, t_final=0.3)
    seen = []
    # speeds 1e9 times the level's: the twin would need over 10**9 steps
    (lv,) = run_study(cfg, lambda cfg, level, flux: [ScaledTwin(1e9, seen)]).levels
    assert lv.error_message.startswith("StepCapError: reaching t_final=0.3")
    assert seen == [(solve_level(replace(cfg, audits="none"), 0).steps, 0)]


def test_level_error_comes_before_its_twin_error(monkeypatch):
    from fvaudit import scheme as scheme_mod

    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    monkeypatch.setattr(scheme_mod, "_BUDGET_FACTOR", 1)
    cfg = _small_cfg(flux_rule="central", levels=1, base_n=60, t_final=0.4)
    want = run_study(replace(cfg, audits="none")).levels[0].error_message
    assert want.startswith("NumericalError: step budget of")
    # the twin fails in its first step, long before the level does
    got = run_study(cfg, lambda cfg, level, flux: [ScaledTwin(1e200, [])])
    assert got.levels[0].error_message == want


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


@pytest.mark.memory
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


# ---------------------------------------------------------------------------
# worst locations: each against a brute-force scan of a kept trajectory


LOCATED = {
    # first-order: nothing escapes, the locations are the closest approaches
    "godunov": dict(problem="smooth_sine", base_n=16, t_final=0.2),
    # the inflow cell holds the data maximum on every step: ties
    "godunov_shock": dict(problem="riemann_shock", base_n=16, t_final=0.2),
    # the central rule leaves the data range: the levels are marched again
    "central": dict(problem="smooth_sine", flux_rule="central", base_n=16,
                    t_final=0.2),
}


def _first_argmax(values) -> tuple:
    values = np.asarray(values)
    return tuple(int(i) for i in np.unravel_index(values.argmax(), values.shape))


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
@pytest.mark.parametrize("case", list(LOCATED))
def test_audit_worst_locations_match_a_scan_of_the_trajectory(monkeypatch,
                                                              case, cpus):
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    cfg = StudyConfig(levels=3, audits="max_principle,tv,contraction",
                      **LOCATED[case])
    spec = harness.PROBLEMS[cfg.problem]
    flux, scheme_cfg = spec.flux_fn(), cfg.scheme()
    for lv in run_study(cfg).levels:
        initial = harness.initial_field(spec, build_problem_mesh(cfg, lv.level))
        traj = run(initial, flux, scheme_cfg, cfg.resolved_t_final)
        mp, tv, contraction = lv.audits
        lo, hi = initial.values.min(), initial.values.max()
        escape = [np.maximum(f.values - hi, lo - f.values) for f in traj.fields[1:]]
        assert (mp.worst_step, mp.worst_cell) == _first_argmax(escape)
        tvs = [parent_total_variation(f) for f in traj.fields]
        assert (tv.worst_step, tv.worst_cell) == (*_first_argmax(np.diff(tvs)), -1)
        mesh = initial.mesh
        center = float(mesh.vertices[:, 0].mean())
        bump = cell_averages(
            mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
        ta, tb = twin_run(initial, CellField(mesh, initial.values + bump),
                          flux, scheme_cfg, traj.final.t)
        dists = [float(mesh.cell_area @ np.abs(a.values - b.values))
                 for a, b in zip(ta.fields, tb.fields)]
        assert (contraction.worst_step, contraction.worst_cell) \
            == (*_first_argmax(np.diff(dists)), -1)
    if case == "central":
        assert lv.audits[0].value > 0.0


def parent_total_variation(field):
    """``harness._total_variation`` before the observer took its interior
    face pairs once, verbatim."""
    mesh = field.mesh
    interior = mesh.face_right >= 0
    jumps = np.abs(field.values[mesh.face_right[interior]]
                   - field.values[mesh.face_left[interior]])
    return float(jumps.sum())


@pytest.mark.parametrize("problem,base_n", [("riemann_shock", 40),
                                            ("smooth_sine", 40),
                                            ("rotated_shock_2d", 6)])
def test_total_variation_observer_keeps_its_bits(problem, base_n):
    cfg = StudyConfig(problem=problem, base_n=base_n, levels=1, t_final=0.1)
    spec = harness.PROBLEMS[problem]
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    traj = run(initial, spec.flux_fn(), cfg.scheme(), cfg.resolved_t_final)
    obs = harness._TotalVariation()
    obs.start(initial)
    assert obs.tv.hex() == parent_total_variation(initial).hex()
    for field in traj.fields[1:]:
        obs.step(field, None)
        want = parent_total_variation(field).hex()
        assert obs.tv.hex() == want
    assert obs.steps == len(traj) - 1 >= 3


def test_audit_worst_locations_without_steps():
    cfg = StudyConfig(problem="smooth_sine", base_n=8, levels=1, t_final=0.0,
                      audits="max_principle,tv,contraction")
    for a in solve_level(cfg, 0).audits:
        assert (a.value, a.worst_step, a.worst_cell) == (0.0, -1, -1), a.name


def test_streamed_entropy_audit_locates_its_worst_step_from_its_records(
        monkeypatch):
    """A streamed audit never rebuilds a face record, the worst step's
    included, and names the step and cell the replayed audit names."""
    cfg = StudyConfig(problem="smooth_sine", flux_rule="central", base_n=30,
                      levels=1, t_final=0.1, audits="entropy")

    def rebuild(*args, **kwargs):
        raise AssertionError("a streamed audit rebuilt a face record")

    with monkeypatch.context() as patch:
        patch.setattr(entropy_mod, "_face_record", rebuild)
        (got,) = solve_level(cfg, 0).audits
    spec = harness.PROBLEMS[cfg.problem]
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    traj = run(initial, spec.flux_fn(), cfg.scheme(), cfg.resolved_t_final)
    k_grid = kruzkov_k_grid(*state_range(traj), n=cfg.k_points,
                            extra=spec.states)
    want = run_entropy_audit(traj, spec.flux_fn(), cfg.scheme(), k_grid,
                             tol=harness._EXACT_TOL)
    assert not want.passed and want.worst_step > 0
    assert (got.value, got.worst_step, got.worst_cell) \
        == (want.worst, want.worst_step, want.worst_cell)


@pytest.mark.parametrize("flux_rule", ["central", "godunov"])
def test_entropy_verdict_keeps_its_location(flux_rule):
    """The study's entropy verdict names the step and cell of the worst
    residual, as the audit over the level's recorded run does."""
    cfg = StudyConfig(problem="smooth_sine", flux_rule=flux_rule, base_n=30,
                      levels=1, t_final=0.1, audits="entropy")
    lv = solve_level(cfg, 0)
    (got,) = lv.audits
    spec = harness.PROBLEMS[cfg.problem]
    initial = harness.initial_field(spec, build_problem_mesh(cfg, 0))
    traj = run(initial, spec.flux_fn(), cfg.scheme(), cfg.resolved_t_final)
    k_grid = kruzkov_k_grid(*lv.state_range, n=cfg.k_points, extra=spec.states)
    want = run_entropy_audit(traj, spec.flux_fn(), cfg.scheme(), k_grid,
                             tol=harness._EXACT_TOL)
    assert (got.value, got.passed) == (want.worst, want.passed)
    assert (got.worst_step, got.worst_cell) == (want.worst_step, want.worst_cell)
    assert got.worst_step >= 0 and got.worst_cell >= 0
    assert got.passed == (flux_rule == "godunov")


# ---------------------------------------------------------------------------
# levels solved side by side: the finest here, the others in forked children


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Every ``os.fork`` call, counted; the study may use two CPUs."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    return calls


def test_levels_solved_in_a_child_match_the_serial_path(monkeypatch, forks):
    cfg = StudyConfig(problem="smooth_sine", base_n=16, levels=4, t_final=0.2)
    forked = run_study(cfg)
    assert forks == [1]
    _no_child_left()
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    serial = run_study(cfg)
    assert forks == [1]
    for a, b in zip(forked.levels, serial.levels):
        assert (a.level, a.n_cells, a.h.hex(), a.steps, a.l1.hex(), a.state_range) \
            == (b.level, b.n_cells, b.h.hex(), b.steps, b.l1.hex(), b.state_range)
        assert a.audits == b.audits
        assert a.final.values.tobytes() == b.final.values.tobytes()
        # unpickled arrays come back writeable; the field and mesh freeze them
        mesh = a.final.mesh
        for arr in (a.final.values, mesh.vertices, mesh.cell_area,
                    mesh.face_left, mesh.cell_faces, mesh.face_across):
            assert not arr.flags.writeable
    assert forked.fitted_rate.hex() == serial.fitted_rate.hex()


def test_no_child_is_forked_for_a_refused_request_or_on_one_cpu(monkeypatch,
                                                                forks):
    def refusing(cfg, level, flux):
        raise ValueError("refused")

    with pytest.raises(harness.InvalidRequest, match="refused"):
        run_study(_small_cfg(levels=4), refusing)
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    assert not run_study(_small_cfg(levels=4)).levels[-1].failed
    # fewer than two levels after level 0 leave nothing to share
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    run_study(_small_cfg(levels=2))
    assert forks == []


def test_levels_that_cannot_be_forked_are_solved_here(monkeypatch):
    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    result = run_study(_small_cfg(levels=4))
    assert [lv.n_cells for lv in result.levels] == [20, 40, 80, 160]
    assert result.audits_pass


def test_a_child_raising_past_the_level_loop_fails_its_levels(forks):
    class Stop(BaseException):
        pass

    def observe(cfg, level, flux):
        if level in (1, 2):
            raise Stop("observer stopped")
        return []

    result = run_study(_small_cfg(levels=4), observe)
    _no_child_left()
    assert [lv.failed for lv in result.levels] == [False, True, True, False]
    for lv in result.levels[1:3]:
        assert lv.error_message == "Stop: observer stopped"


def test_child_results_that_do_not_pickle_fail_with_the_pickling_error(forks):
    class Unpicklable:
        def start(self, field0):
            pass

        def step(self, field, faces):
            pass

        def finish(self):
            return lambda: None

    result = run_study(_small_cfg(levels=4), lambda cfg, level, flux: [Unpicklable()])
    _no_child_left()
    assert forks == [1]
    assert [lv.failed for lv in result.levels] == [False, True, True, False]
    for lv in result.levels[1:3]:
        assert "pickle" in lv.error_message, lv.error_message


def test_parent_raising_mid_finest_level_kills_and_reaps_its_children(forks):
    class Stop(BaseException):
        pass

    class StopAtStep:
        def start(self, field0):
            pass

        def step(self, field, faces):
            raise Stop

    def observe(cfg, level, flux):
        return [StopAtStep()] if level == cfg.levels - 1 else []

    with pytest.raises(Stop):
        run_study(_small_cfg(levels=4), observe)
    assert forks == [1]
    _no_child_left()


def test_one_child_takes_every_level_but_the_finest(monkeypatch):
    shares = []

    def record(solve, share):
        shares.append(list(share))
        raise OSError("recorded, then solved here")

    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    monkeypatch.setattr(harness, "_fork_levels", record)
    result = run_study(_small_cfg(levels=6, base_n=4))
    # level 5 stays here; levels 1-4 cost less together, so one child
    # takes them all however many CPUs there are
    assert shares == [[1, 2, 3, 4]]
    assert [lv.level for lv in result.levels] == list(range(6))

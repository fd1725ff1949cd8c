"""Clipped-state entropy fluxes, residual audits, and E-flux verification."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvaudit import (
    PROBLEMS,
    CellField,
    SchemeConfig,
    Trajectory,
    build_mesh,
    cell_averages,
    numerical_flux,
    check_e_flux,
    kruzkov_k_grid,
    lf_lambda,
    make_flux,
    max_stable_dt,
    numerical_entropy_flux,
    reference,
    run,
    run_entropy_audit,
    step,
    uniform_interval_mesh,
)
from fvaudit import cli
from fvaudit import entropy as entropy_mod
from fvaudit.harness import StudyConfig, initial_field, solve_level
from fvaudit.scheme import (ConfigurationError, _alone, _face_record,
                            _face_states, _march, state_range)
from test_mesh import MIXED_POLYGONS
from test_scheme import parent_godunov

RIGHT = np.ones(1)
E_RULES = ("godunov", "lax_friedrichs", "engquist_osher")


def burgers():
    return make_flux("burgers")


def entropy_args(rule, flux, k, a, b, n):
    lam = lf_lambda(flux, a, b, n) if rule == "lax_friedrichs" else None
    return (rule, flux, k, a, b, n, lam)


# ---------------------------------------------------------------------------
# clipped-state numerical entropy flux


@pytest.mark.parametrize("rule", E_RULES)
def test_entropy_flux_consistency(rule):
    """G(c, c; k) equals the Kruzkov flux sgn(c-k)(f(c)-f(k)) . n."""
    flux = burgers()
    rng = np.random.default_rng(7)
    c = rng.uniform(-2.0, 2.0, 64)
    k = 0.3
    got = numerical_entropy_flux(*entropy_args(rule, flux, k, c, c, RIGHT))
    want = np.sign(c - k) * (flux.f(c) - flux.f(k))[:, 0]
    assert np.abs(got - want).max() <= 1e-13


def test_entropy_flux_godunov_value():
    got = numerical_entropy_flux("godunov", burgers(), 0.0, 1.0, -1.0, RIGHT)
    assert got == pytest.approx(0.0, abs=1e-15)


def test_entropy_flux_lf_value():
    got = numerical_entropy_flux("lax_friedrichs", burgers(), 0.0, 1.0, -1.0,
                                 RIGHT, lam=1.0)
    assert got == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("rule", E_RULES)
def test_entropy_flux_conservativity(rule):
    """G(a, b; k, n) = -G(b, a; k, -n), 1e3 samples, 1e-12."""
    flux = burgers()
    rng = np.random.default_rng(13)
    a = rng.uniform(-1.5, 1.5, 1000)
    b = rng.uniform(-1.5, 1.5, 1000)
    k = rng.uniform(-1.5, 1.5, 1000)
    n = np.where(rng.uniform(size=(1000, 1)) < 0.5, -1.0, 1.0)
    lam = lf_lambda(flux, a, b, n) if rule == "lax_friedrichs" else None
    fwd = numerical_entropy_flux(rule, flux, k, a, b, n, lam)
    rev = numerical_entropy_flux(rule, flux, k, b, a, -n, lam)
    assert np.abs(fwd + rev).max() <= 1e-12


def test_entropy_flux_lf_rejects_insufficient_dissipation():
    # both clipped pairs at k = 0 have wave speed 1, so widening lam = 0.5
    # to their speeds would hide it; it is refused against the pair (a, b)
    with pytest.raises(ConfigurationError, match="below the local wave speed"):
        numerical_entropy_flux("lax_friedrichs", burgers(), 0.0, 1.0, -1.0,
                               RIGHT, lam=0.5)


def test_entropy_flux_lf_recomputes_local_lambda():
    """With lam omitted, each clipped pair gets its own dissipation."""
    flux = burgers()
    rng = np.random.default_rng(19)
    a = rng.uniform(-1.5, 1.5, 200)
    b = rng.uniform(-1.5, 1.5, 200)
    k = 0.4
    got = numerical_entropy_flux("lax_friedrichs", flux, k, a, b, RIGHT,
                                 lam=None)
    at, bt = np.maximum(a, k), np.maximum(b, k)
    ab, bb = np.minimum(a, k), np.minimum(b, k)
    want = (numerical_flux("lax_friedrichs", flux, at, bt, RIGHT,
                           lf_lambda(flux, at, bt, RIGHT))
            - numerical_flux("lax_friedrichs", flux, ab, bb, RIGHT,
                             lf_lambda(flux, ab, bb, RIGHT)))
    assert np.abs(got - want).max() <= 1e-14


# ---------------------------------------------------------------------------
# residual audits


def test_kruzkov_k_grid_contents():
    grid = kruzkov_k_grid(-1.0, 1.0, n=33, extra=(0.21,))
    assert grid.size == 34
    assert grid[0] == -1.0 and grid[-1] == 1.0
    assert (np.diff(grid) > 0).all()
    assert 0.21 in grid
    # lattice duplicates collapse
    assert kruzkov_k_grid(-1.0, 1.0, n=33, extra=(0.25,)).size == 33


_STATES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=_STATES, width=st.floats(0.0, 1e6), n=st.integers(2, 40),
       extra=st.lists(st.one_of(_STATES, st.sampled_from([0.0, -0.0])),
                      max_size=6),
       picks=st.lists(st.integers(0, 39), max_size=4))
def test_kruzkov_k_grid_matches_np_unique(lo, width, n, extra, picks):
    # signed zeros and landmark states repeating lattice points, as the
    # problems' states do, keep the same representative np.unique keeps
    hi = lo + width
    lattice = np.linspace(lo, hi, n)
    extra = extra + [lattice[i % n] for i in picks]
    want = np.unique(np.concatenate([lattice, np.asarray(extra, dtype=float)]))
    assert kruzkov_k_grid(lo, hi, n=n, extra=extra).tobytes() == want.tobytes()


@pytest.mark.parametrize("lo,hi", [(np.nan, 1.0), (0.0, np.nan),
                                   (-np.inf, 1.0), (0.0, np.inf)])
def test_kruzkov_k_grid_refuses_a_non_finite_range(lo, hi):
    with pytest.raises(ValueError, match="must be finite"):
        kruzkov_k_grid(lo, hi)


def test_constant_field_zero_residuals():
    mesh = uniform_interval_mesh(12, 0.0, 1.0, periodic=True)
    cfg = SchemeConfig()
    before = CellField(mesh, np.full(12, 0.7))
    after = step(before, burgers(), cfg, 0.01)
    res = dense_residuals(before, after, 0.01, burgers(), cfg,
                          kruzkov_k_grid(-1.0, 1.0))
    assert np.abs(res).max() <= 1e-14


def test_one_godunov_shock_step_entropy_clean():
    flux = burgers()
    ref = reference("riemann_shock", flux)
    mesh = uniform_interval_mesh(50, -0.5, 1.0, periodic=False)
    cfg = SchemeConfig()
    before = CellField(mesh, cell_averages(mesh, ref.initial))
    dt = max_stable_dt(before, flux, cfg)
    after = step(before, flux, cfg, dt)
    res = dense_residuals(before, after, dt, flux, cfg,
                          kruzkov_k_grid(0.0, 1.0, extra=(1.0, 0.0)))
    assert max(res.max(), 0.0) <= 1e-12


@pytest.mark.parametrize("rule,mode,flux_name", [
    pytest.param(rule, mode, name, id=f"{rule}-{mode}"
                 + ("" if name == "burgers" else f"-{name}"))
    for name in ("burgers", "buckley_leverett")
    for rule, mode in (("godunov", "local"), ("lax_friedrichs", "local"),
                       ("lax_friedrichs", "global"), ("engquist_osher", "local"))
])
def test_full_run_zero_entropy_production(rule, mode, flux_name):
    """First-order E-flux runs satisfy the per-step inequality exactly."""
    flux = make_flux(flux_name)
    mesh = uniform_interval_mesh(40, -0.5, 1.0, periodic=False)
    cfg = SchemeConfig(flux_rule=rule, lf_dissipation_mode=mode)
    # the 1 -> 0 step: a Burgers shock, a BL shock-rarefaction
    initial = CellField(mesh, cell_averages(
        mesh, lambda x: np.where(x[:, 0] < 0.0, 1.0, 0.0)))
    traj = run(initial, flux, cfg, t_final=0.25)
    rpt = run_entropy_audit(traj, flux, cfg,
                            kruzkov_k_grid(0.0, 1.0, n=33, extra=(1.0, 0.0)))
    assert rpt.k_grid.size >= 33
    assert rpt.worst <= 1e-12
    assert rpt.passed


def test_limited_run_reports_positive_residuals():
    """Second-order runs legitimately produce entropy; audit only reports."""
    flux = burgers()
    mesh = uniform_interval_mesh(40, 0.0, 1.0, periodic=True)
    cfg = SchemeConfig(reconstruction="limited_linear",
                       time_integrator="ssp_rk2")
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])))
    traj = run(field, flux, cfg, t_final=0.2)
    rpt = run_entropy_audit(traj, flux, cfg)
    assert len(rpt.per_step) == len(traj) - 1
    assert np.isfinite(rpt.worst)
    assert rpt.worst > 1e-12          # genuinely positive, hence reported
    assert not rpt.passed


def test_audit_default_k_grid_covers_data():
    flux = burgers()
    mesh = uniform_interval_mesh(20, 0.0, 1.0, periodic=True)
    cfg = SchemeConfig()
    field = CellField(mesh, np.linspace(-0.3, 0.9, 20))
    traj = run(field, flux, cfg, t_final=0.05)
    rpt = run_entropy_audit(traj, flux, cfg)
    assert rpt.k_grid.min() <= -0.3 + 1e-12
    assert rpt.k_grid.max() >= 0.9 - 1e-12


def test_residual_rejects_mismatched_input():
    mesh = uniform_interval_mesh(12, 0.0, 1.0, periodic=True)
    other = uniform_interval_mesh(12, 0.0, 1.0, periodic=True)
    cfg = SchemeConfig()
    f1 = CellField(mesh, np.zeros(12))
    f2 = CellField(other, np.zeros(12), 0.01)
    with pytest.raises(ValueError, match="different meshes"):
        run_entropy_audit(Trajectory([f1, f2]), burgers(), cfg, 0.0)
    f3 = step(f1, burgers(), cfg, 0.01)
    with pytest.raises(ValueError, match="dt must be positive"):
        run_entropy_audit(Trajectory([f3, f1]), burgers(), cfg, 0.0)


def one_step_block(before, after, dt, flux, config, k):
    """The audit's evaluation of the step from ``before`` to ``after``: a
    block of that one step, its face record rebuilt from ``before``, held
    at times 0 and ``dt`` so that its size is ``dt`` exactly."""
    block = entropy_mod._Block(before.mesh, flux, config, k, 1)
    block.begin(before)
    block.put(after, None)
    block.times[:] = 0.0, dt
    block.evaluate()
    return block


def dense_residuals(before, after, dt, flux, config, k):
    """The step's residuals as a dense (n_k, cells) array, k in the order
    given: the affine form of each out-of-hull pair, the in-hull pairs as
    :meth:`_Block.hull_chunks` yields them."""
    block = one_step_block(before, after, dt, flux, config, k)
    pos = block.rank                         # sorted position of each k
    r, closure = block.residual(0)
    phic = block.phi[pos][:, None] * closure
    out = np.where(pos[:, None] < block.below[0], r - phic, phic - r)
    given = np.argsort(pos)                  # given index of each position
    for cell, kpos, value in block.hull_chunks():   # one step: group = cell
        out[given[kpos], cell] = value
    return out


def reference_residuals(before, after, dt, flux, config, k_arr):
    """Residuals with every (face, k) pair through the clipped-state flux.

    The slow path the audit shortcuts: G evaluated at both clipped pairs
    for every k, summed into cells with ``np.add.at``/``np.subtract.at``.
    """
    mesh = before.mesh
    a, b = _face_states(mesh, before.values, config)
    lam = None
    if config.flux_rule == "lax_friedrichs" and config.lf_dissipation_mode == "global":
        # the coefficient the scheme advanced every face with
        rng = (float(min(a.min(), b.min())), float(max(a.max(), b.max())))
        lam = lf_lambda(flux, a, b, mesh.face_normal, "global", rng)[:, None]
    G = numerical_entropy_flux(config.flux_rule, flux, k_arr[None, :],
                               a[:, None], b[:, None], mesh.face_normal, lam)
    flw = mesh.face_length[:, None] * G
    div = np.zeros((mesh.n_cells, k_arr.size))
    np.add.at(div, mesh.face_left, flw)
    interior = mesh.face_right >= 0
    np.subtract.at(div, mesh.face_right[interior], flw[interior])
    eta_before = np.abs(before.values[:, None] - k_arr[None, :])
    eta_after = np.abs(after.values[:, None] - k_arr[None, :])
    return (eta_after - eta_before + dt * div / mesh.cell_area[:, None]).T


RULE_MODES = [("godunov", "local"), ("lax_friedrichs", "local"),
              ("lax_friedrichs", "global"), ("engquist_osher", "local"),
              ("central", "local")]


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("rule,mode", RULE_MODES,
                         ids=[f"{r}-{m}" for r, m in RULE_MODES])
def test_shortcut_matches_full_clipped_evaluation(problem, rule, mode):
    """The out-of-hull shortcut reproduces the full evaluation per step."""
    spec = PROBLEMS[problem]
    mesh = spec.mesh_fn(3 if spec.dim == 2 else 12)
    flux = spec.flux_fn()
    for reconstruction in ("constant", "limited_linear"):
        cfg = SchemeConfig(flux_rule=rule, reconstruction=reconstruction,
                           lf_dissipation_mode=mode)
        field = initial_field(spec, mesh)
        lo, hi = float(field.values.min()), float(field.values.max())
        # k below, inside and above the data, plus the landmark states
        k = kruzkov_k_grid(lo - 0.25, hi + 0.25, n=11, extra=spec.states)
        for _ in range(3):
            dt = 0.9 * max_stable_dt(field, flux, cfg)
            after = step(field, flux, cfg, dt)
            got = dense_residuals(field, after, dt, flux, cfg, k)
            want = reference_residuals(field, after, dt, flux, cfg, k)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15
            field = after


def per_step_audit(traj, flux, cfg, k):
    """The audit as a loop of dense one-step residuals: per-step maxima,
    worst value and the first argmax over (step, k, cell)."""
    per_step = np.zeros(len(traj) - 1)
    top, where = -np.inf, (-1, -1, float("nan"))
    for i, (before, after) in enumerate(zip(traj.fields[:-1], traj.fields[1:])):
        res = dense_residuals(before, after, after.t - before.t, flux, cfg, k)
        m = res.max()
        per_step[i] = max(m, 0.0)
        if m > top:
            ik, cell = np.unravel_index(int(res.argmax()), res.shape)
            top, where = m, (i, int(cell), float(k[ik]))
    worst = float(per_step.max()) if per_step.size else 0.0
    return per_step, worst, where


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("rule,mode", RULE_MODES,
                         ids=[f"{r}-{m}" for r, m in RULE_MODES])
def test_blocked_audit_matches_per_step_loop(monkeypatch, problem, rule, mode):
    """Blocks of B steps give the per-step maxima, the worst value and its
    location of one-step residuals, bit for bit, for runs of 0, 1, B - 1,
    B and B + 1 steps.  A small element budget makes B = 3 and splits the
    in-hull pairs of a block into many chunks."""
    spec = PROBLEMS[problem]
    mesh = spec.mesh_fn(3 if spec.dim == 2 else 12)
    flux = spec.flux_fn()
    monkeypatch.setattr(entropy_mod, "_BLOCK", 3 * mesh.n_faces + 1)
    block = 3
    for reconstruction in ("constant", "limited_linear"):
        cfg = SchemeConfig(flux_rule=rule, reconstruction=reconstruction,
                           lf_dissipation_mode=mode)
        fields = [initial_field(spec, mesh)]
        for _ in range(block + 1):
            f = fields[-1]
            fields.append(step(f, flux, cfg, 0.9 * max_stable_dt(f, flux, cfg)))
        lo, hi = state_range(Trajectory(fields))
        k = kruzkov_k_grid(lo - 0.1, hi + 0.1, n=11, extra=spec.states)
        for n_steps in (0, 1, block - 1, block, block + 1):
            traj = Trajectory(fields[:n_steps + 1])
            rpt = run_entropy_audit(traj, flux, cfg, k)
            per_step, worst, where = per_step_audit(traj, flux, cfg, k)
            assert rpt.per_step.tobytes() == per_step.tobytes()
            assert np.float64(rpt.worst).tobytes() == np.float64(worst).tobytes()
            assert (rpt.worst_step, rpt.worst_cell) == where[:2]
            assert np.float64(rpt.worst_k).tobytes() == np.float64(where[2]).tobytes()


def test_global_lax_friedrichs_audit_passes(tmp_path, capsys):
    """Under the global LF coefficient the audit takes the scheme's own
    per-face coefficient, so first-order runs satisfy the inequality to
    rounding; a per-k coefficient over the range widened to k did not
    (worst residuals 1.6e-5 on smooth_sine, 4.9e-2 on rotated_shock_2d).
    The contraction twin shares that coefficient with the run it is
    compared to, so the pair is advanced by one monotone map; with a
    coefficient per twin the distance grew by up to 6.7e-8 a step."""
    lf = ["--set", "flux_rule=lax_friedrichs", "--set", "lf_dissipation_mode=global",
          "--out", str(tmp_path)]
    assert cli.main(["converge", "--set", "problem=smooth_sine", *lf]) == 0
    out = capsys.readouterr().out.splitlines()
    for audit in ("entropy", "contraction"):
        lines = [line for line in out if f"audit {audit}" in line]
        assert len(lines) == 4
        assert all(line.endswith("PASS") for line in lines)
    rc = cli.main(["entropy-audit", "--set", "problem=rotated_shock_2d",
                   "--set", "base_n=16", "--set", "levels=1", *lf])
    assert rc == 0
    assert "entropy inequality: worst=" in capsys.readouterr().out


def assert_locates_worst(traj, flux, cfg, k):
    """The audit's location is the first argmax over (step, k, cell) of the
    expanded residuals, and its worst value their maximum."""
    rpt = run_entropy_audit(traj, flux, cfg, k)
    assert not rpt.passed
    stacked = np.array([
        dense_residuals(b, a, a.t - b.t, flux, cfg, k)
        for b, a in zip(traj.fields[:-1], traj.fields[1:])])
    s, ik, cell = np.unravel_index(int(stacked.argmax()), stacked.shape)
    assert (rpt.worst_step, rpt.worst_cell, rpt.worst_k) == (s, cell, k[ik])
    assert rpt.worst == stacked.max() == rpt.per_step[s]


def test_audit_locates_worst_residual():
    """The reported location is the brute-force argmax over (step, k, cell)."""
    flux = burgers()
    mesh = uniform_interval_mesh(30, 0.0, 1.0, periodic=True)
    cfg = SchemeConfig(flux_rule="central")
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])))
    traj = run(field, flux, cfg, t_final=0.1)
    assert_locates_worst(traj, flux, cfg, kruzkov_k_grid(0.2, 0.8, n=17))


@pytest.mark.parametrize("case", ["rotated_shock_2d", "quad_triangle",
                                  "limited_linear"])
def test_audit_locates_worst_residual_off_uniform_meshes(case):
    """Where the cell closure C_i is not exactly zero (triangles), on a
    padded incidence table, and with a hull taken from reconstructed face
    traces."""
    if case == "quad_triangle":     # one quad and two triangles: padded rows
        mesh = build_mesh(MIXED_POLYGONS)
        flux = make_flux("rotated_burgers_2d", angle=0.5)
        field = CellField(mesh, [1.0, 0.2, 0.6])
    else:
        spec = PROBLEMS["rotated_shock_2d"]
        mesh, flux = spec.mesh_fn(6), spec.flux_fn()
        field = CellField(mesh, cell_averages(
            mesh, lambda x: 0.5 + 0.4 * np.sin(3.0 * x[:, 0] + 2.0 * x[:, 1])))
    cfg = (SchemeConfig(reconstruction="limited_linear") if case == "limited_linear"
           else SchemeConfig(flux_rule="central"))
    traj = run(field, flux, cfg, t_final=0.05)
    if case == "quad_triangle":
        assert np.any(mesh.cell_face_sign == 0.0)
    else:
        closure = one_step_block(traj.fields[0], traj.fields[1],
                                 traj.times[1], flux, cfg, 0.5).residual()[1]
        assert np.any(closure != 0.0)
    lo, hi = state_range(traj)
    assert_locates_worst(traj, flux, cfg, kruzkov_k_grid(lo, hi, n=17))


def test_audit_locates_worst_residual_among_ties():
    """The first maximum in (step, k in the order given, cell) order, on a
    permuted k grid of +-k pairs, which tie in phi for Burgers, and a
    central run on triangles, where the closure C_i takes both signs."""
    spec = PROBLEMS["rotated_shock_2d"]
    mesh, flux = spec.mesh_fn(6), spec.flux_fn()
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.4 * np.sin(3.0 * x[:, 0] + 2.0 * x[:, 1])))
    cfg = SchemeConfig(flux_rule="central")
    traj = run(field, flux, cfg, t_final=0.05)
    closure = one_step_block(traj.fields[0], traj.fields[1], traj.times[1],
                             flux, cfg, 0.5).residual()[1]
    assert closure.min() < 0.0 < closure.max()
    rng = np.random.default_rng(5)
    lo, hi = state_range(traj)
    k = kruzkov_k_grid(lo, hi, n=17)
    k = rng.permutation(np.concatenate([k, -k]))
    assert np.array_equal(flux.phi(k), flux.phi(-k))
    assert_locates_worst(traj, flux, cfg, k)
    # below every cell's hull a pair's two residuals are the same value, so
    # in each step the maximum ties, and the first of the pair is located
    k = np.linspace(lo / 8.0, lo, 8)
    k = rng.permutation(np.concatenate([k, -k]))
    for b, a in zip(traj.fields[:-1], traj.fields[1:]):
        res = dense_residuals(b, a, a.t - b.t, flux, cfg, k)
        assert np.count_nonzero(res == res.max()) >= 2
        block = one_step_block(b, a, a.t - b.t, flux, cfg, k)
        assert entropy_mod._first_max(block, 0, block.cell_max()[0]) \
            == np.unravel_index(int(res.argmax()), res.shape)


@pytest.mark.memory
def test_audit_memory_does_not_grow_with_k():
    """Out-of-hull k cost O(1) memory each: only the grid, phi(k), its prefix
    extremes and the in-hull pairs grow with the number of k values."""
    flux, cfg = burgers(), SchemeConfig()
    mesh = uniform_interval_mesh(200, 0.0, 1.0, periodic=True)
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])))
    traj = Trajectory(run(field, flux, cfg, t_final=0.3).fields[:21])

    def peak(k):
        tracemalloc.start()
        try:
            run_entropy_audit(traj, flux, cfg, k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = kruzkov_k_grid(0.25, 0.75, n=33), kruzkov_k_grid(0.25, 0.75, n=2049)
    # (cell, k) pairs with k strictly inside the hull of u, u' and the
    # neighbor means: the pairs that still go through the clipped flux
    pairs = 0
    for b, a in zip(traj.fields[:-1], traj.fields[1:]):
        lo, hi = mesh.neighbor_range(b.values)
        lo, hi = np.minimum(lo, a.values), np.maximum(hi, a.values)
        inside = np.searchsorted(many, hi, "left") - np.searchsorted(many, lo, "right")
        pairs = max(pairs, int(np.maximum(inside, 0).sum()))
    width = mesh.cell_faces.shape[0]
    bound = 8 * (64 * many.size + 32 * width * pairs)
    assert peak(many) - peak(few) <= bound
    assert bound < 8 * (mesh.n_faces + mesh.n_cells) * many.size


@pytest.mark.memory
def test_audit_holds_one_block():
    """Fed five blocks of a 200-cell run, the audit holds the rows of the
    held steps, one block's temporaries and one chunk of in-hull pairs at
    a time.  Keeping the last block while the next is built, with chunks
    of _BLOCK // width face values, took about twice that; computing in
    nine flat arrays allocated once per run took 2.10 MB, and holding r
    and closure through the in-hull pass 1.83 MB, both above this
    bound."""
    flux, cfg = burgers(), SchemeConfig()
    mesh = uniform_interval_mesh(200, 0.0, 1.0, periodic=True)
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])))
    traj = run(field, flux, cfg, t_final=0.6)
    steps = [(after, _face_record(mesh, flux, cfg, before.values))
             for before, after in zip(traj.fields[:-1], traj.fields[1:])]
    size = entropy_mod._BLOCK // mesh.n_faces
    assert len(steps) >= 3 * size
    audit = entropy_mod.EntropyAudit(flux, cfg, kruzkov_k_grid(*state_range(traj)))
    tracemalloc.start()
    try:
        audit.start(field)
        for after, faces in steps:
            audit.step(after, faces)
        audit.finish()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block: the records a, b, g and, in the in-hull pass, six (B, cells)
    # arrays, the fields of its steps, below, above, best and hull_chunks'
    # count and ends, with one chunk of two dozen arrays of _BLOCK // 8
    # values; in _affine_max, which runs with no chunk, it holds nine, the
    # fields, below, above, residual's r and closure, best, the index j and
    # two gathers, within seven and a chunk (three arrays at this B)
    block = 8 * size * (3 * mesh.n_faces + 7 * mesh.n_cells)
    chunk = 24 * 8 * (entropy_mod._BLOCK // 8)
    assert peak <= block + chunk


def test_audit_locates_worst_residual_in_an_earlier_block(monkeypatch):
    """With blocks of 4 steps, the worst step sits in an earlier block than
    the last and not in its first row, so the location must come from the
    block that held it, before its arrays are reused: in a replay, whose
    records are rebuilt, and in a level's march, whose records it hands
    over."""
    flux = burgers()
    mesh = uniform_interval_mesh(12, 0.0, 1.0, periodic=True)
    monkeypatch.setattr(entropy_mod, "_BLOCK", 4 * mesh.n_faces)
    cfg = SchemeConfig()
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])))
    fields = run(field, flux, cfg, t_final=0.4).fields
    values = fields[3].values.copy()
    values[7] += 1e-3                   # step 2 lands above what it may
    fields[3] = CellField(mesh, values, fields[3].t)
    traj = Trajectory(fields)
    assert len(traj) - 1 >= 9
    k = kruzkov_k_grid(*state_range(traj))
    assert run_entropy_audit(traj, flux, cfg, k).worst_step == 2
    assert_locates_worst(traj, flux, cfg, k)

    # a central level: 9 steps, the worst in row 2 of the second block
    study = StudyConfig(problem="smooth_sine", flux_rule="central",
                        base_n=24, levels=1, t_final=0.1)
    rpt = solve_level(study, 0, cli._entropy_observers).audits[0]
    spec, cfg = PROBLEMS[study.problem], study.scheme()
    flux = spec.flux_fn()
    traj = run(initial_field(spec, spec.mesh_fn(study.base_n)), flux, cfg,
               study.t_final)
    stacked = np.array([
        dense_residuals(b, a, a.t - b.t, flux, cfg, rpt.k_grid)
        for b, a in zip(traj.fields[:-1], traj.fields[1:])])
    per_step = np.maximum(stacked.max(axis=(1, 2)), 0.0)
    assert rpt.per_step.tobytes() == per_step.tobytes()
    s, ik, cell = np.unravel_index(int(stacked.argmax()), stacked.shape)
    assert (rpt.worst_step, rpt.worst_cell, rpt.worst_k) == (s, cell, rpt.k_grid[ik])
    assert s // 4 < (len(traj) - 2) // 4 and s % 4 != 0


@pytest.mark.memory
def test_audit_memory_at_one_step_per_block():
    """At 12 416 faces a block holds one step.  Fed 40 march steps, the
    audit holds that block's rows and temporaries and locates the worst
    step in it, so its peak stays within twice the block's arrays; copying
    the worst step out and evaluating it again in a second block took
    3.18 MB."""
    spec = PROBLEMS["rotated_shock_2d"]
    mesh, flux, cfg = spec.mesh_fn(64), spec.flux_fn(), SchemeConfig()
    assert (mesh.n_cells, mesh.n_faces) == (8192, 12416)
    assert entropy_mod._BLOCK // mesh.n_faces == 1
    field = initial_field(spec, mesh)
    steps = list(itertools.islice(
        _alone(_march([(field,)], flux, cfg, 1.0)), 40))
    fields = [field] + [after for (after,), _ in steps]
    audit = entropy_mod.EntropyAudit(flux, cfg,
                                     kruzkov_k_grid(*state_range(Trajectory(fields))))
    tracemalloc.start()
    try:
        audit.start(field)
        for (after,), (faces,) in steps:
            audit.step(after, faces)
        audit.finish()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # twice the records a, b, g and eleven (1, cells) arrays: room for the
    # nine a block holds at once in _affine_max (test_audit_holds_one_block),
    # its in-hull chunks and _first_max's copy of the worst row
    assert peak <= 2 * 8 * (3 * mesh.n_faces + 11 * mesh.n_cells)


@pytest.mark.memory
def test_study_level_memory():
    """The finest level of the converge study that the benchmark's study_1d
    times (800 cells, five audits, B = 20 steps a block) peaks in the
    entropy audit.  Holding r and closure through the in-hull pass read
    2.63-2.68 MB, more than one (B, cells) array of this level
    (128 000 B) above this bound.  Unlike the peak RSS of a process, a
    traced peak does not move with where the compiled code and the heap
    land in memory."""
    study = StudyConfig(problem="smooth_sine", levels=5)
    tracemalloc.start()
    try:
        solve_level(study, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_480_000


def test_audit_of_overflowing_residuals_locates_nothing():
    """k = +-1e200 overflows phi(k) = k^2 / 2, and phi(k) C is inf * 0 on a
    uniform periodic mesh, so every step's residual is nan.  The audit
    reports a nan worst value and fails, and it locates no step: a row is
    located only when its maximum is greater than the best so far, which a
    nan never is."""
    spec = PROBLEMS["smooth_sine"]
    mesh, flux, cfg = spec.mesh_fn(20), spec.flux_fn(), SchemeConfig()
    traj = run(initial_field(spec, mesh), flux, cfg, t_final=0.05)
    k = np.concatenate([kruzkov_k_grid(*state_range(traj)), [-1e200, 1e200]])
    with np.errstate(invalid="ignore"):
        rpt = run_entropy_audit(traj, flux, cfg, k)
    assert len(rpt.per_step) == len(traj) - 1 > 0
    assert np.isnan(rpt.per_step).all() and np.isnan(rpt.worst)
    assert not rpt.passed
    assert (rpt.worst_step, rpt.worst_cell) == (-1, -1)
    assert np.isnan(rpt.worst_k)


# ---------------------------------------------------------------------------
# E-flux verification


@pytest.mark.parametrize("rule", E_RULES)
def test_e_flux_check_passes(rule):
    rpt = check_e_flux(rule, burgers(), n_samples=10_000, seed=0)
    assert rpt.samples >= 10_000
    assert rpt.worst_violation <= 1e-12
    assert rpt.passed


def test_e_flux_check_rejects_central():
    flux = burgers()
    rpt = check_e_flux("central", flux, n_samples=10_000, seed=0)
    assert not rpt.passed
    # the deterministic pair a=-1, b=1, w=0 alone violates by 1/2
    assert rpt.worst_violation >= 0.5 - 1e-12
    a, b, w, normal = rpt.worst_case
    assert np.linalg.norm(normal) == pytest.approx(1.0)
    # recorded counterexample must reproduce the reported violation
    g = numerical_flux("central", flux, np.array([a]), np.array([b]),
                       normal[None, :])
    fw = flux.fn(np.array([w]), normal[None, :])
    repro = np.sign(b - a) * (g[0] - fw[0])
    assert repro == pytest.approx(rpt.worst_violation, rel=1e-12)


def test_e_flux_2d_flux():
    flux = make_flux("rotated_burgers_2d", angle=np.pi / 3.0)
    assert check_e_flux("godunov", flux, n_samples=2000, seed=1).passed
    assert not check_e_flux("central", flux, n_samples=2000, seed=1).passed


def test_e_flux_worst_case_is_the_interval_extremum():
    # the recorded w attains the extremum of f(w) . n over the trace hull:
    # the minimum when b > a, the maximum when b < a
    flux = make_flux("buckley_leverett")
    for rule in ("central", "lax_friedrichs"):
        rpt = check_e_flux(rule, flux, n_samples=2000, seed=3)
        a, b, w, normal = rpt.worst_case
        assert min(a, b) <= w <= max(a, b)
        assert flux.fn(w, normal) == flux.interval_extremum(a, b, normal)
        # and it is the extreme one of the pair's states the check compares
        lo, hi = min(a, b), max(a, b)
        states = np.array([lo, hi, *np.clip(flux.critical_points, lo, hi)])
        fw = flux.fn(states, normal)
        assert flux.fn(w, normal) == (fw.min() if b > a else fw.max())


def parent_check_e_flux(rule: str, flux, n_samples: int = 10_000, seed: int = 0,
                        state_range: tuple[float, float] = (-1.5, 1.5),
                        tol: float = 1e-12):
    """:func:`check_e_flux` with its (samples x candidates) state stack,
    before it read ``interval_extremum``, verbatim but for its docstring and
    Godunov's flux: kept as the bit-identity reference."""
    rng = np.random.default_rng(seed)
    lo, hi = state_range
    a = rng.uniform(lo, hi, n_samples)
    b = rng.uniform(lo, hi, n_samples)
    normals = rng.normal(size=(n_samples, flux.dim))
    norms = np.linalg.norm(normals, axis=1)
    normals[norms < 1e-12] = 0.0
    normals[norms < 1e-12, 0] = 1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    # adversarial pairs: symmetric states around the sonic point
    axis = np.zeros(flux.dim)
    axis[0] = 1.0
    a = np.concatenate([a, [-1.0, 1.0, -1.0, 1.0]])
    b = np.concatenate([b, [1.0, -1.0, 1.0, -1.0]])
    normals = np.concatenate([normals, [axis, axis, -axis, -axis]])

    lam = None
    if rule == "lax_friedrichs":
        lam = flux.max_wave_speed(a, b, normals)
    # the parent's Godunov branch, so that no new code computes the reference
    g = (parent_godunov(flux, a, b, normals) if rule == "godunov"
         else numerical_flux(rule, flux, a, b, normals, lam))

    w_lo, w_hi = np.minimum(a, b), np.maximum(a, b)
    W = np.stack([w_lo, w_hi, *(np.clip(z, w_lo, w_hi)
                                for z in flux.critical_points)], axis=1)
    fw = flux.fn(W, normals)
    viol = np.sign(b - a)[:, None] * (g[:, None] - fw)
    worst = float(viol.max()) + 0.0     # a tie at zero reads 0, not -0
    i, j = np.unravel_index(int(viol.argmax()), viol.shape)
    case = (float(a[i]), float(b[i]), float(W[i, j]), normals[i].copy())
    return entropy_mod.EFluxReport(rule=rule, flux_name=flux.name,
                                   samples=len(a), worst_violation=worst,
                                   worst_case=case, passed=bool(worst <= tol))


@pytest.mark.parametrize("flux_name,params", [
    ("burgers", {}), ("buckley_leverett", {}), ("rotated_burgers_2d", {}),
    ("linear_advection", {}), ("linear_advection", {"a": (1.0, -0.5)})])
@pytest.mark.parametrize("rule", E_RULES + ("central",))
def test_e_flux_report_matches_parent(rule, flux_name, params):
    """Every report field, ``worst_case`` included, has the parent's bits."""
    flux = make_flux(flux_name, **params)
    for seed in (0, 1, 7):
        got = check_e_flux(rule, flux, seed=seed)
        want = parent_check_e_flux(rule, flux, seed=seed,
                                   state_range=(-1.5, 1.5))
        for name in ("rule", "flux_name", "samples", "passed"):
            assert getattr(got, name) == getattr(want, name)
        for x, y in ((got.worst_violation, want.worst_violation),
                     *zip(got.worst_case[:3], want.worst_case[:3])):
            assert type(x) is float and np.float64(x).tobytes() \
                == np.float64(y).tobytes()
        assert got.worst_case[3].tobytes() == want.worst_case[3].tobytes()


def test_e_flux_forms_no_candidate_table(monkeypatch):
    """The check reads the oracle on (samples,) arrays and looks for the
    worst state of one pair only: no (samples x candidates) array."""
    flux = make_flux("buckley_leverett")
    shapes = []
    fn = type(flux).fn

    def recorded(self, u, n):
        shapes.append(np.shape(u))
        return fn(self, u, n)

    monkeypatch.setattr(type(flux), "fn", recorded)
    rpt = check_e_flux("central", flux, n_samples=500, seed=2)
    assert not rpt.passed
    assert all(len(shape) <= 1 for shape in shapes)
    assert all(shape[0] <= 2 + len(flux.critical_points)
               for shape in shapes if shape and shape[0] != rpt.samples)


def swept_e_flux(rule, flux, n_samples=10_000, seed=0,
                 state_range=(-1.5, 1.5), n_intermediate=65, tol=1e-12):
    """The 65-state sweep that :func:`check_e_flux` replaced, verbatim but
    for returning (worst violation, passed): kept as the slow reference."""
    rng = np.random.default_rng(seed)
    lo, hi = state_range
    a = rng.uniform(lo, hi, n_samples)
    b = rng.uniform(lo, hi, n_samples)
    normals = rng.normal(size=(n_samples, flux.dim))
    norms = np.linalg.norm(normals, axis=1)
    normals[norms < 1e-12] = 0.0
    normals[norms < 1e-12, 0] = 1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    # adversarial pairs: symmetric states around the sonic point
    axis = np.zeros(flux.dim)
    axis[0] = 1.0
    a = np.concatenate([a, [-1.0, 1.0, -1.0, 1.0]])
    b = np.concatenate([b, [1.0, -1.0, 1.0, -1.0]])
    normals = np.concatenate([normals, [axis, axis, -axis, -axis]])

    lam = None
    if rule == "lax_friedrichs":
        lam = flux.max_wave_speed(a, b, normals)
    g = numerical_flux(rule, flux, a, b, normals, lam)

    tau = np.linspace(0.0, 1.0, n_intermediate)
    w_lo, w_hi = np.minimum(a, b), np.maximum(a, b)
    W = w_lo[:, None] + (w_hi - w_lo)[:, None] * tau[None, :]
    fw = flux.fn(W, normals)
    viol = np.sign(b - a)[:, None] * (g[:, None] - fw)
    worst = float(viol.max())
    return worst, bool(worst <= tol)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("flux_name", ["burgers", "buckley_leverett",
                                       "rotated_burgers_2d", "linear_advection"])
@pytest.mark.parametrize("rule", E_RULES + ("central",))
def test_e_flux_exact_against_sweep(rule, flux_name, seed):
    flux = make_flux(flux_name)
    rpt = check_e_flux(rule, flux, seed=seed)
    worst, passed = swept_e_flux(rule, flux, seed=seed)
    assert rpt.passed == passed
    assert rpt.samples == 10_004
    # the exact extremum is at least as bad as any swept state
    assert rpt.worst_violation >= worst - 1e-14

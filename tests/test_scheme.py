"""Numerical fluxes, reconstruction, time stepping, and scheme invariants."""

import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

import fvaudit
from fvaudit import (
    CellField,
    ConfigurationError,
    SchemeConfig,
    StabilityError,
    cell_averages,
    lf_lambda,
    make_flux,
    max_stable_dt,
    numerical_flux,
    reconstruct,
    reference,
    run,
    step,
    triangulated_rectangle,
    twin_run,
    uniform_interval_mesh,
)

E_RULES = ("godunov", "lax_friedrichs", "engquist_osher")
RIGHT = np.ones(1)


def burgers():
    return make_flux("burgers")


def random_field(mesh, rng, lo=-1.0, hi=1.0):
    return CellField(mesh, rng.uniform(lo, hi, mesh.n_cells))


def flux_args(rule, flux, a, b, n):
    lam = None
    if rule == "lax_friedrichs":
        lam = lf_lambda(flux, a, b, n)
    return (rule, flux, a, b, n, lam)


# ---------------------------------------------------------------------------
# numerical fluxes


def test_godunov_riemann_values():
    assert numerical_flux("godunov", burgers(), 1.0, -1.0, RIGHT) \
        == pytest.approx(0.5, abs=1e-15)
    assert numerical_flux("godunov", burgers(), -1.0, 1.0, RIGHT) \
        == pytest.approx(0.0, abs=1e-15)


def parent_interval_extremum(flux, a, b, n, which="min"):
    """``FluxModel.interval_extremum`` before it took Osher's form, verbatim
    but for ``self``: kept as the two-extremum reference."""
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    low, high = flux._hull_range(flux.phi, a, b, flux.critical_points)
    low, high = (low, high) if which == "min" else (high, low)
    c = flux._along(n, low)
    return np.where(c >= 0.0, c * low, c * high)


def parent_godunov(flux, a, b, n):
    """Godunov's branch of ``numerical_flux`` before it read
    ``interval_extremum``, verbatim: kept as the bit-identity reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # Osher's form: the min of c phi over the hull when a <= b, else the
    # max, and c phi takes its min at the max of phi when c = d . n < 0
    low, high = flux._hull_range(flux.phi, a, b, flux.critical_points)
    c = flux._along(n, low)
    return c * np.where((c >= 0.0) == (a <= b), low, high)


GODUNOV_CASES = [
    ("burgers", {}), ("linear_advection", {"a": (1.0, -0.5)}),
    ("buckley_leverett", {}), ("rotated_burgers_2d", {"angle": 0.5}),
    ("linear_advection", {})]


def godunov_inputs(flux, seed=23):
    """Trace pairs with a == b, normals with d . n = 0 and -0.0 normals,
    as (a, b, n) and in a broadcast (300, 7) shape."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.5, 1.5, (2, 300))
    b[:40] = a[:40]
    n = rng.standard_normal((300, flux.dim))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    d = np.asarray(flux.direction)
    across = np.array([-d[1], d[0]]) if flux.dim == 2 else np.zeros(1)
    n[40:70], n[70:100], n[100:110] = across, -across, -0.0
    assert np.any(flux._along(n, a) == 0.0)
    wide = (a[:, None], b[:, None] + rng.uniform(-1.0, 1.0, (300, 7)))
    return [(a, b, n), (*wide, n)]


@pytest.mark.parametrize("name,params", GODUNOV_CASES)
def test_godunov_matches_min_max_form(name, params):
    """One hull evaluation per face gives the two-extremum form bit for bit,
    signed zeros included, also where d . n = 0 and under broadcasting."""
    flux = make_flux(name, **params)
    for aa, bb, n in godunov_inputs(flux):
        got = numerical_flux("godunov", flux, aa, bb, n)
        want = np.where(aa <= bb, parent_interval_extremum(flux, aa, bb, n, "min"),
                        parent_interval_extremum(flux, aa, bb, n, "max"))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,params", GODUNOV_CASES)
def test_godunov_flux_bytes_match_parent_branch(name, params):
    """Godunov's flux through the oracle has the bytes of the branch it
    replaced, for vector normals and their projection alike."""
    flux = make_flux(name, **params)
    for aa, bb, n in godunov_inputs(flux, seed=31):
        want = parent_godunov(flux, aa, bb, n)
        for normals in (n, flux.along(n)):
            got = numerical_flux("godunov", flux, aa, bb, normals)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            got = flux.interval_extremum(aa, bb, normals)
            assert got.tobytes() == want.tobytes()
    # scalars and a single normal broadcast as before
    for aa, bb in ((0.3, -0.7), (-0.7, 0.3), (0.2, 0.2), (-0.0, 0.0)):
        for n in (np.ones(flux.dim), -np.ones(flux.dim), np.full(flux.dim, -0.0)):
            got = numerical_flux("godunov", flux, aa, bb, n)
            assert got.tobytes() == parent_godunov(flux, aa, bb, n).tobytes()


def test_godunov_calls_the_oracle_once(monkeypatch):
    """Godunov's flux is the extremum oracle: one call per flux call."""
    flux = make_flux("buckley_leverett")
    calls = []
    oracle = type(flux).interval_extremum

    def counted(self, *args):
        calls.append(args)
        return oracle(self, *args)

    monkeypatch.setattr(type(flux), "interval_extremum", counted)
    a, b = np.linspace(-0.5, 1.5, 9), np.linspace(1.5, -0.5, 9)
    numerical_flux("godunov", flux, a, b, RIGHT)
    numerical_flux("godunov", flux, 0.0, 1.0, RIGHT)
    assert len(calls) == 2


def test_flux_internals_stay_in_physics():
    """No module but physics calls the private ``FluxModel`` oracle parts."""
    src = Path(fvaudit.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "physics.py":
            text = path.read_text()
            assert "._hull_range" not in text and "._along" not in text, path.name


def test_lax_friedrichs_value():
    got = numerical_flux("lax_friedrichs", burgers(), 1.0, -1.0, RIGHT,
                         lam=1.0)
    assert got == pytest.approx(1.5, abs=1e-15)


def test_engquist_osher_values():
    assert numerical_flux("engquist_osher", burgers(), 1.0, -1.0, RIGHT) \
        == pytest.approx(1.0, abs=1e-15)
    assert numerical_flux("engquist_osher", burgers(), -1.0, 1.0, RIGHT) \
        == pytest.approx(0.0, abs=1e-15)


def test_central_is_the_average():
    got = numerical_flux("central", burgers(), 1.0, 0.0, RIGHT)
    assert got == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("rule", E_RULES + ("central",))
def test_flux_consistency(rule):
    flux = burgers()
    rng = np.random.default_rng(3)
    c = rng.uniform(-2.0, 2.0, 50)
    got = numerical_flux(*flux_args(rule, flux, c, c, RIGHT))
    assert np.abs(got - flux.fn(c, RIGHT)).max() <= 1e-14


@pytest.mark.parametrize("rule", E_RULES + ("central",))
def test_flux_conservativity(rule):
    """g(a, b, n) = -g(b, a, -n), 1e3 random samples."""
    flux = burgers()
    rng = np.random.default_rng(17)
    a = rng.uniform(-1.5, 1.5, 1000)
    b = rng.uniform(-1.5, 1.5, 1000)
    n = np.where(rng.uniform(size=(1000, 1)) < 0.5, -1.0, 1.0)
    lam = lf_lambda(flux, a, b, n) if rule == "lax_friedrichs" else None
    fwd = numerical_flux(rule, flux, a, b, n, lam)
    rev = numerical_flux(rule, flux, b, a, -n, lam)
    assert np.abs(fwd + rev).max() <= 1e-12


def test_lf_rejects_insufficient_dissipation():
    with pytest.raises(ConfigurationError):
        numerical_flux("lax_friedrichs", burgers(), 1.0, -1.0, RIGHT, lam=0.5)


def test_lf_requires_lambda():
    with pytest.raises(ConfigurationError):
        numerical_flux("lax_friedrichs", burgers(), 1.0, -1.0, RIGHT)


def test_lf_lambda_modes():
    flux = burgers()
    a = np.array([0.1, 1.0])
    b = np.array([-0.2, 0.5])
    n = np.ones((2, 1))
    local = lf_lambda(flux, a, b, n, mode="local")
    assert local == pytest.approx([0.2, 1.0])
    glob = lf_lambda(flux, a, b, n, mode="global", field_range=(-2.0, 1.5))
    assert glob == pytest.approx([2.0, 2.0])


def test_unknown_rule_rejected():
    with pytest.raises(ConfigurationError):
        numerical_flux("roe", burgers(), 1.0, 0.0, RIGHT)


# ---------------------------------------------------------------------------
# cell averages and fields


def test_cell_averages_interval_exact_for_cubics():
    mesh = uniform_interval_mesh(4, 0.0, 1.0)
    got = cell_averages(mesh, lambda x: x[:, 0] ** 3)
    edges = np.linspace(0.0, 1.0, 5)
    exact = (edges[1:] ** 4 - edges[:-1] ** 4) / 4.0 / 0.25
    assert np.abs(got - exact).max() < 1e-15


def test_cell_averages_triangles_exact_for_quadratics():
    from fvaudit import build_mesh
    mesh = build_mesh("""
dim 2
vertices 4
0 0
1 0
1 1
0 1
cells 2
3 0 1 2
3 0 2 3
""")
    got = cell_averages(mesh, lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1])
    assert got == pytest.approx([0.75, 5.0 / 12.0], abs=1e-14)


def test_field_validation_and_mass():
    mesh = uniform_interval_mesh(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        CellField(mesh, np.ones(3))
    with pytest.raises(ValueError):
        CellField(mesh, [np.nan, 1.0, 2.0, 3.0])
    f = CellField(mesh, [1.0, 2.0, 3.0, 4.0])
    assert f.total_mass == pytest.approx(2.5)
    with pytest.raises(ValueError):
        f.values[0] = 9.0          # frozen storage


def test_field_owns_its_values():
    mesh = uniform_interval_mesh(4, 0.0, 1.0)
    src = np.ones(4)
    f = CellField(mesh, src)
    src[0] = -5.0
    assert f.values[0] == 1.0


# ---------------------------------------------------------------------------
# reconstruction


def constant_cfg(rule="godunov"):
    return SchemeConfig(flux_rule=rule)


def limited_cfg():
    return SchemeConfig(reconstruction="limited_linear",
                        time_integrator="ssp_rk2")


def test_constant_reconstruction_zero_gradient():
    mesh = uniform_interval_mesh(8, 0.0, 1.0)
    rec = reconstruct(CellField(mesh, np.arange(8.0)), constant_cfg())
    assert np.array_equal(rec.gradient, np.zeros((8, 1)))


def test_limited_linear_reproduces_linear_data():
    mesh = uniform_interval_mesh(16, 0.0, 1.0, periodic=False)
    field = CellField(mesh, mesh.cell_centroid[:, 0])
    rec = reconstruct(field, limited_cfg())
    interior = np.arange(1, 15)
    assert np.abs(rec.gradient[interior, 0] - 1.0).max() < 1e-12
    # traces reproduce x at the cell edges
    at = mesh.cell_centroid[interior] + 0.5 * (1.0 / 16.0)
    got = rec.trace(interior, at)
    assert np.abs(got - at[:, 0]).max() < 1e-12


def test_limiter_clips_local_extremum():
    mesh = uniform_interval_mesh(3, 0.0, 1.0, periodic=False)
    rec = reconstruct(CellField(mesh, [0.0, 1.0, 0.0]), limited_cfg())
    assert rec.gradient[1, 0] == pytest.approx(0.0, abs=1e-15)


def test_limiter_bounds_property():
    """Traces never escape the stencil bounds; 1e3 random fields."""
    rng = np.random.default_rng(29)
    meshes = [uniform_interval_mesh(12, 0.0, 1.0, periodic=True),
              uniform_interval_mesh(9, -1.0, 2.0, periodic=False),
              triangulated_rectangle(4, 4, 0.0, 0.0, 1.0, 1.0, periodic=True)]
    cfg = limited_cfg()
    for trial in range(1000):
        mesh = meshes[trial % len(meshes)]
        field = random_field(mesh, rng, -2.0, 2.0)
        rec = reconstruct(field, cfg)

        lo = field.values.copy()
        hi = field.values.copy()
        L, R = mesh.face_left, mesh.face_right
        interior = R >= 0
        np.minimum.at(lo, L[interior], field.values[R[interior]])
        np.minimum.at(lo, R[interior], field.values[L[interior]])
        np.maximum.at(hi, L[interior], field.values[R[interior]])
        np.maximum.at(hi, R[interior], field.values[L[interior]])

        a = rec.trace(L, mesh.face_midpoint_left)
        ok_left = (a >= lo[L] - 1e-12) & (a <= hi[L] + 1e-12)
        assert ok_left.all()
        b = rec.trace(R[interior], mesh.face_midpoint_right[interior])
        ok_right = (b >= lo[R[interior]] - 1e-12) & (b <= hi[R[interior]] + 1e-12)
        assert ok_right.all()

        # the affine part has zero cell mean: centroid trace is the mean
        mid = rec.trace(np.arange(mesh.n_cells), mesh.cell_centroid)
        assert np.array_equal(mid, field.values)


# ---------------------------------------------------------------------------
# time step control


def test_max_stable_dt_frozen_value():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    values = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    dt = max_stable_dt(CellField(mesh, values), burgers(), constant_cfg())
    assert dt == pytest.approx(0.0225, rel=1e-12)


def test_max_stable_dt_constant_speed():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    flux = make_flux("linear_advection", a=1.0)
    dt = max_stable_dt(CellField(mesh, np.zeros(10)), flux, constant_cfg())
    assert dt == pytest.approx(0.45 * 0.05, rel=1e-12)


def test_max_stable_dt_speed_scaling():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.zeros(10))
    dt1 = max_stable_dt(field, make_flux("linear_advection", a=1.0),
                        constant_cfg())
    dt2 = max_stable_dt(field, make_flux("linear_advection", a=2.0),
                        constant_cfg())
    assert dt2 == pytest.approx(0.5 * dt1, rel=1e-12)


def test_max_stable_dt_zero_speed_is_finite():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    dt = max_stable_dt(CellField(mesh, np.zeros(10)), burgers(),
                       constant_cfg())
    assert np.isfinite(dt)
    assert dt > 1e10


def test_step_rejects_unstable_dt():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.linspace(-1.0, 1.0, 10))
    stable = max_stable_dt(field, burgers(), constant_cfg())
    with pytest.raises(StabilityError):
        step(field, burgers(), constant_cfg(), 2.0 * stable)
    with pytest.raises(ValueError):
        step(field, burgers(), constant_cfg(), -stable)


# ---------------------------------------------------------------------------
# the step with flux geometry bound to the mesh, against the unbound one


def reference_face_states(field, config):
    """Traces on the two sides of every face; outflow ghosts copy inside."""
    mesh = field.mesh
    L, R = mesh.face_left, mesh.face_right
    interior = R >= 0
    if config.reconstruction == "constant":
        a = field.values[L]
        b = np.where(interior, field.values[np.where(interior, R, 0)], a)
        return a, b
    rec = reconstruct(field, config)
    a = rec.trace(L, mesh.face_midpoint_left)
    b = a.copy()
    b[interior] = rec.trace(R[interior], mesh.face_midpoint_right[interior])
    return a, b


def reference_face_flux(mesh, flux, config, a, b):
    lam = None
    if config.flux_rule == "lax_friedrichs":
        if config.lf_dissipation_mode == "local":
            lam = lf_lambda(flux, a, b, mesh.face_normal, "local")
        else:
            rng = (float(min(a.min(), b.min())), float(max(a.max(), b.max())))
            lam = lf_lambda(flux, a, b, mesh.face_normal, "global", rng)
    return numerical_flux(config.flux_rule, flux, a, b, mesh.face_normal, lam)


def reference_euler_values(mesh, flux, config, values, t, dt):
    a, b = reference_face_states(CellField(mesh, values, t), config)
    g = reference_face_flux(mesh, flux, config, a, b)
    div = mesh.divergence(mesh.face_length * g)
    return values - dt * div / mesh.cell_area


def reference_max_stable_dt(field, flux, config):
    mesh = field.mesh
    lo, hi = mesh.neighbor_range(field.values)
    # one speed per (face, cell) table entry; pads carry a zero normal
    normals = mesh.face_normal[mesh.cell_faces] * np.abs(mesh.cell_face_sign)[..., None]
    s = np.maximum(flux.max_wave_speed(lo, hi, normals).max(axis=0), 1e-14)
    return config.cfl_number * float((mesh.cell_area / (mesh.cell_perimeter * s)).min())


def reference_step_values(field, flux, config, dt):
    mesh, u, t = field.mesh, field.values, field.t
    if config.time_integrator == "euler":
        return reference_euler_values(mesh, flux, config, u, t, dt)
    v1 = reference_euler_values(mesh, flux, config, u, t, dt)
    v2 = reference_euler_values(mesh, flux, config, v1, t + dt, dt)
    return 0.5 * (u + v2)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# two directions per dimension, and the same direction under two fluxes,
# so that geometry cached for the wrong mesh or direction shows
BOUND_FLUXES = {
    1: [make_flux("burgers"), make_flux("linear_advection", a=-0.7),
        make_flux("buckley_leverett")],
    2: [make_flux("rotated_burgers_2d", angle=0.5),
        make_flux("rotated_burgers_2d", angle=2.0),
        make_flux("linear_advection", a=(1.0, -0.5))],
}


def test_bound_step_matches_unbound_step():
    """CFL bounds and step values bit-equal to the step that projects the
    normals on every call, on every mesh of the mesh suite, for every rule,
    LF mode, reconstruction and integrator; each mesh is stepped with every
    flux in turn, the fluxes sharing the meshes."""
    from test_mesh import MESH_BUILDERS
    rng = np.random.default_rng(29)
    meshes = [build() for build in MESH_BUILDERS]
    configs = [SchemeConfig(flux_rule=rule, lf_dissipation_mode=mode,
                            reconstruction=rec, time_integrator=integrator)
               for rule in E_RULES + ("central",) for mode in ("local", "global")
               for rec in ("constant", "limited_linear")
               for integrator in ("euler", "ssp_rk2")]
    checked = 0
    for mesh in meshes:
        for flux in BOUND_FLUXES[mesh.dim]:
            start = random_field(mesh, rng)
            for cfg in configs:
                field = start
                for _ in range(2):
                    dt = max_stable_dt(field, flux, cfg)
                    assert bits(dt) == bits(reference_max_stable_dt(field, flux, cfg))
                    dt *= 0.9
                    after = step(field, flux, cfg, dt)
                    want = reference_step_values(field, flux, cfg, dt)
                    assert bits(after.values) == bits(want)
                    field = after
                    checked += 1
    assert checked == 2 * len(configs) * sum(len(BOUND_FLUXES[m.dim]) for m in meshes)


# ---------------------------------------------------------------------------
# stepping invariants


@pytest.mark.parametrize("rule", E_RULES)
def test_constant_state_is_stationary(rule):
    mesh = triangulated_rectangle(5, 5, 0.0, 0.0, 1.0, 1.0, periodic=True)
    flux = make_flux("rotated_burgers_2d", angle=0.7)
    field = CellField(mesh, np.full(mesh.n_cells, 0.6))
    cfg = constant_cfg(rule)
    out = step(field, flux, cfg, max_stable_dt(field, flux, cfg))
    assert np.abs(out.values - 0.6).max() <= 1e-14


@pytest.mark.parametrize("rule", E_RULES)
def test_conservation_property(rule):
    rng = np.random.default_rng(41)
    mesh = uniform_interval_mesh(30, 0.0, 1.0, periodic=True)
    field = random_field(mesh, rng)
    cfg = constant_cfg(rule)
    mass0 = field.total_mass
    for _ in range(25):
        field = step(field, burgers(), cfg,
                     max_stable_dt(field, burgers(), cfg))
    assert abs(field.total_mass - mass0) <= 1e-12 * max(1.0, abs(mass0))


@pytest.mark.parametrize("rule", E_RULES)
def test_max_principle_property(rule):
    rng = np.random.default_rng(43)
    mesh = uniform_interval_mesh(25, 0.0, 1.0, periodic=True)
    field = random_field(mesh, rng)
    lo, hi = field.values.min(), field.values.max()
    cfg = constant_cfg(rule)
    for _ in range(25):
        field = step(field, burgers(), cfg,
                     max_stable_dt(field, burgers(), cfg))
        assert field.values.min() >= lo - 1e-12
        assert field.values.max() <= hi + 1e-12


@pytest.mark.parametrize("rule", E_RULES)
def test_tvd_property(rule):
    rng = np.random.default_rng(47)
    mesh = uniform_interval_mesh(40, 0.0, 1.0, periodic=True)
    field = random_field(mesh, rng)
    cfg = constant_cfg(rule)

    def tv(f):
        jump = np.abs(np.diff(f.values))
        return jump.sum() + abs(f.values[0] - f.values[-1])

    for _ in range(20):
        before = tv(field)
        field = step(field, burgers(), cfg,
                     max_stable_dt(field, burgers(), cfg))
        assert tv(field) <= before + 1e-12


@pytest.mark.parametrize("rule", E_RULES)
def test_l1_contraction_property(rule):
    rng = np.random.default_rng(53)
    mesh = uniform_interval_mesh(30, 0.0, 1.0, periodic=True)
    a = random_field(mesh, rng)
    b = CellField(mesh, a.values + rng.uniform(0.0, 0.4, mesh.n_cells))
    cfg = constant_cfg(rule)
    traj_a, traj_b = twin_run(a, b, burgers(), cfg, t_final=0.15)
    area = mesh.cell_area
    dist = [float(area @ np.abs(fa.values - fb.values))
            for fa, fb in zip(traj_a.fields, traj_b.fields)]
    assert all(d1 <= d0 + 1e-12 for d0, d1 in zip(dist, dist[1:]))


def test_godunov_step_preserves_monotone_profile():
    mesh = uniform_interval_mesh(50, -0.5, 1.0, periodic=False)
    values = np.where(mesh.cell_centroid[:, 0] < 0.0, 1.0, 0.0)
    field = CellField(mesh, values)
    cfg = constant_cfg()
    out = step(field, burgers(), cfg, max_stable_dt(field, burgers(), cfg))
    assert (np.diff(out.values) <= 1e-15).all()     # still nonincreasing


def test_2d_max_principle():
    mesh = triangulated_rectangle(8, 8, -0.5, -0.5, 1.0, 0.5, periodic=False)
    flux = make_flux("rotated_burgers_2d", angle=np.pi / 6.0)
    values = np.where(mesh.cell_centroid @ [np.cos(np.pi / 6), np.sin(np.pi / 6)]
                      < 0.0, 1.0, 0.0)
    field = CellField(mesh, values)
    cfg = constant_cfg()
    for _ in range(15):
        field = step(field, flux, cfg, max_stable_dt(field, flux, cfg))
    assert field.values.min() >= -1e-12
    assert field.values.max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# run driver


def test_run_zero_horizon_returns_initial():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.sin(np.linspace(0.0, 6.0, 10)))
    traj = run(field, burgers(), constant_cfg(), t_final=0.0)
    assert len(traj) == 1
    assert np.array_equal(traj.final.values, field.values)


@pytest.mark.parametrize("t_final", [np.nan, np.inf, -np.inf])
def test_runs_reject_non_finite_t_final(t_final):
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.zeros(10))
    with pytest.raises(ValueError, match="t_final must be finite"):
        run(field, burgers(), constant_cfg(), t_final=t_final)
    with pytest.raises(ValueError, match="t_final must be finite"):
        twin_run(field, field, burgers(), constant_cfg(), t_final=t_final)


def test_run_rarefaction_respects_bounds():
    mesh = uniform_interval_mesh(60, -1.0, 1.0, periodic=False)
    values = np.where(mesh.cell_centroid[:, 0] < 0.0, -1.0, 1.0)
    traj = run(CellField(mesh, values), burgers(), constant_cfg(),
               t_final=0.5)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
    for f in traj.fields:
        assert f.values.min() >= -1.0 - 1e-12
        assert f.values.max() <= 1.0 + 1e-12


def test_run_advection_full_period():
    mesh = uniform_interval_mesh(64, 0.0, 1.0, periodic=True)
    flux = make_flux("linear_advection", a=1.0)
    field = CellField(mesh, cell_averages(
        mesh, lambda x: np.sin(2.0 * np.pi * x[:, 0])))
    traj = run(field, flux, constant_cfg(), t_final=1.0)
    assert abs(traj.final.total_mass - field.total_mass) <= 1e-12
    area = mesh.cell_area
    l1 = float(area @ np.abs(traj.final.values - field.values))
    assert l1 < 0.5          # bounded by the scheme's diffusive error


def test_twin_run_requires_same_mesh():
    mesh_a = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    mesh_b = uniform_interval_mesh(12, 0.0, 1.0, periodic=True)
    with pytest.raises(ValueError):
        twin_run(CellField(mesh_a, np.zeros(10)),
                 CellField(mesh_b, np.zeros(12)),
                 burgers(), constant_cfg(), t_final=0.1)


def test_limited_rk2_run_conserves_mass():
    mesh = uniform_interval_mesh(40, 0.0, 1.0, periodic=True)
    field = CellField(mesh, cell_averages(
        mesh, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])))
    traj = run(field, burgers(), limited_cfg(), t_final=0.2)
    assert abs(traj.final.total_mass - field.total_mass) \
        <= 1e-12 * abs(field.total_mass)


def test_limited_rarefaction_no_new_extrema():
    mesh = uniform_interval_mesh(60, -1.0, 1.0, periodic=False)
    values = np.where(mesh.cell_centroid[:, 0] < 0.0, -1.0, 1.0)
    traj = run(CellField(mesh, values), burgers(), limited_cfg(),
               t_final=0.4)
    for f in traj.fields:
        assert f.values.min() >= -1.0 - 1e-12
        assert f.values.max() <= 1.0 + 1e-12


def test_scheme_config_validation():
    with pytest.raises(ConfigurationError):
        SchemeConfig(flux_rule="upwindish")
    with pytest.raises(ConfigurationError):
        SchemeConfig(reconstruction="weno")
    with pytest.raises(ConfigurationError):
        SchemeConfig(time_integrator="rk4")
    with pytest.raises(ConfigurationError):
        SchemeConfig(cfl_number=1.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(cfl_number=0.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(lf_dissipation_mode="adaptive")


def test_shock_error_halves_under_refinement():
    flux = burgers()
    ref = reference("riemann_shock", flux)
    errors = []
    for n in (100, 200):
        mesh = uniform_interval_mesh(n, -0.5, 1.0, periodic=False)
        field = CellField(mesh, cell_averages(mesh, ref.initial))
        traj = run(field, flux, constant_cfg(), t_final=0.4)
        exact = cell_averages(mesh, lambda x: ref(0.4, x))
        errors.append(float(mesh.cell_area @ np.abs(traj.final.values - exact)))
    assert errors[1] < errors[0]


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_unpickled_field_and_mesh_stay_read_only(protocol):
    # below protocol 5 numpy restores every array writeable; a field and its
    # mesh freeze theirs again, and the mesh drops its derived cache
    mesh = triangulated_rectangle(3, 3, 0.0, 0.0, 1.0, 1.0, periodic=True)
    field = CellField(mesh, np.linspace(0.0, 1.0, mesh.n_cells), 0.5)
    max_stable_dt(field, make_flux("rotated_burgers_2d"), SchemeConfig())
    assert mesh._derived
    for copied in (pickle.loads(pickle.dumps(field, protocol)),
                   copy.deepcopy(field)):
        assert copied.values.tobytes() == field.values.tobytes()
        assert copied.t == 0.5 and copied.mesh.n_cells == mesh.n_cells
        assert copied.mesh._derived == {}
        arrays = [copied.values] + [v for v in vars(copied.mesh).values()
                                    if isinstance(v, np.ndarray)]
        assert len(arrays) == 17
        assert not any(a.flags.writeable for a in arrays)

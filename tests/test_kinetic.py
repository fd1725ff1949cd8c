"""Velocity-resolved audit tests.

Covers the indicator lift and its Riemann-sum identities, the transport
residual of lifted trajectories, the weak negativity score that separates
entropic from non-entropic evolutions, and the flux nondegeneracy probe.
"""

import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvaudit import (
    CellField,
    SchemeConfig,
    Trajectory,
    VGrid,
    cell_averages,
    chi,
    defect_measure,
    frozen_trajectory,
    kinetic_residual,
    lift,
    make_flux,
    nondegeneracy,
    run,
    triangulated_rectangle,
    uniform_interval_mesh,
)
from fvaudit import cli, kinetic
from fvaudit.harness import StudyConfig, _solve_on, build_problem_mesh
from fvaudit.kinetic import DefectAudit, _tent_windows
from fvaudit.scheme import state_range

GODUNOV = SchemeConfig(flux_rule="godunov", reconstruction="constant",
                       time_integrator="euler", cfl_number=0.45)


# ---------------------------------------------------------------------------
# chi and the velocity grid


def test_chi_point_values():
    assert chi(0.5, 1.0) == 1
    assert chi(-0.5, -1.0) == -1
    assert chi(2.0, 1.0) == 0
    assert chi(-2.0, -1.0) == 0
    assert chi(0.3, -1.0) == 0
    assert chi(-0.3, 1.0) == 0


def test_chi_boundaries_count_as_outside():
    # strict inequalities on both ends of the support
    assert chi(0.0, 1.0) == 0
    assert chi(1.0, 1.0) == 0
    assert chi(0.0, -1.0) == 0
    assert chi(-1.0, -1.0) == 0
    assert chi(0.7, 0.0) == 0


def test_chi_dtype_and_broadcast():
    v = np.linspace(-2.0, 2.0, 9)
    alpha = np.array([-1.0, 0.0, 1.5])
    out = chi(v[None, :], alpha[:, None])
    assert out.shape == (3, 9)
    assert out.dtype == np.int8
    assert set(np.unique(out)) <= {-1, 0, 1}


def test_chi_riemann_sum_recovers_state_first_order():
    # dv * sum_j chi(v_j | alpha) = alpha up to one cell of quantization
    grid = VGrid(-3.0, 3.0, 600)
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(-2.0, 2.0, 10):
        s = grid.dv * chi(grid.centers, alpha).sum()
        assert abs(s - alpha) <= grid.dv + 1e-12


def test_vgrid_geometry():
    grid = VGrid(-1.0, 1.0, 8)
    assert grid.dv == pytest.approx(0.25)
    assert grid.centers[0] == pytest.approx(-0.875)
    assert grid.centers[-1] == pytest.approx(0.875)
    assert grid.edges[0] == -1.0 and grid.edges[-1] == 1.0
    assert grid.edges.size == grid.n + 1


def test_vgrid_validation():
    with pytest.raises(ValueError):
        VGrid(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        VGrid(1.0, 1.0, 64)


def test_vgrid_for_range_covers_origin_and_pads():
    g = VGrid.for_range(1.0, 2.0, n=64)
    assert g.v_min < 0.0 < g.v_max
    assert g.v_max > 2.0
    g = VGrid.for_range(-2.0, -1.0, n=64)
    assert g.v_min < -2.0 and g.v_max > 0.0
    # degenerate input range still yields a usable window around 0
    g = VGrid.for_range(0.0, 0.0, n=64)
    assert g.v_min < 0.0 < g.v_max


# ---------------------------------------------------------------------------
# lifting


def test_lift_constant_one():
    mesh = uniform_interval_mesh(50, 0.0, 1.0, periodic=True)
    grid = VGrid(-2.0, 2.0, 400)
    dens = lift(CellField(mesh, np.ones(50)), grid)
    assert dens.rho.shape == (50, 400)
    assert np.all(np.abs(dens.moment - 1.0) <= grid.dv + 1e-12)


def test_lift_round_trip_within_dv():
    mesh = uniform_interval_mesh(40, 0.0, 1.0, periodic=True)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.5, 2.0, 40)
    grid = VGrid.for_range(float(u.min()), float(u.max()), n=512)
    dens = lift(CellField(mesh, u), grid)
    assert np.all(np.abs(dens.moment - u) <= grid.dv + 1e-12)


def test_lift_keeps_time_stamp():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    dens = lift(CellField(mesh, np.zeros(10), t=0.75), VGrid(-1.0, 1.0, 16))
    assert dens.t == 0.75


def test_lift_requires_covering_grid():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.full(10, 2.0))
    with pytest.raises(ValueError):
        lift(field, VGrid(-1.0, 1.0, 64))       # misses the field range
    with pytest.raises(ValueError):
        lift(field, VGrid(0.5, 3.0, 64))        # misses the origin


# ---------------------------------------------------------------------------
# transport residual


def _constant_run(n_steps=5):
    mesh = uniform_interval_mesh(16, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.full(16, 0.3))
    return frozen_trajectory(field, dt=0.01, n_steps=n_steps)


def test_frozen_trajectory_structure():
    traj = _constant_run(4)
    assert len(traj) == 5
    assert np.allclose(np.diff(traj.times), 0.01)
    for f in traj.fields:
        assert np.array_equal(f.values, traj.fields[0].values)


def test_frozen_trajectory_validation():
    mesh = uniform_interval_mesh(8, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.zeros(8))
    with pytest.raises(ValueError):
        frozen_trajectory(field, dt=0.0, n_steps=3)
    with pytest.raises(ValueError):
        frozen_trajectory(field, dt=0.1, n_steps=0)


def test_constant_state_has_zero_residual():
    flux = make_flux("burgers")
    res = kinetic_residual(_constant_run(), flux, VGrid(-1.0, 1.0, 64))
    values = windowed_residual(res).values
    assert values.shape == (5, 16, 64)
    assert np.all(values == 0.0)
    dm = defect_measure(res)
    assert dm.negativity_score == 0.0
    assert dm.pointwise_negativity == 0.0
    assert dm.total_mass == 0.0


def test_evolved_constant_has_zero_residual():
    mesh = uniform_interval_mesh(20, 0.0, 1.0, periodic=True)
    flux = make_flux("burgers")
    traj = run(CellField(mesh, np.full(20, 0.4)), flux, GODUNOV, 0.2)
    res = kinetic_residual(traj, flux, VGrid.for_range(*state_range(traj), n=256))
    assert np.all(windowed_residual(res).values == 0.0)


def test_kinetic_residual_needs_periodic_mesh():
    mesh = uniform_interval_mesh(16, 0.0, 1.0, periodic=False)
    field = CellField(mesh, np.zeros(16))
    traj = frozen_trajectory(field, dt=0.01, n_steps=2)
    with pytest.raises(ValueError):
        kinetic_residual(traj, make_flux("burgers"),
                         VGrid.for_range(*state_range(traj), n=256))


def test_kinetic_residual_needs_a_step():
    mesh = uniform_interval_mesh(16, 0.0, 1.0, periodic=True)
    traj = Trajectory([CellField(mesh, np.zeros(16))])
    with pytest.raises(ValueError):
        kinetic_residual(traj, make_flux("burgers"),
                         VGrid.for_range(*state_range(traj), n=256))


def test_field_leaving_the_grid_is_refused():
    # only the first field is checked up front; a later one that leaves
    # the grid is refused when its step is evaluated, in a block or alone
    mesh = uniform_interval_mesh(16, 0.0, 1.0, periodic=True)
    values = [np.full(16, 0.5)] * 3 + [np.full(16, 2.0)]
    traj = Trajectory([CellField(mesh, u, t=0.1 * s)
                       for s, u in enumerate(values)])
    res = kinetic_residual(traj, make_flux("burgers"), VGrid(-1.0, 1.0, 16))
    for read in (defect_measure, windowed_residual):
        with pytest.raises(ValueError, match="does not cover"):
            read(res)


def test_streamed_and_replayed_measures_are_one_record():
    flux, grid = make_flux("burgers"), VGrid.for_range(-1.0, 1.0, n=128)
    traj = frozen_trajectory(_sign_step(32), dt=1e-3, n_steps=2)
    audit = DefectAudit(flux, grid)
    audit.start(traj.fields[0])
    for field in traj.fields[1:]:
        audit.step(field, None)
    streamed = audit.finish()
    assert streamed == defect_measure(kinetic_residual(traj, flux, grid))
    assert streamed.pointwise_negativity > 0.0


# ---------------------------------------------------------------------------
# negativity scores on evolved trajectories


def _sign_step(n):
    mesh = uniform_interval_mesh(n, -1.0, 1.0, periodic=True)
    return CellField(mesh, cell_averages(mesh, lambda x: np.sign(x[:, 0])))


@lru_cache(maxsize=None)
def _expansion_run(n, t_final=0.4):
    """The evolved periodic sign-step (fan + wrap shock)."""
    return run(_sign_step(n), make_flux("burgers"), GODUNOV, t_final)


@lru_cache(maxsize=None)
def _expansion_score(n, t_final=0.4, n_v=128):
    """Weak negativity of the evolved periodic sign-step."""
    grid = VGrid.for_range(-1.0, 1.0, n=n_v)
    return defect_measure(kinetic_residual(_expansion_run(n, t_final),
                                           make_flux("burgers"), grid))


@lru_cache(maxsize=None)
def _frozen_expansion_score(n, n_v=128):
    """Weak negativity of the standing sign-step held fixed in time."""
    traj = frozen_trajectory(_sign_step(n), dt=1e-3, n_steps=1)
    grid = VGrid.for_range(-1.0, 1.0, n=n_v)
    return defect_measure(kinetic_residual(traj, make_flux("burgers"), grid))


def test_rarefaction_negativity_halves_under_refinement():
    scores = [_expansion_score(n).negativity_score for n in (40, 80, 160)]
    assert scores[0] == pytest.approx(9.937598e-02, rel=1e-4)
    for coarse, fine in zip(scores, scores[1:]):
        assert fine < coarse
        assert coarse / fine == pytest.approx(2.0, abs=0.25)


def test_frozen_expansion_stays_order_one():
    frozen = _frozen_expansion_score(160).negativity_score
    finest = _expansion_score(160).negativity_score
    assert frozen == pytest.approx(4.844579e-01, rel=1e-4)
    assert frozen >= 10.0 * finest


def test_pointwise_negativity_is_not_a_convergent_score():
    # raw per-cell undershoot grows with refinement even on the entropic run;
    # the windowed time-integrated score is the one that converges
    coarse = _expansion_score(40)
    fine = _expansion_score(160)
    assert fine.pointwise_negativity > 2.0 * coarse.pointwise_negativity
    assert fine.negativity_score < coarse.negativity_score


def test_entropic_shock_keeps_weak_score_small():
    # moving shock plus wrap fan: pointwise undershoot is O(1/h) there too,
    # but the weak score stays far below the non-entropic baseline
    frozen = _frozen_expansion_score(160).negativity_score
    flux = make_flux("burgers")
    pointwise = []
    for n in (40, 160):
        mesh = uniform_interval_mesh(n, -1.0, 1.0, periodic=True)
        u0 = cell_averages(mesh, lambda x: np.where(x[:, 0] < 0.0, 1.0, 0.0))
        traj = run(CellField(mesh, u0), flux, GODUNOV, 0.4)
        lo = min(float(f.values.min()) for f in traj.fields)
        hi = max(float(f.values.max()) for f in traj.fields)
        grid = VGrid.for_range(lo, hi, n=128)
        dm = defect_measure(kinetic_residual(traj, flux, grid))
        assert dm.negativity_score <= 1e-3
        assert dm.negativity_score <= frozen / 100.0
        pointwise.append(dm.pointwise_negativity)
    assert pointwise[1] > 5.0 * pointwise[0]


def test_sampled_exact_rarefaction_score_vanishes():
    # the audit applied to samples of the exact entropy solution has a pure
    # quantization floor that refines away with the mesh
    flux = make_flux("burgers")
    scores = []
    for n in (40, 80, 160):
        mesh = uniform_interval_mesh(n, -1.0, 1.0, periodic=True)
        x = mesh.cell_centroid[:, 0]
        t, t_final = 0.1, 0.5
        times = [t]
        while times[-1] < t_final - 1e-12:
            times.append(min(times[-1] + 0.45 * mesh.h, t_final))
        fields = [CellField(mesh, np.clip(x / s, -1.0, 1.0), t=s) for s in times]
        res = kinetic_residual(Trajectory(fields), flux,
                               VGrid.for_range(-1.0, 1.0, n=128))
        scores.append(defect_measure(res).negativity_score)
    assert scores[0] > scores[1] > scores[2]
    assert scores[-1] <= scores[0] / 3.0


def test_linear_advection_score_is_velocity_quantization():
    # matching upwind transport leaves only O(dv) lifting error: refining
    # n_v with the mesh drives the score down, a frozen n_v stalls it
    flux = make_flux("linear_advection", a=1.0)

    def score(n, n_v):
        mesh = uniform_interval_mesh(n, 0.0, 1.0, periodic=True)
        u0 = cell_averages(mesh, lambda x: np.sin(2.0 * np.pi * x[:, 0]))
        traj = run(CellField(mesh, u0), flux, GODUNOV, 0.5)
        res = kinetic_residual(traj, flux, VGrid.for_range(-1.0, 1.0, n=n_v))
        return defect_measure(res).negativity_score

    scaled = [score(n, n_v) for n, n_v in ((40, 64), (80, 128), (160, 256))]
    assert scaled[0] > scaled[1] > scaled[2]
    assert scaled[-1] <= scaled[0] / 4.0
    stalled = [score(n, 128) for n in (80, 160)]
    assert stalled[0] / stalled[1] < 1.5
    assert scaled[-1] < stalled[-1] / 2.0


def test_edge_mass_vanishes_for_smooth_linear_run():
    flux = make_flux("linear_advection", a=1.0)
    mesh = uniform_interval_mesh(40, 0.0, 1.0, periodic=True)
    u0 = cell_averages(mesh, lambda x: np.sin(2.0 * np.pi * x[:, 0]))
    traj = run(CellField(mesh, u0), flux, GODUNOV, 0.5)
    grid = VGrid.for_range(-1.0, 1.0, n=128)
    dm = defect_measure(kinetic_residual(traj, flux, grid))
    assert abs(dm.edge_mass) <= 1e-12


def test_edge_mass_bounded_by_velocity_cell():
    dm = _expansion_score(80)
    grid_dv = VGrid.for_range(-1.0, 1.0, n=128).dv
    assert abs(dm.edge_mass) <= grid_dv


# ---------------------------------------------------------------------------
# streaming audit against the bulk computation it replaced


def reference_kinetic_residual(traj, flux, grid=None):
    """Every step's residual at once, as one (n_steps, n_cells, n_v) array."""
    mesh = traj.mesh
    if not mesh.is_periodic:
        raise ValueError("kinetic transport audit needs a fully periodic mesh")
    if len(traj) < 2:
        raise ValueError("need at least one step")
    if grid is None:
        grid = VGrid.for_range(*state_range(traj), n=256)

    # (n_f, n_v)
    c = flux.along(mesh.face_normal).c[:, None] * flux.dphi(grid.centers)
    upwind_left = c >= 0.0

    n_steps = len(traj) - 1
    out = np.empty((n_steps, mesh.n_cells, grid.n))
    dts = np.diff(traj.times)
    rho_old = lift(traj.fields[0], grid).rho
    for s in range(n_steps):
        rho_new = lift(traj.fields[s + 1], grid).rho
        rho_up = np.where(upwind_left, rho_old[mesh.face_left],
                          rho_old[mesh.face_right]).astype(float)
        div = mesh.divergence(mesh.face_length[:, None] * c * rho_up)
        out[s] = (rho_new - rho_old) / dts[s] + div / mesh.cell_area[:, None]
        rho_old = rho_new
    return SimpleNamespace(values=out, dts=dts, grid=grid, mesh=mesh)


def windowed_residual(res):
    """The audit's residual and M, expanded one step at a time from the
    windows :meth:`kinetic._Window.block` evaluates: (n_steps, n_cells,
    n_v) and (n_steps, n_cells, n_v + 1) arrays, the residual 0 outside the
    windows, M 0 below them and at its last window value above."""
    fields, grid = res.traj.fields, res.grid
    window = kinetic._Window(res.flux, grid, fields[0])
    shape = (len(fields) - 1, fields[0].mesh.n_cells)
    values, M = np.zeros(shape + (grid.n,)), np.zeros(shape + (grid.n + 1,))
    edges = np.arange(grid.n + 1)
    for s, (before, after) in enumerate(zip(fields, fields[1:])):
        u_old, u_new = before.values[None], after.values[None]
        w = window.block(u_old, u_new, np.array([after.t - before.t]),
                         *window.hull(u_old, u_new))
        values[s, w.cell, w.v] = w.r
        M[s, w.cell, w.v + 1] = w.M
        above = edges > (w.start + w.size)[:, None]
        last = w.M[np.cumsum(w.size) - 1]
        M[s, w.busy_cell] = np.where(above, last[:, None], M[s, w.busy_cell])
    return SimpleNamespace(values=values, M=M)


def reference_defect_measure(res, windows_per_axis=None, window_frac=0.125):
    """M and its summaries from the whole (n_steps, n_cells, n_v) residual."""
    dv = res.grid.dv
    cum = dv * np.cumsum(res.values, axis=-1)
    M = np.concatenate([np.zeros(cum.shape[:-1] + (1,)), cum], axis=-1)
    pointwise = float(max(0.0, -M.min()))
    pos = np.maximum(M, 0.0).sum(axis=-1) * dv            # (n_steps, n_cells)
    total = float((pos @ res.mesh.cell_area) @ res.dts)

    if windows_per_axis is None:
        windows_per_axis = 33 if res.mesh.dim == 1 else 9
    elapsed = float(res.dts.sum())
    acc = np.tensordot(res.dts, M, axes=(0, 0))           # (n_cells, n_v + 1)
    weighted = _tent_windows(res.mesh, windows_per_axis, window_frac) @ acc
    weighted /= elapsed
    negativity = float(max(0.0, -weighted.min()))
    edge = float(res.mesh.cell_area @ acc[:, -1]) / elapsed
    return SimpleNamespace(M=M, negativity_score=negativity,
                           pointwise_negativity=pointwise, total_mass=total,
                           edge_mass=edge)


def _sine_run():
    flux = make_flux("linear_advection", a=1.0)
    mesh = uniform_interval_mesh(40, 0.0, 1.0, periodic=True)
    u0 = cell_averages(mesh, lambda x: np.sin(2.0 * np.pi * x[:, 0]))
    return (run(CellField(mesh, u0), flux, GODUNOV, 0.5), flux,
            VGrid.for_range(-1.0, 1.0, n=64))


def _rotated_bump_run():
    flux = make_flux("rotated_burgers_2d", angle=np.pi / 5.0)
    mesh = triangulated_rectangle(6, 6, periodic=True)
    u0 = cell_averages(mesh, lambda x: np.exp(-20.0 * ((x[:, 0] - 0.4) ** 2
                                                       + (x[:, 1] - 0.5) ** 2)))
    traj = run(CellField(mesh, u0), flux, GODUNOV, 0.3)
    return traj, flux, VGrid.for_range(*state_range(traj), n=256)


def _on_centres_run():
    grid = VGrid(-1.0, 1.0, 16)
    mesh = uniform_interval_mesh(24, 0.0, 1.0, periodic=True)
    states = np.concatenate([grid.centers, [0.0]])
    rng = np.random.default_rng(11)
    fields = [CellField(mesh, rng.choice(states, 24), t=0.01 * s)
              for s in range(6)]
    return Trajectory(fields), make_flux("burgers"), grid


STREAMING_CASES = {
    "constant": lambda: (_constant_run(), make_flux("burgers"),
                         VGrid(-1.0, 1.0, 64)),
    **{f"expansion_{n}": (lambda n=n: (_expansion_run(n), make_flux("burgers"),
                                       VGrid.for_range(-1.0, 1.0, n=128)))
       for n in (40, 80, 160)},
    "linear_advection": _sine_run,
    # three identical steps: the minimum of M ties across steps
    "frozen": lambda: (frozen_trajectory(_sign_step(160), dt=1e-3, n_steps=3),
                       make_flux("burgers"), VGrid.for_range(-1.0, 1.0, n=128)),
    "rotated_burgers_2d": _rotated_bump_run,
    # states on velocity centres and at 0: the window edges, where chi's
    # boundaries count as outside
    "on_centres": _on_centres_run,
}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", list(STREAMING_CASES))
def test_streaming_audit_matches_bulk_reference(case):
    traj, flux, grid = STREAMING_CASES[case]()
    res = kinetic_residual(traj, flux, grid)
    ref_res = reference_kinetic_residual(traj, flux, grid)
    dm, ref = defect_measure(res), reference_defect_measure(ref_res)
    windowed = windowed_residual(res)
    assert _same_bits(windowed.values, ref_res.values)
    assert _same_bits(windowed.M, ref.M)
    assert dm.pointwise_negativity.hex() == ref.pointwise_negativity.hex()
    # the positive mass is summed per step and the time integral of M step
    # by step, with the tails above the windows summed in v at the end, so
    # these three may move by rounding only; edge_mass is a cancelling sum
    # that is pure rounding on some runs, so it is held to the size of its
    # terms
    assert abs(dm.total_mass - ref.total_mass) <= 1e-13 * abs(ref.total_mass)
    assert abs(dm.negativity_score - ref.negativity_score) \
        <= 1e-13 * abs(ref.negativity_score)
    terms = np.tensordot(ref_res.dts, np.abs(ref.M[..., -1]), axes=(0, 0))
    edge_scale = (float(ref_res.mesh.cell_area @ terms)
                  / float(ref_res.dts.sum()))
    assert abs(dm.edge_mass - ref.edge_mass) <= 1e-13 * edge_scale
    worst = np.unravel_index(np.argmin(ref.M), ref.M.shape)
    assert (dm.worst_step, dm.worst_cell, dm.worst_v) == tuple(map(int, worst))


def test_streaming_worst_location_takes_the_first_tie():
    traj, flux, grid = STREAMING_CASES["frozen"]()
    res = kinetic_residual(traj, flux, grid)
    dm, M = defect_measure(res), windowed_residual(res).M
    assert dm.worst_step == 0
    assert np.array_equal(M[0], M[2])
    assert M[0, dm.worst_cell, dm.worst_v] == -dm.pointwise_negativity < 0.0


def _tent_integral(mesh, acc):
    """The tents' integral of the time-integrated M ``acc``, spelled out:
    each element summed over the cells in order, one product at a time."""
    tents = _tent_windows(mesh, 33 if mesh.dim == 1 else 9, 0.125)
    out = np.zeros((len(tents), acc.shape[1]))
    for k in range(mesh.n_cells):
        out += tents[:, k, None] * acc[k]
    return out


@pytest.mark.parametrize("case", ["expansion_80", "rotated_burgers_2d"])
def test_negativity_score_is_the_tent_integral_in_cell_order(case):
    traj, flux, grid = STREAMING_CASES[case]()
    audit = DefectAudit(flux, grid)
    audit.start(traj.fields[0])
    for field in traj.fields[1:]:
        audit.step(field, None)
    audit._flush()
    # the time integral of M as finish assembles it: the time-weighted
    # residual summed in v
    acc = np.cumsum(audit.acc, axis=1)
    elapsed = float(np.array(audit._dts).sum())
    weighted = _tent_integral(traj.mesh, acc) / elapsed
    score = audit.finish().negativity_score
    assert score > 0.0
    assert score.hex() == float(max(0.0, -weighted.min())).hex()


# ---------------------------------------------------------------------------
# the window's widened rows: W taken in velocity chunks, as the dense W


def _dense_spans(flux, grid, mesh):
    """What each cell's window hull spans, as indices into [u_old, u_new,
    0], from the dense W = div(|e| c) / |K|, and which of its rows are not
    0."""
    c = flux.along(mesh.face_normal).c[:, None] * flux.dphi(grid.centers)
    w = mesh.divergence(mesh.face_length[:, None] * c) / mesh.cell_area[:, None]
    widen = w.any(axis=1)
    n, cells = mesh.n_cells, np.arange(mesh.n_cells)
    spans = [cells, n + cells, *mesh.cell_neighbors]
    if widen.any():
        spans.append(np.where(widen, 2 * n, cells))
    return np.array(spans), widen


WIDENING_CASES = {
    # two faces of one flow per cell: W is exactly 0, no row widens
    "interval": (lambda: _periodic_interval(40), make_flux("burgers")),
    "triangles": (lambda: triangulated_rectangle(6, 6, periodic=True),
                  make_flux("rotated_burgers_2d", angle=np.pi / 5.0)),
    "jittered": (lambda: triangulated_rectangle(6, 6, periodic=True,
                                                jitter=0.2),
                 make_flux("rotated_burgers_2d", angle=np.pi / 5.0)),
}


@pytest.mark.parametrize("budget", [1, kinetic._BUDGET])
@pytest.mark.parametrize("case", list(WIDENING_CASES))
def test_window_widens_the_rows_the_dense_w_does(case, budget, monkeypatch):
    make_mesh, flux = WIDENING_CASES[case]
    mesh, grid = make_mesh(), VGrid(-1.0, 1.0, 256)
    spans, widen = _dense_spans(flux, grid, mesh)
    # a budget of 1 takes W one velocity column at a time
    monkeypatch.setattr(kinetic, "_BUDGET", budget)
    window = kinetic._Window(flux, grid, CellField(mesh, np.zeros(mesh.n_cells)))
    assert _same_bits(window.widen, widen)
    assert widen.sum() == (0 if mesh.dim == 1 else mesh.n_cells)
    # three steps of random states, some exactly 0 or on velocity centres,
    # where chi's boundaries count as outside the windows
    rng = np.random.default_rng(5)
    u = rng.uniform(-0.9, 0.9, (4, mesh.n_cells))
    u[1, ::3] = 0.0
    u[2, ::4] = rng.choice(grid.centers, u[2, ::4].size)
    u_old, u_new = u[:-1], u[1:]
    held = np.concatenate((u_old, u_new, np.zeros((len(u_old), 1))), axis=1)
    held = held[:, spans]
    start = np.searchsorted(grid.centers, held.min(axis=1))
    end = np.searchsorted(grid.centers, held.max(axis=1), "right")
    got = window.hull(u_old, u_new)
    assert _same_bits(got[0], start) and _same_bits(got[1], end - start)


# ---------------------------------------------------------------------------
# blocks of steps: however the run is split, the record has the same bits


def _step_weights(res):
    """Each step's weight in the audit's block budget: its window entries,
    or its cells if there are more of those."""
    u = np.array([f.values for f in res.traj.fields])
    window = kinetic._Window(res.flux, res.grid, res.traj.fields[0])
    size = window.hull(u[:-1], u[1:])[1]
    return np.maximum(size.sum(axis=1), size.shape[1])


def _record_blocks(monkeypatch, budget):
    """Patch the block budget.  Record each nonempty flush as the steps it
    held and the block length it was due at, and each evaluated part as its
    steps and window entries."""
    monkeypatch.setattr(kinetic, "_BUDGET", budget)
    flushes, parts = [], []
    flush, block = DefectAudit._flush, kinetic._Window.block

    def recording_flush(self):
        if len(self._fields) > 1:
            flushes.append((len(self._fields) - 1, self._block_steps))
        flush(self)

    def recording_block(self, u_old, *rest):
        w = block(self, u_old, *rest)
        parts.append((len(u_old), w.r.size))
        return w

    monkeypatch.setattr(DefectAudit, "_flush", recording_flush)
    monkeypatch.setattr(kinetic._Window, "block", recording_block)
    return flushes, parts


def _assert_extremes_match(dm, ref):
    assert dm.pointwise_negativity.hex() == ref.pointwise_negativity.hex()
    worst = np.unravel_index(np.argmin(ref.M), ref.M.shape)
    assert (dm.worst_step, dm.worst_cell, dm.worst_v) == tuple(map(int, worst))


@pytest.mark.parametrize("case", list(STREAMING_CASES))
def test_blocks_of_steps_match_the_dense_reference(case, monkeypatch):
    traj, flux, grid = STREAMING_CASES[case]()
    res = kinetic_residual(traj, flux, grid)
    ref_res = reference_kinetic_residual(traj, flux, grid)
    ref = reference_defect_measure(ref_res)
    windowed = windowed_residual(res)
    assert _same_bits(windowed.values, ref_res.values)
    assert _same_bits(windowed.M, ref.M)
    whole = defect_measure(res)
    # the first block is one step; blocks of k steps follow, with k chosen
    # so that the steps run out in the middle of the last one
    rest = len(traj) - 2
    k = next(k for k in range(2, rest + 2) if rest % k)
    flushes, _ = _record_blocks(monkeypatch, k * int(_step_weights(res).max()))
    dm = defect_measure(res)
    assert len(flushes) > 1 and max(held for held, _ in flushes) > 1
    held, due = flushes[-1]
    assert held < due
    # every element's terms are added in step order in any split
    assert dm == whole
    _assert_extremes_match(dm, ref)


def test_identical_steps_across_blocks_keep_the_first_tie(monkeypatch):
    traj = frozen_trajectory(_sign_step(160), dt=1e-3, n_steps=20)
    flux, grid = make_flux("burgers"), VGrid.for_range(-1.0, 1.0, n=128)
    res = kinetic_residual(traj, flux, grid)
    M = windowed_residual(res).M
    flushes, _ = _record_blocks(monkeypatch, kinetic._BUDGET)
    dm = defect_measure(res)
    assert len(flushes) > 2
    assert dm.worst_step == 0
    assert np.array_equal(M[0], M[-1])
    assert M[0, dm.worst_cell, dm.worst_v] == -dm.pointwise_negativity < 0.0


def test_step_heavier_than_the_budget_is_evaluated_alone(monkeypatch):
    # between +-1 alternating cells every hull is [-1, 1], so every window
    # spans the whole grid: 64 x 128 entries, twice the budget
    mesh = _periodic_interval(64)
    flat = np.full(64, 0.3)
    checks = np.where(np.arange(64) % 2, -1.0, 1.0)
    values = [flat] * 4 + [checks] * 3 + [flat] * 3
    traj = Trajectory([CellField(mesh, u, t=0.01 * s)
                       for s, u in enumerate(values)])
    flux, grid = make_flux("burgers"), VGrid(-1.0, 1.0, 128)
    res = kinetic_residual(traj, flux, grid)
    assert _step_weights(res).max() == 64 * 128 > kinetic._BUDGET
    ref_res = reference_kinetic_residual(traj, flux, grid)
    ref = reference_defect_measure(ref_res)
    assert _same_bits(windowed_residual(res).M, ref.M)
    _, parts = _record_blocks(monkeypatch, kinetic._BUDGET)
    dm = defect_measure(res)
    assert all(steps == 1 for steps, entries in parts
               if entries > kinetic._BUDGET)
    assert any(entries > kinetic._BUDGET for _, entries in parts)
    assert any(steps > 1 for steps, _ in parts)
    _assert_extremes_match(dm, ref)
    assert abs(dm.total_mass - ref.total_mass) <= 1e-13 * abs(ref.total_mass)


@pytest.mark.parametrize("one_step", [
    lambda: frozen_trajectory(_sign_step(32), dt=1e-3, n_steps=1),
    lambda: Trajectory(_expansion_run(40).fields[:2])],
    ids=["frozen", "evolved"])
def test_one_step_run_matches_the_dense_reference(one_step):
    traj = one_step()
    flux, grid = make_flux("burgers"), VGrid.for_range(-1.0, 1.0, n=128)
    dm = defect_measure(kinetic_residual(traj, flux, grid))
    ref = reference_defect_measure(reference_kinetic_residual(traj, flux, grid))
    _assert_extremes_match(dm, ref)
    assert abs(dm.total_mass - ref.total_mass) <= 1e-13 * abs(ref.total_mass)
    assert abs(dm.negativity_score - ref.negativity_score) \
        <= 1e-13 * abs(ref.negativity_score)


@lru_cache(maxsize=None)
def _periodic_interval(n):
    return uniform_interval_mesh(n, 0.0, 1.0, periodic=True)


_PAIR_GRID = VGrid(-1.0, 1.0, 16)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.integers(3, 12).flatmap(
           lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                              max_size=2 * n)),
       dt=st.floats(1e-3, 1.0),
       flux=st.sampled_from([make_flux("burgers"),
                             make_flux("linear_advection", a=-0.5)]))
def test_windowed_audit_matches_dense_on_random_step_pairs(values, dt, flux):
    u = np.reshape(values, (2, -1))
    # every other cell sits exactly on its nearest velocity centre, where
    # chi's boundaries count as outside the windows
    centers = _PAIR_GRID.centers
    u[:, ::2] = centers[np.abs(u[:, ::2, None] - centers).argmin(axis=-1)]
    mesh = _periodic_interval(u.shape[1])
    traj = Trajectory([CellField(mesh, u[s], t=s * dt) for s in range(2)])
    res = kinetic_residual(traj, flux, _PAIR_GRID)
    dm = defect_measure(res)
    ref = reference_defect_measure(
        reference_kinetic_residual(traj, flux, _PAIR_GRID))
    assert _same_bits(windowed_residual(res).M, ref.M)
    assert dm.pointwise_negativity.hex() == ref.pointwise_negativity.hex()
    worst = np.unravel_index(np.argmin(ref.M), ref.M.shape)
    assert (dm.worst_step, dm.worst_cell, dm.worst_v) == tuple(map(int, worst))


@pytest.mark.memory
def test_audit_memory_does_not_grow_with_steps():
    # only the step sizes and the per-step positive mass grow with the run:
    # a few words per step, where a steps x cells table would not fit
    base = _sign_step(64)
    flux, grid = make_flux("burgers"), VGrid.for_range(-1.0, 1.0, n=128)

    def peak(n_steps):
        traj = frozen_trajectory(base, dt=1e-3, n_steps=n_steps)
        tracemalloc.start()
        try:
            defect_measure(kinetic_residual(traj, flux, grid))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(10), peak(200)
    per_step = 16 * 8
    assert many - few <= per_step * (200 - 10)
    assert per_step < 8 * base.mesh.n_cells // 2


@pytest.mark.memory
def test_kinetic_level_holds_its_integral_and_one_block():
    # the finest level of the kinetic benchmark, expansion_shock on 400
    # cells with n_v 128, holds one table, the time-weighted residual that
    # finish sums in v into the time integral of M, 400 x 129 floats, and
    # one block: its fields and some twenty arrays of _BUDGET window
    # entries, with no table per (face, velocity) and no full-width W
    cfg = StudyConfig(problem="expansion_shock", base_n=50, t_final=0.4,
                      levels=4)
    mesh = build_problem_mesh(cfg, 3)
    tracemalloc.start()
    try:
        _solve_on(mesh, cfg, 3, cli._kinetic_observers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = mesh.n_cells * (cfg.n_v + 1) * 8
    block = 24 * 8 * kinetic._BUDGET
    assert (mesh.n_cells, cfg.n_v) == (400, 128)
    assert peak <= held + block


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegeneracy_burgers_is_small():
    rpt = nondegeneracy(make_flux("burgers"), (-1.0, 1.0), tol=1e-3, seed=0)
    # genuinely nonlinear flux: measure stays O(tol / interval length)
    assert rpt.measure <= 5.0 * rpt.tol / (rpt.interval[1] - rpt.interval[0])
    assert rpt.measure == 0.00146484375
    assert rpt.flux_name == "burgers"
    assert np.linalg.norm(rpt.worst_direction) == pytest.approx(1.0)


def test_nondegeneracy_linear_flux_is_degenerate():
    rpt = nondegeneracy(make_flux("linear_advection", a=1.0), (-1.0, 1.0),
                        tol=1e-3, seed=0)
    # one direction annihilates every velocity for a linear flux
    assert rpt.measure >= 0.99
    assert rpt.measure == pytest.approx(1.0)


def test_nondegeneracy_monotone_in_tol():
    flux = make_flux("burgers")
    vals = [nondegeneracy(flux, (-1.0, 1.0), tol=tol, seed=0).measure
            for tol in (1e-2, 1e-3, 1e-4)]
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[2] > 0.0


def test_nondegeneracy_2d_rotated_burgers():
    flux = make_flux("rotated_burgers_2d", angle=np.pi / 5.0)
    rpt = nondegeneracy(flux, (-1.0, 1.0), tol=1e-3, seed=2)
    # a separable flux transports along d only: tau = 0 with xi orthogonal
    # to d zeroes the phase at every state
    assert rpt.measure == 1.0
    tau, xi = rpt.worst_direction[0], rpt.worst_direction[1:]
    assert tau == 0.0
    assert abs(xi @ np.asarray(flux.direction)) <= 1e-15
    assert np.linalg.norm(rpt.worst_direction) == pytest.approx(1.0)


@pytest.mark.parametrize("direction", [(0.0, 0.0), (0.0, 0.0, 2.0)])
def test_nondegeneracy_direction_off_the_plane(direction):
    # (-d2, d1, 0, ...) vanishes here; the first axis is orthogonal to d
    flux = make_flux("linear_advection", a=direction)
    rpt = nondegeneracy(flux, (-1.0, 1.0))
    assert rpt.measure == 1.0
    assert rpt.worst_direction[1:] @ np.asarray(flux.direction) == 0.0
    assert np.linalg.norm(rpt.worst_direction) == 1.0


def test_nondegeneracy_wide_tolerance_is_degenerate():
    # (tau, xi) = (1, 0) meets |tau + xi . f'| <= tol at every v
    rpt = nondegeneracy(make_flux("burgers"), (-1.0, 1.0), tol=1.0)
    assert rpt.measure == 1.0
    assert list(rpt.worst_direction) == [1.0, 0.0]


def test_nondegeneracy_is_seedless():
    flux = make_flux("buckley_leverett")
    reports = [nondegeneracy(flux, (0.0, 1.0), seed=s) for s in (0, 1, 7)]
    assert len({r.measure for r in reports}) == 1
    assert all(np.array_equal(r.worst_direction, reports[0].worst_direction)
               for r in reports)


def test_nondegeneracy_validation():
    flux = make_flux("burgers")
    with pytest.raises(ValueError):
        nondegeneracy(flux, (-1.0, 1.0), tol=0.0)
    with pytest.raises(ValueError):
        nondegeneracy(flux, (1.0, 1.0))


def sampled_nondegeneracy(flux, interval, n_directions=256, tol=1e-3,
                          v_samples=16_384, seed=0):
    """The sampled estimate that :func:`nondegeneracy` replaced, verbatim
    but for returning (measure, direction): kept as the slow reference."""
    if n_directions < 100:
        raise ValueError("need at least 100 directions for a usable estimate")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError("empty state interval")
    rng = np.random.default_rng(seed)
    d = flux.dim

    v = lo + (np.arange(v_samples) + 0.5) * (hi - lo) / v_samples
    speeds = flux.df(v)                                   # (m, d)

    dirs = rng.normal(size=(n_directions, d + 1))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)

    # structured candidates: (tau, xi) with tau = -xi . f'(v_i), which zeroes
    # the phase exactly at v_i (and at every v when f' is constant)
    xis = list(np.eye(d)) + [x / np.linalg.norm(x)
                             for x in rng.normal(size=(8, d))]
    probe = speeds[:: max(1, v_samples // 64)]
    cands = []
    for xi in xis:
        taus = -(probe @ xi)
        for tau in taus:
            vec = np.concatenate([[tau], xi])
            cands.append(vec / np.linalg.norm(vec))
    dirs = np.concatenate([dirs, np.asarray(cands)])

    frac = np.empty(len(dirs))
    for start in range(0, len(dirs), 64):  # chunked: the phase matrix is large
        blk = dirs[start:start + 64]
        phase = blk[:, :1] + blk[:, 1:] @ speeds.T
        frac[start:start + 64] = (np.abs(phase) <= tol).mean(axis=1)
    i = int(frac.argmax())
    return float(frac[i]), dirs[i].copy()


@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.25, 0.75), (0.0, 1.0)])
@pytest.mark.parametrize("flux", [make_flux("burgers"),
                                  make_flux("linear_advection", a=1.0),
                                  make_flux("buckley_leverett")],
                         ids=lambda f: f.name)
def test_nondegeneracy_exact_against_sampled(flux, interval):
    rpt = nondegeneracy(flux, interval, tol=1e-3)
    lo, hi = interval
    m = rpt.v_samples
    speeds = flux.df(lo + (np.arange(m) + 0.5) * (hi - lo) / m)[:, 0]

    def fraction(dirs):
        phase = dirs[:, :1] + dirs[:, 1:] * speeds[None, :]
        return (np.abs(phase) <= rpt.tol).mean(axis=1)

    # a supremum bounds every sampled direction, at every seed
    for seed in range(5):
        assert rpt.measure >= sampled_nondegeneracy(flux, interval, seed=seed)[0]
    # the reported direction attains the measure under the direct predicate
    assert fraction(rpt.worst_direction[None, :])[0] == rpt.measure
    # and no c = -tau / xi on a dense sweep across the speeds does better
    c = np.linspace(speeds.min() - 0.01, speeds.max() + 0.01, 2048)
    dirs = np.stack([-c, np.ones_like(c)], axis=1) / np.sqrt(1.0 + c * c)[:, None]
    assert max(fraction(blk).max() for blk in np.split(dirs, 32)) <= rpt.measure

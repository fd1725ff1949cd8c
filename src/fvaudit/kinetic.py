"""Kinetic (velocity-resolved) audits for cell-average trajectories.

A scalar field u is lifted to the indicator profile

    chi(v | u) = +1 if 0 < v < u,   -1 if u < v < 0,   0 otherwise,

whose v-integral recovers u.  An exact entropy solution satisfies a
transport equation for chi up to a defect term d_v m with a nonnegative
measure m.  Discretely we form, per accepted step and cell, the transport
residual of the lifted trajectory and integrate it in v:

    M(v) = integral_{v_min}^{v} R dv'.

Nonnegative M across all cells, steps and velocities is the kinetic
signature of entropy consistency; persistent negative mass in M flags a
non-entropic (e.g. expansion shock) evolution.  The audit is a diagnostic
with a mesh-dependent floor, so it reports scores to compare across
refinement levels rather than a hard zero.

Velocity transport uses upwind collocation per velocity node and requires
a fully periodic mesh so the spatial flux terms telescope exactly; open
boundaries are unsupported because the lifted profile has no ghost
closure there.  Riemann data still fits: on a periodic interval the wrap
face carries a standing jump with equal flux on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .scheme import CellField, Trajectory, state_range

__all__ = [
    "VGrid",
    "KineticDensity",
    "KineticResidual",
    "DefectMeasure",
    "NondegeneracyReport",
    "chi",
    "lift",
    "frozen_trajectory",
    "kinetic_residual",
    "defect_measure",
    "nondegeneracy",
]


@dataclass(frozen=True)
class VGrid:
    """Uniform velocity grid of cell centers on [v_min, v_max]."""

    v_min: float
    v_max: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("velocity grid needs at least 8 nodes")
        if not self.v_max > self.v_min:
            raise ValueError("empty velocity range")

    @property
    def dv(self) -> float:
        return (self.v_max - self.v_min) / self.n

    @property
    def centers(self) -> np.ndarray:
        return self.v_min + (np.arange(self.n) + 0.5) * self.dv

    @property
    def edges(self) -> np.ndarray:
        return self.v_min + np.arange(self.n + 1) * self.dv

    @classmethod
    def for_range(cls, lo: float, hi: float, n: int = 256,
                  pad: float = 0.05) -> "VGrid":
        """Grid covering [lo, hi] and the origin, padded on both sides.

        The origin must be inside because chi changes sign there.
        """
        a, b = min(0.0, float(lo)), max(0.0, float(hi))
        if b - a == 0.0:
            a, b = -0.5, 0.5
        width = b - a
        return cls(a - pad * width, b + pad * width, n)


def chi(v, alpha) -> np.ndarray:
    """Signed indicator chi(v | alpha); boundaries count as outside."""
    v = np.asarray(v, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    pos = (v > 0.0) & (v < alpha)
    neg = (v < 0.0) & (v > alpha)
    return pos.astype(np.int8) - neg.astype(np.int8)


@dataclass
class KineticDensity:
    """Lifted profile chi(v_j | u_K) on a velocity grid, one row per cell."""

    grid: VGrid
    rho: np.ndarray  # (n_cells, n_v) int8
    t: float = 0.0

    @property
    def moment(self) -> np.ndarray:
        """Riemann-sum reconstruction of u; off by at most dv per cell."""
        return self.grid.dv * self.rho.sum(axis=1).astype(float)


def lift(field: CellField, grid: VGrid) -> KineticDensity:
    u = field.values
    if grid.v_min > min(0.0, float(u.min())) or grid.v_max < max(0.0, float(u.max())):
        raise ValueError("velocity grid does not cover the field range and 0")
    rho = chi(grid.centers[None, :], u[:, None])
    return KineticDensity(grid=grid, rho=rho, t=field.t)


def frozen_trajectory(field: CellField, dt: float, n_steps: int) -> Trajectory:
    """Trajectory that repeats one state at uniform time intervals.

    Diagnostic helper: freezing a profile that is *not* a steady entropy
    solution (a standing expansion shock, say) gives the kinetic audit a
    known-bad input with zero time-difference terms.
    """
    if not (dt > 0.0 and n_steps >= 1):
        raise ValueError("need dt > 0 and at least one step")
    fields = [CellField(field.mesh, field.values, field.t + i * dt)
              for i in range(n_steps + 1)]
    return Trajectory(fields)


@dataclass
class KineticResidual:
    """Transport residual of the lifted trajectory.

    ``values`` has shape (n_steps, n_cells, n_v): for step n it holds

        (rho^{n+1} - rho^n) / dt_n + (1 / |K|) sum_e |e| c_e rho_up

    with c_e = f'(v_j) . n_e and rho_up the upwind copy of rho^n.
    """

    values: np.ndarray
    dts: np.ndarray
    grid: VGrid
    mesh: Mesh


def kinetic_residual(traj: Trajectory, flux, grid: VGrid | None = None) -> KineticResidual:
    mesh = traj.mesh
    if not mesh.is_periodic:
        raise ValueError("kinetic transport audit needs a fully periodic mesh")
    if len(traj) < 2:
        raise ValueError("need at least one step")
    if grid is None:
        grid = VGrid.for_range(*state_range(traj))

    c = flux.dfn(grid.centers[None, :], mesh.face_normal)  # (n_f, n_v)
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
    return KineticResidual(values=out, dts=dts, grid=grid, mesh=mesh)


@dataclass
class DefectMeasure:
    """Velocity antiderivative M of the kinetic residual, with summaries.

    ``M`` has shape (n_steps, n_cells, n_v + 1), evaluated at the velocity
    grid edges with M(v_min) = 0.  It approximates the defect density only
    in a distributional sense: an upwind step splits the defect of a jump
    sitting on a face into a positive part in one cell and a negative part
    in its neighbor, and per-step values carry O(dv/dt) quantization, so
    raw cell values at shocks grow like 1/h no matter how entropic the
    evolution is.  That raw undershoot is still reported as
    ``pointwise_negativity``.

    ``negativity_score`` therefore tests M the way a measure is tested:
    integrated over the run (the time-difference terms telescope away) and
    against smooth nonnegative spatial tent windows (which reassemble the
    split pairs), normalized by the elapsed time.  Entropy-consistent
    evolutions drive the score to zero under refinement; a non-entropic
    standing expansion keeps it O(1).

    ``total_mass`` integrates the positive part over steps, cells and
    velocities; ``edge_mass`` is the time-averaged spatial integral of
    M(v_max), a conservation cross-check that vanishes with dv.
    """

    M: np.ndarray
    negativity_score: float
    pointwise_negativity: float
    total_mass: float
    edge_mass: float


def _tent_windows(mesh: Mesh, per_axis: int, frac: float) -> np.ndarray:
    """Area-weighted tent test functions on a grid of window centers."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    phi = np.ones((per_axis ** mesh.dim, mesh.n_cells))
    for ax in range(mesh.dim):
        extent = max(hi[ax] - lo[ax], 1e-300)
        width = frac * extent
        centers = lo[ax] + (np.arange(per_axis) + 0.5) * extent / per_axis
        d = np.abs(mesh.cell_centroid[None, :, ax] - centers[:, None])
        if mesh.is_periodic:
            d = np.minimum(d, extent - d)
        tent = np.maximum(0.0, 1.0 - d / width)           # (per_axis, n_cells)
        reps = per_axis ** (mesh.dim - 1 - ax)
        idx = np.repeat(np.tile(np.arange(per_axis), per_axis ** ax), reps)
        phi *= tent[idx]
    return phi * mesh.cell_area[None, :]


def defect_measure(res: KineticResidual, windows_per_axis: int | None = None,
                   window_frac: float = 0.125) -> DefectMeasure:
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
    return DefectMeasure(M=M, negativity_score=negativity,
                         pointwise_negativity=pointwise, total_mass=total,
                         edge_mass=edge)


@dataclass
class NondegeneracyReport:
    """Largest velocity-fraction concentrated on any characteristic plane."""

    measure: float
    tol: float
    interval: tuple[float, float]
    worst_direction: np.ndarray
    n_directions: int
    v_samples: int
    flux_name: str


def nondegeneracy(flux, interval: tuple[float, float], n_directions: int = 256,
                  tol: float = 1e-3, v_samples: int = 16_384,
                  seed: int = 0) -> NondegeneracyReport:
    """Measure sup over directions of |{v : |tau + xi . f'(v)| <= tol}| / |I|.

    Directions (tau, xi) live on the unit sphere.  A genuinely nonlinear
    flux keeps the measure O(tol); a linear flux has a direction that
    annihilates every v, driving the measure to 1.  Structured candidates
    aligned with f' at sampled states are mixed into the random draw so
    the degenerate directions of linear and piecewise-affine fluxes are
    found, not just approached.
    """
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
    return NondegeneracyReport(measure=float(frac[i]), tol=tol,
                               interval=(lo, hi), worst_direction=dirs[i].copy(),
                               n_directions=len(dirs), v_samples=v_samples,
                               flux_name=flux.name)

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

The audit streams: ``defect_measure`` draws one step's residual at a time
from ``KineticResidual.steps``, so besides the trajectory it holds
O(n_cells * n_v) floats and an (n_steps, n_cells) positive-mass table.
Reading ``KineticResidual.values`` or ``DefectMeasure.M`` rebuilds every
step and costs O(n_steps * n_cells * n_v) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Transport residual of the lifted trajectory, one step at a time.

    For step n the residual is the (n_cells, n_v) array

        (rho^{n+1} - rho^n) / dt_n + (1 / |K|) sum_e |e| c_e rho_up

    with c_e = f'(v_j) . n_e (the (n_faces, n_v) table ``c``) and rho_up
    the upwind copy of rho^n.  :meth:`steps` computes them in order and
    keeps only the current pair of lifted states; ``values`` stacks all of
    them into (n_steps, n_cells, n_v) and costs that much memory to read.
    """

    traj: Trajectory
    c: np.ndarray
    dts: np.ndarray
    grid: VGrid
    mesh: Mesh

    def steps(self):
        """Yield each step's (n_cells, n_v) residual as a new array."""
        mesh = self.mesh
        upwind_left = self.c >= 0.0
        flow = mesh.face_length[:, None] * self.c
        rho_old = lift(self.traj.fields[0], self.grid).rho
        for later, dt in zip(self.traj.fields[1:], self.dts):
            rho_new = lift(later, self.grid).rho
            rho_up = np.where(upwind_left, rho_old[mesh.face_left],
                              rho_old[mesh.face_right]).astype(float)
            div = mesh.divergence(flow * rho_up)
            yield (rho_new - rho_old) / dt + div / mesh.cell_area[:, None]
            rho_old = rho_new

    @property
    def values(self) -> np.ndarray:
        out = np.empty((len(self.dts), self.mesh.n_cells, self.grid.n))
        for s, r in enumerate(self.steps()):
            out[s] = r
        return out


def kinetic_residual(traj: Trajectory, flux, grid: VGrid | None = None) -> KineticResidual:
    mesh = traj.mesh
    if not mesh.is_periodic:
        raise ValueError("kinetic transport audit needs a fully periodic mesh")
    if len(traj) < 2:
        raise ValueError("need at least one step")
    if grid is None:
        grid = VGrid.for_range(*state_range(traj))
    c = flux.dfn(grid.centers[None, :], mesh.face_normal)  # (n_f, n_v)
    return KineticResidual(traj=traj, c=c, dts=np.diff(traj.times),
                           grid=grid, mesh=mesh)


def _antiderivative(r: np.ndarray, dv: float, out: np.ndarray) -> None:
    """Write M of one step's residual at the velocity edges, M(v_min) = 0."""
    out[:, 0] = 0.0
    np.cumsum(r, axis=-1, out=out[:, 1:])
    out[:, 1:] *= dv


@dataclass
class DefectMeasure:
    """Velocity antiderivative M of the kinetic residual, with summaries.

    ``M`` has shape (n_steps, n_cells, n_v + 1), evaluated at the velocity
    grid edges with M(v_min) = 0; it is rebuilt from the residual each
    time it is read.  It approximates the defect density only
    in a distributional sense: an upwind step splits the defect of a jump
    sitting on a face into a positive part in one cell and a negative part
    in its neighbor, and per-step values carry O(dv/dt) quantization, so
    raw cell values at shocks grow like 1/h no matter how entropic the
    evolution is.  That raw undershoot is still reported as
    ``pointwise_negativity``, and ``worst_step``, ``worst_cell`` and
    ``worst_v`` (a velocity-edge index) locate the minimum of M, the first
    one in (step, cell, velocity) order on ties.

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

    residual: KineticResidual = field(repr=False)
    negativity_score: float
    pointwise_negativity: float
    total_mass: float
    edge_mass: float
    worst_step: int
    worst_cell: int
    worst_v: int

    @property
    def M(self) -> np.ndarray:
        res = self.residual
        out = np.empty((len(res.dts), res.mesh.n_cells, res.grid.n + 1))
        for s, r in enumerate(res.steps()):
            _antiderivative(r, res.grid.dv, out[s])
        return out


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
    """Summarize M in one pass over the steps, in O(n_cells * n_v) memory.

    Besides one step's M, the pass keeps its time integral ``acc``, the
    running minimum and the (n_steps, n_cells) positive mass.
    """
    dv = res.grid.dv
    M = np.empty((res.mesh.n_cells, res.grid.n + 1))
    part = np.empty_like(M)
    acc = np.zeros_like(M)
    pos = np.empty((len(res.dts), res.mesh.n_cells))
    lowest, worst = np.inf, (0, 0, 0)
    for s, r in enumerate(res.steps()):
        _antiderivative(r, dv, M)
        i = int(M.argmin())
        if M.flat[i] < lowest:          # strict: ties keep the earliest step
            lowest, worst = M.flat[i], (s, *divmod(i, M.shape[1]))
        np.maximum(M, 0.0, out=part).sum(axis=-1, out=pos[s])
        acc += np.multiply(res.dts[s], M, out=part)
    pointwise = float(max(0.0, -lowest))
    pos *= dv
    total = float((pos @ res.mesh.cell_area) @ res.dts)

    if windows_per_axis is None:
        windows_per_axis = 33 if res.mesh.dim == 1 else 9
    elapsed = float(res.dts.sum())
    weighted = _tent_windows(res.mesh, windows_per_axis, window_frac) @ acc
    weighted /= elapsed
    negativity = float(max(0.0, -weighted.min()))
    edge = float(res.mesh.cell_area @ acc[:, -1]) / elapsed
    worst_step, worst_cell, worst_v = worst
    return DefectMeasure(residual=res, negativity_score=negativity,
                         pointwise_negativity=pointwise, total_mass=total,
                         edge_mass=edge, worst_step=worst_step,
                         worst_cell=worst_cell, worst_v=worst_v)


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

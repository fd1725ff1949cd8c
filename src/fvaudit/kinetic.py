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

The audit streams: :class:`DefectAudit` takes one step at a time
(``defect_measure`` replays a kept trajectory into it) and holds
O(n_cells * n_v) floats and an (n_steps, n_cells) positive-mass table.
Reading ``KineticResidual.values`` or ``DefectMeasure.M`` rebuilds every
step and costs O(n_steps * n_cells * n_v) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh
from .physics import FluxModel
from .scheme import CellField, Trajectory, _replay, state_range

__all__ = [
    "VGrid",
    "KineticDensity",
    "KineticResidual",
    "DefectMeasure",
    "DefectAudit",
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

    with c_e = f'(v_j) . n_e and rho_up the upwind copy of rho^n.
    :meth:`steps` computes them in order and keeps only the current pair of
    lifted states; ``values`` stacks all of them into (n_steps, n_cells, n_v)
    and costs that much memory to read.  Built by :func:`kinetic_residual`.
    """

    traj: Trajectory
    flux: FluxModel
    grid: VGrid

    @property
    def mesh(self) -> Mesh:
        return self.traj.mesh

    @property
    def dts(self) -> np.ndarray:
        return np.diff(self.traj.times)

    def steps(self):
        """Yield each step's (n_cells, n_v) residual as a new array."""
        fields = self.traj.fields
        transport = _Transport(self.flux, self.grid, fields[0])
        for before, after in zip(fields, fields[1:]):
            yield transport.step(after, after.t - before.t)

    @property
    def values(self) -> np.ndarray:
        out = np.empty((len(self.traj) - 1, self.mesh.n_cells, self.grid.n))
        for s, r in enumerate(self.steps()):
            out[s] = r
        return out


class _Transport:
    """The lifted transport residual of consecutive fields, one step at a
    time; keeps only the lift of the last field.  The velocity table
    c_e = f'(v_j) . n_e is (n_faces, n_v); the spatial flux terms telescope
    only on a fully periodic mesh, so any other is refused."""

    def __init__(self, flux, grid: VGrid, field0: CellField):
        mesh = field0.mesh
        if not mesh.is_periodic:
            raise ValueError("kinetic transport audit needs a fully periodic mesh")
        c = flux.dfn(grid.centers[None, :], mesh.face_normal)
        self.mesh, self.grid = mesh, grid
        self.upwind_left = c >= 0.0
        self.flow = mesh.face_length[:, None] * c
        self.rho = lift(field0, grid).rho

    def step(self, later: CellField, dt: float) -> np.ndarray:
        mesh, rho_old = self.mesh, self.rho
        self.rho = lift(later, self.grid).rho
        rho_up = np.where(self.upwind_left, rho_old[mesh.face_left],
                          rho_old[mesh.face_right])
        # the step's flow and divergence stay referenced until the next step
        # replaces them, so that it allocates while their memory is held;
        # freed first, it would go back to the system and be paged in again
        self.face_flow = self.flow * rho_up
        self.div = div = mesh.divergence(self.face_flow)
        div /= mesh.cell_area[:, None]
        out = (self.rho - rho_old) / dt
        out += div
        return out


def kinetic_residual(traj: Trajectory, flux, grid: VGrid | None = None) -> KineticResidual:
    if grid is None:
        grid = VGrid.for_range(*state_range(traj))
    _Transport(flux, grid, traj.fields[0])      # refuses a mesh it cannot audit
    if len(traj) < 2:
        raise ValueError("need at least one step")
    return KineticResidual(traj=traj, flux=flux, grid=grid)


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
    time it is read, unless streamed.  It approximates the defect density only
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

    negativity_score: float
    pointwise_negativity: float
    total_mass: float
    edge_mass: float
    worst_step: int
    worst_cell: int
    worst_v: int
    residual: KineticResidual | None = field(default=None, repr=False)

    @property
    def M(self) -> np.ndarray:
        res = self.residual
        if res is None:
            raise ValueError("a measure streamed during a solve keeps no residual, "
                             "so M cannot be rebuilt; read it from "
                             "defect_measure(kinetic_residual(...)) of a kept trajectory")
        out = np.empty((len(res.traj) - 1, res.mesh.n_cells, res.grid.n + 1))
        for s, r in enumerate(res.steps()):
            _antiderivative(r, res.grid.dv, out[s])
        return out


# tent test functions of the negativity score: window centers per axis by
# mesh dimension, and the tent half-width as a fraction of the extent
_TENTS_PER_AXIS = {1: 33, 2: 9}
_TENT_WIDTH = 0.125


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


class DefectAudit:
    """The :class:`DefectMeasure` of one run, fed ``start(field0)`` and then
    every accepted step; ``finish()`` gives it with ``residual`` None.

    Besides one step's M it keeps its time integral ``acc``, the running
    minimum, the step sizes and the (n_steps, n_cells) positive mass.
    """

    def __init__(self, flux, grid: VGrid):
        self.flux, self.grid = flux, grid

    def start(self, field0: CellField):
        self._transport = _Transport(self.flux, self.grid, field0)
        n_cells = field0.mesh.n_cells
        self.M = np.empty((n_cells, self.grid.n + 1))
        self.part = np.empty_like(self.M)
        self.acc = np.zeros_like(self.M)
        self.pos, self._dts = np.empty((0, n_cells)), []
        self.lowest, self.worst = np.inf, (0, 0, 0)

    def step(self, before: CellField, after: CellField, dt: float, faces):
        r = self._transport.step(after, dt)
        M, part, s = self.M, self.part, len(self._dts)
        _antiderivative(r, self.grid.dv, M)
        i = int(M.argmin())
        if M.flat[i] < self.lowest:     # strict: ties keep the earliest step
            self.lowest, self.worst = M.flat[i], (s, *divmod(i, M.shape[1]))
        if s == len(self.pos):
            # grown by doubling: a small array kept per step would sit
            # between the step's large temporaries and fragment the heap
            grown = np.empty((max(16, 2 * s), M.shape[0]))
            grown[:s] = self.pos
            self.pos = grown
        np.maximum(M, 0.0, out=part).sum(axis=-1, out=self.pos[s])
        self.acc += np.multiply(dt, M, out=part)
        self._dts.append(dt)

    def finish(self) -> DefectMeasure:
        if not self._dts:
            raise ValueError("need at least one step")
        mesh, acc = self._transport.mesh, self.acc
        dts = np.array(self._dts, dtype=float)
        pos = self.pos[:dts.size] * self.grid.dv
        total = float((pos @ mesh.cell_area) @ dts)
        elapsed = float(dts.sum())
        weighted = _tent_windows(mesh, _TENTS_PER_AXIS[mesh.dim],
                                 _TENT_WIDTH) @ acc
        weighted /= elapsed
        negativity = float(max(0.0, -weighted.min()))
        edge = float(mesh.cell_area @ acc[:, -1]) / elapsed
        worst_step, worst_cell, worst_v = self.worst
        return DefectMeasure(negativity_score=negativity,
                             pointwise_negativity=float(max(0.0, -self.lowest)),
                             total_mass=total, edge_mass=edge,
                             worst_step=worst_step, worst_cell=worst_cell,
                             worst_v=worst_v)


def defect_measure(res: KineticResidual) -> DefectMeasure:
    """Summarize M in one pass over the steps: the run replayed into a
    :class:`DefectAudit`, with ``residual`` attached."""
    dm = _replay(res.traj.fields, [DefectAudit(res.flux, res.grid)])[0]
    dm.residual = res
    return dm


@dataclass
class NondegeneracyReport:
    """Largest velocity-fraction concentrated on any characteristic plane."""

    measure: float
    tol: float
    interval: tuple[float, float]
    worst_direction: np.ndarray
    v_samples: int
    flux_name: str


# midpoint velocity samples of the interval that the 1-D measure counts
_V_SAMPLES = 16_384


def nondegeneracy(flux, interval: tuple[float, float], tol: float = 1e-3,
                  seed: int | None = None) -> NondegeneracyReport:
    """Exact sup over unit (tau, xi) of |{v : |tau + xi . f'(v)| <= tol}| / |I|.

    ``seed`` is accepted and ignored.  In two or more dimensions tau = 0 with
    xi orthogonal to d zeroes the phase of f = phi d at every v: the flux
    moves states along d only and is degenerate (Lions-Perthame-Tadmor,
    J. AMS 7, 1994), measure 1.  So is any flux for tol >= 1, by (1, 0).
    In 1-D it is the largest fraction of the speeds s = d phi'(v) at
    ``_V_SAMPLES`` midpoints within tol sqrt(1 + c^2) of a c = -tau / xi.
    For tol < 1 both edges of that window rise with c, so a largest one has
    its left edge on a speed s_i: c_i is the larger root of
    (1 - tol^2) c^2 - 2 s_i c + s_i^2 - tol^2 = 0, the right edge
    2 c_i - s_i.  A genuinely nonlinear flux keeps the measure O(tol); a
    linear one reaches 1.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError("empty state interval")
    direction, measure = np.zeros(flux.dim + 1), 1.0
    if tol >= 1.0:
        direction[0] = 1.0
    elif flux.dim >= 2:
        d, xi = flux.direction, np.zeros(flux.dim)
        xi[:2] = -d[1], d[0]
        if not xi.any():        # d is off the first two axes, or 0
            xi[0] = 1.0
        direction[1:] = xi / np.linalg.norm(xi)
    else:
        def center(s, side):    # the c whose left (+1) or right (-1) edge is s
            return (s + side * tol * np.sqrt(s * s + 1.0 - tol * tol)) / (1.0 - tol * tol)

        v = lo + (np.arange(_V_SAMPLES) + 0.5) * (hi - lo) / _V_SAMPLES
        s = np.sort(flux.df(v)[:, 0])
        c = center(s, 1.0)
        counts = np.searchsorted(s, 2.0 * c - s, side="right") - np.arange(s.size)
        i = int(counts.argmax())
        measure = counts[i] / s.size
        # at c_i rounding can drop s_i from |tau + xi s| <= tol; halfway to
        # the c whose right edge is the last counted speed, both have margin
        mid = 0.5 * (c[i] + center(s[i + counts[i] - 1], -1.0))
        direction[:] = -mid, 1.0
        direction /= np.sqrt(1.0 + mid * mid)
    return NondegeneracyReport(measure=float(measure), tol=tol,
                               interval=(lo, hi), worst_direction=direction,
                               v_samples=_V_SAMPLES, flux_name=flux.name)

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

The audit streams: :class:`DefectAudit` takes one state at a time
(``defect_measure`` replays a kept trajectory into it) and evaluates the
steps between them in blocks of about ``_BUDGET`` window entries, each
block in one pass and only on per-cell velocity windows, outside which
the residual is exactly 0.  Every flux is phi(u) d, so a transport speed
f'(v_j) . n_e is the product of a face factor d . n_e and a velocity
factor phi'(v_j), formed per window entry; no (faces, n_v) table is kept.
The audit holds one (n_cells, n_v + 1) float table, the time-weighted
residual whose prefix sum in v is the time integral of M, one block, and
two floats per step: the step size and the area-weighted positive mass,
so ``total_mass`` is summed per step.  No dense (steps, cells, n_v) array
is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, _range_over
from .physics import FluxModel
from .scheme import CellField, Trajectory, _geometry, _replay

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
    def for_range(cls, lo: float, hi: float, n: int) -> "VGrid":
        """Grid covering [lo, hi] and the origin, padded 5 % on both sides.

        The origin must be inside because chi changes sign there.
        """
        a, b = min(0.0, float(lo)), max(0.0, float(hi))
        if b - a == 0.0:
            a, b = -0.5, 0.5
        width = b - a
        return cls(a - 0.05 * width, b + 0.05 * width, n)


def chi(v, alpha) -> np.ndarray:
    """Signed indicator chi(v | alpha); boundaries count as outside."""
    v = np.asarray(v, dtype=float)
    return _chi(v, v > 0.0, v < 0.0, np.asarray(alpha, dtype=float))


def _chi(v, pos, neg, alpha) -> np.ndarray:
    """:func:`chi` given the masks ``pos = v > 0`` and ``neg = v < 0``."""
    return ((pos & (v < alpha)).view(np.int8)
            - (neg & (v > alpha)).view(np.int8))


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


def _check_covers(grid: VGrid, u: np.ndarray) -> None:
    if grid.v_min > min(0.0, float(u.min())) or grid.v_max < max(0.0, float(u.max())):
        raise ValueError("velocity grid does not cover the field range and 0")


def lift(field: CellField, grid: VGrid) -> KineticDensity:
    _check_covers(grid, field.values)
    rho = chi(grid.centers[None, :], field.values[:, None])
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
    """A kept trajectory checked for the kinetic audit, with the flux and
    velocity grid to audit it on: the transport residual of step n is the
    (n_cells, n_v) array

        (rho^{n+1} - rho^n) / dt_n + (1 / |K|) sum_e |e| c rho_up

    with the speed c = f'(v_j) . n_e and rho_up the upwind copy of rho^n.
    :func:`defect_measure` evaluates it.  Built by :func:`kinetic_residual`.
    """

    traj: Trajectory
    flux: FluxModel
    grid: VGrid


@dataclass
class _Entries:
    """A block of consecutive steps' residuals on their windows.

    Busy row k is cell ``busy_cell[k]`` of step ``busy_step[k]``, whose
    window is not empty: the velocity indices [start[k], start[k] +
    size[k]).  The busy rows are in (step, cell) order.  Entry i is the
    residual ``r[i]`` at (``step[i]``, ``cell[i]``, ``v[i]``), in (step,
    cell, velocity) order, and ``M[i]`` its row's antiderivative at the
    upper edge of velocity cell ``v[i]``."""

    busy_step: np.ndarray
    busy_cell: np.ndarray
    start: np.ndarray
    size: np.ndarray
    step: np.ndarray
    cell: np.ndarray
    v: np.ndarray
    r: np.ndarray
    M: np.ndarray


class _Window:
    """The lifted transport residual of consecutive fields, evaluated only
    where it can be nonzero.

    In cell K the residual at v_j reads chi(v_j | .) of the cell's old and
    new value and of its face neighbours' old values.  Outside the hull of
    those values every one of them is the same rho in {-1, 0, 1} (chi's
    boundaries count as outside), so the residual there is rho W, with
    W = div(|e| c) / |K| from :meth:`Mesh.divergence`, whose row order
    :meth:`block`, the march and the entropy audit add face terms in.  W is
    exactly 0 on a 1-D mesh, whose cells' two faces carry the same flow; a
    cell whose W row is not widens its window to v = 0, beyond which
    rho = 0.  Only whether a row is 0 is kept, from W taken a chunk of
    velocity columns at a time.  So outside its window a cell's residual
    is exactly 0, and inside it :meth:`block` evaluates it, and its
    v-antiderivative, in the dense operation order.  The window keeps the
    speed c = f'(v_j) . n_e = (d . n_e) phi'(v_j) as its two factors,
    ``c_e = d . n_e`` per face (the projection the mesh caches for the
    solver) and ``dphi = phi'(v_j)`` per velocity.  The spatial flux terms
    telescope only on a fully periodic mesh, so any other is refused.
    """

    def __init__(self, flux, grid: VGrid, field0: CellField):
        mesh = field0.mesh
        _check_auditable(grid, field0)
        self.c_e, self.dphi = _geometry(mesh, flux)[0].c, flux.dphi(grid.centers)
        # W a chunk of velocity columns at a time: the divergence sums each
        # column alone, so each has the bits of the dense W
        widen = np.zeros(mesh.n_cells, dtype=bool)
        width = max(1, _BUDGET // mesh.n_faces)
        for j in range(0, grid.n, width):
            flow = mesh.face_length[:, None] * (self.c_e[:, None]
                                                * self.dphi[j:j + width])
            w = mesh.divergence(flow)
            w /= mesh.cell_area[:, None]
            widen |= w.any(axis=1)
        self.widen = widen
        self.mesh, self.grid, self.centers = mesh, grid, grid.centers

    def hull(self, u_old: np.ndarray, u_new: np.ndarray):
        """Each cell's window in the steps from the rows of ``u_old`` to
        those of ``u_new``, (n_steps, n_cells) arrays: its first velocity
        index and its size, each (n_steps, n_cells).  A ``u_new`` that the
        grid does not cover is refused.  The hull spans the cell's old and
        new value, its neighbours' old values, and 0 if its W row is not 0."""
        _check_covers(self.grid, u_new)
        lo, hi = _range_over(self.mesh.cell_neighbors, u_old)
        np.minimum(lo, u_new, out=lo)
        np.maximum(hi, u_new, out=hi)
        np.minimum(lo, 0.0, out=lo, where=self.widen)
        np.maximum(hi, 0.0, out=hi, where=self.widen)
        start = np.searchsorted(self.centers, lo)
        return start, np.searchsorted(self.centers, hi, "right") - start

    def block(self, u_old, u_new, dts, start, size) -> _Entries:
        """The residual and M of consecutive steps in one pass: the steps'
        fields and their :meth:`hull` as (n_steps, n_cells) arrays, and
        their sizes ``dts``."""
        mesh, centers = self.mesh, self.centers
        busy = np.flatnonzero(size)
        start, size = start.ravel()[busy], size.ravel()[busy]
        busy_step, busy_cell = np.divmod(busy, mesh.n_cells)
        step, cell = np.repeat(busy_step, size), np.repeat(busy_cell, size)
        v = np.repeat(start - np.cumsum(size) + size, size)
        v += np.arange(v.size)
        vc = centers[v]
        pos, neg = vc > 0.0, vc < 0.0
        r = (_chi(vc, pos, neg, u_new[step, cell])
             - _chi(vc, pos, neg, u_old[step, cell])) / dts[step]
        # the face terms one face slot at a time, in the row order of
        # Mesh.divergence: each entry's face, its speed c, its flow |e| c
        # and the upwind cell's rho
        div = np.zeros(v.size)
        for faces, signs in zip(mesh.cell_faces, mesh.cell_face_sign):
            face = faces[cell]
            c = self.c_e[face]
            c *= self.dphi[v]
            upwind = mesh.face_right[face]
            np.copyto(upwind, mesh.face_left[face], where=c >= 0.0)
            flow = mesh.face_length[face]
            flow *= c
            flow *= _chi(vc, pos, neg, u_old[step, upwind])
            flow *= signs[cell]
            div += flow
        div /= mesh.cell_area[cell]
        r += div
        # every per-entry temporary freed before _row_cumsum's buffer
        del vc, pos, neg, face, c, upwind, flow, div
        M = _row_cumsum(r, size)
        M *= self.grid.dv
        return _Entries(busy_step, busy_cell, start, size, step, cell, v,
                        r, M)


def _check_auditable(grid: VGrid, field0: CellField) -> None:
    if not field0.mesh.is_periodic:
        raise ValueError("kinetic transport audit needs a fully periodic mesh")
    _check_covers(grid, field0.values)


def kinetic_residual(traj: Trajectory, flux, grid: VGrid) -> KineticResidual:
    _check_auditable(grid, traj.fields[0])
    if len(traj) < 2:
        raise ValueError("need at least one step")
    return KineticResidual(traj=traj, flux=flux, grid=grid)


def _row_cumsum(values: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Running sums of the consecutive rows of ``values``, row k its next
    size[k] > 0 entries, each summed in order as np.cumsum sums that row
    padded with zeros.  Rows up to a width t are padded to t and the others
    to the widest, with t the width that pads least: a few wide windows
    then pad only each other."""
    widest = int(size.max(initial=0))
    narrow = np.cumsum(np.bincount(size, minlength=widest + 1))  # size <= t
    t = int(np.argmin(narrow * np.arange(widest + 1)
                      + (size.size - narrow) * widest))
    wide = size > t
    n_narrow = int(narrow[t])
    seen = np.cumsum(wide)                        # wide rows up to row k
    offset = np.where(wide, n_narrow * t + (seen - 1) * widest,
                      (np.arange(size.size) - seen) * t)
    end = np.cumsum(size)
    at = np.arange(values.size) + np.repeat(offset - (end - size), size)
    buf = np.zeros(n_narrow * t + (size.size - n_narrow) * widest)
    buf[at] = values
    for rows in (buf[:n_narrow * t].reshape(n_narrow, t),
                 buf[n_narrow * t:].reshape(size.size - n_narrow, widest)):
        np.cumsum(rows, axis=1, out=rows)
    return buf[at]


@dataclass
class DefectMeasure:
    """Summaries of M, the velocity antiderivative of the kinetic residual
    of every step and cell, zero at v_min.

    M approximates the defect density only in a distributional sense: an
    upwind step splits the defect of a jump sitting on a face into a
    positive part in one cell and a negative part in its neighbor, and
    per-step values carry O(dv/dt) quantization, so raw cell values at
    shocks grow like 1/h no matter how entropic the evolution is.  That raw undershoot is still reported as
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


# window entries per block of the defect audit, counting a step as its
# window entries or its cells, whichever are more.  On a 64-cell sign step,
# about 480 entries a step, a block is 8 steps
_BUDGET = 1 << 12


def _parts(weight, budget: int):
    """Split consecutive steps of these weights into runs that each weigh
    at most ``budget``, or are one step heavier than that alone."""
    first, held = 0, 0
    for k, w in enumerate(weight):
        if held + w > budget and k > first:
            yield first, k
            first, held = k, 0
        held += w
    yield first, len(weight)


class DefectAudit:
    """The :class:`DefectMeasure` of one run, fed ``start(field0)`` and then
    every field it reaches; ``finish()`` gives it.

    The steps are evaluated in blocks.  The fields are held, the last one
    carried into the next block, until a block has as many steps as fit in
    ``_BUDGET`` window entries at the heaviest step of the block before
    (one step for the first), or until ``finish``.  Then one pass takes the
    hulls of the whole block, and :meth:`_Window.block` its residual and M
    in parts that fit the budget, or are one step alone.  Both are formed
    on the windows only, so M, its minimum and the worst location are those
    of the dense arrays bit for bit; a part's first minimum replaces the
    run's only when strictly lower, so ties keep the earliest step.  A
    step's M is 0 below a window, dv times the running sum of r inside it
    and constant above it, so its time integral is the prefix sum in v of
    dt dv r.  The audit holds that one table, ``acc``, with r at the upper
    edge of its velocity cell, summed in v in place by ``finish``, and one
    block: O(n_cells * n_v) floats.  What grows with the run is two floats
    per step, its size and its area-weighted positive mass, so
    ``total_mass`` is summed per step.  ``finish`` integrates
    ``acc`` against the tents with ``np.einsum``, which sums each element
    over the cells in order: a BLAS product would add its packing buffers
    to the run's memory high, and its sums would depend on the BLAS build
    and its thread count.
    """

    def __init__(self, flux, grid: VGrid):
        self.flux, self.grid = flux, grid

    def start(self, field0: CellField):
        self._window = _Window(self.flux, self.grid, field0)
        n_cells, n_v = field0.mesh.n_cells, self.grid.n
        self.acc = np.zeros((n_cells, n_v + 1))
        self._mass, self._dts = [], []
        self.lowest, self.worst = 0.0, (0, 0, 0)
        self._fields, self._block_steps = [field0], 1

    def step(self, field: CellField, faces):
        self._fields.append(field)
        if len(self._fields) - 1 == self._block_steps:
            self._flush()

    def _flush(self):
        fields, self._fields = self._fields, self._fields[-1:]
        if len(fields) == 1:
            return
        u = np.array([f.values for f in fields])
        u_old, u_new, dts = u[:-1], u[1:], np.diff([f.t for f in fields])
        start, size = self._window.hull(u_old, u_new)
        weight = np.maximum(size.sum(axis=1), size.shape[1])
        self._block_steps = max(1, _BUDGET // int(weight.max()))
        for a, b in _parts(weight.tolist(), _BUDGET):
            self._add(self._window.block(u_old[a:b], u_new[a:b], dts[a:b],
                                         start[a:b], size[a:b]), dts[a:b])

    def _add(self, w: _Entries, dts: np.ndarray):
        n_v, first = self.grid.n, len(self._dts)
        # M is 0 outside the windows, so the run's minimum starts at M(v_min)
        # of cell 0 in step 0, and a lower one is in a window
        if w.M.size:
            i = int(w.M.argmin())
            if w.M[i] < self.lowest:
                self.lowest = w.M[i]
                self.worst = (first + int(w.step[i]), int(w.cell[i]),
                              int(w.v[i]) + 1)
        # above its window a cell's M stays at its last window value
        top = w.start + w.size
        last = w.M[np.cumsum(w.size) - 1]
        area = self._window.mesh.cell_area
        # the positive mass is summed step by step, each as one dot product
        bounds = np.arange(len(dts) + 1)
        entries = np.searchsorted(w.step, bounds).tolist()
        rows = np.searchsorted(w.busy_step, bounds).tolist()
        inside, outside = area[w.cell], area[w.busy_cell] * (n_v - top)
        up, up_last = np.maximum(w.M, 0.0), np.maximum(last, 0.0)
        for k in range(len(dts)):
            e, f = entries[k], entries[k + 1]
            b, c = rows[k], rows[k + 1]
            self._mass.append(float(inside[e:f] @ up[e:f]
                                    + outside[b:c] @ up_last[b:c]))
        # dt dv r at the upper edge of its velocity cell; np.add.at adds in
        # entry order, so each element's terms in step order
        np.add.at(self.acc.reshape(-1), w.cell * (n_v + 1) + w.v + 1,
                  (dts * self.grid.dv)[w.step] * w.r)
        self._dts.extend(dts.tolist())

    def finish(self) -> DefectMeasure:
        self._flush()
        if not self._dts:
            raise ValueError("need at least one step")
        mesh = self._window.mesh
        # the time integral of M, summed in v in place: finish is the
        # table's last use, and a copy would hold a second one
        acc = np.cumsum(self.acc, axis=1, out=self.acc)
        dts = np.array(self._dts, dtype=float)
        total = float(np.array(self._mass) @ dts) * self.grid.dv
        elapsed = float(dts.sum())
        # each element summed over the cells in order, without BLAS
        weighted = np.einsum("tk,kv->tv", _tent_windows(
            mesh, _TENTS_PER_AXIS[mesh.dim], _TENT_WIDTH), acc)
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
    :class:`DefectAudit`."""
    return _replay(res.traj.fields, [DefectAudit(res.flux, res.grid)])[0]


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

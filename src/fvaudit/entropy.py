"""Discrete entropy inequality audits for the Kruzkov family |u - k|.

For a monotone first-order scheme advanced by explicit Euler, each cell
update satisfies

    R_K(k) = |u_K' - k| - |u_K - k| + (dt / |K|) sum_e s_e |e| G_e(k) <= 0

(s_e = +1 on the faces K owns as left cell, -1 on the others) where G is
the clipped-state entropy flux built from the scheme's own numerical
flux g:

    G(a, b; k) = g(a v k, b v k) - g(a ^ k, b ^ k)

(v = max, ^ = min).  The inequality is an exact consequence of the update
being a monotone function of the participating states, so a conforming
solver must satisfy it to rounding, not merely to truncation order.  The
audits below take the face traces and g the step advanced with, assemble G
and report the largest positive residual; anything beyond rounding is a bug.

For the Lax-Friedrichs rule with locally chosen dissipation, the
coefficient is a function of the face states, so G must re-evaluate it at
the clipped states; freezing the coefficient computed from the unclipped
pair would break the exact inequality whenever k leaves the local hull.
With the global coefficient, G keeps the per-face coefficient the scheme
advanced the step with, widened only where a clipped pair degenerates to
(k, k) and the dissipation term vanishes.

Most (cell, k) pairs have k outside the cell's stencil hull [lo_K, hi_K],
the range of u_K, u_K' and the traces on the cell's faces.  There every
face has one clipped pair equal to (a, b) and the other equal to (k, k),
and a consistent flux has g(k, k) = f(k) . n = phi(k) c_e with
c_e = d . n_e (Crandall-Majda, Math. Comp. 34, 1980).  Summed over the
cell, as in the cell entropy inequalities on unstructured meshes of
Cockburn-Coquel-LeFloch (Math. Comp. 63, 1994), that gives

    R_K(k) = r_K - phi(k) C_K     for k <= lo_K,
    R_K(k) = phi(k) C_K - r_K     for k >= hi_K,

with the update's own residual r_K = u_K' - u_K + (dt / |K|) sum_e s_e |e| g_e
and the closure value C_K = (dt / |K|) sum_e s_e |e| c_e, both zero up to
rounding (C_K exactly zero on a uniform 1-D mesh).  The largest of these
values over the k grid sits at the smallest or largest phi(k) of the
range, which prefix and suffix extremes of phi over the sorted grid and one
``searchsorted`` per cell give.  Only the pairs with k strictly inside the
hull are assembled face by face, and on those faces only the k strictly
inside the face's own hull go through :func:`numerical_entropy_flux`.  A
step therefore costs O(faces + cells log n_k + in-hull pairs), not
O(faces n_k).

:class:`EntropyAudit` evaluates blocks of consecutive steps at once,
the step index the trailing axis of every per-face and per-cell array:
phi(k) with its prefix and suffix extremes and sum_e s_e |e| c_e are
computed once per run, each step's face record is kept as it arrives, and
the in-hull pairs in chunks.  Every operation is elementwise, so a step
has the same bits in any block.  The worst step is evaluated again as a
block of its own, from the fields and face record it advanced with, to
find the first (k, cell) of its largest residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import (CellField, SchemeConfig, numerical_flux, state_range,
                     _checked_lf, _face_record, _geometry, _replay)

__all__ = [
    "EntropyAuditReport",
    "EntropyAudit",
    "EFluxReport",
    "numerical_entropy_flux",
    "run_entropy_audit",
    "kruzkov_k_grid",
    "check_e_flux",
]


def numerical_entropy_flux(rule: str, flux, k, a, b, n, lam=None) -> np.ndarray:
    """Clipped-state entropy flux G(a, b; k) for the Kruzkov entropy |u - k|.

    ``lam`` mirrors :func:`numerical_flux`: for ``lax_friedrichs`` pass an
    explicit coefficient covering the (a, b) hull, or ``None`` to let each
    clipped pair choose its own local coefficient.  An explicit coefficient
    is widened where a clipped pair degenerates to equal states outside the
    hull; the dissipation term vanishes there, so the value is unchanged
    and only the wave-speed precondition is kept satisfiable for every k.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k, dtype=float)
    # the top clipped pair and the bottom one, stacked on a leading axis
    # so that one flux evaluation serves both
    sa = np.empty((2,) + np.broadcast_shapes(a.shape, k.shape))
    sb = np.empty((2,) + np.broadcast_shapes(b.shape, k.shape))
    for s, u in ((sa, a), (sb, b)):
        np.maximum(u, k, out=s[0, ...])
        np.minimum(u, k, out=s[1, ...])
    sn = np.asarray(n, dtype=float)[None]
    if rule == "lax_friedrichs" and lam is None:
        lam = flux.max_wave_speed(sa, sb, sn)
    elif rule == "lax_friedrichs":
        lam = np.maximum(_checked_lf(flux, lam, a, b, n),
                         flux.max_wave_speed(sa, sb, sn))
    g = numerical_flux(rule, flux, sa, sb, sn, lam)
    return g[0] - g[1]


# element budget of one block: the audit evaluates _BLOCK // n_faces steps
# at once, the in-hull (cell, k) pairs go through the face table
# _BLOCK // width at a time, and :func:`_first_max` expands _BLOCK
# residuals at a time while it looks for the first maximum
_BLOCK = 1 << 14


def _phi_extremes(phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Prefix minima and maxima of phi over the sorted k grid, then suffix
    minima and maxima."""
    return (np.minimum.accumulate(phi), np.maximum.accumulate(phi),
            np.minimum.accumulate(phi[::-1])[::-1],
            np.maximum.accumulate(phi[::-1])[::-1])


def _affine_max(extremes, r, C, below, above) -> np.ndarray:
    """Largest out-of-hull residual of each cell, elementwise over arrays of
    one shape: r - phi(k) C over the sorted positions before ``below``,
    phi(k) C - r from ``above`` on, -inf where there are none.

    Both are monotone in phi(k), also after rounding, so the largest sits
    at the smallest or largest phi of the range: a prefix or suffix extreme.
    """
    lo, hi, lo_suffix, hi_suffix = extremes
    n_k = lo.size
    j = np.maximum(below - 1, 0)
    best = np.where(below > 0, r - np.where(C > 0.0, lo[j], hi[j]) * C, -np.inf)
    j = np.minimum(above, n_k - 1)
    return np.maximum(best, np.where(
        above < n_k, np.where(C > 0.0, hi_suffix[j], lo_suffix[j]) * C - r,
        -np.inf))


def _fold_hull(best: np.ndarray, group: np.ndarray, value: np.ndarray):
    """Raise ``best.flat[g]`` to the largest ``value`` of the pairs of group
    g, for pairs listed group by group."""
    if group.size:
        first = np.flatnonzero(np.diff(group, prepend=-1))
        g = group[first]
        flat = best.reshape(-1)
        flat[g] = np.maximum(flat[g], np.maximum.reduceat(value, first))


class _Kernel:
    """The residual evaluation shared by every step of one run: the sorted
    k grid, phi on it with its prefix and suffix extremes, and the closure
    sums sum_e s_e |e| c_e per cell."""

    def __init__(self, mesh, flux, config: SchemeConfig, k):
        self.mesh, self.flux, self.config = mesh, flux, config
        self.global_lf = (config.flux_rule == "lax_friedrichs"
                          and config.lf_dissipation_mode == "global")
        self.k = np.atleast_1d(np.asarray(k, dtype=float))
        order = np.argsort(self.k, kind="stable")
        self.ks = self.k[order]
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(order.size)
        # data that overflows phi overflows the step, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            self.phi = flux.phi(self.ks)
        self.extremes = _phi_extremes(self.phi)
        self.face, _ = _geometry(mesh, flux)      # c = d . n per face
        self.closure_sum = mesh.divergence(mesh.face_length * self.face.c)

    def records(self, n_steps: int) -> list:
        """(faces, n_steps) arrays for a, b, g and, under global LF only, lam."""
        shape = (self.mesh.n_faces, n_steps)
        return [np.empty(shape) if i < 3 or self.global_lf else None
                for i in range(4)]

    def keep(self, records: list, s: int, before: CellField, faces):
        """Write the step's face record ``faces`` to column ``s``.  A replay
        has none, and passes None to rebuild it from ``before``."""
        if faces is None:
            faces = _face_record(self.mesh, self.flux, self.config, before.values)
        for out, x in zip(records, faces):
            if out is not None:
                out[:, s] = x


class _Block:
    """Sparse-plus-affine residuals of the B steps between consecutive
    ``fields``, the step index the trailing axis of every (faces, B) and
    (cells, B) array.

    ``r``, ``closure``, ``below`` and ``above`` are (cells, B);
    :meth:`hull_chunks` yields the in-hull pairs with their residuals.  A
    pair's group is ``cell * B + step``.
    """

    def __init__(self, kernel: _Kernel, fields, dt: np.ndarray, records):
        mesh = kernel.mesh
        if any(f.mesh is not mesh for f in fields):
            raise ValueError("before and after live on different meshes")
        if not np.all(dt > 0.0):
            raise ValueError("dt must be positive")
        self.kernel, self.dt = kernel, dt
        self.a, self.b, self.g, self.lam = (
            None if x is None else x[:, :dt.size] for x in records)
        u = np.stack([f.values for f in fields], axis=1)
        self.u, self.u_new = u[:, :-1], u[:, 1:]

        # (dt / |K|) sum_e s_e |e| v_e for v = c and v = g
        area = mesh.cell_area[:, None]
        self.closure = kernel.closure_sum[:, None] * dt
        self.closure /= area
        div = mesh.divergence(mesh.face_length[:, None] * self.g)
        div *= dt
        div /= area
        self.r = (self.u_new - self.u) + div

        # stencil hull: u, u' and the traces of the cell's faces (pads skipped)
        self.face_lo = np.minimum(self.a, self.b)
        self.face_hi = np.maximum(self.a, self.b)
        faces, real = mesh.cell_faces, (mesh.cell_face_sign != 0.0)[..., None]
        lo = np.minimum(np.minimum(self.u, self.u_new), self.face_lo[faces].min(
            axis=0, initial=np.inf, where=real))
        hi = np.maximum(np.maximum(self.u, self.u_new), self.face_hi[faces].max(
            axis=0, initial=-np.inf, where=real))
        self.below = np.searchsorted(kernel.ks, lo, "right")   # k <= lo before it
        self.above = np.maximum(np.searchsorted(kernel.ks, hi, "left"),
                                self.below)                     # k >= hi from it

    def cell_max(self) -> np.ndarray:
        """Largest residual of each cell and step over every k, (cells, B)."""
        best = _affine_max(self.kernel.extremes, self.r, self.closure,
                           self.below, self.above)
        for group, _, value in self.hull_chunks():
            _fold_hull(best, group, value)
        return best

    def hull_chunks(self):
        """(group, sorted k position, residual) of the pairs with k strictly
        inside the hull, group by group, at most _BLOCK // width at a time;
        one empty chunk when there are none."""
        kernel, mesh = self.kernel, self.kernel.mesh
        ks, phi, c = kernel.ks, kernel.phi, kernel.face.c
        rule, n_steps = kernel.config.flux_rule, self.dt.size
        faces = mesh.cell_faces
        count = (self.above - self.below).reshape(-1)
        below = self.below.reshape(-1)
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        size = max(1, _BLOCK // faces.shape[0])
        for start in range(0, max(total, 1), size):
            pair = np.arange(start, min(start + size, total))
            group = np.searchsorted(ends, pair, "right")
            kpos = pair - (ends[group] - count[group]) + below[group]
            cell, s = np.divmod(group, n_steps)

            # G on every face of the cell: the clipped flux where k is also
            # strictly inside the face hull, else the consistent form
            f, kk = faces[:, cell], ks[kpos]
            face_lo, face_hi = self.face_lo[f, s], self.face_hi[f, s]
            G = phi[kpos] * c[f] - self.g[f, s]
            np.negative(G, out=G, where=kk <= face_lo)
            inside = (face_lo < kk) & (kk < face_hi)
            e = f[inside]
            j = np.broadcast_to(kpos, f.shape)[inside]
            t = np.broadcast_to(s, f.shape)[inside]
            G[inside] = numerical_entropy_flux(
                rule, kernel.flux, ks[j], self.a[e, t], self.b[e, t],
                mesh.face_normal[e], None if self.lam is None else self.lam[e, t])
            G *= mesh.face_length[f]
            G *= mesh.cell_face_sign[:, cell]
            div = np.zeros(pair.size)
            for row in G:                # table order, as in Mesh.divergence
                div += row
            value = np.abs(self.u_new[cell, s] - kk)
            value -= np.abs(self.u[cell, s] - kk)
            value += self.dt[s] * div / mesh.cell_area[cell]
            yield group, kpos, value


def _first_max(block: _Block) -> tuple[int, int]:
    """(k index, cell) of the largest residual of a one-step block, the
    first in (k in the order given, cell) order.  The residuals of the cells
    that attain it are expanded _BLOCK at a time, k by k."""
    kernel = block.kernel
    r, C, below, above = (x[:, 0] for x in (block.r, block.closure,
                                            block.below, block.above))
    # one step, so a pair's group is its cell
    hull_cell, hull_k, hull_value = (np.concatenate(part)
                                     for part in zip(*block.hull_chunks()))
    best = _affine_max(kernel.extremes, r, C, below, above)
    _fold_hull(best, hull_cell, hull_value)
    top = best.max()

    def at_top(x):           # a nan maximum is the first nan, as in numpy
        return np.isnan(x) if np.isnan(top) else x == top

    cells = np.flatnonzero(at_top(best))
    col = np.full(r.size, -1)
    col[cells] = np.arange(cells.size)
    j = col[hull_cell]
    rows = max(1, _BLOCK // cells.size)
    for start in range(0, kernel.rank.size, rows):
        pos = kernel.rank[start:start + rows]   # sorted positions of these k
        phic = kernel.phi[pos][:, None] * C[cells]
        out = np.where(pos[:, None] < below[cells], r[cells] - phic,
                       phic - r[cells])
        row = np.full(kernel.phi.size, -1)
        row[pos] = np.arange(pos.size)
        i = row[hull_k]
        kept = (i >= 0) & (j >= 0)
        out[i[kept], j[kept]] = hull_value[kept]
        hit = np.flatnonzero(at_top(out))
        if hit.size:
            ik, jc = divmod(int(hit[0]), cells.size)
            return start + ik, int(cells[jc])
    raise ValueError("no residual attains the maximum")


def kruzkov_k_grid(lo: float, hi: float, n: int = 33, extra=()) -> np.ndarray:
    """Uniform k grid over [lo, hi] plus any extra states, deduplicated."""
    if not n >= 2:
        raise ValueError("need at least two grid points")
    if hi < lo:
        raise ValueError("empty state range")
    if not np.isfinite([lo, hi]).all():
        raise ValueError("state range must be finite")
    # np.unique's algorithm, without the numpy.ma import its first call makes
    k = np.sort(np.concatenate([np.linspace(lo, hi, n),
                                np.asarray(extra, dtype=float).ravel()]))
    return k[np.concatenate(([True], k[1:] != k[:-1]))]


@dataclass
class EntropyAuditReport:
    """Worst positive entropy residual over a whole trajectory.

    ``worst_step``, ``worst_cell`` and ``worst_k`` locate the largest
    residual of the run (step -1, cell -1 and k nan when it has no steps).
    """

    per_step: np.ndarray
    k_grid: np.ndarray
    worst: float
    tol: float
    passed: bool
    worst_step: int = -1
    worst_cell: int = -1
    worst_k: float = float("nan")


class EntropyAudit:
    """The cell entropy audit of one run, fed ``start(field0)`` and then
    every field it reaches; ``finish()`` gives the :class:`EntropyAuditReport`.

    Steps are evaluated _BLOCK // n_faces at a time.  Besides that block it
    keeps one value per step and, of the worst step so far, its two fields
    and a copy of its face record, so that ``finish`` can locate the
    maximum in that step alone.
    """

    def __init__(self, flux, config: SchemeConfig, k_grid, tol: float = 1e-12):
        self.flux, self.config, self.tol = flux, config, tol
        self.k_grid = np.asarray(k_grid, dtype=float)

    def start(self, field0: CellField):
        self._kernel = _Kernel(field0.mesh, self.flux, self.config, self.k_grid)
        self._size = max(1, _BLOCK // field0.mesh.n_faces)
        self._fields, self._per_step = [field0], []
        self._top, self._worst = -np.inf, None

    def step(self, field: CellField, faces):
        held = len(self._fields) - 1
        if not held:    # a block's arrays are its own, held with it
            self._records = self._kernel.records(self._size)
        self._kernel.keep(self._records, held, self._fields[-1], faces)
        self._fields.append(field)
        if held + 1 == self._size:
            self._evaluate()

    def _evaluate(self):
        fields, self._fields = self._fields, self._fields[-1:]
        if len(fields) == 1:
            return
        # the last block stays referenced until the next one is built, so
        # that it allocates while the memory is held; freed first, it would
        # go back to the system and be paged in again for every block
        self._block = block = _Block(self._kernel, fields,
                                     np.diff([f.t for f in fields]),
                                     self._records)
        first, worst = len(self._per_step), None
        for i, m in enumerate(block.cell_max().max(axis=0).tolist()):
            self._per_step.append(max(m, 0.0))
            if m > self._top:
                self._top, worst = m, i
        if worst is not None:
            self._worst = (first + worst, fields[worst:worst + 2],
                           [None if x is None else x[:, worst:worst + 1].copy()
                            for x in self._records])

    def finish(self) -> EntropyAuditReport:
        self._evaluate()
        per_step = np.array(self._per_step, dtype=float)
        ks = self._kernel.k
        where = (-1, -1, float("nan"))
        if self._worst is not None:
            s, fields, records = self._worst
            ik, cell = _first_max(_Block(self._kernel, fields,
                                         np.diff([f.t for f in fields]), records))
            where = (s, cell, float(ks[ik]))
        worst = float(per_step.max()) if per_step.size else 0.0
        return EntropyAuditReport(per_step=per_step, k_grid=self.k_grid,
                                  worst=worst, tol=self.tol,
                                  passed=bool(worst <= self.tol),
                                  worst_step=where[0], worst_cell=where[1],
                                  worst_k=where[2])


def run_entropy_audit(traj, flux, config: SchemeConfig, k_grid=None,
                      tol: float = 1e-12) -> EntropyAuditReport:
    """Check the cell entropy inequality on every accepted step of a run,
    by feeding its fields to an :class:`EntropyAudit`."""
    if k_grid is None:
        k_grid = kruzkov_k_grid(*state_range(traj))
    return _replay(traj.fields, [EntropyAudit(flux, config, k_grid, tol)])[0]


@dataclass
class EFluxReport:
    """Result of sampling the E-flux inequality sgn(b-a) (g - f(w).n) <= 0."""

    rule: str
    flux_name: str
    samples: int
    worst_violation: float
    worst_case: tuple  # (a, b, w, normal)
    passed: bool


def check_e_flux(rule: str, flux, n_samples: int = 10_000,
                 seed: int = 0) -> EFluxReport:
    """Check the E-flux property of a two-point rule on sampled trace pairs.

    Draws random trace pairs in (-1.5, 1.5) and unit normals and records the
    largest violation of sgn(b - a) (g(a, b, n) - f(w) . n) <= 0 over the
    states w in [a ^ b, a v b], exactly: the worst f(w) . n is Osher's
    extremum ``FluxModel.interval_extremum(a, b, n)``.  The check passes
    when that violation is at most 1e-12.
    A few adversarial fixed pairs are appended to the random draw so the
    undissipated central rule fails deterministically.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.5, 1.5, n_samples)
    b = rng.uniform(-1.5, 1.5, n_samples)
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

    sgn = np.sign(b - a)
    viol = sgn * (g - flux.interval_extremum(a, b, normals))
    i = int(viol.argmax())
    worst = float(viol[i]) + 0.0        # a tie at zero reads 0, not -0
    w = np.array([np.minimum(a[i], b[i]), np.maximum(a[i], b[i])])
    w = np.concatenate([w, np.clip(flux.critical_points, *w)])
    j = int((sgn[i] * (g[i] - flux.fn(w, normals[i]))).argmax())
    case = (float(a[i]), float(b[i]), float(w[j]), normals[i].copy())
    return EFluxReport(rule=rule, flux_name=flux.name, samples=len(a),
                       worst_violation=worst, worst_case=case,
                       passed=bool(worst <= 1e-12))

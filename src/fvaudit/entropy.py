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

:class:`EntropyAudit` evaluates blocks of consecutive steps at once, in
one :class:`_Block` per run.  It computes phi(k) with its prefix and
suffix extremes and sum_e s_e |e| c_e once, and writes each step's fields
and face record as they arrive into rows allocated once per run: step s
is row s of every per-face and per-cell array.  A block is evaluated in
new temporaries: the hull ranks, then r and C, freed once the
out-of-hull maxima are taken, then the in-hull pairs in chunks.  So the
in-hull pass holds the rows, the ranks and the per-cell maxima ``best``,
but no r or C.  Every operation is elementwise or a gather, so a step has
the same bits in any block.  A block that sets a new largest residual
locates its first (k, cell) at once, from the step's row of ``best``:
only the cells that attain the maximum are expanded, one k at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import (CellField, SchemeConfig, numerical_flux, state_range,
                     _checked_lf, _face_record, _geometry, _global_lf, _replay)

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
# at once, and the in-hull (cell, k) pairs go through the face table
# _BLOCK // 8 // width at a time.  A chunk's two dozen temporaries are
# freed and taken again chunk after chunk; at an eighth of the block's
# budget they stay far below the block's arrays (at _BLOCK // width,
# study_1d's peak was 0.25 MB higher)
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
    falling = ~(C > 0.0)
    j = np.maximum(below - 1, 0)
    best = np.take(lo, j, mode="clip")
    np.copyto(best, np.take(hi, j, mode="clip"), where=falling)
    best *= C
    np.subtract(r, best, out=best)
    np.copyto(best, -np.inf, where=below <= 0)
    j = np.minimum(above, n_k - 1)
    x = np.take(hi_suffix, j, mode="clip")
    np.copyto(x, np.take(lo_suffix, j, mode="clip"), where=falling)
    x *= C
    x -= r
    np.copyto(x, -np.inf, where=above >= n_k)
    return np.maximum(best, x, out=best)


def _fold_hull(best: np.ndarray, group: np.ndarray, value: np.ndarray):
    """Raise ``best.flat[g]`` to the largest ``value`` of the pairs of group
    g, for pairs listed group by group."""
    if group.size:
        starts = np.empty(group.size, dtype=bool)
        starts[0] = True
        np.not_equal(group[1:], group[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        g = group[first]
        flat = best.reshape(-1)
        flat[g] = np.maximum(flat[g], np.maximum.reduceat(value, first))


class _Block:
    """Sparse-plus-affine residuals of up to ``size`` consecutive steps of
    one run on the k grid ``k``, with what every step shares: the sorted
    grid, phi on it with its prefix and suffix extremes, the closure sums
    sum_e s_e |e| c_e per cell and s_e |e| on the incidence table.

    Every per-step array keeps the rows the steps arrive in, step s as row
    s.  :meth:`put` writes the cell values after step s into row s + 1 of
    ``fields`` (row s holds those before it), their time into ``times``
    and into row s of each of ``records`` the face traces a and b, the flux
    g and, under global Lax-Friedrichs only, the coefficient step s advanced
    with; these rows are allocated once per run.  :meth:`evaluate` keeps
    views of the B steps held and their hull ranks ``below`` and ``above``,
    (B, cells) arrays new for every block.  :meth:`residual` forms r and the
    closure values of the rows asked, and :meth:`hull_chunks` yields the
    in-hull pairs of a range of rows with their residuals; a pair's group
    is ``step * cells + cell``, counted from the first row of the range.
    """

    def __init__(self, mesh, flux, config: SchemeConfig, k, size: int):
        self.mesh, self.flux, self.config = mesh, flux, config
        self.k = np.atleast_1d(np.asarray(k, dtype=float))
        order = np.argsort(self.k, kind="stable")
        self.ks = self.k[order]
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(order.size)
        # data that overflows phi overflows the step, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            self.phi = flux.phi(self.ks)
        self.extremes = _phi_extremes(self.phi)
        self.c = _geometry(mesh, flux)[0].c          # c = d . n per face
        self.closure_sum = mesh.divergence(mesh.face_length * self.c)
        self.real = mesh.cell_face_sign != 0.0     # pads skipped
        self.signed_length = mesh.cell_face_sign * mesh.face_length[mesh.cell_faces]
        self.size, self.n = size, 0
        self.records = [np.empty((size, mesh.n_faces)) if i < 3
                        or _global_lf(config) else None for i in range(4)]
        self.fields, self.times = np.empty((size + 1, mesh.n_cells)), np.empty(size + 1)

    def begin(self, field: CellField):
        """Start a block from ``field``, the values before its first step."""
        self.fields[0], self.times[0], self.n = field.values, field.t, 0

    def put(self, after: CellField, faces):
        """Hold the step from the last field held to ``after`` and the face
        record ``faces`` it advanced with.  A replay has none, and passes
        None to rebuild it from the last field held."""
        s = self.n
        if after.mesh is not self.mesh:
            raise ValueError("the fields of the run live on different meshes")
        if faces is None:
            faces = _face_record(self.mesh, self.flux, self.config, self.fields[s])
        for out, x in zip(self.records, faces):
            if out is not None:
                out[s] = x
        self.fields[s + 1], self.times[s + 1], self.n = after.values, after.t, s + 1

    def evaluate(self):
        """Views of the steps held, in their rows: dt, the records and the
        fields before and after each step, and the hull's sorted k ranks."""
        n = self.n
        self.dt = dt = self.times[1:n + 1] - self.times[:n]
        if not np.all(dt > 0.0):
            raise ValueError("dt must be positive")
        self.a, self.b, self.g, self.lam = (None if x is None else x[:n]
                                            for x in self.records)
        self.u, self.u_new = self.fields[:n], self.fields[1:n + 1]
        # k <= lo before below, k >= hi from above
        self.below, self.above = (self._ranks(np.minimum, "right"),
                                  self._ranks(np.maximum, "left"))
        np.maximum(self.above, self.below, out=self.above)

    def _ranks(self, extreme, side: str) -> np.ndarray:
        """Sorted k ranks of one bound of the stencil hull: the ``extreme``
        of u, u' and the traces of the cell's faces (pads skipped)."""
        rows = extreme(self.u, self.u_new)
        for cell_faces, real in zip(self.mesh.cell_faces, self.real):
            for x in (self.a, self.b):
                extreme(rows, np.take(x, cell_faces, 1, mode="clip"),
                        out=rows, where=real)
        return np.searchsorted(self.ks, rows, side)

    def residual(self, rows=slice(None)):
        """(r, closure) of the steps held in ``rows`` (all by default): the
        update's own residual u' - u + (dt / |K|) sum_e s_e |e| g_e and
        (dt / |K|) sum_e s_e |e| c_e, the former added an incidence row at a
        time, as Mesh.divergence and hull_chunks add."""
        mesh, dt = self.mesh, self.dt[rows, None]
        closure = dt * self.closure_sum
        closure /= mesh.cell_area
        r = np.zeros(closure.shape)
        for cell_faces, weight in zip(mesh.cell_faces, self.signed_length):
            r += np.take(self.g[rows], cell_faces, -1, mode="clip") * weight
        r *= dt
        r /= mesh.cell_area
        r += self.u_new[rows] - self.u[rows]                 # u' - u + div
        return r, closure

    def carry(self):
        """Start the next block from the last field held."""
        n = self.n
        self.fields[0], self.times[0], self.n = self.fields[n], self.times[n], 0

    def cell_max(self) -> np.ndarray:
        """Largest residual of each step and cell over every k, (B, cells).
        r and the closure values are freed before the in-hull pass."""
        best = _affine_max(self.extremes, *self.residual(), self.below, self.above)
        for group, _, value in self.hull_chunks():
            _fold_hull(best, group, value)
        return best

    def hull_chunks(self, first: int = 0, last: int | None = None):
        """(group, sorted k position, residual) of the pairs of rows
        ``first`` to ``last`` (all by default) with k strictly inside the
        hull, group by group, at most _BLOCK // 8 // width at a time; one
        empty chunk when there are none."""
        mesh, ks, phi, c = self.mesh, self.ks, self.phi, self.c
        rule, faces = self.config.flux_rule, mesh.cell_faces
        below, above = self.below[first:last], self.above[first:last]
        count = np.subtract(above, below).reshape(-1)
        below = below.reshape(-1)
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        size = max(1, _BLOCK // 8 // faces.shape[0])
        for start in range(0, max(total, 1), size):
            pair = np.arange(start, min(start + size, total))
            group = np.searchsorted(ends, pair, "right")
            kpos = pair - (ends[group] - count[group]) + below[group]
            s, cell = np.divmod(group, mesh.n_cells)
            s += first

            # G on every face of the cell: the clipped flux where k is also
            # strictly inside the face hull, else the consistent form
            f, kk = faces[:, cell], ks[kpos]
            a, b = self.a[s, f], self.b[s, f]
            face_lo = np.minimum(a, b)
            G = phi[kpos] * c[f] - self.g[s, f]
            np.negative(G, out=G, where=kk <= face_lo)
            row, col = np.nonzero((face_lo < kk) & (kk < np.maximum(a, b)))
            e, t = f[row, col], s[col]
            G[row, col] = numerical_entropy_flux(
                rule, self.flux, kk[col], a[row, col], b[row, col],
                mesh.face_normal[e], None if self.lam is None else self.lam[t, e])
            G *= mesh.face_length[f]
            G *= mesh.cell_face_sign[:, cell]
            div = np.zeros(pair.size)
            for row in G:                # table order, as in Mesh.divergence
                div += row
            value = np.abs(self.u_new[s, cell] - kk)
            value -= np.abs(self.u[s, cell] - kk)
            value += self.dt[s] * div / mesh.cell_area[cell]
            yield group, kpos, value


def _first_max(block: _Block, s: int, best: np.ndarray) -> tuple[int, int]:
    """(k index, cell) of the largest residual of row ``s`` of an evaluated
    block, the first in (k in the order given, cell) order, from ``best``,
    that row of :meth:`_Block.cell_max`.  Only the cells that attain the
    maximum are expanded, one k at a time."""
    top = best.max()
    is_top = best == top
    cells = np.flatnonzero(is_top)
    r, C = (x[cells] for x in block.residual(s))
    below = block.below[s, cells]
    # their in-hull pairs; one row, so a pair's group is its cell
    cell, kpos, value = (np.concatenate(part)
                         for part in zip(*block.hull_chunks(s, s + 1)))
    kept = is_top[cell]
    col = (np.cumsum(is_top) - 1)[cell[kept]]    # the cell's place in cells
    kpos, value = kpos[kept], value[kept]
    for ik, pos in enumerate(block.rank.tolist()):  # sorted position of k ik
        phic = block.phi[pos] * C
        out = np.where(pos < below, r - phic, phic - r)
        inside = kpos == pos
        out[col[inside]] = value[inside]
        hit = np.flatnonzero(out == top)
        if hit.size:
            return ik, int(cells[hit[0]])
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

    Steps are evaluated _BLOCK // n_faces at a time, in one :class:`_Block`
    whose rows for the arriving steps are allocated once per run, so the
    audit holds those rows, one block's temporaries and one chunk of
    in-hull pairs.  Besides the block it keeps one value per step and the
    step, cell and k of the largest residual so far, located in the block
    that sets it from a copy of that step's row of the per-cell maxima,
    taken before the (B, cells) maxima are dropped.
    """

    def __init__(self, flux, config: SchemeConfig, k_grid, tol: float = 1e-12):
        self.flux, self.config, self.tol = flux, config, tol
        self.k_grid = np.asarray(k_grid, dtype=float)

    def start(self, field0: CellField):
        mesh = field0.mesh
        self._block = _Block(mesh, self.flux, self.config, self.k_grid,
                             max(1, _BLOCK // mesh.n_faces))
        self._block.begin(field0)
        self._per_step, self._top = [], -np.inf
        self._worst = (-1, -1, float("nan"))

    def step(self, field: CellField, faces):
        self._block.put(field, faces)
        if self._block.n == self._block.size:
            self._evaluate()

    def _evaluate(self):
        block = self._block
        if not block.n:
            return
        block.evaluate()
        best = block.cell_max()
        first, worst = len(self._per_step), None
        for i, m in enumerate(best.max(axis=1).tolist()):
            self._per_step.append(max(m, 0.0))
            if m > self._top:
                self._top, worst = m, i
        if worst is not None:
            best = best[worst].copy()       # the (B, cells) array goes
            ik, cell = _first_max(block, worst, best)
            self._worst = (first + worst, cell, float(block.k[ik]))
        block.carry()

    def finish(self) -> EntropyAuditReport:
        self._evaluate()
        per_step = np.array(self._per_step, dtype=float)
        worst = float(per_step.max()) if per_step.size else 0.0
        step, cell, k = self._worst
        return EntropyAuditReport(per_step=per_step, k_grid=self.k_grid,
                                  worst=worst, tol=self.tol,
                                  passed=bool(worst <= self.tol),
                                  worst_step=step, worst_cell=cell, worst_k=k)


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
    tol: float = 1e-12  # the largest violation that passes


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
                       passed=bool(worst <= EFluxReport.tol))

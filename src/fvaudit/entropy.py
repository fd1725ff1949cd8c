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
audits below recompute the face traces, assemble G and report the largest
positive residual; anything beyond rounding noise is a solver bug.

For the Lax-Friedrichs rule with locally chosen dissipation, the
coefficient is a function of the face states, so G must re-evaluate it at
the clipped states; freezing the coefficient computed from the unclipped
pair would break the exact inequality whenever k leaves the local hull.

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
O(faces n_k).  Under Lax-Friedrichs with the global coefficient, lambda
depends on k, so r_K is affine in lambda_k and the audit forms one
(n_k, cells) array of r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scheme import (CellField, ConfigurationError, SchemeConfig,
                     numerical_flux, state_range, _face_flux,
                     _face_states)

__all__ = [
    "EntropyResidualField",
    "EntropyAuditReport",
    "EFluxReport",
    "numerical_entropy_flux",
    "entropy_residuals",
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
        lam = np.asarray(lam, dtype=float)
        bound = flux.max_wave_speed(a, b, n)
        if np.any(lam < bound * (1.0 - 1e-12) - 1e-13):
            raise ConfigurationError(
                "LF dissipation coefficient is below the local wave speed")
        lam = np.maximum(lam, flux.max_wave_speed(sa, sb, sn))
    g = numerical_flux(rule, flux, sa, sb, sn, lam)
    return g[0] - g[1]


# element budget of one block of rows that :meth:`EntropyResidualField.argmax`
# expands while it looks for the first maximum
_BLOCK = 1 << 14


@dataclass
class EntropyResidualField:
    """Per-cell entropy residuals for one step and a set of k values.

    The residuals are kept in the sparse-plus-affine form of the module
    docstring: the per-cell update residual ``r`` and closure value
    ``closure`` (C), the sorted-grid positions ``below``/``above`` where
    each cell's stencil hull starts and ends, and the residuals of the
    (cell, k) pairs inside the hull.  ``residual`` expands them to shape
    (n_k, n_cells), or (n_cells,) for a scalar k, each time it is read,
    which costs O(n_k x n_cells); :meth:`max` and :meth:`argmax` give its
    maximum and first row-major location without that array.  Positive
    entries violate the inequality.
    """

    k: np.ndarray | float
    dt: float
    h: float
    phi: np.ndarray = field(repr=False)      # phi(k) on the sorted k grid
    rank: np.ndarray = field(repr=False)     # sorted position of each k
    r: np.ndarray = field(repr=False)        # (n_cells,), (n_k, n_cells) for global LF
    closure: np.ndarray = field(repr=False)  # (n_cells,)
    below: np.ndarray = field(repr=False)    # sorted positions < below: k <= hull
    above: np.ndarray = field(repr=False)    # sorted positions >= above: k >= hull
    hull_cell: np.ndarray = field(repr=False)   # in-hull pairs, in (cell, k) order
    hull_k: np.ndarray = field(repr=False)      # their sorted k positions
    hull_value: np.ndarray = field(repr=False)  # their residuals

    @property
    def residual(self) -> np.ndarray:
        res = self._values(self.rank, np.arange(self.closure.size))
        return res[0] if np.ndim(self.k) == 0 else res

    @property
    def positive_max(self) -> float:
        return max(self.max(), 0.0)

    def max(self) -> float:
        """``residual.max()``, bit for bit."""
        return float(self._cell_max.max())

    def argmax(self) -> tuple[int, int]:
        """(k index, cell) of the first maximum of ``residual`` in row-major
        order, the location ``residual.argmax()`` names."""
        top = self._cell_max.max()

        def at_top(x):           # a nan maximum is the first nan, as in numpy
            return np.isnan(x) if np.isnan(top) else x == top

        cells = np.flatnonzero(at_top(self._cell_max))
        rows = max(1, _BLOCK // cells.size)
        for start in range(0, self.rank.size, rows):
            block = self._values(self.rank[start:start + rows], cells)
            hit = np.flatnonzero(at_top(block))
            if hit.size:
                i, j = divmod(int(hit[0]), cells.size)
                return start + i, int(cells[j])
        raise ValueError("no residual attains the maximum")

    def _values(self, pos: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Residuals at sorted k positions ``pos`` and ``cells``, one row per k."""
        phic = self.phi[pos][:, None] * self.closure[cells]
        r = self.r[pos][:, cells] if self.r.ndim == 2 else self.r[cells]
        out = np.where(pos[:, None] < self.below[cells], r - phic, phic - r)
        row = np.full(self.phi.size, -1)
        row[pos] = np.arange(pos.size)
        col = np.full(self.closure.size, -1)
        col[cells] = np.arange(cells.size)
        i, j = row[self.hull_k], col[self.hull_cell]
        kept = (i >= 0) & (j >= 0)
        out[i[kept], j[kept]] = self.hull_value[kept]
        return out

    @cached_property
    def _cell_max(self) -> np.ndarray:
        """Largest residual of each cell over every k."""
        if self.r.ndim == 2:     # global LF: r depends on k, no closed form
            return self._values(self.rank, np.arange(self.closure.size)).max(axis=0)
        # r - phi(k) C (below) and phi(k) C - r (above) are monotone in
        # phi(k), also after rounding, so the largest sits at the smallest
        # or largest phi of the range: prefix and suffix extremes of phi
        phi, C, r, n_k = self.phi, self.closure, self.r, self.phi.size
        lo, hi = np.minimum.accumulate(phi), np.maximum.accumulate(phi)
        j = np.maximum(self.below - 1, 0)
        best = np.where(self.below > 0, r - np.where(C > 0.0, lo[j], hi[j]) * C,
                        -np.inf)
        lo = np.minimum.accumulate(phi[::-1])[::-1]
        hi = np.maximum.accumulate(phi[::-1])[::-1]
        j = np.minimum(self.above, n_k - 1)
        best = np.maximum(best, np.where(
            self.above < n_k, np.where(C > 0.0, hi[j], lo[j]) * C - r, -np.inf))
        count = self.above - self.below
        cells = np.flatnonzero(count)
        if cells.size:
            first = (np.cumsum(count) - count)[cells]
            best[cells] = np.maximum(
                best[cells], np.maximum.reduceat(self.hull_value, first))
        return best


def entropy_residuals(before: CellField, after: CellField, dt: float,
                      flux, config: SchemeConfig, k) -> EntropyResidualField:
    """Residuals of the cell entropy inequality for one accepted step.

    ``before`` and ``after`` must be consecutive states of the same mesh
    separated by ``dt``.  The bound is sharp only for constant
    reconstruction with Euler stepping and an E-flux; other configurations
    still get a report, just no guarantee of nonpositivity.
    """
    mesh = before.mesh
    if after.mesh is not mesh:
        raise ValueError("before and after live on different meshes")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    order = np.argsort(k_arr, kind="stable")
    ks = k_arr[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)

    a, b = _face_states(before, config)
    rule, n = config.flux_rule, mesh.face_normal
    u, u_new = before.values, after.values
    c = flux._along(n, a)                    # d . n per face

    def per_cell(v):
        """(dt / |K|) sum_e s_e |e| v_e over the faces of each cell."""
        out = mesh.divergence(mesh.face_length * v)
        out *= dt
        out /= mesh.cell_area
        return out

    closure = per_cell(c)
    if rule == "lax_friedrichs" and config.lf_dissipation_mode == "global":
        # one coefficient per k, the worst face speed over the data range
        # widened to k: |d . n| max times the largest |phi'| on that range
        lam = flux.max_wave_speed(
            np.minimum(float(min(a.min(), b.min())), ks),
            np.maximum(float(max(a.max(), b.max())), ks),
            n[np.argmax(np.abs(c))])
        # g(a, b; lam) = (f(a) + f(b)) . n / 2 - lam (b - a) / 2
        mean, jump = numerical_flux("central", flux, a, b, n), 0.5 * (b - a)
        r = (u_new - u) + (per_cell(mean) - lam[:, None] * per_cell(jump))
    else:
        lam = None
        g = _face_flux(mesh, flux, config, a, b)
        r = (u_new - u) + per_cell(g)

    # stencil hull: u, u' and the traces of the cell's faces (pads skipped)
    face_lo, face_hi = np.minimum(a, b), np.maximum(a, b)
    faces, real = mesh.cell_faces, mesh.cell_face_sign != 0.0
    lo = np.minimum(np.minimum(u, u_new), face_lo[faces].min(
        axis=0, initial=np.inf, where=real))
    hi = np.maximum(np.maximum(u, u_new), face_hi[faces].max(
        axis=0, initial=-np.inf, where=real))
    below = np.searchsorted(ks, lo, "right")      # k <= lo before it
    above = np.maximum(np.searchsorted(ks, hi, "left"), below)  # k >= hi from it

    # (cell, k) pairs with k strictly inside, listed cell by cell
    count = above - below
    cell = np.repeat(np.arange(mesh.n_cells), count)
    kpos = np.arange(cell.size) - (np.cumsum(count) - count)[cell] + below[cell]

    # their G on every face of the cell: the clipped flux where k is also
    # strictly inside the face hull, else the consistent form above
    f, kk = faces[:, cell], ks[kpos]
    phi = flux.phi(ks)
    if lam is None:
        G = phi[kpos] * c[f] - g[f]
    else:
        G = phi[kpos] * c[f] - (mean[f] - lam[kpos] * jump[f])
    np.negative(G, out=G, where=kk <= face_lo[f])
    inside = (face_lo[f] < kk) & (kk < face_hi[f])
    e, j = f[inside], np.broadcast_to(kpos, f.shape)[inside]
    G[inside] = numerical_entropy_flux(rule, flux, ks[j], a[e], b[e], n[e],
                                       None if lam is None else lam[j])
    G *= mesh.face_length[f]
    G *= mesh.cell_face_sign[:, cell]
    div = np.zeros(cell.size)
    for row in G:                # table order, as in Mesh.divergence
        div += row
    value = np.abs(u_new[cell] - kk)
    value -= np.abs(u[cell] - kk)
    value += dt * div / mesh.cell_area[cell]

    return EntropyResidualField(
        k=float(k) if np.ndim(k) == 0 else k_arr, dt=float(dt), h=mesh.h,
        phi=phi, rank=rank, r=r, closure=closure, below=below,
        above=above, hull_cell=cell, hull_k=kpos, hull_value=value)


def kruzkov_k_grid(lo: float, hi: float, n: int = 33, extra=()) -> np.ndarray:
    """Uniform k grid over [lo, hi] plus any extra states, deduplicated."""
    if not n >= 2:
        raise ValueError("need at least two grid points")
    if hi < lo:
        raise ValueError("empty state range")
    return np.unique(np.concatenate([np.linspace(lo, hi, n),
                                     np.asarray(extra, dtype=float).ravel()]))


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


def run_entropy_audit(traj, flux, config: SchemeConfig, k_grid=None,
                      tol: float = 1e-12) -> EntropyAuditReport:
    """Check the cell entropy inequality on every accepted step of a run."""
    if k_grid is None:
        k_grid = kruzkov_k_grid(*state_range(traj))
    k_grid = np.asarray(k_grid, dtype=float)
    ks = np.atleast_1d(k_grid)
    per_step = np.zeros(max(len(traj) - 1, 0))
    top, where = -np.inf, (-1, -1, float("nan"))
    for i in range(len(traj) - 1):
        before, after = traj.fields[i], traj.fields[i + 1]
        res = entropy_residuals(before, after, after.t - before.t,
                                flux, config, ks)
        m = res.max()
        per_step[i] = max(m, 0.0)
        if m > top:
            ik, cell = res.argmax()
            top, where = m, (i, cell, float(ks[ik]))
    worst = float(per_step.max()) if per_step.size else 0.0
    return EntropyAuditReport(per_step=per_step, k_grid=k_grid, worst=worst,
                              tol=tol, passed=bool(worst <= tol),
                              worst_step=where[0], worst_cell=where[1],
                              worst_k=where[2])


@dataclass
class EFluxReport:
    """Result of sampling the E-flux inequality sgn(b-a) (g - f(w).n) <= 0."""

    rule: str
    flux_name: str
    samples: int
    worst_violation: float
    worst_case: tuple  # (a, b, w, normal)
    passed: bool


def check_e_flux(rule: str, flux, n_samples: int = 10_000, seed: int = 0,
                 state_range: tuple[float, float] = (-1.5, 1.5),
                 n_intermediate: int = 65, tol: float = 1e-12) -> EFluxReport:
    """Sample the E-flux property of a two-point rule.

    Draws random trace pairs and unit normals, sweeps intermediate states w
    across [a ^ b, a v b] and records the largest violation of

        sgn(b - a) (g(a, b, n) - f(w) . n) <= 0.

    A few adversarial fixed pairs are appended to the random draw so the
    undissipated central rule fails deterministically.
    """
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
    i, j = np.unravel_index(int(viol.argmax()), viol.shape)
    case = (float(a[i]), float(b[i]), float(W[i, j]), normals[i].copy())
    return EFluxReport(rule=rule, flux_name=flux.name, samples=len(a),
                       worst_violation=worst, worst_case=case,
                       passed=bool(worst <= tol))

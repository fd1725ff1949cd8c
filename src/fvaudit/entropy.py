"""Discrete entropy inequality audits for the Kruzkov family |u - k|.

For a monotone first-order scheme advanced by explicit Euler, each cell
update satisfies

    |u_K' - k| - |u_K - k| + (dt / |K|) sum_e |e| G_e(k) <= 0

where G is the clipped-state entropy flux built from the scheme's own
numerical flux g:

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

Most (face, k) pairs have k outside the hull of the face traces.  There
one clipped pair is (a, b) itself and the other is (k, k), and a
consistent flux has g(k, k) = f(k) . n (Crandall-Majda, Math. Comp. 34,
1980).  So the audit evaluates g(a, b) once per face and forms

    G = g(a, b) - f(k) . n   for k <= a ^ b,
    G = f(k) . n - g(a, b)   for k >= a v b,

and passes only the pairs with k strictly inside the hull through
:func:`numerical_entropy_flux`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import (CellField, ConfigurationError, SchemeConfig,
                     numerical_flux, state_range, _face_states)

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
    top_a, top_b = np.maximum(a, k), np.maximum(b, k)
    bot_a, bot_b = np.minimum(a, k), np.minimum(b, k)
    if rule == "lax_friedrichs" and lam is None:
        lam_top = flux.max_wave_speed(top_a, top_b, n)
        lam_bot = flux.max_wave_speed(bot_a, bot_b, n)
    elif rule == "lax_friedrichs":
        lam = np.asarray(lam, dtype=float)
        bound = flux.max_wave_speed(a, b, n)
        if np.any(lam < bound * (1.0 - 1e-12) - 1e-13):
            raise ConfigurationError(
                "LF dissipation coefficient is below the local wave speed")
        lam_top = np.maximum(lam, flux.max_wave_speed(top_a, top_b, n))
        lam_bot = np.maximum(lam, flux.max_wave_speed(bot_a, bot_b, n))
    else:
        lam_top = lam_bot = lam
    g_top = numerical_flux(rule, flux, top_a, top_b, n, lam_top)
    g_bot = numerical_flux(rule, flux, bot_a, bot_b, n, lam_bot)
    return g_top - g_bot


@dataclass
class EntropyResidualField:
    """Per-cell entropy residuals for one step and a set of k values.

    ``residual`` has shape (n_k, n_cells), or (n_cells,) when the audit was
    called with a scalar k.  Positive entries violate the inequality.
    """

    residual: np.ndarray
    k: np.ndarray | float
    dt: float
    h: float

    @property
    def positive_max(self) -> float:
        return float(np.maximum(self.residual, 0.0).max())


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
    scalar = np.ndim(k) == 0

    a, b = _face_states(before, config)
    rule, n = config.flux_rule, mesh.face_normal
    kk = k_arr[None, :]                      # (1, n_k) against (n_f, 1)
    af, bf = a[:, None], b[:, None]

    lam = None
    if rule == "lax_friedrichs" and config.lf_dissipation_mode == "global":
        lo = np.minimum(float(min(a.min(), b.min())), k_arr)
        hi = np.maximum(float(max(a.max(), b.max())), k_arr)
        # one coefficient per k: the worst face speed over the widened range
        speeds = flux.max_wave_speed(
            np.broadcast_to(lo, (mesh.n_faces, k_arr.size)),
            np.broadcast_to(hi, (mesh.n_faces, k_arr.size)), n)
        lam = speeds.max(axis=0, keepdims=True)

    # k outside the face hull: G from g(a, b), shape (n_f, 1) or (n_f, n_k)
    # with a per-k coefficient, and the consistent value g(k, k) = f(k) . n;
    # the arrays are (n_f, n_k), so the arithmetic below runs in place
    lam_ab = lam
    if rule == "lax_friedrichs" and lam is None:
        lam_ab = flux.max_wave_speed(af, bf, n)
    G = flux.fn(kk, n)
    G -= numerical_flux(rule, flux, af, bf, n, lam_ab)
    below = kk <= np.minimum(af, bf)
    np.negative(G, out=G, where=below)
    fi, ki = np.nonzero(~below & (kk < np.maximum(af, bf)))
    if fi.size:
        G[fi, ki] = numerical_entropy_flux(
            rule, flux, k_arr[ki], a[fi], b[fi], n[fi],
            None if lam is None else lam[0, ki])
    G *= mesh.face_length[:, None]
    div = mesh.divergence(G)
    div *= dt
    div /= mesh.cell_area[:, None]

    res = np.abs(after.values[:, None] - kk)       # eta after the step
    res -= np.abs(before.values[:, None] - kk)
    res += div
    residual = res[:, 0] if scalar else res.T
    return EntropyResidualField(residual=residual,
                                k=float(k) if scalar else k_arr,
                                dt=float(dt), h=mesh.h)


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
                                flux, config, ks).residual
        j = int(res.argmax())
        per_step[i] = max(res.flat[j], 0.0)
        if res.flat[j] > top:
            ik, cell = np.unravel_index(j, res.shape)
            top, where = res.flat[j], (i, int(cell), float(ks[ik]))
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

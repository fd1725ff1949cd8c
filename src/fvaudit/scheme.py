"""Cell-average finite volume schemes on interval and polygonal meshes.

The update is the standard flux-form step

    u_K(t + dt) = u_K(t) - (dt / |K|) * sum_e |e| g(a_e, b_e, n_e)

where the sum runs over the faces of K, ``a_e``/``b_e`` are the traces of
the reconstruction on both sides of the face and ``g`` is a two-point
numerical flux.  Everything is assembled face-wise and summed into cells
by :meth:`Mesh.divergence`, so a periodic face (stored once) contributes
with opposite signs to its two cells and conservation holds to rounding.
Per-cell neighbor bounds come from the same incidence table.

Outflow boundaries copy the inside trace to the ghost side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .mesh import Mesh

__all__ = [
    "CellField",
    "SchemeConfig",
    "Reconstruction",
    "Trajectory",
    "state_range",
    "ConfigurationError",
    "StabilityError",
    "NumericalError",
    "cell_averages",
    "numerical_flux",
    "lf_lambda",
    "reconstruct",
    "max_stable_dt",
    "step",
    "run",
    "twin_run",
]

FLUX_RULES = ("godunov", "lax_friedrichs", "engquist_osher", "central")
RECONSTRUCTIONS = ("constant", "limited_linear")
INTEGRATORS = ("euler", "ssp_rk2")
LF_MODES = ("local", "global")

_SPEED_FLOOR = 1e-14


class ConfigurationError(ValueError):
    """Invalid scheme configuration or flux arguments."""


class StabilityError(RuntimeError):
    """Requested time step exceeds the stable bound."""


class NumericalError(ArithmeticError):
    """A step produced non-finite cell values."""


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: flux rule, reconstruction, integrator, CFL.

    ``central`` is shipped for diagnostics only: it is the textbook
    undissipated average and deliberately fails the E-flux property.
    """

    flux_rule: str = "godunov"
    reconstruction: str = "constant"
    time_integrator: str = "euler"
    cfl_number: float = 0.45
    lf_dissipation_mode: str = "local"

    def __post_init__(self):
        if self.flux_rule not in FLUX_RULES:
            raise ConfigurationError(f"unknown flux rule {self.flux_rule!r}")
        if self.reconstruction not in RECONSTRUCTIONS:
            raise ConfigurationError(f"unknown reconstruction {self.reconstruction!r}")
        if self.time_integrator not in INTEGRATORS:
            raise ConfigurationError(f"unknown integrator {self.time_integrator!r}")
        if not (0.0 < self.cfl_number < 1.0):
            raise ConfigurationError("cfl_number must sit strictly inside (0, 1)")
        if self.lf_dissipation_mode not in LF_MODES:
            raise ConfigurationError(f"unknown LF mode {self.lf_dissipation_mode!r}")


@dataclass
class CellField:
    """Cell averages at one time level."""

    mesh: Mesh
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)  # owned copy, frozen below
        if self.values.shape != (self.mesh.n_cells,):
            raise ValueError(
                f"expected {self.mesh.n_cells} cell values, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cell values must be finite")
        self.values.setflags(write=False)

    @classmethod
    def from_function(cls, mesh: Mesh, fn: Callable, t: float = 0.0) -> "CellField":
        return cls(mesh, cell_averages(mesh, fn), t)

    @property
    def total_mass(self) -> float:
        return float(self.mesh.cell_area @ self.values)


def cell_averages(mesh: Mesh, fn: Callable) -> np.ndarray:
    """Quadrature cell averages of a pointwise function of position.

    1-D cells use the two-point Gauss rule; triangles use the three
    edge-midpoint rule (exact for quadratics); general polygons are fanned
    into triangles around the centroid.
    """
    if mesh.dim == 1:
        cells = np.asarray(mesh.cells)
        xa = mesh.vertices[cells[:, 0], 0]
        xb = mesh.vertices[cells[:, 1], 0]
        mid, off = 0.5 * (xa + xb), 0.5 * (xb - xa) / math.sqrt(3.0)
        vals = np.asarray(fn(np.concatenate([mid - off, mid + off])[:, None]), dtype=float)
        n = len(cells)
        return 0.5 * (vals[:n] + vals[n:])

    out = np.empty(mesh.n_cells)
    tri_idx = [i for i, c in enumerate(mesh.cells) if len(c) == 3]
    if tri_idx:
        tris = np.asarray([mesh.cells[i] for i in tri_idx])
        p0, p1, p2 = (mesh.vertices[tris[:, j]] for j in range(3))
        pts = np.concatenate([0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p0 + p2)])
        vals = np.asarray(fn(pts), dtype=float)
        n = len(tris)
        out[tri_idx] = (vals[:n] + vals[n:2 * n] + vals[2 * n:]) / 3.0
    for i, c in enumerate(mesh.cells):
        if len(c) == 3:
            continue
        pts = mesh.vertices[list(c)]
        centroid = mesh.cell_centroid[i]
        acc = 0.0
        for j in range(len(c)):
            p, q = pts[j], pts[(j + 1) % len(c)]
            tri_area = 0.5 * abs((p[0] - centroid[0]) * (q[1] - centroid[1])
                                 - (q[0] - centroid[0]) * (p[1] - centroid[1]))
            mids = np.array([0.5 * (p + q), 0.5 * (p + centroid), 0.5 * (q + centroid)])
            acc += tri_area * np.asarray(fn(mids), dtype=float).mean()
        out[i] = acc / mesh.cell_area[i]
    return out


# ---------------------------------------------------------------------------
# numerical fluxes

def lf_lambda(flux, a, b, n, mode: str = "local",
              field_range: tuple[float, float] | None = None) -> np.ndarray:
    """Dissipation coefficient policy for the Lax-Friedrichs flux.

    ``local`` bounds the wave speed over the hull of the two face traces;
    ``global`` bounds it over the whole field range (pass ``field_range``).
    """
    if mode == "local":
        return flux.max_wave_speed(a, b, n)
    if mode == "global":
        if field_range is None:
            raise ConfigurationError("global LF mode needs field_range")
        lo = np.full_like(np.asarray(a, dtype=float), field_range[0])
        hi = np.full_like(np.asarray(a, dtype=float), field_range[1])
        return flux.max_wave_speed(lo, hi, n)
    raise ConfigurationError(f"unknown LF mode {mode!r}")


def numerical_flux(rule: str, flux, a, b, n, lam=None) -> np.ndarray:
    """Two-point numerical flux g(a, b, n) for one of the shipped rules.

    ``lam`` is required for ``lax_friedrichs`` and must dominate the wave
    speed over the hull of (a, b); too small a value is a configuration
    error, because the flux would silently stop being monotone.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if rule == "godunov":
        # Osher's form: the min of c phi over the hull when a <= b, else the
        # max, and c phi takes its min at the max of phi when c = d . n < 0
        low, high = flux._hull_range(flux.phi, a, b, flux.critical_points)
        c = flux._along(n, low)
        return c * np.where((c >= 0.0) == (a <= b), low, high)
    if rule == "engquist_osher":
        f_plus_a, _ = flux.split_fluxes(a, n)
        _, f_minus_b = flux.split_fluxes(b, n)
        f0 = flux.fn(np.zeros_like(a), n)
        return f0 + f_plus_a + f_minus_b
    if rule == "lax_friedrichs":
        if lam is None:
            raise ConfigurationError("lax_friedrichs needs a dissipation coefficient")
        lam = np.asarray(lam, dtype=float)
        bound = flux.max_wave_speed(a, b, n)
        if np.any(lam < bound * (1.0 - 1e-12) - 1e-13):
            raise ConfigurationError(
                "LF dissipation coefficient is below the local wave speed")
        return 0.5 * (flux.fn(a, n) + flux.fn(b, n)) - 0.5 * lam * (b - a)
    if rule == "central":
        return 0.5 * (flux.fn(a, n) + flux.fn(b, n))
    raise ConfigurationError(f"unknown flux rule {rule!r}")


# ---------------------------------------------------------------------------
# reconstruction

@dataclass
class Reconstruction:
    """Cellwise affine representation u_K + g_K . (x - centroid_K).

    The gradient is already limited; the cell mean is preserved exactly
    because the affine part has zero mean about the centroid.
    """

    field: CellField
    gradient: np.ndarray  # (n_cells, dim)

    def trace(self, cell_idx: np.ndarray, at: np.ndarray) -> np.ndarray:
        mesh = self.field.mesh
        offs = at - mesh.cell_centroid[cell_idx]
        return self.field.values[cell_idx] + (self.gradient[cell_idx] * offs).sum(-1)


def reconstruct(field: CellField, config: SchemeConfig) -> Reconstruction:
    mesh = field.mesh
    if config.reconstruction == "constant":
        return Reconstruction(field, np.zeros((mesh.n_cells, mesh.dim)))

    u = field.values
    faces, sign, nbr = mesh.cell_faces, mesh.cell_face_sign, mesh.cell_neighbors
    cen = mesh.cell_centroid

    # least-squares gradient from face-neighbor means (periodic neighbors
    # are seen at their translated positions); outflow faces and pads have
    # the cell as its own neighbor and no shift, so they add exact zeros
    d = cen[nbr] + sign[..., None] * mesh.face_shift[faces] - cen
    du = u[nbr] - u

    dim = mesh.dim
    ata = np.zeros((mesh.n_cells, dim, dim))
    rhs = np.zeros((mesh.n_cells, dim))
    for dj, duj in zip(d, du):      # one table row at a time: fixed sum order
        ata += dj[:, :, None] * dj[:, None, :]
        rhs += dj * duj[:, None]
    # pinv tolerates boundary cells with too few neighbors for a full rank fit
    gradient = np.einsum("cij,cj->ci", np.linalg.pinv(ata), rhs)

    lo, hi = mesh.neighbor_range(u)

    # limiter: the trace at every face midpoint stays in [lo, hi]
    mids = np.where((sign > 0.0)[..., None], mesh.face_midpoint_left[faces],
                    mesh.face_midpoint_right[faces])
    tiny = 1e-14 * (1.0 + float(np.abs(u).max()))
    delta = (gradient * (mids - cen)).sum(-1)
    room = np.where(delta > 0.0, hi - u, lo - u)
    small = np.abs(delta) <= tiny
    ratio = np.where(small | (sign == 0.0), 1.0,
                     np.clip(room / np.where(small, 1.0, delta), 0.0, 1.0))
    theta = np.minimum(1.0, ratio.min(axis=0))
    return Reconstruction(field, gradient * theta[:, None])


def _face_states(field: CellField, config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
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


# ---------------------------------------------------------------------------
# time stepping

def _face_flux(mesh: Mesh, flux, config: SchemeConfig,
               a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lam = None
    if config.flux_rule == "lax_friedrichs":
        if config.lf_dissipation_mode == "local":
            lam = lf_lambda(flux, a, b, mesh.face_normal, "local")
        else:
            rng = (float(min(a.min(), b.min())), float(max(a.max(), b.max())))
            lam = lf_lambda(flux, a, b, mesh.face_normal, "global", rng)
    return numerical_flux(config.flux_rule, flux, a, b, mesh.face_normal, lam)


def _euler_values(mesh: Mesh, flux, config: SchemeConfig,
                  values: np.ndarray, t: float, dt: float) -> np.ndarray:
    a, b = _face_states(CellField(mesh, values, t), config)
    g = _face_flux(mesh, flux, config, a, b)
    div = mesh.divergence(mesh.face_length * g)
    return values - dt * div / mesh.cell_area


def max_stable_dt(field: CellField, flux, config: SchemeConfig) -> float:
    """CFL bound cfl * min_K |K| / (perimeter(K) * s_K).

    ``s_K`` bounds |f'(w) . n| over all faces of K and all states w in the
    hull of the cell mean and its face-neighbor means, floored at 1e-14 so
    stationary fields do not produce an infinite step.
    """
    mesh = field.mesh
    lo, hi = mesh.neighbor_range(field.values)
    # one speed per (face, cell) table entry; pads carry a zero normal
    normals = mesh.face_normal[mesh.cell_faces] * np.abs(mesh.cell_face_sign)[..., None]
    s = np.maximum(flux.max_wave_speed(lo, hi, normals).max(axis=0), _SPEED_FLOOR)
    return config.cfl_number * float((mesh.cell_area / (mesh.cell_perimeter * s)).min())


def step(field: CellField, flux, config: SchemeConfig, dt: float,
         _stable_dt: float | None = None) -> CellField:
    """One explicit step; refuses time steps beyond the stable bound."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    stable = max_stable_dt(field, flux, config) if _stable_dt is None else _stable_dt
    if dt > stable * (1.0 + 1e-9):
        raise StabilityError(f"dt={dt} exceeds the stable bound {stable}")
    mesh, u, t = field.mesh, field.values, field.t
    # a blow-up overflows inside the flux: report it as one NumericalError
    # naming the step, not as a stream of runtime warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if config.time_integrator == "euler":
            new = _finite(_euler_values(mesh, flux, config, u, t, dt), t)
        else:  # ssp_rk2: average of the identity and a doubly advanced state
            v1 = _finite(_euler_values(mesh, flux, config, u, t, dt), t)
            v2 = _euler_values(mesh, flux, config, v1, t + dt, dt)
            new = _finite(0.5 * (u + v2), t)
    return CellField(mesh, new, t + dt)


def _finite(values: np.ndarray, t: float) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"non-finite cell values in the step from t={t!r}")
    return values


@dataclass
class Trajectory:
    """Every accepted time level of a run, initial state included."""

    fields: list

    def __post_init__(self):
        if not self.fields:
            raise ValueError("a trajectory needs at least one field")

    @property
    def mesh(self) -> Mesh:
        return self.fields[0].mesh

    @property
    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.fields])

    @property
    def final(self) -> CellField:
        return self.fields[-1]

    def __len__(self):
        return len(self.fields)

    def at_time(self, t: float, tol: float = 1e-9) -> CellField:
        err = np.abs(self.times - t)
        i = int(err.argmin())
        if err[i] > tol:
            raise ValueError(f"no recorded field at t={t}")
        return self.fields[i]


def state_range(traj: Trajectory) -> tuple[float, float]:
    """Smallest and largest cell average over every level of a run."""
    lo = min(float(f.values.min()) for f in traj.fields)
    hi = max(float(f.values.max()) for f in traj.fields)
    return lo, hi


_MAX_STEPS = 10_000_000


def _check_t_final(t_final: float):
    # a nan or infinite horizon is never reached: the march would run
    # until the step budget is spent
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final!r}")


def run(initial: CellField, flux, config: SchemeConfig, t_final: float,
        output_times=()) -> Trajectory:
    """March to ``t_final``, clipping steps to land on requested times.

    Every accepted step is recorded, so downstream audits can replay the
    full discrete history.  ``t_final`` equal to the initial time returns
    a single-entry trajectory.
    """
    _check_t_final(t_final)
    tol = 1e-12 * max(1.0, abs(t_final))
    if t_final < initial.t - tol:
        raise ValueError("t_final lies before the initial time")
    targets = sorted({float(t) for t in output_times
                      if initial.t + tol < t <= t_final + tol} | {float(t_final)})
    fields = [initial]
    f = initial
    for _ in range(_MAX_STEPS):
        if f.t >= t_final - tol:
            break
        stable = max_stable_dt(f, flux, config)
        next_target = min(t for t in targets if t > f.t + tol)
        dt = min(stable, next_target - f.t)
        f = step(f, flux, config, dt, _stable_dt=stable)
        fields.append(f)
    else:
        raise StabilityError("step budget exhausted before reaching t_final")
    return Trajectory(fields)


def twin_run(initial_a: CellField, initial_b: CellField, flux,
             config: SchemeConfig, t_final: float) -> tuple[Trajectory, Trajectory]:
    """Advance two fields with a shared time step sequence.

    Sharing the step keeps the pair comparable at every level, which is
    what contraction measurements need.
    """
    if initial_a.mesh is not initial_b.mesh:
        raise ValueError("twin runs need a shared mesh")
    _check_t_final(t_final)
    tol = 1e-12 * max(1.0, abs(t_final))
    fa, fb = [initial_a], [initial_b]
    a, b = initial_a, initial_b
    for _ in range(_MAX_STEPS):
        if a.t >= t_final - tol:
            break
        stable = min(max_stable_dt(a, flux, config), max_stable_dt(b, flux, config))
        dt = min(stable, t_final - a.t)
        a = step(a, flux, config, dt, _stable_dt=stable)
        b = step(b, flux, config, dt, _stable_dt=stable)
        fa.append(a)
        fb.append(b)
    else:
        raise StabilityError("step budget exhausted before reaching t_final")
    return Trajectory(fa), Trajectory(fb)

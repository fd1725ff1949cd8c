"""Cell-average finite volume schemes on interval and polygonal meshes.

The update is the standard flux-form step

    u_K(t + dt) = u_K(t) - (dt / |K|) * sum_e |e| g(a_e, b_e, n_e)

where the sum runs over the faces of K, ``a_e``/``b_e`` are the traces of
the reconstruction on both sides of the face and ``g`` is a two-point
numerical flux.  Everything is assembled face-wise and summed into cells
by :meth:`Mesh.divergence`, so a periodic face (stored once) contributes
with opposite signs to its two cells and conservation holds to rounding.
Per-cell neighbor bounds come from the same incidence table.  The flux
direction as each face and table entry sees it, c = d . n, depends only on
the mesh and the flux, so it is computed once and cached on the mesh.

Outflow boundaries copy the inside trace to the ghost side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh
from .physics import Along

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
        lam = _checked_lf(flux, lam, a, b, n)
        return 0.5 * (flux.fn(a, n) + flux.fn(b, n)) - 0.5 * lam * (b - a)
    if rule == "central":
        return 0.5 * (flux.fn(a, n) + flux.fn(b, n))
    raise ConfigurationError(f"unknown flux rule {rule!r}")


def _checked_lf(flux, lam, a, b, n) -> np.ndarray:
    """``lam`` as an array, refused below the wave speed over the (a, b) hull."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < flux.max_wave_speed(a, b, n) * (1.0 - 1e-12) - 1e-13):
        raise ConfigurationError(
            "LF dissipation coefficient is below the local wave speed")
    return lam


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
        return _trace(self.field.mesh, self.field.values, self.gradient,
                      cell_idx, at)


def _trace(mesh: Mesh, u: np.ndarray, gradient: np.ndarray,
           cell_idx: np.ndarray, at: np.ndarray) -> np.ndarray:
    offs = at - mesh.cell_centroid[cell_idx]
    return u[cell_idx] + (gradient[cell_idx] * offs).sum(-1)


def reconstruct(field: CellField, config: SchemeConfig) -> Reconstruction:
    return Reconstruction(field, _gradient(field.mesh, field.values, config))


def _gradient(mesh: Mesh, u: np.ndarray, config: SchemeConfig) -> np.ndarray:
    """The limited cellwise gradient of ``config``'s reconstruction."""
    if config.reconstruction == "constant":
        return np.zeros((mesh.n_cells, mesh.dim))

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
    return gradient * theta[:, None]


def _face_states(mesh: Mesh, u: np.ndarray,
                 config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Traces on the two sides of every face of cell values ``u``; outflow
    ghosts copy the inside trace."""
    L, R = mesh.face_left, mesh.face_right
    if config.reconstruction == "constant":
        return u[L], u[mesh.face_across]
    interior = R >= 0
    gradient = _gradient(mesh, u, config)
    a = _trace(mesh, u, gradient, L, mesh.face_midpoint_left)
    b = a.copy()
    b[interior] = _trace(mesh, u, gradient, R[interior],
                         mesh.face_midpoint_right[interior])
    return a, b


# ---------------------------------------------------------------------------
# time stepping

def _geometry(mesh: Mesh, flux) -> tuple[Along, Along]:
    """The flux direction as the mesh sees it: c = d . n of every face, and
    |d . n| of every incidence-table entry (0 on pads).

    Both depend on the mesh and ``flux.direction`` alone, so they are
    computed on first use and kept on the mesh.
    """
    key = ("flux_geometry", flux.direction)
    geometry = mesh._derived.get(key)
    if geometry is None:
        # pads carry a zero normal, hence a zero speed
        normals = (mesh.face_normal[mesh.cell_faces]
                   * np.abs(mesh.cell_face_sign)[..., None])
        face = flux.along(mesh.face_normal)
        table = Along(flux.direction, np.abs(flux.along(normals).c))
        for projected in (face, table):
            projected.c.setflags(write=False)
        geometry = mesh._derived[key] = (face, table)
    return geometry


def _face_record(mesh: Mesh, flux, config: SchemeConfig, u: np.ndarray,
                 lf_range: tuple[float, float] | None = None) -> tuple:
    """What a stage of the step advances cell values ``u`` with: the face
    traces, the numerical flux and the Lax-Friedrichs coefficient, ``None``
    for other rules.  The global one covers the range of the face states
    and ``lf_range``, that of fields marched together."""
    a, b = _face_states(mesh, u, config)
    n, _ = _geometry(mesh, flux)
    lam = None
    if config.flux_rule == "lax_friedrichs":
        rng = (_value_range(a, b, within=lf_range)
               if config.lf_dissipation_mode == "global" else None)
        lam = lf_lambda(flux, a, b, n, config.lf_dissipation_mode, rng)
    return a, b, numerical_flux(config.flux_rule, flux, a, b, n, lam), lam


def _euler_values(mesh: Mesh, values: np.ndarray, dt: float,
                  g: np.ndarray) -> np.ndarray:
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
    # one speed per (face, cell) table entry; pads have zero speed
    _, table = _geometry(mesh, flux)
    s = np.maximum(flux.max_wave_speed(lo, hi, table).max(axis=0), _SPEED_FLOOR)
    return config.cfl_number * float((mesh.cell_area / (mesh.cell_perimeter * s)).min())


def step(field: CellField, flux, config: SchemeConfig, dt: float,
         _stable_dt: float | None = None,
         _lf_range: tuple[float, float] | None = None,
         _faces: tuple | None = None) -> CellField:
    """One explicit step; refuses time steps beyond the stable bound.
    ``_lf_range`` is the state range of the fields marched together and
    ``_faces`` the first stage's :func:`_face_record`, when known."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    stable = max_stable_dt(field, flux, config) if _stable_dt is None else _stable_dt
    if dt > stable * (1.0 + 1e-9):
        raise StabilityError(f"dt={dt} exceeds the stable bound {stable}")
    mesh, u, t = field.mesh, field.values, field.t
    # a blow-up overflows inside the flux: report it as one NumericalError
    # naming the step, not as a stream of runtime warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g = (_faces or _face_record(mesh, flux, config, u, _lf_range))[2]
        new = _finite(_euler_values(mesh, u, dt, g), t)
        if config.time_integrator == "ssp_rk2":
            # the average of the identity and a doubly advanced state
            g = _face_record(mesh, flux, config, new, _lf_range)[2]
            new = _finite(0.5 * (u + _euler_values(mesh, new, dt, g)), t)
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


def _value_range(*arrays, within=None) -> tuple[float, float]:
    """Smallest and largest value of ``arrays``, widened to cover the range
    ``within`` when one is known.  On a tie the known bound is kept."""
    lo, hi = within or (math.inf, -math.inf)
    for x in arrays:
        lo, hi = min(lo, float(x.min())), max(hi, float(x.max()))
    return lo, hi


def state_range(traj: Trajectory) -> tuple[float, float]:
    """Smallest and largest cell average over every level of a run."""
    return _value_range(*(f.values for f in traj.fields))


def _replay(fields, observers) -> list:
    """Feed the consecutive ``fields`` of a run to observers: start each on
    the first field, step it through every pair with ``dt`` the elapsed
    time and no face record, and return their ``finish()`` values."""
    fields = iter(fields)
    before = next(fields)
    for obs in observers:
        obs.start(before)
    for after in fields:
        for obs in observers:
            obs.step(before, after, after.t - before.t, None)
        before = after
    return [obs.finish() for obs in observers]


# a march may take this many times the steps its first stable step would
# need to reach t_final; on the shipped problems no march of a rule other
# than central took more than 1x, and no completing central one over 3.7x
_BUDGET_FACTOR = 16


def _check_t_final(t_final: float):
    # a nan or infinite horizon is never reached
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final!r}")


def _time_tol(t_final: float) -> float:
    """How close to ``t_final`` a march counts as arrived."""
    return 1e-12 * max(1.0, abs(t_final))


def _march(initial: tuple, flux, config: SchemeConfig, t_final: float):
    """The one marching loop: advance the fields of ``initial`` together to
    ``t_final``, yielding per step ``(before, after, dt, faces)`` with
    ``faces`` each field's first-stage :func:`_face_record`.

    All take the smallest stable step, clipped to land on ``t_final``, and
    under global Lax-Friedrichs one coefficient over all their ranges, so
    that they are advanced by one monotone map.  A march whose values grow
    shrinks its steps without end, so it raises :class:`NumericalError`
    past ``_BUDGET_FACTOR`` times the ceil((t_final - t0) / dt0) steps its
    first stable step dt0 would need, or at a step too small to advance t.
    """
    fields = tuple(initial)
    if any(f.mesh is not fields[0].mesh for f in fields):
        raise ValueError("fields marched together need a shared mesh")
    _check_t_final(t_final)
    tol = _time_tol(t_final)
    if t_final < fields[0].t - tol:
        raise ValueError("t_final lies before the initial time")
    joint = (len(fields) > 1 and config.flux_rule == "lax_friedrichs"
             and config.lf_dissipation_mode == "global")
    budget = None
    for n in itertools.count():
        t = fields[0].t
        if t >= t_final - tol:
            return
        stable = min(max_stable_dt(f, flux, config) for f in fields)
        dt = min(stable, float(t_final) - t)
        if budget is None:
            budget = _BUDGET_FACTOR * math.ceil((t_final - t) / stable)
        if n >= budget or t + dt == t:
            lo, hi = _value_range(*(f.values for f in fields))
            why = (f"step budget of {budget} steps spent" if n >= budget
                   else "the step no longer advances t")
            raise NumericalError(f"{why} at step {n}: t={t!r} dt={dt!r}, "
                                 f"values in [{lo!r}, {hi!r}]")
        lf_range = _value_range(*(f.values for f in fields)) if joint else None
        with np.errstate(over="ignore", invalid="ignore"):
            faces = tuple(_face_record(f.mesh, flux, config, f.values,
                                       lf_range) for f in fields)
        after = tuple(step(f, flux, config, dt, _stable_dt=stable,
                           _lf_range=lf_range, _faces=rec)
                      for f, rec in zip(fields, faces))
        yield fields, after, dt, faces
        del faces       # not held while the next record is built
        fields = after


def run(initial: CellField, flux, config: SchemeConfig,
        t_final: float) -> Trajectory:
    """March to ``t_final``, the last step clipped to land on it.

    Every accepted step is recorded, so downstream audits can replay the
    full discrete history.  ``t_final`` equal to the initial time returns
    a single-entry trajectory.
    """
    fields = [initial]
    for _, (after,), _, _ in _march((initial,), flux, config, t_final):
        fields.append(after)
    return Trajectory(fields)


def twin_run(initial_a: CellField, initial_b: CellField, flux,
             config: SchemeConfig, t_final: float) -> tuple[Trajectory, Trajectory]:
    """Advance two fields with a shared time step sequence.

    Sharing the step (and, under global Lax-Friedrichs, the coefficient)
    keeps the pair comparable at every level, which is what contraction
    measurements need.
    """
    fa, fb = [initial_a], [initial_b]
    for _, (a, b), _, _ in _march((initial_a, initial_b), flux, config, t_final):
        fa.append(a)
        fb.append(b)
    return Trajectory(fa), Trajectory(fb)

"""Cell-average finite volume schemes on interval and polygonal meshes.

The update is the standard flux-form step

    u_K(t + dt) = u_K(t) - (dt / |K|) * sum_e |e| g(a_e, b_e, n_e)

where the sum runs over the faces of K, ``a_e``/``b_e`` are the traces of
the reconstruction on both sides of the face and ``g`` is a two-point
numerical flux.  Everything is assembled face-wise and summed into cells
as :meth:`Mesh.divergence` sums, so a periodic face (stored once) contributes
with opposite signs to its two cells and conservation holds to rounding.
Per-cell neighbor bounds come from the same incidence table.  The flux
direction c = d . n depends only on the mesh and the flux, so it is
computed once and cached on the mesh.  A march steps its k fields as one
state, with the mesh's tables tiled k times.

Outflow boundaries copy the inside trace to the ghost side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh, _range_over, _signed_sum
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
    "StepCapError",
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


class StepCapError(ValueError):
    """A march would need more than ``_STEP_CAP`` steps: refused before any
    step is taken."""


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

    def __setstate__(self, state):
        # an unpickled array comes back writeable
        self.__dict__.update(state)
        self.values.setflags(write=False)

    @property
    def total_mass(self) -> float:
        return float(self.mesh.cell_area @ self.values)


def _checked_field(mesh: Mesh, values: np.ndarray, t: float) -> CellField:
    """A field over a read-only copy of ``values``, which a step has checked
    finite.  Copied, not kept: the step allocated them among its temporaries,
    and fields that observers hold would pin those on the heap (study_1d
    peaked 0.19 MB higher)."""
    field = object.__new__(CellField)
    field.mesh, field.values, field.t = mesh, values.copy(), t
    field.values.setflags(write=False)
    return field


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
        return flux.interval_extremum(a, b, n)
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


def _global_lf(config: SchemeConfig) -> bool:
    """Whether the Lax-Friedrichs coefficient spans each field's range."""
    return config.flux_rule == "lax_friedrichs" and config.lf_dissipation_mode == "global"


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

    faces, sign, cen = mesh.cell_faces, mesh.cell_face_sign, mesh.cell_centroid

    # least-squares gradient from face-neighbor means
    d, pinv = _least_squares(mesh)
    du = u[mesh.cell_neighbors] - u
    rhs = np.zeros((mesh.n_cells, mesh.dim))
    for dj, duj in zip(d, du):      # one table row at a time: fixed sum order
        rhs += dj * duj[:, None]
    gradient = np.einsum("cij,cj->ci", pinv, rhs)

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


def _least_squares(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor offsets of every cell's gradient fit and the
    pseudo-inverse of its normal matrix; both depend on the mesh alone, so
    they are computed on first use and kept on the mesh."""
    fit = mesh._derived.get("least_squares")
    if fit is None:
        # periodic neighbors are seen at their translated positions; outflow
        # faces and pads have the cell as its own neighbor and no shift, so
        # they add exact zeros
        faces, sign = mesh.cell_faces, mesh.cell_face_sign
        cen = mesh.cell_centroid
        d = cen[mesh.cell_neighbors] + sign[..., None] * mesh.face_shift[faces] - cen
        ata = np.zeros((mesh.n_cells, mesh.dim, mesh.dim))
        for dj in d:                # one table row at a time: fixed sum order
            ata += dj[:, :, None] * dj[:, None, :]
        # pinv tolerates boundary cells with too few neighbors for a full rank fit
        pinv = np.linalg.pinv(ata)
        for x in (d, pinv):
            x.setflags(write=False)
        fit = mesh._derived["least_squares"] = (d, pinv)
    return fit


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
    per cell the largest |d . n| over its faces.

    Both depend on the mesh and ``flux.direction`` alone, so they are
    computed on first use and kept on the mesh.
    """
    key = ("flux_geometry", flux.direction)
    geometry = mesh._derived.get(key)
    if geometry is None:
        # pads carry a zero normal, hence a zero speed; the max |c| times a
        # speed >= 0 is the max of the products, as rounding is monotone
        normals = (mesh.face_normal[mesh.cell_faces]
                   * np.abs(mesh.cell_face_sign)[..., None])
        face = flux.along(mesh.face_normal)
        cell = Along(flux.direction, np.abs(flux.along(normals).c).max(axis=0))
        for projected in (face, cell):
            projected.c.setflags(write=False)
        geometry = mesh._derived[key] = (face, cell)
    return geometry


class _Stack:
    """The step of groups of fields of a mesh as one state of k * n_cells
    values, field i from entry i * n_cells on, the groups' fields one after
    another in order.  The mesh's tables are tiled k times, copy i's indices
    moved by i fields or i faces, so that one numpy call steps all k and
    each value meets the operands, in the incidence-row order of
    :meth:`Mesh.divergence`, of a step of its group alone.  Each group has
    its own step size and, under global Lax-Friedrichs, its own joint range."""

    def __init__(self, mesh: Mesh, flux, config: SchemeConfig, sizes=(1,)):
        n, f = mesh.n_cells, mesh.n_faces
        self.mesh, self.flux, self.config = mesh, flux, config
        self.sizes = tuple(sizes)
        k = self.k = sum(self.sizes)

        def tile(x, shift=None):    # copy i of an index moves by i * shift
            return x if k == 1 else np.concatenate(
                [x if shift is None else x + i * shift for i in range(k)], -1)

        face, cell = _geometry(mesh, flux)
        self.normal = Along(flux.direction, tile(face.c))
        self.speed = Along(flux.direction, tile(cell.c))
        self.area, self.perimeter = tile(mesh.cell_area), tile(mesh.cell_perimeter)
        self.length = tile(mesh.face_length)
        self.left, self.across = tile(mesh.face_left, n), tile(mesh.face_across, n)
        self.neighbors = tile(mesh.cell_neighbors, n)
        self.faces, self.signs = tile(mesh.cell_faces, f), tile(mesh.cell_face_sign)
        self.joint = _global_lf(config)

    def split(self, x: np.ndarray):
        return (x,) if self.k == 1 else list(x.reshape(self.k, -1))

    def split_record(self, faces: tuple) -> list:
        """A stacked face record as one record per field."""
        if self.k == 1:
            return [faces]
        rows = [None if x is None else x.reshape(self.k, -1) for x in faces]
        return [tuple([None if x is None else x[i] for x in rows])
                for i in range(self.k)]

    def grouped(self, per_field) -> list:
        """A sequence with one entry per field, as tuples per group."""
        it = iter(per_field)
        return [tuple(itertools.islice(it, size)) for size in self.sizes]

    def bound(self, u: np.ndarray) -> list:
        """Each group's stable step: the least over its fields."""
        lo, hi = _range_over(self.neighbors, u)
        s = np.maximum(self.flux.max_wave_speed(lo, hi, self.speed), _SPEED_FLOOR)
        least = (self.area / (self.perimeter * s)).reshape(self.k, -1).min(axis=1)
        return [min(group) for group in self.grouped(
            self.config.cfl_number * x for x in least.tolist())]

    def record(self, u: np.ndarray, within=None) -> tuple:
        """Each field's :func:`_face_record`, stacked; its global LF range
        covers its traces and its entry of ``within``, if one is given."""
        config, flux, n = self.config, self.flux, self.normal
        if config.reconstruction == "constant":
            a, b = u[self.left], u[self.across]
        else:   # each field's gradient fit, with its own tolerance
            a, b = (np.concatenate(x) for x in zip(
                *(_face_states(self.mesh, x, config) for x in self.split(u))))
        lam = None
        if config.flux_rule == "lax_friedrichs":
            rng = None
            if self.joint:
                ranges = zip(*(_value_range(*ab, within=w) for ab, w in zip(
                    zip(self.split(a), self.split(b)), within or [None] * self.k)))
                rng = [np.repeat(x, self.mesh.n_faces) for x in ranges]
            lam = lf_lambda(flux, a, b, n, config.lf_dissipation_mode, rng)
        return a, b, numerical_flux(config.flux_rule, flux, a, b, n, lam), lam

    def _euler(self, u: np.ndarray, dt: np.ndarray, g: np.ndarray) -> np.ndarray:
        div = _signed_sum(self.faces, self.signs, self.length * g)
        per_field = div.reshape(self.k, -1)
        per_field *= dt
        return u - div / self.area

    def _finite(self, u: np.ndarray) -> list:
        """Whether each group's values are all finite."""
        finite = np.isfinite(u)
        if finite.all():
            return [True] * len(self.sizes)
        return [all(group) for group in self.grouped(
            finite.reshape(self.k, -1).all(axis=1).tolist())]

    def step(self, u: np.ndarray, dts, times) -> tuple:
        """The first stage's record and the values of the fields ``u``, each
        group advanced by its entry of ``dts`` from its entry of ``times``,
        and per group the :class:`NumericalError` of a step that left
        non-finite values, or None."""
        within = None   # under global LF, each field's group's values
        if self.joint and self.k > 1:
            within = [_value_range(*group) if len(group) > 1 else None
                      for group in self.grouped(self.split(u))]
            within = [w for w, size in zip(within, self.sizes) for _ in range(size)]
        dt = np.array(dts).repeat(self.sizes)[:, None]
        # a blow-up overflows inside the flux: report it as one NumericalError
        # naming the step, not as a stream of runtime warnings
        with np.errstate(over="ignore", invalid="ignore"):
            faces = self.record(u, within)
            new = self._euler(u, dt, faces[2])
            finite = self._finite(new)
            if self.config.time_integrator == "ssp_rk2":
                # the average of the identity and a doubly advanced state
                g = self.record(new, within)[2]
                new = 0.5 * (u + self._euler(new, dt, g))
                finite = [x and y for x, y in zip(finite, self._finite(new))]
        return faces, new, [None if ok else NumericalError(
            f"non-finite cell values in the step from t={t!r}")
            for ok, t in zip(finite, times)]


def _face_record(mesh: Mesh, flux, config: SchemeConfig, u: np.ndarray) -> tuple:
    """What a stage of the step advances cell values ``u`` with: the face
    traces, the numerical flux and the Lax-Friedrichs coefficient, ``None``
    for other rules."""
    return _Stack(mesh, flux, config).record(u)


def max_stable_dt(field: CellField, flux, config: SchemeConfig) -> float:
    """CFL bound cfl * min_K |K| / (perimeter(K) * s_K).

    ``s_K`` bounds |f'(w) . n| over all faces of K and all states w in the
    hull of the cell mean and its face-neighbor means, floored at 1e-14 so
    stationary fields do not produce an infinite step.
    """
    return _Stack(field.mesh, flux, config).bound(field.values)[0]


def step(field: CellField, flux, config: SchemeConfig, dt: float) -> CellField:
    """One explicit step; refuses time steps beyond the stable bound."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    stack = _Stack(field.mesh, flux, config)
    (stable,) = stack.bound(field.values)
    if dt > stable * (1.0 + 1e-9):
        raise StabilityError(f"dt={dt} exceeds the stable bound {stable}")
    _, new, (error,) = stack.step(field.values, (dt,), (field.t,))
    if error is not None:
        raise error
    return _checked_field(field.mesh, new, field.t + dt)


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
    the first field, step it through every later one with no face record,
    and return their ``finish()`` values."""
    fields = iter(fields)
    field0 = next(fields)
    for obs in observers:
        obs.start(field0)
    for field in fields:
        for obs in observers:
            obs.step(field, None)
    return [obs.finish() for obs in observers]


# a march may take this many times the steps its first stable step would
# need to reach t_final (no shipped march needed more than 3.7x)
_BUDGET_FACTOR = 16
# a march whose first stable step would need more steps than this is refused
# before any step: no shipped problem needs over 1778 at its default t_final
# and resolutions, while 10**9 of the cheapest steps would take over a day
_STEP_CAP = 10 ** 9


def _check_t_final(t_final: float):
    # a nan or infinite horizon is never reached
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final!r}")


def _time_tol(t_final: float) -> float:
    """How close to ``t_final`` a march counts as arrived."""
    return 1e-12 * max(1.0, abs(t_final))


def _march(groups, flux, config: SchemeConfig, t_final: float):
    """The one marching loop: advance every group of fields in ``groups``
    to ``t_final``, all of them in one :class:`_Stack`.  Per step it yields
    one entry per group, in order: ``(after, faces)``, the fields the group
    reaches and each one's first-stage :func:`_face_record`; the error that
    ends the group; or None once the group has ended.

    A group takes its own least stable step from its own time, clipped to
    land on ``t_final``, and under global Lax-Friedrichs each field's
    coefficient also covers the values of its group, so that one monotone
    map advances a group.  A group that arrives or fails leaves the stack,
    which is rebuilt over the groups left; each field gets the bits it gets
    when its group is marched alone.  A group whose values grow shrinks its
    steps without end, so it fails with :class:`NumericalError` past
    ``_BUDGET_FACTOR`` times the ceil((t_final - t0) / dt0) steps its first
    stable step dt0 would need, or at a step too small to advance t.  A
    group that would need more than ``_STEP_CAP`` such steps fails with
    :class:`StepCapError` once its first step is computed, instead of
    yielding it; a first step that breaks down is a :class:`NumericalError`.
    """
    groups = [tuple(group) for group in groups]
    mesh = groups[0][0].mesh
    if any(f.mesh is not mesh for group in groups for f in group):
        raise ValueError("fields marched together need a shared mesh")
    _check_t_final(t_final)
    tol = _time_tol(t_final)
    if any(t_final < group[0].t - tol for group in groups):
        raise ValueError("t_final lies before the initial time")
    budget, need = [None] * len(groups), [0.0] * len(groups)
    alive, live = list(range(len(groups))), []
    for n in itertools.count():
        marching = [i for i in alive if groups[i][0].t < t_final - tol]
        if not marching:
            return
        if marching != live:    # the stack holds the groups still marching
            live = marching
            stack = _Stack(mesh, flux, config, [len(groups[i]) for i in live])
            u = np.concatenate([f.values for i in live for f in groups[i]])
        steps = [None] * len(groups)
        times, dts, stables = [], [], stack.bound(u)
        for i, stable in zip(live, stables):
            t = groups[i][0].t
            dt = min(stable, float(t_final) - t)
            times.append(t)
            dts.append(dt)
            if budget[i] is None:
                need[i] = (t_final - t) / stable    # past the cap, refused below
                budget[i] = _BUDGET_FACTOR * math.ceil(min(need[i], _STEP_CAP))
            if n >= budget[i] or t + dt == t:
                lo, hi = _value_range(*(f.values for f in groups[i]))
                why = (f"step budget of {budget[i]} steps spent" if n >= budget[i]
                       else "the step no longer advances t")
                steps[i] = NumericalError(f"{why} at step {n}: t={t!r} dt={dt!r}, "
                                          f"values in [{lo!r}, {hi!r}]")
        faces, u, errors = stack.step(u, dts, times)
        values, records = stack.split(u), stack.split_record(faces)
        first = 0           # the group's first field in the stack
        for i, t, dt, stable, error in zip(live, times, dts, stables, errors):
            last = first + len(groups[i])
            if steps[i] is None:
                steps[i] = error
            if steps[i] is None and n == 0 and need[i] > _STEP_CAP:
                steps[i] = StepCapError(
                    f"reaching t_final={t_final!r} from t={t!r} with the first "
                    f"stable step dt={stable!r} takes about {need[i]:.3e} steps, "
                    f"more than the cap of {_STEP_CAP} steps")
            if steps[i] is None:
                groups[i] = tuple([_checked_field(mesh, x, f.t + dt) for x, f
                                   in zip(values[first:last], groups[i])])
                steps[i] = groups[i], tuple(records[first:last])
            else:
                alive.remove(i)
            first = last
        del faces, records
        yield tuple(steps)
        del steps       # no face record held while the next one is built


def _alone(march):
    """The entries of a march of one group; the error that ends it raised."""
    for (entry,) in march:
        if isinstance(entry, Exception):
            raise entry
        yield entry


def run(initial: CellField, flux, config: SchemeConfig,
        t_final: float) -> Trajectory:
    """March to ``t_final``, the last step clipped to land on it.

    Every accepted step is recorded, so downstream audits can replay the
    full discrete history.  ``t_final`` equal to the initial time returns
    a single-entry trajectory.
    """
    fields = [initial]
    for (after,), _ in _alone(_march([(initial,)], flux, config, t_final)):
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
    for (a, b), _ in _alone(_march([(initial_a, initial_b)], flux, config,
                                   t_final)):
        fa.append(a)
        fb.append(b)
    return Trajectory(fa), Trajectory(fb)

"""The march before it stacked its fields, verbatim: one CFL bound, one
face record and one step per field per step.  The bit-identity reference
of ``test_march.py``.

Changed from the original: ``Mesh.neighbor_range`` and ``Mesh.divergence``
are the module functions below (verbatim bodies, so a later change to the
mesh methods does not change this reference), and the flux geometry is
cached under its own key.  ``divergence`` builds the table of slots into
[v; -v; 0] it reads from ``cell_faces`` and ``cell_face_sign``, as the mesh
no longer keeps it.
"""

import itertools
import math

import numpy as np

from fvaudit.mesh import Mesh
from fvaudit.physics import Along
from fvaudit.scheme import (CellField, NumericalError, SchemeConfig,
                            StabilityError, StepCapError, _check_t_final,
                            _time_tol, _value_range, lf_lambda,
                            numerical_flux)

_SPEED_FLOOR = 1e-14
_BUDGET_FACTOR = 16
_STEP_CAP = 10 ** 9


def divergence(mesh, face_values) -> np.ndarray:
    v = np.asarray(face_values, dtype=float)
    if v.shape[:1] != (mesh.n_faces,):
        raise ValueError(f"expected {mesh.n_faces} face values, got {v.shape}")
    f, faces, signs = mesh.n_faces, mesh.cell_faces, mesh.cell_face_sign
    signed_slots = np.where(signs > 0, faces,
                            np.where(signs < 0, faces + f, 2 * f))
    signed = np.concatenate([v, -v, np.zeros((1,) + v.shape[1:])])
    out = np.zeros((mesh.n_cells,) + v.shape[1:])
    for slots in signed_slots:
        out += signed[slots]
    return out


def neighbor_range(mesh, u) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    around = u[mesh.cell_neighbors]
    return (np.minimum(u, around.min(axis=0)),
            np.maximum(u, around.max(axis=0)))


def _trace(mesh: Mesh, u: np.ndarray, gradient: np.ndarray,
           cell_idx: np.ndarray, at: np.ndarray) -> np.ndarray:
    offs = at - mesh.cell_centroid[cell_idx]
    return u[cell_idx] + (gradient[cell_idx] * offs).sum(-1)


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

    lo, hi = neighbor_range(mesh, u)

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


def _geometry(mesh: Mesh, flux) -> tuple[Along, Along]:
    """The flux direction as the mesh sees it: c = d . n of every face, and
    |d . n| of every incidence-table entry (0 on pads).

    Both depend on the mesh and ``flux.direction`` alone, so they are
    computed on first use and kept on the mesh.
    """
    key = ("parent_flux_geometry", flux.direction)
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
    div = divergence(mesh, mesh.face_length * g)
    return values - dt * div / mesh.cell_area


def max_stable_dt(field: CellField, flux, config: SchemeConfig) -> float:
    """CFL bound cfl * min_K |K| / (perimeter(K) * s_K).

    ``s_K`` bounds |f'(w) . n| over all faces of K and all states w in the
    hull of the cell mean and its face-neighbor means, floored at 1e-14 so
    stationary fields do not produce an infinite step.
    """
    mesh = field.mesh
    lo, hi = neighbor_range(mesh, field.values)
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
    A march that would need more than ``_STEP_CAP`` such steps raises
    :class:`StepCapError` instead of yielding its first step, once that
    step has been computed: a first step that already breaks down is a
    :class:`NumericalError`.
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
            need = (t_final - t) / stable    # past the cap, refused below
            budget = _BUDGET_FACTOR * math.ceil(min(need, _STEP_CAP))
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
        if n == 0 and need > _STEP_CAP:
            raise StepCapError(
                f"reaching t_final={t_final!r} from t={t!r} with the first "
                f"stable step dt={stable!r} takes about {need:.3e} steps, "
                f"more than the cap of {_STEP_CAP} steps")
        yield fields, after, dt, faces
        del faces       # not held while the next record is built
        fields = after

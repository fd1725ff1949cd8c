"""Convergence studies, solver audits and deterministic report files.

A study solves one of the shipped problems on a ladder of refined meshes,
measures L1 errors against the closed-form reference, fits the convergence
rate and runs the audits that are mathematically binding for the chosen
scheme (exactness checks, not truncation-order checks).  Reports are
written so a rerun with the same configuration produces byte-identical
files; wall-clock timings go to a separate file for that reason.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from . import entropy as entropy_mod
from . import young as young_mod
from .mesh import Mesh, triangulated_rectangle, uniform_interval_mesh
from .physics import FluxModel, ReferenceSolution, make_flux, reference
from .scheme import (CellField, SchemeConfig, StepCapError, _march, _value_range,
                     cell_averages)
from .vtkio import write_vtk

__all__ = [
    "ProblemSpec",
    "PROBLEMS",
    "StudyConfig",
    "AuditResult",
    "LevelResult",
    "StudyResult",
    "l1_error",
    "fit_rate",
    "parse_config",
    "config_echo",
    "exact_regime",
    "build_problem_mesh",
    "initial_field",
    "InvalidRequest",
    "study_observers",
    "solve_level",
    "run_study",
    "write_study_report",
]

_EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# problems

@dataclass(frozen=True)
class ProblemSpec:
    """A named test problem: flux, domain builder, data and reference."""

    name: str
    dim: int
    periodic: bool
    flux_fn: Callable[[], FluxModel]
    mesh_fn: Callable[[int], Mesh]
    initial_fn: Callable[[Mesh], np.ndarray]
    reference_fn: Callable[[FluxModel], ReferenceSolution] | None
    default_t_final: float
    states: tuple  # landmark states worth adding to entropy k grids


def _avg(fn) -> Callable[[Mesh], np.ndarray]:
    return lambda mesh: cell_averages(mesh, fn)


def _step_initial(x0: float, ul: float, ur: float):
    def fn(x):
        return np.where(x[:, 0] < x0, ul, ur)
    return fn


PROBLEMS: dict[str, ProblemSpec] = {}


def _register(spec: ProblemSpec):
    PROBLEMS[spec.name] = spec


_register(ProblemSpec(
    name="riemann_shock", dim=1, periodic=False,
    flux_fn=lambda: make_flux("burgers"),
    mesh_fn=lambda n: uniform_interval_mesh(n, -0.5, 1.0, periodic=False),
    initial_fn=_avg(_step_initial(0.0, 1.0, 0.0)),
    reference_fn=lambda fl: reference("riemann_shock", fl),
    default_t_final=0.4, states=(1.0, 0.0)))

_register(ProblemSpec(
    name="riemann_rarefaction", dim=1, periodic=False,
    flux_fn=lambda: make_flux("burgers"),
    mesh_fn=lambda n: uniform_interval_mesh(n, -1.0, 1.0, periodic=False),
    initial_fn=_avg(_step_initial(0.0, -1.0, 1.0)),
    reference_fn=lambda fl: reference("riemann_rarefaction", fl),
    default_t_final=0.4, states=(-1.0, 1.0)))

_register(ProblemSpec(
    name="smooth_sine", dim=1, periodic=True,
    flux_fn=lambda: make_flux("burgers"),
    mesh_fn=lambda n: uniform_interval_mesh(n, 0.0, 1.0, periodic=True),
    initial_fn=_avg(lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])),
    reference_fn=lambda fl: reference("smooth_sine_preshock", fl),
    default_t_final=0.3, states=(0.25, 0.75)))

_register(ProblemSpec(
    name="advected_profile", dim=1, periodic=True,
    flux_fn=lambda: make_flux("linear_advection", a=1.0),
    mesh_fn=lambda n: uniform_interval_mesh(n, 0.0, 1.0, periodic=True),
    initial_fn=_avg(lambda x: np.sin(2.0 * np.pi * x[:, 0])),
    reference_fn=lambda fl: reference("advected_profile", fl),
    default_t_final=0.5, states=(-1.0, 1.0)))

_register(ProblemSpec(
    name="buckley_leverett_step", dim=1, periodic=False,
    flux_fn=lambda: make_flux("buckley_leverett"),
    mesh_fn=lambda n: uniform_interval_mesh(n, -0.5, 1.0, periodic=False),
    initial_fn=_avg(_step_initial(0.0, 1.0, 0.0)),
    reference_fn=None,
    default_t_final=0.3, states=(1.0, 0.0)))

_register(ProblemSpec(
    name="checkerboard", dim=1, periodic=True,
    flux_fn=lambda: make_flux("linear_advection", a=1.0),
    mesh_fn=lambda n: uniform_interval_mesh(2 * (n // 2), 0.0, 1.0, periodic=True),
    initial_fn=young_mod.checkerboard_values,
    reference_fn=None,
    default_t_final=0.25, states=(-1.0, 1.0)))

_register(ProblemSpec(
    name="expansion_shock", dim=1, periodic=True,
    flux_fn=lambda: make_flux("burgers"),
    mesh_fn=lambda n: uniform_interval_mesh(n, -1.0, 1.0, periodic=True),
    initial_fn=_avg(lambda x: np.sign(x[:, 0])),
    reference_fn=None,
    default_t_final=0.25, states=(-1.0, 1.0)))

_register(ProblemSpec(
    name="rotated_shock_2d", dim=2, periodic=False,
    flux_fn=lambda: make_flux("rotated_burgers_2d", angle=0.0),
    mesh_fn=lambda n: triangulated_rectangle(n, n, -0.5, 0.0, 1.0, 1.0,
                                             periodic=False),
    initial_fn=_avg(_step_initial(0.0, 1.0, 0.0)),
    reference_fn=None,
    default_t_final=0.3, states=(1.0, 0.0)))


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs; parsable from key=value text."""

    problem: str = "riemann_shock"
    flux_rule: str = "godunov"
    reconstruction: str = "constant"
    time_integrator: str = "euler"
    cfl_number: float = 0.45
    lf_dissipation_mode: str = "local"
    base_n: int = 50
    levels: int = 4
    t_final: float | None = None
    audits: str = "auto"     # "auto", "none" or comma-separated names
    seed: int = 0
    n_v: int = 128
    k_points: int = 33
    patches: int = 8
    bins: int = 64
    vtk: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(
                f"unknown problem {self.problem!r}; known: {sorted(PROBLEMS)}")
        if self.base_n < 2:
            raise ValueError("base_n must be at least 2")
        if self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.t_final is not None and not (math.isfinite(self.t_final)
                                             and self.t_final >= 0.0):
            raise ValueError("t_final must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # audit sizes fail here, before any level is solved, with the
        # messages of the layers that use them
        if self.n_v < 8:
            raise ValueError("velocity grid needs at least 8 nodes")
        if self.k_points < 2:
            raise ValueError("need at least two grid points")
        if self.bins < 2:
            raise ValueError("need at least two bins")
        if self.patches < 1:
            raise ValueError("need at least one patch per axis")
        self.audit_names()
        # scheme parameters are validated where they are used
        self.scheme()

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(
            flux_rule=self.flux_rule, reconstruction=self.reconstruction,
            time_integrator=self.time_integrator, cfl_number=self.cfl_number,
            lf_dissipation_mode=self.lf_dissipation_mode)

    @property
    def resolved_t_final(self) -> float:
        if self.t_final is not None:
            return self.t_final
        return PROBLEMS[self.problem].default_t_final

    def audit_names(self) -> tuple[str, ...]:
        if self.audits == "none":
            return ()
        if self.audits == "auto":
            spec = PROBLEMS[self.problem]
            return tuple(name for name, audit in AUDITS.items()
                         if audit.gated(self, spec))
        names = tuple(s.strip() for s in self.audits.split(",") if s.strip())
        unknown = [n for n in names if n not in AUDIT_ORDER]
        if unknown:
            raise ValueError(f"unknown audits {unknown}; known: {AUDIT_ORDER}")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"audits named more than once: {repeated}")
        return names


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _parse_bool(key: str, text: str) -> bool:
    if text.lower() not in _TRUE + _FALSE:
        raise ValueError(f"{key} must be one of {'/'.join(_TRUE + _FALSE)}, got {text!r}")
    return text.lower() in _TRUE


def _parsers() -> dict[str, Callable]:
    """Every :class:`StudyConfig` field in declaration order, with how
    ``key=value`` text becomes it; an optional field parses as its type."""
    hints, out = get_type_hints(StudyConfig), {}
    for f in fields(StudyConfig):
        kind = hints[f.name]
        out[f.name] = ((lambda s, key=f.name: _parse_bool(key, s))
                       if kind is bool else (get_args(kind) or (kind,))[0])
    return out


_CONFIG_FIELDS = _parsers()


def exact_regime(cfg: StudyConfig) -> bool:
    """First-order E-flux runs, where the exact audits must hold to rounding."""
    return (cfg.reconstruction == "constant" and cfg.time_integrator == "euler"
            and cfg.flux_rule in ("godunov", "lax_friedrichs", "engquist_osher"))


def parse_config(pairs, base: StudyConfig | None = None) -> StudyConfig:
    """Build a config from ``key=value`` strings (or lines of text)."""
    if isinstance(pairs, str):
        pairs = pairs.splitlines()
    updates = {}
    for raw in pairs:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(
                f"unknown config key {key!r}; known: {sorted(_CONFIG_FIELDS)}")
        updates[key] = _CONFIG_FIELDS[key](value)
    cfg = base if base is not None else StudyConfig()
    return replace(cfg, **updates)


def config_echo(cfg: StudyConfig) -> str:
    """Canonical one-line rendering in field order, stable across runs:
    floats as ``.17g``, ``t_final`` resolved, bools in lower case."""
    parts = []
    for name, parse in _CONFIG_FIELDS.items():
        value = cfg.resolved_t_final if name == "t_final" else getattr(cfg, name)
        text = f"{value:.17g}" if parse is float else str(value)
        parts.append(f"{name}={text.lower() if type(value) is bool else text}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# errors and rates

def l1_error(field: CellField, ref: ReferenceSolution) -> float:
    """L1 distance between cell averages and the cell-averaged reference."""
    mesh = field.mesh
    exact = cell_averages(mesh, lambda x: ref(field.t, x))
    return float(mesh.cell_area @ np.abs(field.values - exact))


def fit_rate(hs, errors) -> float:
    """Least-squares slope of log error against log h."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.shape != errors.shape or hs.size < 2:
        raise ValueError("need at least two (h, error) pairs")
    if np.isnan(hs).all() or (hs == hs[0]).all():
        raise ValueError("need at least two distinct mesh sizes")
    if not (np.all(hs > 0.0) and np.all(errors > 0.0)):
        raise ValueError("mesh sizes and errors must be positive")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# single level

def build_problem_mesh(cfg: StudyConfig, level: int) -> Mesh:
    return PROBLEMS[cfg.problem].mesh_fn(cfg.base_n * 2 ** level)


def initial_field(spec: ProblemSpec, mesh: Mesh) -> CellField:
    return CellField(mesh, spec.initial_fn(mesh), 0.0)


# ---------------------------------------------------------------------------
# audits: observers of one level's steps

@dataclass(frozen=True)
class AuditResult:
    """One gate's verdict.  ``worst_step`` and ``worst_cell`` locate the
    largest signed violation (max principle and entropy: step and cell; TV
    and contraction: step), the first one in (step, cell) order on ties,
    and are -1 where the audit has no such location or the run no step; a
    verdict over levels may also name its ``level`` and ``worst_k``."""

    name: str
    value: float        # the measured quantity; a study audit's violation
    threshold: float
    passed: bool
    detail: str = ""
    worst_step: int = -1
    worst_cell: int = -1
    level: int = -1
    worst_k: float | None = None


def _exact(name: str, worst: float, scale: float, detail: str, *where) -> AuditResult:
    """The verdict on a ``worst`` violation that must round to 0 at ``scale``."""
    value, tol = max(0.0, worst), _EXACT_TOL * max(1.0, scale)
    return AuditResult(name, value, tol, value <= tol, detail, *where)


class _Conservation:
    def start(self, field0: CellField):
        self.mass0 = field0.total_mass
        self.drift = 0.0

    def step(self, field, faces):
        self.drift = max(self.drift, abs(field.total_mass - self.mass0))

    def finish(self) -> AuditResult:
        return _exact("conservation", self.drift / max(1.0, abs(self.mass0)), 1.0,
                      "relative drift of total mass over the run")


class _MaxPrinciple:
    def start(self, field0: CellField):
        self.lo, self.hi = _value_range(field0.values)
        self.steps, self.worst, self.where = 0, -math.inf, (-1, -1)

    def step(self, field, faces):
        escape = np.maximum(field.values - self.hi, self.lo - field.values)
        cell = int(escape.argmax())
        if escape[cell] > self.worst:   # strict: ties keep the earliest step
            self.worst, self.where = float(escape[cell]), (self.steps, cell)
        self.steps += 1

    def finish(self) -> AuditResult:
        return _exact("max_principle", self.worst, self.hi - self.lo,
                      "largest escape from the initial data range", *self.where)


def _interior_pairs(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) cells of every interior face."""
    interior = mesh.face_right >= 0
    return mesh.face_left[interior], mesh.face_right[interior]


def _jumps(u: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    return float(np.abs(u[right] - u[left]).sum())


class _TotalVariation:
    def start(self, field0: CellField):
        self.pairs = _interior_pairs(field0.mesh)
        self.tv0 = self.tv = _jumps(field0.values, *self.pairs)
        self.steps, self.growth, self.where = 0, -math.inf, -1

    def step(self, field, faces):
        tv = _jumps(field.values, *self.pairs)
        if tv - self.tv > self.growth:  # strict: ties keep the earliest step
            self.growth, self.where = tv - self.tv, self.steps
        self.tv, self.steps = tv, self.steps + 1

    def finish(self) -> AuditResult:
        return _exact("tv", self.growth, self.tv0,
                      "largest one-step growth of total variation", self.where)


class _Contraction:
    """L1 distance to a twin run from bumped data.  The twin pair is a
    group of the level's own march, handed to the driver by :meth:`twin`:
    it takes its own steps, from the level's initial time to
    ``cfg.resolved_t_final``, and the distance is folded as each step
    arrives, so no field of either twin is kept.  The twin arrives at
    ``t_final``, not at the time the level reached; the two are bit-equal
    whenever the level's last step is clipped onto ``t_final``
    (``t_final - t`` is exact for t >= t_final / 2), and a level whose
    steps land unclipped ends within 1e-12 of it.  A twin that fails
    raises its error from :meth:`finish`, so it fails the level after the
    level's own march has ended."""

    def start(self, field0: CellField):
        mesh = field0.mesh
        center = float(mesh.vertices[:, 0].mean())
        bump = cell_averages(
            mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
        twin = CellField(mesh, field0.values + bump, field0.t)
        self.area, self.pair = mesh.cell_area, (field0, twin)
        self.first = self.last = self._distance(self.pair)
        self.steps, self.growth, self.where, self.error = 0, -math.inf, -1, None

    def _distance(self, pair) -> float:
        a, b = pair
        return float(self.area @ np.abs(a.values - b.values))

    def twin(self):
        """The pair's initial fields, to march as a group of the level's
        stack, and the function that takes each of the group's entries."""
        pair, self.pair = self.pair, None
        return pair, self._take

    def _take(self, entry):
        if isinstance(entry, Exception):
            self.error = entry
            return
        dist = self._distance(entry[0])
        if dist - self.last > self.growth:  # strict: ties keep the earliest step
            self.growth, self.where = dist - self.last, self.steps
        self.last, self.steps = dist, self.steps + 1

    def step(self, field, faces):
        pass

    def finish(self) -> AuditResult:
        if self.error is not None:
            raise self.error
        return _exact("contraction", self.growth, self.first,
                      "largest one-step growth of the L1 distance to a twin run",
                      self.where)


class _Entropy(entropy_mod.EntropyAudit):
    def finish(self) -> AuditResult:
        rpt = super().finish()
        return AuditResult("entropy", rpt.worst, rpt.tol, rpt.passed,
                           "worst positive cell entropy residual over "
                           f"{rpt.k_grid.size} k values",
                           rpt.worst_step, rpt.worst_cell)


def _entropy_observer(cfg: StudyConfig, flux, audit=entropy_mod.EntropyAudit):
    """A level's cell entropy ``audit`` as a function of its state range:
    ``cfg.k_points`` Kruzkov states over the range plus the problem's
    landmark states."""
    spec, scheme = PROBLEMS[cfg.problem], cfg.scheme()
    return lambda lo, hi: audit(
        flux, scheme, entropy_mod.kruzkov_k_grid(lo, hi, n=cfg.k_points,
                                                 extra=spec.states),
        tol=_EXACT_TOL)


# Each study audit, in report order: ``observer(cfg, flux)`` builds it, and
# ``audits = auto`` runs it where its theorem holds, ``gated(cfg, spec)``.
_Audit = NamedTuple("_Audit", [("observer", Callable), ("gated", Callable)])
AUDITS: dict[str, _Audit] = {
    "conservation": _Audit(lambda cfg, flux: _Conservation(),
                           lambda cfg, spec: spec.periodic),
    "max_principle": _Audit(lambda cfg, flux: _MaxPrinciple(),
                            lambda cfg, spec: exact_regime(cfg)),
    "tv": _Audit(lambda cfg, flux: _TotalVariation(),
                 lambda cfg, spec: exact_regime(cfg) and spec.dim == 1),
    "contraction": _Audit(lambda cfg, flux: _Contraction(),
                          lambda cfg, spec: exact_regime(cfg) and spec.periodic),
    "entropy": _Audit(lambda cfg, flux: _entropy_observer(cfg, flux, _Entropy),
                      lambda cfg, spec: exact_regime(cfg)),
}
AUDIT_ORDER = tuple(AUDITS)


def study_observers(cfg: StudyConfig, level: int, flux) -> list:
    """The audits ``cfg.audit_names()`` selects, in that order, each
    finishing with an :class:`AuditResult`."""
    return [AUDITS[name].observer(cfg, flux) for name in cfg.audit_names()]


# ---------------------------------------------------------------------------
# the level driver

class InvalidRequest(ValueError):
    """Level 0's observers or march refused to start: nothing has been
    solved."""


def _started(entries, rng: tuple[float, float], field0: CellField) -> list:
    observers = [e(*rng) if callable(e) else e for e in entries]
    for obs in observers:
        obs.start(field0)
    return observers


def solve_level(cfg: StudyConfig, level: int, observe=study_observers) -> LevelResult:
    """Solve one level, streaming its steps into observers.

    ``observe(cfg, level, flux)`` lists observers, objects with
    ``start(field0)``, ``step(field, faces)`` (each field the march
    reaches, ``faces`` the first-stage face record its step advanced with)
    and ``finish()``, or functions of the state range ``(lo, hi)`` that
    build one from the initial data's range.  An observer may also have
    ``twin()``, called after ``start``, which returns a group of fields to
    march to ``t_final`` in the level's own march and the function that
    takes each of the group's entries: ``(after, faces)``, or the error
    that ended the group.  A level whose range leaves the initial one is
    marched again, deterministically, twins and all, into observers
    started afresh from the true range.  The level keeps its final field
    and range, never its trajectory.  A failure while level 0's observers
    are built or started, or a march of level 0 refused before its first
    step (:class:`StepCapError`), is an :class:`InvalidRequest`; a twin's
    refusal is the observer's to raise, from ``finish``.
    """
    return _solve_on(build_problem_mesh(cfg, level), cfg, level, observe)


def _solve_on(mesh: Mesh, cfg: StudyConfig, level: int, observe) -> LevelResult:
    """:func:`solve_level` on the level's ``mesh``, already built.  Each
    pass over the level is one :func:`_march`: the level's field is its
    first group and each observer's twin one more, so a level that is
    marched again takes its twins along.  The level's own error ends the
    pass at once; a twin's goes to its observer."""
    spec = PROBLEMS[cfg.problem]
    flux = spec.flux_fn()
    initial = initial_field(spec, mesh)
    rng = _value_range(initial.values)
    try:
        entries = observe(cfg, level, flux)
        observers = _started(entries, rng, initial)
    except Exception as exc:
        if level == 0:
            raise InvalidRequest(str(exc)) from exc
        raise
    ranged = any(callable(e) for e in entries)

    def feed(observers, built):
        # a pass feeds its observers while the range is the one they were
        # built for, and marches the twins they hand over in the same stack
        twins = [obs.twin() for obs in observers if hasattr(obs, "twin")]
        groups = [(initial,)] + [fields for fields, _ in twins]
        reached, steps, final = built, 0, initial
        for lead, *rest in _march(groups, flux, cfg.scheme(), cfg.resolved_t_final):
            if isinstance(lead, Exception):
                raise lead
            if lead is not None:
                (field,), (faces,) = lead
                reached = _value_range(field.values, within=reached)
                if reached == built or not ranged:
                    for obs in observers:
                        obs.step(field, faces)
                steps, final = steps + 1, field
            for (_, take), entry in zip(twins, rest):
                if entry is not None:
                    take(entry)
        return reached, steps, final

    try:
        reached, steps, final = feed(observers, rng)
    except StepCapError as exc:
        if level == 0:
            raise InvalidRequest(str(exc)) from exc
        raise
    if reached != rng and ranged:
        observers = _started(entries, reached, initial)
        feed(observers, reached)

    return LevelResult(level=level, n_cells=mesh.n_cells, h=mesh.h, steps=steps,
                       l1=float("nan"), audits=[obs.finish() for obs in observers],
                       runtime=0.0, final=final, state_range=reached)


# ---------------------------------------------------------------------------
# studies

@dataclass
class LevelResult:
    level: int
    n_cells: int
    h: float
    steps: int
    l1: float           # nan when no reference or the level failed
    audits: list        # what each observer's finish() returned, in order
    runtime: float
    error_message: str = ""
    final: CellField | None = None    # None when the level failed
    state_range: tuple = (float("nan"), float("nan"))

    @property
    def failed(self) -> bool:
        return bool(self.error_message)


@dataclass
class StudyResult:
    config: StudyConfig
    levels: list
    fitted_rate: float  # nan when fewer than two measurable levels

    @property
    def audits_pass(self) -> bool:
        checks = [a.passed for lv in self.levels for a in lv.audits]
        return all(checks) and not any(lv.failed for lv in self.levels)

    @property
    def rate_pairs(self) -> list[tuple[float, float]]:
        return [(lv.h, lv.l1) for lv in self.levels
                if not lv.failed and np.isfinite(lv.l1) and lv.l1 > 0.0]


def run_study(cfg: StudyConfig, observe=study_observers) -> StudyResult:
    """Solve every level as :func:`solve_level` does, measure its L1 error and
    fit the L1 convergence rate.  A problem whose reference is not valid at
    ``t_final`` has none: its errors and rate are nan.

    A level that raises is recorded as failed and the study continues;
    the report marks the failure and the rate uses the surviving levels.
    Only an :class:`InvalidRequest` ends the study, and only level 0 raises
    one, so level 0 is solved first, alone, in this process.  With at
    least two levels left, at least two usable CPUs and ``os.fork``, the
    rest are solved side by side (:func:`_solve_split`): the finest in this
    process, all the others in one forked child.  Only level indices go
    into the child, which inherits ``cfg``, ``observe`` and the reference
    solution; only its pickled :class:`LevelResult` values come back,
    through a pipe, so what the observers' ``finish()`` return must pickle
    (if it does not, the child's levels fail with the pickling error).
    Otherwise every level is solved here, by the same per-level function.
    Every level's ``runtime`` is measured in the process that solved it.
    """
    spec = PROBLEMS[cfg.problem]
    ref = spec.reference_fn(spec.flux_fn()) if spec.reference_fn else None
    if ref is not None and not ref.covers(cfg.resolved_t_final):
        ref = None      # past its horizon the problem has no reference

    def solve(lvl: int) -> LevelResult:
        """The one per-level function, in whichever process runs the level."""
        start = time.perf_counter()
        mesh = None
        try:
            mesh = build_problem_mesh(cfg, lvl)
            lv = _solve_on(mesh, cfg, lvl, observe)
            if ref is not None:
                lv.l1 = l1_error(lv.final, ref)
        except InvalidRequest:
            raise
        except Exception as exc:  # record and continue with the next level
            lv = _failed_level(lvl, exc, mesh)
        lv.runtime = time.perf_counter() - start
        return lv

    levels = [solve(0)] + _solve_split(solve, list(range(1, cfg.levels)))
    result = StudyResult(config=cfg, levels=levels, fitted_rate=float("nan"))
    pairs = result.rate_pairs
    if len(pairs) >= 2:
        result.fitted_rate = fit_rate(*zip(*pairs))
    return result


def _failed_level(lvl: int, exc: BaseException, mesh: Mesh | None = None) -> LevelResult:
    # a mesh that could not be built has no cells and no size
    return LevelResult(level=lvl, n_cells=getattr(mesh, "n_cells", 0),
                       h=getattr(mesh, "h", float("nan")), steps=0,
                       l1=float("nan"), audits=[], runtime=0.0,
                       error_message=f"{type(exc).__name__}: {exc}")


def _cpus() -> int:
    """How many CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _solve_split(solve, rest: list[int]) -> list[LevelResult]:
    """``solve`` every level of ``rest``, in order, the finest here and the
    others in one forked child where the process may use at least two
    CPUs and can fork.

    A level costs about cells x steps, 2^(level (dim + 1)) up to a
    constant, so the finest costs more than all coarser ones together and
    a second child could not shorten the run.  The child writes its pickled
    results to a pipe and leaves with ``os._exit``; if it dies its levels
    fail with its exit status, and if it cannot be forked they are solved
    here.  The pipe is read and the child reaped before this returns; if
    this process raises, the child is killed and reaped first.
    """
    if len(rest) < 2 or _cpus() < 2 or not hasattr(os, "fork"):
        return [solve(lvl) for lvl in rest]
    *others, finest = rest
    try:
        pid, fd = _fork_levels(solve, others)
    except OSError:
        return [solve(lvl) for lvl in rest]
    status = None
    try:
        last = solve(finest)
        with open(fd, "rb", closefd=False) as pipe:
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:      # this process raised
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(fd)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(payload) + [last]
    how = (f"exited with status {code}" if code > 0
           else f"was killed by signal {-code}")
    died = ChildProcessError("the process solving levels "
                             f"{', '.join(map(str, others))} {how}")
    return [_failed_level(lvl, died) for lvl in others] + [last]


def _fork_levels(solve, share: list[int]) -> tuple[int, int]:
    """Fork a child that solves ``share`` and writes the pickled list of its
    results to a pipe; (the child's pid, the pipe's read end).  A child
    that raises, or whose results do not pickle, sends its levels failed
    with that error."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                payload = pickle.dumps([solve(lvl) for lvl in share],
                                       pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:    # named, as the serial path would
                payload = pickle.dumps([_failed_level(lvl, exc) for lvl in share],
                                       pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


# ---------------------------------------------------------------------------
# report files

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_study_report(result: StudyResult, out_dir) -> dict[str, Path]:
    """Write report.csv, rate.dat, timings.csv and the final field of every
    level that did not fail (and its VTK dump with ``vtk = true``).

    Everything except timings.csv depends only on the configuration and
    the arithmetic, so reruns are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    files = {}

    audit_cols = [f"audit_{name}" for name in AUDIT_ORDER]
    header = ["level", "n_cells", "h", "steps", "l1_error"] + audit_cols + ["status"]
    rows = []
    for lv in result.levels:
        by_name = {a.name: a for a in lv.audits}
        row = [str(lv.level), str(lv.n_cells), _fmt(lv.h), str(lv.steps),
               _fmt(lv.l1) if np.isfinite(lv.l1) else "nan"]
        for name in AUDIT_ORDER:
            a = by_name.get(name)
            row.append(_fmt(a.value) if a is not None else "nan")
        row.append("failed:" + lv.error_message.replace(",", ";")
                   if lv.failed else "ok")
        rows.append(",".join(row))
    files["report"] = _write_lines(out / "report.csv", [
        f"# config: {config_echo(cfg)}",
        f"# seed: {cfg.seed}",
        f"# fitted_rate: {_fmt(result.fitted_rate)}",
        f"# audits_pass: {str(result.audits_pass).lower()}",
        ",".join(header), *rows])
    files["rate"] = _write_lines(out / "rate.dat", [
        "# h  l1_error",
        f"# fitted_rate: {_fmt(result.fitted_rate)}",
        *(f"{_fmt(h)} {_fmt(e)}" for h, e in result.rate_pairs)])
    files["timings"] = _write_lines(out / "timings.csv", [
        "level,n_cells,steps,runtime_seconds",
        *(f"{lv.level},{lv.n_cells},{lv.steps},{lv.runtime:.6f}"
          for lv in result.levels)])

    for lv in result.levels:
        if lv.final is None:
            continue
        lvl = lv.level
        files[f"field_{lvl}"] = _write_field_dump(
            out / f"field_level{lvl}.txt", lv.final)
        if cfg.vtk:
            vtk_path = out / f"field_level{lvl}.vtk"
            write_vtk(vtk_path, lv.final.mesh, {"u": lv.final.values},
                      title=f"{cfg.problem} level {lvl}")
            files[f"vtk_{lvl}"] = vtk_path
    return files


def _write_field_dump(path: Path, field: CellField) -> Path:
    mesh = field.mesh
    cols = "idx x value" if mesh.dim == 1 else "idx x y value"
    return _write_lines(path, [
        f"# t = {_fmt(field.t)}", f"# {cols}",
        *(f"{i} {' '.join(_fmt(c) for c in mesh.cell_centroid[i])} "
          f"{_fmt(field.values[i])}" for i in range(mesh.n_cells))])


def _write_lines(path: Path, lines) -> Path:
    """Write ``lines`` to ``path``, each ended by a newline."""
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)
    return path

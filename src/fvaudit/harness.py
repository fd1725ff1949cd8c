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
import time
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import Callable

import numpy as np

from . import entropy as entropy_mod
from . import young as young_mod
from .mesh import Mesh, triangulated_rectangle, uniform_interval_mesh
from .physics import FluxModel, ReferenceSolution, make_flux, reference
from .scheme import (CellField, SchemeConfig, _march, _replay, cell_averages,
                     step)
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

AUDIT_ORDER = ("conservation", "max_principle", "tv", "contraction", "entropy")
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
    reference_fn=lambda fl: reference("riemann_shock", fl, ul=1.0, ur=0.0),
    default_t_final=0.4, states=(1.0, 0.0)))

_register(ProblemSpec(
    name="riemann_rarefaction", dim=1, periodic=False,
    flux_fn=lambda: make_flux("burgers"),
    mesh_fn=lambda n: uniform_interval_mesh(n, -1.0, 1.0, periodic=False),
    initial_fn=_avg(_step_initial(0.0, -1.0, 1.0)),
    reference_fn=lambda fl: reference("riemann_rarefaction", fl, ul=-1.0, ur=1.0),
    default_t_final=0.4, states=(-1.0, 1.0)))

_register(ProblemSpec(
    name="smooth_sine", dim=1, periodic=True,
    flux_fn=lambda: make_flux("burgers"),
    mesh_fn=lambda n: uniform_interval_mesh(n, 0.0, 1.0, periodic=True),
    initial_fn=_avg(lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[:, 0])),
    reference_fn=lambda fl: reference("smooth_sine_preshock", fl,
                                      mean=0.5, amplitude=0.25),
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

_CONFIG_FIELDS: dict[str, Callable] = {
    "problem": str,
    "t_final": float,
    "flux_rule": str,
    "reconstruction": str,
    "time_integrator": str,
    "cfl_number": float,
    "lf_dissipation_mode": str,
    "base_n": int,
    "levels": int,
    "audits": str,     # "auto", "none" or comma-separated names
    "seed": int,
    "n_v": int,
    "k_points": int,
    "patches": int,
    "bins": int,
    "vtk": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


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
    audits: str = "auto"
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
        spec = PROBLEMS[self.problem]
        if self.audits == "none":
            return ()
        if self.audits != "auto":
            names = tuple(s.strip() for s in self.audits.split(",") if s.strip())
            unknown = [n for n in names if n not in AUDIT_ORDER]
            if unknown:
                raise ValueError(f"unknown audits {unknown}; known: {AUDIT_ORDER}")
            return names
        names = []
        if spec.periodic:
            names.append("conservation")
        if exact_regime(self):
            names.append("max_principle")
            if spec.dim == 1:
                names.append("tv")
            if spec.periodic:
                names.append("contraction")
            names.append("entropy")
        return tuple(names)


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
    """Canonical one-line rendering, stable across runs."""
    parts = [f"problem={cfg.problem}", f"flux_rule={cfg.flux_rule}",
             f"reconstruction={cfg.reconstruction}",
             f"time_integrator={cfg.time_integrator}",
             f"cfl_number={cfg.cfl_number:.17g}",
             f"lf_dissipation_mode={cfg.lf_dissipation_mode}",
             f"base_n={cfg.base_n}", f"levels={cfg.levels}",
             f"t_final={cfg.resolved_t_final:.17g}", f"audits={cfg.audits}",
             f"seed={cfg.seed}", f"n_v={cfg.n_v}", f"k_points={cfg.k_points}",
             f"patches={cfg.patches}", f"bins={cfg.bins}",
             f"vtk={str(cfg.vtk).lower()}"]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# errors and rates

def l1_error(field: CellField, ref: ReferenceSolution, t: float | None = None) -> float:
    """L1 distance between cell averages and the cell-averaged reference."""
    if t is None:
        t = field.t
    mesh = field.mesh
    exact = cell_averages(mesh, lambda x: ref(t, x))
    return float(mesh.cell_area @ np.abs(field.values - exact))


def fit_rate(hs, errors) -> float:
    """Least-squares slope of log error against log h."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.shape != errors.shape or hs.size < 2:
        raise ValueError("need at least two (h, error) pairs")
    if np.unique(hs).size < 2:
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
    name: str
    value: float        # the measured violation / drift (0 is perfect)
    threshold: float
    passed: bool
    detail: str = ""


class _Conservation:
    def start(self, field0: CellField):
        self.mass0 = field0.total_mass
        self.drift = 0.0

    def step(self, before, after, dt):
        self.drift = max(self.drift, abs(after.total_mass - self.mass0))

    def finish(self) -> AuditResult:
        drift = self.drift / max(1.0, abs(self.mass0))
        return AuditResult("conservation", drift, _EXACT_TOL, drift <= _EXACT_TOL,
                           "relative drift of total mass over the run")


class _MaxPrinciple:
    def start(self, field0: CellField):
        self.lo, self.hi = float(field0.values.min()), float(field0.values.max())
        self.over = 0.0

    def step(self, before, after, dt):
        self.over = max(self.over, float(after.values.max()) - self.hi,
                        self.lo - float(after.values.min()))

    def finish(self) -> AuditResult:
        tol = _EXACT_TOL * max(1.0, self.hi - self.lo)
        return AuditResult("max_principle", self.over, tol, self.over <= tol,
                           "largest escape from the initial data range")


def _total_variation(field: CellField) -> float:
    mesh = field.mesh
    interior = mesh.face_right >= 0
    jumps = np.abs(field.values[mesh.face_right[interior]]
                   - field.values[mesh.face_left[interior]])
    return float(jumps.sum())


class _TotalVariation:
    def start(self, field0: CellField):
        self.tv0 = self.tv = _total_variation(field0)
        self.growth = 0.0

    def step(self, before, after, dt):
        tv = _total_variation(after)
        self.growth = max(self.growth, tv - self.tv)
        self.tv = tv

    def finish(self) -> AuditResult:
        tol = _EXACT_TOL * max(1.0, self.tv0)
        return AuditResult("tv", self.growth, tol, self.growth <= tol,
                           "largest one-step growth of total variation")


class _Contraction:
    """L1 distance to a twin run from bumped data, marched to the run's
    final time when it has finished; keeps no field of either twin."""

    def __init__(self, flux, config: SchemeConfig):
        self.flux, self.config = flux, config

    def start(self, field0: CellField):
        self.initial, self.t = field0, field0.t

    def step(self, before, after, dt):
        self.t = after.t

    def finish(self) -> AuditResult:
        initial = self.initial
        mesh = initial.mesh
        center = float(mesh.vertices[:, 0].mean())
        bump = cell_averages(
            mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
        twin = CellField(mesh, initial.values + bump, initial.t)
        first = last = float(mesh.cell_area @ np.abs(initial.values - twin.values))
        growth = 0.0
        for _, (a, b), _ in _march((initial, twin), self.flux, self.config, self.t):
            dist = float(mesh.cell_area @ np.abs(a.values - b.values))
            growth, last = max(growth, dist - last), dist
        tol = _EXACT_TOL * max(1.0, first)
        return AuditResult("contraction", growth, tol, growth <= tol,
                           "largest one-step growth of the L1 distance to a twin run")


class _Entropy(entropy_mod.EntropyAudit):
    def finish(self) -> AuditResult:
        rpt = super().finish()
        return AuditResult("entropy", rpt.worst, rpt.tol, rpt.passed,
                           "worst positive cell entropy residual over "
                           f"{rpt.k_grid.size} k values")


def _entropy_observer(cfg: StudyConfig, flux, audit=entropy_mod.EntropyAudit):
    """A level's cell entropy ``audit`` as a function of its state range:
    ``cfg.k_points`` Kruzkov states over the range plus the problem's
    landmark states."""
    spec, scheme = PROBLEMS[cfg.problem], cfg.scheme()
    return lambda lo, hi: audit(
        flux, scheme, entropy_mod.kruzkov_k_grid(lo, hi, n=cfg.k_points,
                                                 extra=spec.states),
        tol=_EXACT_TOL)


def study_observers(cfg: StudyConfig, level: int, flux) -> list:
    """The audits ``cfg.audit_names()`` selects, in that order, each
    finishing with an :class:`AuditResult`."""
    scheme = cfg.scheme()
    make = {"conservation": _Conservation, "max_principle": _MaxPrinciple,
            "tv": _TotalVariation,
            "contraction": lambda: _Contraction(flux, scheme),
            "entropy": lambda: _entropy_observer(cfg, flux, _Entropy)}
    return [make[name]() for name in cfg.audit_names()]


# ---------------------------------------------------------------------------
# the level driver

class InvalidRequest(ValueError):
    """Level 0's observers refused to start: nothing has been solved."""


def _built(entries, rng: tuple[float, float]) -> list:
    return [e(*rng) if callable(e) else e for e in entries]


def solve_level(cfg: StudyConfig, level: int, observe=study_observers) -> LevelResult:
    """Solve one level in one march, streaming its steps into observers.

    ``observe(cfg, level, flux)`` lists observers, objects with
    ``start(field0)``, ``step(before, after, dt)`` (``dt`` the elapsed time)
    and ``finish()``, or functions of the state range ``(lo, hi)`` that
    build one from the initial data's range.  When the level's range ends
    up different from that, its recorded steps are replayed through the
    deterministic ``step`` into observers started afresh, those functions
    called with the true range.  The level keeps its final field, step
    sizes and range, never its trajectory.  A failure while level 0's
    observers are built or started is an :class:`InvalidRequest`.
    """
    spec = PROBLEMS[cfg.problem]
    flux = spec.flux_fn()
    mesh = build_problem_mesh(cfg, level)
    initial = initial_field(spec, mesh)
    scheme = cfg.scheme()
    rng = lo, hi = float(initial.values.min()), float(initial.values.max())
    try:
        entries = observe(cfg, level, flux)
        observers = _built(entries, rng)
        for obs in observers:
            obs.start(initial)
    except Exception as exc:
        if level == 0:
            raise InvalidRequest(str(exc)) from exc
        raise
    ranged = any(callable(e) for e in entries)

    dts, final = [], initial
    for (before,), (after,), dt in _march((initial,), flux, scheme,
                                          cfg.resolved_t_final):
        dts.append(dt)
        lo = min(lo, float(after.values.min()))
        hi = max(hi, float(after.values.max()))
        if (lo, hi) == rng or not ranged:   # else replayed below
            for obs in observers:
                obs.step(before, after, after.t - before.t)
        final = after

    if (lo, hi) != rng and ranged:
        # the march accepted every dt against the stable bound already
        fields = accumulate(dts, lambda f, dt: step(f, flux, scheme, dt,
                                                    _stable_dt=dt),
                            initial=initial)
        audits = _replay(fields, _built(entries, (lo, hi)))
    else:
        audits = [obs.finish() for obs in observers]

    return LevelResult(level=level, n_cells=mesh.n_cells, h=mesh.h,
                       steps=len(dts), l1=float("nan"), audits=audits,
                       runtime=0.0, final=final, state_range=(lo, hi))


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
    """Solve every level with :func:`solve_level`, measure its L1 error and
    fit the L1 convergence rate; this is the one level loop.

    A level that raises is recorded as failed and the study continues;
    the report marks the failure and the rate uses the surviving levels.
    Only an :class:`InvalidRequest` ends the study.
    """
    spec = PROBLEMS[cfg.problem]
    ref = spec.reference_fn(spec.flux_fn()) if spec.reference_fn else None
    levels: list[LevelResult] = []
    for lvl in range(cfg.levels):
        start = time.perf_counter()
        try:
            lv = solve_level(cfg, lvl, observe)
            if ref is not None:
                lv.l1 = l1_error(lv.final, ref)
        except InvalidRequest:
            raise
        except Exception as exc:  # record and continue with the next level
            mesh = build_problem_mesh(cfg, lvl)
            lv = LevelResult(level=lvl, n_cells=mesh.n_cells, h=mesh.h,
                             steps=0, l1=float("nan"), audits=[], runtime=0.0,
                             error_message=f"{type(exc).__name__}: {exc}")
        lv.runtime = time.perf_counter() - start
        levels.append(lv)
    result = StudyResult(config=cfg, levels=levels, fitted_rate=float("nan"))
    pairs = result.rate_pairs
    if len(pairs) >= 2:
        result.fitted_rate = fit_rate(*zip(*pairs))
    return result


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
    report = out / "report.csv"
    with open(report, "w") as fh:
        fh.write(f"# config: {config_echo(cfg)}\n")
        fh.write(f"# seed: {cfg.seed}\n")
        fh.write(f"# fitted_rate: {_fmt(result.fitted_rate)}\n")
        fh.write(f"# audits_pass: {str(result.audits_pass).lower()}\n")
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(rows) + "\n")
    files["report"] = report

    rate = out / "rate.dat"
    with open(rate, "w") as fh:
        fh.write("# h  l1_error\n")
        fh.write(f"# fitted_rate: {_fmt(result.fitted_rate)}\n")
        for h, e in result.rate_pairs:
            fh.write(f"{_fmt(h)} {_fmt(e)}\n")
    files["rate"] = rate

    timings = out / "timings.csv"
    with open(timings, "w") as fh:
        fh.write("level,n_cells,steps,runtime_seconds\n")
        for lv in result.levels:
            fh.write(f"{lv.level},{lv.n_cells},{lv.steps},{lv.runtime:.6f}\n")
    files["timings"] = timings

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
    with open(path, "w") as fh:
        fh.write(f"# t = {_fmt(field.t)}\n")
        cols = "idx x value" if mesh.dim == 1 else "idx x y value"
        fh.write(f"# {cols}\n")
        for i in range(mesh.n_cells):
            coords = " ".join(_fmt(c) for c in mesh.cell_centroid[i])
            fh.write(f"{i} {coords} {_fmt(field.values[i])}\n")
    return path

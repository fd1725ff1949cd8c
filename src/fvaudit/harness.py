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
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import entropy as entropy_mod
from . import young as young_mod
from .mesh import Mesh, triangulated_rectangle, uniform_interval_mesh
from .physics import FluxModel, ReferenceSolution, make_flux, reference
from .scheme import (CellField, SchemeConfig, Trajectory, cell_averages, run,
                     state_range, twin_run)
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
    "solve_level",
    "run_audits",
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


def solve_level(cfg: StudyConfig, level: int, output_times=()) -> tuple[Trajectory, FluxModel]:
    spec = PROBLEMS[cfg.problem]
    flux = spec.flux_fn()
    mesh = build_problem_mesh(cfg, level)
    traj = run(initial_field(spec, mesh), flux, cfg.scheme(),
               cfg.resolved_t_final, output_times)
    return traj, flux


# ---------------------------------------------------------------------------
# audits

@dataclass(frozen=True)
class AuditResult:
    name: str
    value: float        # the measured violation / drift (0 is perfect)
    threshold: float
    passed: bool
    detail: str = ""


def _audit_conservation(traj: Trajectory) -> AuditResult:
    masses = np.array([f.total_mass for f in traj.fields])
    scale = max(1.0, float(np.abs(masses[0])))
    drift = float(np.abs(masses - masses[0]).max()) / scale
    return AuditResult("conservation", drift, _EXACT_TOL, drift <= _EXACT_TOL,
                       "relative drift of total mass over the run")


def _audit_max_principle(traj: Trajectory) -> AuditResult:
    u0 = traj.fields[0].values
    lo, hi = float(u0.min()), float(u0.max())
    over = 0.0
    for f in traj.fields[1:]:
        over = max(over, float(f.values.max()) - hi, lo - float(f.values.min()))
    over = max(over, 0.0)
    tol = _EXACT_TOL * max(1.0, hi - lo)
    return AuditResult("max_principle", over, tol, over <= tol,
                       "largest escape from the initial data range")


def _total_variation(field: CellField) -> float:
    mesh = field.mesh
    interior = mesh.face_right >= 0
    jumps = np.abs(field.values[mesh.face_right[interior]]
                   - field.values[mesh.face_left[interior]])
    return float(jumps.sum())


def _audit_tv(traj: Trajectory) -> AuditResult:
    tvs = np.array([_total_variation(f) for f in traj.fields])
    growth = float(np.diff(tvs).max()) if len(tvs) > 1 else 0.0
    growth = max(growth, 0.0)
    tol = _EXACT_TOL * max(1.0, tvs[0])
    return AuditResult("tv", growth, tol, growth <= tol,
                       "largest one-step growth of total variation")


def _audit_contraction(traj: Trajectory, flux, scheme_cfg: SchemeConfig) -> AuditResult:
    initial = traj.fields[0]
    mesh = initial.mesh
    center = float(mesh.vertices[:, 0].mean())
    bump = cell_averages(
        mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
    twin = CellField(mesh, initial.values + bump, initial.t)
    ta, tb = twin_run(initial, twin, flux, scheme_cfg, traj.final.t)
    dist = np.array([float(mesh.cell_area @ np.abs(a.values - b.values))
                     for a, b in zip(ta.fields, tb.fields)])
    growth = float(np.diff(dist).max()) if len(dist) > 1 else 0.0
    growth = max(growth, 0.0)
    tol = _EXACT_TOL * max(1.0, dist[0])
    return AuditResult("contraction", growth, tol, growth <= tol,
                       "largest one-step growth of the L1 distance to a twin run")


def _audit_entropy(traj: Trajectory, flux, scheme_cfg: SchemeConfig,
                   spec: ProblemSpec, k_points: int) -> AuditResult:
    k_grid = entropy_mod.kruzkov_k_grid(*state_range(traj), n=k_points,
                                        extra=spec.states)
    rpt = entropy_mod.run_entropy_audit(traj, flux, scheme_cfg, k_grid,
                                        tol=_EXACT_TOL)
    return AuditResult("entropy", rpt.worst, rpt.tol, rpt.passed,
                       f"worst positive cell entropy residual over {k_grid.size} k values")


def run_audits(traj: Trajectory, flux, cfg: StudyConfig) -> list[AuditResult]:
    spec = PROBLEMS[cfg.problem]
    scheme_cfg = cfg.scheme()
    out = []
    for name in cfg.audit_names():
        if name == "conservation":
            out.append(_audit_conservation(traj))
        elif name == "max_principle":
            out.append(_audit_max_principle(traj))
        elif name == "tv":
            out.append(_audit_tv(traj))
        elif name == "contraction":
            out.append(_audit_contraction(traj, flux, scheme_cfg))
        elif name == "entropy":
            out.append(_audit_entropy(traj, flux, scheme_cfg, spec, cfg.k_points))
    return out


# ---------------------------------------------------------------------------
# studies

@dataclass
class LevelResult:
    level: int
    n_cells: int
    h: float
    steps: int
    l1: float           # nan when no reference or the level failed
    audits: list
    runtime: float
    error_message: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error_message)


@dataclass
class StudyResult:
    config: StudyConfig
    levels: list
    fitted_rate: float  # nan when fewer than two measurable levels
    trajectories: list = dc_field(default_factory=list)  # only when kept

    @property
    def audits_pass(self) -> bool:
        checks = [a.passed for lv in self.levels for a in lv.audits]
        return all(checks) and not any(lv.failed for lv in self.levels)

    @property
    def rate_pairs(self) -> list[tuple[float, float]]:
        return [(lv.h, lv.l1) for lv in self.levels
                if not lv.failed and np.isfinite(lv.l1) and lv.l1 > 0.0]


def run_study(cfg: StudyConfig, keep_trajectories: bool = False) -> StudyResult:
    """Solve every level, audit it and fit the L1 convergence rate.

    A level that raises is recorded as failed and the study continues;
    the report marks the failure and the rate uses the surviving levels.
    """
    spec = PROBLEMS[cfg.problem]
    ref = spec.reference_fn(spec.flux_fn()) if spec.reference_fn else None
    levels: list[LevelResult] = []
    trajectories = []
    for lvl in range(cfg.levels):
        start = time.perf_counter()
        try:
            traj, flux = solve_level(cfg, lvl)
            err = l1_error(traj.final, ref) if ref is not None else float("nan")
            audits = run_audits(traj, flux, cfg)
            levels.append(LevelResult(
                level=lvl, n_cells=traj.mesh.n_cells, h=traj.mesh.h,
                steps=len(traj) - 1, l1=err, audits=audits,
                runtime=time.perf_counter() - start))
            if keep_trajectories:
                trajectories.append(traj)
        except Exception as exc:  # record and continue with the next level
            mesh = build_problem_mesh(cfg, lvl)
            levels.append(LevelResult(
                level=lvl, n_cells=mesh.n_cells, h=mesh.h, steps=0,
                l1=float("nan"), audits=[],
                runtime=time.perf_counter() - start,
                error_message=f"{type(exc).__name__}: {exc}"))
    pairs = [(lv.h, lv.l1) for lv in levels
             if not lv.failed and np.isfinite(lv.l1) and lv.l1 > 0.0]
    rate = (fit_rate([p[0] for p in pairs], [p[1] for p in pairs])
            if len(pairs) >= 2 else float("nan"))
    return StudyResult(config=cfg, levels=levels, fitted_rate=rate,
                       trajectories=trajectories)


# ---------------------------------------------------------------------------
# report files

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_study_report(result: StudyResult, out_dir,
                       trajectories=None) -> dict[str, Path]:
    """Write report.csv, rate.dat, timings.csv and optional field dumps.

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

    if trajectories:
        for lvl, traj in enumerate(trajectories):
            files[f"field_{lvl}"] = _write_field_dump(
                out / f"field_level{lvl}.txt", traj.final)
            if cfg.vtk:
                vtk_path = out / f"field_level{lvl}.vtk"
                write_vtk(vtk_path, traj.mesh, {"u": traj.final.values},
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

"""Command line front end.

Subcommands::

    run            solve one problem on one mesh and audit it
    converge       refinement study with L1 errors and a fitted rate
    entropy-audit  cell entropy inequality plus E-flux sampling
    kinetic-audit  velocity-resolved defect audit across refinements
    young-audit    oscillation histograms across refinements
    mesh-info      validate a mesh and print geometry statistics

Every solver subcommand reads a ``--config`` file of ``key = value`` lines
and repeatable ``--set key=value`` overrides.  Reports land in ``--out``,
the ``FVAUDIT_OUT`` environment variable, or ``./fvaudit_out``.  Exit code
0 means every gated check passed, 1 means a check failed or a level failed
(``level N: FAILED <Type>: <message>``, a numerical breakdown or any other
error once solving began), 2 means the request itself was invalid and was
refused before any step.  Each solver subcommand is a set of step
observers for :func:`harness.run_study` plus a report writer.  Each handler
returns its stdout lines and one :class:`harness.AuditResult` per gate;
:func:`main` prints them unless ``--quiet`` and exits 0 only when all pass.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from . import harness
from . import kinetic as kinetic_mod
from . import young as young_mod
from .harness import AuditResult
from .mesh import (load_mesh, regularity, triangulated_rectangle,
                   uniform_interval_mesh)
from .physics import make_flux
from .scheme import _time_tol, _value_range
from .vtkio import write_vtk

__all__ = ["main"]

_CHECK_FAILED = 1
_USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fvaudit",
        description="finite volume solver with exactness audits")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, desc, handler in (
            ("run", "solve one level and audit it", _cmd_run),
            ("converge", "refinement study with fitted L1 rate", _cmd_converge),
            ("entropy-audit", "cell entropy inequality audit",
             partial(_run_audit, _entropy_observers, _entropy_report)),
            ("kinetic-audit", "velocity-resolved defect audit",
             partial(_run_audit, _kinetic_observers, _kinetic_report)),
            ("young-audit", "oscillation histogram audit",
             partial(_run_audit, _young_observers, _young_report))):
        p = sub.add_parser(name, help=desc)
        p.set_defaults(handler=handler)
        p.add_argument("--config", metavar="FILE",
                       help="file of key = value lines")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--out", metavar="DIR", help="report directory root")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
        if name == "converge":
            p.add_argument("--min-rate", type=float, default=None,
                           help="fail unless the fitted rate reaches this")

    mi = sub.add_parser("mesh-info", help="validate a mesh and print stats")
    mi.set_defaults(handler=_cmd_mesh_info, quiet=False)
    mi.add_argument("source",
                    help="mesh file path, or builtin 'interval:N' / 'square:N'")
    group = mi.add_mutually_exclusive_group()
    group.add_argument("--periodic", action="store_true",
                       help="builtin meshes: force periodic boundaries")
    group.add_argument("--open", dest="open_bc", action="store_true",
                       help="builtin meshes: force outflow boundaries")
    mi.add_argument("--jitter", type=float, default=0.0,
                    help="builtin square: perturb interior vertices by at most "
                         "this fraction of the spacing, in [0, 0.25]")
    mi.add_argument("--vtk", metavar="PATH", help="also write the mesh as VTK")
    return ap


def _load_config(args) -> harness.StudyConfig:
    cfg = harness.StudyConfig()
    if args.config:
        cfg = harness.parse_config(Path(args.config).read_text(), base=cfg)
    if args.overrides:
        cfg = harness.parse_config(args.overrides, base=cfg)
    return cfg


def _out_dir(args) -> Path:
    """The subcommand's report directory; its root is made, and a
    non-directory in its place refused, before any march."""
    root = Path(args.out or os.environ.get("FVAUDIT_OUT") or "fvaudit_out")
    root.mkdir(parents=True, exist_ok=True)
    out = root / args.command
    if os.path.lexists(out) and not out.is_dir():
        raise NotADirectoryError(f"{out} exists and is not a directory")
    return out


def _say(text: str, v: AuditResult) -> str:
    """``text`` and the verdict; a FAIL names the location its record holds."""
    if v.passed:
        return f"{text} PASS"
    at = [f"{key} {n}" for key, n in (("level", v.level), ("step", v.worst_step),
                                      ("cell", v.worst_cell)) if n >= 0]
    if v.worst_k is not None:
        at.append(f"k={v.worst_k:.17g}")
    return f"{text} FAIL at {' '.join(at)}" if at else f"{text} FAIL"


def _level_lines(levels) -> tuple[list, list]:
    """Each level's study audits, or its failure, as lines and verdicts."""
    lines, verdicts = [], []
    for lv in levels:
        if lv.failed:   # and has no audits
            lines.append(f"level {lv.level}: FAILED {lv.error_message}")
            verdicts.append(AuditResult("solve", float("nan"), float("nan"),
                                        False, lv.error_message, level=lv.level))
        lines += [_say(f"level {lv.level} audit {a.name}: value={a.value:.3e} "
                       f"threshold={a.threshold:.3e}", a) for a in lv.audits]
        verdicts += lv.audits
    return lines, verdicts


def _by_level(name: str, head: str, values, floor=None) -> tuple[list, list]:
    """The line of ``values`` by level after ``head`` and its verdict: each
    value reaches ``floor``, or else they strictly decrease (no verdict on
    a single level, which has no trend)."""
    line = head + " ".join(f"{v:.3e}" for v in values) + "  ("
    if floor is not None:
        low = float(np.min(values))
        trend = AuditResult(name, low, floor, low >= floor)
        line += "variance persists (oscillation detected)"
    elif len(values) == 1:
        return [f"{line}one level: no trend to check)"], []
    else:
        rise = float(np.max(np.diff(values)))
        trend = AuditResult(name, rise, 0.0, rise < 0.0)
        line += "strictly decreasing"
    return [_say(line, trend) + ")"], [trend]


def _run_audit(observe, report, args):
    """Solve every level into the audit's observers, then write the report
    ``report(cfg, levels)`` returns as ``(stem, notes, table, lines,
    verdicts)``: the config echo, one ``# note`` line per note and the table
    rows.  A failed level is named and fails without a report."""
    cfg = _load_config(args)
    out = _out_dir(args)
    result = harness.run_study(cfg, observe)
    failed = [lv for lv in result.levels if lv.failed]
    if failed:
        return _level_lines(failed)
    out.mkdir(exist_ok=True)
    stem, notes, table, lines, verdicts = report(cfg, result.levels)
    path = out / f"{stem}_report.csv"
    harness._write_lines(path, [f"# config: {harness.config_echo(cfg)}",
                                *(f"# {note}" for note in notes), *table])
    return [*lines, f"report in {path}"], verdicts


def _cmd_run(args):
    cfg = replace(_load_config(args), levels=1)
    out = _out_dir(args)
    result = harness.run_study(cfg)
    harness.write_study_report(result, out)
    lv = result.levels[0]
    lines, verdicts = _level_lines(result.levels)
    return [f"problem {cfg.problem}: {lv.n_cells} cells, {lv.steps} steps",
            *([f"l1_error {lv.l1:.6e}"] if np.isfinite(lv.l1) else []),
            *lines, f"reports in {out}"], verdicts


def _cmd_converge(args):
    if args.min_rate is not None and not np.isfinite(args.min_rate):
        # nan fails every comparison and an infinite bound decides nothing
        raise ValueError(f"--min-rate must be finite, got {args.min_rate}")
    cfg = _load_config(args)
    if cfg.levels < 2:
        raise ValueError("converge needs at least 2 levels")
    out = _out_dir(args)
    result = harness.run_study(cfg)
    harness.write_study_report(result, out)
    rate = float(result.fitted_rate)
    lines, verdicts = _level_lines(result.levels)
    lines[:0] = [f"level {lv.level}: n={lv.n_cells} h={lv.h:.4e} "
                 + (f"l1={lv.l1:.6e}" if np.isfinite(lv.l1) else "l1=nan")
                 for lv in result.levels] + [f"fitted_rate {rate:.4f}"]
    if args.min_rate is not None:
        verdicts.append(AuditResult("rate", rate, args.min_rate, bool(
            np.isfinite(rate) and rate >= args.min_rate)))
        lines.append(_say(f"rate gate (>= {args.min_rate}):", verdicts[-1]))
    return [*lines, f"reports in {out}"], verdicts


def _entropy_observers(cfg, level, flux) -> list:
    return [harness._entropy_observer(cfg, flux)]


def _entropy_report(cfg, levels):
    reports = [lv.audits[0] for lv in levels]
    ef = entropy_mod.check_e_flux(cfg.flux_rule,
                                  harness.PROBLEMS[cfg.problem].flux_fn(),
                                  seed=cfg.seed)

    # h-exponent of the worst positive residual; roundoff-level residuals
    # (the first-order E-flux regime) carry no rate information
    worsts = [r.worst for r in reports]
    exponent = float("nan")
    if len(worsts) >= 2 and all(w > reports[0].tol for w in worsts):
        exponent = harness.fit_rate([lv.h for lv in levels], worsts)

    worst = max(worsts)
    tol = reports[0].tol
    notes = [f"k_values {reports[0].k_grid.size}",
             f"residual_tolerance {tol:.17g}",
             f"fitted_h_exponent {exponent:.17g}",
             f"e_flux_rule {ef.rule}",
             f"e_flux_samples {ef.samples}",
             f"e_flux_worst_violation {ef.worst_violation:.17g}"]
    table = ["level,step,max_positive_residual",
             *(f"{lvl},{i},{v:.17g}" for lvl, rpt in enumerate(reports)
               for i, v in enumerate(rpt.per_step))]

    lvl = worsts.index(worst)
    rpt = reports[lvl]
    residual = AuditResult("entropy", worst, tol, all(r.passed for r in reports),
                           level=lvl, worst_step=rpt.worst_step,
                           worst_cell=rpt.worst_cell, worst_k=rpt.worst_k)
    e_flux = AuditResult("e_flux", ef.worst_violation, ef.tol, ef.passed)
    gated = harness.AUDITS["entropy"].gated(cfg, harness.PROBLEMS[cfg.problem])
    line = f"entropy inequality: worst={worst:.3e} tol={tol:.3e}"
    lines = [_say(line, residual) if gated else
             f"{line} reported (inequality gated only for first-order E-flux)"]
    if exponent == exponent:
        lines.append(f"fitted h-exponent of max positive residual: "
                     f"{exponent:.3f}")
    lines.append(_say(f"e-flux sampling ({ef.samples} cases): "
                      f"worst={ef.worst_violation:.3e}", e_flux))
    return "entropy", notes, table, lines, [residual] * gated + [e_flux]


def _kinetic_observers(cfg, level, flux) -> list:
    t_final = cfg.resolved_t_final
    if not t_final > _time_tol(t_final):
        raise ValueError("kinetic-audit needs t_final > 0: the defect "
                         "measure needs at least one step")
    return [lambda lo, hi: kinetic_mod.DefectAudit(
        flux, kinetic_mod.VGrid.for_range(lo, hi, n=cfg.n_v))]


def _kinetic_report(cfg, levels):
    scores = [lv.audits[0].negativity_score for lv in levels]
    finest = levels[-1]

    # fixed non-entropic baseline: expansion_shock's data, frozen
    base = harness.PROBLEMS["expansion_shock"]
    base_field = harness.initial_field(base, base.mesh_fn(finest.n_cells))
    frozen = kinetic_mod.frozen_trajectory(base_field, dt=1e-3, n_steps=1)
    base_dm = kinetic_mod.defect_measure(kinetic_mod.kinetic_residual(
        frozen, base.flux_fn(),
        kinetic_mod.VGrid.for_range(*_value_range(base_field.values), n=cfg.n_v)))

    flux = harness.PROBLEMS[cfg.problem].flux_fn()
    lo, hi = finest.state_range
    nd = None
    if hi - lo > 1e-8:
        nd = kinetic_mod.nondegeneracy(flux, (lo, hi))

    nd_val = nd.measure if nd is not None else float("nan")
    notes = [f"frozen_expansion_negativity {base_dm.negativity_score:.17g}",
             *([f"nondegeneracy_tol {nd.tol:.17g}"] if nd is not None else [])]
    table = ["level,n_cells,h,negativity,total_mass,nondegeneracy",
             *(f"{lv.level},{lv.n_cells},{lv.h:.17g},"
               f"{lv.audits[0].negativity_score:.17g},"
               f"{lv.audits[0].total_mass:.17g},{nd_val:.17g}"
               for lv in levels)]

    lines, verdicts = _by_level("negativity_trend", "negativity by level: ",
                                scores)
    ratio, score = 10.0, base_dm.negativity_score   # frozen >= 10x finest
    verdicts.append(AuditResult("frozen_baseline", score, ratio * scores[-1],
                                score >= ratio * scores[-1]))
    lines.append(_say(f"frozen expansion baseline: {score:.3e}" + (
        f" >= {ratio:g}x finest" if verdicts[-1].passed else ""), verdicts[-1]))
    if nd is not None:
        # a linear flux is degenerate (measure 1), any other one is not
        linear = flux.convexity_class == "linear"
        bound = 0.99 if linear else 5.0 * nd.tol / (hi - lo)
        verdicts.append(AuditResult("nondegeneracy", nd.measure, bound, bool(
            nd.measure >= bound if linear else nd.measure <= bound)))
        lines.append(_say(
            f"nondegeneracy (linear flux): measure={nd.measure:.4f}" if linear
            else f"nondegeneracy: measure={nd.measure:.3e} bound={bound:.3e}",
            verdicts[-1]))
    return "kinetic", notes, table, lines, verdicts


class _PatchedConsistency(young_mod.InitialConsistency):
    """Initial consistency whose start builds the field's histograms, so a
    patch grid too fine for a level's cells is refused before its march."""

    def __init__(self, patches: int, bins: int):
        super().__init__()
        self.patches, self.bins = patches, bins

    def start(self, field0):
        young_mod.build_young(field0, self.patches, self.bins)
        super().start(field0)


def _young_observers(cfg, level, flux) -> list:
    return [_PatchedConsistency(cfg.patches, cfg.bins)]


def _young_report(cfg, levels):
    # monotone schemes compactify: any evolved sequence loses its oscillation,
    # so the persistence fixture is audited on the data sequence itself (t=0)
    spec = harness.PROBLEMS[cfg.problem]
    persistence = cfg.problem == "checkerboard"
    if persistence:
        fields = [harness.initial_field(spec, lv.final.mesh) for lv in levels]
    else:
        fields = [lv.final for lv in levels]
    flux = spec.flux_fn()
    measures = young_mod.level_measures(fields, base_patches=cfg.patches,
                                        bins=cfg.bins)
    trend = np.array([float(ym.variance.max()) for ym in measures])
    gaps = np.array([float(young_mod.nonlinearity_gap(ym, flux).max())
                     for ym in measures])
    consistency = [lv.audits[0] for lv in levels]

    # fixed oscillation baseline: checkerboard's data at the finest resolution
    board = harness.PROBLEMS["checkerboard"]
    base = harness.initial_field(board, board.mesh_fn(fields[-1].mesh.n_cells))
    ym = young_mod.build_young(base, patches=cfg.patches, bins=cfg.bins)
    base_var = float(ym.variance.max())
    gap = float(young_mod.nonlinearity_gap(ym, make_flux("burgers")).max())

    notes = [f"checkerboard_variance {base_var:.17g}",
             f"checkerboard_flux_gap {gap:.17g}"]
    table = ["level,max_variance,max_nonlinearity_gap,initial_consistency",
             *(f"{lvl},{trend[lvl]:.17g},{gaps[lvl]:.17g},"
               f"{consistency[lvl]:.17g}" for lvl in range(len(trend)))]

    # an oscillating sequence keeps this patch variance at every level, and
    # Burgers' flux gap of the +-1 data is 0.5 to within 1/64
    floor, off, tol = 0.9, abs(gap - 0.5), 1.0 / 64.0
    lines, verdicts = _by_level(
        "variance_persists" if persistence else "variance_trend",
        "max patch variance by level: ", trend, floor if persistence else None)
    verdicts += [AuditResult("checkerboard_variance", base_var, floor,
                             base_var >= floor),
                 AuditResult("checkerboard_flux_gap", off, tol, off <= tol)]
    lines += [_say(f"checkerboard variance {base_var:.4f}", verdicts[-2]),
              _say(f"checkerboard flux gap {gap:.10f} "
                   f"(want 0.5 +- 1/{1.0 / tol:g})", verdicts[-1])]
    return "young", notes, table, lines, verdicts


def _builtin_mesh(source: str, args):
    kind, _, rest = source.partition(":")
    if not rest:
        raise ValueError(f"builtin mesh spec needs a size, e.g. '{kind}:32'")
    n = int(rest)
    if kind == "interval":
        periodic = not args.open_bc
        return uniform_interval_mesh(n, 0.0, 1.0, periodic=periodic)
    if kind == "square":
        periodic = bool(args.periodic)
        return triangulated_rectangle(n, n, 0.0, 0.0, 1.0, 1.0,
                                      periodic=periodic, jitter=args.jitter)
    raise ValueError(f"unknown builtin mesh {kind!r}")


def _cmd_mesh_info(args):
    builtin = args.source.startswith(("interval:", "square:"))
    # a flag the source would drop is refused, not ignored
    if args.jitter != 0.0 and not args.source.startswith("square:"):
        raise ValueError("--jitter applies only to builtin 'square:N' meshes")
    if not builtin and (args.periodic or args.open_bc):
        flag = "--periodic" if args.periodic else "--open"
        raise ValueError(f"{flag} applies only to builtin meshes; "
                         "a mesh file sets its own boundaries")
    mesh = _builtin_mesh(args.source, args) if builtin else load_mesh(args.source)
    kinds = mesh.face_kind
    n_interior = int((kinds == "interior").sum())
    n_periodic = int((kinds == "periodic").sum())
    n_outflow = int((kinds == "outflow").sum())
    rep = regularity(mesh)
    lines = [
        f"dimension {mesh.dim}",
        f"vertices {len(mesh.vertices)}",
        f"cells {mesh.n_cells}",
        f"faces {mesh.n_faces} (interior {n_interior}, periodic {n_periodic}, "
        f"outflow {n_outflow})",
        f"h {mesh.h:.17g}",
        f"domain_measure {mesh.domain_measure:.17g}",
        f"fully_periodic {str(mesh.is_periodic).lower()}",
        f"regularity_max {rep.max_ratio:.17g}",
        "regularity histogram (diameter / twice inradius):",
    ]
    for i, count in enumerate(rep.hist_counts):
        lo, hi = rep.hist_edges[i], rep.hist_edges[i + 1]
        lines.append(f"  [{lo:.3f}, {hi:.3f}): {count}")
    if args.vtk:
        write_vtk(args.vtk, mesh, {"area": mesh.cell_area})
        lines.append(f"wrote {args.vtk}")
    return lines, []


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lines, verdicts = args.handler(args)
        if not args.quiet:
            print(*lines, sep="\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    return 0 if all(v.passed for v in verdicts) else _CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

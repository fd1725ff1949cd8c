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
observers for :func:`harness.run_study` plus a report writer.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from . import harness
from . import kinetic as kinetic_mod
from . import young as young_mod
from .mesh import (GeometryError, MeshFormatError, TopologyError, load_mesh,
                   regularity, triangulated_rectangle, uniform_interval_mesh)
from .physics import make_flux
from .scheme import (CellField, NumericalError, StabilityError, _time_tol,
                     cell_averages)
from .vtkio import write_vtk

__all__ = ["main"]

_CHECK_FAILED = 1
_USAGE_ERROR = 2


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE",
                   help="file of key = value lines")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config key")
    p.add_argument("--out", metavar="DIR", help="report directory root")
    p.add_argument("--quiet", action="store_true", help="suppress stdout")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fvaudit",
        description="finite volume solver with exactness audits")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, desc in (("run", "solve one level and audit it"),
                       ("converge", "refinement study with fitted L1 rate"),
                       ("entropy-audit", "cell entropy inequality audit"),
                       ("kinetic-audit", "velocity-resolved defect audit"),
                       ("young-audit", "oscillation histogram audit")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name == "converge":
            p.add_argument("--min-rate", type=float, default=None,
                           help="fail unless the fitted rate reaches this")

    mi = sub.add_parser("mesh-info", help="validate a mesh and print stats")
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
    """The subcommand's report directory; its root is made before any march."""
    root = Path(args.out or os.environ.get("FVAUDIT_OUT") or "fvaudit_out")
    root.mkdir(parents=True, exist_ok=True)
    return root / args.command


def _say(args, *lines):
    if not args.quiet:
        for line in lines:
            print(line)


def _audit_lines(levels) -> list[str]:
    out = []
    for lv in levels:
        if lv.failed:
            out.append(f"level {lv.level}: FAILED {lv.error_message}")
            continue
        for a in lv.audits:
            tag = "PASS" if a.passed else "FAIL"
            out.append(f"level {lv.level} audit {a.name}: value={a.value:.3e} "
                       f"threshold={a.threshold:.3e} {tag}")
    return out


def _run_audit(args, cfg, observe, report) -> int:
    """Solve every level into the audit's observers, then write its report;
    a failed level is named and exits 1 without a report."""
    out = _out_dir(args)
    result = harness.run_study(cfg, observe)
    failed = [f"level {lv.level}: FAILED {lv.error_message}"
              for lv in result.levels if lv.failed]
    if failed:
        _say(args, *failed)
        return _CHECK_FAILED
    out.mkdir(exist_ok=True)
    return report(args, cfg, result.levels, out)


def _cmd_run(args) -> int:
    cfg = replace(_load_config(args), levels=1)
    out = _out_dir(args)
    result = harness.run_study(cfg)
    harness.write_study_report(result, out)
    lv = result.levels[0]
    _say(args, f"problem {cfg.problem}: {lv.n_cells} cells, {lv.steps} steps",
         *( [f"l1_error {lv.l1:.6e}"] if np.isfinite(lv.l1) else [] ),
         *_audit_lines(result.levels),
         f"reports in {out}")
    return 0 if result.audits_pass else 1


def _cmd_converge(args) -> int:
    cfg = _load_config(args)
    if cfg.levels < 2:
        raise ValueError("converge needs at least 2 levels")
    out = _out_dir(args)
    result = harness.run_study(cfg)
    harness.write_study_report(result, out)
    lines = [f"level {lv.level}: n={lv.n_cells} h={lv.h:.4e} "
             + (f"l1={lv.l1:.6e}" if np.isfinite(lv.l1) else "l1=nan")
             for lv in result.levels]
    lines.append(f"fitted_rate {result.fitted_rate:.4f}")
    lines.extend(_audit_lines(result.levels))
    ok = result.audits_pass
    if args.min_rate is not None:
        rate_ok = np.isfinite(result.fitted_rate) and result.fitted_rate >= args.min_rate
        lines.append(f"rate gate (>= {args.min_rate}): "
                     + ("PASS" if rate_ok else "FAIL"))
        ok = ok and rate_ok
    lines.append(f"reports in {out}")
    _say(args, *lines)
    return 0 if ok else 1


def _entropy_observers(cfg, level, flux) -> list:
    return [harness._entropy_observer(cfg, flux)]


def _entropy_report(args, cfg, levels, out) -> int:
    reports = [lv.audits[0] for lv in levels]
    hs = [lv.h for lv in levels]
    ef = entropy_mod.check_e_flux(cfg.flux_rule,
                                  harness.PROBLEMS[cfg.problem].flux_fn(),
                                  seed=cfg.seed)

    # h-exponent of the worst positive residual; roundoff-level residuals
    # (the first-order E-flux regime) carry no rate information
    worsts = [r.worst for r in reports]
    exponent = float("nan")
    if len(worsts) >= 2 and all(w > reports[0].tol for w in worsts):
        exponent = harness.fit_rate(hs, worsts)

    path = out / "entropy_report.csv"
    worst = max(worsts)
    tol = reports[0].tol
    with open(path, "w") as fh:
        fh.write(f"# config: {harness.config_echo(cfg)}\n")
        fh.write(f"# k_values {reports[0].k_grid.size}\n")
        fh.write(f"# residual_tolerance {tol:.17g}\n")
        fh.write(f"# fitted_h_exponent {exponent:.17g}\n")
        fh.write(f"# e_flux_rule {ef.rule}\n")
        fh.write(f"# e_flux_samples {ef.samples}\n")
        fh.write(f"# e_flux_worst_violation {ef.worst_violation:.17g}\n")
        fh.write("level,step,max_positive_residual\n")
        for lvl, rpt in enumerate(reports):
            for i, v in enumerate(rpt.per_step):
                fh.write(f"{lvl},{i},{v:.17g}\n")

    exact_regime = harness.exact_regime(cfg)
    residual_ok = all(r.passed for r in reports) if exact_regime else True
    passed = residual_ok and ef.passed
    lines = [f"entropy inequality: worst={worst:.3e} tol={tol:.3e} "
             + (("PASS" if residual_ok else "FAIL") if exact_regime
                else "reported (inequality gated only for first-order E-flux)")]
    if not residual_ok:
        lvl = worsts.index(worst)
        rpt = reports[lvl]
        lines[0] += (f" at level {lvl} step {rpt.worst_step} "
                     f"cell {rpt.worst_cell} k={rpt.worst_k:.17g}")
    if exponent == exponent:
        lines.append(f"fitted h-exponent of max positive residual: "
                     f"{exponent:.3f}")
    lines.append(f"e-flux sampling ({ef.samples} cases): "
                 f"worst={ef.worst_violation:.3e} "
                 + ("PASS" if ef.passed else "FAIL"))
    lines.append(f"report in {path}")
    _say(args, *lines)
    return 0 if passed else 1


def _cmd_entropy_audit(args) -> int:
    return _run_audit(args, _load_config(args), _entropy_observers,
                      _entropy_report)


def _kinetic_observers(cfg, level, flux) -> list:
    return [lambda lo, hi: kinetic_mod.DefectAudit(
        flux, kinetic_mod.VGrid.for_range(lo, hi, n=cfg.n_v))]


def _kinetic_report(args, cfg, levels, out) -> int:
    scores = [lv.audits[0].negativity_score for lv in levels]
    finest = levels[-1]

    # fixed non-entropic baseline: a standing expansion profile, frozen
    base_mesh = uniform_interval_mesh(finest.n_cells, -1.0, 1.0, periodic=True)
    base_flux = make_flux("burgers")
    base_field = CellField(
        base_mesh, cell_averages(base_mesh, lambda x: np.sign(x[:, 0])))
    frozen = kinetic_mod.frozen_trajectory(base_field, dt=1e-3, n_steps=1)
    base_dm = kinetic_mod.defect_measure(kinetic_mod.kinetic_residual(
        frozen, base_flux, kinetic_mod.VGrid.for_range(-1.0, 1.0, n=cfg.n_v)))

    flux = harness.PROBLEMS[cfg.problem].flux_fn()
    lo, hi = finest.state_range
    nd = None
    if hi - lo > 1e-8:
        nd = kinetic_mod.nondegeneracy(flux, (lo, hi))

    path = out / "kinetic_report.csv"
    nd_val = nd.measure if nd is not None else float("nan")
    with open(path, "w") as fh:
        fh.write(f"# config: {harness.config_echo(cfg)}\n")
        fh.write("# frozen_expansion_negativity "
                 f"{base_dm.negativity_score:.17g}\n")
        if nd is not None:
            fh.write(f"# nondegeneracy_tol {nd.tol:.17g}\n")
        fh.write("level,n_cells,h,negativity,total_mass,nondegeneracy\n")
        for lv in levels:
            dm = lv.audits[0]
            fh.write(f"{lv.level},{lv.n_cells},{lv.h:.17g},"
                     f"{dm.negativity_score:.17g},{dm.total_mass:.17g},"
                     f"{nd_val:.17g}\n")

    decreasing = all(scores[i + 1] < scores[i] for i in range(len(scores) - 1))
    separated = base_dm.negativity_score >= 10.0 * scores[-1]
    lines = ["negativity by level: "
             + " ".join(f"{s:.3e}" for s in scores)
             + ("  (strictly decreasing PASS)" if decreasing else "  FAIL"),
             f"frozen expansion baseline: {base_dm.negativity_score:.3e} "
             + (">= 10x finest PASS" if separated else "FAIL")]
    ok = decreasing and separated
    if nd is not None:
        span = hi - lo
        if flux.convexity_class == "linear":
            nd_ok = nd.measure >= 0.99
            lines.append(f"nondegeneracy (linear flux): measure={nd.measure:.4f} "
                         + ("PASS" if nd_ok else "FAIL"))
        else:
            bound = 5.0 * nd.tol / span
            nd_ok = nd.measure <= bound
            lines.append(f"nondegeneracy: measure={nd.measure:.3e} "
                         f"bound={bound:.3e} " + ("PASS" if nd_ok else "FAIL"))
        ok = ok and nd_ok
    lines.append(f"report in {path}")
    _say(args, *lines)
    return 0 if ok else 1


def _cmd_kinetic_audit(args) -> int:
    cfg = _load_config(args)
    t_final = cfg.resolved_t_final
    if not t_final > _time_tol(t_final):
        # the defect measure is taken over the steps of each level
        raise ValueError("kinetic-audit needs t_final > 0: the defect "
                         "measure needs at least one step")
    return _run_audit(args, cfg, _kinetic_observers, _kinetic_report)


class _PatchedConsistency(young_mod.InitialConsistency):
    """Initial consistency whose start builds the field's histograms, so a
    patch grid too fine is refused before any step."""

    def __init__(self, patches: int, bins: int):
        super().__init__()
        self.patches, self.bins = patches, bins

    def start(self, field0):
        young_mod.build_young(field0, self.patches, self.bins)
        super().start(field0)


def _young_observers(cfg, level, flux) -> list:
    # level 0 refuses a patch grid too fine; finer levels keep its cells
    # per patch
    if level == 0:
        return [_PatchedConsistency(cfg.patches, cfg.bins)]
    return [young_mod.InitialConsistency()]


def _young_report(args, cfg, levels, out) -> int:
    # monotone schemes compactify: any evolved sequence loses its oscillation,
    # so the persistence fixture is audited on the data sequence itself (t=0)
    spec = harness.PROBLEMS[cfg.problem]
    if cfg.problem == "checkerboard":
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

    # fixed oscillation baseline at the finest resolution
    n_fine = fields[-1].mesh.n_cells
    base_mesh = uniform_interval_mesh(2 * (n_fine // 2), 0.0, 1.0, periodic=True)
    base = CellField(base_mesh, young_mod.checkerboard_values(base_mesh))
    ym = young_mod.build_young(base, patches=cfg.patches, bins=cfg.bins)
    base_var = float(ym.variance.max())
    gap = float(young_mod.nonlinearity_gap(ym, make_flux("burgers")).max())

    path = out / "young_report.csv"
    with open(path, "w") as fh:
        fh.write(f"# config: {harness.config_echo(cfg)}\n")
        fh.write(f"# checkerboard_variance {base_var:.17g}\n")
        fh.write(f"# checkerboard_flux_gap {gap:.17g}\n")
        fh.write("level,max_variance,max_nonlinearity_gap,"
                 "initial_consistency\n")
        for lvl in range(len(trend)):
            fh.write(f"{lvl},{trend[lvl]:.17g},{gaps[lvl]:.17g},"
                     f"{consistency[lvl]:.17g}\n")

    if cfg.problem == "checkerboard":
        trend_ok = bool(np.all(trend >= 0.9))
        trend_msg = "variance persists (oscillation detected)"
    else:
        trend_ok = all(trend[i + 1] < trend[i] for i in range(len(trend) - 1))
        trend_msg = "strictly decreasing"
    var_ok = base_var >= 0.9
    gap_ok = abs(gap - 0.5) <= 1.0 / 64.0
    ok = trend_ok and var_ok and gap_ok
    _say(args,
         "max patch variance by level: " + " ".join(f"{v:.3e}" for v in trend)
         + f"  ({trend_msg} " + ("PASS)" if trend_ok else "FAIL)"),
         f"checkerboard variance {base_var:.4f} "
         + ("PASS" if var_ok else "FAIL"),
         f"checkerboard flux gap {gap:.10f} (want 0.5 +- 1/64) "
         + ("PASS" if gap_ok else "FAIL"),
         f"report in {path}")
    return 0 if ok else 1


def _cmd_young_audit(args) -> int:
    return _run_audit(args, _load_config(args), _young_observers,
                      _young_report)


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


def _cmd_mesh_info(args) -> int:
    if args.source.startswith(("interval:", "square:")):
        mesh = _builtin_mesh(args.source, args)
    else:
        mesh = load_mesh(args.source)
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
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "converge": _cmd_converge,
        "entropy-audit": _cmd_entropy_audit,
        "kinetic-audit": _cmd_kinetic_audit,
        "young-audit": _cmd_young_audit,
        "mesh-info": _cmd_mesh_info,
    }
    try:
        return handlers[args.command](args)
    except (NumericalError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except (MeshFormatError, GeometryError, TopologyError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

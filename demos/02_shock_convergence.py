"""
Shock convergence study
=======================

Runs the Godunov scheme on a Riemann shock across five refinement levels,
measures the L1 distance to the exact solution, fits the convergence rate
and shows the per-step audits that come with the run for free.
"""

import numpy as np

from fvaudit import StudyConfig, run_study, write_study_report

# half-order convergence in L1 is the guaranteed floor for monotone schemes
# on discontinuous data; a single clean shock typically converges at first
# order because the error is a finite shift of one front
cfg = StudyConfig(problem="riemann_shock", flux_rule="godunov",
                  base_n=50, levels=5, t_final=0.4)

result = run_study(cfg)

print("level   cells        h      steps        L1 error     observed rate")
print("-" * 70)
prev = None
for lv in result.levels:
    local = ""
    if prev is not None:
        local = f"{np.log(prev[1] / lv.l1) / np.log(prev[0] / lv.h):13.3f}"
    print(f"{lv.level:5d} {lv.n_cells:7d} {lv.h:9.5f} {lv.steps:9d} "
          f"{lv.l1:15.6e} {local}")
    prev = (lv.h, lv.l1)

print("-" * 70)
print(f"least-squares fitted rate: {result.fitted_rate:.4f}")

print()
print("audits attached to every level (value <= threshold means pass):")
for lv in result.levels:
    for audit in lv.audits:
        tag = "ok " if audit.passed else "FAIL"
        print(f"  level {lv.level} {audit.name:14s} value={audit.value:.3e} "
              f"threshold={audit.threshold:.0e} {tag}")

files = write_study_report(result, "demo_out/shock_convergence")
print()
print("reports written:")
for key, path in sorted(files.items()):
    print(f"  {key:10s} {path}")

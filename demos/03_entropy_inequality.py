"""
The cell entropy inequality, checked to machine precision
=========================================================

For every Kruzkov entropy |u - k| a first-order monotone scheme satisfies
a discrete entropy inequality with a matching two-point entropy flux: the
per-cell residual

    R = |u' - k| - |u - k| + (dt / |K|) sum_e s_e |e| G(a, b; k)

(s_e = +1 on the faces the cell owns as left cell, -1 on the others)
must never be positive.  This demo evaluates that residual on every
accepted step of a shock run for a grid of k values, for the three
monotone flux rules and for the undissipated central average, which is
exactly the rule the theory rejects.
"""

import numpy as np

from fvaudit import (
    CellField,
    SchemeConfig,
    cell_averages,
    check_e_flux,
    kruzkov_k_grid,
    make_flux,
    run,
    run_entropy_audit,
    uniform_interval_mesh,
)

flux = make_flux("burgers")
mesh = uniform_interval_mesh(80, -0.5, 1.0, periodic=False)
u0 = cell_averages(mesh, lambda x: np.where(x[:, 0] < 0.0, 1.0, 0.0))
k_grid = kruzkov_k_grid(0.0, 1.0, n=33)

print("worst positive entropy residual over a full shock run, 33 k values")
print("-" * 68)
for rule in ("godunov", "lax_friedrichs", "engquist_osher", "central"):
    cfg = SchemeConfig(flux_rule=rule, reconstruction="constant",
                       time_integrator="euler", cfl_number=0.45)
    traj = run(CellField(mesh, u0), flux, cfg, 0.3)
    rpt = run_entropy_audit(traj, flux, cfg, k_grid)
    verdict = "entropy consistent" if rpt.passed else "VIOLATES the inequality"
    print(f"{rule:16s} worst residual {rpt.worst: .3e}   {verdict}")

print()
print("why: the E-flux property at 10^4 random trace pairs, exact in w")
print("-" * 68)
for rule in ("godunov", "lax_friedrichs", "engquist_osher", "central"):
    rpt = check_e_flux(rule, flux, n_samples=10_000, seed=0)
    if rpt.passed:
        print(f"{rule:16s} worst violation {rpt.worst_violation:.1e}  E-flux")
    else:
        a, b, w, _ = rpt.worst_case
        print(f"{rule:16s} worst violation {rpt.worst_violation:.3f}  "
              f"NOT an E-flux, e.g. a={a:.3f} b={b:.3f} w={w:.3f}")

print()
print("the dissipation in the monotone rules is not cosmetic: remove it")
print("(central rule) and the discrete entropy inequality fails with it")

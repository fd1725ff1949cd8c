"""Finite volume solver and exactness audit suite for scalar conservation laws.

The package solves scalar conservation laws with cell-average finite volume
schemes on 1-D interval meshes and 2-D polygonal meshes, and ships audits
that check the structural properties a convergent monotone scheme must
satisfy exactly (conservation, maximum principle, discrete entropy
inequalities, L1 contraction) together with refinement diagnostics
(convergence rates, velocity-resolved defect measures, oscillation
histograms).
"""

from .mesh import (GeometryError, Mesh, MeshFormatError, RefinementError,
                   RegularityReport, TopologyError, build_mesh, load_mesh,
                   refine, regularity, sliver_triangle_mesh,
                   triangulated_rectangle, uniform_interval_mesh)
from .physics import FluxModel, ReferenceSolution, make_flux, reference
from .scheme import (CellField, ConfigurationError, NumericalError,
                     SchemeConfig, StabilityError, Trajectory, cell_averages,
                     lf_lambda, max_stable_dt, numerical_flux, reconstruct, run,
                     step, twin_run)
from .entropy import (EFluxReport, EntropyAuditReport, check_e_flux,
                      kruzkov_k_grid, numerical_entropy_flux,
                      run_entropy_audit)
from .kinetic import (DefectMeasure, KineticDensity, KineticResidual,
                      NondegeneracyReport, VGrid, chi, defect_measure,
                      frozen_trajectory, kinetic_residual, lift,
                      nondegeneracy)
from .young import (EmpiricalYoungMeasure, build_young, checkerboard_values,
                    dirac_trend, initial_consistency, level_measures,
                    nonlinearity_gap)
from .harness import (PROBLEMS, AuditResult, LevelResult, ProblemSpec,
                      StudyConfig, StudyResult, config_echo, fit_rate,
                      l1_error, parse_config, run_study, solve_level,
                      write_study_report)
from .vtkio import write_vtk

__version__ = "0.1.0"

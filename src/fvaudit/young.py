"""Empirical oscillation statistics of cell fields (patchwise histograms).

A sequence of numerical solutions converges strongly when, patch by patch,
the area-weighted histogram of cell values collapses onto a point mass.
Persistent spread instead indicates oscillation that weak-* limits keep:
the histogram limit acts like a parametrized probability measure, and its
spread is exactly what breaks the interchange of nonlinear flux and limit.

The tools here build those histograms on a grid of spatial patches, track
their variance across refinement levels with patch sizes shrinking
proportionally to the mesh size, and measure the Jensen gap between the
histogram average of f and f of the histogram mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh
from .scheme import CellField, _replay, cell_averages

__all__ = [
    "EmpiricalYoungMeasure",
    "build_young",
    "nonlinearity_gap",
    "dirac_trend",
    "InitialConsistency",
    "initial_consistency",
    "checkerboard_values",
]


@dataclass
class EmpiricalYoungMeasure:
    """Area-weighted value histograms on a grid of spatial patches.

    ``weights[p, j]`` is the area fraction of patch p whose cell value
    falls in bin j; rows sum to one.
    """

    mesh: Mesh
    patch_of_cell: np.ndarray   # (n_cells,) patch index
    n_patches: int
    weights: np.ndarray         # (n_patches, bins)
    bin_edges: np.ndarray       # (bins + 1,)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def expectation(self, fn: Callable) -> np.ndarray:
        """Histogram expectation of fn per patch; fn maps values to arrays."""
        fv = np.asarray(fn(self.bin_centers), dtype=float)
        return np.tensordot(self.weights, fv, axes=(1, 0))

    @property
    def mean(self) -> np.ndarray:
        return self.weights @ self.bin_centers

    @property
    def variance(self) -> np.ndarray:
        second = self.weights @ self.bin_centers ** 2
        return np.maximum(second - self.mean ** 2, 0.0)


# fewest cells a patch may hold, so its histogram is not one or two values
_MIN_CELLS_PER_PATCH = 4


def _check_sizes(bins: int, patches: int):
    if bins < 2:
        raise ValueError("need at least two bins")
    if patches < 1:
        raise ValueError("need at least one patch per axis")


def build_young(field: CellField, patches: int = 8,
                bins: int = 64) -> EmpiricalYoungMeasure:
    """Histogram the field over a ``patches`` (per axis) grid of patches.

    Patches tile the bounding box of the mesh vertices; cells are assigned
    by centroid.  Bins span the field range.
    """
    _check_sizes(bins, patches)
    mesh, u = field.mesh, field.values

    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    frac = (mesh.cell_centroid - lo) / span
    axis_idx = np.clip((frac * patches).astype(int), 0, patches - 1)
    patch = axis_idx[:, 0]
    for ax in range(1, mesh.dim):
        patch = patch * patches + axis_idx[:, ax]
    n_patches = patches ** mesh.dim

    counts = np.bincount(patch, minlength=n_patches)
    if counts.min() < _MIN_CELLS_PER_PATCH:
        raise ValueError(
            f"patch grid too fine: a patch holds {counts.min()} cells, "
            f"need {_MIN_CELLS_PER_PATCH}")

    v_lo, v_hi = float(u.min()), float(u.max())
    if v_hi <= v_lo:
        v_lo, v_hi = v_lo - 0.5, v_lo + 0.5
    edges = np.linspace(v_lo, v_hi, bins + 1)
    width = (v_hi - v_lo) / bins
    bin_idx = np.clip(((u - v_lo) / width).astype(int), 0, bins - 1)

    weights = np.zeros((n_patches, bins))
    np.add.at(weights, (patch, bin_idx), mesh.cell_area)
    weights /= weights.sum(axis=1, keepdims=True)
    return EmpiricalYoungMeasure(mesh=mesh, patch_of_cell=patch,
                                 n_patches=n_patches, weights=weights,
                                 bin_edges=edges)


def nonlinearity_gap(ym: EmpiricalYoungMeasure, flux) -> np.ndarray:
    """Per-patch size of <f, histogram> - f(<id, histogram>).

    Zero exactly when the histogram acts like a point mass under f; bounded
    away from zero for persistent oscillation and genuinely nonlinear f.
    """
    avg_f = ym.expectation(flux.f)             # (P, dim)
    f_avg = flux.f(ym.mean)                    # (P, dim)
    return np.linalg.norm(avg_f - f_avg, axis=-1)


def dirac_trend(fields, base_patches: int = 8, bins: int = 64) -> np.ndarray:
    """Worst patch variance per refinement level, patch size tied to h.

    ``fields`` is a coarse-to-fine sequence on one domain.  The patch count
    per axis grows like the linear cell count, so every patch keeps an
    O(1) number of cells; strong convergence drives the worst variance to
    zero while a frozen checkerboard keeps it O(1).
    """
    measures = level_measures(fields, base_patches=base_patches, bins=bins)
    return np.array([float(ym.variance.max()) for ym in measures])


def level_measures(fields, base_patches: int = 8, bins: int = 64):
    """Empirical Young measure per refinement level, patch count tied to h.

    The patch count per axis grows like the linear cell count so every
    patch keeps an O(1) number of cells across levels.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    n0 = fields[0].mesh.n_cells
    out = []
    for f in fields:
        scale = (f.mesh.n_cells / n0) ** (1.0 / f.mesh.dim)
        p = max(1, int(round(base_patches * scale)))
        out.append(build_young(f, patches=p, bins=bins))
    return out


class InitialConsistency:
    """Early-time L1 distance to the projected initial data of one run, fed
    ``start(field0)`` and then each later field; ``finish()`` gives the score.

    The score is the trapezoid average of

        E(s) = sum_K |K| |u_K(s) - avg_K(u0)|

    between the initial time and the first accepted step.  With ``u0``
    omitted the projection is the run's own initial field, so the score
    reduces to half the first-step L1 displacement.
    """

    def __init__(self, u0: Callable | None = None):
        self.u0 = u0

    def start(self, field0: CellField):
        self.ubar = (field0.values if self.u0 is None
                     else cell_averages(field0.mesh, self.u0))
        self.e = []
        self.step(field0, None)

    def step(self, field: CellField, faces):
        if len(self.e) < 2:
            self.e.append(float(field.mesh.cell_area
                                @ np.abs(field.values - self.ubar)))

    def finish(self) -> float:
        e = self.e
        return e[0] if len(e) == 1 else 0.5 * (e[0] + e[1])


def initial_consistency(trajs, u0: Callable | None = None) -> np.ndarray:
    """:class:`InitialConsistency` of every trajectory.  Weak-* initial
    consistency shows up as scores vanishing under refinement."""
    return np.array([_replay(traj.fields[:2], [InitialConsistency(u0)])[0]
                     for traj in trajs], dtype=float)


def checkerboard_values(mesh: Mesh) -> np.ndarray:
    """Alternating +1 / -1 by cell index.

    On interval meshes built in order this alternates between neighbors,
    the canonical bounded non-convergent oscillation.
    """
    return (1.0 - 2.0 * (np.arange(mesh.n_cells) % 2)).astype(float)

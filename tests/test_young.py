"""Oscillation-statistics tests: patch histograms, variance trends, gaps.

The frozen checkerboard numbers are exact: values +-1 land in the outermost
bins of a 64-bin histogram over [-1, 1], whose centers sit at +-(1 - 1/64),
so a balanced patch has variance (63/64)^2 = 0.968994140625 and Burgers
flux gap (63/64)^2 / 2 = 0.4844970703125.
"""

import numpy as np
import pytest

from fvaudit import (
    CellField,
    SchemeConfig,
    build_young,
    cell_averages,
    checkerboard_values,
    dirac_trend,
    initial_consistency,
    level_measures,
    make_flux,
    nonlinearity_gap,
    run,
    triangulated_rectangle,
    uniform_interval_mesh,
)

GODUNOV = SchemeConfig(flux_rule="godunov", reconstruction="constant",
                       time_integrator="euler", cfl_number=0.45)


def _checkerboard_field(n=64):
    mesh = uniform_interval_mesh(n, 0.0, 1.0, periodic=True)
    return CellField(mesh, checkerboard_values(mesh))


# ---------------------------------------------------------------------------
# histogram construction


def test_patch_assignment_on_interval():
    mesh = uniform_interval_mesh(64, 0.0, 1.0, periodic=True)
    ym = build_young(CellField(mesh, np.zeros(64)), patches=8, bins=16)
    assert ym.n_patches == 8
    assert np.array_equal(ym.patch_of_cell, np.arange(64) // 8)


def test_weights_are_area_fractions():
    ym = build_young(_checkerboard_field(), patches=8, bins=64)
    assert ym.weights.shape == (8, 64)
    assert np.allclose(ym.weights.sum(axis=1), 1.0)
    # each patch holds 8 alternating cells: half the area in each extreme bin
    assert np.allclose(ym.weights[:, 0], 0.5)
    assert np.allclose(ym.weights[:, -1], 0.5)
    assert np.allclose(ym.weights[:, 1:-1], 0.0)


def test_checkerboard_frozen_statistics():
    ym = build_young(_checkerboard_field(), patches=8, bins=64)
    assert np.allclose(ym.mean, 0.0)
    assert float(ym.variance.max()) == pytest.approx(0.968994140625, abs=1e-15)
    gap = nonlinearity_gap(ym, make_flux("burgers"))
    assert float(gap.max()) == pytest.approx(0.4844970703125, abs=1e-15)
    assert float(ym.variance.max()) >= 0.9
    assert abs(float(gap.max()) - 0.5) <= 1.0 / 64.0


def test_constant_field_is_a_point_mass():
    mesh = uniform_interval_mesh(32, 0.0, 1.0, periodic=True)
    ym = build_young(CellField(mesh, np.full(32, 0.7)), patches=4, bins=32)
    assert np.allclose(ym.variance, 0.0)
    assert np.all(nonlinearity_gap(ym, make_flux("burgers")) <= 1e-14)
    # degenerate value range is widened around the single value
    assert ym.bin_edges[0] < 0.7 < ym.bin_edges[-1]


def test_histogram_mean_matches_patch_mean_within_half_bin():
    rng = np.random.default_rng(11)
    mesh = uniform_interval_mesh(96, 0.0, 1.0, periodic=True)
    for _ in range(10):
        u = rng.uniform(-2.0, 2.0, 96)
        ym = build_young(CellField(mesh, u), patches=8, bins=64)
        exact = np.zeros(8)
        area = np.zeros(8)
        np.add.at(exact, ym.patch_of_cell, mesh.cell_area * u)
        np.add.at(area, ym.patch_of_cell, mesh.cell_area)
        exact /= area
        half_bin = 0.5 * (ym.bin_edges[1] - ym.bin_edges[0])
        assert np.all(np.abs(ym.mean - exact) <= half_bin + 1e-12)


def test_histogram_expectation_obeys_jensen():
    # the binned histogram is a genuine probability measure, so Jensen holds
    # exactly for it (no binning slack needed on this side)
    rng = np.random.default_rng(5)
    mesh = uniform_interval_mesh(64, 0.0, 1.0, periodic=True)
    for _ in range(10):
        u = rng.uniform(-1.5, 1.5, 64)
        ym = build_young(CellField(mesh, u), patches=8, bins=48)
        assert np.all(ym.expectation(np.square) >= ym.mean ** 2 - 1e-12)


def test_linear_flux_has_no_gap():
    ym = build_young(_checkerboard_field(), patches=8, bins=64)
    gap = nonlinearity_gap(ym, make_flux("linear_advection", a=1.5))
    assert np.all(gap <= 1e-12)


def test_patch_grid_too_fine_is_rejected():
    mesh = uniform_interval_mesh(16, 0.0, 1.0, periodic=True)
    field = CellField(mesh, np.zeros(16))
    with pytest.raises(ValueError, match="patch grid too fine"):
        build_young(field, patches=8, bins=16)
    with pytest.raises(ValueError):
        build_young(field, patches=0, bins=16)
    with pytest.raises(ValueError):
        build_young(field, patches=2, bins=1)


def test_build_young_2d_quadrants():
    mesh = triangulated_rectangle(8, 8, 0.0, 0.0, 1.0, 1.0, periodic=False)
    u = np.where(mesh.cell_centroid[:, 0] < 0.5, -1.0, 1.0)
    ym = build_young(CellField(mesh, u), patches=2, bins=8)
    assert ym.n_patches == 4
    assert np.allclose(ym.weights.sum(axis=1), 1.0)
    # left-column patches see only -1, right-column only +1
    assert np.allclose(ym.variance, 0.0)
    left = ym.mean[ym.mean < 0.0]
    assert left.size == 2 and np.allclose(ym.mean.reshape(2, 2)[0], left)


# ---------------------------------------------------------------------------
# refinement trends


def _rarefaction_finals(levels=(40, 80, 160, 320), t_final=0.4):
    flux = make_flux("burgers")
    out = []
    for n in levels:
        mesh = uniform_interval_mesh(n, -1.0, 1.0, periodic=False)
        u0 = cell_averages(mesh, lambda x: np.where(x[:, 0] < 0.0, -1.0, 1.0))
        out.append(run(CellField(mesh, u0), flux, GODUNOV, t_final))
    return out


def test_dirac_trend_collapses_on_rarefaction():
    finals = [t.final for t in _rarefaction_finals()]
    trend = dirac_trend(finals, base_patches=8, bins=64)
    assert trend.shape == (4,)
    assert np.all(np.diff(trend) < 0.0)
    assert trend[-1] <= trend[0] / 10.0


def test_dirac_trend_persists_on_checkerboard_sequence():
    fields = [_checkerboard_field(n) for n in (64, 128, 256, 512)]
    trend = dirac_trend(fields, base_patches=8, bins=64)
    assert np.all(trend >= 0.9)
    assert np.allclose(trend, 0.968994140625)


def test_level_measures_scales_patches_with_resolution():
    fields = [_checkerboard_field(n) for n in (64, 128, 256)]
    ms = level_measures(fields, base_patches=8, bins=64)
    assert [m.n_patches for m in ms] == [8, 16, 32]
    with pytest.raises(ValueError):
        level_measures([])


def test_initial_consistency_vanishes_under_refinement():
    trajs = _rarefaction_finals(t_final=0.1)
    scores = initial_consistency(trajs)
    assert np.all(np.diff(scores) < 0.0)
    assert scores[-1] <= scores[0] / 4.0
    # projecting the true initial data gives the same early-time distance
    u0 = lambda x: np.where(x[:, 0] < 0.0, -1.0, 1.0)
    assert np.allclose(initial_consistency(trajs, u0=u0), scores)


def test_initial_consistency_zero_for_unmoved_state():
    mesh = uniform_interval_mesh(20, 0.0, 1.0, periodic=True)
    traj = run(CellField(mesh, np.full(20, 0.3)), make_flux("burgers"),
               GODUNOV, 0.05)
    assert initial_consistency([traj])[0] == pytest.approx(0.0, abs=1e-15)


def test_initial_consistency_detects_wrong_data():
    # comparing a checkerboard run against smooth data stays bounded below
    mesh = uniform_interval_mesh(64, 0.0, 1.0, periodic=True)
    traj = run(CellField(mesh, checkerboard_values(mesh)),
               make_flux("linear_advection", a=1.0), GODUNOV, 0.05)
    score = initial_consistency([traj], u0=lambda x: np.zeros(len(x)))[0]
    assert score >= 0.5


def test_checkerboard_values_alternate():
    mesh = uniform_interval_mesh(10, 0.0, 1.0, periodic=True)
    v = checkerboard_values(mesh)
    assert np.array_equal(v, np.tile([1.0, -1.0], 5))

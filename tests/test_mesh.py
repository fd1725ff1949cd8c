"""Mesh construction, geometry, refinement, and text-format validation."""

import numpy as np
import pytest

from fvaudit import (
    GeometryError,
    MeshFormatError,
    build_mesh,
    load_mesh,
    refine,
    regularity,
    sliver_triangle_mesh,
    triangulated_rectangle,
    uniform_interval_mesh,
)

TWO_TRIANGLE_SQUARE = """
dim 2
vertices 4
0 0
1 0
1 1
0 1
cells 2
3 0 1 2
3 0 2 3
"""

UNIT_SQUARE_CELL = """
dim 2
vertices 4
0 0
1 0
1 1
0 1
cells 1
4 0 1 2 3
"""

# a quad beside two triangles: cells of unequal face count pad the table
MIXED_POLYGONS = """
dim 2
vertices 6
0 0
1 0
2 0
2 1
1 1
0 1
cells 3
4 0 1 4 5
3 1 2 3
3 1 3 4
"""

EQUILATERAL = """
dim 2
vertices 3
0 0
1 0
0.5 0.8660254037844386
cells 1
3 0 1 2
"""


def check_mesh_invariants(mesh):
    """Geometric closure checks applied to every mesh in this file."""
    # unit normals
    norms = np.linalg.norm(mesh.face_normal, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12

    # divergence closure per cell: sum |e| n = 0, seen from each side
    closure = np.zeros((mesh.n_cells, mesh.dim))
    weighted = mesh.face_length[:, None] * mesh.face_normal
    np.add.at(closure, mesh.face_left, weighted)
    interior = mesh.face_right >= 0
    np.subtract.at(closure, mesh.face_right[interior], weighted[interior])
    lim = 1e-12 * mesh.cell_perimeter
    assert (np.linalg.norm(closure, axis=1) <= lim).all()

    # total measure matches the domain
    assert abs(mesh.cell_area.sum() - mesh.domain_measure) \
        <= 1e-10 * mesh.domain_measure

    # every face belongs to its left cell; interior right cells are distinct
    assert (mesh.face_left >= 0).all()
    assert (mesh.face_left < mesh.n_cells).all()
    assert (mesh.face_right[interior] != mesh.face_left[interior]).all()

    # h is the max vertex-pair distance over cells
    worst = 0.0
    for i in range(mesh.n_cells):
        pts = mesh.cell_polygon(i)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        worst = max(worst, float(d.max()))
    assert mesh.h == pytest.approx(worst, rel=1e-12)

    assert mesh.cell_area.min() > 0.0
    assert (mesh.cell_diameter > 0.0).all()


MESH_BUILDERS = [
    lambda: uniform_interval_mesh(4, 0.0, 1.0, periodic=False),
    lambda: uniform_interval_mesh(7, -2.0, 3.0, periodic=True),
    lambda: build_mesh(TWO_TRIANGLE_SQUARE),
    lambda: build_mesh(UNIT_SQUARE_CELL),
    lambda: triangulated_rectangle(4, 3, 0.0, 0.0, 2.0, 1.0, periodic=False),
    lambda: triangulated_rectangle(5, 5, -1.0, -1.0, 1.0, 1.0, periodic=True),
    lambda: triangulated_rectangle(6, 6, 0.0, 0.0, 1.0, 1.0, periodic=False,
                                   jitter=0.2, seed=3),
    lambda: refine(build_mesh(TWO_TRIANGLE_SQUARE), levels=2),
    lambda: refine(uniform_interval_mesh(4, 0.0, 1.0, periodic=True)),
    lambda: build_mesh(MIXED_POLYGONS),
]


@pytest.mark.parametrize("builder", MESH_BUILDERS)
def test_closure_invariants(builder):
    check_mesh_invariants(builder())


@pytest.mark.parametrize("builder", MESH_BUILDERS)
def test_divergence_matches_ufunc_at(builder):
    """The table sum equals the add.at/subtract.at pair bit for bit."""
    mesh = builder()
    rng = np.random.default_rng(5)
    interior = mesh.face_right >= 0
    for shape in ((mesh.n_faces,), (mesh.n_faces, 7)):
        v = rng.normal(size=shape)
        want = np.zeros((mesh.n_cells,) + shape[1:])
        np.add.at(want, mesh.face_left, v)
        np.subtract.at(want, mesh.face_right[interior], v[interior])
        got = mesh.divergence(v)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("builder", MESH_BUILDERS)
def test_neighbor_range_matches_ufunc_at(builder):
    mesh = builder()
    u = np.random.default_rng(6).normal(size=mesh.n_cells)
    L, R = mesh.face_left, mesh.face_right
    interior = R >= 0
    lo, hi = u.copy(), u.copy()
    for a, b in ((L[interior], R[interior]), (R[interior], L[interior])):
        np.minimum.at(lo, a, u[b])
        np.maximum.at(hi, a, u[b])
    got_lo, got_hi = mesh.neighbor_range(u)
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)


def test_uniform_interval_geometry():
    mesh = uniform_interval_mesh(4, 0.0, 1.0, periodic=False)
    assert mesh.dim == 1
    assert mesh.n_cells == 4
    assert np.allclose(mesh.cell_area, 0.25, rtol=0.0, atol=1e-15)
    assert mesh.h == pytest.approx(0.25, rel=1e-14)
    # interval cells have perimeter 2 (two point faces of measure one)
    assert np.allclose(mesh.cell_perimeter, 2.0)
    assert np.allclose(mesh.face_length, 1.0)


def test_interval_periodic_face_count():
    open_mesh = uniform_interval_mesh(4, 0.0, 1.0, periodic=False)
    per = uniform_interval_mesh(4, 0.0, 1.0, periodic=True)
    assert open_mesh.n_faces == 5
    assert per.n_faces == 4          # endpoint faces merged into one
    assert not open_mesh.is_periodic
    assert per.is_periodic
    wrap = per.face_kind == "periodic"
    assert wrap.sum() == 1
    shift = per.face_shift[wrap][0]
    assert abs(abs(shift[0]) - 1.0) <= 1e-13


def test_two_triangle_square():
    mesh = build_mesh(TWO_TRIANGLE_SQUARE)
    assert mesh.n_cells == 2
    assert np.allclose(mesh.cell_area, 0.5, atol=1e-14)
    assert mesh.h == pytest.approx(np.sqrt(2.0), rel=1e-13)
    assert mesh.domain_measure == pytest.approx(1.0, rel=1e-13)


def test_repeated_vertex_rejected():
    bad = """
dim 2
vertices 3
0 0
1 0
0.5 1
cells 1
3 0 1 1
"""
    with pytest.raises(GeometryError):
        build_mesh(bad)


def test_degenerate_triangle_rejected():
    bad = """
dim 2
vertices 3
0 0
1 0
2 0
cells 1
3 0 1 2
"""
    with pytest.raises(GeometryError):
        build_mesh(bad)


@pytest.mark.parametrize("text,fragment", [
    ("dim 3\n", "dimension"),
    ("dim 2\nvertices x\n", "count"),
    ("dim 2\nvertices 2\n0 0\n1 1\n", "cells"),
])
def test_format_errors(text, fragment):
    with pytest.raises(MeshFormatError) as err:
        build_mesh(text)
    assert fragment in str(err.value)


def test_missing_vertex_index_rejected():
    from fvaudit import TopologyError
    with pytest.raises(TopologyError):
        build_mesh("dim 1\nvertices 2\n0\n1\ncells 1\n2 0 5\n")


def test_load_mesh_roundtrip(tmp_path):
    path = tmp_path / "square.mesh"
    path.write_text(TWO_TRIANGLE_SQUARE)
    mesh = load_mesh(path)
    assert mesh.n_cells == 2
    check_mesh_invariants(mesh)


def test_boundary_section_periodic_1d():
    text = """
dim 1
vertices 3
0
0.5
1
cells 2
2 0 1
2 1 2
boundary 1
0 periodic 2
"""
    mesh = build_mesh(text)
    assert mesh.is_periodic
    assert mesh.n_faces == 2


def test_regularity_equilateral():
    rep = regularity(build_mesh(EQUILATERAL))
    assert rep.max_ratio == pytest.approx(np.sqrt(3.0), rel=1e-9)


def test_regularity_unit_square_cell():
    rep = regularity(build_mesh(UNIT_SQUARE_CELL))
    assert rep.max_ratio == pytest.approx(np.sqrt(2.0), rel=1e-7)


def test_regularity_sliver_blows_up():
    ratios = [regularity(sliver_triangle_mesh(eps)).max_ratio
              for eps in (1e-1, 1e-2, 1e-3)]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 100.0


def test_regularity_histogram_covers_all_cells():
    mesh = triangulated_rectangle(4, 4, 0.0, 0.0, 1.0, 1.0)
    rep = regularity(mesh)
    assert rep.ratio.shape == (mesh.n_cells,)
    assert rep.hist_counts.sum() == mesh.n_cells
    assert rep.max_ratio == pytest.approx(rep.ratio.max())


def test_refine_interval():
    mesh = refine(uniform_interval_mesh(4, 0.0, 1.0, periodic=False))
    assert mesh.n_cells == 8
    assert mesh.h == pytest.approx(0.125, rel=1e-14)


def test_refine_triangles_conserves_area():
    base = build_mesh(TWO_TRIANGLE_SQUARE)
    fine = refine(base)
    assert fine.n_cells == 8
    assert abs(fine.cell_area.sum() - 1.0) <= 1e-12


def test_refine_preserves_triangle_shape():
    base = triangulated_rectangle(3, 2, 0.0, 0.0, 1.5, 1.0)
    fine = refine(base)
    r0 = regularity(base).max_ratio
    r1 = regularity(fine).max_ratio
    assert r1 == pytest.approx(r0, rel=1e-9)


def test_refine_keeps_periodicity():
    fine = refine(triangulated_rectangle(3, 3, 0.0, 0.0, 1.0, 1.0,
                                         periodic=True))
    assert fine.is_periodic
    check_mesh_invariants(fine)


def test_triangulated_rectangle_counts():
    mesh = triangulated_rectangle(4, 3, 0.0, 0.0, 2.0, 1.0)
    assert mesh.n_cells == 24
    assert mesh.domain_measure == pytest.approx(2.0)
    assert abs(mesh.cell_area.sum() - 2.0) <= 1e-12


def test_jitter_requires_seed_determinism():
    a = triangulated_rectangle(5, 5, 0.0, 0.0, 1.0, 1.0, jitter=0.2, seed=7)
    b = triangulated_rectangle(5, 5, 0.0, 0.0, 1.0, 1.0, jitter=0.2, seed=7)
    assert np.array_equal(a.vertices, b.vertices)

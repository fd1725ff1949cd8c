"""Mesh construction, geometry, refinement, and text-format validation."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fvaudit import (
    GeometryError,
    MeshFormatError,
    TopologyError,
    build_mesh,
    cell_averages,
    load_mesh,
    refine,
    regularity,
    sliver_triangle_mesh,
    triangulated_rectangle,
    uniform_interval_mesh,
)
from fvaudit import mesh as mesh_mod
from fvaudit.mesh import (_AREA_RTOL, _GEOM_RTOL, INTERIOR, OUTFLOW, PERIODIC, Mesh,
                          RefinementError, RegularityReport, _assemble,
                          _chebyshev_inradius)

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


def _text(dim, verts, cells, tags=()):
    """Mesh text from vertex lines, cell vertex lists and boundary lines."""
    lines = [f"dim {dim}", f"vertices {len(verts)}", *verts,
             f"cells {len(cells)}", *(f"{len(c.split())} {c}" for c in cells)]
    if tags:
        lines += [f"boundary {len(tags)}", *tags]
    return "\n".join(lines) + "\n"


SQUARE = ["0 0", "1 0", "1 1", "0 1"]
TWO_TRIANGLES = ["0 1 2", "0 2 3"]


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


# ---------------------------------------------------------------------------
# reference: the assembly the array-built side table replaced

def _ref_polygon_area_centroid(pts: np.ndarray) -> tuple[float, np.ndarray]:
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a2 = float(cross.sum())
    area = 0.5 * a2
    if area <= 0.0:
        raise GeometryError("cell has non-positive area; vertices must be CCW")
    cx = float(((x + xn) * cross).sum()) / (3.0 * a2)
    cy = float(((y + yn) * cross).sum()) / (3.0 * a2)
    return area, np.array([cx, cy])


def _ref_segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _ref_check_simple(pts: np.ndarray):
    k = len(pts)
    if k < 4:
        return
    for i in range(k):
        a1, a2 = pts[i], pts[(i + 1) % k]
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue
            if _ref_segments_intersect(a1, a2, pts[j], pts[(j + 1) % k]):
                raise GeometryError("non-simple polygon cell")


def _ref_max_pairwise_distance(pts: np.ndarray) -> float:
    d = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d * d).sum(-1)).max())


def reference_assemble(dim: int, vertices: np.ndarray, cells, boundary: dict | None) -> Mesh:
    """The per-cell dict-of-sides assembly that ``_assemble`` replaced.

    Kept verbatim as the reference the array assembly must match bit for
    bit.

    ``boundary`` maps a canonical face key (sorted vertex tuple) to either
    the string "outflow" or a tuple ("periodic", partner_key).
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[:, None]
    if vertices.shape[1] != dim:
        raise GeometryError(f"vertex coordinates have {vertices.shape[1]} components, expected {dim}")
    if not np.all(np.isfinite(vertices)):
        raise GeometryError("non-finite vertex coordinate")
    boundary = dict(boundary or {})
    cells = tuple(tuple(int(v) for v in c) for c in cells)
    n_v = len(vertices)
    for c in cells:
        if len(set(c)) != len(c):
            raise GeometryError(f"cell {c} repeats a vertex")
        if min(c) < 0 or max(c) >= n_v:
            raise TopologyError(f"cell {c} references a missing vertex")

    n_c = len(cells)
    area = np.empty(n_c)
    centroid = np.empty((n_c, dim))
    diameter = np.empty(n_c)

    # directed per-cell boundary walk: key -> list of (cell, normal, length, midpoint)
    sides: dict[tuple, list] = {}

    if dim == 1:
        for ic, c in enumerate(cells):
            if len(c) != 2:
                raise GeometryError("1-D cells are vertex pairs")
            xa, xb = float(vertices[c[0], 0]), float(vertices[c[1], 0])
            if xb <= xa:
                raise GeometryError(f"1-D cell {c} is not positively oriented")
            area[ic] = xb - xa
            centroid[ic] = 0.5 * (xa + xb)
            diameter[ic] = xb - xa
            for key, nrm, mid in (((c[0],), -1.0, xa), ((c[1],), 1.0, xb)):
                sides.setdefault(key, []).append(
                    (ic, np.array([nrm]), 1.0, np.array([mid]))
                )
    elif dim == 2:
        for ic, c in enumerate(cells):
            pts = vertices[list(c)]
            if len(c) < 3:
                raise GeometryError("2-D cells need at least 3 vertices")
            _ref_check_simple(pts)
            area[ic], centroid[ic] = _ref_polygon_area_centroid(pts)
            diameter[ic] = _ref_max_pairwise_distance(pts)
            k = len(c)
            for j in range(k):
                a, b = c[j], c[(j + 1) % k]
                pa, pb = vertices[a], vertices[b]
                t = pb - pa
                ell = float(np.hypot(t[0], t[1]))
                if ell <= 0.0:
                    raise GeometryError("zero-length edge")
                nrm = np.array([t[1], -t[0]]) / ell  # outward for CCW cells
                sides.setdefault(tuple(sorted((a, b))), []).append(
                    (ic, nrm, ell, 0.5 * (pa + pb))
                )
    else:
        raise GeometryError(f"unsupported dimension {dim}")

    # topology: every face belongs to one or two cells
    boundary_keys = []
    for key, owners in sides.items():
        if len(owners) > 2:
            raise TopologyError(f"face {key} is shared by {len(owners)} cells")
        if len(owners) == 1:
            boundary_keys.append(key)
        else:
            n0, n1 = owners[0][1], owners[1][1]
            if np.abs(n0 + n1).max() > _GEOM_RTOL:
                raise TopologyError(f"interior face {key} has non-opposing normals")

    for key in boundary:
        if key not in sides:
            raise TopologyError(f"boundary tag names unknown face {key}")
        if len(sides[key]) != 1:
            raise TopologyError(f"boundary tag names interior face {key}")

    # complete one-sided periodic declarations, then validate the involution
    pairs = {k: v[1] for k, v in boundary.items() if isinstance(v, tuple) and v[0] == PERIODIC}
    for key, partner in list(pairs.items()):
        if partner not in sides or len(sides[partner]) != 1:
            raise TopologyError(f"periodic partner {partner} of {key} is not a boundary face")
        back = pairs.get(partner)
        if back is None:
            pairs[partner] = key
        elif back != key:
            raise TopologyError(f"inconsistent periodic pairing at {key} / {partner}")
    for key, partner in pairs.items():
        if key == partner:
            raise TopologyError(f"face {key} cannot pair with itself")
        if sides[key][0][0] == sides[partner][0][0]:
            raise TopologyError("periodic pair lives on a single cell; refine the mesh first")

    # domain measure from the boundary walk; interior faces cancel by
    # construction, so agreement with sum(cell_area) checks orientation
    # consistency and cell overlap at the same time.
    if dim == 1:
        xs = vertices[:, 0]
        domain = float(xs.max() - xs.min())
    else:
        domain = 0.0
        for ic, c in enumerate(cells):
            k = len(c)
            for j in range(k):
                a, b = c[j], c[(j + 1) % k]
                key = tuple(sorted((a, b)))
                if len(sides[key]) == 1:
                    pa, pb = vertices[a], vertices[b]
                    domain += 0.5 * (pa[0] * pb[1] - pb[0] * pa[1])
    total = float(area.sum())
    if not math.isclose(total, domain, rel_tol=_AREA_RTOL, abs_tol=0.0):
        raise GeometryError(
            f"cell areas sum to {total!r} but the boundary encloses {domain!r}"
        )

    # face arrays; periodic pairs are emitted once, by their smaller key
    fl, fr, fn, flen, fml, fmr, fkind = [], [], [], [], [], [], []
    perimeter = np.zeros(n_c)
    for key, owners in sorted(sides.items()):
        for ic, _, ell, _ in owners:
            perimeter[ic] += ell
        if len(owners) == 2:
            (c0, n0, ell, mid), (c1, _, _, _) = owners
            fl.append(c0)
            fr.append(c1)
            fn.append(n0)
            flen.append(ell)
            fml.append(mid)
            fmr.append(mid)
            fkind.append(INTERIOR)
            continue
        if key not in pairs:
            ic, nrm, ell, mid = owners[0]
            fl.append(ic)
            fr.append(-1)
            fn.append(nrm)
            flen.append(ell)
            fml.append(mid)
            fmr.append(mid)
            fkind.append(OUTFLOW)
            continue
        partner = pairs[key]
        if partner < key:
            continue  # emitted when the partner was visited
        ic, nrm, ell, mid = owners[0]
        jc, prm, pell, pmid = sides[partner][0]
        if not math.isclose(ell, pell, rel_tol=_GEOM_RTOL, abs_tol=0.0):
            raise TopologyError(
                f"periodic faces {key} and {partner} differ in length"
            )
        if np.abs(nrm + prm).max() > 1e-9:
            raise TopologyError(
                f"periodic faces {key} and {partner} are not antiparallel"
            )
        fl.append(ic)
        fr.append(jc)
        fn.append(nrm)
        flen.append(ell)
        fml.append(mid)
        fmr.append(pmid)
        fkind.append(PERIODIC)

    mesh = Mesh(
        dim=dim,
        vertices=vertices,
        cells=cells,
        cell_area=area,
        cell_centroid=centroid,
        cell_perimeter=perimeter,
        cell_diameter=diameter,
        face_left=np.array(fl, dtype=int),
        face_right=np.array(fr, dtype=int),
        face_normal=np.array(fn, dtype=float).reshape(len(fn), dim),
        face_length=np.array(flen, dtype=float),
        face_midpoint_left=np.array(fml, dtype=float).reshape(len(fml), dim),
        face_midpoint_right=np.array(fmr, dtype=float).reshape(len(fmr), dim),
        face_kind=np.array(fkind, dtype=object),
        h=float(diameter.max()),
        domain_measure=domain,
        _boundary_spec={k: v for k, v in boundary.items() if v == OUTFLOW}
        | {k: (PERIODIC, v) for k, v in pairs.items()},
    )
    _ref_validate_closure(mesh)
    return mesh


def _ref_validate_closure(mesh: Mesh):
    """Per-cell divergence closure: sum of length-weighted outward normals."""
    if mesh.dim == 1:
        return  # closure is exact by construction: (+1) + (-1)
    for ic, c in enumerate(mesh.cells):
        pts = mesh.vertices[list(c)]
        t = np.roll(pts, -1, axis=0) - pts
        resid = np.array([t[:, 1].sum(), -t[:, 0].sum()])
        if np.abs(resid).max() > _GEOM_RTOL * mesh.cell_perimeter[ic]:
            raise GeometryError(f"cell {ic} fails the normal closure identity")


def _assemblies(builder, monkeypatch):
    """Every (arguments, mesh) pair ``_assemble`` sees while ``builder`` runs."""
    calls = []

    def spy(*args):
        mesh = real(*args)
        calls.append((args, mesh))
        return mesh

    real = mesh_mod._assemble
    monkeypatch.setattr(mesh_mod, "_assemble", spy)
    builder()
    monkeypatch.undo()
    return calls


def assert_same_mesh(got, want):
    """Equal fields; arrays equal bit for bit, with equal dtype and shape."""
    for f in dataclasses.fields(Mesh):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            same = np.array_equal(a, b) if b.dtype == object \
                else a.tobytes() == b.tobytes()
            assert same, f.name
        elif isinstance(b, float):
            # the reference's 2-D domain measure is an np.float64
            assert float(a).hex() == float(b).hex(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("builder", MESH_BUILDERS + [
    lambda: triangulated_rectangle(48, 48, -0.5, 0.0, 1.0, 1.0),
    lambda: triangulated_rectangle(128, 128, periodic=True),
    lambda: triangulated_rectangle(20, 13, periodic=True, jitter=0.25, seed=2),
    lambda: uniform_interval_mesh(777, -0.5, 1.0, periodic=False),
    lambda: refine(triangulated_rectangle(16, 16, periodic=True), 2),
])
def test_assembly_matches_reference(builder, monkeypatch):
    calls = _assemblies(builder, monkeypatch)
    assert calls
    for args, mesh in calls:
        assert_same_mesh(mesh, reference_assemble(*args))


# ---------------------------------------------------------------------------
# reference: the per-cell builders, refinement and regularity that the
# array code replaced, kept verbatim as the bit-for-bit references

def reference_triangulated_rectangle(nx: int, ny: int | None = None,
                                     x0: float = 0.0, y0: float = 0.0,
                                     x1: float = 1.0, y1: float = 1.0,
                                     periodic: bool = False,
                                     jitter: float = 0.0, seed: int = 0) -> Mesh:
    """Structured triangulation: each grid quad is split along one diagonal.

    ``jitter`` moves interior vertices by a uniform fraction of the local
    spacing (at most 0.3) to produce irregular but valid triangulations.
    """
    if ny is None:
        ny = nx
    if nx < 1 or ny < 1 or x1 <= x0 or y1 <= y0:
        raise GeometryError("bad rectangle parameters")
    if not 0.0 <= jitter <= 0.3:
        raise GeometryError("jitter must sit in [0, 0.3]")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
        interior = np.ones(len(verts), dtype=bool)
        for i in range(nx + 1):
            interior[vid(i, 0)] = interior[vid(i, ny)] = False
        for j in range(ny + 1):
            interior[vid(0, j)] = interior[vid(nx, j)] = False
        verts[interior] += rng.uniform(-jitter, jitter, (interior.sum(), 2)) * (dx, dy)

    cells = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    boundary: dict = {}
    if periodic:
        for j in range(ny):
            left = tuple(sorted((vid(0, j), vid(0, j + 1))))
            right = tuple(sorted((vid(nx, j), vid(nx, j + 1))))
            boundary[left] = (PERIODIC, right)
        for i in range(nx):
            bottom = tuple(sorted((vid(i, 0), vid(i + 1, 0))))
            top = tuple(sorted((vid(i, ny), vid(i + 1, ny))))
            boundary[bottom] = (PERIODIC, top)
    return _assemble(2, verts, cells, boundary)


def reference_refine_once(mesh: Mesh) -> Mesh:
    if mesh.dim == 1:
        old = mesh.vertices[:, 0]
        mids = np.array([0.5 * (old[a] + old[b]) for a, b in mesh.cells])
        verts = np.concatenate([old, mids])[:, None]
        cells = []
        for i, (a, b) in enumerate(mesh.cells):
            m = len(old) + i
            cells.extend([(a, m), (m, b)])
        # endpoint vertex indices survive, so boundary keys carry over
        return _assemble(1, verts, cells, dict(mesh._boundary_spec))

    for c in mesh.cells:
        if len(c) != 3:
            raise RefinementError("midpoint refinement needs an all-triangle mesh")

    old = mesh.vertices
    new_pts = list(old)
    midpoint_of: dict[tuple, int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        idx = midpoint_of.get(key)
        if idx is None:
            idx = len(new_pts)
            new_pts.append(0.5 * (old[a] + old[b]))
            midpoint_of[key] = idx
        return idx

    cells = []
    for v0, v1, v2 in mesh.cells:
        m01, m12, m02 = midpoint(v0, v1), midpoint(v1, v2), midpoint(v0, v2)
        cells.extend([(v0, m01, m02), (m01, v1, m12), (m02, m12, v2), (m01, m12, m02)])

    verts = np.array(new_pts)

    def child_keys(key):
        a, b = key
        m = midpoint(a, b)
        return [tuple(sorted((a, m))), tuple(sorted((m, b)))]

    def key_mid(key):
        return 0.5 * (verts[key[0]] + verts[key[1]])

    boundary: dict = {}
    done = set()
    for key, tag in mesh._boundary_spec.items():
        if tag == OUTFLOW:
            for ck in child_keys(key):
                boundary[ck] = OUTFLOW
            continue
        partner = tag[1]
        if key in done or partner in done:
            continue
        done.update((key, partner))
        shift = key_mid(key) - key_mid(partner)
        tol = 1e-9 * max(mesh.h, 1.0)
        for ck in child_keys(key):
            target = key_mid(ck) - shift
            matched = [pk for pk in child_keys(partner)
                       if np.abs(key_mid(pk) - target).max() <= tol]
            if len(matched) != 1:
                raise TopologyError("periodic pairing does not survive refinement")
            boundary[ck] = (PERIODIC, matched[0])
            boundary[matched[0]] = (PERIODIC, ck)
    return _assemble(2, verts, cells, boundary)


def _ref_triangle_inradius(pts: np.ndarray, area: float) -> float:
    a = np.linalg.norm(pts[1] - pts[0])
    b = np.linalg.norm(pts[2] - pts[1])
    c = np.linalg.norm(pts[0] - pts[2])
    return 2.0 * area / (a + b + c)


def reference_regularity(mesh: Mesh, bins: int = 16) -> RegularityReport:
    n = mesh.n_cells
    ratio = np.empty(n)
    if mesh.dim == 1:
        ratio[:] = 1.0
    else:
        for i, c in enumerate(mesh.cells):
            pts = mesh.vertices[list(c)]
            if len(c) == 3:
                r = _ref_triangle_inradius(pts, mesh.cell_area[i])
            else:
                r = _chebyshev_inradius(pts)
            if r <= 0.0:
                raise GeometryError(f"cell {i} has a degenerate inscribed circle")
            ratio[i] = mesh.cell_diameter[i] / (2.0 * r)
    counts, edges = np.histogram(ratio, bins=bins)
    return RegularityReport(
        ratio=ratio,
        max_ratio=float(ratio.max()),
        hist_counts=counts,
        hist_edges=edges,
    )


def _grid_text(nx, ny, dx, dy, tags):
    """Mesh text of the i-major triangulated grid with vertex i * (ny + 1) + j."""
    verts = [f"{i * dx} {j * dy}" for i in range(nx + 1) for j in range(ny + 1)]
    cells = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            cells += [f"{v00} {v10} {v10 + 1}", f"{v00} {v10 + 1} {v00 + 1}"]
    return _text(2, verts, cells, tags)


# explicit outflow tags on two of the four sides; the rest default
OUTFLOW_TAGGED = TWO_TRIANGLE_SQUARE + "boundary 2\n0 1 outflow\n2 3 outflow\n"
# periodic in x, declared one side per pair, with an outflow-tagged bottom
PERIODIC_TAGGED = _grid_text(2, 2, 0.5, 0.25, [
    "0 1 periodic 6 7", "7 8 periodic 1 2", "0 3 outflow", "3 6 outflow"])

RECTANGLES = [
    dict(nx=4, periodic=True),
    dict(nx=4, ny=3, x0=-1.0, x1=2.0, y1=0.5, periodic=True),
    dict(nx=3, ny=4),
    dict(nx=5, ny=2, x1=3.0, y0=-1.0),
    dict(nx=1, ny=1, periodic=True),
]
JITTERED = [dict(kw, jitter=0.25, seed=seed)
            for seed, kw in enumerate(RECTANGLES[:4])]

REFINE_BASES = {
    **{f"rectangle{i}": (lambda kw=kw: triangulated_rectangle(**kw))
       for i, kw in enumerate(RECTANGLES + JITTERED)},
    "two-triangles": lambda: build_mesh(TWO_TRIANGLE_SQUARE),
    "outflow-tags": lambda: build_mesh(OUTFLOW_TAGGED),
    "periodic-tags": lambda: build_mesh(PERIODIC_TAGGED),
    "interval-open": lambda: uniform_interval_mesh(5, -1.0, 2.0, periodic=False),
    "interval-periodic": lambda: uniform_interval_mesh(6, periodic=True),
}


@pytest.mark.parametrize("kw", RECTANGLES + JITTERED + [
    dict(nx=128, periodic=True), dict(nx=48, x0=-0.5),
    dict(nx=20, ny=13, periodic=True, jitter=0.25, seed=2),
])
def test_triangulated_rectangle_matches_reference(kw):
    assert_same_mesh(triangulated_rectangle(**kw), reference_triangulated_rectangle(**kw))


@pytest.mark.parametrize("name", REFINE_BASES)
def test_refine_matches_reference(name):
    got = want = REFINE_BASES[name]()
    for _ in range(3):
        got, want = refine(got), reference_refine_once(want)
        assert_same_mesh(got, want)
        # the tags come out in the same order, so do the pairing errors
        assert list(got._boundary_spec.items()) == list(want._boundary_spec.items())


def test_refine_carries_loaded_tags():
    outflow = refine(build_mesh(OUTFLOW_TAGGED), 2)
    assert set(outflow._boundary_spec.values()) == {OUTFLOW}
    assert len(outflow._boundary_spec) == 8
    periodic = refine(build_mesh(PERIODIC_TAGGED), 2)
    assert sum(periodic.face_kind == PERIODIC) == 8
    assert sum(tag == OUTFLOW for tag in periodic._boundary_spec.values()) == 8


def test_refine_rejects_non_triangles():
    for text in (UNIT_SQUARE_CELL, MIXED_POLYGONS):
        for refine_once in (mesh_mod._refine_once, reference_refine_once):
            with pytest.raises(RefinementError):
                refine_once(build_mesh(text))


def test_refine_rejects_pairing_that_does_not_survive():
    # the left side (length 1) paired with a bottom edge (length 1/2):
    # assembly never builds this, so the spec is swapped in afterwards
    mesh = triangulated_rectangle(2, 1)
    left, bottom = (0, 1), (0, 2)
    bad = dataclasses.replace(mesh, _boundary_spec={
        left: (PERIODIC, bottom), bottom: (PERIODIC, left)})
    for refine_once in (mesh_mod._refine_once, reference_refine_once):
        with pytest.raises(TopologyError, match="does not survive refinement"):
            refine_once(bad)


def test_jitter_past_bound_is_refused_before_assembly(monkeypatch):
    def no_assembly(*args):
        raise AssertionError("assembled a mesh")

    monkeypatch.setattr(mesh_mod, "_assemble", no_assembly)
    for jitter in (0.3, 0.2500001, -0.1):
        with pytest.raises(GeometryError, match=r"\[0, 0.25\]"):
            triangulated_rectangle(8, jitter=jitter)


def test_jitter_at_bound_builds():
    for seed in range(20):
        mesh = triangulated_rectangle(16, 9, periodic=seed % 2 == 0, jitter=0.25, seed=seed)
        assert mesh.cell_area.min() > 0.0


def _assert_same_regularity(got, want, rtol=0.0):
    assert isinstance(got, RegularityReport)
    if rtol == 0.0:
        assert got.ratio.tobytes() == want.ratio.tobytes()
        assert got.max_ratio.hex() == want.max_ratio.hex()
        assert np.array_equal(got.hist_counts, want.hist_counts)
        assert got.hist_edges.tobytes() == want.hist_edges.tobytes()
    else:
        assert np.abs(got.ratio - want.ratio).max() <= rtol * want.ratio.max()
        assert got.max_ratio == pytest.approx(want.max_ratio, rel=rtol, abs=0.0)


@pytest.mark.parametrize("build", [
    lambda: triangulated_rectangle(128, periodic=True),
    lambda: triangulated_rectangle(8, 8, 0.0, 0.0, 1.0, 1.0),
    lambda: refine(triangulated_rectangle(8, 8, 0.0, 0.0, 1.0, 1.0), 2),
    lambda: triangulated_rectangle(16, 16, -1.0, -1.0, 1.0, 1.0, periodic=True),
    lambda: build_mesh(UNIT_SQUARE_CELL),
    lambda: build_mesh(MIXED_POLYGONS),
    lambda: uniform_interval_mesh(9, periodic=False),
])
def test_regularity_matches_reference_bit_for_bit(build):
    """Power-of-two squares, polygons and intervals: no ratio moves."""
    mesh = build()
    _assert_same_regularity(regularity(mesh), reference_regularity(mesh))


@pytest.mark.parametrize("build", [
    lambda: triangulated_rectangle(7, 7, 0.0, 0.0, 1.0, 1.0),
    lambda: triangulated_rectangle(48, 48, -0.5, 0.0, 1.0, 1.0),
    lambda: triangulated_rectangle(10, 4, 0.0, 0.0, 2.0, 0.5, periodic=True),
    lambda: triangulated_rectangle(12, 5, 0.0, 0.0, 3.0, 0.7),
    lambda: triangulated_rectangle(64, periodic=True, jitter=0.25, seed=3),
    lambda: triangulated_rectangle(20, 13, 0.0, 0.0, 2.0, 1.0, jitter=0.2, seed=1),
    lambda: refine(triangulated_rectangle(5, 5, jitter=0.25, seed=4), 2),
    lambda: build_mesh(EQUILATERAL),
    lambda: build_mesh(PERIODIC_TAGGED),
    lambda: sliver_triangle_mesh(1e-3),
])
def test_regularity_matches_reference_to_rounding(build):
    """Elsewhere the perimeter adds its sides in face order, so a ratio
    may move by rounding."""
    mesh = build()
    _assert_same_regularity(regularity(mesh), reference_regularity(mesh), rtol=1e-15)


def test_regularity_bins_ratios_equal_to_rounding():
    # the 3 x 3 square's ratios differ in the last bit, too little for 16
    # finite bins; they are binned as one value, as numpy bins equal ones
    mesh = triangulated_rectangle(3)
    rep = regularity(mesh)
    assert np.ptp(rep.ratio) > 0.0
    assert rep.ratio == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
    assert rep.hist_counts.tolist() == [0] * 8 + [mesh.n_cells] + [0] * 7
    assert rep.hist_edges[0] == pytest.approx(rep.max_ratio - 0.5, rel=1e-15)


def _exact_polygon_average(pts, coeffs):
    """Average of c0 + c1 x + c2 y + c3 x^2 + c4 xy over an integer-vertex
    polygon, from Green's-theorem moment sums in exact rationals."""
    p = [(Fraction(int(x)), Fraction(int(y))) for x, y in pts]
    sums = [Fraction(0)] * 5
    for (x0, y0), (x1, y1) in zip(p, p[1:] + p[:1]):
        w = x0 * y1 - x1 * y0
        sums[0] += w / 2
        sums[1] += w * (x0 + x1) / 6
        sums[2] += w * (y0 + y1) / 6
        sums[3] += w * (x0 * x0 + x0 * x1 + x1 * x1) / 12
        sums[4] += w * (x0 * y1 + 2 * x0 * y0 + 2 * x1 * y1 + x1 * y0) / 24
    return float(sum(Fraction(c) * m for c, m in zip(coeffs, sums)) / sums[0])


@pytest.mark.parametrize("text", [UNIT_SQUARE_CELL, MIXED_POLYGONS])
@pytest.mark.parametrize("coeffs", [
    (0, 0, 0, 1, 0),              # x^2
    (0, 0, 0, 0, 1),              # xy
    (0.5, 2.0, -1.25, 0, 0),      # affine
    (1.0, -0.5, 0.75, 3.0, -2.0),
])
def test_cell_averages_polygons_exact_for_quadratics(text, coeffs):
    """The centroid fan of general polygons is exact for quadratics."""
    mesh = build_mesh(text)
    c0, c1, c2, c3, c4 = coeffs
    got = cell_averages(mesh, lambda x: c0 + c1 * x[:, 0] + c2 * x[:, 1]
                        + c3 * x[:, 0] ** 2 + c4 * x[:, 0] * x[:, 1])
    want = [_exact_polygon_average(mesh.cell_polygon(i), coeffs)
            for i in range(mesh.n_cells)]
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * max(1.0, np.abs(want).max())


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


INTERVAL = "dim 1\nvertices 2\n0\n1\ncells 1\n2 0 1\n"


# each input ends at its defect, so the error names the last line
@pytest.mark.parametrize("text,fragment", [
    ("dim 3\n", "dimension"),
    ("dim 2\nvertices x\n", "count"),
    ("dim 2\nvertices 2\n0 0\n1 1\n", "cells"),
    ("dimension 2\n", "expected 'dim <d>'"),
    ("dim two\n", "bad dimension 'two'"),
    ("dim 2\nverts 3\n", "expected 'vertices <count>'"),
    ("# a comment line\n\ndim 2\nvertices -1\n", "negative count -1"),
    ("dim 2\nvertices 1\n0\n", "expected 2 coordinate(s)"),
    ("dim 2\nvertices 1\n0 y\n", "bad coordinate"),
    ("dim 1\nvertices 2\n0\n1\ncells 1\n2 0 b\n", "bad cell line"),
    ("dim 1\nvertices 2\n0\n1\ncells 1\n3 0 1\n", "declares 3 vertices but lists 2"),
    (INTERVAL + "bounds 1\n", "expected 'boundary <count>'"),
    (INTERVAL + "boundary 1\nx outflow\n", "bad face indices"),
    (INTERVAL + "boundary 1\n0\n", "missing boundary tag"),
    (INTERVAL + "boundary 1\n0 periodic y\n", "bad partner face"),
    (INTERVAL + "boundary 1\n0 periodic\n", "unrecognized boundary tag"),
    (INTERVAL + "boundary 1\n0 inflow\n", "unrecognized boundary tag"),
    (INTERVAL + "boundary 1\n0 outflow\n1 outflow\n", "trailing content '1 outflow'"),
])
def test_format_errors(text, fragment):
    with pytest.raises(MeshFormatError) as err:
        build_mesh(text)
    assert fragment in str(err.value)
    assert err.value.line == len(text.splitlines())


def test_missing_vertex_index_rejected():
    from fvaudit import TopologyError
    with pytest.raises(TopologyError):
        build_mesh("dim 1\nvertices 2\n0\n1\ncells 1\n2 0 5\n")


# each input has exactly one defect
@pytest.mark.parametrize("source,exc,fragment", [
    (_text(2, SQUARE, ["0 1 1"]), GeometryError, "repeats a vertex"),
    (_text(2, SQUARE, ["0 1 7"]), TopologyError, "references a missing vertex"),
    (_text(2, SQUARE, ["0 1 -1"]), TopologyError, "references a missing vertex"),
    (_text(1, ["0", "0.5", "1"], ["0 1 2"]), GeometryError, "vertex pairs"),
    (_text(1, ["0", "1"], ["1 0"]), GeometryError, "not positively oriented"),
    (_text(1, ["0", "1", "2", "3"], ["0 1", "2 3"]), GeometryError,
     "cell areas sum to"),
    (_text(2, SQUARE, ["0 1"]), GeometryError, "at least 3 vertices"),
    (_text(2, SQUARE, ["0 2 1 3"]), GeometryError, "non-simple polygon"),
    (_text(2, SQUARE, ["0 2 1"]), GeometryError, "non-positive area"),
    (_text(2, ["0 0", "2 0", "2 2", "1 1", "1 1", "0 2"], ["0 1 2 3 4 5"]),
     GeometryError, "zero-length edge"),
    (_text(2, ["0 0", "1 0", "0.5 1", "0.5 -1", "0.5 2"],
           ["0 1 2", "1 0 3", "0 1 4"]), TopologyError, "shared by 3 cells"),
    (_text(2, ["0 0", "1 0", "0.5 1", "0.5 2"], ["0 1 2", "0 1 3"]),
     TopologyError, "non-opposing normals"),
    (_text(2, SQUARE, TWO_TRIANGLES, ["1 3 outflow"]), TopologyError,
     "unknown face"),
    # 0 * 4 + 6 would alias edge (1, 2) if keys were not range-checked
    (_text(2, SQUARE, TWO_TRIANGLES, ["0 6 outflow"]), TopologyError,
     "unknown face"),
    (lambda: _assemble(2, np.eye(3)[:, :2], [(0, 1, 2)], {(1, 0): OUTFLOW}),
     TopologyError, "unknown face"),
    (_text(1, ["0", "1"], ["0 1"], ["5 outflow"]), TopologyError, "unknown face"),
    (_text(2, SQUARE, TWO_TRIANGLES, ["0 2 outflow"]), TopologyError,
     "interior face"),
    (_text(2, SQUARE, TWO_TRIANGLES, ["0 1 periodic 0 2"]), TopologyError,
     "is not a boundary face"),
    (_text(2, SQUARE, TWO_TRIANGLES, ["0 1 periodic 2 3", "2 3 periodic 1 2"]),
     TopologyError, "inconsistent periodic pairing"),
    (_text(2, SQUARE, TWO_TRIANGLES, ["0 1 periodic 0 1"]), TopologyError,
     "cannot pair with itself"),
    (_text(2, SQUARE, ["0 1 2 3"], ["0 1 periodic 2 3"]), TopologyError,
     "single cell"),
    (_text(2, ["0 0", "2 0", "1 1", "0 1"], TWO_TRIANGLES, ["0 1 periodic 2 3"]),
     TopologyError, "differ in length"),
    (_text(2, SQUARE, TWO_TRIANGLES, ["0 1 periodic 0 3"]), TopologyError,
     "not antiparallel"),
    (_text(2, ["0 0", "nan 0", "0 1"], ["0 1 2"]), GeometryError, "non-finite"),
    (lambda: _assemble(2, np.zeros((3, 3)), [(0, 1, 2)], {}), GeometryError,
     "3 components, expected 2"),
    (lambda: _assemble(3, np.eye(3), [(0, 1, 2)], {}), GeometryError,
     "unsupported dimension 3"),
    (_text(2, SQUARE, []), GeometryError, "mesh has no cells"),
])
def test_assembly_rejections(source, exc, fragment):
    with pytest.raises(exc) as err:
        source() if callable(source) else build_mesh(source)
    assert fragment in str(err.value)


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


def _linprog_inradius(pts, linprog):
    """Largest inscribed circle of a convex polygon, as a linear program."""
    t = np.roll(pts, -1, axis=0) - pts
    n = np.column_stack([t[:, 1], -t[:, 0]]) / np.linalg.norm(t, axis=1)[:, None]
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([n, np.ones(len(pts))]),
                  b_ub=(n * pts).sum(axis=1),
                  bounds=[(None, None), (None, None), (0, None)], method="highs")
    assert res.success
    return float(res.x[2])


def test_chebyshev_inradius_matches_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(4)
    polygons = [build_mesh(UNIT_SQUARE_CELL).cell_polygon(0),
                build_mesh(MIXED_POLYGONS).cell_polygon(0)]
    for k in range(4, 10):
        theta = 2.0 * np.pi * np.arange(k) / k
        polygons.append(np.column_stack([np.cos(theta), np.sin(theta)]))
        for _ in range(10):
            # points on an ellipse, in angle order, are a convex CCW polygon
            theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
            a, b = rng.uniform(0.1, 3.0, 2)
            polygons.append(np.column_stack([a * np.cos(theta), b * np.sin(theta)])
                            + rng.uniform(-5.0, 5.0, 2))
    for pts in polygons:
        want = _linprog_inradius(pts, linprog)
        assert _chebyshev_inradius(pts) == pytest.approx(want, rel=1e-12, abs=0.0)


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

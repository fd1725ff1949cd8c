"""Cell/face meshes for finite volume calculations.

Two mesh families are first class citizens:

* 1-D interval meshes: cells are intervals, faces are points.  A point face
  has measure 1, so the "perimeter" of an interval cell is 2 and the usual
  cell-update formula applies verbatim in one dimension.
* 2-D polygonal meshes: cells are simple, positively oriented polygons,
  faces are straight edges with unit outward normals.

Periodic boundaries are resolved at construction time: each matched pair of
boundary faces is merged into a single interior face that carries the
geometry of both sides (the two midpoints differ by the pairing
translation).  This makes flux assembly exactly conservative, because a
periodic flux is evaluated once and summed into its two cells with
opposite signs.

Face-to-cell sums go through one operator, :meth:`Mesh.divergence`.  It
reads a cell-to-face incidence table built once per mesh: each cell lists
the faces it owns as left cell, then those it owns as right cell, each in
face order, padded to the longest list.  Every per-cell sum therefore adds
its terms in one fixed order, so results are reproducible bit for bit.

Mesh text format
----------------
Plain text, whitespace separated, ``#`` starts a comment::

    dim 2
    vertices <n_vertices>
    <x> <y>              # one line per vertex (just <x> when dim is 1)
    cells <n_cells>
    <k> <i0> ... <ik-1>  # vertex count, then vertex indices, CCW
    boundary <n_lines>   # optional section
    <i> <j> outflow            # 2-D face named by its vertex pair
    <i> <j> periodic <p> <q>   # pairs face (i,j) with face (p,q)

In 1-D a boundary face is named by a single vertex index.  Boundary faces
not mentioned in the ``boundary`` section default to outflow.  Periodic
declarations may be given on one side only; the partner is inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "GeometryError",
    "TopologyError",
    "RefinementError",
    "RegularityReport",
    "build_mesh",
    "load_mesh",
    "refine",
    "regularity",
    "uniform_interval_mesh",
    "triangulated_rectangle",
    "sliver_triangle_mesh",
]

INTERIOR = "interior"
PERIODIC = "periodic"
OUTFLOW = "outflow"

_AREA_RTOL = 1e-10
_GEOM_RTOL = 1e-12


class MeshFormatError(ValueError):
    """Raised for malformed mesh text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GeometryError(ValueError):
    """Degenerate or inconsistent cell geometry."""


class TopologyError(ValueError):
    """Inconsistent cell/face connectivity or boundary pairing."""


class RefinementError(ValueError):
    """Refinement requested for an unsupported cell shape."""


@dataclass(frozen=True)
class Mesh:
    """Immutable mesh with derived geometry.

    Faces are stored once.  ``face_left`` always owns the stored outward
    normal; ``face_right`` is the neighbor index or -1 for an outflow
    boundary face.  For merged periodic faces the two sides sit at
    different locations, hence the two midpoint arrays.
    """

    dim: int
    vertices: np.ndarray          # (n_vertices, dim)
    cells: tuple                  # tuple of vertex-index tuples
    cell_area: np.ndarray         # (n_cells,)
    cell_centroid: np.ndarray     # (n_cells, dim)
    cell_perimeter: np.ndarray    # (n_cells,)
    cell_diameter: np.ndarray     # (n_cells,)
    face_left: np.ndarray         # (n_faces,)
    face_right: np.ndarray        # (n_faces,)  -1 on outflow faces
    face_normal: np.ndarray       # (n_faces, dim) unit, outward from left
    face_length: np.ndarray       # (n_faces,)  1.0 for point faces
    face_midpoint_left: np.ndarray   # (n_faces, dim)
    face_midpoint_right: np.ndarray  # (n_faces, dim)
    face_kind: np.ndarray         # (n_faces,) strings from {interior, periodic, outflow}
    h: float
    domain_measure: float
    _boundary_spec: dict = field(repr=False, default_factory=dict)
    # derived incidence tables, shape (width, n_cells); see _incidence
    cell_faces: np.ndarray = field(init=False, repr=False, compare=False)
    cell_face_sign: np.ndarray = field(init=False, repr=False, compare=False)
    cell_neighbors: np.ndarray = field(init=False, repr=False, compare=False)
    _signed_slots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tables = _incidence(self.n_cells, self.face_left, self.face_right)
        for name, value in zip(("cell_faces", "cell_face_sign", "cell_neighbors",
                                "_signed_slots"), tables):
            object.__setattr__(self, name, value)
        for name in (
            "vertices", "cell_area", "cell_centroid", "cell_perimeter",
            "cell_diameter", "face_left", "face_right",
            "face_normal", "face_length", "face_midpoint_left",
            "face_midpoint_right", "face_kind",
            "cell_faces", "cell_face_sign", "cell_neighbors", "_signed_slots",
        ):
            getattr(self, name).setflags(write=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_faces(self) -> int:
        return len(self.face_left)

    @property
    def is_periodic(self) -> bool:
        """True when no face is an open (outflow) boundary."""
        return not np.any(self.face_kind == OUTFLOW)

    @property
    def face_shift(self) -> np.ndarray:
        """Translation from the right-side copy of each face to the left one."""
        return self.face_midpoint_left - self.face_midpoint_right

    def cell_polygon(self, i: int) -> np.ndarray:
        return self.vertices[list(self.cells[i])]

    def divergence(self, face_values) -> np.ndarray:
        """Signed face-to-cell sum of ``face_values``, shape (F,) or (F, K).

        Cell K gets ``+v_e`` from every face it owns as left cell and
        ``-v_e`` from every face it owns as right cell.  The terms are
        added one table row at a time, starting from zero, which is the
        order ``np.add.at`` over left cells followed by ``np.subtract.at``
        over right cells would use, so the two agree bit for bit.
        """
        v = np.asarray(face_values, dtype=float)
        if v.shape[:1] != (self.n_faces,):
            raise ValueError(f"expected {self.n_faces} face values, got {v.shape}")
        signed = np.concatenate([v, -v, np.zeros((1,) + v.shape[1:])])
        out = np.zeros((self.n_cells,) + v.shape[1:])
        for slots in self._signed_slots:
            out += signed[slots]
        return out

    def neighbor_range(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell min and max of ``u`` over the cell and its face neighbors."""
        u = np.asarray(u, dtype=float)
        around = u[self.cell_neighbors]
        return (np.minimum(u, around.min(axis=0)),
                np.maximum(u, around.max(axis=0)))


def _incidence(n_cells: int, face_left: np.ndarray, face_right: np.ndarray):
    """Padded cell-to-face tables of shape (width, n_cells).

    Column K lists the faces cell K owns as left cell (sign +1), then
    those it owns as right cell (sign -1), each group in face order.
    Shorter columns are padded with face 0 and sign 0.  ``neighbors``
    names the cell across each entry, or K itself on an outflow face or
    a pad.  ``slots`` indexes the stacked operand [v; -v; 0] of
    :meth:`Mesh.divergence`: face f, F + f, or 2F on a pad.
    """
    n_faces = len(face_left)
    interior = face_right >= 0
    owner = np.concatenate([face_left, face_right[interior]])
    order = np.argsort(owner, kind="stable")   # keeps left-then-right order
    owner = owner[order]
    face = np.concatenate([np.arange(n_faces), np.flatnonzero(interior)])[order]
    left = order < n_faces
    other = np.where(left, face_right[face], face_left[face])
    counts = np.bincount(owner, minlength=n_cells)
    width = int(counts.max()) if n_cells else 0
    row = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    faces = np.zeros((width, n_cells), dtype=int)
    signs = np.zeros((width, n_cells))
    neighbors = np.repeat(np.arange(n_cells)[None, :], width, axis=0)
    slots = np.full((width, n_cells), 2 * n_faces)
    faces[row, owner] = face
    signs[row, owner] = np.where(left, 1.0, -1.0)
    neighbors[row, owner] = np.where(other >= 0, other, owner)
    slots[row, owner] = np.where(left, face, face + n_faces)
    return faces, signs, neighbors, slots


# ---------------------------------------------------------------------------
# geometry helpers

def _polygon_area_centroid(pts: np.ndarray) -> tuple[float, np.ndarray]:
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


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple(pts: np.ndarray):
    k = len(pts)
    if k < 4:
        return
    for i in range(k):
        a1, a2 = pts[i], pts[(i + 1) % k]
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue
            if _segments_intersect(a1, a2, pts[j], pts[(j + 1) % k]):
                raise GeometryError("non-simple polygon cell")


def _max_pairwise_distance(pts: np.ndarray) -> float:
    d = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d * d).sum(-1)).max())


# ---------------------------------------------------------------------------
# assembly

def _assemble(dim: int, vertices: np.ndarray, cells, boundary: dict | None) -> Mesh:
    """Build a Mesh from raw vertices, cell polygons and a boundary spec.

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
            _check_simple(pts)
            area[ic], centroid[ic] = _polygon_area_centroid(pts)
            diameter[ic] = _max_pairwise_distance(pts)
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
    _validate_closure(mesh)
    return mesh


def _validate_closure(mesh: Mesh):
    """Per-cell divergence closure: sum of length-weighted outward normals."""
    if mesh.dim == 1:
        return  # closure is exact by construction: (+1) + (-1)
    for ic, c in enumerate(mesh.cells):
        pts = mesh.vertices[list(c)]
        t = np.roll(pts, -1, axis=0) - pts
        resid = np.array([t[:, 1].sum(), -t[:, 0].sum()])
        if np.abs(resid).max() > _GEOM_RTOL * mesh.cell_perimeter[ic]:
            raise GeometryError(f"cell {ic} fails the normal closure identity")


# ---------------------------------------------------------------------------
# text format

def build_mesh(source: str) -> Mesh:
    """Parse the plain-text mesh format described in the module docstring."""
    lines = source.splitlines()

    tokens: list[tuple[int, list[str]]] = []
    for i, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((i, body.split()))

    pos = 0

    def take(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of input, expected {what}",
                                  len(lines))
        t = tokens[pos]
        pos += 1
        return t

    def keyword_count(word: str) -> int:
        ln, parts = take(f"'{word} <count>'")
        if len(parts) != 2 or parts[0] != word:
            raise MeshFormatError(f"expected '{word} <count>'", ln)
        try:
            n = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad count {parts[1]!r}", ln) from None
        if n < 0:
            raise MeshFormatError(f"negative count {n}", ln)
        return n

    ln, parts = take("'dim <d>'")
    if len(parts) != 2 or parts[0] != "dim":
        raise MeshFormatError("expected 'dim <d>'", ln)
    try:
        dim = int(parts[1])
    except ValueError:
        raise MeshFormatError(f"bad dimension {parts[1]!r}", ln) from None
    if dim not in (1, 2):
        raise MeshFormatError(f"unsupported dimension {dim}", ln)

    n_v = keyword_count("vertices")
    verts = np.empty((n_v, dim))
    for i in range(n_v):
        ln, parts = take("vertex coordinates")
        if len(parts) != dim:
            raise MeshFormatError(f"expected {dim} coordinate(s)", ln)
        try:
            verts[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"bad coordinate in {parts!r}", ln) from None

    n_c = keyword_count("cells")
    cells = []
    for _ in range(n_c):
        ln, parts = take("cell vertex list")
        try:
            k = int(parts[0])
            idx = [int(p) for p in parts[1:]]
        except ValueError:
            raise MeshFormatError(f"bad cell line {parts!r}", ln) from None
        if len(idx) != k:
            raise MeshFormatError(
                f"cell declares {k} vertices but lists {len(idx)}", ln)
        cells.append(tuple(idx))

    boundary: dict = {}
    if pos < len(tokens):
        n_b = keyword_count("boundary")
        nkey = 1 if dim == 1 else 2
        for _ in range(n_b):
            ln, parts = take("boundary tag line")
            try:
                key = tuple(sorted(int(p) for p in parts[:nkey]))
            except ValueError:
                raise MeshFormatError(f"bad face indices in {parts!r}", ln) from None
            rest = parts[nkey:]
            if not rest:
                raise MeshFormatError("missing boundary tag", ln)
            if rest[0] == OUTFLOW and len(rest) == 1:
                boundary[key] = OUTFLOW
            elif rest[0] == PERIODIC and len(rest) == 1 + nkey:
                try:
                    partner = tuple(sorted(int(p) for p in rest[1:]))
                except ValueError:
                    raise MeshFormatError(f"bad partner face in {rest!r}", ln) from None
                boundary[key] = (PERIODIC, partner)
            else:
                raise MeshFormatError(f"unrecognized boundary tag {rest!r}", ln)
    if pos < len(tokens):
        ln, parts = tokens[pos]
        raise MeshFormatError(f"trailing content {' '.join(parts)!r}", ln)

    return _assemble(dim, verts, cells, boundary)


def load_mesh(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        return build_mesh(fh.read())


# ---------------------------------------------------------------------------
# builders

def uniform_interval_mesh(n_cells: int, x0: float = 0.0, x1: float = 1.0,
                          periodic: bool = True) -> Mesh:
    if n_cells < 1 or x1 <= x0:
        raise GeometryError("need n_cells >= 1 and x1 > x0")
    verts = np.linspace(x0, x1, n_cells + 1)[:, None]
    cells = [(i, i + 1) for i in range(n_cells)]
    boundary: dict = {}
    if periodic:
        boundary[(0,)] = (PERIODIC, (n_cells,))
    return _assemble(1, verts, cells, boundary)


def triangulated_rectangle(nx: int, ny: int | None = None,
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


def sliver_triangle_mesh(eps: float) -> Mesh:
    """Single thin triangle with base 1 and height ``eps``."""
    if eps <= 0:
        raise GeometryError("eps must be positive")
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, eps]])
    return _assemble(2, verts, [(0, 1, 2)], {})


# ---------------------------------------------------------------------------
# refinement

def refine(mesh: Mesh, levels: int = 1) -> Mesh:
    """Uniform refinement: interval bisection in 1-D, midpoint subdivision
    of triangles in 2-D (four congruent children).  Non-triangular 2-D
    cells are rejected."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    for _ in range(levels):
        mesh = _refine_once(mesh)
    return mesh


def _refine_once(mesh: Mesh) -> Mesh:
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


# ---------------------------------------------------------------------------
# shape regularity

@dataclass(frozen=True)
class RegularityReport:
    """Per-cell ratio of diameter to inner diameter (twice the inradius)."""

    ratio: np.ndarray
    max_ratio: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def _triangle_inradius(pts: np.ndarray, area: float) -> float:
    a = np.linalg.norm(pts[1] - pts[0])
    b = np.linalg.norm(pts[2] - pts[1])
    c = np.linalg.norm(pts[0] - pts[2])
    return 2.0 * area / (a + b + c)


def _chebyshev_inradius(pts: np.ndarray) -> float:
    # largest inscribed circle of a convex polygon, as a tiny LP
    from scipy.optimize import linprog

    k = len(pts)
    a_ub = np.empty((k, 3))
    b_ub = np.empty(k)
    for j in range(k):
        p, q = pts[j], pts[(j + 1) % k]
        t = q - p
        n = np.array([t[1], -t[0]]) / np.linalg.norm(t)  # outward
        a_ub[j] = [n[0], n[1], 1.0]
        b_ub[j] = n @ p
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None), (None, None), (0, None)],
                  method="highs")
    if not res.success:
        raise GeometryError("inscribed-circle problem failed; cell may be nonconvex")
    return float(res.x[2])


def regularity(mesh: Mesh, bins: int = 16) -> RegularityReport:
    n = mesh.n_cells
    ratio = np.empty(n)
    if mesh.dim == 1:
        ratio[:] = 1.0
    else:
        for i, c in enumerate(mesh.cells):
            pts = mesh.vertices[list(c)]
            if len(c) == 3:
                r = _triangle_inradius(pts, mesh.cell_area[i])
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

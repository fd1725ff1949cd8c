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
face order, padded to the longest list.  The march and both audits add
their face terms in the same row order, so results agree bit for bit.

Assembly runs on one side table: a row per (cell, edge) in cell-then-edge
order, with the owning cell, a face key (lo * n_vertices + hi for an edge
lo < hi, the vertex in 1-D), the outward normal, the length and the
midpoint.  Key order is the order of the sorted vertex tuples, so a stable
sort of the keys yields the faces in that order and each face's owners in
cell order, whatever the cell shapes.  Per-cell sums run along the rows of
blocks of equal-size cells, so each cell adds its terms in vertex order.

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
from itertools import chain, combinations

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
    # (n_faces,) the cell across each face from its left cell: face_right,
    # or face_left itself on an outflow face, whose ghost copies the inside
    face_across: np.ndarray = field(init=False, repr=False, compare=False)
    # arrays other layers derive from the geometry alone, cached by key;
    # the mesh is immutable, so they never go stale
    _derived: dict = field(init=False, repr=False, compare=False,
                           default_factory=dict)

    def __post_init__(self):
        tables = _incidence(self.n_cells, self.face_left, self.face_right)
        for name, value in zip(("cell_faces", "cell_face_sign", "cell_neighbors"), tables):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "face_across", np.where(
            self.face_right >= 0, self.face_right, self.face_left))
        self._freeze()

    def _freeze(self):
        for name in (
            "vertices", "cell_area", "cell_centroid", "cell_perimeter",
            "cell_diameter", "face_left", "face_right",
            "face_normal", "face_length", "face_midpoint_left",
            "face_midpoint_right", "face_kind",
            "cell_faces", "cell_face_sign", "cell_neighbors",
            "face_across",
        ):
            getattr(self, name).setflags(write=False)

    def __getstate__(self):
        # the derived arrays are rebuilt on first use
        return {**self.__dict__, "_derived": {}}

    def __setstate__(self, state):
        # unpickled arrays come back writeable
        self.__dict__.update(state)
        self._freeze()

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
        return _signed_sum(self.cell_faces, self.cell_face_sign, v)

    def neighbor_range(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell min and max of ``u`` over the cell and its face neighbors."""
        return _range_over(self.cell_neighbors, np.asarray(u, dtype=float))


def _signed_sum(faces: np.ndarray, signs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:meth:`Mesh.divergence` by the tables ``faces`` and ``signs``, which
    may also be those of meshes laid side by side.  Multiplying by +-1 is
    exact, and a pad's sign 0 adds a zero to a sum that is never -0 (a nan
    if face 0's value is not finite)."""
    out = np.zeros(faces.shape[1:] + v.shape[1:])
    signs = signs.reshape(signs.shape + (1,) * (v.ndim - 1))
    for f, s in zip(faces, signs):  # one table row at a time
        term = v[f]
        term *= s
        out += term
    return out


def _range_over(neighbors: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell min and max of ``u`` over the cell and the cells its column
    of ``neighbors`` names, one table row at a time; ``u`` may hold rows of
    cells, (..., cells), each taken alone."""
    lo = hi = u.take(neighbors[0], axis=-1)
    for row in neighbors[1:]:
        x = u.take(row, axis=-1)
        lo, hi = np.minimum(lo, x), np.maximum(hi, x)
    return np.minimum(u, lo), np.maximum(u, hi)


def _incidence(n_cells: int, face_left: np.ndarray, face_right: np.ndarray):
    """Padded cell-to-face tables of shape (width, n_cells).

    Column K lists the faces cell K owns as left cell (sign +1), then
    those it owns as right cell (sign -1), each group in face order.
    Shorter columns are padded with face 0 and sign 0.  ``neighbors``
    names the cell across each entry, or K itself on an outflow face or
    a pad.  Every face-to-cell sum adds its terms in this row order.
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
    faces[row, owner] = face
    signs[row, owner] = np.where(left, 1.0, -1.0)
    neighbors[row, owner] = np.where(other >= 0, other, owner)
    return faces, signs, neighbors


# ---------------------------------------------------------------------------
# geometry helpers

def _check_simple(pts: np.ndarray):
    """Reject self-crossing polygons, ``pts`` of shape (m, k, 2), by testing
    every pair of edges that share no vertex (triangles have none)."""
    def left_turn(a, b, c):
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])) > 0

    k = pts.shape[1]
    nxt = np.roll(pts, -1, axis=1)
    for i in range(k):
        for j in range(i + 2, k if i else k - 1):
            p1, p2, p3, p4 = pts[:, i], nxt[:, i], pts[:, j], nxt[:, j]
            if np.any((left_turn(p3, p4, p1) != left_turn(p3, p4, p2))
                      & (left_turn(p1, p2, p3) != left_turn(p1, p2, p4))):
                raise GeometryError("non-simple polygon cell")


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
    if dim not in (1, 2):
        raise GeometryError(f"unsupported dimension {dim}")
    boundary = dict(boundary or {})
    cells = tuple(tuple(map(int, c)) for c in cells)
    n_v, n_c = len(vertices), len(cells)
    if n_c == 0:
        raise GeometryError("mesh has no cells")
    size = np.fromiter(map(len, cells), dtype=int, count=n_c)
    if dim == 1 and np.any(size != 2):
        raise GeometryError("1-D cells are vertex pairs")
    if dim == 2 and np.any(size < 3):
        raise GeometryError("2-D cells need at least 3 vertices")

    # side table: one row per (cell, edge), in cell-then-edge order
    first = np.cumsum(size) - size
    side_cell = np.repeat(np.arange(n_c), size)
    n_s = len(side_cell)
    corner = np.fromiter(chain.from_iterable(cells), dtype=int, count=n_s)
    missing = (corner < 0) | (corner >= n_v)
    if missing.any():
        raise TopologyError(f"cell {cells[side_cell[missing.argmax()]]} references a missing vertex")
    owned = np.sort(side_cell * n_v + corner)
    repeats = owned[1:] == owned[:-1]
    if repeats.any():
        raise GeometryError(f"cell {cells[owned[1:][repeats.argmax()] // n_v]} repeats a vertex")

    if dim == 1:
        xa, xb = vertices[corner[0::2], 0], vertices[corner[1::2], 0]
        if np.any(xb <= xa):
            raise GeometryError(f"1-D cell {cells[np.argmax(xb <= xa)]} is not positively oriented")
        area, diameter = xb - xa, xb - xa
        centroid = (0.5 * (xa + xb))[:, None]
        side_key, side_mid = corner, vertices[corner]
        side_normal = np.tile([-1.0, 1.0], n_c)[:, None]
        side_length = np.ones(n_s)
    else:
        nxt = np.arange(1, n_s + 1)
        nxt[first + size - 1] = first
        end = corner[nxt]
        pa, pb = vertices[corner], vertices[end]
        t = pb - pa
        side_length = np.hypot(t[:, 0], t[:, 1])
        if np.any(side_length <= 0.0):
            raise GeometryError("zero-length edge")
        side_normal = np.stack([t[:, 1], -t[:, 0]], axis=1) / side_length[:, None]
        side_mid = 0.5 * (pa + pb)
        side_key = np.minimum(corner, end) * n_v + np.maximum(corner, end)
        wedge = pa[:, 0] * pb[:, 1] - pb[:, 0] * pa[:, 1]
        moment = (pa + pb).T * wedge
        # per-cell sums run along rows of equal-size blocks, which adds the
        # same terms in the same order as summing each cell's own k-vector
        area, diameter, centroid = np.empty(n_c), np.empty(n_c), np.empty((n_c, 2))
        for k in sorted(set(size.tolist())):
            rows = np.flatnonzero(size == k)
            slots = first[rows, None] + np.arange(k)
            pts = vertices[corner[slots]]
            _check_simple(pts)
            a2 = wedge[slots].sum(axis=1)
            area[rows] = 0.5 * a2
            if np.any(area[rows] <= 0.0):
                raise GeometryError("cell has non-positive area; vertices must be CCW")
            centroid[rows] = (moment[:, slots].sum(axis=-1) / (3.0 * a2)).T
            d = pts[:, :, None, :] - pts[:, None, :, :]
            diameter[rows] = np.sqrt((d * d).sum(-1)).max(axis=(1, 2))

    # each cell adds its side lengths in face order, as the faces are visited
    by_key = np.lexsort((side_key, side_cell))
    padded = np.zeros((n_c, int(size.max())))
    padded[side_cell, np.arange(n_s) - first[side_cell]] = side_length[by_key]
    perimeter = np.cumsum(padded, axis=1)[:, -1]
    closure = np.abs([np.bincount(side_cell, side_length * n, n_c)
                      for n in side_normal.T]).max(axis=0)
    open_cells = closure > _GEOM_RTOL * perimeter
    if open_cells.any():
        raise GeometryError(f"cell {open_cells.argmax()} fails the normal closure identity")

    # faces in key order; the stable sort lists each face's owners by cell
    order = np.argsort(side_key, kind="stable")
    keys, head, count = np.unique(side_key[order], return_index=True, return_counts=True)
    left = order[head]
    right = order[np.minimum(head + 1, n_s - 1)]   # second owner where count == 2

    def key_of(f) -> tuple:
        return divmod(int(keys[f]), n_v) if dim == 2 else (int(keys[f]),)

    def face_of(key) -> int:
        """Index of the face with canonical key ``key``, or -1."""
        f = int(np.searchsorted(keys, key[0] * n_v + key[-1] if dim == 2 else key[0]))
        return f if f < len(keys) and key_of(f) == tuple(key) else -1

    # topology: every face belongs to one or two cells
    if np.any(count > 2):
        f = int(np.argmax(count > 2))
        raise TopologyError(f"face {key_of(f)} is shared by {count[f]} cells")
    shared = count == 2
    clash = shared & (np.abs(side_normal[left] + side_normal[right]).max(axis=1) > _GEOM_RTOL)
    if clash.any():
        raise TopologyError(f"interior face {key_of(clash.argmax())} has non-opposing normals")

    # resolve tags: complete one-sided periodic declarations, check the
    # involution, and merge each pair into the face of its smaller key
    face_right = np.where(shared, side_cell[right], -1)
    mid_right = side_mid[left]
    kind = np.where(shared, INTERIOR, OUTFLOW).astype(object)
    keep = np.ones(len(keys), dtype=bool)
    pairs = {k: v[1] for k, v in boundary.items() if isinstance(v, tuple) and v[0] == PERIODIC}
    for key in boundary:
        f = face_of(key)
        if f < 0:
            raise TopologyError(f"boundary tag names unknown face {key}")
        if shared[f]:
            raise TopologyError(f"boundary tag names interior face {key}")
        if key not in pairs:
            continue
        partner = pairs[key]
        g = face_of(partner)
        if g < 0 or shared[g]:
            raise TopologyError(f"periodic partner {partner} of {key} is not a boundary face")
        if pairs.setdefault(partner, key) != key:
            raise TopologyError(f"inconsistent periodic pairing at {key} / {partner}")
        if key == partner:
            raise TopologyError(f"face {key} cannot pair with itself")
        if side_cell[left[f]] == side_cell[left[g]]:
            raise TopologyError("periodic pair lives on a single cell; refine the mesh first")
        if not math.isclose(side_length[left[f]], side_length[left[g]],
                            rel_tol=_GEOM_RTOL, abs_tol=0.0):
            raise TopologyError(f"periodic faces {key} and {partner} differ in length")
        if np.abs(side_normal[left[f]] + side_normal[left[g]]).max() > 1e-9:
            raise TopologyError(f"periodic faces {key} and {partner} are not antiparallel")
        f, g = sorted((f, g))
        face_right[f], mid_right[f] = side_cell[left[g]], side_mid[left[g]]
        kind[f], keep[g] = PERIODIC, False

    # domain measure from the boundary walk, added side by side in cell
    # order; interior faces cancel by construction, so agreement with
    # sum(cell_area) checks orientation consistency and cell overlap at once
    if dim == 1:
        domain = float(vertices[:, 0].max() - vertices[:, 0].min())
    else:
        walk = 0.5 * wedge[~shared[np.searchsorted(keys, side_key)]]
        domain = float(np.cumsum(np.r_[0.0, walk])[-1])
    total = float(area.sum())
    if not math.isclose(total, domain, rel_tol=_AREA_RTOL, abs_tol=0.0):
        raise GeometryError(
            f"cell areas sum to {total!r} but the boundary encloses {domain!r}"
        )

    left = left[keep]
    return Mesh(
        dim=dim,
        vertices=vertices,
        cells=cells,
        cell_area=area,
        cell_centroid=centroid,
        cell_perimeter=perimeter,
        cell_diameter=diameter,
        face_left=side_cell[left],
        face_right=face_right[keep],
        face_normal=side_normal[left],
        face_length=side_length[left],
        face_midpoint_left=side_mid[left],
        face_midpoint_right=mid_right[keep],
        face_kind=kind[keep],
        h=float(diameter.max()),
        domain_measure=domain,
        _boundary_spec={k: v for k, v in boundary.items() if v == OUTFLOW}
        | {k: (PERIODIC, v) for k, v in pairs.items()},
    )


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
    spacing, at most 0.25, to produce irregular but valid triangulations.
    Twice a triangle's area is affine in each vertex, so its minimum over
    the jitter box sits at a corner.  At every cell aspect ratio the first
    zero-area corner appears at jitter 0.25, and it needs a displacement of
    +jitter, which the half-open uniform draw never makes.
    """
    if ny is None:
        ny = nx
    if nx < 1 or ny < 1 or x1 <= x0 or y1 <= y0:
        raise GeometryError("bad rectangle parameters")
    if not 0.0 <= jitter <= 0.25:
        raise GeometryError("jitter must sit in [0, 0.25]")
    # vertex (i, j) of the (nx + 1) x (ny + 1) grid has index i * (ny + 1) + j
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
        interior = np.zeros((nx + 1, ny + 1), dtype=bool)
        interior[1:-1, 1:-1] = True
        interior = interior.ravel()
        verts[interior] += rng.uniform(-jitter, jitter, (interior.sum(), 2)) * (dx, dy)

    # quad (i, j) in i-major order: corners v00, v10 = v00 + ny + 1, and
    # v01, v11 one row up; two triangles share the v00-v11 diagonal
    v00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    v10 = v00 + ny + 1
    cells = np.column_stack([v00, v10, v10 + 1, v00, v10 + 1, v00 + 1]).reshape(-1, 3)
    boundary: dict = {}
    if periodic:
        # left edges pair with right edges, then bottom edges with top ones
        j, i = np.arange(ny), np.arange(nx) * (ny + 1)
        west = np.column_stack([j, j + 1])
        south = np.column_stack([i, i + ny + 1])
        tags = np.concatenate([west, south]).tolist()
        partners = np.concatenate([west + nx * (ny + 1), south + ny]).tolist()
        boundary = {tuple(a): (PERIODIC, tuple(b)) for a, b in zip(tags, partners)}
    return _assemble(2, verts, cells.tolist(), boundary)


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
    old = mesh.vertices
    n_v, spec = len(old), mesh._boundary_spec
    if mesh.dim == 1:
        ends = np.array(mesh.cells)
        mids = 0.5 * (old[ends[:, 0]] + old[ends[:, 1]])
        m = n_v + np.arange(len(ends))
        cells = np.column_stack([ends[:, 0], m, m, ends[:, 1]]).reshape(-1, 2)
        # endpoint vertex indices survive, so boundary keys carry over
        return _assemble(1, np.concatenate([old, mids]), cells.tolist(), dict(spec))

    if set(map(len, mesh.cells)) != {3}:
        raise RefinementError("midpoint refinement needs an all-triangle mesh")

    # edges 01, 12, 02 of every cell, keyed lo * n_v + hi as in assembly;
    # midpoints are numbered in the order the cells first meet their edges
    tri = np.array(mesh.cells)
    a, b = tri[:, [0, 1, 0]], tri[:, [1, 2, 2]]
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    keys, first, inverse = np.unique(lo * n_v + hi, return_index=True,
                                     return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    side = first[seen]                  # first side of each edge, by number
    verts = np.concatenate([old, 0.5 * (old[lo[side]] + old[hi[side]])])
    m01, m12, m02 = (n_v + rank[inverse]).reshape(-1, 3).T
    v0, v1, v2 = tri.T
    cells = np.stack([v0, m01, m02, m01, v1, m12, m02, m12, v2, m01, m12, m02],
                     axis=1).reshape(-1, 3)

    # boundary edge (p, q) splits into (p, m) and (q, m); m > q as a new vertex
    tagged = np.array(list(spec), dtype=int).reshape(-1, 2)
    m = n_v + rank[np.searchsorted(keys, tagged[:, 0] * n_v + tagged[:, 1])]
    halves = np.stack([tagged, np.column_stack([m, m])], axis=-1)   # (tag, half, end)
    half_mid = 0.5 * (verts[halves[..., 0]] + verts[halves[..., 1]])
    slot = {key: s for s, key in enumerate(spec)}
    partner = np.array([-1 if tag == OUTFLOW else slot[tag[1]] for tag in spec.values()],
                       dtype=int)

    # periodic pairs, each once from the side listed first; a half matches
    # the partner half its midpoint lands on after the pairing shift
    own = np.flatnonzero(np.arange(len(spec)) < partner)
    other = partner[own]
    tag_mid = 0.5 * (verts[tagged[:, 0]] + verts[tagged[:, 1]])
    target = half_mid[own] - (tag_mid[own] - tag_mid[other])[:, None]
    gap = np.abs(half_mid[other][:, None, :, :] - target[:, :, None, :]).max(axis=-1)
    hit = gap <= 1e-9 * max(mesh.h, 1.0)                       # (pair, own half, half)
    if np.any(hit.sum(axis=-1) != 1):
        raise TopologyError("periodic pairing does not survive refinement")
    matched = halves[other[:, None], hit.argmax(axis=-1)]
    pair_keys = np.stack([halves[own], matched], axis=2).reshape(-1, 2, 2).tolist()

    # outflow halves, then each half beside its match: the tag order fixes
    # the order of the refined mesh's boundary spec
    boundary: dict = {tuple(k): OUTFLOW for k in halves[partner < 0].reshape(-1, 2).tolist()}
    for ck, pk in pair_keys:
        boundary[tuple(ck)] = (PERIODIC, tuple(pk))
        boundary[tuple(pk)] = (PERIODIC, tuple(ck))
    return _assemble(2, verts, cells.tolist(), boundary)


# ---------------------------------------------------------------------------
# shape regularity

@dataclass(frozen=True)
class RegularityReport:
    """Per-cell ratio of diameter to inner diameter (twice the inradius)."""

    ratio: np.ndarray
    max_ratio: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def _chebyshev_inradius(pts: np.ndarray) -> float:
    """Radius of the largest circle inside a convex polygon.

    The circle (c, r) lies inside edge j when n_j . c + r <= n_j . p_j.
    That is a linear program in (c, r), and an optimum sits where three
    of the constraints are tight, so the answer is the largest feasible
    circle tangent to three edge lines.  Coordinates are taken from the
    vertex mean, so the feasibility tolerance scales with the cell.
    """
    pts = pts - pts.mean(axis=0)
    t = np.roll(pts, -1, axis=0) - pts
    n = np.stack([t[:, 1], -t[:, 0]], axis=1) / np.hypot(t[:, 0], t[:, 1])[:, None]
    lhs = np.column_stack([n, np.ones(len(pts))])
    rhs = (n * pts).sum(axis=1)
    triples = np.array(list(combinations(range(len(pts)), 3)))
    a = lhs[triples]
    solvable = np.abs(np.linalg.det(a)) > 1e-12
    circles = np.linalg.solve(a[solvable], rhs[triples[solvable], None])[..., 0]
    inside = (circles @ lhs.T - rhs <= 1e-12 * np.abs(pts).max()).all(axis=1)
    radii = circles[inside & (circles[:, 2] >= 0.0), 2]
    if not len(radii):
        raise GeometryError("inscribed-circle problem failed; cell may be nonconvex")
    return float(radii.max())


# bins of the shape-ratio histogram that regularity reports
_REGULARITY_BINS = 16


def regularity(mesh: Mesh) -> RegularityReport:
    if mesh.dim == 1:
        ratio = np.ones(mesh.n_cells)
    else:
        # a triangle's inradius is 2|K| / perimeter(K); other polygons
        # solve the inscribed-circle problem one cell at a time
        radius = 2.0 * mesh.cell_area / mesh.cell_perimeter
        size = np.fromiter(map(len, mesh.cells), dtype=int, count=mesh.n_cells)
        for i in np.flatnonzero(size != 3).tolist():
            radius[i] = _chebyshev_inradius(mesh.cell_polygon(i))
        flat = radius <= 0.0
        if flat.any():
            raise GeometryError(f"cell {flat.argmax()} has a degenerate inscribed circle")
        ratio = mesh.cell_diameter / (2.0 * radius)
    # ratios that differ by rounding only leave no room for finite bins:
    # bin them as equal values, which numpy centres in a unit range
    edges = np.linspace(ratio.min(), ratio.max(), _REGULARITY_BINS + 1)
    binned = ratio if np.all(np.diff(edges) > 0.0) else np.full_like(ratio, ratio.max())
    counts, edges = np.histogram(binned, bins=_REGULARITY_BINS)
    return RegularityReport(
        ratio=ratio,
        max_ratio=float(ratio.max()),
        hist_counts=counts,
        hist_edges=edges,
    )

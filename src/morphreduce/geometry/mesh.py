"""Triangle surface data model and plain-text mesh I/O (OBJ, ASCII STL).

Vertices are stored as an (V, 3) float64 array and triangles as a (T, 3)
integer index array.  Meshes are immutable after construction: every array
is copied and the copy locked read-only, so no caller can write to it, and
field attachment returns a new mesh.  A vertex with a NaN or infinite
coordinate is refused when the mesh is built.

A mesh keeps derived facts in two caches of one kind (_Cache).  The
connectivity cache, shared by every mesh derived with with_vertices or
with_scalar_field, holds what depends on the triangles alone (closedness,
the OBJ face block) and the OBJ vertex lines of the first mesh written, so
that writing a deformed copy formats only the vertices that moved.  The
memo, each mesh's own, holds what depends on its vertices too: its volume
integrals and the FFD reference basis of its vertices.  One rule serves
both: the first caller that asks for an entry builds it, racing callers
wait for that build, and an entry asked for under another tag is rebuilt.

OBJ files that hold only `v x y z` lines followed by only `f i j k` lines,
as save_mesh writes them, are parsed in bulk: one whitespace split of the
whole text and one float or int conversion pass, with the same converters
the line parser uses, so the arrays are bitwise the same.  Every other file
(comments, blank lines, other records, `/` references, quads, interleaved
records, bad numbers, out-of-range indices) goes to the line parser, which
is the only source of MeshFormatError messages about the text; both paths
name the file when the mesh refuses a vertex (_parsed_mesh).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from ..errors import MeshFormatError, ToolkitError
from ..textio import FLOAT, write_text

_XYZ = f"{FLOAT} {FLOAT} {FLOAT}\n"
_OBJ_VERTEX = "v " + _XYZ
_OBJ_FACE = "f %d %d %d\n"
_STL_FACET = ("  facet normal " + _XYZ + "    outer loop\n" + ("      vertex " + _XYZ) * 3
              + "    endloop\n  endfacet\n")


def _as_locked(a, dtype, shape) -> np.ndarray:
    """A read-only C-contiguous copy of a: no caller holds a reference to it."""
    arr = np.array(np.reshape(a, shape), dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


class _Cache:
    """Entries built once: the first caller that asks builds, racing callers wait.

    An entry asked for under another tag than it was built with is built
    again and replaces it.  Each cache has its own lock, which is not
    reentrant: a build must never ask its own cache.
    """

    def __init__(self):
        self._entries = {}  # key -> (tag, value), each pair set in one assignment
        self._lock = threading.Lock()

    def get(self, key, build, tag=None):
        entry = self._entries.get(key)
        if entry is None or entry[0] != tag:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None or entry[0] != tag:
                    entry = self._entries[key] = (tag, build())
        return entry[1]


@dataclass
class TriMesh:
    """Indexed triangle surface with optional named per-vertex scalar fields.

    scalar_fields maps a name to a (V,) array (e.g. pressure in Pa).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    scalar_fields: dict = field(default_factory=dict)
    # shared with derived meshes: facts of `triangles` and reference OBJ vertex
    # lines (see _obj_vertex_lines)
    _connectivity: _Cache = field(default_factory=_Cache, init=False, repr=False,
                                  compare=False)
    # never shared: facts of these vertices and triangles
    _memo: _Cache = field(default_factory=_Cache, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.vertices = _as_locked(self.vertices, float, (-1, 3))
        t = self.triangles = _as_locked(self.triangles, np.int64, (-1, 3))
        if not np.isfinite(v).all():
            i = int(np.argmin(np.isfinite(v).all(axis=1)))
            raise MeshFormatError(f"vertex {i} has a non-finite coordinate: {v[i].tolist()}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshFormatError(
                f"triangle index out of range: indices must lie in [0, {len(v)})"
            )
        for name, f in list(self.scalar_fields.items()):
            f = self.scalar_fields[name] = _as_locked(f, float, -1)
            if len(f) != len(v):
                raise ToolkitError(
                    f"scalar field {name!r} has {len(f)} values for {len(v)} vertices"
                )

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def connectivity_entry(self, key: str, build):
        """build(), kept once in the connectivity cache derived meshes share."""
        return self._connectivity.get(key, build)

    def memo_entry(self, key: str, build, tag=None):
        """build(), kept once under tag in this mesh's own memo."""
        return self._memo.get(key, build, tag)

    def corner_coordinates(self):
        """Vertex coordinates of every triangle, as three (T, 3) arrays."""
        return tuple(np.take(self.vertices, self.triangles.T, axis=0))

    def with_scalar_field(self, name: str, values) -> "TriMesh":
        fields = dict(self.scalar_fields)
        fields[name] = values
        return self._same_connectivity(self.vertices, fields)

    def with_vertices(self, vertices) -> "TriMesh":
        """Same connectivity and fields, new vertex positions."""
        return self._same_connectivity(vertices, dict(self.scalar_fields))

    def _same_connectivity(self, vertices, scalar_fields) -> "TriMesh":
        mesh = TriMesh(vertices, self.triangles, scalar_fields)
        mesh._connectivity = self._connectivity
        return mesh

    def degenerate_triangles(self) -> np.ndarray:
        """Indices of triangles with repeated vertices or exactly zero area."""
        t = self.triangles
        if not len(t):
            return np.empty(0, dtype=np.int64)
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        zero_area = (triangle_cross_products(self) == 0.0).all(axis=1)
        return np.nonzero(repeated | zero_area)[0]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u x v of two (T, 3) arrays, formed as np.cross forms it."""
    u0, u1, u2 = u.T
    v0, v1, v2 = v.T
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=1)


def triangle_cross_products(mesh: TriMesh) -> np.ndarray:
    """(v1-v0) x (v2-v0) per triangle; |cross| = 2*area, direction = normal."""
    a, b, c = mesh.corner_coordinates()
    return _cross(b - a, c - a)


def _infer_format(path):
    suffix = Path(path).suffix.lower()
    if suffix == ".obj":
        return "obj"
    if suffix == ".stl":
        return "stl-ascii"
    raise ToolkitError(f"cannot infer mesh format from {path}; expected a .obj or .stl file")


def load_mesh(path, validate: bool = True) -> TriMesh:
    """Load an OBJ or ASCII STL triangle mesh, by the .obj or .stl suffix.

    With validate on, degenerate (zero-area) triangles are rejected with a
    report of the offending triangle indices.
    """
    fmt = _infer_format(path)
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not a text OBJ / ASCII STL file "
                              f"(undecodable byte at offset {exc.start})") from None
    if fmt == "obj":
        mesh = _parse_obj(text, str(path))
    else:
        mesh = _parse_stl_ascii(text, str(path))
    if validate:
        bad = mesh.degenerate_triangles()
        if len(bad):
            raise MeshFormatError(
                f"{path}: {len(bad)} degenerate triangle(s): indices {bad[:10].tolist()}"
            )
    return mesh


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a mesh as OBJ or ASCII STL, by the .obj or .stl suffix.

    Round-tripping through OBJ preserves coordinates exactly and
    connectivity verbatim.
    """
    fmt = _infer_format(path)
    if fmt == "obj":
        _write_obj(mesh, path)
    else:
        _write_stl_ascii(mesh, path)


def _parsed_mesh(origin: str, vertices, triangles) -> TriMesh:
    try:
        return TriMesh(vertices, triangles)
    except MeshFormatError as exc:
        raise MeshFormatError(f"{origin}: {exc}") from None


def _parse_obj(text: str, origin: str) -> TriMesh:
    mesh = _parse_plain_obj(text, origin)
    return mesh if mesh is not None else _parse_obj_lines(text, origin)


def _parse_plain_obj(text: str, origin: str) -> TriMesh | None:
    """Bulk parse of `v x y z` lines followed by `f i j k` lines, else None.

    Each line starts with a one-letter tag token.  If the n lines hold 4n
    tokens but some line holds other than 4, another line's tag lands in a
    number's slot, where neither "v" nor "f" converts, so the conversion
    fails for any file the line parser would read differently.
    """
    lines = text.splitlines()
    n = len(lines)
    if not all(map(str.startswith, lines, repeat(("v ", "f ")))):
        return None
    del lines  # never hold the line and token lists at once
    tokens = text.split()
    if len(tokens) != 4 * n:
        return None
    tags = tokens[::4]
    nv = tags.count("v")
    if not nv or tags != ["v"] * nv + ["f"] * (n - nv):
        return None
    del tags, tokens[::4]
    try:
        v = np.fromiter(map(float, islice(tokens, 3 * nv)), float, 3 * nv)
        t = np.fromiter(map(int, islice(tokens, 3 * nv, None)), np.int64, 3 * (n - nv))
    except (ValueError, OverflowError):
        return None
    if t.size and (t.min() < 1 or t.max() > nv):
        return None
    t -= 1
    return _parsed_mesh(origin, v.reshape(-1, 3), t.reshape(-1, 3))


def _parse_obj_lines(text: str, origin: str) -> TriMesh:
    vertices = []
    triangles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise MeshFormatError(f"{origin}:{lineno}: vertex record needs 3 coordinates")
            try:
                vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError as exc:
                raise MeshFormatError(f"{origin}:{lineno}: bad vertex coordinate ({exc})")
        elif tag == "f":
            if len(parts) != 4:
                raise MeshFormatError(
                    f"{origin}:{lineno}: only triangle faces are supported "
                    f"(got {len(parts) - 1} corners)"
                )
            idx = []
            for token in parts[1:]:
                # tolerate v/vt/vn references; only the vertex index is used
                head = token.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshFormatError(f"{origin}:{lineno}: bad face index {token!r}")
                if i < 1:
                    raise MeshFormatError(f"{origin}:{lineno}: face index {i} must be >= 1")
                idx.append(i - 1)
            triangles.append((lineno, idx))
        # other record types (vn, vt, o, g, s, usemtl, mtllib) are ignored
    if not vertices:
        raise MeshFormatError(f"{origin}: no vertex records found")
    nv = len(vertices)
    for lineno, idx in triangles:
        for i in idx:
            if i >= nv:
                raise MeshFormatError(
                    f"{origin}:{lineno}: face index {i + 1} out of range for {nv} vertices"
                )
    return _parsed_mesh(origin, np.array(vertices, dtype=float),
                        np.array([idx for _, idx in triangles], dtype=np.int64).reshape(-1, 3))


def _obj_rows(template: str, rows: np.ndarray) -> str:
    # one format operation per block: per-value formatting dominates otherwise
    return (template * len(rows)) % tuple(rows.ravel().tolist())


def _obj_vertex_lines(mesh: TriMesh) -> list:
    """The `v` lines of mesh, formatting only rows that differ from the reference.

    The reference is the first vertex array written with this connectivity,
    paired with its lines.  Rows are compared bitwise,
    since 0.0 == -0.0 but the two print differently.  The stored list is
    never mutated, so concurrent writers share it.
    """
    v = mesh.vertices
    ref_v, ref_lines = mesh.connectivity_entry(
        "obj_vertex_lines", lambda: (v, _obj_rows(_OBJ_VERTEX, v).splitlines(keepends=True)))
    if ref_v is v:
        return ref_lines
    if len(ref_v) != len(v):
        return _obj_rows(_OBJ_VERTEX, v).splitlines(keepends=True)
    moved = np.flatnonzero((v.view(np.int64) != ref_v.view(np.int64)).any(axis=1))
    lines = list(ref_lines)
    for i, line in zip(moved.tolist(),
                       _obj_rows(_OBJ_VERTEX, v[moved]).splitlines(keepends=True)):
        lines[i] = line
    return lines


def _write_obj(mesh: TriMesh, path) -> None:
    faces = mesh.connectivity_entry("obj_faces",
                                    lambda: _obj_rows(_OBJ_FACE, mesh.triangles + 1))
    write_text(path, ("".join(_obj_vertex_lines(mesh)), faces))


def _parse_stl_ascii(text: str, origin: str) -> TriMesh:
    vertex_index: dict = {}
    vertices = []
    triangles = []
    current = []
    saw_solid = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0].lower()
        if tag in ("solid", "endsolid"):
            saw_solid = True
        elif tag == "facet":
            current = []
        elif tag == "vertex":
            if len(parts) < 4:
                raise MeshFormatError(f"{origin}:{lineno}: vertex record needs 3 coordinates")
            try:
                p = (float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise MeshFormatError(f"{origin}:{lineno}: bad vertex coordinate ({exc})")
            key = p
            if key not in vertex_index:
                vertex_index[key] = len(vertices)
                vertices.append(p)
            current.append(vertex_index[key])
        elif tag == "endfacet":
            if len(current) != 3:
                raise MeshFormatError(
                    f"{origin}:{lineno}: facet has {len(current)} vertices, expected 3"
                )
            triangles.append(current)
            current = []
        # "outer loop" / "endloop" / normal values carry no extra information
    if not saw_solid and not vertices:
        raise MeshFormatError(f"{origin}: no solid/vertex records found")
    return _parsed_mesh(origin, np.array(vertices, dtype=float).reshape(-1, 3),
                        np.array(triangles, dtype=np.int64).reshape(-1, 3))


def _write_stl_ascii(mesh: TriMesh, path) -> None:
    a, b, c = mesh.corner_coordinates()
    cross = _cross(b - a, c - a)
    norms = np.linalg.norm(cross, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    normals = cross / safe[:, None]
    facets = (_STL_FACET * mesh.num_triangles) % tuple(
        np.hstack([normals, a, b, c]).ravel().tolist())
    write_text(path, ("solid mesh\n", facets, "endsolid mesh\n"))


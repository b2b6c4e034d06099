"""Surface integrals on triangle meshes and the ITTC-57 friction line.

The pressure force uses a one-point quadrature per triangle (mean of the
three vertex values), which is exact for fields varying linearly over each
triangle.

Surface area, enclosed volume and its first moment come from one
per-triangle pass (_triangle_terms): area, det(v0, v1, v2) and
det·(v0 + v1 + v2)/4, each elementwise in its triangle's corners.  Their
sums are kept in the mesh's own memo, the closedness count once per
connectivity.  A mesh with as many vertices as its connectivity's
reference (see mesh.py) recomputes the terms only of the triangles with a
corner that differs bitwise from the reference's, and writes them into
copies of the reference's terms, built once per connectivity.  A mesh with
another vertex count, or with every triangle moved, takes the full pass.
Each term is the same IEEE operations on the same corners either way, and
the sums reduce whole (T,) and (T, 3) arrays with the same numpy calls, so
every result is bitwise the full pass's and run-to-run identical for a
given mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, MeshTopologyError, ToolkitError
from .mesh import TriMesh, _cross, triangle_cross_products


@dataclass
class ForceResult:
    """Integrated surface force (N) and its X-component, the resistance."""

    force: np.ndarray
    resistance: float


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    return np.array(_mesh_terms(mesh, mesh.moved_rows())[0])


def surface_area(mesh: TriMesh) -> float:
    return _integrals(mesh)[0]


def boundary_edge_count(mesh: TriMesh) -> int:
    """Number of edges not shared by exactly two opposite-oriented triangles.

    An edge i-j with i != j counts unless it occurs exactly once as i->j and
    once as j->i; a repeated-vertex edge i-i counts unless it occurs once.
    """
    t = mesh.triangles
    src, dst = t.reshape(-1), t[:, [1, 2, 0]].reshape(-1)
    n = mesh.num_vertices
    keys, inverse, total = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                                     return_inverse=True, return_counts=True)
    forward = np.bincount(inverse[src < dst], minlength=len(keys))
    repeated = keys // n == keys % n
    good = np.where(repeated, total == 1, (total == 2) & (forward == 1))
    return int(len(keys) - good.sum())


def integrate_pressure_force(mesh: TriMesh, pressure_field: str,
                             check_winding: bool = False) -> ForceResult:
    """Integrate a per-vertex pressure over the surface: sum of p̄ * area * n̂.

    p̄ is the mean of the three vertex pressures and n̂ the unit normal from
    the triangle winding.  The resistance is the X-component of the force.
    """
    if pressure_field not in mesh.scalar_fields:
        raise ToolkitError(f"mesh has no scalar field {pressure_field!r}")
    if check_winding:
        _require_closed(mesh)
    p = mesh.scalar_fields[pressure_field]
    t = mesh.triangles
    p_mean = p[t].mean(axis=1)
    # area * n̂ = cross/2
    force = 0.5 * (p_mean[:, None] * triangle_cross_products(mesh)).sum(axis=0)
    return ForceResult(force=force, resistance=float(force[0]))


def _require_closed(mesh: TriMesh) -> None:
    # boundary_edge_count is looked up when built, so a wrapper around it sees the call
    n_boundary = mesh.connectivity_entry("boundary_edges", lambda: boundary_edge_count(mesh))
    if mesh.num_triangles == 0 or n_boundary:
        raise MeshTopologyError(
            f"open surface or inconsistent winding: {n_boundary} boundary edge(s)"
        )


def _triangle_terms(a, b, c):
    """(area, det(a, b, c), det·(a + b + c)/4) of the triangles with corners a, b, c.

    Each triangle spans a tetrahedron with the origin of signed volume det/6
    and centroid (a + b + c)/4.  Every term is elementwise in its own rows.
    """
    area = 0.5 * np.linalg.norm(_cross(b - a, c - a), axis=1)
    det = np.einsum("ij,ij->i", a, _cross(b, c))
    return area, det, det[:, None] * ((a + b + c) / 4.0)  # fourth vertex is the origin


def _mesh_terms(mesh: TriMesh, moved):
    """_triangle_terms of every triangle of mesh.

    With moved, mesh.moved_rows(), only the triangles with a moved corner
    are computed; the others keep the reference's terms.
    """
    index = mesh.corner_indices()
    if moved is not None:
        touched = np.take(moved, index[0]) | np.take(moved, index[1]) | np.take(moved, index[2])
        rows = np.flatnonzero(touched)
        if len(rows) < len(touched):
            ref_terms = mesh.reference_entry(
                "triangle_terms", lambda ref: _triangle_terms(*np.take(ref, index, axis=0)))
            if not len(rows):
                return ref_terms
            terms = tuple(np.array(term) for term in ref_terms)
            fresh = _triangle_terms(*np.take(mesh.vertices, index[:, rows], axis=0))
            for term, part in zip(terms, fresh):
                term[rows] = part
            return terms
    return _triangle_terms(*np.take(mesh.vertices, index, axis=0))


def _integrals(mesh: TriMesh):
    """(area, volume, first moment), summed from _mesh_terms and kept in the memo."""
    moved = mesh.moved_rows()  # looked up first: a build never asks its own cache

    def build():
        area, det, moment = _mesh_terms(mesh, moved)
        return float(area.sum()), float(det.sum() / 6.0), moment.sum(axis=0) / 6.0
    return mesh.memo_entry("integrals", build)


def enclosed_volume(mesh: TriMesh) -> float:
    """Signed volume of a closed, consistently oriented surface.

    Computed as the sum of signed tetrahedra det(v0, v1, v2)/6, which equals
    the divergence-theorem form (1/3) * sum(centroid . normal * area) on
    closed surfaces and is exact on integer-coordinate meshes.  Positive for
    outward orientation.  An open mesh raises on every call and memoizes nothing.
    """
    _require_closed(mesh)
    return _integrals(mesh)[1]


def volume_centroid(mesh: TriMesh) -> np.ndarray:
    """Centroid of the enclosed volume (divergence-theorem tetrahedra sum)."""
    _require_closed(mesh)
    _, vol, moment = _integrals(mesh)
    if vol == 0.0:
        raise DomainError("volume centroid undefined for zero enclosed volume")
    return moment / vol


def ittc57_friction_coefficient(reynolds: float) -> float:
    """ITTC-57 correlation line C_f = 0.075 / (log10(Re) - 2)^2."""
    if reynolds <= 100.0:
        raise DomainError(f"ITTC-57 line needs Re > 100, got {reynolds}")
    return 0.075 / (math.log10(reynolds) - 2.0) ** 2


def ittc57_drag(reynolds: float, density: float, speed: float,
                wetted_area: float) -> float:
    """Viscous drag correction 0.5 * rho * V^2 * S * C_f(Re), in Newtons."""
    if density <= 0.0 or speed <= 0.0 or wetted_area <= 0.0:
        raise DomainError("density, speed and wetted_area must be positive")
    return 0.5 * density * speed ** 2 * wetted_area * ittc57_friction_coefficient(reynolds)

"""Surface integrals on triangle meshes and the ITTC-57 friction line.

The pressure force uses a one-point quadrature per triangle (mean of the
three vertex values), which is exact for fields varying linearly over each
triangle.  Accumulation is a plain numpy sum over the triangle axis, so
results are run-to-run identical for a given mesh.  The enclosed volume and
its first moment come from one pass over the signed tetrahedra, kept in the
mesh's own memo; the closedness count is kept once per connectivity.
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
    return 0.5 * np.linalg.norm(triangle_cross_products(mesh), axis=1)


def surface_area(mesh: TriMesh) -> float:
    return float(triangle_areas(mesh).sum())


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


def _volume_moment(mesh: TriMesh):
    """(volume, first moment) of a closed oriented mesh, from one tetrahedra pass.

    Each triangle spans a tetrahedron with the origin of signed volume
    det(v0, v1, v2)/6 and centroid (v0 + v1 + v2)/4.  The pair is kept in the
    mesh's memo; an open mesh raises on every call and memoizes nothing.
    """
    _require_closed(mesh)

    def build():
        a, b, c = mesh.corner_coordinates()
        det = np.einsum("ij,ij->i", a, _cross(b, c))
        tet_centroid = (a + b + c) / 4.0  # fourth vertex is the origin
        return float(det.sum() / 6.0), (det[:, None] * tet_centroid).sum(axis=0) / 6.0
    return mesh.memo_entry("volume_moment", build)


def enclosed_volume(mesh: TriMesh) -> float:
    """Signed volume of a closed, consistently oriented surface.

    Computed as the sum of signed tetrahedra det(v0, v1, v2)/6, which equals
    the divergence-theorem form (1/3) * sum(centroid . normal * area) on
    closed surfaces and is exact on integer-coordinate meshes.  Positive for
    outward orientation.
    """
    return _volume_moment(mesh)[0]


def volume_centroid(mesh: TriMesh) -> np.ndarray:
    """Centroid of the enclosed volume (divergence-theorem tetrahedra sum)."""
    vol, moment = _volume_moment(mesh)
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

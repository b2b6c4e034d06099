from .mesh import TriMesh, load_mesh, save_mesh
from .integrals import (
    ForceResult,
    boundary_edge_count,
    enclosed_volume,
    integrate_pressure_force,
    ittc57_drag,
    ittc57_friction_coefficient,
    surface_area,
    volume_centroid,
)
from .primitives import demo_hull, icosphere, unit_cube

__all__ = [
    "TriMesh", "ForceResult",
    "load_mesh", "save_mesh",
    "integrate_pressure_force", "enclosed_volume", "surface_area",
    "volume_centroid", "boundary_edge_count",
    "ittc57_drag", "ittc57_friction_coefficient",
    "unit_cube", "icosphere", "demo_hull",
]

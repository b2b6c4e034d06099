"""Procedural test and demo geometry: cube, spheres, and a hull stand-in."""

from __future__ import annotations

import numpy as np

from .mesh import TriMesh

_CUBE_VERTICES = np.array([
    [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0],
])

_CUBE_TRIANGLES = np.array([
    [0, 3, 2], [0, 2, 1],   # z = 0
    [4, 5, 6], [4, 6, 7],   # z = 1
    [0, 1, 5], [0, 5, 4],   # y = 0
    [2, 3, 7], [2, 7, 6],   # y = 1
    [0, 4, 7], [0, 7, 3],   # x = 0
    [1, 2, 6], [1, 6, 5],   # x = 1
])


def unit_cube(origin=(0.0, 0.0, 0.0), side: float = 1.0,
              inward: bool = False) -> TriMesh:
    """Closed unit cube, outward oriented unless inward=True."""
    v = _CUBE_VERTICES * side + np.asarray(origin, dtype=float)
    t = _CUBE_TRIANGLES[:, ::-1] if inward else _CUBE_TRIANGLES
    return TriMesh(v, t)


def icosphere(subdivisions: int = 2, radius: float = 1.0,
              center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Subdivided icosahedron projected onto the sphere, outward oriented."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        midpoint_cache: dict = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                midpoint_cache[key] = len(verts)
                verts.append(m)
            return midpoint_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts) * radius + np.asarray(center, dtype=float)
    return TriMesh(v, np.array(faces, dtype=np.int64))


def _uv_sphere(n_lon: int, n_lat: int) -> TriMesh:
    """Unit latitude/longitude sphere with pole fans, outward oriented."""
    verts = [np.array([0.0, 0.0, 1.0])]
    for i in range(1, n_lat):
        phi = np.pi * i / n_lat
        for j in range(n_lon):
            theta = 2.0 * np.pi * j / n_lon
            verts.append(np.array([
                np.sin(phi) * np.cos(theta),
                np.sin(phi) * np.sin(theta),
                np.cos(phi),
            ]))
    verts.append(np.array([0.0, 0.0, -1.0]))
    south = len(verts) - 1

    def ring(i, j):
        return 1 + (i - 1) * n_lon + (j % n_lon)

    faces = []
    for j in range(n_lon):
        faces.append((0, ring(1, j), ring(1, j + 1)))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j + 1), ring(i + 1, j)
            faces.append((a, d, c))
            faces.append((a, c, b))
    for j in range(n_lon):
        faces.append((south, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)))
    return TriMesh(np.array(verts), np.array(faces, dtype=np.int64))


def demo_hull(n_lon: int = 36, n_lat: int = 18) -> TriMesh:
    """Closed hull stand-in: flattened ellipsoid with a bulb at the bow.

    Not a real ship geometry; exists so the end-to-end demo has a watertight
    surface whose bow region an FFD lattice can deform.
    """
    sphere = _uv_sphere(n_lon=n_lon, n_lat=n_lat)
    v = sphere.vertices * np.array([2.5, 0.5, 0.45]) - np.array([0.0, 0.0, 0.05])
    bulb = 0.35 * np.exp(-((v[:, 0] - 2.2) ** 2 / 0.16
                           + v[:, 1] ** 2 / 0.04
                           + (v[:, 2] + 0.25) ** 2 / 0.04))
    v = v + np.column_stack([bulb, np.zeros(len(v)), np.zeros(len(v))])
    return TriMesh(v, sphere.triangles)

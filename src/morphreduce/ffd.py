"""Trivariate free-form deformation on a Bernstein control lattice.

The morphing map factors as back-map ∘ lattice-displacement ∘ reference-map:
a point is sent to the unit reference cube, displaced by a tensor-product
Bernstein blend of the control-point displacements, and mapped back.  Since
the back map is affine this reduces to p -> p + A @ D(s, t, u), which keeps
undisplaced points bit-identical.  Points whose reference coordinates fall
outside [0, 1]^3 are returned untouched.

The blend weights depend only on an undeformed point's reference coordinates,
so deform_points builds a reference basis (the Bernstein matrices of the
points in the box) and then blends the displacements through it.
deform_mesh keeps the basis of a mesh's vertices in that mesh's memo, tagged
with the lattice box, so many deformations of one base mesh build it once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import ConfigError, DomainError, _is_real, _require_int
from .geometry import TriMesh
from .textio import read_json, write_json

__all__ = [
    "FFDLattice", "BindingEntry", "ParameterBinding",
    "to_reference", "apply_parameters",
    "deform_point", "deform_points", "deform_mesh", "sample_parameters",
    "save_ffd_json", "load_ffd_json",
]

_DEFORM_BLOCK = 1 << 14  # points per deform_points block


@dataclass
class FFDLattice:
    """Control-point lattice spanning the box origin + [0,1]^3 under axes.

    axes holds the three box edge vectors as rows; they need not be
    orthonormal but must be linearly independent.  displacements has shape
    (L, M, N, 3) and is expressed in lattice-local coordinates (fractions
    of the box edges).
    """

    origin: np.ndarray
    axes: np.ndarray
    counts: tuple
    displacements: np.ndarray = None

    def __post_init__(self):
        self.origin = np.array(self.origin, dtype=float).reshape(3)
        self.axes = np.array(self.axes, dtype=float).reshape(3, 3)
        self.counts = tuple(int(c) for c in self.counts)
        if any(c < 2 for c in self.counts):
            raise ConfigError(f"lattice needs >= 2 control points per direction, got {self.counts}")
        for name in ("origin", "axes"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                raise ConfigError(f"lattice {name} must be finite")
            a.flags.writeable = False
        edge_scale = np.prod(np.linalg.norm(self.axes, axis=1))
        if edge_scale == 0.0 or abs(np.linalg.det(self.axes.T)) < 1e-12 * edge_scale:
            raise ConfigError("lattice axes are singular or numerically dependent")
        disp = self.displacements
        self._lock_displacements(np.zeros(self.counts + (3,)) if disp is None
                                 else np.array(disp, dtype=float))

    def _lock_displacements(self, disp: np.ndarray) -> None:
        """Check and lock disp, an array no caller holds, as the displacements."""
        if disp.shape != self.counts + (3,):
            raise ConfigError(
                f"displacement array shape {disp.shape} does not match counts {self.counts}"
            )
        if not np.isfinite(disp).all():
            raise ConfigError("lattice displacements must be finite")
        disp.flags.writeable = False
        self.displacements = disp

    @property
    def box_matrix(self) -> np.ndarray:
        """Columns are the box edge vectors: p = origin + box_matrix @ (s,t,u)."""
        return self.axes.T

    def with_displacements(self, displacements) -> "FFDLattice":
        """Same box and counts, new displacements: only these are copied and checked."""
        return self._same_box(np.array(displacements, dtype=float))

    def _same_box(self, disp: np.ndarray) -> "FFDLattice":
        """A lattice sharing this one's checked, locked box, with displacements disp."""
        lattice = object.__new__(FFDLattice)
        lattice.origin, lattice.axes, lattice.counts = self.origin, self.axes, self.counts
        lattice._lock_displacements(disp)
        return lattice


@dataclass
class BindingEntry:
    parameter: int
    index: tuple
    axis: int
    weight: float = 1.0


@dataclass
class ParameterBinding:
    """Maps m scalar parameters onto control-point displacement components."""

    entries: list
    bounds: np.ndarray = None

    def __post_init__(self):
        self.entries = [
            replace(e) if isinstance(e, BindingEntry) else BindingEntry(*e)
            for e in self.entries
        ]
        self.bounds = np.array(self.bounds, dtype=float).reshape(-1, 2)
        if len(self.bounds) < 1:
            raise ConfigError("binding needs at least one parameter")
        if not np.isfinite(self.bounds).all():
            raise ConfigError("binding bounds must be finite")
        if (self.bounds[:, 1] < self.bounds[:, 0]).any():
            raise ConfigError("parameter bounds must satisfy lo <= hi")
        for e in self.entries:
            e.index = tuple(e.index)
            _require_int("binding parameter", e.parameter, 0)
            _require_int("binding axis", e.axis, 0, 2)
            if not (_is_real(e.weight) and np.isfinite(e.weight)):
                raise ConfigError(f"binding weight must be a finite number, got {e.weight!r}")
            if not 0 <= e.parameter < self.dimension:
                raise ConfigError(
                    f"binding entry references parameter {e.parameter} "
                    f"but dimension is {self.dimension}"
                )
        self.bounds.flags.writeable = False

    @property
    def dimension(self) -> int:
        return len(self.bounds)


def to_reference(lattice: FFDLattice, points) -> np.ndarray:
    """Map physical coordinates to lattice reference coordinates (s, t, u)."""
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    stu = np.linalg.solve(lattice.box_matrix, (p.reshape(-1, 3) - lattice.origin).T).T
    return stu[0] if single else stu


def _check_lattice_index(what: str, index, counts: tuple) -> None:
    """Refuse an index of a control point that is not three ints in [0, counts)."""
    if not (isinstance(index, (list, tuple)) and len(index) == 3
            and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < c
                    for i, c in zip(index, counts))):
        raise ConfigError(f"{what} index {index} outside lattice counts {counts}: "
                          "a control point index is three ints i with 0 <= i < count")


def _check_binding_indices(counts: tuple, binding: ParameterBinding) -> None:
    for k, e in enumerate(binding.entries):
        _check_lattice_index(f"binding entry {k}", e.index, counts)


def apply_parameters(lattice: FFDLattice, binding: ParameterBinding,
                     mu) -> FFDLattice:
    """Return a lattice copy with weight * mu[j] added at every bound entry."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if len(mu) != binding.dimension:
        raise DomainError(
            f"parameter vector has length {len(mu)}, binding expects {binding.dimension}"
        )
    if not np.isfinite(mu).all():
        raise DomainError("parameter vector must be finite")
    outside = (mu < binding.bounds[:, 0]) | (mu > binding.bounds[:, 1])
    if outside.any():
        warnings.warn(
            f"{int(outside.sum())} parameter(s) outside the binding bounds; "
            "evaluating anyway", stacklevel=2)
    _check_binding_indices(lattice.counts, binding)
    disp = np.array(lattice.displacements)
    with np.errstate(over="ignore", invalid="ignore"):  # _same_box refuses a non-finite sum
        for e in binding.entries:
            disp[e.index + (e.axis,)] += e.weight * mu[e.parameter]
    return lattice._same_box(disp)


def _bernstein_matrix(degree: int, t: np.ndarray) -> np.ndarray:
    """All Bernstein polynomials of the given degree at points t: (len(t), degree+1)."""
    t = np.asarray(t, dtype=float)
    out = np.empty((len(t), degree + 1))
    for i in range(degree + 1):
        out[:, i] = comb(degree, i) * t ** i * (1.0 - t) ** (degree - i)
    return out


def basis_partition(lattice: FFDLattice, stu) -> np.ndarray:
    """Sum of the trivariate basis at reference points; identically 1 on the box."""
    stu = np.asarray(stu, dtype=float).reshape(-1, 3)
    L, M, N = lattice.counts
    bs = _bernstein_matrix(L - 1, stu[:, 0])
    bt = _bernstein_matrix(M - 1, stu[:, 1])
    bu = _bernstein_matrix(N - 1, stu[:, 2])
    return bs.sum(axis=1) * bt.sum(axis=1) * bu.sum(axis=1)


def _reference_basis(lattice: FFDLattice, pts: np.ndarray):
    """Yield (start, inside, B_s, B_t, B_u) per block of the points in the lattice box.

    inside indexes the block's points with reference coordinates in [0, 1]^3
    and B_* are their Bernstein matrices, (len(inside), counts[d]).  Blocks
    hold _DEFORM_BLOCK points; those with no point inside are left out.  The
    basis depends on the box and counts alone, not on the displacements.
    """
    L, M, N = lattice.counts
    for start in range(0, len(pts), _DEFORM_BLOCK):
        stu = to_reference(lattice, pts[start:start + _DEFORM_BLOCK])
        inside = np.nonzero(((stu >= 0.0) & (stu <= 1.0)).all(axis=1))[0]
        if len(inside):
            s = stu[inside]
            yield (start, inside, _bernstein_matrix(L - 1, s[:, 0]),
                   _bernstein_matrix(M - 1, s[:, 1]), _bernstein_matrix(N - 1, s[:, 2]))


def _blend(lattice: FFDLattice, pts: np.ndarray, basis) -> np.ndarray:
    """pts moved by the lattice displacements through their reference basis blocks."""
    out = pts.copy()
    i, j, k = np.nonzero((lattice.displacements != 0.0).any(axis=-1))
    if not len(i):
        return out
    # physical displacement of each displaced control point, (nnz, 3)
    control_shift = lattice.displacements[i, j, k] @ lattice.box_matrix.T
    for start, inside, bs, bt, bu in basis:
        shift = (bs[:, i] * bt[:, j] * bu[:, k]) @ control_shift
        moved = (shift != 0.0).any(axis=1)
        idx = start + inside[moved]
        out[idx] = pts[idx] + shift[moved]
    return out


def deform_points(lattice: FFDLattice, points) -> np.ndarray:
    """Apply the deformation map to an array of points.

    Points outside the lattice box and points receiving an exactly zero
    displacement are returned bit-identical.  Only control points with a
    nonzero displacement enter the blend, and points are processed in
    blocks of _DEFORM_BLOCK, each built as the blend reaches it, so
    temporaries stay bounded for large inputs.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return _blend(lattice, pts, _reference_basis(lattice, pts))


def deform_point(lattice: FFDLattice, point) -> np.ndarray:
    return deform_points(lattice, np.asarray(point, dtype=float).reshape(1, 3))[0]


def deform_mesh(lattice: FFDLattice, mesh: TriMesh) -> TriMesh:
    """Deform every vertex; connectivity and attached fields are preserved.

    The reference basis of mesh's vertices is kept in mesh's memo as
    "ffd_basis", tagged with the lattice box (origin, axes, counts): many
    displacements of one lattice build it once, and another box replaces it.
    """
    box = (lattice.origin.tobytes(), lattice.axes.tobytes(), lattice.counts)
    basis = mesh.memo_entry(
        "ffd_basis", lambda: list(_reference_basis(lattice, mesh.vertices)), tag=box)
    return mesh.with_vertices(_blend(lattice, mesh.vertices, basis))


def sample_parameters(binding: ParameterBinding, n: int,
                      scheme: str = "latin-hypercube", seed: int = 0) -> np.ndarray:
    """Draw n parameter vectors inside the binding bounds, (n, m).

    uniform-random draws i.i.d. uniforms; latin-hypercube stratifies each
    coordinate into n equal slices.  Deterministic for a given seed.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    m = binding.dimension
    rng = np.random.default_rng(seed)
    if scheme == "uniform-random":
        unit = rng.random((n, m))
    elif scheme == "latin-hypercube":
        unit = np.empty((n, m))
        for j in range(m):
            unit[:, j] = (rng.permutation(n) + rng.random(n)) / n
    else:
        raise ConfigError(f"unknown sampling scheme {scheme!r}")
    lo, hi = binding.bounds[:, 0], binding.bounds[:, 1]
    return lo + unit * (hi - lo)


def save_ffd_json(path, lattice: FFDLattice, binding: ParameterBinding | None = None) -> None:
    """Serialize lattice (and optional binding) as a single JSON document."""
    nz = np.argwhere((lattice.displacements != 0.0).any(axis=-1))
    doc = {
        "origin": lattice.origin.tolist(),
        "axes": lattice.axes.tolist(),
        "counts": list(lattice.counts),
        "displacements": [
            {"index": idx.tolist(), "value": lattice.displacements[tuple(idx)].tolist()}
            for idx in nz
        ],
    }
    if binding is not None:
        _check_binding_indices(lattice.counts, binding)
        doc["binding"] = {
            "bounds": binding.bounds.tolist(),
            "entries": [
                {"parameter": int(e.parameter), "index": [int(i) for i in e.index],
                 "axis": int(e.axis), "weight": e.weight}
                for e in binding.entries
            ],
        }
    write_json(path, doc)


def load_ffd_json(path):
    """Load (lattice, binding-or-None) from a JSON document."""
    with read_json(path) as doc:
        counts = tuple(doc["counts"])
        disp = np.zeros(counts + (3,))
        for k, entry in enumerate(doc.get("displacements", [])):
            _check_lattice_index(f"displacement {k}", entry["index"], counts)
            disp[tuple(entry["index"])] = entry["value"]
        lattice = FFDLattice(doc["origin"], doc["axes"], counts, disp)
        binding = None
        if "binding" in doc:
            b = doc["binding"]
            entries = [
                BindingEntry(e["parameter"], tuple(e["index"]), e["axis"],
                             e.get("weight", 1.0))
                for e in b["entries"]
            ]
            binding = ParameterBinding(entries, bounds=b["bounds"])
            _check_binding_indices(lattice.counts, binding)
    return lattice, binding

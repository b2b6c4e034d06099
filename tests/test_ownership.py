"""Objects that check their array inputs keep their own copies of them.

Each case builds an object from arrays the caller keeps, records the
object's values and a result computed from it, spoils the caller's arrays
with NaN or zeros, and expects the same values and result again.
"""

import numpy as np
import pytest

from morphreduce import activesubspace as asub, ffd, rigidbody, surrogate
from morphreduce.geometry import TriMesh, integrate_pressure_force, unit_cube


def _mesh():
    cube = unit_cube()
    v, t = np.array(cube.vertices), np.array(cube.triangles)
    p = np.arange(len(v), dtype=float)
    mesh = TriMesh(v, t, {"p": p})
    return (v, t, p), lambda: (mesh.vertices, mesh.triangles, mesh.scalar_fields["p"],
                               integrate_pressure_force(mesh, "p").force)


def _lattice():
    o, ax = np.zeros(3), np.eye(3)
    d = np.zeros((2, 2, 2, 3))
    d[1, 1, 1] = 0.2
    lattice = ffd.FFDLattice(o, ax, (2, 2, 2), d)
    points = np.full((1, 3), 0.75)
    return (o, ax, d), lambda: (lattice.origin, lattice.axes, lattice.displacements,
                                ffd.deform_points(lattice, points))


def _binding():
    entry = ffd.BindingEntry(0, [1, 0, 1], 2, 0.5)
    bounds = np.array([[0.0, 1.0]])
    binding = ffd.ParameterBinding([entry], bounds=bounds)
    assert entry.index == [1, 0, 1]  # the caller's entry keeps the list it passed
    lattice = ffd.FFDLattice(np.zeros(3), np.eye(3), (2, 2, 2))
    return (bounds, entry), lambda: (
        binding.bounds, ffd.apply_parameters(lattice, binding, [0.5]).displacements)


def _objective():
    direction, profile = np.array([1.0, 0.5]), np.array([0.0, 0.5, 1.0])
    spec = surrogate.ObjectiveSpec(kind="ridge", direction=direction, profile=profile)
    return (direction, profile), lambda: (
        spec.direction, spec.profile, surrogate.evaluate_objective(spec, [0.3, -0.2]))


def _table():
    rng = np.random.default_rng(0)
    inputs = rng.uniform(-1.0, 1.0, (20, 3))
    outputs = inputs @ [1.0, 0.2, 0.0]
    gradients = np.tile([1.0, 0.2, 0.0], (20, 1))
    bounds = np.tile([-1.0, 1.0], (3, 1))
    table = asub.SampleTable(inputs, outputs, gradients, bounds)
    settings = asub.AnalysisSettings(n_boot=0)
    return (inputs, outputs, gradients, bounds), lambda: (
        table.inputs, table.outputs, table.gradients, table.bounds,
        asub.decompose(table, settings).eigenvalues)


def _body():
    inertia, gravity = np.diag([1.0, 2.0, 3.0]), np.array([0.0, 0.0, -9.81])
    props = rigidbody.BodyProperties(1.0, inertia, gravity)
    state = rigidbody.RigidBodyState(np.zeros(3), np.zeros(3), [0.1, 1.0, 0.0],
                                     [1.0, 0.0, 0.0, 0.0])
    return (inertia, gravity), lambda: (
        props.inertia, props.gravity,
        rigidbody.simulate(state, props, rigidbody.no_forces, 0.0, 0.05, 0.01)[1])


def _state():
    fields = (np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.1, 1.0, 0.0]),
              np.array([1.0, 0.0, 0.0, 0.0]))
    state = rigidbody.RigidBodyState(*fields)
    props = rigidbody.BodyProperties(1.0, np.diag([1.0, 2.0, 3.0]))
    return fields, lambda: (
        state.position, state.velocity, state.angular_velocity, state.quaternion,
        rigidbody.simulate(state, props, rigidbody.no_forces, 0.0, 0.05, 0.01)[1])


def _spoil(held):
    if isinstance(held, ffd.BindingEntry):
        held.index.append(1)
        held.axis = 9
    elif held.dtype.kind == "f":
        held[...] = np.nan
    else:
        held[...] = 0


@pytest.mark.parametrize("case", [_mesh, _lattice, _binding, _objective, _table, _body,
                                  _state],
                         ids=["TriMesh", "FFDLattice", "ParameterBinding", "ObjectiveSpec",
                              "SampleTable", "BodyProperties", "RigidBodyState"])
def test_caller_writes_do_not_reach_the_object(case):
    held, observe = case()
    before = [np.array(value) for value in observe()]
    for array in held:
        _spoil(array)
    after = observe()
    assert len(after) == len(before)
    for old, new in zip(before, after):
        assert np.array_equal(new, old)


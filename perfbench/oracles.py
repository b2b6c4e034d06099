"""Correctness checks that gate every benchmark run.

Each check compares a program output with an analytic or independent oracle
and returns a Check; a failed check counts as a failed operation.  The
functions take plain arrays so that they can be tested on perturbed results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEADY_REL_TOL = 1e-4
EIGEN_TOL = 1e-6
ACTIVE_COS_MIN = 0.99
# the relative conservation tolerance of tests/test_rigidbody.py
CONSERVATION_TOL = 1e-6


@dataclass
class Check:
    name: str
    value: float
    limit: float
    ok: bool


def at_most(name: str, value: float, limit: float) -> Check:
    value = float(value)
    return Check(name, value, limit, bool(value <= limit))


def at_least(name: str, value: float, limit: float) -> Check:
    value = float(value)
    return Check(name, value, limit, bool(value >= limit))


def steady_rel_err(steady, direct) -> float:
    """max |steady - direct| / |direct| over all entries."""
    steady = np.asarray(steady, dtype=float)
    direct = np.asarray(direct, dtype=float)
    return float((np.abs(steady - direct) / np.abs(direct)).max())


def offset_rel_err(steady, offset) -> float:
    """max |steady - offset| / max |offset| over all channels."""
    offset = np.asarray(offset, dtype=float)
    return float(np.abs(np.asarray(steady) - offset).max() / np.abs(offset).max())


def eigen_deviation(fitted, oracle) -> float:
    """Largest distance from a fitted eigenvalue to the nearest oracle eigenvalue."""
    fitted = np.asarray(fitted, dtype=complex).reshape(-1, 1)
    oracle = np.asarray(oracle, dtype=complex).reshape(1, -1)
    return float(np.abs(fitted - oracle).min(axis=1).max())


def active_cosine(leading, direction) -> float:
    """|cos| of the angle between the leading active direction and the oracle."""
    leading = np.asarray(leading, dtype=float)
    direction = np.asarray(direction, dtype=float)
    return float(abs(leading @ direction)
                 / (np.linalg.norm(leading) * np.linalg.norm(direction)))


def _rotations(quaternions) -> np.ndarray:
    s, x, y, z = np.asarray(quaternions, dtype=float).T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - s * z), 2 * (x * z + s * y)], -1),
        np.stack([2 * (x * y + s * z), 1 - 2 * (x * x + z * z), 2 * (y * z - s * x)], -1),
        np.stack([2 * (x * z - s * y), 2 * (y * z + s * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def conservation_drift(states, inertia) -> float:
    """Largest relative drift of rotational energy and |angular momentum|.

    states rows pack position, velocity, global angular velocity and the
    attitude quaternion (the layout rigidbody.simulate returns).  Torque-free
    motion conserves both the energy and the global angular momentum.
    """
    states = np.asarray(states, dtype=float)
    omega = states[:, 6:9]
    r = _rotations(states[:, 9:13])
    j_world = r @ np.asarray(inertia, dtype=float) @ np.swapaxes(r, 1, 2)
    momentum = np.einsum("kij,kj->ki", j_world, omega)
    energy = 0.5 * np.einsum("ki,ki->k", omega, momentum)
    size = np.linalg.norm(momentum, axis=1)
    return float(max(np.abs(energy / energy[0] - 1.0).max(),
                     np.abs(size / size[0] - 1.0).max()))

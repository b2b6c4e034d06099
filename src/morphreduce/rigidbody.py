"""Quaternion rigid-body dynamics with pluggable force/moment models.

Quaternions are plain length-4 arrays [s, vx, vy, vz] (scalar part first).
The state couples translation driven by gravity plus an external force with
attitude driven by the angular momentum balance written in the global frame,

    m x_G'' = m g + F(t),
    (R I R^T) w' + w x (R I R^T) w = M(t),
    q' = 0.5 * [0, w] q,

integrated by one explicit RK4 step at a time with the quaternion projected
back to unit norm after each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .textio import write_csv

__all__ = [
    "quat_product", "quat_norm", "quat_normalize", "quat_to_rotation",
    "quat_derivative", "BodyProperties", "RigidBodyState",
    "no_forces", "constant_forces", "step", "simulate", "save_trajectory_csv",
]

UNIT_TOL = 1e-9


def quat_product(q1, q2) -> np.ndarray:
    """Hamilton product [s1 s2 - v1.v2, s1 v2 + s2 v1 + v1 x v2]."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    s1, v1 = q1[0], q1[1:]
    s2, v2 = q2[0], q2[1:]
    out = np.empty(4)
    out[0] = s1 * s2 - v1 @ v2
    out[1:] = s1 * v2 + s2 * v1 + np.cross(v1, v2)
    return out


def quat_norm(q) -> float:
    return float(np.linalg.norm(np.asarray(q, dtype=float)))


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise DomainError("cannot normalize a zero quaternion")
    return q / n


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (body -> global coordinates)."""
    q = np.asarray(q, dtype=float)
    if abs(np.linalg.norm(q) - 1.0) > UNIT_TOL:
        raise DomainError(f"quaternion norm {np.linalg.norm(q):.3e} is not unit")
    s, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - s * z), 2 * (x * z + s * y)],
        [2 * (x * y + s * z), 1 - 2 * (x * x + z * z), 2 * (y * z - s * x)],
        [2 * (x * z - s * y), 2 * (y * z + s * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_derivative(q, omega) -> np.ndarray:
    """Kinematic rate 0.5 * [0, omega] q."""
    omega = np.asarray(omega, dtype=float)
    return 0.5 * quat_product(np.concatenate(([0.0], omega)), q)


@dataclass
class BodyProperties:
    """Mass (kg), body-frame inertia (kg m^2, symmetric positive definite), gravity."""

    mass: float
    inertia: np.ndarray
    gravity: np.ndarray = None

    def __post_init__(self):
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        self.inertia = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if np.abs(self.inertia - self.inertia.T).max() > 1e-12 * max(
                np.abs(self.inertia).max(), 1.0):
            raise DomainError("inertia tensor must be symmetric")
        if np.linalg.eigvalsh(self.inertia).min() <= 0.0:
            raise DomainError("inertia tensor must be positive definite")
        if self.gravity is None:
            self.gravity = np.array([0.0, 0.0, -9.81])
        self.gravity = np.asarray(self.gravity, dtype=float).reshape(3)


@dataclass
class RigidBodyState:
    """Center-of-mass position/velocity, global angular velocity, attitude."""

    position: np.ndarray
    velocity: np.ndarray
    angular_velocity: np.ndarray
    quaternion: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.angular_velocity = np.asarray(self.angular_velocity, dtype=float).reshape(3)
        self.quaternion = np.asarray(self.quaternion, dtype=float).reshape(4)
        if abs(np.linalg.norm(self.quaternion) - 1.0) > UNIT_TOL:
            raise DomainError("state quaternion must have unit norm")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity,
                               self.angular_velocity, self.quaternion])


def no_forces(t, state):
    """Zero external force and moment."""
    return np.zeros(3), np.zeros(3)


def constant_forces(force, moment):
    force = np.asarray(force, dtype=float).reshape(3)
    moment = np.asarray(moment, dtype=float).reshape(3)

    def model(t, state):
        return force, moment

    return model


def _derivative(t, y, props: BodyProperties, forces):
    q = y[9:13]
    qn = q / np.linalg.norm(q)
    state = RigidBodyState(y[0:3], y[3:6], y[6:9], qn)
    f_ext, m_ext = forces(t, state)
    r = quat_to_rotation(qn)
    j_world = r @ props.inertia @ r.T
    omega = y[6:9]
    omega_dot = np.linalg.solve(j_world, np.asarray(m_ext, dtype=float)
                                - np.cross(omega, j_world @ omega))
    dy = np.empty(13)
    dy[0:3] = y[3:6]
    dy[3:6] = props.gravity + np.asarray(f_ext, dtype=float) / props.mass
    dy[6:9] = omega_dot
    dy[9:13] = quat_derivative(q, omega)
    return dy


def step(state: RigidBodyState, props: BodyProperties, forces, t: float,
         dt: float, renormalize: bool = True) -> RigidBodyState:
    """One explicit RK4 step of length dt starting at time t."""
    if not dt > 0.0:
        raise DomainError(f"time step must be positive, got {dt}")
    y = state.as_vector()
    k1 = _derivative(t, y, props, forces)
    k2 = _derivative(t + 0.5 * dt, y + 0.5 * dt * k1, props, forces)
    k3 = _derivative(t + 0.5 * dt, y + 0.5 * dt * k2, props, forces)
    k4 = _derivative(t + dt, y + dt * k3, props, forces)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = y[9:13]
    if renormalize:
        q = quat_normalize(q)
    return RigidBodyState(y[0:3], y[3:6], y[6:9], q)


def simulate(state: RigidBodyState, props: BodyProperties, forces,
             t0: float, t_end: float, dt: float):
    """Fixed-step trajectory from t0 to (at least) t_end.

    Returns (times, states) with states of shape (K + 1, 13), rows packing
    position, velocity, angular velocity and quaternion.
    """
    if t_end <= t0:
        raise DomainError("t_end must exceed t0")
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-12))
    times = t0 + dt * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, 13))
    out[0] = state.as_vector()
    current = state
    for k in range(n_steps):
        current = step(current, props, forces, times[k], dt)
        out[k + 1] = current.as_vector()
    return times, out


def save_trajectory_csv(path, times, states) -> None:
    header = ["t", "x", "y", "z", "vx", "vy", "vz",
              "wx", "wy", "wz", "qs", "qx", "qy", "qz"]
    write_csv(path, np.column_stack((times, states)), header)

"""Quaternion rigid-body dynamics with pluggable force/moment models.

Quaternions are plain length-4 arrays [s, vx, vy, vz] (scalar part first).
The state couples translation driven by gravity plus an external force with
attitude driven by the angular momentum balance,

    m x_G'' = m g + F(t),
    (R I R^T) w' + w x (R I R^T) w = M(t),
    q' = 0.5 * [0, w] q,

with w the global angular velocity, I the body-frame inertia and R the
body-to-global rotation of q.  The balance is solved in the body frame,

    w' = R I^-1 (R^T M - w_b x I w_b),    w_b = R^T w,

which is the same equation without a 3x3 solve or the product R I R^T.
Explicit RK4 steps work on the packed 13-state as plain floats, and the
quaternion is projected back to unit norm after each step.  The mass,
gravity, I and I^-1 are unpacked to floats once per simulate or step call;
simulate is one loop over the packed state, with no RigidBodyState per step.

A force model is called as forces(t, state) four times per step, at t,
t + dt/2, t + dt/2 and t + dt.  Its state is a RigidBodyState that holds the
stage's floats, with the stage's normalised quaternion, and is not
validated, because the integrator made the quaternion unit itself.  Each
field read builds a fresh array, so a model pays only for the fields it
reads, and writes to the state or its arrays never reach the integrator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .textio import write_csv

__all__ = [
    "quat_product", "quat_norm", "quat_normalize", "quat_to_rotation",
    "BodyProperties", "RigidBodyState",
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
    if not abs(np.linalg.norm(q) - 1.0) <= UNIT_TOL:
        raise DomainError(f"quaternion norm {np.linalg.norm(q):.3e} is not unit")
    s, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - s * z), 2 * (x * z + s * y)],
        [2 * (x * y + s * z), 1 - 2 * (x * x + z * z), 2 * (y * z - s * x)],
        [2 * (x * z - s * y), 2 * (y * z + s * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass
class BodyProperties:
    """Mass (kg), body-frame inertia (kg m^2, symmetric positive definite), gravity."""

    mass: float
    inertia: np.ndarray
    gravity: np.ndarray = None

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise DomainError(f"mass must be finite and positive, got {self.mass}")
        self.inertia = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if self.gravity is None:
            self.gravity = np.array([0.0, 0.0, -9.81])
        self.gravity = np.asarray(self.gravity, dtype=float).reshape(3)
        if not all(map(math.isfinite, self.gravity.tolist())):
            raise DomainError("body gravity must be finite")
        scale = float(np.abs(self.inertia).max())  # NaN or inf if any entry is
        if not math.isfinite(scale):
            raise DomainError("body inertia must be finite")
        if np.abs(self.inertia - self.inertia.T).max() > 1e-12 * max(scale, 1.0):
            raise DomainError("inertia tensor must be symmetric")
        if np.linalg.eigvalsh(self.inertia).min() <= 0.0:
            raise DomainError("inertia tensor must be positive definite")


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
        for name in ("position", "velocity", "angular_velocity", "quaternion"):
            if not all(map(math.isfinite, getattr(self, name).tolist())):
                raise DomainError(f"state {name} must be finite")
        qs, qx, qy, qz = self.quaternion.tolist()
        if not abs(math.sqrt(qs * qs + qx * qx + qy * qy + qz * qz) - 1.0) <= UNIT_TOL:
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
    if not (np.isfinite(force).all() and np.isfinite(moment).all()):
        raise DomainError("constant force and moment must be finite")

    def model(t, state):
        return force, moment

    return model


def _stage_field(lo, hi):
    """Field values[lo:hi] of a _StageState: a fresh array on each read; a
    write replaces the state's own list, never the integrator's."""
    def read(self):
        return np.array(self._values[lo:hi])

    def write(self, value):
        values = list(self._values)
        values[lo:hi] = np.asarray(value, dtype=float).reshape(hi - lo).tolist()
        self._values = values

    return property(read, write)


class _StageState(RigidBodyState):
    """The state a force model is handed at one RK4 stage.

    It holds the stage's 13 floats and is not validated: the integrator made
    its quaternion unit.  Nothing a force model does to it or to the arrays
    it reads reaches the integrator.
    """

    def __init__(self, values):
        self._values = values

    position, velocity = _stage_field(0, 3), _stage_field(3, 6)
    angular_velocity, quaternion = _stage_field(6, 9), _stage_field(9, 13)


def _rk4_kernel(props: BodyProperties, forces):
    """The RK4 step (y, t, dt) -> next y of the packed 13-state, a list of floats.

    The body constants are unpacked to floats once, here.  The returned
    state's quaternion is not normalised; _normalized does that.
    """
    mass = props.mass
    gx, gy, gz = props.gravity.tolist()
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = props.inertia.tolist()
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = np.linalg.inv(props.inertia).tolist()

    def rate(t, y):
        v0, v1, v2, w0, w1, w2, qs, qx, qy, qz = y[3:13]
        n = math.sqrt(qs * qs + qx * qx + qy * qy + qz * qz)
        s, a, b, c = qs / n, qx / n, qy / n, qz / n
        f_ext, m_ext = forces(t, _StageState(y[0:9] + [s, a, b, c]))
        f0, f1, f2 = np.asarray(f_ext, dtype=float).tolist()
        m0, m1, m2 = np.asarray(m_ext, dtype=float).tolist()
        r00, r01, r02 = 1 - 2 * (b * b + c * c), 2 * (a * b - s * c), 2 * (a * c + s * b)
        r10, r11, r12 = 2 * (a * b + s * c), 1 - 2 * (a * a + c * c), 2 * (b * c - s * a)
        r20, r21, r22 = 2 * (a * c - s * b), 2 * (b * c + s * a), 1 - 2 * (a * a + b * b)
        # body-frame angular velocity p = R^T w and angular momentum h = I p
        p0 = r00 * w0 + r10 * w1 + r20 * w2
        p1 = r01 * w0 + r11 * w1 + r21 * w2
        p2 = r02 * w0 + r12 * w1 + r22 * w2
        h0 = i00 * p0 + i01 * p1 + i02 * p2
        h1 = i10 * p0 + i11 * p1 + i12 * p2
        h2 = i20 * p0 + i21 * p1 + i22 * p2
        # e = R^T M - p x h, the body-frame angular acceleration is I^-1 e
        e0 = r00 * m0 + r10 * m1 + r20 * m2 - (p1 * h2 - p2 * h1)
        e1 = r01 * m0 + r11 * m1 + r21 * m2 - (p2 * h0 - p0 * h2)
        e2 = r02 * m0 + r12 * m1 + r22 * m2 - (p0 * h1 - p1 * h0)
        d0 = j00 * e0 + j01 * e1 + j02 * e2
        d1 = j10 * e0 + j11 * e1 + j12 * e2
        d2 = j20 * e0 + j21 * e1 + j22 * e2
        return [v0, v1, v2, gx + f0 / mass, gy + f1 / mass, gz + f2 / mass,
                r00 * d0 + r01 * d1 + r02 * d2,
                r10 * d0 + r11 * d1 + r12 * d2,
                r20 * d0 + r21 * d1 + r22 * d2,
                # the kinematic rate 0.5 * [0, w] q on the un-normalised q
                -0.5 * (w0 * qx + w1 * qy + w2 * qz),
                0.5 * (qs * w0 + (w1 * qz - w2 * qy)),
                0.5 * (qs * w1 + (w2 * qx - w0 * qz)),
                0.5 * (qs * w2 + (w0 * qy - w1 * qx))]

    def rk4(y, t, dt):
        h = 0.5 * dt
        k1 = rate(t, y)
        k2 = rate(t + h, [u + h * k for u, k in zip(y, k1)])
        k3 = rate(t + h, [u + h * k for u, k in zip(y, k2)])
        k4 = rate(t + dt, [u + dt * k for u, k in zip(y, k3)])
        sixth = dt / 6.0
        return [u + sixth * (a + 2.0 * b + 2.0 * c + d)
                for u, a, b, c, d in zip(y, k1, k2, k3, k4)]

    return rk4


def _normalized(y):
    """A copy of the packed state y with its quaternion projected to unit norm."""
    qs, qx, qy, qz = y[9:13]
    n = math.sqrt(qs * qs + qx * qx + qy * qy + qz * qz)
    if n == 0.0:
        raise DomainError("cannot normalize a zero quaternion")
    qs, qx, qy, qz = qs / n, qx / n, qy / n, qz / n
    if not abs(math.sqrt(qs * qs + qx * qx + qy * qy + qz * qz) - 1.0) <= UNIT_TOL:
        raise DomainError("state quaternion must have unit norm")
    return y[0:9] + [qs, qx, qy, qz]


def _check_times(dt, *times):
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"time step must be finite and positive, got {dt}")
    for t in times:
        if not math.isfinite(t):
            raise DomainError(f"time must be finite, got {t}")


def step(state: RigidBodyState, props: BodyProperties, forces, t: float,
         dt: float) -> RigidBodyState:
    """One explicit RK4 step of length dt starting at time t."""
    _check_times(dt, t)
    rk4 = _rk4_kernel(props, forces)
    y = _normalized(rk4(state.as_vector().tolist(), t, dt))
    return RigidBodyState(y[0:3], y[3:6], y[6:9], y[9:13])


def simulate(state: RigidBodyState, props: BodyProperties, forces,
             t0: float, t_end: float, dt: float):
    """Fixed-step trajectory from t0 to (at least) t_end.

    Returns (times, states) with states of shape (K + 1, 13), rows packing
    position, velocity, angular velocity and quaternion.  Row k + 1 equals
    step() applied to row k, bit for bit.
    """
    _check_times(dt, t0, t_end)
    if t_end <= t0:
        raise DomainError("t_end must exceed t0")
    steps = (t_end - t0) / dt
    # the (n_steps + 1, 13) float64 trajectory must be indexable; inf fails too
    if not steps < sys.maxsize // 104 - 1:
        raise DomainError(f"({t_end} - {t0}) / {dt} = {steps:g} steps are too many "
                          "to store")
    n_steps = int(np.ceil(steps - 1e-12))
    times = t0 + dt * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, 13))
    y = state.as_vector().tolist()
    out[0] = y
    rk4 = _rk4_kernel(props, forces)
    for k, t in enumerate(times[:-1].tolist(), start=1):
        y = _normalized(rk4(y, t, dt))
        out[k] = y
    return times, out


def save_trajectory_csv(path, times, states) -> None:
    header = ["t", "x", "y", "z", "vx", "vy", "vz",
              "wx", "wy", "wz", "qs", "qx", "qy", "qz"]
    write_csv(path, np.column_stack((times, states)), header)

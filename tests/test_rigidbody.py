import numpy as np
import pytest

from morphreduce import rigidbody
from morphreduce.errors import DomainError
from morphreduce.rigidbody import (BodyProperties, RigidBodyState, constant_forces,
                                   no_forces, quat_norm, quat_normalize, quat_product,
                                   quat_to_rotation, save_trajectory_csv, simulate, step)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def random_unit_quaternion(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def rotated_inertia(rng):
    """Q diag(1, 2, 3) Q^T for a random rotation Q: SPD with off-diagonal terms."""
    r = quat_to_rotation(random_unit_quaternion(rng))
    inertia = r @ np.diag([1.0, 2.0, 3.0]) @ r.T
    return 0.5 * (inertia + inertia.T)


def quat_derivative(q, omega):
    """Kinematic rate 0.5 * [0, omega] q."""
    return 0.5 * quat_product(np.concatenate(([0.0], omega)), q)


def reference_derivative(t, y, props, forces):
    """The global-frame rate: solve (R I R^T) w' = M - w x (R I R^T) w."""
    q = y[9:13]
    qn = q / np.linalg.norm(q)
    f_ext, m_ext = forces(t, RigidBodyState(y[0:3], y[3:6], y[6:9], qn))
    r = quat_to_rotation(qn)
    j_world = r @ props.inertia @ r.T
    omega = y[6:9]
    dy = np.empty(13)
    dy[0:3] = y[3:6]
    dy[3:6] = props.gravity + np.asarray(f_ext, dtype=float) / props.mass
    dy[6:9] = np.linalg.solve(j_world, np.asarray(m_ext, dtype=float)
                              - np.cross(omega, j_world @ omega))
    dy[9:13] = quat_derivative(q, omega)
    return dy


def reference_step(state, props, forces, t, dt):
    """Classical RK4 on reference_derivative, quaternion renormalised after."""
    y = state.as_vector()
    k1 = reference_derivative(t, y, props, forces)
    k2 = reference_derivative(t + 0.5 * dt, y + 0.5 * dt * k1, props, forces)
    k3 = reference_derivative(t + 0.5 * dt, y + 0.5 * dt * k2, props, forces)
    k4 = reference_derivative(t + dt, y + dt * k3, props, forces)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.concatenate([y[0:9], quat_normalize(y[9:13])])


def damping(c, vandal=False):
    """F = -c v, M = -c w: a force model that reads its stage state.

    With vandal=True it also writes into every array it is handed, this
    call's and (through kept) earlier calls', which must change nothing.
    """
    kept = []

    def model(t, state):
        force, moment = -c * state.velocity, -c * state.angular_velocity
        if vandal:
            state.quaternion[:] = 0.0
            state.position += 1.0
            state.angular_velocity = [7.0, 8.0, 9.0]
            kept.append(state.velocity)
            for array in kept:
                array *= -3.0
        return force, moment

    return model


def world_momentum(state, props):
    r = quat_to_rotation(state.quaternion)
    return r @ props.inertia @ r.T @ state.angular_velocity


def rotate_by_conjugation(q, x):
    """Oracle: rotate x through q [0, x] q^-1 using only the product formula."""
    q_inv = np.array([q[0], -q[1], -q[2], -q[3]]) / (quat_norm(q) ** 2)
    return quat_product(quat_product(q, np.concatenate(([0.0], x))), q_inv)[1:]


class TestQuaternionAlgebra:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = rng.standard_normal(4)
            np.testing.assert_allclose(quat_product(q, IDENTITY_Q), q, atol=1e-15)
            np.testing.assert_allclose(quat_product(IDENTITY_Q, q), q, atol=1e-15)

    def test_ex_times_ey_is_ez(self):
        got = quat_product(np.concatenate(([0.0], EX)), np.concatenate(([0.0], EY)))
        np.testing.assert_array_equal(got, np.concatenate(([0.0], EZ)))

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            q1, q2 = rng.standard_normal(4), rng.standard_normal(4)
            lhs = quat_norm(quat_product(q1, q2))
            rhs = quat_norm(q1) * quat_norm(q2)
            assert abs(lhs - rhs) < 1e-12 * max(rhs, 1.0)

    def test_normalize_zero_rejected(self):
        with pytest.raises(DomainError):
            quat_normalize(np.zeros(4))


class TestRotationMatrix:
    def test_identity_quaternion(self):
        np.testing.assert_array_equal(quat_to_rotation(IDENTITY_Q), np.eye(3))

    def test_ninety_degrees_about_z(self):
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        np.testing.assert_allclose(quat_to_rotation(q) @ EX, EY, atol=1e-12)

    def test_matches_conjugation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            x = rng.standard_normal(3)
            np.testing.assert_allclose(quat_to_rotation(q) @ x,
                                       rotate_by_conjugation(q, x), atol=1e-12)

    def test_orthogonal_with_unit_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = quat_to_rotation(random_unit_quaternion(rng))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            q1 = random_unit_quaternion(rng)
            q2 = random_unit_quaternion(rng)
            lhs = quat_to_rotation(quat_normalize(quat_product(q1, q2)))
            rhs = quat_to_rotation(q1) @ quat_to_rotation(q2)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            quat_to_rotation([1.0, 0.1, 0.0, 0.0])


class TestQuaternionKinematics:
    """The kinematic rate that reference_step integrates."""

    def test_zero_rate_for_zero_omega(self):
        np.testing.assert_array_equal(quat_derivative(IDENTITY_Q, np.zeros(3)),
                                      np.zeros(4))

    def test_identity_attitude_rate(self):
        got = quat_derivative(IDENTITY_Q, np.array([0.0, 0.0, 2.0]))
        np.testing.assert_array_equal(got, np.array([0.0, 0.0, 0.0, 1.0]))

    def test_norm_preserving_flow(self):
        # d/dt ||q||^2 = 2 <q, qdot> = 0 for the continuous dynamics
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = random_unit_quaternion(rng)
            omega = rng.standard_normal(3)
            assert abs(q @ quat_derivative(q, omega)) < 1e-14


class TestValidation:
    def test_inertia_must_be_symmetric(self):
        bad = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DomainError, match="symmetric"):
            BodyProperties(mass=1.0, inertia=bad)

    def test_inertia_must_be_positive_definite(self):
        with pytest.raises(DomainError, match="positive definite"):
            BodyProperties(mass=1.0, inertia=np.diag([1.0, 1.0, -0.1]))

    def test_mass_positive(self):
        with pytest.raises(DomainError):
            BodyProperties(mass=0.0, inertia=np.eye(3))

    def test_state_quaternion_must_be_unit(self):
        with pytest.raises(DomainError):
            RigidBodyState([0, 0, 0], [0, 0, 0], [0, 0, 0], [1.0, 0.2, 0.0, 0.0])


class TestStep:
    def free_props(self, inertia=None):
        return BodyProperties(mass=2.0, inertia=np.eye(3) if inertia is None else inertia,
                              gravity=[0.0, 0.0, 0.0])

    def test_uniform_straight_line_motion(self):
        state = RigidBodyState([1.0, 2.0, 3.0], [0.5, -0.25, 1.0], np.zeros(3),
                               IDENTITY_Q)
        props = self.free_props()
        for k in range(100):
            state = step(state, props, no_forces, k * 0.01, 0.01)
        np.testing.assert_allclose(state.position, [1.5, 1.75, 4.0], atol=1e-12)

    def test_free_fall_parabola(self):
        props = BodyProperties(mass=3.0, inertia=np.eye(3))
        state = RigidBodyState([0.0, 0.0, 10.0], np.zeros(3), np.zeros(3), IDENTITY_Q)
        for k in range(100):
            state = step(state, props, no_forces, k * 0.01, 0.01)
        assert abs(state.position[2] - (10.0 - 0.5 * 9.81)) < 1e-12

    def test_constant_force_acceleration(self):
        props = self.free_props()
        state = RigidBodyState(np.zeros(3), np.zeros(3), np.zeros(3), IDENTITY_Q)
        forces = constant_forces([4.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        for k in range(100):
            state = step(state, props, forces, k * 0.01, 0.01)
        # a = F/m = 2, x = a t^2 / 2 = 1 at t = 1
        assert abs(state.position[0] - 1.0) < 1e-12

    def test_torque_free_symmetric_top_conservation(self):
        props = self.free_props(inertia=np.diag([1.0, 1.0, 2.0]))
        state = RigidBodyState(np.zeros(3), np.zeros(3), [0.1, 0.0, 1.0], IDENTITY_Q)
        r0 = quat_to_rotation(state.quaternion)
        j0 = r0 @ props.inertia @ r0.T
        momentum0 = j0 @ state.angular_velocity
        energy0 = 0.5 * state.angular_velocity @ momentum0
        for k in range(10_000):
            state = step(state, props, no_forces, k * 1e-3, 1e-3)
            assert abs(quat_norm(state.quaternion) - 1.0) < 1e-12
        r = quat_to_rotation(state.quaternion)
        j = r @ props.inertia @ r.T
        momentum = j @ state.angular_velocity
        energy = 0.5 * state.angular_velocity @ momentum
        assert np.abs(momentum - momentum0).max() < 1e-6 * np.linalg.norm(momentum0)
        assert abs(energy - energy0) < 1e-6 * energy0

    def test_norm_drift_per_raw_step(self):
        props = self.free_props(inertia=np.diag([1.0, 2.0, 3.0]))
        state = RigidBodyState(np.zeros(3), np.zeros(3), [0.7, -0.4, 1.1], IDENTITY_Q)
        raw = rigidbody._rk4_kernel(props, no_forces)(state.as_vector().tolist(), 0.0, 1e-2)
        assert abs(quat_norm(raw[9:13]) - 1.0) < 1e-8

    def test_invalid_dt(self):
        state = RigidBodyState(np.zeros(3), np.zeros(3), np.zeros(3), IDENTITY_Q)
        with pytest.raises(DomainError):
            step(state, self.free_props(), no_forces, 0.0, 0.0)

    @pytest.mark.parametrize("t, dt", [(0.0, -0.1), (0.0, np.nan), (0.0, np.inf),
                                       (np.nan, 0.1), (np.inf, 0.1)])
    def test_non_finite_or_negative_time_rejected(self, t, dt):
        state = RigidBodyState(np.zeros(3), np.zeros(3), np.zeros(3), IDENTITY_Q)
        with pytest.raises(DomainError):
            step(state, self.free_props(), no_forces, t, dt)

    def test_matches_global_frame_reference(self):
        rng = np.random.default_rng(6)
        props = BodyProperties(mass=1.7, inertia=rotated_inertia(rng),
                               gravity=[0.3, -0.2, -9.81])
        forces = constant_forces([0.4, -1.1, 2.0], [0.7, 0.25, -0.6])
        for _ in range(20):
            state = RigidBodyState(rng.standard_normal(3), rng.standard_normal(3),
                                   rng.standard_normal(3), random_unit_quaternion(rng))
            t, dt = rng.uniform(0.0, 10.0), rng.uniform(1e-3, 5e-2)
            got = step(state, props, forces, t, dt).as_vector()
            want = reference_step(state, props, forces, t, dt)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_state_dependent_forces_match_global_frame_reference(self):
        rng = np.random.default_rng(10)
        props = BodyProperties(mass=1.7, inertia=rotated_inertia(rng),
                               gravity=[0.3, -0.2, -9.81])
        forces = damping(0.8)
        for _ in range(20):
            state = RigidBodyState(rng.standard_normal(3), rng.standard_normal(3),
                                   rng.standard_normal(3), random_unit_quaternion(rng))
            t, dt = rng.uniform(0.0, 10.0), rng.uniform(1e-3, 5e-2)
            got = step(state, props, forces, t, dt).as_vector()
            want = reference_step(state, props, forces, t, dt)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_constant_moment_changes_momentum_linearly(self):
        # dL/dt = M for the world angular momentum L = R I R^T w
        rng = np.random.default_rng(7)
        props = self.free_props(inertia=rotated_inertia(rng))
        moment = np.array([0.3, -0.5, 0.2])
        forces = constant_forces(np.zeros(3), moment)
        state = RigidBodyState(np.zeros(3), np.zeros(3), [0.4, -0.3, 1.0],
                               random_unit_quaternion(rng))
        momentum0 = world_momentum(state, props)
        for k in range(2000):
            state = step(state, props, forces, k * 1e-3, 1e-3)
        want = momentum0 + moment * 2.0
        got = world_momentum(state, props)
        assert np.abs(got - want).max() < 1e-6 * np.linalg.norm(want)

    def test_forces_called_at_stage_times_with_unit_quaternion(self):
        calls = []

        def recording(t, state):
            calls.append((t, state.quaternion.copy()))
            return np.zeros(3), np.array([0.2, -0.1, 0.3])

        props = self.free_props(inertia=np.diag([1.0, 2.0, 3.0]))
        state = RigidBodyState(np.zeros(3), np.zeros(3), [2.0, -3.0, 5.0],
                               random_unit_quaternion(np.random.default_rng(8)))
        t, dt = 0.3, 0.05
        step(state, props, recording, t, dt)
        assert [c[0] for c in calls] == [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
        for _, q in calls:
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-15


class TestSimulate:
    def test_trajectory_shape_and_csv(self, tmp_path):
        props = BodyProperties(mass=1.0, inertia=np.eye(3))
        state = RigidBodyState([0, 0, 0], [1.0, 0, 0], [0, 0, 0.5], IDENTITY_Q)
        times, states = simulate(state, props, no_forces, 0.0, 1.0, 0.1)
        assert len(times) == 11
        assert states.shape == (11, 13)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, times, states)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,x,y,z")
        assert len(lines) == 12

    def test_bad_interval(self):
        props = BodyProperties(mass=1.0, inertia=np.eye(3))
        state = RigidBodyState(np.zeros(3), np.zeros(3), np.zeros(3), IDENTITY_Q)
        with pytest.raises(DomainError):
            simulate(state, props, no_forces, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("t0, t_end, dt", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
        (0.0, np.nan, 0.1), (0.0, np.inf, 0.1), (np.nan, 1.0, 0.1), (-np.inf, 1.0, 0.1)])
    def test_non_finite_or_non_positive_time_rejected(self, t0, t_end, dt):
        props = BodyProperties(mass=1.0, inertia=np.eye(3))
        state = RigidBodyState(np.zeros(3), np.zeros(3), np.zeros(3), IDENTITY_Q)
        with pytest.raises(DomainError):
            simulate(state, props, no_forces, t0, t_end, dt)

    def test_rows_are_steps(self):
        props = BodyProperties(mass=1.3, inertia=np.diag([1.0, 2.0, 3.0]))
        state = RigidBodyState([0.0, 1.0, 2.0], [0.5, 0.0, -1.0], [0.3, 1.0, -0.2],
                               random_unit_quaternion(np.random.default_rng(9)))
        forces = constant_forces([0.1, 0.2, 0.3], [0.05, -0.02, 0.01])
        times, states = simulate(state, props, forces, 0.25, 0.75, 0.01)
        current = state
        for k in range(len(times) - 1):
            current = step(current, props, forces, times[k], 0.01)
            np.testing.assert_array_equal(states[k + 1], current.as_vector())

    def test_rows_are_steps_under_state_dependent_forces(self):
        props = BodyProperties(mass=1.3, inertia=np.diag([1.0, 2.0, 3.0]))
        state = RigidBodyState([0.0, 1.0, 2.0], [0.5, 0.0, -1.0], [0.3, 1.0, -0.2],
                               random_unit_quaternion(np.random.default_rng(11)))
        forces = damping(0.4)
        times, states = simulate(state, props, forces, 0.25, 0.75, 0.01)
        current = state
        for k in range(len(times) - 1):
            current = step(current, props, forces, times[k], 0.01)
            np.testing.assert_array_equal(states[k + 1], current.as_vector())

    def test_writes_to_the_stage_state_never_reach_the_integrator(self):
        props = BodyProperties(mass=1.3, inertia=np.diag([1.0, 2.0, 3.0]))
        state = RigidBodyState([0.0, 1.0, 2.0], [0.5, 0.0, -1.0], [0.3, 1.0, -0.2],
                               random_unit_quaternion(np.random.default_rng(12)))
        _, want = simulate(state, props, damping(0.4), 0.0, 0.5, 0.01)
        _, got = simulate(state, props, damping(0.4, vandal=True), 0.0, 0.5, 0.01)
        np.testing.assert_array_equal(got, want)
        stepped = step(state, props, damping(0.4, vandal=True), 0.0, 0.01)
        np.testing.assert_array_equal(stepped.as_vector(), want[1])

import re
import sys

import numpy as np
import pytest

from morphreduce.dmd import fit
from morphreduce.errors import ConfigError, DomainError, EvaluatorError
from morphreduce.ffd import FFDLattice, BindingEntry, ParameterBinding, apply_parameters, deform_mesh
from morphreduce.geometry import (enclosed_volume, icosphere, ittc57_drag,
                                  save_mesh, surface_area)
from morphreduce.surrogate import (RIDGE_KINDS, ObjectiveSpec, TimeSeriesMode, TimeSeriesSpec,
                                   _mode_profile_phase, discrete_eigenvalues,
                                   evaluate_objective, generate_timeseries,
                                   objective_gradient, run_external)


def assemble_evolution(spec, t0, dt):
    """Complex mode matrix and eigenvalues such that x_k = Theta @ Lambda^k @ 1:
    the analytic evolution operator of generate_timeseries."""
    columns, lams = [], []
    for idx, mode in enumerate(spec.modes):
        if mode.amplitude == 0.0:
            continue
        profile, phase = _mode_profile_phase(spec, mode, idx)
        rho = np.exp((mode.growth + 1j * mode.frequency) * dt)
        z = mode.amplitude * profile * np.exp(1j * phase) \
            * np.exp((mode.growth + 1j * mode.frequency) * t0)
        if mode.frequency != 0.0:
            columns += [0.5 * z, 0.5 * np.conj(z)]
            lams += [rho, np.conj(rho)]
        else:
            columns.append(z.real.astype(complex))
            lams.append(rho)
    if np.any(spec.offset):
        columns.append(spec.offset.astype(complex))
        lams.append(1.0 + 0.0j)
    return np.column_stack(columns), np.array(lams, dtype=complex)


class TestRidgeObjectives:
    def test_square_profile_hand_value(self):
        spec = ObjectiveSpec("ridge", direction=np.eye(8)[0], profile=[0.0, 0.0, 1.0])
        mu = np.zeros(8)
        mu[0] = 0.2
        assert evaluate_objective(spec, mu) == pytest.approx(0.04, abs=1e-15)

    def test_quartic_ridge_zero_at_origin(self):
        spec = ObjectiveSpec("quartic-ridge", direction=np.ones(4))
        assert evaluate_objective(spec, np.zeros(4)) == 0.0

    def test_default_ridge_profile(self):
        # h(x) = x^2 + 0.5 x
        spec = ObjectiveSpec("ridge", direction=np.eye(3)[1])
        assert evaluate_objective(spec, [0.0, 0.4, 0.0]) == pytest.approx(0.16 + 0.2)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(6)
        spec = ObjectiveSpec("ridge", direction=c, noise=0.1, seed=3)
        mu = rng.uniform(-0.3, 0.3, 6)
        assert evaluate_objective(spec, mu) == evaluate_objective(spec, mu)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(5)
        spec = ObjectiveSpec("ridge", direction=c, noise=0.05, seed=7)
        mu = rng.uniform(-0.3, 0.3, 5)
        grad = objective_gradient(spec, mu)
        h = 1e-6
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (evaluate_objective(spec, mu + e) - evaluate_objective(spec, mu - e)) / (2 * h)
            assert abs(grad[j] - fd) < 1e-6

    def test_noise_is_orthogonal_to_ridge(self):
        # along the ridge direction the noise term is constant
        rng = np.random.default_rng(2)
        c = rng.standard_normal(6)
        c /= np.linalg.norm(c)
        clean = ObjectiveSpec("ridge", direction=c)
        noisy = ObjectiveSpec("ridge", direction=c, noise=0.2, seed=5)
        mu = rng.uniform(-0.3, 0.3, 6)
        shift = 0.1 * c
        delta_clean = evaluate_objective(clean, mu + shift) - evaluate_objective(clean, mu)
        delta_noisy = evaluate_objective(noisy, mu + shift) - evaluate_objective(noisy, mu)
        assert abs(delta_clean - delta_noisy) < 1e-12

    def test_dimension_mismatch(self):
        spec = ObjectiveSpec("ridge", direction=np.ones(3))
        with pytest.raises(DomainError):
            evaluate_objective(spec, np.zeros(5))

    def test_zero_direction_rejected(self):
        with pytest.raises(ConfigError):
            ObjectiveSpec("ridge", direction=np.zeros(4))

    @pytest.mark.parametrize("kind", RIDGE_KINDS)
    @pytest.mark.parametrize("field, value, shown", [
        ("direction", [1.0, float("nan"), 0.5], "[1.0, nan, 0.5]"),
        ("direction", [float("-inf"), 1.0], "[-inf, 1.0]"),
        ("profile", [0.0, float("inf")], "[0.0, inf]"),
        ("profile", [float("nan")], "[nan]"),
    ])
    def test_non_finite_entries_rejected(self, kind, field, value, shown):
        given = {"direction": [1.0, 0.5], field: value}
        with pytest.raises(ConfigError, match=re.escape(
                f"ridge {field} must hold finite numbers, got {shown}")):
            ObjectiveSpec(kind, **given)


class TestObjectiveSpecNumbers:
    @pytest.mark.parametrize("field, value, message", [
        ("volume_coefficient", float("inf"),
         "objective volume_coefficient must be a finite number"),
        ("noise_frequency", True, "objective noise_frequency must be a finite number"),
        ("noise", float("nan"), "objective noise must be a finite number"),
        ("density", 0.0, "objective density must be a finite number > 0"),
        ("viscosity", "1e-6", "objective viscosity must be a finite number > 0"),
        ("reference_length", 0, "objective reference_length must be a finite number > 0"),
        ("seed", 1.0, "objective seed must be an int >= 0"),
    ])
    def test_bad_number_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}, got "):
            ObjectiveSpec("volume-drag-proxy", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("reference_length", None), ("reference_length", 2), ("speed", np.float32(0.5)),
        ("volume_coefficient", -1.0), ("noise_frequency", 0.0), ("seed", np.int64(4)),
    ])
    def test_number_accepted(self, field, value):
        assert getattr(ObjectiveSpec("volume-drag-proxy", **{field: value}), field) == value


class TestVolumeDragProxy:
    def lattice(self):
        lat = FFDLattice([0.0, -1.2, -1.2], np.diag([1.4, 2.4, 2.4]), (2, 2, 2))
        binding = ParameterBinding([BindingEntry(0, (1, 1, 1), 0, 1.0)],
                                   bounds=[[-0.3, 0.3]])
        return lat, binding

    def test_distinct_parameters_give_distinct_values(self):
        mesh = icosphere(2)
        lat, binding = self.lattice()
        spec = ObjectiveSpec("volume-drag-proxy", speed=1.5)
        values = []
        for mu in ([0.0], [0.25]):
            deformed = deform_mesh(apply_parameters(lat, binding, mu), mesh)
            values.append(evaluate_objective(spec, mu, mesh=deformed))
        assert values[0] != values[1]

    def test_matches_manual_composition(self):
        mesh = icosphere(2, radius=0.8)
        spec = ObjectiveSpec("volume-drag-proxy", density=1025.0, speed=2.5,
                             viscosity=1.0e-6, volume_coefficient=12.0)
        got = evaluate_objective(spec, np.zeros(2), mesh=mesh)
        length = mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min()
        expected = ittc57_drag(2.5 * length / 1.0e-6, 1025.0, 2.5, surface_area(mesh)) \
            + 12.0 * enclosed_volume(mesh) ** (2.0 / 3.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_requires_mesh(self):
        spec = ObjectiveSpec("volume-drag-proxy")
        with pytest.raises(EvaluatorError):
            evaluate_objective(spec, np.zeros(3))


class TestExternalCommand:
    def write_script(self, tmp_path, body):
        script = tmp_path / "eval.py"
        script.write_text(body)
        return f"{sys.executable} {script}"

    def test_scalar_parsed(self, tmp_path):
        cmd = self.write_script(tmp_path, (
            "import sys\n"
            "vals = [float(v) for v in open(sys.argv[1]).read().split(',')]\n"
            "print(sum(vals))\n"))
        mesh = icosphere(0)
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(mesh, mesh_path)
        spec = ObjectiveSpec("external-command", command=cmd)
        value = evaluate_objective(spec, [0.5, 1.25, -0.25], mesh_path=mesh_path)
        assert value == pytest.approx(1.5)

    def test_value_is_first_token(self, tmp_path):
        cmd = self.write_script(tmp_path, "print('3.5 /tmp/series.csv')\n")
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(0), mesh_path)
        spec = ObjectiveSpec("external-command", command=cmd)
        assert run_external(spec, [0.0], mesh_path=mesh_path) == 3.5

    def test_nonzero_exit_raises(self, tmp_path):
        cmd = self.write_script(tmp_path, "import sys; sys.exit(3)\n")
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(0), mesh_path)
        spec = ObjectiveSpec("external-command", command=cmd)
        with pytest.raises(EvaluatorError, match="status 3"):
            evaluate_objective(spec, [0.0], mesh_path=mesh_path)

    def test_unparseable_output_raises(self, tmp_path):
        cmd = self.write_script(tmp_path, "print('not-a-number')\n")
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(0), mesh_path)
        spec = ObjectiveSpec("external-command", command=cmd)
        with pytest.raises(EvaluatorError, match="not a scalar"):
            evaluate_objective(spec, [0.0], mesh_path=mesh_path)


class TestTimeSeries:
    def test_zero_rate_zero_frequency_is_constant(self):
        spec = TimeSeriesSpec(modes=[TimeSeriesMode(0.0, 0.0, 1.0, 4)],
                              dimension=6, offset=0.0)
        snaps = generate_timeseries(spec, 0.0, 0.1, 20)
        assert np.abs(snaps.data - snaps.data[:, :1]).max() < 1e-15

    def test_dmd_recovers_discrete_eigenvalue(self):
        spec = TimeSeriesSpec(modes=[TimeSeriesMode(-0.1, 2.0, 1.0, 11)],
                              dimension=40, offset=0.0)
        snaps = generate_timeseries(spec, 7.0, 0.1, 50)
        model = fit(snaps)
        expected = np.exp((-0.1 + 2.0j) * 0.1)
        assert np.min(np.abs(model.eigenvalues - expected)) < 1e-9
        got = discrete_eigenvalues(spec, 0.1)
        assert np.min(np.abs(got - expected)) < 1e-15

    def test_offset_only_gives_unit_eigenvalue(self):
        spec = TimeSeriesSpec(modes=[], dimension=5, offset=np.arange(1.0, 6.0))
        snaps = generate_timeseries(spec, 0.0, 0.5, 10)
        model = fit(snaps)
        assert model.rank == 1
        assert abs(model.eigenvalues[0] - 1.0) < 1e-12

    def test_exact_linear_recurrence(self):
        spec = TimeSeriesSpec(
            modes=[TimeSeriesMode(-0.1, 2.0, 1.0, 1),
                   TimeSeriesMode(-0.05, 5.0, 0.7, 2)],
            dimension=30, offset=2.0)
        snaps = generate_timeseries(spec, 7.0, 0.1, 40)
        theta, lams = assemble_evolution(spec, 7.0, 0.1)
        a = (theta * lams) @ np.linalg.pinv(theta)
        residual = np.abs(a @ snaps.data[:, :-1] - snaps.data[:, 1:]).max()
        assert residual < 1e-10
        assert np.abs(a.imag).max() < 1e-10

    def test_explicit_profile_respected(self):
        profile = np.array([1.0, 0.0, 0.0])
        spec = TimeSeriesSpec(modes=[TimeSeriesMode(0.0, 1.0, 2.0, 3, profile=profile)],
                              dimension=3, offset=0.0)
        snaps = generate_timeseries(spec, 0.0, 0.1, 10)
        assert np.abs(snaps.data[1:]).max() == 0.0
        assert np.abs(snaps.data[0]).max() > 0.0

    def test_l_below_two_rejected(self):
        spec = TimeSeriesSpec(modes=[], dimension=2, offset=1.0)
        with pytest.raises(DomainError):
            generate_timeseries(spec, 0.0, 0.1, 1)

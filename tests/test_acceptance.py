"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from importlib.resources import files

import numpy as np
import pytest

from morphreduce import activesubspace as asub
from morphreduce import campaign as camp
from morphreduce import dmd, ffd, rigidbody as rb
from morphreduce.geometry import (enclosed_volume, icosphere,
                                  integrate_pressure_force,
                                  ittc57_friction_coefficient, unit_cube)
from morphreduce.surrogate import (ObjectiveSpec, TimeSeriesMode, TimeSeriesSpec,
                                   evaluate_objective, generate_timeseries,
                                   objective_gradient)

BOUNDS8 = np.tile([-0.3, 0.3], (8, 1))
# the eigenpairs with M = 1 and no bootstrap
ONE_ACTIVE = asub.AnalysisSettings(n_boot=0, rule="explicit", explicit_dim=1)


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_ffd_identity_and_locality():
    start = time.perf_counter()
    mesh = icosphere(5)  # 10242 vertices
    assert mesh.num_vertices >= 10_000
    lattice = ffd.FFDLattice([-0.6, -0.6, -0.6], np.diag([1.2, 1.2, 1.2]), (4, 4, 4))

    deformed = ffd.deform_mesh(lattice, mesh)
    assert np.array_equal(deformed.vertices, mesh.vertices)
    assert deformed.vertices.tobytes() == mesh.vertices.tobytes()

    # points outside the reference box stay untouched even when the lattice moves
    disp = np.zeros((4, 4, 4, 3))
    disp[1:3, 1:3, 1:3] = 0.2
    moved = lattice.with_displacements(disp)
    outside = np.array([[2.0, 0.0, 0.0], [0.0, -0.95, 0.0], [0.61, 0.61, 0.61]])
    assert np.array_equal(ffd.deform_points(moved, outside), outside)

    rng = np.random.default_rng(0)
    partition = ffd.basis_partition(lattice, rng.random((1000, 3)))
    pu_err = np.abs(partition - 1.0).max()
    assert pu_err <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"bit-exact identity on {mesh.num_vertices} vertices, "
          f"partition-of-unity err {pu_err:.1e}, {elapsed:.2f}s")


def test_criterion_02_ffd_hand_oracle():
    delta = 0.8
    disp = np.zeros((2, 2, 2, 3))
    disp[1, 1, 1] = [delta, 0.0, 0.0]
    lattice = ffd.FFDLattice([0, 0, 0], np.eye(3), (2, 2, 2), disp)
    moved = ffd.deform_point(lattice, [0.5, 0.5, 0.5])
    err = abs(moved[0] - (0.5 + delta / 8.0))
    assert err < 1e-14
    assert moved[1] == 0.5 and moved[2] == 0.5
    ok(2, f"trilinear midpoint weight 1/8, error {err:.1e}")


def test_criterion_03_dmd_spectral_recovery():
    start = time.perf_counter()
    dt, t0, l, n = 0.1, 7.0, 80, 1000
    spec = TimeSeriesSpec(
        modes=[TimeSeriesMode(-0.1, 2.0, 1.0, 21), TimeSeriesMode(-0.05, 5.0, 0.7, 22)],
        dimension=n, offset=0.0)
    training = generate_timeseries(spec, t0, dt, l)
    model = dmd.fit(training)

    expected = [np.exp((-0.1 + 2.0j) * dt), np.exp((-0.1 - 2.0j) * dt),
                np.exp((-0.05 + 5.0j) * dt), np.exp((-0.05 - 5.0j) * dt)]
    eig_err = max(np.min(np.abs(model.eigenvalues - lam)) for lam in expected)
    assert eig_err < 1e-6

    extended = generate_timeseries(spec, t0, dt, 2 * l)
    forecast = dmd.reconstruct_series(model, 2 * l - 1)
    rel = np.linalg.norm(forecast - extended.data) / np.linalg.norm(extended.data)
    assert rel < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    ok(3, f"eigenvalue err {eig_err:.1e}, 2x-horizon forecast err {rel:.1e}, "
          f"{elapsed:.2f}s")


def test_criterion_04_dmd_oracle_equivalence():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        l = min(n + 2, 10)
        snaps = dmd.SnapshotSet(rng.standard_normal((n, l)))
        s_mat, s_next = dmd.build_shift_pair(snaps)
        a = s_next @ np.linalg.pinv(s_mat)
        model = dmd.fit(snaps, rank="full")
        col = int(rng.integers(0, l - 1))
        x = snaps.data[:, col]
        expected = a @ x
        rel = np.linalg.norm(dmd.predict_next(model, x) - expected) \
            / max(np.linalg.norm(expected), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-9
    ok(4, f"20 random systems, worst one-step deviation {worst:.1e}")


def test_criterion_05_as_ridge_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    m, n = 8, 400
    c = rng.standard_normal(m)
    c /= np.linalg.norm(c)
    spec = ObjectiveSpec("ridge", direction=c)  # h(x) = x^2 + 0.5 x
    mus = rng.uniform(-0.3, 0.3, (n, m))
    f = np.array([evaluate_objective(spec, mu) for mu in mus])
    g = np.array([objective_gradient(spec, mu) for mu in mus])

    exact = asub.decompose(asub.SampleTable(mus, f, g, bounds=BOUNDS8),
                           asub.AnalysisSettings(n_boot=0))
    cos_exact = abs(exact.eigenvectors[:, 0] @ c)
    ratio = exact.eigenvalues[1] / exact.eigenvalues[0]
    assert cos_exact >= 0.999
    assert ratio <= 1e-8

    estimated = asub.estimate_gradients(asub.SampleTable(mus, f, bounds=BOUNDS8))
    local = asub.decompose(estimated, asub.AnalysisSettings(n_boot=0))
    cos_local = abs(local.eigenvectors[:, 0] @ c)
    assert cos_local >= 0.99

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(5, f"exact |cos| {cos_exact:.6f}, lam2/lam1 {ratio:.1e}, "
          f"local-linear |cos| {cos_local:.4f}, {elapsed:.2f}s")


def test_criterion_06_response_surface_metric():
    rng = np.random.default_rng(31)
    m, n = 8, 130

    # noiseless quartic ridge reproduced to machine precision
    c = rng.standard_normal(m)
    c /= np.linalg.norm(c)
    quartic = ObjectiveSpec("quartic-ridge", direction=c)
    mus = rng.uniform(-0.3, 0.3, (n, m))
    f = np.array([evaluate_objective(quartic, mu) for mu in mus])
    g = np.array([objective_gradient(quartic, mu) for mu in mus])
    table = asub.SampleTable(mus, f, g, bounds=BOUNDS8)
    decomp = asub.decompose(table, ONE_ACTIVE)
    _, clean_report = asub.fit_response_surface(decomp, table,
                                                asub.AnalysisSettings(split_seed=2))
    clean_err = clean_report["normalized_test_error"]
    assert clean_err < 1e-6

    # ridge plus 5% orthogonal noise: the metric sits in the paper-like band
    noisy_errors = []
    for rep in range(10):
        rng_rep = np.random.default_rng(100 + rep)
        c = rng_rep.standard_normal(m)
        c /= np.linalg.norm(c)
        mus = ffd.sample_parameters(
            ffd.ParameterBinding([ffd.BindingEntry(0, (0, 0, 0), 0, 1.0)],
                                 bounds=BOUNDS8), n, seed=200 + rep)
        clean = ObjectiveSpec("ridge", direction=c)
        f_clean = np.array([evaluate_objective(clean, mu) for mu in mus])
        amplitude = 0.05 * (f_clean.max() - f_clean.min())
        noisy = ObjectiveSpec("ridge", direction=c, noise=amplitude, seed=rep)
        f = np.array([evaluate_objective(noisy, mu) for mu in mus])
        g = np.array([objective_gradient(noisy, mu) for mu in mus])
        table = asub.SampleTable(mus, f, g, bounds=BOUNDS8)
        decomp = asub.decompose(table, ONE_ACTIVE)
        _, report = asub.fit_response_surface(
            decomp, table, asub.AnalysisSettings(split_seed=300 + rep))
        noisy_errors.append(report["normalized_test_error"])
    assert all(0.03 <= e <= 0.08 for e in noisy_errors)
    ok(6, f"noiseless {clean_err:.1e}; noisy band "
          f"[{min(noisy_errors):.3f}, {max(noisy_errors):.3f}] within [0.03, 0.08]")


def test_criterion_07_bootstrap_sanity():
    m = 8
    c = np.array([3.0, 1.0, -2.0, 0.5, 1.5, -1.0, 0.25, 2.0])
    c /= np.linalg.norm(c)

    # identical gradient rows: every resample is the same, intervals collapse
    table = asub.SampleTable(np.zeros((40, m)), np.zeros(40), np.tile(c, (40, 1)),
                             bounds=BOUNDS8)
    dec = asub.decompose(table, asub.AnalysisSettings(n_boot=100, seed=1))
    width = np.abs(dec.bootstrap_hi - dec.bootstrap_lo).max()
    assert width == 0.0

    # quadrupling the sample count halves the interval widths (+-30%)
    binding = ffd.ParameterBinding([ffd.BindingEntry(0, (0, 0, 0), 0, 1.0)],
                                   bounds=BOUNDS8)

    def gradient(mu):
        return (2.0 * (c @ mu) + 0.5) * c + 0.2 * np.cos(2.0 * mu)

    def median_width(n, seed):
        mus = ffd.sample_parameters(binding, n, seed=seed)
        f = (mus @ c) ** 2 + 0.5 * (mus @ c) + 0.1 * np.sin(2.0 * mus).sum(axis=1)
        g = np.array([gradient(mu) for mu in mus])
        dec = asub.decompose(asub.SampleTable(mus, f, g, bounds=BOUNDS8),
                             asub.AnalysisSettings(n_boot=200, seed=seed))
        return np.median(dec.bootstrap_hi - dec.bootstrap_lo)

    ratio = median_width(200, 7) / median_width(800, 1007)
    assert 1.4 <= ratio <= 2.6
    ok(7, f"zero-width degenerate intervals; width ratio N->4N = {ratio:.2f}")


def test_criterion_08_rigid_body():
    identity_q = np.array([1.0, 0.0, 0.0, 0.0])

    # free fall: RK4 integrates the quadratic exactly
    props = rb.BodyProperties(mass=3.0, inertia=np.eye(3))
    state = rb.RigidBodyState([0.0, 0.0, 0.0], np.zeros(3), np.zeros(3), identity_q)
    for k in range(100):
        state = rb.step(state, props, rb.no_forces, k * 0.01, 0.01)
    fall_err = abs(state.position[2] - (-0.5 * 9.81))
    assert fall_err < 1e-12

    # torque-free symmetric top: momentum and energy conserved
    props = rb.BodyProperties(mass=1.0, inertia=np.diag([1.0, 1.0, 2.0]),
                              gravity=[0.0, 0.0, 0.0])
    state = rb.RigidBodyState(np.zeros(3), np.zeros(3), [0.1, 0.0, 1.0], identity_q)
    j0 = props.inertia  # R = I at start
    momentum0 = j0 @ state.angular_velocity
    energy0 = 0.5 * state.angular_velocity @ momentum0
    worst_norm = 0.0
    for k in range(10_000):
        state = rb.step(state, props, rb.no_forces, k * 1e-3, 1e-3)
        worst_norm = max(worst_norm, abs(rb.quat_norm(state.quaternion) - 1.0))
    r = rb.quat_to_rotation(state.quaternion)
    j = r @ props.inertia @ r.T
    momentum = j @ state.angular_velocity
    energy = 0.5 * state.angular_velocity @ momentum
    mom_err = np.abs(momentum - momentum0).max() / np.linalg.norm(momentum0)
    en_err = abs(energy - energy0) / energy0
    assert mom_err < 1e-5
    assert en_err < 1e-5
    assert worst_norm < 1e-12

    rng = np.random.default_rng(5)
    homo_err = 0.0
    for _ in range(100):
        q1 = rng.standard_normal(4)
        q1 /= np.linalg.norm(q1)
        q2 = rng.standard_normal(4)
        q2 /= np.linalg.norm(q2)
        lhs = rb.quat_to_rotation(rb.quat_normalize(rb.quat_product(q1, q2)))
        rhs = rb.quat_to_rotation(q1) @ rb.quat_to_rotation(q2)
        homo_err = max(homo_err, np.abs(lhs - rhs).max())
    assert homo_err < 1e-10
    ok(8, f"fall err {fall_err:.1e}, momentum {mom_err:.1e}, energy {en_err:.1e}, "
          f"|q|-1 max {worst_norm:.1e}, homomorphism {homo_err:.1e}")


def test_criterion_09_force_and_volume_integrals():
    # net force under uniform pressure decreases with one refinement step;
    # the quadrature cancels a constant field exactly, so accept the machine
    # floor (far below any C*h bound) as converged
    pressure = 100.0
    norms, floors = [], []
    for sub in (2, 3):
        sphere = icosphere(sub)
        sphere = sphere.with_scalar_field("p", np.full(sphere.num_vertices, pressure))
        norms.append(np.linalg.norm(integrate_pressure_force(sphere, "p").force))
        floors.append(1e-12 * pressure * sphere.num_triangles)
    assert norms[1] < norms[0] or norms[1] <= floors[1]
    assert norms[1] <= floors[1]  # in fact both refinements sit at roundoff

    rho, g = 1000.0, 9.81
    cube = unit_cube(origin=(0.0, 0.0, -1.0))
    cube = cube.with_scalar_field("p", -rho * g * cube.vertices[:, 2])
    buoyancy = abs(integrate_pressure_force(cube, "p").force[2])
    assert abs(buoyancy - rho * g) < 0.01 * rho * g

    assert enclosed_volume(unit_cube()) == 1.0
    assert ittc57_friction_coefficient(1e7) == 0.003
    ok(9, f"sphere |F| {norms[0]:.2e}->{norms[1]:.2e}, buoyancy {buoyancy:.1f} N, "
          f"cube volume exact, C_f(1e7) = 0.003 exact")


def test_criterion_10_end_to_end_campaign(tmp_path):
    config_path = str(files("morphreduce") / "data" / "demo_campaign.json")
    start = time.perf_counter()
    config = camp.load_campaign_config(config_path)
    config.output_dir = str(tmp_path / "run_a")
    records = camp.run_campaign(config)
    assert len(records) == 130
    assert all(r.status == "ok" for r in records)
    _, bounds, _ = camp.load_run_records(config.output_dir)
    report = camp.analyze_campaign(records, bounds, config.analysis,
                                   outputs=config.outputs,
                                   out_dir=tmp_path / "run_a" / "analysis")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    run_a = tmp_path / "run_a"
    assert (run_a / "manifest.json").exists()
    for name in ("eigenvalues.csv", "bootstrap.csv", "summary_1d.csv",
                 "summary_2d.csv", "surface.json", "report.json"):
        assert (run_a / "analysis" / name).exists()
    for i in (0, 64, 129):
        sample = run_a / "samples" / f"{i:03d}"
        assert (sample / "mu.csv").exists()
        assert (sample / "mesh.obj").exists()
        assert (sample / "series.csv").exists()
        assert (sample / "record.json").exists()

    # rerun with the same seeds: byte-identical manifest and analysis
    config_b = camp.load_campaign_config(config_path)
    config_b.output_dir = str(tmp_path / "run_b")
    records_b = camp.run_campaign(config_b)
    camp.analyze_campaign(records_b, bounds, config_b.analysis,
                          outputs=config_b.outputs,
                          out_dir=tmp_path / "run_b" / "analysis")
    run_b = tmp_path / "run_b"
    assert (run_a / "manifest.json").read_bytes() == (run_b / "manifest.json").read_bytes()
    assert (run_a / "analysis" / "report.json").read_bytes() == \
        (run_b / "analysis" / "report.json").read_bytes()
    assert (run_a / "samples" / "097" / "record.json").read_bytes() == \
        (run_b / "samples" / "097" / "record.json").read_bytes()

    detail = ", ".join(f"{name}: M={entry['active_dim']} {entry['structure']}"
                       for name, entry in report["outputs"].items())
    ok(10, f"130/130 samples, byte-identical rerun, {elapsed:.1f}s ({detail})")

"""The four benchmark workloads: seeded inputs, set-up, one iteration, checks.

Every workload writes its inputs into its own work directory from the seed,
times its loaders as set-up, and then repeats an iteration.  An iteration
times one or more units of its compute phase and of its finish phase; the
end-to-end metrics are medians over all units of a run.  The program is
called through the module attributes its own callers use, so the spans that
layers.install() adds see these calls too.  README.md says why each
workload exists.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from morphreduce import activesubspace as asub
from morphreduce import campaign, dmd, geometry, rigidbody, surrogate

import oracles
from oracles import at_least, at_most

DATA = Path(campaign.__file__).resolve().parent / "data"


@dataclass
class Iteration:
    compute: list                 # seconds per compute unit
    finish: list                  # seconds per finish unit
    phases: dict                  # phase name -> list of seconds
    units: int                    # operations attempted
    failed_units: int = 0
    checks: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def pooled(iterations, phase) -> float:
    return median(t for it in iterations for t in it.phases[phase])


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Campaign:
    """A fresh run_campaign (compute), then analyze_campaign plus a rerun with
    resume on (finish), the finish repeated over the same run directory."""

    FINISH_REPS = 8

    def __init__(self, work: Path, seed: int, *, mesh_resolution, n_samples,
                 time_resolved: bool, threads: int, n_direct_checks):
        self.work, self.seed = work, seed
        self.mesh_resolution = mesh_resolution
        self.n_samples = n_samples
        self.time_resolved = time_resolved
        self.threads = threads
        self.n_direct_checks = n_direct_checks
        self.config_path = work / "campaign.json"
        self._runs = 0
        self.first_run = None
        self.first_manifest = None

    def prepare(self) -> dict:
        doc = json.loads((DATA / "demo_campaign.json").read_text())
        shutil.copy(DATA / "demo_ffd.json", self.work / "ffd.json")
        if self.mesh_resolution is None:
            shutil.copy(DATA / "demo_hull.obj", self.work / "hull.obj")
        else:
            geometry.save_mesh(geometry.demo_hull(*self.mesh_resolution),
                               self.work / "hull.obj")
        doc.update(ffd="ffd.json", mesh="hull.obj", seed=self.seed,
                   samples=self.n_samples, time_resolved=self.time_resolved)
        self.config_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        mesh = geometry.load_mesh(self.work / "hull.obj")
        self.channels = doc["channels"]
        self.n_snapshots = campaign.DMDSettings(**doc["dmd"]).n_snapshots
        return {"vertices": mesh.num_vertices, "triangles": mesh.num_triangles,
                "samples": self.n_samples, "threads": self.threads,
                "snapshots": f"{self.channels}x{self.n_snapshots}"
                if self.time_resolved else None}

    def setup(self):
        config = campaign.load_campaign_config(self.config_path)
        _, binding = campaign.load_ffd_json(config.ffd_path)
        campaign.load_mesh(config.mesh_path)
        campaign.sample_parameters(binding, config.n_samples, scheme=config.scheme,
                                   seed=config.seed)
        return config

    def _analyze(self, config, records):
        _, bounds, _ = campaign.load_run_records(config.output_dir)
        return campaign.analyze_campaign(records, bounds, config.analysis,
                                         outputs=config.outputs,
                                         out_dir=Path(config.output_dir) / "analysis")

    def iterate(self, config) -> Iteration:
        run_dir = self.work / f"run{self._runs}"
        self._runs += 1
        config.output_dir = str(run_dir)
        records, run_s = _timed(campaign.run_campaign, config, threads=self.threads)
        fresh = (run_dir / "manifest.json").read_bytes()
        if self.first_run is None:
            self.first_run, self.first_manifest = run_dir, fresh
        n_failed = sum(1 for r in records if r.status != "ok")
        checks = [at_most("failed_samples", n_failed, 0),
                  at_most("rerun_manifest_differs", fresh != self.first_manifest, 0)]
        analysis, resume = [], []
        for _ in range(self.FINISH_REPS):
            report, elapsed = _timed(self._analyze, config, records)
            analysis.append(elapsed)
            resume.append(_timed(campaign.run_campaign, config, threads=self.threads)[1])
            resumed = (run_dir / "manifest.json").read_bytes()
            checks.append(at_most("resume_manifest_differs", resumed != fresh, 0))

        sizes = {p: p.stat().st_size for p in (run_dir / "samples").rglob("*")
                 if p.is_file()}
        meshes = [size for p, size in sizes.items() if p.name == "mesh.obj"]
        errors = [e.get("mean_normalized_error", np.inf)
                  for e in report["outputs"].values()]
        if run_dir != self.first_run:
            shutil.rmtree(run_dir)
        return Iteration(
            compute=[run_s], finish=[a + r for a, r in zip(analysis, resume)],
            phases={"run_s": [run_s], "analysis_s": analysis, "resume_s": resume},
            units=len(records), failed_units=n_failed, checks=checks,
            values={"n_samples": len(records), "n_ok": len(records) - n_failed,
                    "surface_nrmse": max(errors),
                    "bytes_written_per_sample": sum(sizes.values()) / len(records),
                    "obj_bytes_per_sample": float(np.mean(meshes))})

    def verify(self, config) -> list:
        """Compare the first run's tracked scalars with direct evaluations.

        On a time-resolved campaign the scalars are DMD steady values; they
        are checked against the objective evaluated on the saved mesh.
        """
        records, _, _ = campaign.load_run_records(self.first_run)
        if self.n_direct_checks < len(records):
            rng = np.random.default_rng(self.seed)
            records = [records[i] for i in sorted(
                rng.choice(len(records), self.n_direct_checks, replace=False))]
        got, direct = [], []
        for r in records:
            mesh = geometry.load_mesh(self.first_run / r.mesh_path)
            got += [r.scalars["resistance"], r.scalars["trim"]]
            direct += [surrogate.evaluate_objective(config.objective, r.mu, mesh=mesh),
                       campaign.trim_proxy(mesh)]
        name = "steady_rel_err" if self.time_resolved else "direct_rel_err"
        return [at_most(name, oracles.steady_rel_err(got, direct),
                        oracles.STEADY_REL_TOL)]

    def summary(self, iterations) -> dict:
        n_ok = median(it.values["n_ok"] for it in iterations)
        return {
            "samples_per_s": (n_ok / pooled(iterations, "run_s"), "1/s"),
            "analysis_s": (pooled(iterations, "analysis_s"), "s"),
            "resume_s": (pooled(iterations, "resume_s"), "s"),
            "surface_nrmse": (max(it.values["surface_nrmse"] for it in iterations), "1"),
        }

    def computed_bytes(self, iterations) -> dict:
        out = {"obj_bytes_per_sample": iterations[0].values["obj_bytes_per_sample"],
               "gradient_distance_bytes": self.n_samples ** 2 * 8 * 8}
        if self.time_resolved:
            out["snapshot_matrix_bytes_per_sample"] = self.channels * self.n_snapshots * 8
        return out


class ReduceLarge:
    """Two DMD fits of a large transient with steady extraction (compute),
    then the active-subspace analysis of a large sample table (finish)."""

    N_CHANNELS, N_SNAPSHOTS, DT = 20_000, 81, 0.1
    HORIZON, STEADY_WINDOW = 30.0, 5.0
    MODES = ((-0.35, 2.1, 0.25), (-0.6, 0.7, 0.1), (-0.45, 1.3, 0.15))
    N_ROWS, N_PARAMS, NOISE = 2000, 8, 0.005
    threads = 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def prepare(self) -> dict:
        rng = np.random.default_rng(self.seed)
        n = self.N_CHANNELS
        offset = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        modes = [surrogate.TimeSeriesMode(
                     growth=g, frequency=f, amplitude=a,
                     profile_seed=int(rng.integers(2**31)),
                     profile=offset * rng.uniform(0.6, 1.4, n))
                 for g, f, a in self.MODES]
        spec = surrogate.TimeSeriesSpec(modes=modes, dimension=n, offset=offset)
        series = surrogate.generate_timeseries(spec, 0.0, self.DT, self.N_SNAPSHOTS)
        dmd.save_snapshots_bin(series, self.work / "snapshots.bin")
        self.offset = offset
        self.oracle_eigenvalues = surrogate.discrete_eigenvalues(spec, self.DT)

        m = self.N_PARAMS
        direction = rng.standard_normal(m)
        direction /= np.linalg.norm(direction)
        objective = surrogate.ObjectiveSpec(kind="ridge", direction=direction,
                                            noise=self.NOISE, seed=self.seed)
        self.bounds = np.tile([-1.0, 1.0], (m, 1))
        inputs = rng.uniform(-1.0, 1.0, (self.N_ROWS, m))
        outputs = [surrogate.evaluate_objective(objective, mu) for mu in inputs]
        asub.save_sample_table(asub.SampleTable(inputs, outputs),
                               self.work / "table.csv")
        # with mu = center + half * x the ridge direction in x is c * half
        self.active_direction = direction * 0.5 * (self.bounds[:, 1] - self.bounds[:, 0])
        return {"channels": n, "snapshots": self.N_SNAPSHOTS,
                "known_modes": len(self.MODES), "rows": self.N_ROWS,
                "parameters": m, "threads": self.threads}

    def setup(self):
        snapshots = dmd.load_snapshots_bin(self.work / "snapshots.bin")
        table = asub.load_sample_table(self.work / "table.csv", bounds=self.bounds)
        return snapshots, table

    def _fit(self, snapshots):
        models = [dmd.fit(snapshots), dmd.fit(snapshots, amplitudes_from="series")]
        return models, [campaign.extract_steady_state(model, self.HORIZON,
                                                      self.STEADY_WINDOW)
                        for model in models]

    def iterate(self, state) -> Iteration:
        snapshots, table = state
        (models, steady), fit_s = _timed(self._fit, snapshots)
        (report, decomp, _), analysis_s = _timed(asub.analyze_table, table)
        steady_err = max(oracles.offset_rel_err(s, self.offset) for s in steady)
        checks = [
            at_most("eigenvalue_deviation", max(
                oracles.eigen_deviation(m.eigenvalues, self.oracle_eigenvalues)
                for m in models), oracles.EIGEN_TOL),
            at_most("steady_rel_err", steady_err, oracles.STEADY_REL_TOL),
            at_least("active_cos", oracles.active_cosine(
                decomp.eigenvectors[:, 0], self.active_direction),
                oracles.ACTIVE_COS_MIN),
        ]
        return Iteration(compute=[fit_s], finish=[analysis_s],
                         phases={"dmd_fit_s": [fit_s], "analysis_s": [analysis_s]},
                         units=1, checks=checks,
                         values={"rank": models[0].rank, "steady_rel_err": steady_err,
                                 "surface_nrmse": report.get("mean_normalized_error",
                                                             np.inf)})

    def verify(self, state) -> list:
        return []

    def summary(self, iterations) -> dict:
        return {
            "dmd_fit_s": (pooled(iterations, "dmd_fit_s"), "s"),
            "analysis_s": (pooled(iterations, "analysis_s"), "s"),
            "steady_rel_err": (max(it.values["steady_rel_err"] for it in iterations), "1"),
            "surface_nrmse": (max(it.values["surface_nrmse"] for it in iterations), "1"),
        }

    def computed_bytes(self, iterations) -> dict:
        n, l, r = self.N_CHANNELS, self.N_SNAPSHOTS, iterations[0].values["rank"]
        return {"snapshot_matrix_bytes": n * l * 8,
                "series_amplitude_stack_bytes": n * l * r * 16,
                "gradient_distance_bytes": self.N_ROWS ** 2 * self.N_PARAMS * 8}


class RigidBodyRK4:
    """Torque-free asymmetric body under gravity, spun near its intermediate
    axis.  The trajectory is integrated in segments of SEGMENT_STEPS steps,
    one simulate call each (compute), then written as CSV (finish)."""

    DT, SEGMENT_STEPS, N_SEGMENTS = 1e-3, 100, 30
    INERTIA = (1.0, 2.0, 3.0)
    FINISH_REPS = 3
    threads = 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.body_path = work / "body.json"
        self.n_steps = self.SEGMENT_STEPS * self.N_SEGMENTS

    def prepare(self) -> dict:
        rng = np.random.default_rng(self.seed)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        wobble = rng.uniform(0.01, 0.05, 2) * rng.choice([-1.0, 1.0], 2)
        omega = rigidbody.quat_to_rotation(q) @ np.array([wobble[0], 1.0, wobble[1]])
        doc = {"mass": 1.0, "inertia": np.diag(self.INERTIA).tolist(),
               "initial": {"position": [0.0, 0.0, 0.0],
                           "velocity": rng.uniform(-1.0, 1.0, 3).tolist(),
                           "angular_velocity": omega.tolist(),
                           "quaternion": q.tolist()}}
        self.body_path.write_text(json.dumps(doc))
        return {"steps": self.n_steps, "segment_steps": self.SEGMENT_STEPS,
                "dt": self.DT, "threads": self.threads}

    def setup(self):
        doc = json.loads(self.body_path.read_text())
        props = rigidbody.BodyProperties(mass=doc["mass"], inertia=doc["inertia"],
                                         gravity=doc.get("gravity"))
        init = doc["initial"]
        state = rigidbody.RigidBodyState(init["position"], init["velocity"],
                                         init["angular_velocity"], init["quaternion"])
        return props, state

    def iterate(self, setup) -> Iteration:
        props, state = setup
        rows, segments = [state.as_vector()[None, :]], []
        span = self.SEGMENT_STEPS * self.DT
        for k in range(self.N_SEGMENTS):
            (_, states), elapsed = _timed(rigidbody.simulate, state, props,
                                          rigidbody.no_forces, k * span,
                                          (k + 1) * span, self.DT)
            segments.append(elapsed)
            rows.append(states[1:])
            state = rigidbody.RigidBodyState(*np.split(states[-1], [3, 6, 9]))
        states = np.concatenate(rows)
        times = self.DT * np.arange(len(states))
        path = self.work / "trajectory.csv"
        writes = [_timed(rigidbody.save_trajectory_csv, path, times, states)[1]
                  for _ in range(self.FINISH_REPS)]
        drift = oracles.conservation_drift(states, props.inertia)
        checks = [at_most("steps_missing", abs(len(states) - 1 - self.n_steps), 0),
                  at_most("conservation_drift", drift, oracles.CONSERVATION_TOL)]
        return Iteration(compute=segments, finish=writes,
                         phases={"segment_s": segments, "write_s": writes},
                         units=1, checks=checks, values={"conservation_drift": drift})

    def verify(self, setup) -> list:
        return []

    def summary(self, iterations) -> dict:
        return {
            "rk4_steps_per_s": (self.SEGMENT_STEPS / pooled(iterations, "segment_s"),
                                "1/s"),
            "conservation_drift": (max(it.values["conservation_drift"]
                                       for it in iterations), "1"),
        }

    def computed_bytes(self, iterations) -> dict:
        return {"trajectory_bytes": (self.n_steps + 1) * 13 * 8}


def make(name: str, work: Path, seed: int):
    if name == "demo_campaign":
        return Campaign(work, seed, mesh_resolution=None, n_samples=130,
                        time_resolved=True, threads=1, n_direct_checks=130)
    if name == "fine_hull":
        return Campaign(work, seed, mesh_resolution=(120, 60), n_samples=32,
                        time_resolved=False, threads=2, n_direct_checks=4)
    if name == "reduce_large":
        return ReduceLarge(work, seed)
    if name == "rigidbody_rk4":
        return RigidBodyRK4(work, seed)
    raise KeyError(name)

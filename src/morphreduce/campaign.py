"""End-to-end design-study pipeline: sample, morph, evaluate, reduce.

A campaign draws parameter vectors from the FFD binding box, deforms the
base mesh for each one, evaluates the objective, persists one record per
sample, and finally runs the active-subspace analysis per tracked output.

On the time-resolved path each sample synthesizes a short transient (by
default 10 snapshots, t in [7, 7.9] s), fits a full-rank DMD model and takes
the steady value from the model's fixed point (dmd.fixed_point): the mode of
the one eigenvalue at 1, with every other mode decaying.  The steady value
thus needs only the first snapshots of the run, no forecast.  A sample whose
spectrum breaks that rule fails with the rule as its reason; an ok record
carries the DMD diagnostics next to its scalars.

Samples are independent units of work; every record is written atomically
and an interrupted run resumes by skipping indices that already have an ok
record for the same parameter vector; failed records are retried.  Each
record carries the run's configuration fingerprint (_fingerprint), and a
record of another configuration stops the resume.  All randomness is
derived from (campaign seed, sample index), so results are byte-identical
across reruns and thread counts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import activesubspace as asub
from . import dmd
from .activesubspace import AnalysisSettings
from .errors import ConfigError, DomainError, _is_real, _require_int
from .ffd import apply_parameters, deform_mesh, load_ffd_json, sample_parameters
from .geometry import TriMesh, load_mesh, save_mesh, volume_centroid
from .surrogate import (RIDGE_KINDS, ObjectiveSpec, TimeSeriesMode, TimeSeriesSpec,
                        evaluate_objective, generate_timeseries)
from .textio import read_json, write_csv, write_json

__all__ = [
    "DMDSettings", "AnalysisSettings", "CampaignConfig", "SampleRecord",
    "load_campaign_config", "run_campaign", "extract_steady_state",
    "analyze_campaign", "load_run_records", "trim_proxy",
]

logger = logging.getLogger("morphreduce.campaign")


@dataclass
class DMDSettings:
    window_start: float = 7.0
    window_end: float = 7.9
    dt: float = 0.1

    def __post_init__(self):
        for name in ("window_start", "window_end", "dt"):
            value = getattr(self, name)
            if not _is_real(value) or not np.isfinite(value):
                raise ConfigError(f"DMD {name} must be a finite number, got {value!r}")
        if self.window_end <= self.window_start:
            raise ConfigError("DMD window end must exceed its start")
        if self.dt <= 0:
            raise ConfigError("DMD sampling interval must be positive")
        if self.n_snapshots < 2:
            raise ConfigError(f"DMD window [{self.window_start}, {self.window_end}] s at dt "
                              f"{self.dt} s gives {self.n_snapshots} snapshot(s), need >= 2")

    @property
    def n_snapshots(self) -> int:
        return int(round((self.window_end - self.window_start) / self.dt)) + 1


@dataclass
class CampaignConfig:
    ffd_path: str
    mesh_path: str
    n_samples: int
    objective: ObjectiveSpec
    output_dir: str = "campaign_run"
    scheme: str = "latin-hypercube"
    seed: int = 0
    outputs: tuple = ("resistance", "trim")
    time_resolved: bool = True
    n_channels: int = 24
    transient_modes: list | None = None
    dmd: DMDSettings = field(default_factory=DMDSettings)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)

    DEFAULT_TRANSIENTS = (
        {"growth": -0.35, "frequency": 2.1, "amplitude": 0.25},
        {"growth": -0.6, "frequency": 0.7, "amplitude": 0.1},
    )

    def __post_init__(self):
        _require_int("campaign samples", self.n_samples, 1)
        _require_int("campaign channels", self.n_channels, 1)
        _require_int("campaign seed", self.seed, 0)
        if (not isinstance(self.outputs, (list, tuple))
                or not all(isinstance(name, str) for name in self.outputs)):
            raise ConfigError("campaign outputs must be a list of strings, "
                              f"got {self.outputs!r}")
        self.outputs = tuple(self.outputs)
        if not self.outputs:
            raise ConfigError("campaign needs at least one tracked output")
        if any(c in name for name in self.outputs for c in ',"\r\n'):  # CSVs are unquoted
            raise ConfigError(f"output name with a comma, quote or newline in {self.outputs}")
        if not isinstance(self.time_resolved, bool):
            raise ConfigError("campaign time_resolved must be true or false, "
                              f"got {self.time_resolved!r}")
        if self.transient_modes is None:
            self.transient_modes = [dict(m) for m in self.DEFAULT_TRANSIENTS]
        self.transient_modes = _checked_modes(self.transient_modes)
        if self.time_resolved and self.n_channels < len(self.outputs) + 1:
            raise ConfigError("need more snapshot channels than tracked outputs")

    def to_doc(self) -> dict:
        obj = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
               for k, v in vars(self.objective).items() if v is not None}
        return {
            "ffd": self.ffd_path,
            "mesh": self.mesh_path,
            "samples": self.n_samples,
            "scheme": self.scheme,
            "seed": self.seed,
            "objective": obj,
            "outputs": list(self.outputs),
            "time_resolved": self.time_resolved,
            "channels": self.n_channels,
            "transient_modes": self.transient_modes,
            "dmd": vars(self.dmd).copy(),
            "analysis": vars(self.analysis).copy(),
        }


def _checked_modes(modes) -> list:
    """transient_modes as a list of {growth, frequency[, amplitude]} float dicts."""
    if not isinstance(modes, (list, tuple)):
        raise ConfigError(f"campaign transient_modes must be a list of objects, got {modes!r}")
    checked = []
    for mode in modes:
        if (not isinstance(mode, dict) or not {"growth", "frequency"} <= mode.keys()
                or not mode.keys() <= {"growth", "frequency", "amplitude"}
                or not all(_is_real(v) and np.isfinite(v) for v in mode.values())):
            raise ConfigError("campaign transient mode must map growth, frequency and "
                              f"optionally amplitude to finite numbers, got {mode!r}")
        checked.append({key: float(value) for key, value in mode.items()})
    return checked


# campaign document key -> CampaignConfig field; every other key is its field name
_CONFIG_FIELDS = {{"ffd_path": "ffd", "mesh_path": "mesh", "n_samples": "samples",
                   "n_channels": "channels"}.get(f.name, f.name): f.name
                  for f in fields(CampaignConfig)}


def load_campaign_config(path) -> CampaignConfig:
    """Read a campaign JSON document.

    Each key names one CampaignConfig field (see _CONFIG_FIELDS), a key left
    out takes the field's default, and any other key, or a missing ffd, mesh,
    samples or objective, raises ConfigError.
    The ffd and mesh paths are resolved relative to the config file;
    output_dir is resolved relative to the working directory.
    """
    base = Path(path).parent  # joining keeps an absolute path as it is
    with read_json(path) as doc:
        for key in doc:
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown campaign key {key!r}")
        for key in ("ffd", "mesh", "samples", "objective"):
            if key not in doc:
                raise ConfigError(f"campaign key {key!r} is required")
        values = {_CONFIG_FIELDS[key]: value for key, value in doc.items()}
        values.update(ffd_path=str(base / doc["ffd"]), mesh_path=str(base / doc["mesh"]),
                      objective=ObjectiveSpec(**doc["objective"]))
        for key, settings in (("dmd", DMDSettings), ("analysis", AnalysisSettings)):
            if key in doc:
                values[key] = settings(**doc[key])
        return CampaignConfig(**values)


@dataclass
class SampleRecord:
    index: int
    mu: np.ndarray
    status: str
    scalars: dict = field(default_factory=dict)
    mesh_path: str | None = None
    series_path: str | None = None
    reason: str | None = None
    diagnostics: dict | None = None

    def to_doc(self) -> dict:
        doc = {
            "index": self.index,
            "mu": [float(v) for v in self.mu],
            "status": self.status,
            "scalars": {k: float(v) for k, v in self.scalars.items()},
        }
        if self.mesh_path is not None:
            doc["mesh"] = self.mesh_path
        if self.series_path is not None:
            doc["series"] = self.series_path
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "SampleRecord":
        mu = doc["mu"]
        if not isinstance(mu, list) or not all(isinstance(v, (int, float)) for v in mu):
            raise ValueError(f"mu must be a list of numbers, got {mu!r}")
        diagnostics = doc.get("diagnostics")
        if diagnostics is not None and not isinstance(diagnostics, dict):
            raise ValueError(f"diagnostics must be an object, got {diagnostics!r}")
        return cls(index=int(doc["index"]), mu=np.array(mu, dtype=float),
                   status=doc["status"], scalars=dict(doc.get("scalars", {})),
                   mesh_path=doc.get("mesh"), series_path=doc.get("series"),
                   reason=doc.get("reason"), diagnostics=diagnostics)


def trim_proxy(mesh: TriMesh) -> float:
    """Longitudinal volume-centroid offset, a stand-in for the trim output.

    Normalized shift of the enclosed-volume centroid from the mid-length of
    the bounding box; responds to bow-heavy or stern-heavy deformations.
    """
    x = mesh.vertices[:, 0]
    extent = float(x.max() - x.min())
    if extent == 0.0:
        raise DomainError("degenerate mesh: zero longitudinal extent")
    mid = 0.5 * float(x.max() + x.min())
    return (float(volume_centroid(mesh)[0]) - mid) / extent


def _tracked_scalars(config: CampaignConfig, mu, mesh, mesh_path) -> dict:
    scalars = {}
    for name in config.outputs:
        if name == "trim":
            scalars[name] = trim_proxy(mesh)
        else:
            scalars[name] = evaluate_objective(config.objective, mu, mesh=mesh,
                                               mesh_path=mesh_path)
    return scalars


def _transient_spec(config: CampaignConfig, index: int, offset: np.ndarray) -> TimeSeriesSpec:
    """Per-sample snapshot generator: tracked channels plus probe channels,
    each relaxing onto its steady value through the configured modes."""
    modes = []
    for j, mode in enumerate(config.transient_modes):
        seed_entropy = np.random.SeedSequence(
            [config.seed, index, j]).generate_state(1)[0]
        rng = np.random.default_rng(int(seed_entropy))
        relative = rng.uniform(0.6, 1.4, config.n_channels)
        modes.append(TimeSeriesMode(
            growth=mode["growth"],
            frequency=mode["frequency"],
            amplitude=mode.get("amplitude", 0.2),
            profile_seed=int(seed_entropy),
            profile=offset * relative,
        ))
    return TimeSeriesSpec(modes=modes, dimension=config.n_channels, offset=offset)


def _probe_mix(config: CampaignConfig) -> tuple:
    """(base, mix) of the probe-channel offsets base + mix @ tracked; they
    depend only on the config, so a campaign draws them once."""
    n_tracked = len(config.outputs)
    n_probe = config.n_channels - n_tracked
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x70726F62]))
    base = rng.uniform(-1.0, 1.0, n_probe)
    mix = rng.uniform(-1.0, 1.0, (n_probe, n_tracked))
    return base, mix


def _channel_offsets(config: CampaignConfig, scalars: dict, probe_mix: tuple) -> np.ndarray:
    tracked = np.array([scalars[name] for name in config.outputs])
    base, mix = probe_mix
    return np.concatenate([tracked, base + mix @ tracked])


def extract_steady_state(model: dmd.DMDModel, horizon_t: float, window_t: float) -> np.ndarray:
    """Mean of the reconstructed states over [horizon - window, horizon].

    The campaign takes its steady values from dmd.fixed_point; this forecast
    mean serves callers that average a window instead.

    The mean is taken in mode space, Re(Theta (b * mean_k Lambda^k)), over
    the forecast steps k_lo..k_hi inside the window: the r x (k_hi - k_lo + 1)
    eigenvalue powers are averaged, and no n-row forecast is formed.
    """
    if window_t <= 0:
        raise DomainError("steady-state window must be positive")
    k_lo = int(np.ceil((horizon_t - window_t - model.t0) / model.dt - 1e-9))
    k_hi = int(np.floor((horizon_t - model.t0) / model.dt + 1e-9))
    k_lo = max(k_lo, 0)
    if k_hi < k_lo:
        raise DomainError("steady-state window contains no forecast samples")
    steps = np.arange(k_lo, k_hi + 1, dtype=float)
    mean_power = (model.eigenvalues[:, None] ** steps[None, :]).mean(axis=1)
    return (model.modes @ (model.amplitudes * mean_power)).real


def _dmd_diagnostics(model: dmd.DMDModel, direct: dict, steady: dict) -> dict:
    """Spectrum checks of a fixed-point fit, and per output the relative
    change |steady - direct| / |direct| (None where the direct value is 0)."""
    lam = model.eigenvalues
    return {
        "rank": model.rank,
        "max_abs_eigenvalue": float(np.abs(lam).max()),
        "fixed_point_distance": float(np.abs(lam - 1.0).min()),
        "steady_rel_change": {name: abs(steady[name] - value) / abs(value) if value else None
                              for name, value in direct.items()},
    }


def _fingerprint(config: CampaignConfig) -> str:
    """sha256 of what decides a run's records.

    That is the config document without the analysis settings, which never
    change a record, and with the lattice and mesh paths replaced by the
    sha256 of the files' bytes, so a checkout elsewhere gives the same value.
    """
    doc = config.to_doc()
    del doc["analysis"]
    for key in ("ffd", "mesh"):
        doc[key] = hashlib.sha256(Path(doc[key]).read_bytes()).hexdigest()
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_sample(index: int, mu: np.ndarray, lattice, binding, base_mesh,
                config: CampaignConfig, run_dir: Path, probe_mix,
                fingerprint: str) -> SampleRecord:
    sample_dir = run_dir / "samples" / f"{index:03d}"
    sample_dir.mkdir(parents=True, exist_ok=True)
    rel = f"samples/{index:03d}"
    try:
        morphed = apply_parameters(lattice, binding, mu)
        mesh = deform_mesh(morphed, base_mesh)
        mesh_file = sample_dir / "mesh.obj"
        save_mesh(mesh, mesh_file)
        write_csv(sample_dir / "mu.csv", [mu])

        scalars = _tracked_scalars(config, mu, mesh, mesh_file)
        series_rel = diagnostics = None
        if config.time_resolved:
            offset = _channel_offsets(config, scalars, probe_mix)
            spec = _transient_spec(config, index, offset)
            series = generate_timeseries(spec, config.dmd.window_start,
                                         config.dmd.dt, config.dmd.n_snapshots)
            dmd.save_snapshots_csv(series, sample_dir / "series.csv")
            series_rel = f"{rel}/series.csv"
            # short windows need every mode for the fixed point
            model = dmd.fit(series, rank="full")
            steady = dmd.fixed_point(model)
            direct = scalars
            scalars = {name: float(steady[j]) for j, name in enumerate(config.outputs)}
            diagnostics = _dmd_diagnostics(model, direct, scalars)
        record = SampleRecord(index=index, mu=mu, status="ok", scalars=scalars,
                              mesh_path=f"{rel}/mesh.obj", series_path=series_rel,
                              diagnostics=diagnostics)
    except Exception as exc:  # fault isolation: one bad sample never aborts the run
        logger.warning("sample %d failed: %s", index, exc)
        record = SampleRecord(index=index, mu=mu, status="failed", reason=str(exc))
    write_json(sample_dir / "record.json", {**record.to_doc(), "fingerprint": fingerprint})
    return record


def _reusable_record(run_dir: Path, index: int, mu: np.ndarray,
                     fingerprint: str) -> SampleRecord | None:
    """The finished record of a sample, or None when it must be (re)computed.

    Unreadable and failed records are recomputed.  A record drawn for a
    different parameter vector, or one without this run's configuration
    fingerprint, belongs to another configuration and raises ConfigError
    rather than being mixed into this run.
    """
    record_file = run_dir / "samples" / f"{index:03d}" / "record.json"
    if not record_file.exists():
        return None
    try:
        with read_json(record_file) as doc:
            record = SampleRecord.from_doc(doc)
            found = doc.get("fingerprint")
    except ConfigError as exc:
        logger.warning("sample %d: unreadable record (%s), recomputing", index, exc)
        return None
    if record.mu.tobytes() != mu.tobytes():
        raise ConfigError(
            f"sample {index}: {record_file} holds a record for another parameter "
            "vector (different configuration); rerun with --no-resume or choose "
            "a new output directory")
    if found != fingerprint:
        raise ConfigError(
            f"sample {index}: {record_file} holds a record without this run's "
            "configuration fingerprint (different configuration); rerun with "
            "--no-resume or choose a new output directory")
    if record.status != "ok":
        logger.info("sample %d: retrying failed record", index)
        return None
    return record


def run_campaign(config: CampaignConfig, threads: int | None = None,
                 resume: bool = True) -> list:
    """Execute the full sampling campaign; returns the list of SampleRecord.

    threads bounds the worker pool; None uses every available CPU.
    Writes run_dir/manifest.json plus one samples/NNN/ directory per sample.
    Per-sample failures are recorded and isolated; config-level problems
    (bad mesh, bad lattice, an active dimension the binding cannot have, a
    ridge direction of another length than the binding, resumable records of
    another configuration) abort before any evaluation.
    """
    if threads is not None and threads < 1:
        raise ConfigError(f"thread count must be positive, got {threads}")
    n_workers = (os.cpu_count() or 1) if threads is None else threads
    lattice, binding = load_ffd_json(config.ffd_path)
    if binding is None:
        raise ConfigError(f"{config.ffd_path}: campaign needs a parameter binding")
    config.analysis.check_dimension(binding.dimension)
    direction = config.objective.direction
    if config.objective.kind in RIDGE_KINDS and len(direction) != binding.dimension:
        raise ConfigError(f"objective direction has {len(direction)} entries, but the "
                          f"binding has {binding.dimension} parameters")
    base_mesh = load_mesh(config.mesh_path)
    mus = sample_parameters(binding, config.n_samples, scheme=config.scheme,
                            seed=config.seed)
    fingerprint = _fingerprint(config)
    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    records = [_reusable_record(run_dir, i, mus[i], fingerprint) if resume else None
               for i in range(config.n_samples)]
    todo = [i for i, r in enumerate(records) if r is None]
    probe_mix = _probe_mix(config) if config.time_resolved else None

    def work(i):
        return _run_sample(i, mus[i], lattice, binding, base_mesh, config, run_dir,
                           probe_mix, fingerprint)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for i, record in zip(todo, pool.map(work, todo)):
            records[i] = record

    manifest = {
        "config": config.to_doc(),
        "fingerprint": fingerprint,
        "bounds": binding.bounds.tolist(),
        "n_samples": config.n_samples,
        "n_ok": sum(1 for r in records if r.status == "ok"),
        "records": [r.to_doc() for r in records],
    }
    write_json(run_dir / "manifest.json", manifest)
    n_failed = config.n_samples - manifest["n_ok"]
    logger.info("campaign finished: %d ok, %d failed", manifest["n_ok"], n_failed)
    return records


def load_run_records(run_dir):
    """Read back (records, bounds, config-doc) from a finished run directory."""
    with read_json(Path(run_dir) / "manifest.json") as manifest:
        records = [SampleRecord.from_doc(doc) for doc in manifest["records"]]
        bounds = np.asarray(manifest["bounds"], dtype=float)
    return records, bounds, manifest.get("config", {})


def analyze_campaign(records, bounds, settings: AnalysisSettings,
                     outputs=("resistance", "trim"), out_dir=None) -> dict:
    """Active-subspace analysis of the campaign outputs.

    Per tracked output: local-linear gradients, bootstrap eigendecomposition,
    active-dimension choice, response surface with test error, summary plot
    data against one and two active variables, and the mean normalized error
    over split replicates.  Writes the analysis/ files when out_dir is given
    and returns the report dictionary.
    """
    ok = [r for r in records if r.status == "ok"]
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    m = len(bounds)
    if len(ok) < m + 2:
        raise DomainError(
            f"analysis needs at least {m + 2} successful samples, got {len(ok)}")
    inputs = np.array([r.mu for r in ok])

    report = {"n_ok": len(ok), "n_failed": len(records) - len(ok), "outputs": {}}
    plots, surfaces = {}, {}
    for name in outputs:
        try:
            values = np.array([r.scalars[name] for r in ok])
        except KeyError:
            raise DomainError(f"records carry no scalar named {name!r}")
        table = asub.SampleTable(inputs, values, bounds=bounds)
        entry, decomp, surface = asub.analyze_table(table, settings)
        if surface is not None:
            surfaces[name] = asub.surface_to_doc(surface)
        report["outputs"][name] = entry
        for file_name, (header, rows) in asub.plot_data(table, decomp).items():
            plots.setdefault(file_name, (["output"] + header, []))[1].extend(
                (name,) + row for row in rows)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for file_name, (header, rows) in plots.items():
            write_csv(out_dir / file_name, rows, header)
        write_json(out_dir / "surface.json", surfaces)
        write_json(out_dir / "report.json", report)
    return report

"""Analytic objectives and synthetic time series standing in for a flow solver.

The builtin objectives give the campaign and the reduction algorithms ground
truth to be validated against: ridge functions have a known one-dimensional
active subspace, and the volume-drag proxy wires mesh deformation into a
scalar through the wetted-surface/volume integrals and the ITTC-57 line.
The proxy is explicitly non-physical; it exercises the pipeline, it does not
approximate a real hull resistance.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, EvaluatorError, _is_real, _require_int
from .dmd import SnapshotSet
from .geometry import TriMesh, enclosed_volume, ittc57_drag, surface_area
from .textio import write_csv

__all__ = [
    "ObjectiveSpec", "evaluate_objective", "objective_gradient", "run_external",
    "TimeSeriesMode", "TimeSeriesSpec", "generate_timeseries",
    "discrete_eigenvalues",
]

RIDGE_KINDS = ("ridge", "quartic-ridge")
OBJECTIVE_KINDS = RIDGE_KINDS + ("volume-drag-proxy", "external-command")
# the fields that must be finite numbers, and those of them that must be > 0
_NUMBERS = ("noise", "noise_frequency", "volume_coefficient")
_POSITIVE = ("density", "speed", "viscosity", "reference_length")


@dataclass
class ObjectiveSpec:
    """Parameters of one scalar objective f(mu).

    ridge / quartic-ridge evaluate a 1-D polynomial profile h at c.mu, plus
    an optional deterministic oscillation along a direction orthogonal to c
    (amplitude ``noise``, see _noise_direction).  volume-drag-proxy combines
    ITTC-57 friction on the deformed mesh's wetted area with a volume term
    k * V^(2/3).  external-command delegates to a user process.
    """

    kind: str
    direction: np.ndarray | None = None
    profile: np.ndarray | None = None
    noise: float = 0.0
    noise_frequency: float = 12.0
    seed: int = 0
    command: str | None = None
    # volume-drag-proxy parameters
    density: float = 1000.0
    speed: float = 2.0
    viscosity: float = 1.19e-6
    reference_length: float | None = None
    volume_coefficient: float = 50.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if self.kind in RIDGE_KINDS:
            if self.direction is None:
                raise ConfigError(f"{self.kind} objective needs a direction vector")
            self.direction = np.asarray(self.direction, dtype=float).reshape(-1)
            if not np.any(self.direction):
                raise ConfigError("ridge direction must be nonzero")
            if self.profile is None:
                # h(x) = x^2 + 0.5 x for ridge, x^4 for quartic-ridge
                self.profile = np.array([0.0, 0.5, 1.0]) if self.kind == "ridge" \
                    else np.array([0.0, 0.0, 0.0, 0.0, 1.0])
            self.profile = np.asarray(self.profile, dtype=float).reshape(-1)
            for name in ("direction", "profile"):
                values = getattr(self, name)
                if not np.isfinite(values).all():
                    raise ConfigError(f"ridge {name} must hold finite numbers, "
                                      f"got {values.tolist()!r}")
        for name in _NUMBERS + _POSITIVE:
            value = getattr(self, name)
            if name == "reference_length" and value is None:
                continue  # the deformed mesh's length is used
            positive = name in _POSITIVE
            if not _is_real(value) or not np.isfinite(value) or (positive and value <= 0):
                raise ConfigError(f"objective {name} must be a finite number"
                                  f"{' > 0' if positive else ''}, got {value!r}")
        _require_int("objective seed", self.seed, 0)
        if self.noise < 0.0:
            raise ConfigError("noise amplitude must be >= 0")
        if self.kind == "external-command" and not self.command:
            raise ConfigError("external-command objective needs a command template")

    def _noise_direction(self):
        """Seeded unit vector orthogonal to the ridge direction, plus a phase."""
        m = len(self.direction)
        if m < 2:
            return None, 0.0
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x6F7274]))
        c_hat = self.direction / np.linalg.norm(self.direction)
        v = rng.standard_normal(m)
        v -= (v @ c_hat) * c_hat
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return None, 0.0
        return v / norm, rng.uniform(0.0, 2.0 * np.pi)


def _ridge_value(spec: ObjectiveSpec, mu: np.ndarray) -> float:
    x = float(spec.direction @ mu)
    value = float(np.polynomial.polynomial.polyval(x, spec.profile))
    if spec.noise > 0.0:
        v, phase = spec._noise_direction()
        if v is not None:
            value += spec.noise * np.sqrt(2.0) * np.sin(
                spec.noise_frequency * float(v @ mu) + phase)
    return value


def evaluate_objective(spec: ObjectiveSpec, mu, mesh: TriMesh | None = None,
                       mesh_path=None) -> float:
    """Evaluate f(mu); deterministic for a given (spec, mu).

    The volume-drag proxy needs the deformed mesh; external commands need a
    path to it on disk.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if spec.kind in RIDGE_KINDS:
        if len(mu) != len(spec.direction):
            raise DomainError(
                f"objective expects {len(spec.direction)} parameters, got {len(mu)}")
        return _ridge_value(spec, mu)
    if spec.kind == "volume-drag-proxy":
        if mesh is None:
            raise EvaluatorError("volume-drag-proxy needs the deformed mesh")
        area = surface_area(mesh)
        volume = enclosed_volume(mesh)
        length = spec.reference_length
        if length is None:
            length = float(mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min())
        reynolds = spec.speed * length / spec.viscosity
        drag = ittc57_drag(reynolds, spec.density, spec.speed, area)
        return float(drag + spec.volume_coefficient * abs(volume) ** (2.0 / 3.0))
    # external-command
    return run_external(spec, mu, mesh_path)


def objective_gradient(spec: ObjectiveSpec, mu) -> np.ndarray:
    """Analytic gradient of the ridge objectives (not available otherwise)."""
    if spec.kind not in RIDGE_KINDS:
        raise DomainError(f"no analytic gradient for objective kind {spec.kind!r}")
    mu = np.asarray(mu, dtype=float).reshape(-1)
    x = float(spec.direction @ mu)
    dprofile = np.polynomial.polynomial.polyder(spec.profile)
    grad = float(np.polynomial.polynomial.polyval(x, dprofile)) * spec.direction
    if spec.noise > 0.0:
        v, phase = spec._noise_direction()
        if v is not None:
            grad = grad + spec.noise * np.sqrt(2.0) * spec.noise_frequency * np.cos(
                spec.noise_frequency * float(v @ mu) + phase) * v
    return grad


def run_external(spec: ObjectiveSpec, mu, mesh_path) -> float:
    """Invoke ``cmd <mu-csv-file> <deformed-mesh-path>`` and parse its stdout.

    The process must print a scalar as its first token; the value is returned.
    """
    if mesh_path is None:
        raise EvaluatorError("external-command objective needs the deformed mesh's path")
    mu = np.asarray(mu, dtype=float).reshape(-1)
    with tempfile.TemporaryDirectory(prefix="morphreduce-") as tmp:
        mu_path = Path(tmp) / "mu.csv"
        write_csv(mu_path, [mu])
        argv = shlex.split(spec.command) + [str(mu_path), str(mesh_path)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        except OSError as exc:
            raise EvaluatorError(f"cannot run external evaluator: {exc}")
        if proc.returncode != 0:
            raise EvaluatorError(
                f"external evaluator exited with status {proc.returncode}: "
                f"{proc.stderr.strip()[:200]}")
        tokens = proc.stdout.split()
        if not tokens:
            raise EvaluatorError("external evaluator printed no output")
        try:
            return float(tokens[0])
        except ValueError:
            raise EvaluatorError(
                f"external evaluator output {tokens[0]!r} is not a scalar")


# --- synthetic time series ------------------------------------------------

@dataclass
class TimeSeriesMode:
    """One damped/driven oscillation: growth rate sigma (1/s), frequency omega
    (rad/s), amplitude, and the seed of its spatial profile and phases."""

    growth: float
    frequency: float
    amplitude: float = 1.0
    profile_seed: int = 0
    profile: np.ndarray | None = None


@dataclass
class TimeSeriesSpec:
    """Superposition of modes around a steady offset, in an n-channel state."""

    modes: list
    dimension: int
    offset: np.ndarray | float = 0.0

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("state dimension must be >= 1")
        self.offset = np.broadcast_to(
            np.asarray(self.offset, dtype=float), (self.dimension,)).copy()


def _mode_profile_phase(spec: TimeSeriesSpec, mode: TimeSeriesMode, index: int):
    rng = np.random.default_rng(np.random.SeedSequence([mode.profile_seed, index]))
    if mode.profile is not None:
        profile = np.asarray(mode.profile, dtype=float).reshape(spec.dimension)
    else:
        profile = rng.standard_normal(spec.dimension)
        profile /= np.linalg.norm(profile)
    phase = rng.uniform(0.0, 2.0 * np.pi, spec.dimension)
    return profile, phase


def generate_timeseries(spec: TimeSeriesSpec, t0: float, dt: float,
                        l: int) -> SnapshotSet:
    """Sample x(t) = offset + sum_i a_i phi_i * exp(sigma_i t) cos(omega_i t + psi_i).

    The phases psi_i are drawn per channel, which makes every oscillatory
    mode span a two-dimensional invariant subspace: the series satisfies an
    exact linear recurrence whose discrete eigenvalues are
    exp((sigma_i +- i omega_i) dt), plus 1 for a nonzero offset.
    """
    if l < 2:
        raise DomainError(f"need at least 2 snapshots, got {l}")
    t = t0 + dt * np.arange(l)
    data = np.tile(spec.offset[:, None], (1, l))
    for idx, mode in enumerate(spec.modes):
        profile, phase = _mode_profile_phase(spec, mode, idx)
        envelope = np.exp(mode.growth * t)
        data += mode.amplitude * profile[:, None] * envelope[None, :] * np.cos(
            mode.frequency * t[None, :] + phase[:, None])
    return SnapshotSet(data, t0=t0, dt=dt)


def discrete_eigenvalues(spec: TimeSeriesSpec, dt: float) -> np.ndarray:
    """Exact discrete-time eigenvalues of the generating recurrence."""
    lams = []
    for mode in spec.modes:
        if mode.amplitude == 0.0:
            continue
        rho = np.exp((mode.growth + 1j * mode.frequency) * dt)
        lams.append(rho)
        if mode.frequency != 0.0:
            lams.append(np.conj(rho))
    if np.any(spec.offset):
        lams.append(1.0 + 0.0j)
    return np.array(lams, dtype=complex)

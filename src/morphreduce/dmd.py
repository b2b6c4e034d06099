"""Dynamic mode decomposition of equispaced snapshot series.

Fits a low-rank linear evolution operator to columns x_1 ... x_l of a
snapshot matrix X: with S = [x_1 ... x_{l-1}] and S' = [x_2 ... x_l], the
best-fit operator is A = S' S^+.  The algorithm never forms A; it works
with the truncated SVD S ~ U_r Sigma_r V_r* and the projected operator
A_tilde = U_r* S' V_r Sigma_r^{-1}, whose eigenpairs give the modes,
discrete-time eigenvalues and amplitudes used for reconstruction and
forecasting:

    x_{k+1} ~ Theta Lambda^k b,      b = Theta^+ x_1.

Only the R factor of X = Q R touches all n rows (Sayadi & Schmid 2016).
It is built by tall-skinny QR, one QR per row block and one of the stacked
Rs (Demmel et al. 2012), and Q is never formed.  With S = Q R[:, :-1] and
S' = Q R[:, 1:], the SVD of the l-sized R[:, :-1] gives Sigma_r, V_r and
U_r = Q U_R, so A_tilde = U_R* R[:, 1:] V_r Sigma_r^{-1}.  Every x_k lies in
range(Q), so the amplitudes are solved with the l-sized Q* Theta in place of
Theta.  The modes are the one further product with the data.

When every other eigenvalue lies inside the unit circle, the series tends to
the fixed point Theta_k b_k of the one eigenvalue lambda_k = 1; fixed_point
returns that steady state without forecasting (Schmid 2010).

Amplitudes fitted to the whole series solve the stacked Vandermonde
problem min_b sum_k ||Theta Lambda^k b - x_{k+1}|| (Jovanovic, Schmid &
Nichols 2014) in the r-dimensional mode space: with Q* Theta = Q_theta
R_theta, each term equals ||R_theta Lambda^k b - Q_theta* Q* x_{k+1}|| plus a
part independent of b, so no (n*l x r) stack is ever formed.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .textio import FLOAT, read_csv, read_json, write_csv, write_json

__all__ = [
    "SnapshotSet", "DMDModel", "build_shift_pair", "fit", "fixed_point",
    "FIXED_POINT_TOL", "reconstruct_series", "predict_next", "predict_at_time",
    "training_error",
    "load_snapshots_csv", "save_snapshots_csv",
    "load_snapshots_bin", "save_snapshots_bin",
    "save_model_json", "load_model_json",
]


@dataclass
class SnapshotSet:
    """Time-equispaced system states: column k of data is the state at t0 + k*dt."""

    data: np.ndarray
    t0: float = 0.0
    dt: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise DomainError("snapshot data must be a 2-D (n x l) array")
        if self.data.shape[1] < 2:
            raise DomainError(f"need at least 2 snapshots, got {self.data.shape[1]}")
        self.dt = float(self.dt)
        self.t0 = float(self.t0)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"snapshot dt must be finite and > 0, got {self.dt}")
        if not math.isfinite(self.t0):
            raise DomainError(f"snapshot t0 must be finite, got {self.t0}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def l(self) -> int:
        return self.data.shape[1]


@dataclass
class DMDModel:
    """Fitted decomposition: modes (n x r), discrete eigenvalues and amplitudes (r,)."""

    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int
    t0: float
    dt: float
    mode_kind: str


FIXED_POINT_TOL = 1e-6  # |lambda - 1| below which a mode counts as steady
_BLOCK_ELEMENTS = 2 ** 17  # float64 values per TSQR row block: 1 MB


def build_shift_pair(snapshots: SnapshotSet):
    """Split the data into (S, S_next) where each S_next column is one step ahead."""
    return snapshots.data[:, :-1], snapshots.data[:, 1:]


def _select_rank(sigma: np.ndarray, n_positive: int, rank) -> int:
    if isinstance(rank, (int, np.integer)) and not isinstance(rank, bool):
        if rank < 1:
            raise DomainError(f"explicit rank must be >= 1, got {rank}")
        r = int(rank)
        if r > n_positive:
            warnings.warn(
                f"requested rank {r} exceeds the {n_positive} nonzero singular "
                f"values; reduced to {n_positive}", stacklevel=3)
            r = n_positive
        return r
    if rank == "full":
        return n_positive
    tau = 1.0 - 1e-10 if rank is None else float(rank)
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"energy threshold must lie in (0, 1], got {tau}")
    energy = np.cumsum(sigma[:n_positive] ** 2)
    energy /= energy[-1]
    return int(np.searchsorted(energy, tau - 1e-15) + 1)


def _r_factor(data: np.ndarray) -> np.ndarray:
    """R of data = Q R by tall-skinny QR: one QR per row block, one of the stacked Rs.

    Blocks hold about _BLOCK_ELEMENTS values and at least l rows; Q is never
    formed.  R is unique up to the signs of its rows.
    """
    n, l = data.shape
    rows = max(l, _BLOCK_ELEMENTS // l)
    if n <= rows:
        return np.linalg.qr(data, mode="r")
    stacked = np.vstack([np.linalg.qr(data[i:i + rows], mode="r")
                         for i in range(0, n, rows)])
    return np.linalg.qr(stacked, mode="r")


def fit(snapshots: SnapshotSet, rank=None, mode_kind: str = "exact",
        amplitudes_from: str = "x1") -> DMDModel:
    """Fit a DMD model.

    rank selects the SVD truncation: an int is used directly, a float in
    (0, 1] is an energy threshold (smallest r capturing that fraction of
    sum(sigma^2)), "full" keeps every nonzero singular value, and None uses
    the default threshold 1 - 1e-10.

    mode_kind "exact" computes eigenvectors of the full operator as
    S' V_r Sigma_r^{-1} W; "projected" lifts the low-rank eigenvectors as
    U_r W = S V_r Sigma_r^{-1} W.  amplitudes_from "x1" solves Theta b = x_1
    (the first snapshot); "series" solves the least-squares problem over all
    training snapshots, reduced through Q* Theta = Q_theta R_theta to the
    (l*r x r) system R_theta Lambda^k b = Q_theta* Q* x_k.

    The rank, spectrum and amplitudes come from the small factor R of the
    snapshots X = Q R (see the module docstring); the modes are the only
    other n-row product.  The result agrees with an SVD of the n-row S to
    rounding, and beyond the data the fit needs O(n*r + l^2) memory.
    """
    if mode_kind not in ("exact", "projected"):
        raise ConfigError(f"mode_kind must be 'exact' or 'projected', got {mode_kind!r}")
    if amplitudes_from not in ("x1", "series"):
        raise ConfigError(f"amplitudes_from must be 'x1' or 'series', got {amplitudes_from!r}")
    data = snapshots.data
    r_x = _r_factor(data)
    if not np.isfinite(r_x).all():  # a NaN or inf cell reaches R: no n-row scan
        raise DomainError("snapshot data must be finite")
    u, sigma, vh = np.linalg.svd(r_x[:, :-1], full_matrices=False)
    tol = max(snapshots.n, snapshots.l - 1) * np.finfo(float).eps * sigma[0]
    n_positive = int((sigma > tol).sum())
    if n_positive == 0:
        raise DomainError("shift matrix S is zero; no dynamics to fit")
    r = _select_rank(sigma, n_positive, rank)

    lift = vh[:r].T / sigma[:r]  # V_r Sigma_r^{-1}
    lam, w = np.linalg.eig(u[:, :r].T @ r_x[:, 1:] @ lift)
    # descending |lambda|, ties broken by descending imaginary part
    order = np.lexsort((-lam.imag, -np.abs(lam)))
    lam = lam[order]
    # complex even when eig returns a real w, so its float view interleaves
    # real and imaginary columns: one real product gives the complex modes
    coef = (lift @ w[:, order]).astype(complex, copy=False)
    shifted = slice(1, None) if mode_kind == "exact" else slice(None, -1)
    modes = (data[:, shifted] @ coef.view(float)).view(complex)
    theta = r_x[:, shifted] @ coef  # Q* Theta: every snapshot lies in range(Q)

    if amplitudes_from == "x1":
        b = np.linalg.lstsq(theta, r_x[:, 0], rcond=None)[0]
    else:
        # vandermonde system over the whole training window, projected on range(Q Q_theta)
        q_theta, r_theta = np.linalg.qr(theta)
        rhs = q_theta.conj().T @ r_x
        powers = lam[None, :] ** np.arange(snapshots.l)[:, None]
        lhs = (r_theta[None, :, :] * powers[:, None, :]).reshape(-1, r)
        b = np.linalg.lstsq(lhs, rhs.T.reshape(-1), rcond=None)[0]

    return DMDModel(modes=modes, eigenvalues=lam, amplitudes=b, rank=r,
                    t0=snapshots.t0, dt=snapshots.dt, mode_kind=mode_kind)


def _complex_series(model: DMDModel, steps: np.ndarray) -> np.ndarray:
    powers = model.eigenvalues[:, None] ** np.asarray(steps, dtype=float)[None, :]
    return model.modes @ (powers * model.amplitudes[:, None])


def reconstruct_series(model: DMDModel, k_max: int) -> np.ndarray:
    """Columns 0..k_max of the reconstruction, shape (n, k_max + 1)."""
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    return _complex_series(model, np.arange(k_max + 1)).real


def predict_next(model: DMDModel, x) -> np.ndarray:
    """One application of the implicit operator Theta Lambda Theta^+ to x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    coeff = np.linalg.lstsq(model.modes, x.astype(complex), rcond=None)[0]
    return (model.modes @ (model.eigenvalues * coeff)).real


def predict_at_time(model: DMDModel, t: float) -> np.ndarray:
    """Forecast at absolute time t (continuous eigenvalue power (t - t0)/dt)."""
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    k = (t - model.t0) / model.dt
    if k < 0:
        raise DomainError(f"time {t} precedes the training start {model.t0}")
    return _complex_series(model, np.array([k])).real[:, 0]


def training_error(model: DMDModel, snapshots: SnapshotSet) -> float:
    """Frobenius-norm relative error of the reconstruction over the data window."""
    if snapshots.n != model.modes.shape[0]:
        raise DomainError("snapshot dimension does not match the model")
    recon = reconstruct_series(model, snapshots.l - 1)
    denom = np.linalg.norm(snapshots.data)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(recon - snapshots.data) / denom)


def fixed_point(model: DMDModel) -> np.ndarray:
    """Steady state Re(Theta_k b_k) of the one eigenvalue lambda_k within
    FIXED_POINT_TOL of 1.

    Raises DomainError unless exactly one eigenvalue lies that close to 1 and
    none has |lambda| > 1 + FIXED_POINT_TOL; the message names the rule broken.
    """
    lam = model.eigenvalues
    near = np.flatnonzero(np.abs(lam - 1.0) < FIXED_POINT_TOL)
    if len(near) != 1:
        raise DomainError(f"{len(near)} eigenvalues within {FIXED_POINT_TOL:g} of 1")
    largest = float(np.abs(lam).max())
    if largest > 1.0 + FIXED_POINT_TOL:
        raise DomainError(f"max |λ| {largest:.9g} > 1 + {FIXED_POINT_TOL:g}")
    k = near[0]
    return (model.modes[:, k] * model.amplitudes[k]).real


# --- snapshot and model persistence -------------------------------------

def save_snapshots_csv(snapshots: SnapshotSet, path) -> None:
    """First line holds t0,dt; each following row is one state component over time."""
    write_csv(path, snapshots.data, [FLOAT % snapshots.t0, FLOAT % snapshots.dt])


def load_snapshots_csv(path) -> SnapshotSet:
    header, data = read_csv(path)
    try:
        t0, dt = map(float, header)
    except ValueError:
        raise ConfigError(f"{path}: expected 't0,dt' header line, got {','.join(header)!r}")
    return SnapshotSet(data, t0=t0, dt=dt)


def save_snapshots_bin(snapshots: SnapshotSet, path) -> None:
    """Little-endian: int64 n, int64 l, float64 dt header, then row-major data.

    The header has no t0, so a series is read back starting at t0 = 0, and
    one that starts elsewhere is refused.
    """
    if snapshots.t0 != 0.0:
        raise DomainError(f"binary snapshots start at t0 = 0, got t0 = {snapshots.t0}")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qqd", snapshots.n, snapshots.l, snapshots.dt))
        fh.write(snapshots.data.astype("<f8").tobytes())


def load_snapshots_bin(path) -> SnapshotSet:
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise ConfigError(f"{path}: truncated binary snapshot file")
    n, l, dt = struct.unpack("<qqd", raw[:24])
    expected = 24 + n * l * 8
    if len(raw) != expected:
        raise ConfigError(
            f"{path}: expected {expected} bytes for a {n} x {l} series, got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=24).reshape(n, l)
    return SnapshotSet(data, t0=0.0, dt=dt)


def save_model_json(model: DMDModel, path) -> None:
    doc = {
        "rank": model.rank,
        "t0": model.t0,
        "dt": model.dt,
        "mode_kind": model.mode_kind,
        "modes_real": model.modes.real.tolist(),
        "modes_imag": model.modes.imag.tolist(),
        "eigenvalues_real": model.eigenvalues.real.tolist(),
        "eigenvalues_imag": model.eigenvalues.imag.tolist(),
        "amplitudes_real": model.amplitudes.real.tolist(),
        "amplitudes_imag": model.amplitudes.imag.tolist(),
    }
    write_json(path, doc)


def load_model_json(path) -> DMDModel:
    with read_json(path) as doc:
        modes = np.array(doc["modes_real"]) + 1j * np.array(doc["modes_imag"])
        lam = np.array(doc["eigenvalues_real"]) + 1j * np.array(doc["eigenvalues_imag"])
        b = np.array(doc["amplitudes_real"]) + 1j * np.array(doc["amplitudes_imag"])
        return DMDModel(modes=modes, eigenvalues=lam, amplitudes=b,
                        rank=int(doc["rank"]), t0=float(doc["t0"]),
                        dt=float(doc["dt"]), mode_kind=doc["mode_kind"])

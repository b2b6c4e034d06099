"""Active-subspace discovery and polynomial response surfaces.

The active subspace of a scalar function f over a box-supported uniform
density is spanned by the leading eigenvectors of the uncentered gradient
covariance E[grad f grad f^T], estimated here by the Monte Carlo average
(1/N) sum_i g_i g_i^T.  Inputs are affinely normalized from their bounds to
[-1, 1]^m before any gradient or covariance work, and all reported
quantities (eigenvectors, projections, surfaces) live in that normalized
space.  Tables without bounds are taken to be already normalized.
Every analysis option lives in one frozen AnalysisSettings, checked when
built; check_dimension is the one check of the settings against a table's m.
decompose eigendecomposes the covariance and picks the active dimension M
with choose_active_dimension, so a decomposition is complete when built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import ConfigError, DomainError, _is_real, _require_int
from .textio import read_csv, write_csv

__all__ = [
    "AnalysisSettings", "SampleTable", "ASDecomposition", "ResponseSurface",
    "estimate_gradients", "decompose",
    "choose_active_dimension", "fit_response_surface", "evaluate_surface",
    "replicated_errors", "analyze_table", "plot_data", "surface_to_doc",
    "load_sample_table", "save_sample_table",
]


@dataclass(frozen=True)
class AnalysisSettings:
    """Options of every analysis function, each checked once, here;
    check_dimension checks them against the number of parameters m."""

    degree: int = 4
    split_fraction: float = 0.75
    n_boot: int = 100
    seed: int = 0
    split_seed: int = 0
    rule: str = "largest-gap"
    explicit_dim: int | None = None
    n_replicates: int = 10

    RULES = ("largest-gap", "explicit", "threshold")

    def __post_init__(self):
        _require_int("analysis degree", self.degree, 1, 6)
        for name in ("n_boot", "seed", "split_seed"):
            _require_int(f"analysis {name}", getattr(self, name), 0)
        _require_int("analysis n_replicates", self.n_replicates, 1)
        if self.explicit_dim is not None:
            _require_int("analysis explicit_dim", self.explicit_dim, 1)
        if self.rule not in self.RULES:
            raise ConfigError(f"analysis rule must be one of {', '.join(self.RULES)}, "
                              f"got {self.rule!r}")
        if self.rule == "explicit" and self.explicit_dim is None:
            raise ConfigError("analysis explicit_dim must be set for the explicit rule")
        if not _is_real(self.split_fraction) or not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("analysis split_fraction must lie in (0, 1), "
                              f"got {self.split_fraction!r}")

    def check_dimension(self, m: int) -> None:
        """Raise DomainError unless an active dimension 1 <= M < m can be kept."""
        if m < 2:
            raise DomainError(f"active-subspace analysis needs at least 2 parameters, got {m}")
        if self.rule == "explicit" and self.explicit_dim >= m:
            raise DomainError(f"explicit active dimension must be in [1, {m})")


@dataclass
class SampleTable:
    """Input/output (and optionally gradient) samples of a scalar function.

    inputs is (N, m), outputs (N,), gradients (N, m) rows of df/dmu in the
    raw parameter coordinates.  bounds, when present, is the (m, 2) support
    of the uniform sampling density and drives the [-1, 1] normalization.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    gradients: np.ndarray | None = None
    bounds: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.array(self.inputs, dtype=float)
        if self.inputs.ndim != 2:
            raise DomainError("inputs must be an (N, m) array")
        self.outputs = np.array(self.outputs, dtype=float).reshape(-1)
        if len(self.outputs) != len(self.inputs):
            raise DomainError("outputs length does not match inputs")
        if self.gradients is not None:
            self.gradients = np.array(self.gradients, dtype=float)
            if self.gradients.shape != self.inputs.shape:
                raise DomainError("gradients must have the same shape as inputs")
        if self.bounds is not None:
            self.bounds = np.array(self.bounds, dtype=float).reshape(-1, 2)
            if len(self.bounds) != self.m:
                raise DomainError("bounds must provide one interval per parameter")
        for name in ("inputs", "outputs", "gradients", "bounds"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                row = int(np.argwhere(~np.isfinite(values))[0, 0])
                raise DomainError(f"{name} must be finite, got NaN or inf in row {row} "
                                  f"(counted from 0)")
        if self.bounds is not None:
            if (self.bounds[:, 1] < self.bounds[:, 0]).any():
                raise DomainError("bounds must satisfy lo <= hi")
            tol = 1e-9 * (self.bounds[:, 1] - self.bounds[:, 0]) + 1e-12
            if ((self.inputs < self.bounds[:, 0] - tol)
                    | (self.inputs > self.bounds[:, 1] + tol)).any():
                raise DomainError("inputs fall outside the stated bounds")

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    def _center_half(self):
        if self.bounds is None:
            m = self.m
            return np.zeros(m), np.ones(m)
        center = 0.5 * (self.bounds[:, 0] + self.bounds[:, 1])
        half = 0.5 * (self.bounds[:, 1] - self.bounds[:, 0])
        return center, np.where(half > 0.0, half, 1.0)

    def normalized_inputs(self) -> np.ndarray:
        center, half = self._center_half()
        return (self.inputs - center) / half

    def normalized_gradients(self) -> np.ndarray:
        if self.gradients is None:
            raise DomainError("table has no gradients; run estimate_gradients first")
        _, half = self._center_half()
        return self.gradients * half  # chain rule for mu = center + half * x

    def with_gradients(self, gradients) -> "SampleTable":
        return SampleTable(self.inputs, self.outputs, gradients, self.bounds)


@dataclass(frozen=True)
class ASDecomposition:
    """Eigenpairs of the gradient covariance plus the active dimension."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    active_dim: int
    bootstrap_lo: np.ndarray | None = None
    bootstrap_hi: np.ndarray | None = None

    def active_basis(self) -> np.ndarray:
        return self.eigenvectors[:, :self.active_dim]


# float64 values of the bound buffer of one row block and of its fallback
# scratch (rows x N x 2): 512 KB
_BLOCK_ELEMENTS = 2 ** 16


def estimate_gradients(table: SampleTable, n_neighbors: int | None = None) -> SampleTable:
    """Fill the gradient rows of a sample table by local-linear regression.

    Each point's gradient is the slope of a least-squares hyperplane through
    its k nearest neighbors (k defaults to max(m + 2, ceil(N / 10))), so no
    extra evaluations are needed.  Neighbors are ranked by squared distance
    in the normalized inputs, equal distances by the lower row index, so a
    row's indices are np.argsort(d2, kind="stable")[:k] of its row of the
    distance matrix; _neighbor_blocks finds them without forming that row
    for most rows, and its differences x_j - x_i are the design matrices'
    columns.  The fits of each block of rows are stacked QR
    solves: one QR of the design matrices A = [1, x_j - x_i] with f_j
    appended, then one solve of R c = Q^T f.  A neighborhood is
    rank-deficient by lstsq's rule, smallest singular value at most
    tol = eps * max(k, m + 1) times the largest, and the gradients agree
    with a per-row lstsq to rounding, not bit for bit.

    The rule is checked on the R of A, whose singular values are A's.
    Since ||R||_F ||R^-1||_F bounds the condition number from above, a row
    whose bound, from one stacked inverse, is below 1e-3 / tol cannot meet
    the rule; only the other rows (and a block whose inverse fails) have
    their singular values computed.
    """
    x = table.normalized_inputs()
    n, m = x.shape
    if n < m + 1:
        raise DomainError(f"local-linear gradients need at least m + 1 = {m + 1} samples")
    k = n_neighbors if n_neighbors is not None else max(m + 2, int(np.ceil(n / 10)))
    k = min(max(k, m + 1), n)
    f = table.outputs
    grads = np.empty((n, m))
    tol = np.finfo(float).eps * max(k, m + 1)
    for start, nbr, near in _neighbor_blocks(x, k):
        stop = start + len(nbr)
        # the R factor of [A | f] holds the R of A and, in its last column, Q^T f
        a = np.empty((len(nbr), k, m + 2))
        a[:, :, 0] = 1.0
        a[:, :, 1:-1] = near
        a[:, :, -1] = f[nbr]
        r = np.linalg.qr(a, mode="r")[:, :m + 1]
        deficient = _rank_deficient(r[:, :, :-1], tol)
        if deficient.any():
            raise DomainError(
                f"rank-deficient neighborhood around sample {start + deficient.argmax()}; "
                f"increase the sample count or neighbor count"
            )
        grads[start:stop] = np.linalg.solve(r[:, :, :-1], r[:, :, -1:])[:, 1:, 0]
    grads /= table._center_half()[1]  # back to raw coordinates
    return table.with_gradients(grads)


def _rank_deficient(r: np.ndarray, tol: float) -> np.ndarray:
    """Flags of the stacked square R factors whose singular values s meet
    s_min <= tol * s_max.

    Rows certified by ||R||_F ||R^-1||_F < 1e-3 / tol skip the SVD: the
    bound is at least s_max / s_min, and its 1e-3 margin covers the
    rounding of the inverse and of the singular values.  Measured on a
    2-vCPU VM (timeit minimum, 2,000 x 8 table): 5.3 ms against 16.8 ms
    for an SVD of every R, per estimate_gradients call.
    """
    try:
        inv = np.linalg.inv(r)
    except np.linalg.LinAlgError:  # an exactly singular R: check every row
        uncertified = np.ones(len(r), dtype=bool)
    else:
        bound_sq = np.einsum("rij,rij->r", r, r) * np.einsum("rij,rij->r", inv, inv)
        uncertified = ~(bound_sq < (1e-3 / tol) ** 2)  # a NaN bound stays uncertified
    deficient = np.zeros(len(r), dtype=bool)
    if uncertified.any():
        s = np.linalg.svd(r[uncertified], compute_uv=False)
        deficient[uncertified] = s[:, -1] <= tol * s[:, 0]
    return deficient


def _neighbor_blocks(x: np.ndarray, k: int):
    """Yield (first row, neighbours, x[nbr] - x[rows]) for blocks of rows of x.

    A row's k neighbours are np.argsort(d2, kind="stable")[:k] of its exact
    squared distances d2, summed one parameter column at a time, left to
    right (j = 0 ... m - 1), from the squared differences: a duplicate row
    is at distance exactly 0, as the stable tie order needs.  The neighbours
    are found without sorting whole rows:

    1. Bound.  b_ij = [x_i, n_i, 1] . [-2 x_j, 1, n_j] with n = sum x^2, one
       matrix product per block, approximates d2_ij.
    2. Candidates.  One argpartition of b at place k; the first k columns
       are the candidates, and every other column's bound is at least the
       bound at place k, called outside.
    3. Exact check.  The candidates' exact d2, summed as above, so they
       equal the full row's values bit for bit.
    4. Order.  One argsort of the candidates' exact values.
    5. Fallback.  A row whose sorted candidates hold two equal values, or
       whose outside is not above its k-th exact value plus a margin, takes
       the stable argsort of its full exact row.  Otherwise every other
       column is strictly farther than the k-th neighbour, so the sorted
       candidates are the stable prefix.
    With k = N every column is a candidate and no bound is needed.

    The margin, with p = m + 2, u the unit roundoff and gamma_p = p u /
    (1 - p u), n the exact and n' the computed squared norms: in any
    summation order a computed inner product of length p is within
    gamma_p |a|.|b| of the exact one, so b_ij is within gamma_p
    (2 |x_i| |x_j| + n'_i + n'_j) <= gamma_p (2 + gamma_m) (n_i + n_j) of
    n'_i + n'_j - 2 x_i.x_j, which is within gamma_m (n_i + n_j) of the
    exact d2_ij.  The left-to-right d2_ij is within gamma_p d2_ij <=
    2 gamma_p (n_i + n_j) of it.  So b_ij and the computed d2_ij differ by
    less than about 5 gamma_p (n_i + n_j) < 6 p u (n'_i + max_j n'_j).  The
    margin is 8 p (u (n'_i + max_j n'_j) + eta), eta the smallest
    subnormal: the spare factor covers the rounding of the margin and of
    the test, and eta the absolute error of a product that underflows.
    Every partial sum of a bound is below about 2 (n_i + n_j), so no bound
    overflows while 8 max_j n'_j is finite; otherwise every row falls back.

    The bound and the candidates' differences and distances live in buffers
    allocated once per call, with rows * N * 2 <= _BLOCK_ELEMENTS, so memory
    stays O(rows N + rows k m); each block's neighbours and differences are
    new arrays.  Measured on a 2-vCPU VM (timeit minimum, 2,000 x 8 table,
    k = 200): 54 ms against 89 ms for exact full rows with an argpartition
    at place k, and 336 ms for a stable argsort of every full row.
    """
    n, m = x.shape
    norms = np.einsum("ij,ij->i", x, x)
    lhs = np.column_stack([x, norms, np.ones(n)])
    rhs = np.vstack([-2.0 * x.T, np.ones(n), norms])
    info = np.finfo(float)
    margin = 8.0 * (m + 2) * (info.eps / 2 * (norms + norms.max()) + info.smallest_subnormal)
    if norms.max() > info.max / 8:  # a bound may overflow
        margin[:] = np.inf
    rows = min(max(1, _BLOCK_ELEMENTS // (2 * n)), n)
    bound, sq = np.empty((2, rows, n))
    diff = np.empty((rows, k, m))
    d2, col = np.empty((2, rows, k))
    row_n = np.arange(0, rows * n, n)  # flat offsets of the rows of bound
    row_k = np.arange(0, rows * k, k)[:, None]  # and of the rows of d2
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        count = stop - start
        if k < n:
            np.matmul(lhs[start:stop], rhs, out=bound[:count])
            part = np.argpartition(bound[:count], k, axis=1)
            cand = part[:, :k]
            outside = np.take(bound[:count], part[:, k] + row_n[:count])
        else:
            cand = np.broadcast_to(np.arange(n), (count, n))
            outside = np.inf
        np.take(x, cand, axis=0, out=diff[:count])
        np.subtract(diff[:count], x[start:stop, None, :], out=diff[:count])
        np.square(diff[:count, :, 0], out=d2[:count])
        for j in range(1, m):
            d2[:count] += np.square(diff[:count, :, j], out=col[:count])
        order = np.argsort(d2[:count], axis=1)
        nbr = np.take_along_axis(cand, order, axis=1)
        order += row_k[:count]
        ds = np.take(d2[:count], order)
        near = np.take(diff[:count].reshape(-1, m), order, axis=0)
        redo = ((ds[:, 1:] == ds[:, :-1]).any(axis=1)
                | ~(outside > ds[:, -1] + margin[start:stop]))
        if redo.any():
            ids = start + np.flatnonzero(redo)
            full, sq_ids = bound[:len(ids)], sq[:len(ids)]
            for j in range(m):
                term = sq_ids if j else full
                np.subtract(x[:, j], x[ids, j, None], out=term)
                np.square(term, out=term)
                if j:
                    full += sq_ids
            nbr[redo] = np.argsort(full, axis=1, kind="stable")[:, :k]
            near[redo] = x[nbr[redo]] - x[ids, None, :]
        yield start, nbr, near


def _covariance(rows: np.ndarray) -> np.ndarray:
    """Monte Carlo estimate (1/N) sum g_i g_i^T of the uncentered covariance."""
    return rows.T @ rows / len(rows)


def _sorted_eig(cov: np.ndarray):
    """Eigenpairs of one symmetric matrix or of a (..., m, m) stack of them.

    Eigenvalues descend (equal values in the reverse of eigh's order, as a
    stable descending sort gives) and are floored at 0; a significantly
    negative one raises.  Each
    eigenvector's largest-magnitude component, the first one on a tie, is
    positive.
    """
    lam, vec = np.linalg.eigh(cov)
    lam, vec = lam[..., ::-1], vec[..., ::-1]  # eigh ascends, so this is the stable sort
    trace = np.maximum(lam.sum(axis=-1), 0.0)
    if (lam.min(axis=-1) < -1e-10 * np.maximum(trace, 1.0)).any():
        raise DomainError("covariance has a significantly negative eigenvalue")
    lam = np.maximum(lam, 0.0)
    top = np.take_along_axis(vec, np.abs(vec).argmax(axis=-2)[..., None, :], axis=-2)
    return lam, np.where(top < 0.0, -vec, vec)


def decompose(table: SampleTable,
              settings: AnalysisSettings = AnalysisSettings()) -> ASDecomposition:
    """Eigendecompose the gradient covariance, pick M, add bootstrap intervals.

    The covariance is estimated from the table's gradients and M is chosen
    by choose_active_dimension.  5%/95% percentile intervals are computed by
    resampling gradient rows with replacement settings.n_boot times.  Each
    resample's randomness derives from (settings.seed, resample index), so
    results do not depend on execution order.  The resampled covariances are
    formed one at a time and eigendecomposed as one stack, so memory stays
    O(N m + n_boot m^2).
    """
    g = table.normalized_gradients()
    lam, vec = _sorted_eig(_covariance(g))
    active_dim = choose_active_dimension(lam, settings)
    lo = hi = None
    if settings.n_boot > 0:
        n = len(g)
        covs = np.empty((settings.n_boot, len(lam), len(lam)))
        for b in range(settings.n_boot):
            rng = np.random.default_rng(np.random.SeedSequence([settings.seed, b]))
            covs[b] = _covariance(g[rng.integers(0, n, n)])
        boot = _sorted_eig(covs)[0]
        lo = np.percentile(boot, 5.0, axis=0)
        hi = np.percentile(boot, 95.0, axis=0)
    return ASDecomposition(lam, vec, active_dim, lo, hi)


_THRESHOLD_RATIO = 1e-2


def choose_active_dimension(eigenvalues: np.ndarray, settings: AnalysisSettings) -> int:
    """Pick the active dimension M of descending eigenvalues by settings.rule.

    largest-gap maximizes log(lam_i) - log(lam_{i+1}) (eigenvalues floored at
    1e-16); explicit returns settings.explicit_dim; threshold keeps every
    eigenvalue at least 1e-2 * lam_1.  settings.check_dimension(m) runs
    first, so the result is always 1 <= M < m.
    """
    m = len(eigenvalues)
    settings.check_dimension(m)
    if settings.rule == "explicit":
        return int(settings.explicit_dim)
    lam = np.maximum(eigenvalues, 1e-16)
    if settings.rule == "largest-gap":
        return int(np.argmax(np.log(lam[:-1]) - np.log(lam[1:])) + 1)
    keep = int((lam >= _THRESHOLD_RATIO * lam[0]).sum())
    return min(max(keep, 1), m - 1)


# --- polynomial response surface ----------------------------------------

def _monomial_exponents(n_vars: int, degree: int):
    expos = [(0,) * n_vars]
    for total in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_vars), total):
            e = [0] * n_vars
            for i in combo:
                e[i] += 1
            expos.append(tuple(e))
    return expos


def _monomial_matrix(y: np.ndarray, exponents) -> np.ndarray:
    cols = [np.prod(y ** np.asarray(e, dtype=float), axis=1) for e in exponents]
    return np.column_stack(cols)


@dataclass
class ResponseSurface:
    """Total-degree polynomial in the active variables, fitted least squares."""

    degree: int
    active_dim: int
    coefficients: np.ndarray
    center: np.ndarray
    halfwidth: np.ndarray
    exponents: list = field(default_factory=list)

    def __post_init__(self):
        if not self.exponents:
            self.exponents = _monomial_exponents(self.active_dim, self.degree)
        expected = comb(self.active_dim + self.degree, self.degree)
        if len(self.coefficients) != expected:
            raise ConfigError(
                f"coefficient count {len(self.coefficients)} does not match the "
                f"{expected} total-degree-{self.degree} monomials in "
                f"{self.active_dim} variables"
            )


def evaluate_surface(surface: ResponseSurface, active) -> np.ndarray | float:
    """Evaluate the surface at one active vector or a stack of them."""
    y = np.asarray(active, dtype=float)
    single = y.ndim <= 1
    if y.ndim == 0:
        y = y.reshape(1, 1)
    elif y.ndim == 1:
        y = y.reshape(1, -1)
    if y.shape[1] != surface.active_dim:
        raise DomainError(f"expected {surface.active_dim} active variables, "
                          f"got {y.shape[1]}")
    z = (y - surface.center) / surface.halfwidth
    vals = _monomial_matrix(z, surface.exponents) @ surface.coefficients
    return float(vals[0]) if single else vals


def _split_indices(n: int, train_fraction: float, seed: int):
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def _fit_surface(actives: np.ndarray, outputs: np.ndarray, degree: int):
    """Least-squares fit on actives scaled by their own range; (surface, condition)."""
    lo, hi = actives.min(axis=0), actives.max(axis=0)
    center = 0.5 * (lo + hi)
    halfwidth = 0.5 * (hi - lo)
    halfwidth = np.where(halfwidth > 0.0, halfwidth, 1.0)
    exponents = _monomial_exponents(actives.shape[1], degree)
    a = _monomial_matrix((actives - center) / halfwidth, exponents)
    coef, _, _, sv = np.linalg.lstsq(a, outputs, rcond=None)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
    return ResponseSurface(degree=degree, active_dim=actives.shape[1], coefficients=coef,
                           center=center, halfwidth=halfwidth, exponents=exponents), condition


def _rmse(surface: ResponseSurface, actives: np.ndarray, outputs: np.ndarray) -> float:
    return float(np.sqrt(np.mean((evaluate_surface(surface, actives) - outputs) ** 2)))


def _normalized_error(rmse: float, outputs: np.ndarray) -> float:
    """RMSE over the output range; a constant output scores 0 if fitted exactly."""
    out_range = float(outputs.max() - outputs.min())
    if out_range > 0.0:
        return rmse / out_range
    return 0.0 if rmse <= 1e-12 * max(1.0, np.abs(outputs).max()) else np.inf


def _fit_and_score(train_actives, test_actives, f, train, test, degree: int):
    """(surface, condition, test RMSE, normalized test error) of a fit on the
    training actives; callers project their own rows (BLAS rounding varies)."""
    surface, condition = _fit_surface(train_actives, f[train], degree)
    rmse_test = _rmse(surface, test_actives, f[test])
    return surface, condition, rmse_test, _normalized_error(rmse_test, f)


def fit_response_surface(decomp: ASDecomposition, table: SampleTable,
                         settings: AnalysisSettings):
    """Least-squares polynomial fit in the active variables on a random split.

    The table is split train/test by settings.split_fraction and split_seed,
    and the surface is fitted on the training rows only.  The report's
    normalized test error is the test RMSE divided by the max-min range of
    the outputs over the whole dataset.  Returns (surface, report dict).
    """
    degree = settings.degree
    w1 = decomp.active_basis()
    m_active = w1.shape[1]
    n_coef = comb(m_active + degree, degree)
    if table.n < 2 * n_coef:
        raise DomainError(
            f"need at least {2 * n_coef} samples for a degree-{degree} surface in "
            f"{m_active} active variables, got {table.n}"
        )
    actives = table.normalized_inputs() @ w1
    f = table.outputs
    train, test = _split_indices(table.n, settings.split_fraction, settings.split_seed)
    surface, condition, rmse_test, error = _fit_and_score(
        actives[train], actives[test], f, train, test, degree)
    if condition > 1e10:
        warnings.warn(f"ill-conditioned surface fit (condition ~ {condition:.2e})",
                      stacklevel=2)
    report = {
        "n_train": int(len(train)),
        "n_test": int(len(test)),
        "rmse_train": _rmse(surface, actives[train], f[train]),
        "rmse_test": rmse_test,
        "output_range": float(f.max() - f.min()),
        "normalized_test_error": error,
        "condition": condition,
        "degree": degree,
        "active_dim": m_active,
    }
    return surface, report


def replicated_errors(table: SampleTable, settings: AnalysisSettings) -> list:
    """Normalized test errors over settings.n_replicates independent splits.

    Each replicate re-splits the data, re-estimates the eigenpairs from the
    training rows' gradients only, refits the surface and scores the test
    rows, so the average reflects both eigenvector and surface variability.
    The replicates' covariances are eigendecomposed as one stack.
    """
    x, f, g = table.normalized_inputs(), table.outputs, table.normalized_gradients()
    seeds = (np.random.SeedSequence([settings.seed, rep]).generate_state(1)[0]
             for rep in range(settings.n_replicates))
    splits = [_split_indices(table.n, settings.split_fraction, int(seed)) for seed in seeds]
    # each covariance of one gathered buffer of rows, as decompose forms it
    lams, vecs = _sorted_eig(np.stack([_covariance(g[train]) for train, _ in splits]))
    errors = []
    for (train, test), lam, vec in zip(splits, lams, vecs):
        w1 = vec[:, :choose_active_dimension(lam, settings)]
        # project each row subset on its own: BLAS rounding depends on row
        # position, and this keeps earlier replicate errors bit-identical
        errors.append(_fit_and_score(x[train] @ w1, x[test] @ w1, f, train, test,
                                     settings.degree)[3])
    return errors


def surface_to_doc(surface: ResponseSurface) -> dict:
    return {
        "degree": surface.degree,
        "active_dim": surface.active_dim,
        "coefficients": surface.coefficients.tolist(),
        "center": surface.center.tolist(),
        "halfwidth": surface.halfwidth.tolist(),
        "exponents": [list(e) for e in surface.exponents],
    }


def analyze_table(table: SampleTable, settings: AnalysisSettings = AnalysisSettings()):
    """Full single-output analysis: gradients, eigenpairs, surface, errors.

    Gradients are estimated by local-linear regression when the table has
    none, after the settings are checked against the table's m.  Returns
    (report dict, decomposition, surface or None); the report flags the
    spectrum structure: "none" for a flat zero spectrum, "weak" for a gap
    ratio below 10, "strong" otherwise.
    """
    settings.check_dimension(table.m)
    if table.gradients is None:
        table = estimate_gradients(table)
    decomp = decompose(table, settings)
    lam = decomp.eigenvalues
    out_range = float(table.outputs.max() - table.outputs.min())
    if out_range == 0.0 or lam[0] <= (1e-10 * max(out_range, 1e-300)) ** 2:
        structure, gap_ratio = "none", 1.0
    else:
        gap_ratio = float(max(lam[decomp.active_dim - 1], 1e-16)
                          / max(lam[decomp.active_dim], 1e-16))
        structure = "weak" if gap_ratio < 10.0 else "strong"
    has_boot = decomp.bootstrap_lo is not None
    report = {
        "eigenvalues": lam.tolist(),
        "bootstrap_lo": decomp.bootstrap_lo.tolist() if has_boot else None,
        "bootstrap_hi": decomp.bootstrap_hi.tolist() if has_boot else None,
        "eigenvectors": decomp.eigenvectors.tolist(),
        "active_dim": int(decomp.active_dim),
        "gap_ratio": gap_ratio,
        "structure": structure,
    }
    surface = None
    if structure != "none":
        surface, fit_report = fit_response_surface(decomp, table, settings)
        errors = replicated_errors(table, settings)
        report["surface"] = fit_report
        report["replicate_errors"] = errors
        report["mean_normalized_error"] = float(np.mean(errors))
    return report, decomp, surface


def plot_data(table: SampleTable, decomp: ASDecomposition) -> dict:
    """Rows of the eigenvalue, bootstrap and sufficient-summary plot CSVs.

    Returns {file name: (header, rows)}.  Bootstrap rows need intervals and
    two-variable summary rows need at least two parameters.
    """
    lam, w = decomp.eigenvalues, decomp.eigenvectors
    x, f = table.normalized_inputs(), table.outputs
    a1 = x @ w[:, 0]
    boot = [] if decomp.bootstrap_lo is None else list(
        zip(range(len(lam)), decomp.bootstrap_lo, decomp.bootstrap_hi))
    return {
        "eigenvalues.csv": (["index", "eigenvalue"], list(enumerate(lam))),
        "bootstrap.csv": (["index", "lo", "hi"], boot),
        "summary_1d.csv": (["active_1", "f"], list(zip(a1, f))),
        "summary_2d.csv": (["active_1", "active_2", "f"],
                           list(zip(a1, x @ w[:, 1], f)) if table.m >= 2 else []),
    }


# --- CSV persistence -----------------------------------------------------

def save_sample_table(table: SampleTable, path) -> None:
    """Columns mu_1..mu_m, f and, when present, g_1..g_m."""
    header = [f"mu_{j + 1}" for j in range(table.m)] + ["f"]
    columns = [table.inputs, table.outputs]
    if table.gradients is not None:
        header += [f"g_{j + 1}" for j in range(table.m)]
        columns.append(table.gradients)
    write_csv(path, np.column_stack(columns), header)


def load_sample_table(path, bounds=None) -> SampleTable:
    header, data = read_csv(path)
    mu_cols = [i for i, h in enumerate(header) if h.startswith("mu_")]
    g_cols = [i for i, h in enumerate(header) if h.startswith("g_")]
    if "f" not in header or not mu_cols or not len(data) or data.shape[1] != len(header):
        raise ConfigError(f"{path}: expected header mu_1..mu_m,f and data rows as wide")
    inputs, outputs, gradients = (np.ascontiguousarray(data[:, cols])  # layout sets rounding
                                  for cols in (mu_cols, header.index("f"), g_cols))
    return SampleTable(inputs, outputs, gradients if g_cols else None, bounds)

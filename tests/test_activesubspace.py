import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import morphreduce.activesubspace as asub
from morphreduce.activesubspace import (_covariance, _distance_blocks, _nearest,
                                        _neighbor_blocks, _sorted_eig, AnalysisSettings,
                                        ASDecomposition, SampleTable, analyze_table,
                                        choose_active_dimension, decompose, estimate_gradients,
                                        evaluate_surface, fit_response_surface,
                                        load_sample_table, replicated_errors,
                                        ResponseSurface, save_sample_table,
                                        surface_to_doc)
from morphreduce.errors import DomainError


NO_BOOT = AnalysisSettings(n_boot=0)


def explicit_dim(m_active):
    """Settings that keep m_active eigenvectors and skip the bootstrap."""
    return AnalysisSettings(n_boot=0, rule="explicit", explicit_dim=m_active)


def box_bounds(m, half=1.0):
    return np.tile([-half, half], (m, 1))


def ridge_table(n=300, m=5, seed=0, bounds_half=1.0, exact=True):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(m)
    c /= np.linalg.norm(c)
    x = rng.uniform(-bounds_half, bounds_half, (n, m))
    f = (x @ c) ** 2 + 0.5 * (x @ c)
    g = (2.0 * (x @ c) + 0.5)[:, None] * c if exact else None
    return SampleTable(x, f, g, bounds=box_bounds(m, bounds_half)), c


def exp_ridge_table():
    """exp(0.8 c.x) plus noise on [-1, 1]^4, with the noise-free gradients."""
    rng = np.random.default_rng(28)
    m, n = 4, 160
    c = rng.standard_normal(m)
    c /= np.linalg.norm(c)
    x = rng.uniform(-1, 1, (n, m))
    f = np.exp(0.8 * (x @ c)) + 0.05 * rng.standard_normal(n)
    return SampleTable(x, f, (0.8 * np.exp(0.8 * (x @ c)))[:, None] * c,
                       bounds=box_bounds(m))


class TestGradientEstimation:
    def test_local_linear_exact_on_affine(self):
        rng = np.random.default_rng(1)
        m = 4
        c = np.array([2.0, -1.0, 0.5, 3.0])
        x = rng.uniform(-1, 1, (60, m))
        table = SampleTable(x, x @ c + 7.0, bounds=box_bounds(m))
        out = estimate_gradients(table)
        np.testing.assert_allclose(out.gradients, np.tile(c, (60, 1)), atol=1e-8)

    def test_constant_function_zero_gradients(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (40, 3))
        out = estimate_gradients(SampleTable(x, np.full(40, 3.25), bounds=box_bounds(3)))
        assert np.abs(out.gradients).max() < 1e-10

    def test_gradients_rescaled_from_bounds(self):
        # df/dmu is reported in raw coordinates regardless of the bounds
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.3, 0.3, (80, 2))
        c = np.array([1.5, -2.0])
        table = SampleTable(x, x @ c, bounds=box_bounds(2, 0.3))
        out = estimate_gradients(table)
        np.testing.assert_allclose(out.gradients, np.tile(c, (80, 1)), atol=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            estimate_gradients(SampleTable(np.zeros((2, 4)), np.zeros(2)))

    def test_row_distances_match_full_matrix_bitwise(self):
        # duplicated rows tie in the stable argsort, so the neighbour order is tested too
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.5, 0.5, (40, 3))
        x = np.vstack([x, x[:15], x[:5]])
        table = SampleTable(x, np.sin(x @ [1.0, -2.0, 0.5]) + x[:, 0] ** 2,
                            bounds=box_bounds(3, 0.5))
        nbrs, ref, deficient = full_sort_reference(table, 12)
        assert deficient is None
        assert np.array_equal(block_neighbors(table, 12)[0], nbrs)
        assert_gradients_match(estimate_gradients(table, n_neighbors=12).gradients, ref)

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 300])
    @pytest.mark.parametrize("layout", ["uniform", "quarter-grid"])
    def test_block_distances_equal_full_matrix_bitwise(self, monkeypatch, m, layout):
        # m covers each branch of numpy's pairwise sum: a plain sequence below
        # 8 terms, eight lanes with and without leftovers up to 128, halves above
        monkeypatch.setattr(asub, "_BLOCK_ELEMENTS", 60 * 20)  # 20 // buffers rows
        rng = np.random.default_rng([9, m, len(layout)])
        if layout == "quarter-grid":
            x = rng.integers(-4, 5, (60, m)) / 4.0
        else:
            x = rng.uniform(-1.0, 1.0, (60, m))
        blocks = [(start, d2.copy()) for start, d2 in _distance_blocks(x)]
        assert len(blocks) >= 3 and [start for start, _ in blocks] == list(
            np.cumsum([0] + [len(d2) for _, d2 in blocks[:-1]]))
        full = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.vstack([d2 for _, d2 in blocks]), full)

    def test_memory_is_not_quadratic_in_samples(self):
        assert gradient_peak_bytes(1500, 8, seed=5) < 8e6  # one 1500^2 matrix takes 18 MB

    def test_memory_stays_linear_at_3000_samples(self):
        assert gradient_peak_bytes(3000, 8, seed=6) < 8e6  # one 3000^2 matrix takes 72 MB

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("layout", ["uniform", "duplicated", "quarter-grid"])
    @pytest.mark.parametrize("k_rule", ["m+1", "default", "N"])
    def test_selection_matches_full_sort_reference(self, m, layout, k_rule):
        # duplicated rows and grid inputs make distances tie across the k-th place
        rng = np.random.default_rng([7, m, len(layout), len(k_rule)])
        n = {1: 700, 3: 400, 8: 300}[m]
        if layout == "quarter-grid":
            x = rng.integers(-4, 5, (n, m)) / 8.0  # quarter steps once normalized
        else:
            x = rng.uniform(-0.5, 0.5, (n, m))
        if layout == "duplicated":
            x = np.vstack([x, x[n // 2:n // 2 + n // 5]])
            n = len(x)
        f = np.sin(x @ rng.standard_normal(m)) + x[:, 0] ** 2
        table = SampleTable(x, f, bounds=box_bounds(m, 0.5))
        k = {"m+1": m + 1, "default": max(m + 2, int(np.ceil(n / 10))), "N": n}[k_rule]
        nbrs, ref, deficient = full_sort_reference(table, k)
        got, n_blocks = block_neighbors(table, k)
        assert n_blocks >= 3  # the distances span at least three row blocks
        assert np.array_equal(got, nbrs)
        if layout != "uniform" and k < n:
            xn = table.normalized_inputs()
            d2 = np.sort(((xn[:, None, :] - xn[None, :, :]) ** 2).sum(axis=2), axis=1)
            assert (d2[:, k - 1] == d2[:, k]).any()  # some cut is ambiguous
        if deficient is not None:
            with pytest.raises(DomainError, match=f"around sample {deficient};"):
                estimate_gradients(table, n_neighbors=k)
        else:
            assert_gradients_match(estimate_gradients(table, n_neighbors=k).gradients, ref)

    @pytest.mark.parametrize("spread", [3e-15, 1e-13])
    def test_rank_rule_is_lstsq_rule(self, spread):
        # the design's singular-value ratio falls between eps and eps * k at
        # spread 3e-15, so only lstsq's eps * max(k, m + 1) cutoff flags it
        x = np.linspace(-1.0, 1.0, 40)[:, None] * spread
        table = SampleTable(x, np.arange(40.0))
        a = np.column_stack([np.ones(40), x[:, 0] - x[0, 0]])
        ratio = np.divide(*np.linalg.svd(a, compute_uv=False)[::-1])
        _, ref, deficient = full_sort_reference(table, 40)
        assert (deficient == 0) == (ratio <= np.finfo(float).eps * 40)
        if deficient is not None:
            assert ratio > np.finfo(float).eps
            with pytest.raises(DomainError, match="around sample 0;"):
                estimate_gradients(table, n_neighbors=40)
        else:
            assert_gradients_match(estimate_gradients(table, n_neighbors=40).gradients, ref)

    @pytest.mark.parametrize("k", [1, 2, 7, 29, 30])
    def test_nearest_is_stable_argsort_prefix(self, k):
        rng = np.random.default_rng(8)
        d2 = rng.integers(0, 4, (60, 30)).astype(float)  # many ties per row
        d2[:5] = 1.0  # rows of one value
        d2[5, :] = np.inf
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest(d2, k), expected)

    def test_nearest_is_stable_argsort_prefix_for_every_k(self):
        # per k: rows tied only at places k and k + 1, rows tied only inside
        # the first k places, random integer rows and rows with inf entries
        rng = np.random.default_rng(10)
        n = 24
        for k in range(1, n + 1):
            distinct = np.sort(rng.permutation(n) + rng.uniform(0.0, 0.5, (12, n)), axis=1)
            at_cut, inside = distinct[:6], distinct[6:]
            if k < n:
                at_cut[:, k] = at_cut[:, k - 1]
            if k > 1:
                tie = rng.integers(0, k - 1, len(inside))
                inside[np.arange(len(inside)), tie + 1] = inside[np.arange(len(inside)), tie]
            ties = np.vstack([at_cut, inside])
            ties = np.take_along_axis(ties, rng.permuted(np.tile(np.arange(n), (12, 1)),
                                                          axis=1), axis=1)
            integer = rng.integers(0, 5, (12, n)).astype(float)
            infinite = rng.integers(0, 5, (4, n)).astype(float)
            infinite[0] = np.inf
            infinite[1:, ::3] = np.inf
            for d2 in (ties, integer, infinite):
                expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
                assert np.array_equal(_nearest(d2, k), expected), k

    def test_well_conditioned_table_needs_no_svd(self, monkeypatch):
        table = ridge_table(n=2000, m=8, seed=11, exact=False)[0]
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        estimate_gradients(table)
        assert calls == []

    def test_gradients_equal_qr_solve_reference_bitwise(self, monkeypatch):
        monkeypatch.setattr(asub, "_BLOCK_ELEMENTS", 300 * 40)  # several row blocks
        table, _ = ridge_table(n=300, m=5, seed=12, bounds_half=0.5, exact=False)
        k = 30
        nbrs, _, deficient = full_sort_reference(table, k)
        assert deficient is None
        xn, f = table.normalized_inputs(), table.outputs
        ref = np.empty_like(xn)
        for i, nbr in enumerate(nbrs):
            a = np.column_stack([np.ones(k), xn[nbr] - xn[i], f[nbr]])
            r = np.linalg.qr(a, mode="r")[:table.m + 1]
            ref[i] = np.linalg.solve(r[:, :-1], r[:, -1:])[1:, 0]
        ref /= table._center_half()[1]
        got = estimate_gradients(table, n_neighbors=k).gradients
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_identical_rows_raise_at_reference_sample(self, monkeypatch):
        # the first 30 rows coincide, so the first R factors are exactly
        # singular and the stacked inverse fails for their block
        rng = np.random.default_rng(13)
        x = np.vstack([np.tile([0.25, -0.5], (30, 1)), rng.uniform(-1.0, 1.0, (30, 2))])
        table = SampleTable(x, x[:, 0] ** 2 + x[:, 1])
        failed = []
        inv = np.linalg.inv

        def recording_inv(a):
            try:
                return inv(a)
            except np.linalg.LinAlgError:
                failed.append(len(a))
                raise
        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        _, _, deficient = full_sort_reference(table, 6)
        assert deficient is not None
        with pytest.raises(DomainError, match=f"around sample {deficient};"):
            estimate_gradients(table)
        assert failed


def full_sort_reference(table, k):
    """Neighbours by a stable argsort of the full N x N distance matrix and
    per-row lstsq gradients; (neighbours, gradients, first rank-deficient row)."""
    xn = table.normalized_inputs()
    d2 = ((xn[:, None, :] - xn[None, :, :]) ** 2).sum(axis=2)
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    ref = np.empty_like(xn)
    for i, nbr in enumerate(nbrs):
        a = np.column_stack([np.ones(k), xn[nbr] - xn[i]])
        coef, _, rank, _ = np.linalg.lstsq(a, table.outputs[nbr], rcond=None)
        if rank < table.m + 1:
            return nbrs, None, i
        ref[i] = coef[1:] / table._center_half()[1]
    return nbrs, ref, None


def block_neighbors(table, k):
    """The neighbour indices estimate_gradients fits, and the number of row blocks."""
    blocks = list(_neighbor_blocks(table.normalized_inputs(), k))
    assert [start for start, _ in blocks] == list(
        np.cumsum([0] + [len(nbr) for _, nbr in blocks[:-1]]))
    return np.concatenate([nbr for _, nbr in blocks]), len(blocks)


def assert_gradients_match(got, ref):
    # a stacked QR solve rounds differently from lstsq's SVD, by about cond * eps
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def gradient_peak_bytes(n, m, seed):
    """tracemalloc peak of local-linear gradients on an (n, m) uniform table."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, m))
    table = SampleTable(x, x @ rng.standard_normal(m), bounds=box_bounds(m))
    tracemalloc.start()
    try:
        estimate_gradients(table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampleTable:
    @pytest.mark.parametrize("name", ["inputs", "outputs", "gradients", "bounds"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_domain_errors(self, name, bad):
        parts = {"inputs": np.zeros((4, 2)), "outputs": np.zeros(4),
                 "gradients": np.zeros((4, 2)), "bounds": box_bounds(2)}
        parts[name].reshape(len(parts[name]), -1)[1, -1] = bad
        with pytest.raises(DomainError, match=f"^{name} must be finite, got NaN or inf "
                                              r"in row 1 \(counted from 0\)$"):
            SampleTable(**parts)


def covariance(table):
    """The covariance estimate that decompose forms from a table's gradients."""
    return _covariance(table.normalized_gradients())


class TestCovariance:
    def test_constant_gradient_outer_product(self):
        c = np.array([1.0, -2.0, 0.5])
        table = SampleTable(np.zeros((7, 3)), np.zeros(7), np.tile(c, (7, 1)))
        np.testing.assert_array_equal(covariance(table), np.outer(c, c))

    def test_alternating_unit_gradients(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        table = SampleTable(np.zeros((4, 2)), np.zeros(4), g)
        np.testing.assert_array_equal(covariance(table),
                                      np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_hand_summed_outer_products(self):
        g = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
        table = SampleTable(np.zeros((3, 2)), np.zeros(3), g)
        expected = np.array([[10.0, -1.0], [-1.0, 6.0]]) / 3.0
        np.testing.assert_allclose(covariance(table), expected, atol=1e-15)

    def test_trace_equals_mean_squared_gradient_norm(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((50, 6))
        table = SampleTable(np.zeros((50, 6)), np.zeros(50), g)
        trace = np.trace(covariance(table))
        assert abs(trace - np.mean(np.sum(g ** 2, axis=1))) < 1e-12 * max(trace, 1.0)

    def test_psd(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((30, 4))
        cov = covariance(SampleTable(np.zeros((30, 4)), np.zeros(30), g))
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)


class TestDecompose:
    def test_diagonal_covariance(self):
        lam, vec = _sorted_eig(np.diag([4.0, 1.0]))
        np.testing.assert_array_equal(lam, [4.0, 1.0])
        np.testing.assert_array_equal(vec, np.eye(2))

    def test_rank_one_eigenstructure(self):
        c = np.array([0.6, 0.8])
        lam, vec = _sorted_eig(np.outer(c, c))
        assert abs(lam[0] - 1.0) < 1e-14
        assert abs(lam[1]) < 1e-14
        np.testing.assert_allclose(vec[:, 0], [0.6, 0.8], atol=1e-14)

    def test_sign_convention(self):
        c = np.array([-0.6, 0.8])  # largest-magnitude component positive
        lam, vec = _sorted_eig(np.outer(c, c))
        np.testing.assert_allclose(vec[:, 0], [-0.6, 0.8], atol=1e-14)

    def test_identical_rows_zero_width_intervals(self):
        c = np.array([1.0, 2.0, -1.0])
        table = SampleTable(np.zeros((25, 3)), np.zeros(25), np.tile(c, (25, 1)))
        dec = decompose(table, AnalysisSettings(n_boot=50, seed=0))
        assert np.array_equal(dec.bootstrap_lo, dec.bootstrap_hi)

    def test_bootstrap_deterministic_given_seed(self):
        table, _ = ridge_table(n=80, exact=True)
        a = decompose(table, AnalysisSettings(n_boot=30, seed=9))
        b = decompose(table, AnalysisSettings(n_boot=30, seed=9))
        assert np.array_equal(a.bootstrap_lo, b.bootstrap_lo)
        assert np.array_equal(a.bootstrap_hi, b.bootstrap_hi)

    @pytest.mark.parametrize("kind", ["ridge", "isotropic"])
    def test_bootstrap_matches_per_resample_loop(self, kind):
        if kind == "ridge":
            table = estimate_gradients(ridge_table(n=200, m=5, seed=30, exact=False)[0])
        else:
            x = np.random.default_rng(31).uniform(-1, 1, (150, 4))
            table = SampleTable(x, np.sum(x ** 2, axis=1), 2.0 * x, bounds=box_bounds(4))
        got = decompose(table, AnalysisSettings(n_boot=40, seed=5))
        ref = per_resample_decompose(table, n_boot=40, seed=5)
        for name in ("eigenvalues", "eigenvectors", "bootstrap_lo", "bootstrap_hi"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_stack_gets_sign_convention_per_matrix(self):
        vectors = np.array([[-0.6, 0.8, 0.0], [0.8, -0.6, 0.0], [0.0, -0.28, 0.96],
                            [-1.0, 0.0, 0.0]])
        stack = np.array([np.outer(c, c) for c in vectors])
        lam, vec = _sorted_eig(stack)
        for j, cov in enumerate(stack):
            lam_j, vec_j = _sorted_eig(cov)
            assert lam[j].tobytes() == lam_j.tobytes()
            assert vec[j].tobytes() == vec_j.tobytes()
            top = np.argmax(np.abs(vec[j]), axis=0)
            assert (vec[j][top, np.arange(3)] > 0.0).all()
            c = vectors[j]
            np.testing.assert_allclose(vec[j][:, 0], c * np.sign(c[np.argmax(np.abs(c))]),
                                       atol=1e-14)

    def test_one_negative_matrix_in_stack_raises(self):
        stack = np.array([np.eye(3), np.diag([1.0, 0.5, -0.1]), np.eye(3)])
        with pytest.raises(DomainError, match="significantly negative eigenvalue"):
            _sorted_eig(stack)
        _sorted_eig(stack[[0, 2]])

    def test_bootstrap_memory_is_linear(self):
        rng = np.random.default_rng(32)
        g = rng.standard_normal((3000, 8))
        table = SampleTable(np.zeros((3000, 8)), np.zeros(3000), g)
        tracemalloc.start()
        try:
            decompose(table, AnalysisSettings(n_boot=100, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # gathering all resamples as (100, 3000, 8) takes 19 MB

    def test_orthogonality(self):
        table, _ = ridge_table(n=120, seed=7)
        dec = decompose(table, NO_BOOT)
        w = dec.eigenvectors
        assert np.abs(w.T @ w - np.eye(w.shape[1])).max() < 1e-10


def per_resample_decompose(table, n_boot, seed):
    """decompose as one eigh, sort and sign loop per resample."""
    def sorted_eig(cov):
        lam, vec = np.linalg.eigh(cov)
        order = np.argsort(lam, kind="stable")[::-1]
        lam, vec = lam[order], vec[:, order]
        trace = max(lam.sum(), 0.0)
        if lam.min() < -1e-10 * max(trace, 1.0):
            raise DomainError("covariance has a significantly negative eigenvalue")
        lam = np.maximum(lam, 0.0)
        for j in range(vec.shape[1]):
            k = int(np.argmax(np.abs(vec[:, j])))
            if vec[k, j] < 0.0:
                vec[:, j] = -vec[:, j]
        return lam, vec

    g = table.normalized_gradients()
    lam, vec = sorted_eig(covariance(table))
    n = len(g)
    boot = np.empty((n_boot, len(lam)))
    for b in range(n_boot):
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        rows = g[rng.integers(0, n, n)]
        boot[b] = sorted_eig(rows.T @ rows / n)[0]
    return ASDecomposition(eigenvalues=lam, eigenvectors=vec,
                           active_dim=choose_active_dimension(lam, AnalysisSettings()),
                           bootstrap_lo=np.percentile(boot, 5.0, axis=0),
                           bootstrap_hi=np.percentile(boot, 95.0, axis=0))


class TestActiveDimension:
    def choose(self, eigenvalues, **settings):
        return choose_active_dimension(np.asarray(eigenvalues, dtype=float),
                                       AnalysisSettings(**settings))

    def test_dominant_first_gap(self):
        assert self.choose([1.0, 1e-8, 1e-9, 1e-10]) == 1

    def test_gap_after_second(self):
        assert self.choose([4.0, 3.9, 1e-6, 1e-7]) == 2

    def test_explicit(self):
        assert self.choose([1.0, 0.9, 0.8, 0.7], rule="explicit", explicit_dim=2) == 2

    def test_threshold(self):
        assert self.choose([1.0, 0.5, 1e-4, 1e-6], rule="threshold") == 2

    def test_result_below_dimension(self):
        m_act = self.choose([1.0, 0.99, 0.98])
        assert 1 <= m_act < 3


class TestRidgeRecovery:
    def test_exact_gradients(self):
        table, c = ridge_table(n=300, m=6, seed=10)
        dec = decompose(table, NO_BOOT)
        assert abs(dec.eigenvectors[:, 0] @ c) > 0.999999
        assert dec.eigenvalues[1] <= 1e-4 * dec.eigenvalues[0]

    def test_estimated_gradients(self):
        m = 4
        table, c = ridge_table(n=50 * m, m=m, seed=11, exact=False)
        table = estimate_gradients(table)
        dec = decompose(table, NO_BOOT)
        assert abs(dec.eigenvectors[:, 0] @ c) > 0.99

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(12)
        m = 5
        x = rng.uniform(-1, 1, (200, m))
        c = rng.standard_normal(m)
        g = np.cos(x @ c)[:, None] * c  # f = sin(c.mu)
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        t1 = SampleTable(x, np.sin(x @ c), g)
        t2 = SampleTable(x @ q.T, np.sin(x @ c), g @ q.T)
        w1 = decompose(t1, NO_BOOT).eigenvectors[:, :1]
        w2 = decompose(t2, NO_BOOT).eigenvectors[:, :1]
        cos_angle = np.abs((q @ w1).T @ w2)[0, 0]
        assert np.arccos(min(cos_angle, 1.0)) < 1e-8


class TestResponseSurface:
    def test_exact_quadratic_reproduced(self):
        table, c = ridge_table(n=250, m=5, seed=13)
        dec = decompose(table, explicit_dim(1))
        surface, report = fit_response_surface(dec, table, AnalysisSettings(split_seed=1))
        assert report["normalized_test_error"] < 1e-8

    def test_constant_outputs(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, (60, 3))
        table = SampleTable(x, np.full(60, 2.5), np.zeros((60, 3)))
        dec = ASDecomposition(np.array([1.0, 0.5, 0.1]), np.eye(3), active_dim=1)
        surface, report = fit_response_surface(dec, table, AnalysisSettings(degree=2))
        assert report["normalized_test_error"] == 0.0
        assert evaluate_surface(surface, np.array([0.37])) == pytest.approx(2.5)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(15)
        m, n = 4, 220
        x = rng.uniform(-1, 1, (n, m))
        c = rng.standard_normal(m)
        c /= np.linalg.norm(c)
        f = (x @ c) ** 4 + 0.01 * rng.standard_normal(n)
        g = (4.0 * (x @ c) ** 3)[:, None] * c
        table = SampleTable(x, f, g)
        dec = decompose(table, explicit_dim(1))
        surface, report = fit_response_surface(dec, table, AnalysisSettings(split_seed=3))
        # independent oracle: raw-monomial normal equations on the same split
        from morphreduce.activesubspace import _split_indices
        train, test = _split_indices(n, 0.75, 3)
        y = (x @ dec.eigenvectors[:, 0])
        a_train = np.vander(y[train], 5, increasing=True)
        coef = np.linalg.solve(a_train.T @ a_train, a_train.T @ f[train])
        pred = np.vander(y[test], 5, increasing=True) @ coef
        rmse_oracle = np.sqrt(np.mean((pred - f[test]) ** 2))
        assert report["rmse_test"] == pytest.approx(rmse_oracle, rel=1e-6)

    def test_evaluate_against_direct_monomial_sum(self):
        rng = np.random.default_rng(16)
        surface = ResponseSurface(degree=3, active_dim=2,
                                  coefficients=rng.standard_normal(10),
                                  center=np.array([0.1, -0.2]),
                                  halfwidth=np.array([1.5, 0.8]))
        pts = rng.uniform(-1, 1, (20, 2))
        got = evaluate_surface(surface, pts)
        for p, v in zip(pts, got):
            z = (p - surface.center) / surface.halfwidth
            direct = sum(coef * z[0] ** e[0] * z[1] ** e[1]
                         for coef, e in zip(surface.coefficients, surface.exponents))
            assert abs(v - direct) < 1e-12

    def test_linear_identity(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (50, 2))
        table = SampleTable(x, x[:, 0], np.tile([1.0, 0.0], (50, 1)))
        dec = ASDecomposition(np.array([1.0, 0.0]), np.eye(2), active_dim=1)
        surface, _ = fit_response_surface(dec, table, AnalysisSettings(degree=1))
        assert evaluate_surface(surface, np.array([0.2])) == pytest.approx(0.2, abs=1e-10)

    def test_coefficient_count_invariant(self):
        with pytest.raises(Exception):
            ResponseSurface(degree=2, active_dim=2, coefficients=np.zeros(5),
                            center=np.zeros(2), halfwidth=np.ones(2))

    def test_degree_increase_never_hurts_training(self):
        table, _ = ridge_table(n=200, m=4, seed=18)
        noisy = SampleTable(table.inputs,
                            table.outputs + 0.05 * np.sin(7.0 * table.inputs[:, 0]),
                            table.gradients, table.bounds)
        dec = decompose(noisy, explicit_dim(1))
        prev = np.inf
        for d in range(1, 6):
            _, report = fit_response_surface(dec, noisy,
                                               AnalysisSettings(degree=d, split_seed=5))
            assert report["rmse_train"] <= prev + 1e-12
            prev = report["rmse_train"]

    def test_too_few_samples_rejected(self):
        table, _ = ridge_table(n=12, m=3, seed=19)
        dec = decompose(table, explicit_dim(2))
        with pytest.raises(DomainError):
            fit_response_surface(dec, table, AnalysisSettings())

    def test_surface_doc_round_trip(self):
        table, _ = ridge_table(n=100, m=3, seed=20)
        dec = decompose(table, explicit_dim(1))
        surface, _ = fit_response_surface(dec, table, AnalysisSettings(degree=3))
        doc = json.loads(json.dumps(surface_to_doc(surface)))  # as surface.json holds it
        back = ResponseSurface(doc["degree"], doc["active_dim"],
                               np.array(doc["coefficients"]), np.array(doc["center"]),
                               np.array(doc["halfwidth"]), [tuple(e) for e in doc["exponents"]])
        pts = np.linspace(-1, 1, 7).reshape(-1, 1)
        np.testing.assert_array_equal(evaluate_surface(back, pts),
                                      evaluate_surface(surface, pts))


class TestAnalyzeTable:
    def test_ridge_report(self):
        table, _ = ridge_table(n=150, m=4, seed=21)
        report, dec, surface = analyze_table(table, AnalysisSettings(n_boot=20, seed=1))
        assert report["active_dim"] == 1
        assert report["structure"] == "strong"
        assert report["gap_ratio"] > 1e3
        assert surface is not None
        assert len(report["replicate_errors"]) == 10

    def test_constant_outputs_flag_no_structure(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-1, 1, (60, 3))
        report, _, surface = analyze_table(
            SampleTable(x, np.full(60, 1.0)), AnalysisSettings(n_boot=10))
        assert report["structure"] == "none"
        assert surface is None

    def test_isotropic_flags_weak(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, (400, 4))
        f = np.sum(x ** 2, axis=1)
        g = 2.0 * x
        report, _, _ = analyze_table(SampleTable(x, f, g), AnalysisSettings(n_boot=10))
        assert report["structure"] == "weak"
        assert report["gap_ratio"] < 10.0


class TestReplicatedErrors:
    def test_clean_ridge_low_error(self):
        table, _ = ridge_table(n=200, m=4, seed=24)
        errors = replicated_errors(table, AnalysisSettings(n_replicates=5, seed=2))
        assert len(errors) == 5
        assert max(errors) < 1e-6

    def test_each_entry_is_a_fit_response_surface_error(self):
        from morphreduce.activesubspace import _split_indices
        table = exp_ridge_table()
        x, f = table.inputs, table.outputs
        errors = replicated_errors(table, AnalysisSettings(degree=2, n_replicates=4, seed=5))
        for rep, error in enumerate(errors):
            split_seed = int(np.random.SeedSequence([5, rep]).generate_state(1)[0])
            train, _ = _split_indices(table.n, 0.75, split_seed)
            dec = decompose(SampleTable(x[train], f[train], table.gradients[train],
                                        table.bounds), NO_BOOT)
            _, report = fit_response_surface(
                dec, table, AnalysisSettings(degree=2, split_seed=split_seed))
            assert error == pytest.approx(report["normalized_test_error"], rel=1e-12)

    @pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "unbounded"])
    @pytest.mark.parametrize("make_table, settings", [
        (lambda: ridge_table(n=200, m=4, seed=24, bounds_half=0.3)[0],
         AnalysisSettings(n_replicates=5, seed=2)),
        (lambda: ridge_table(n=200, m=4, seed=24, bounds_half=0.3)[0],
         AnalysisSettings(degree=3, rule="explicit", explicit_dim=2, seed=7,
                          split_fraction=0.6)),
        (exp_ridge_table, AnalysisSettings(degree=2, n_replicates=4, seed=5)),
        (exp_ridge_table, AnalysisSettings(degree=3, rule="threshold", seed=1)),
        # long enough that r.T @ r of two copies of r rounds unlike that of one buffer
        (lambda: ridge_table(n=600, m=3, seed=24, bounds_half=0.3)[0],
         AnalysisSettings(seed=2)),
    ], ids=["ridge", "ridge-explicit", "exp", "exp-threshold", "ridge-600"])
    def test_matches_per_replicate_decompose_bitwise(self, make_table, settings, bounded):
        table = make_table()
        if not bounded:
            table = SampleTable(table.inputs, table.outputs, table.gradients)
        assert replicated_errors(table, settings) == per_replicate_errors(table, settings)

    def test_requires_gradients(self):
        rng = np.random.default_rng(25)
        with pytest.raises(DomainError):
            replicated_errors(SampleTable(rng.random((30, 2)), np.zeros(30)),
                              AnalysisSettings())


def per_replicate_errors(table, settings):
    """replicated_errors with a SampleTable and a decompose per replicate."""
    from morphreduce.activesubspace import _fit_surface, _split_indices
    x, f = table.normalized_inputs(), table.outputs
    errors = []
    for rep in range(settings.n_replicates):
        split_seed = int(np.random.SeedSequence([settings.seed, rep]).generate_state(1)[0])
        train, test = _split_indices(table.n, settings.split_fraction, split_seed)
        sub = SampleTable(table.inputs[train], f[train], table.gradients[train], table.bounds)
        dec = decompose(sub, dataclasses.replace(settings, n_boot=0))
        w1 = dec.active_basis()
        surface, _ = _fit_surface(x[train] @ w1, f[train], settings.degree)
        rmse = float(np.sqrt(np.mean((evaluate_surface(surface, x[test] @ w1) - f[test]) ** 2)))
        errors.append(rmse / float(f.max() - f.min()))
    return errors


class TestCsvPersistence:
    def test_round_trip_with_gradients(self, tmp_path):
        table, _ = ridge_table(n=25, m=3, seed=26)
        path = tmp_path / "samples.csv"
        save_sample_table(table, path)
        back = load_sample_table(path, bounds=table.bounds)
        assert np.array_equal(back.inputs, table.inputs)
        assert np.array_equal(back.outputs, table.outputs)
        assert np.array_equal(back.gradients, table.gradients)

    def test_round_trip_without_gradients(self, tmp_path):
        rng = np.random.default_rng(27)
        table = SampleTable(rng.random((10, 2)), rng.random(10))
        path = tmp_path / "samples.csv"
        save_sample_table(table, path)
        back = load_sample_table(path)
        assert back.gradients is None
        assert np.array_equal(back.inputs, table.inputs)

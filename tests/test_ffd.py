import sys
import threading
import time
import warnings
from importlib.resources import files
from math import comb

import numpy as np
import pytest

from morphreduce import ffd
from morphreduce.errors import ConfigError, DomainError
from morphreduce.ffd import (BindingEntry, FFDLattice, ParameterBinding,
                             apply_parameters, basis_partition, deform_mesh,
                             deform_point, deform_points, load_ffd_json,
                             sample_parameters, save_ffd_json, to_reference)
from morphreduce.geometry import (TriMesh, demo_hull, enclosed_volume, icosphere,
                                  integrals, unit_cube)


def to_physical(lattice, stu):
    """Inverse of to_reference: origin + box_matrix @ (s, t, u)."""
    r = np.asarray(stu, dtype=float)
    p = lattice.origin + r.reshape(-1, 3) @ lattice.box_matrix.T
    return p[0] if r.ndim == 1 else p


def unit_lattice(counts=(2, 2, 2)):
    return FFDLattice(origin=[0, 0, 0], axes=np.eye(3), counts=counts)


def skewed_lattice():
    axes = np.array([[2.0, 0.3, 0.0], [0.0, 1.5, 0.2], [0.1, 0.0, 1.0]])
    return FFDLattice(origin=[1.0, -0.5, 0.25], axes=axes, counts=(3, 4, 2))


def dense_deform_reference(lattice, points):
    """Dense tensor-product blend over every control point, with its shift."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    stu = to_reference(lattice, pts)
    inside = ((stu >= 0.0) & (stu <= 1.0)).all(axis=1)
    s = stu[inside]
    bases = [np.stack([comb(n - 1, i) * s[:, a] ** i * (1.0 - s[:, a]) ** (n - 1 - i)
                       for i in range(n)], axis=1)
             for a, n in enumerate(lattice.counts)]
    local = np.einsum("pi,pj,pk,ijkc->pc", *bases, lattice.displacements)
    shift = np.zeros_like(pts)
    shift[inside] = local @ lattice.box_matrix.T
    return pts + shift, shift


class TestReferenceMap:
    def test_origin_maps_to_zero(self):
        lat = skewed_lattice()
        np.testing.assert_allclose(to_reference(lat, lat.origin), np.zeros(3), atol=1e-14)

    def test_far_corner_maps_to_ones(self):
        lat = skewed_lattice()
        corner = lat.origin + lat.axes.sum(axis=0)
        np.testing.assert_allclose(to_reference(lat, corner), np.ones(3), atol=1e-12)

    def test_axis_aligned_identity(self):
        stu = to_reference(unit_lattice(), [0.25, 0.5, 0.75])
        np.testing.assert_allclose(stu, [0.25, 0.5, 0.75], atol=1e-15)

    def test_round_trip(self):
        lat = skewed_lattice()
        rng = np.random.default_rng(0)
        pts = rng.random((50, 3)) * 4.0 - 1.0
        back = to_physical(lat, to_reference(lat, pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_singular_axes_rejected(self):
        axes = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(ConfigError, match="singular"):
            FFDLattice(origin=[0, 0, 0], axes=axes, counts=(2, 2, 2))

    def test_counts_below_two_rejected(self):
        with pytest.raises(ConfigError):
            FFDLattice(origin=[0, 0, 0], axes=np.eye(3), counts=(1, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["origin", "axes", "displacements"])
    def test_non_finite_lattice_rejected(self, name, bad):
        parts = dict(origin=np.zeros(3), axes=np.eye(3), counts=(2, 2, 2),
                     displacements=np.zeros((2, 2, 2, 3)))
        parts[name].flat[-1] = bad
        with pytest.raises(ConfigError, match=f"^lattice {name} must be finite$"):
            FFDLattice(**parts)


class TestApplyParameters:
    def binding(self):
        entries = [BindingEntry(0, (1, 1, 1), 1, 1.0)]
        return ParameterBinding(entries, bounds=[[-0.3, 0.3]])

    def test_zero_mu_leaves_displacements(self):
        lat = unit_lattice()
        out = apply_parameters(lat, self.binding(), [0.0])
        assert np.array_equal(out.displacements, lat.displacements)

    def test_single_entry_writes_component(self):
        out = apply_parameters(unit_lattice(), self.binding(), [0.3])
        assert out.displacements[1, 1, 1, 1] == 0.3
        assert np.count_nonzero(out.displacements) == 1

    def test_shared_control_point_accumulates(self):
        entries = [BindingEntry(0, (1, 1, 1), 0, 1.0), BindingEntry(1, (1, 1, 1), 0, 0.5)]
        binding = ParameterBinding(entries, bounds=[[-1, 1], [-1, 1]])
        both = apply_parameters(unit_lattice(), binding, [0.2, 0.4])
        # oracle: sum of the two single-entry applications
        one = apply_parameters(unit_lattice(), ParameterBinding(
            [entries[0]], bounds=[[-1, 1]]), [0.2])
        two = apply_parameters(unit_lattice(), ParameterBinding(
            [BindingEntry(0, (1, 1, 1), 0, 0.5)], bounds=[[-1, 1]]), [0.4])
        np.testing.assert_allclose(
            both.displacements, one.displacements + two.displacements, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_parameters(unit_lattice(), self.binding(), [0.1, 0.2])

    def test_non_finite_mu_is_a_domain_error(self):
        with pytest.raises(DomainError, match="parameter vector must be finite"):
            apply_parameters(unit_lattice(), self.binding(), [np.nan])

    def test_outside_bounds_warns_and_proceeds(self):
        with pytest.warns(UserWarning, match="outside"):
            out = apply_parameters(unit_lattice(), self.binding(), [0.5])
        assert out.displacements[1, 1, 1, 1] == 0.5

    @pytest.mark.parametrize("bounds, weight, message", [
        ([[-0.3, np.nan]], 1.0, "binding bounds must be finite"),
        ([[-np.inf, 0.3]], 1.0, "binding bounds must be finite"),
        ([[-0.3, 0.3]], np.nan, "binding weight must be a finite number, got nan"),
        ([[-0.3, 0.3]], np.inf, "binding weight must be a finite number, got inf")])
    def test_non_finite_binding_rejected(self, bounds, weight, message):
        with pytest.raises(ConfigError, match=message):
            ParameterBinding([BindingEntry(0, (1, 1, 1), 1, weight)], bounds=bounds)

    @pytest.mark.parametrize("entry, message", [
        ((0.5, (1, 0, 1), 0), r"^binding parameter must be an int >= 0, got 0\.5$"),
        ((True, (1, 0, 1), 0), r"^binding parameter must be an int >= 0, got True$"),
        ((0, (1, 0, 1), 2.0), r"^binding axis must be an int in \[0, 2\], got 2\.0$"),
        ((0, (1, 0, 1), 3), r"^binding axis must be an int in \[0, 2\], got 3$")])
    def test_non_integer_parameter_or_axis_rejected(self, entry, message):
        with pytest.raises(ConfigError, match=message):
            ParameterBinding([BindingEntry(*entry)], bounds=[[-1, 1]])

    def test_numpy_integer_parameter_and_axis_accepted(self):
        binding = ParameterBinding([BindingEntry(np.int64(0), (1, 1, 1), np.int32(1))],
                                   bounds=[[-1, 1]])
        out = apply_parameters(unit_lattice(), binding, [0.25])
        assert out.displacements[1, 1, 1, 1] == 0.25

    def test_demo_lattice_result_equals_full_constructor(self):
        lattice, binding = load_ffd_json(files("morphreduce") / "data" / "demo_ffd.json")
        mu = sample_parameters(binding, 4, seed=3)
        for row in mu:
            out = apply_parameters(lattice, binding, row)
            disp = np.array(lattice.displacements)
            for e in binding.entries:
                disp[e.index + (e.axis,)] += e.weight * row[e.parameter]
            ref = FFDLattice(lattice.origin, lattice.axes, lattice.counts, disp)
            assert out.origin is lattice.origin and out.axes is lattice.axes
            assert out.counts == ref.counts
            assert np.array_equal(out.displacements.view(np.int64),
                                  ref.displacements.view(np.int64))
            assert not out.displacements.flags.writeable

    def test_overflowing_displacement_is_a_config_error(self):
        binding = ParameterBinding([BindingEntry(0, (1, 1, 1), 1, 1e308)],
                                   bounds=[[-20.0, 20.0]])
        with pytest.raises(ConfigError, match="^lattice displacements must be finite$"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # the error alone, no overflow warning first
            apply_parameters(unit_lattice(), binding, [10.0])

    def test_with_displacements_copies_and_checks(self):
        lattice = skewed_lattice()
        disp = np.zeros((3, 4, 2, 3))
        moved = lattice.with_displacements(disp)
        disp[0, 0, 0, 0] = 1.0
        assert moved.displacements[0, 0, 0, 0] == 0.0 and moved.axes is lattice.axes
        with pytest.raises(ConfigError, match="does not match counts"):
            lattice.with_displacements(np.zeros((2, 2, 2, 3)))
        disp[0, 0, 0, 0] = np.nan
        with pytest.raises(ConfigError, match="^lattice displacements must be finite$"):
            lattice.with_displacements(disp)

    def test_entry_outside_counts_rejected(self):
        binding = ParameterBinding([BindingEntry(0, (5, 0, 0), 0, 1.0)],
                                   bounds=[[-1, 1]])
        with pytest.raises(ConfigError, match="outside lattice"):
            apply_parameters(unit_lattice(), binding, [0.1])


class TestDeform:
    def test_zero_displacements_identity_bit_exact(self):
        lat = unit_lattice((3, 3, 3))
        rng = np.random.default_rng(1)
        pts = rng.random((200, 3)) * 2.0 - 0.5  # straddles the box
        out = deform_points(lat, pts)
        assert np.array_equal(out, pts)

    def test_trilinear_midpoint_weight(self):
        # single displaced corner of a 2x2x2 lattice: Bernstein weight at the
        # box midpoint is (1/2)^3 = 1/8
        delta = 0.8
        disp = np.zeros((2, 2, 2, 3))
        disp[1, 1, 1] = [delta, 0.0, 0.0]
        lat = unit_lattice().with_displacements(disp)
        moved = deform_point(lat, [0.5, 0.5, 0.5])
        assert abs(moved[0] - 0.5 - delta / 8.0) < 1e-14
        assert moved[1] == 0.5 and moved[2] == 0.5

    def test_point_outside_box_untouched(self):
        disp = np.zeros((2, 2, 2, 3))
        disp[1, 1, 1] = [0.3, 0.0, 0.0]
        lat = unit_lattice().with_displacements(disp)
        p = np.array([1.5, 0.0, 0.0])
        assert np.array_equal(deform_point(lat, p), p)

    def test_skewed_lattice_displacement_in_box_coordinates(self):
        # displacement is a fraction of the box edge vectors
        lat = skewed_lattice()
        disp = np.zeros((3, 4, 2, 3))
        disp[1, 2, 1] = [0.1, -0.05, 0.2]
        lat = lat.with_displacements(disp)
        p = to_physical(lat, [0.4, 0.6, 0.7])
        out = deform_point(lat, p)
        stu = to_reference(lat, p)
        weights = basis_partition(lat, stu)  # sanity: partition of unity
        assert abs(weights[0] - 1.0) < 1e-12
        # independent evaluation through the reference map
        from math import comb
        def bern(n, i, t):
            return comb(n, i) * t ** i * (1 - t) ** (n - i)
        w = bern(2, 1, stu[0]) * bern(3, 2, stu[1]) * bern(1, 1, stu[2])
        expected = p + lat.box_matrix @ (w * np.array([0.1, -0.05, 0.2]))
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_partition_of_unity(self):
        lat = FFDLattice([0, 0, 0], np.eye(3), (4, 3, 5))
        stu = np.random.default_rng(2).random((1000, 3))
        np.testing.assert_allclose(basis_partition(lat, stu), 1.0, atol=1e-12)

    def test_linearity_in_displacements(self):
        rng = np.random.default_rng(3)
        d1 = rng.normal(0, 0.05, (3, 3, 3, 3))
        d2 = rng.normal(0, 0.05, (3, 3, 3, 3))
        lat = unit_lattice((3, 3, 3))
        pts = rng.random((40, 3))
        a = deform_points(lat.with_displacements(d1), pts) - pts
        b = deform_points(lat.with_displacements(d2), pts) - pts
        c = deform_points(lat.with_displacements(d1 + d2), pts) - pts
        np.testing.assert_allclose(c, a + b, atol=1e-13)

    def test_boundary_continuity_with_fixed_face_layers(self):
        # boundary control planes undisplaced -> map continuous across the face
        rng = np.random.default_rng(4)
        disp = np.zeros((4, 4, 4, 3))
        disp[1:3, 1:3, 1:3] = rng.normal(0.0, 0.1, (2, 2, 2, 3))
        lat = unit_lattice((4, 4, 4)).with_displacements(disp)
        eps = 1e-9
        for axis in range(3):
            for face in (0.0, 1.0):
                base = rng.random((20, 3))
                base[:, axis] = face
                inside = base.copy()
                inside[:, axis] = face + (eps if face == 0.0 else -eps)
                outside = base.copy()
                outside[:, axis] = face + (-eps if face == 0.0 else eps)
                gap = deform_points(lat, inside) - deform_points(lat, outside)
                assert np.abs(gap).max() < 1e-8

    def test_deform_mesh_preserves_connectivity_and_locality(self):
        mesh = icosphere(2, radius=1.0)
        disp = np.zeros((2, 2, 2, 3))
        disp[1, 1, 1] = [0.2, 0.0, 0.0]
        # box covers x,y,z in [0, 2]: only the +,+,+ octant of the sphere
        lat = FFDLattice([0, 0, 0], 2.0 * np.eye(3), (2, 2, 2), disp)
        out = deform_mesh(lat, mesh)
        assert np.array_equal(out.triangles, mesh.triangles)
        stu = to_reference(lat, mesh.vertices)
        inside = ((stu >= 0) & (stu <= 1)).all(axis=1)
        assert inside.any() and not inside.all()
        assert np.array_equal(out.vertices[~inside], mesh.vertices[~inside])
        # per-vertex oracle
        for idx in np.nonzero(inside)[0][:20]:
            np.testing.assert_allclose(out.vertices[idx],
                                       deform_point(lat, mesh.vertices[idx]),
                                       atol=1e-15)

    def test_mesh_fully_outside_unchanged(self):
        mesh = unit_cube(origin=(10.0, 10.0, 10.0))
        disp = np.zeros((2, 2, 2, 3))
        disp[0, 0, 0] = [0.5, 0.5, 0.5]
        lat = unit_lattice().with_displacements(disp)
        out = deform_mesh(lat, mesh)
        assert np.array_equal(out.vertices, mesh.vertices)


class TestSampling:
    def binding(self, m=8, lo=-0.3, hi=0.3):
        return ParameterBinding([BindingEntry(0, (0, 0, 0), 0, 1.0)],
                                bounds=np.tile([lo, hi], (m, 1)))

    def test_degenerate_bounds_give_zero(self):
        mus = sample_parameters(self.binding(3, 0.0, 0.0), 1, seed=5)
        assert np.array_equal(mus, np.zeros((1, 3)))

    def test_box_membership_130_samples(self):
        mus = sample_parameters(self.binding(), 130, seed=7)
        assert mus.shape == (130, 8)
        assert (mus >= -0.3).all() and (mus <= 0.3).all()

    def test_seed_determinism(self):
        a = sample_parameters(self.binding(), 20, seed=11)
        b = sample_parameters(self.binding(), 20, seed=11)
        assert np.array_equal(a, b)
        c = sample_parameters(self.binding(), 20, seed=12)
        assert not np.array_equal(a, c)

    def test_latin_hypercube_stratification(self):
        n = 25
        mus = sample_parameters(self.binding(4, 0.0, 1.0), n,
                                scheme="latin-hypercube", seed=3)
        for j in range(4):
            strata = np.floor(mus[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_uniform_scheme(self):
        mus = sample_parameters(self.binding(2), 50, scheme="uniform-random", seed=1)
        assert mus.shape == (50, 2)
        assert (np.abs(mus) <= 0.3).all()

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            sample_parameters(self.binding(), 5, scheme="sobol", seed=0)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        disp = np.zeros((3, 3, 3, 3))
        disp[1, 1, 1] = [0.1, 0.2, -0.3]
        disp[2, 0, 1] = [0.0, -0.05, 0.0]
        lat = FFDLattice([1, 2, 3], np.diag([2.0, 1.0, 0.5]), (3, 3, 3), disp)
        binding = ParameterBinding(
            [BindingEntry(0, (1, 1, 1), 0, 1.0), BindingEntry(1, (1, 1, 1), 2, -2.0)],
            bounds=[[-0.3, 0.3], [-0.1, 0.1]])
        path = tmp_path / "ffd.json"
        save_ffd_json(path, lat, binding)
        lat2, binding2 = load_ffd_json(path)
        assert lat2.counts == lat.counts
        np.testing.assert_allclose(lat2.displacements, lat.displacements, atol=0)
        np.testing.assert_allclose(lat2.axes, lat.axes, atol=0)
        assert binding2.dimension == 2
        assert binding2.entries[1].weight == -2.0
        pts = rng.random((10, 3)) * 2.0
        np.testing.assert_allclose(deform_points(lat, pts), deform_points(lat2, pts),
                                   atol=0)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_ffd_json(path)


class TestSparseBlockedDeform:
    """deform_points blends only displaced control points, block by block."""

    def lattices(self, rng):
        dense = skewed_lattice().with_displacements(rng.normal(0.0, 0.1, (3, 4, 2, 3)))
        sparse = np.zeros((6, 6, 6, 3))
        sparse[1:5:3, 2:4, 1:5:3, rng.integers(0, 3)] = rng.normal(0.0, 0.2, (2, 2, 2))
        box = FFDLattice([-0.5, -1.0, 0.2], np.diag([2.2, 1.7, 1.3]), (6, 6, 6), sparse)
        single = np.zeros((4, 3, 5, 3))
        single[2, 1, 3] = [0.0, 0.3, -0.1]
        return [dense, box, skewed_lattice().with_displacements(np.zeros((3, 4, 2, 3))),
                FFDLattice([0, 0, 0], np.eye(3), (4, 3, 5), single)]

    def points(self, lattice, rng, n):
        """Points in and around the box, some exactly on its faces."""
        stu = rng.uniform(-0.25, 1.25, (n, 3))
        stu[: n // 10, 0] = 0.0
        stu[n // 10: n // 5, 2] = 1.0
        return to_physical(lattice, stu)

    def check_against_dense(self, lattice, pts):
        out = deform_points(lattice, pts)
        ref, shift = dense_deform_reference(lattice, pts)
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()
        untouched = (shift == 0.0).all(axis=1)
        assert np.array_equal(out[untouched].view(np.uint64),
                              pts[untouched].view(np.uint64))
        return untouched

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(40)
        for lattice in self.lattices(rng):
            untouched = self.check_against_dense(lattice, self.points(lattice, rng, 3000))
            assert untouched.any()

    def test_block_boundaries(self, monkeypatch):
        rng = np.random.default_rng(41)
        lattice = self.lattices(rng)[0]
        pts = self.points(lattice, rng, ffd._DEFORM_BLOCK + 777)
        self.check_against_dense(lattice, pts)
        monkeypatch.setattr(ffd, "_DEFORM_BLOCK", 64)
        self.check_against_dense(lattice, pts[:1000])

    def test_untouched_points_bit_identical(self):
        disp = np.zeros((4, 4, 4, 3))
        disp[1:3, 1:3, 1:3] = 0.1
        lat = unit_lattice((4, 4, 4)).with_displacements(disp)
        pts = np.array([[-0.0, 0.5, 0.5], [0.5, -0.0, 0.5], [0.5, 0.5, 1.0],
                        [2.0, -0.0, 0.5], [0.5, 0.5, 0.5], [-1e-300, 0.5, 0.5]])
        out = deform_points(lat, pts)
        untouched = [0, 1, 2, 3, 5]
        assert np.array_equal(out[untouched].view(np.uint64),
                              pts[untouched].view(np.uint64))
        assert (out[4] != pts[4]).all()


class TestCachedBasis:
    """deform_mesh keeps the base mesh's reference basis and equals deform_points."""

    @pytest.fixture
    def demo(self):
        return load_ffd_json(files("morphreduce") / "data" / "demo_ffd.json")

    @staticmethod
    def assert_deforms_alike(lattice, base):
        out = deform_mesh(lattice, base).vertices
        ref = deform_points(lattice, base.vertices)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = ffd._reference_basis

        def counting(lattice, pts):
            calls.append(len(pts))
            return build(lattice, pts)
        monkeypatch.setattr(ffd, "_reference_basis", counting)
        return calls

    def test_parameter_sequence_builds_the_basis_once(self, demo, builds):
        lattice, binding = demo
        base = demo_hull(36, 18)
        mus = sample_parameters(binding, 5, seed=9)
        mus[2, 3] = 0.0  # one control point fewer is displaced
        for mu in mus:
            morphed = apply_parameters(lattice, binding, mu)
            self.assert_deforms_alike(morphed, base)
        assert builds.count(base.num_vertices) == 1 + len(mus)  # once here, per deform_points

    @pytest.mark.parametrize("change", ["origin", "axes", "counts"])
    def test_other_lattice_box_gets_its_own_basis(self, demo, change):
        lattice, binding = demo
        mu = sample_parameters(binding, 1, seed=4)[0]
        first = apply_parameters(lattice, binding, mu)
        origin, axes, counts = lattice.origin, lattice.axes, lattice.counts
        if change == "origin":
            origin = origin + [0.05, -0.02, 0.01]
        elif change == "axes":
            axes = axes * [[1.1], [0.95], [1.0]]
        else:
            counts = (7, 6, 6)
        disp = np.zeros(counts + (3,))
        disp[2, 3, 2] = [0.04, -0.03, 0.02]
        second = FFDLattice(origin, axes, counts, disp)
        base = demo_hull(36, 18)
        for morphed in (first, second, first, second):
            self.assert_deforms_alike(morphed, base)

    def test_boxes_in_turn_keep_one_basis(self, demo, builds):
        lattice, binding = demo
        mu = sample_parameters(binding, 1, seed=3)[0]
        box_a = apply_parameters(lattice, binding, mu)
        box_b = apply_parameters(FFDLattice(lattice.origin + 0.02, lattice.axes,
                                            lattice.counts), binding, mu)
        base = demo_hull(36, 18)
        for morphed in (box_a, box_b, box_a):
            deform_mesh(morphed, base)
        assert builds == [base.num_vertices] * 3
        assert list(base._memo._entries) == ["ffd_basis"]  # one basis, of the last box
        deform_mesh(apply_parameters(lattice, binding, -mu), base)  # box A again
        assert len(builds) == 3
        deform_mesh(box_b, base)  # B was replaced, so it is built again
        assert len(builds) == 4

    @pytest.mark.parametrize("n_threads", [2, 3, 4])
    def test_racing_threads_build_basis_and_closedness_once(self, demo, monkeypatch,
                                                            n_threads):
        """Threads that deform and check closedness on one fresh base mesh wait for
        the first build of the basis and of the boundary edge count."""
        lattice, binding = demo
        morphs = [apply_parameters(lattice, binding, mu)
                  for mu in sample_parameters(binding, n_threads, seed=12)]
        base = demo_hull(36, 18)
        serial = [deform_points(m, base.vertices) for m in morphs]
        calls = {"basis": 0, "closed": 0}
        basis, count = ffd._reference_basis, integrals.boundary_edge_count

        def slow(name, build):
            def counted(*args):
                calls[name] += 1
                time.sleep(0.05)  # holds the build open while the other threads arrive
                return build(*args)
            return counted
        monkeypatch.setattr(ffd, "_reference_basis", slow("basis", basis))
        monkeypatch.setattr(integrals, "boundary_edge_count", slow("closed", count))
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def work(k):
            barrier.wait()
            mesh = deform_mesh(morphs[k], base)
            results[k] = (mesh.vertices, enclosed_volume(mesh))
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert calls == {"basis": 1, "closed": 1}
        for (vertices, volume), ref in zip(results, serial):
            assert np.array_equal(vertices.view(np.uint64), ref.view(np.uint64))
            assert volume == enclosed_volume(TriMesh(ref, base.triangles))

    def test_small_blocks_on_a_fresh_mesh(self, demo, monkeypatch):
        lattice, binding = demo
        monkeypatch.setattr(ffd, "_DEFORM_BLOCK", 64)
        base = demo_hull(36, 18)
        for mu in sample_parameters(binding, 2, seed=6):
            self.assert_deforms_alike(apply_parameters(lattice, binding, mu), base)

    def test_threads_share_one_fresh_base_mesh(self, demo):
        """Four threads on two lattice boxes at once give the serial results."""
        lattice, binding = demo
        shifted = FFDLattice(lattice.origin + 0.03, lattice.axes, lattice.counts)
        boxes = [[apply_parameters(box, binding, mu)
                  for mu in sample_parameters(binding, 6, seed=8)]
                 for box in (lattice, shifted)]
        serial = [[deform_points(m, demo_hull(36, 18).vertices) for m in box]
                  for box in boxes]
        base = demo_hull(36, 18)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(slot):
            barrier.wait()
            results[slot] = [deform_mesh(m, base).vertices for m in boxes[slot % 2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for slot, result in enumerate(results):
            assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                       for a, b in zip(result, serial[slot % 2]))

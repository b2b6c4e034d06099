import gc
import re
import sys
import threading
import time
import weakref
from importlib.resources import files

import numpy as np
import pytest

from morphreduce.errors import DomainError, MeshFormatError, MeshTopologyError, ToolkitError
from morphreduce.ffd import apply_parameters, deform_mesh, load_ffd_json, sample_parameters
from morphreduce.geometry import (TriMesh, boundary_edge_count, demo_hull,
                                  enclosed_volume, icosphere, integrate_pressure_force, ittc57_drag,
                                  ittc57_friction_coefficient, load_mesh, save_mesh,
                                  surface_area, unit_cube, volume_centroid)
from morphreduce.geometry import integrals
from morphreduce.geometry import mesh as mesh_module

CUBE_OBJ = """\
# canonical unit cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 4 3
f 1 3 2
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 3 4 8
f 3 8 7
f 1 5 8
f 1 8 4
f 2 3 7
f 2 7 6
"""


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def per_vertex_obj_text(mesh):
    """Reference OBJ writer: one formatted line per vertex and per face."""
    lines = ["v " + " ".join("%.17g" % c for c in v) for v in mesh.vertices]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles]
    return "\n".join(lines) + ("\n" if lines else "")


def extreme_values(rng, n):
    """Doubles over the whole exponent range, with signed zeros and subnormals."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-307, 308, n)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 0.1]
    x[: len(special)] = special[:n]
    return x


class TestObjWriter:
    def test_bytes_match_per_vertex_writer(self, tmp_path):
        rng = np.random.default_rng(50)
        path = tmp_path / "m.obj"
        for nv, nt in ((0, 0), (1, 0), (3, 1), (37, 60), (500, 2000)):
            v = extreme_values(rng, 3 * nv).reshape(-1, 3)
            t = rng.integers(0, max(nv, 1), (nt, 3)) if nv else np.empty((0, 3), int)
            mesh = TriMesh(v, t)
            save_mesh(mesh, path)
            assert path.read_bytes() == per_vertex_obj_text(mesh).encode()

    def test_derived_meshes_match_per_vertex_writer(self, tmp_path):
        rng = np.random.default_rng(51)
        base_v = extreme_values(rng, 3 * 40).reshape(-1, 3)
        base_v[10] = [0.0, 1.0, -0.0]
        first = base_v.copy()
        first[0:5] = extreme_values(rng, 15).reshape(-1, 3)
        second = base_v.copy()
        second[3:9] = extreme_values(rng, 18).reshape(-1, 3)
        second[10] = [-0.0, 1.0, 0.0]  # equal to base_v under ==, printed differently
        third = first.copy()
        third[20] += 1.0
        everywhere = -base_v  # every row moves bitwise, its zeros too
        base = TriMesh(base_v, rng.integers(0, len(base_v), (60, 3)))
        path = tmp_path / "m.obj"
        # the base itself comes last, after every derived mesh
        for v in (first, second, first, third, everywhere, second, base_v):
            mesh = base.with_vertices(v)
            save_mesh(mesh, path)
            assert path.read_bytes() == per_vertex_obj_text(mesh).encode()
            back = load_mesh(path, validate=False)
            assert np.array_equal(back.vertices.view(np.int64), mesh.vertices.view(np.int64))
            assert np.array_equal(back.triangles, mesh.triangles)

    def test_reference_survives_caller_writing_its_array(self, tmp_path):
        v = np.array(icosphere(1).vertices)
        mesh = TriMesh(v, icosphere(1).triangles)
        path = tmp_path / "m.obj"
        save_mesh(mesh, path)
        v[0] = [-0.0, 2.0, 3.0]  # the caller rewrites its array; the mesh holds a copy
        moved = mesh.with_vertices(v)
        save_mesh(moved, path)
        assert path.read_bytes() == per_vertex_obj_text(moved).encode()
        assert path.read_text().startswith("v -0 2 3\n")

    def test_concurrent_writers_match_per_vertex_writer(self, tmp_path):
        base = icosphere(2)
        rng = np.random.default_rng(53)
        meshes = []
        for k in range(16):
            v = np.array(base.vertices)
            rows = rng.choice(len(v), 20, replace=False)
            v[rows] += rng.standard_normal((20, 3)) * 10.0 ** -k
            meshes.append(base.with_vertices(v))
        errors = []

        def writer(w):
            for k in range(w, len(meshes) * 4, 8):
                mesh = meshes[k % len(meshes)]
                path = tmp_path / f"{w}.obj"
                save_mesh(mesh, path)
                if path.read_bytes() != per_vertex_obj_text(mesh).encode():
                    errors.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    @pytest.mark.parametrize("n_threads", [2, 3, 4])
    def test_racing_writers_format_each_block_once(self, tmp_path, monkeypatch, n_threads):
        base = icosphere(2)
        meshes = []
        for k in range(n_threads):
            v = np.array(base.vertices)
            v[k] += 0.5  # one moved row each, so only a block build is full-size
            meshes.append(base.with_vertices(v))
        full = []
        original = mesh_module._obj_rows

        def slow_counting(template, rows):
            if len(rows) in (base.num_vertices, base.num_triangles):
                full.append(template)
                time.sleep(0.05)  # holds the build open while the other writers arrive
            return original(template, rows)

        monkeypatch.setattr(mesh_module, "_obj_rows", slow_counting)
        start = threading.Barrier(n_threads)

        def writer(k):
            start.wait()
            save_mesh(meshes[k], tmp_path / f"{k}.obj")

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert sorted(full) == sorted([mesh_module._OBJ_FACE, mesh_module._OBJ_VERTEX])
        for k, mesh in enumerate(meshes):
            assert (tmp_path / f"{k}.obj").read_bytes() == per_vertex_obj_text(mesh).encode()

    def test_demo_hull_reproduces_shipped_file(self, tmp_path):
        path = tmp_path / "hull.obj"
        save_mesh(demo_hull(), path)
        shipped = files("morphreduce") / "data" / "demo_hull.obj"
        assert path.read_bytes() == shipped.read_bytes()


class TestMeshIO:
    def test_load_cube_obj(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        mesh = load_mesh(path)
        assert mesh.num_vertices == 8
        assert mesh.num_triangles == 12

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("")
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(MeshFormatError, match="out of range"):
            load_mesh(path)

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv zero 0 0\n")
        with pytest.raises(MeshFormatError, match="bad.obj:2"):
            load_mesh(path)

    def test_caller_arrays_do_not_alias_the_mesh(self):
        v = np.zeros((3, 3))
        t = np.array([[0, 1, 2]])
        p = np.zeros(3)
        mesh = TriMesh(v, t, {"p": p})
        v[0, 0] = 5.0
        t[0, 0] = 1
        p[0] = 5.0
        assert mesh.vertices[0, 0] == 0.0
        assert mesh.triangles[0, 0] == 0
        assert mesh.scalar_fields["p"][0] == 0.0
        moved = mesh.with_vertices(v).with_scalar_field("q", p)
        p[1] = 5.0
        assert moved.vertices[0, 0] == 5.0 and moved.scalar_fields["q"][1] == 0.0
        view = v.view()
        view.flags.writeable = False  # locked, but a view of an array the caller can write
        from_view = mesh.with_vertices(view)
        v[0, 0] = 7.0
        assert from_view.vertices[0, 0] == 5.0

    def test_obj_round_trip_is_lossless(self, tmp_path):
        mesh = icosphere(2, radius=1.7, center=(0.3, -0.2, 0.9))
        path = tmp_path / "sphere.obj"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(mesh.vertices, back.vertices)
        assert np.array_equal(mesh.triangles, back.triangles)

    def test_stl_round_trip_preserves_geometry(self, tmp_path):
        mesh = icosphere(1)
        path = tmp_path / "sphere.stl"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert back.num_triangles == mesh.num_triangles
        # vertices may be renumbered by welding; triangle corners must match
        a0, b0, c0 = mesh.corner_coordinates()
        a1, b1, c1 = back.corner_coordinates()
        assert np.array_equal(a0, a1) and np.array_equal(b0, b1) and np.array_equal(c0, c1)
        again = tmp_path / "sphere2.stl"
        save_mesh(back, again)
        assert np.array_equal(load_mesh(again).vertices, back.vertices)

    def test_stl_bytes_match_the_np_cross_writer(self, tmp_path):
        flat = TriMesh([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                       [[0, 1, 2], [0, 1, 3]])  # the first has zero area
        for mesh in deformed_demo_hulls()[:2] + [flat]:
            a, b, c = mesh.corner_coordinates()
            cross = np.cross(b - a, c - a)
            norms = np.linalg.norm(cross, axis=1)
            normals = cross / np.where(norms > 0.0, norms, 1.0)[:, None]
            facets = (mesh_module._STL_FACET * mesh.num_triangles) % tuple(
                np.hstack([normals, a, b, c]).ravel().tolist())
            path = tmp_path / "mesh.stl"
            save_mesh(mesh, path)
            assert path.read_bytes() == ("solid mesh\n" + facets + "endsolid mesh\n").encode()

    def test_format_follows_the_suffix(self, tmp_path):
        save_mesh(unit_cube(), tmp_path / "cube.STL")
        assert (tmp_path / "cube.STL").read_text().startswith("solid mesh\n")
        assert load_mesh(tmp_path / "cube.STL").num_triangles == 12
        for call in (lambda p: save_mesh(unit_cube(), p), load_mesh):
            with pytest.raises(ToolkitError, match=r"cube\.ply; expected a \.obj or \.stl"):
                call(tmp_path / "cube.ply")

    def test_refuses_nan_vertex(self, tmp_path):
        with pytest.raises(ToolkitError, match="non-finite"):
            mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]], [[0, 1, 2]])
            save_mesh(mesh, tmp_path / "nan.obj")

    @pytest.mark.parametrize("row", [[0.0, np.inf, 0.0], [-np.inf, 0.0, 1.0],
                                     [0.0, 0.0, np.nan]], ids=["inf", "-inf", "nan"])
    def test_mesh_refuses_non_finite_vertex(self, row):
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], row, row])
        message = re.escape(f"vertex 3 has a non-finite coordinate: {row}")
        with pytest.raises(MeshFormatError, match=message):
            TriMesh(vertices, [[0, 1, 2]])
        base = TriMesh(vertices[:3], [[0, 1, 2]])
        with pytest.raises(MeshFormatError, match="vertex 2 has a non-finite"):
            base.with_vertices(vertices[[0, 1, 3]])

    @pytest.mark.parametrize("name, text, shown", [
        ("plain.obj", "v 0 0 0\nv 1 nan 0\nv 0 1 0\nf 1 2 3\n", "[1.0, nan, 0.0]"),
        ("comment.obj", "# hull\nv 0 0 0\nv 1 0 0\nv 0 1 inf\nf 1 2 3\n",
         "[0.0, 1.0, inf]"),
        ("facet.stl", "solid s\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\n"
         "vertex 1 0 0\nvertex -inf 1 0\nendloop\nendfacet\nendsolid s\n",
         "[-inf, 1.0, 0.0]")], ids=["obj-bulk", "obj-lines", "stl"])
    def test_load_refuses_non_finite_vertex_naming_the_file(self, tmp_path, name, text,
                                                            shown):
        path = tmp_path / name
        path.write_text(text)
        vertex = 2 if name != "plain.obj" else 1
        for validate in (True, False):
            with pytest.raises(MeshFormatError) as raised:
                load_mesh(path, validate=validate)
            assert str(raised.value) == (
                f"{path}: vertex {vertex} has a non-finite coordinate: {shown}")

    def test_zero_triangle_mesh_saves(self, tmp_path):
        mesh = TriMesh(np.zeros((3, 3)) + np.eye(3), np.empty((0, 3), dtype=int))
        path = tmp_path / "points.obj"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert back.num_triangles == 0
        assert back.num_vertices == 3

    def test_degenerate_triangle_rejected_when_validating(self, tmp_path):
        path = tmp_path / "degen.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        with pytest.raises(MeshFormatError, match="degenerate"):
            load_mesh(path)
        mesh = load_mesh(path, validate=False)
        assert mesh.num_triangles == 1

    def test_non_triangle_face_rejected(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshFormatError, match="triangle"):
            load_mesh(path)


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
TEN_VERTICES = "".join(f"v {i} {i * i} {i % 3}\n" for i in range(10))

# every layout, record and number the OBJ readers treat differently
OBJ_CORPUS = {
    "plain": TRIANGLE + "f 1 2 3\n",
    "empty": "",
    "crlf": (TRIANGLE + "f 1 2 3\n").replace("\n", "\r\n"),
    "no trailing newline": TRIANGLE + "f 1 2 3",
    "leading whitespace": " " + TRIANGLE + "  f 1 2 3\n",
    "tab separators": "v\t0 0 0\nv 1\t0\t0\nv 0 1 0\nf\t1 2 3\n",
    "comment and blank lines": "# hull\n" + TRIANGLE + "\nf 1 2 3\n",
    "vn vt o records": "o hull\n" + TRIANGLE + "vn 0 0 1\nvt 0 0\nf 1 2 3\n",
    "interleaved v and f": "v 1 1 1\nf 1 2 3\nv 2 2 2\nv 3 3 3\n",
    "faces only": "f 1 2 3\n",
    "vertex with 4 coordinates": "v 0 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "vertex with 7 coordinates": "v 0 0 0 9 9 9 9\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "nan inf 1e400 -0": "v nan inf -inf\nv 1e400 -0 -nan\nv 0 1 -0.0\nf 1 2 3\n",
    "bad coordinate": "v 0 0 0\nv zero 0 0\nv 0 1 0\nf 1 2 3\n",
    "slash references": TRIANGLE + "f 1/1/1 2//2 3/3\n",
    "quad": TRIANGLE + "v 1 1 0\nf 1 2 3 4\n",
    "face with 2 corners": TRIANGLE + "f 1 2\n",
    "face index 0": TRIANGLE + "f 0 1 2\n",
    "face index -1": TRIANGLE + "f -1 1 2\n",
    "face index out of range": TRIANGLE + "f 1 2 4\n",
    "face index 2**70": TRIANGLE + f"f 1 2 {2 ** 70}\n",
    "face index 1.0": TRIANGLE + "f 1.0 2 3\n",
    "face index 1_0": TEN_VERTICES + "f 1_0 2 3\n",
    "two records on a line, then short lines": "v 1 2 3 v 4 5 6\nv 7\nv 8\nf 1 2 3\n",
    "two records on a line, then a blank line": "v 0 0 0 v 1 0 0\n\nv 0 1 0\nf 1 2 3\n",
    "vertices only": TEN_VERTICES,
    "lone CR line breaks": (TRIANGLE + "f 1 2 3\n").replace("\n", "\r"),
    "form feed line breaks": (TRIANGLE + "f 1 2 3\n").replace("\n", "\x0c"),
    "file separator line breaks": (TRIANGLE + "f 1 2 3\n").replace("\n", "\x1c"),
    "form feed inside a vertex record": "v 0 0\x0c0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "crlf, no trailing newline": (TRIANGLE + "f 1 2 3").replace("\n", "\r\n"),
    # as long as three `f a b c` lines, but only the first is a face record
    "padded lines of face length": TEN_VERTICES + "f 1 2 3\nff4 5 6\n  7 8 9\n",
    "face line ending in f": TEN_VERTICES + "f 1 2 3\n 4 5 6f\n",
    "double space in a face": TRIANGLE + "f 1  2 3\n",
    "space before a face's newline": TRIANGLE + "f 1 2 3 \n",
    "face index 01": TRIANGLE + "f 01 2 3\n",
    "face index +1": TRIANGLE + "f +1 2 3\n",
    "face index in Arabic-Indic digits": TRIANGLE + "f \u0661 2 3\n",
    "quad, then a face with 2 corners": TEN_VERTICES + "f 1 2 3 4\nf 5 6\n",
    "f inside a face line": TEN_VERTICES + "f 1 2 3\nf 1f2 3\n",
    "face index 2**63": TRIANGLE + f"f 1 2 {2 ** 63}\n",
}


def parse_outcome(parse):
    """The arrays' bits, shapes and dtypes, or the MeshFormatError message."""
    try:
        mesh = parse()
    except MeshFormatError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (mesh.vertices, mesh.triangles)]


class TestObjBulkParse:
    @pytest.mark.parametrize("text", OBJ_CORPUS.values(), ids=OBJ_CORPUS.keys())
    def test_load_matches_line_parser(self, tmp_path, text):
        path = tmp_path / "m.obj"
        path.write_bytes(text.encode())
        expected = parse_outcome(
            lambda: mesh_module._parse_obj_lines(path.read_text(), str(path)))
        assert parse_outcome(lambda: load_mesh(path, validate=False)) == expected
        # and on the text before a text-mode read turns "\r\n" and "\r" into "\n"
        assert (parse_outcome(lambda: mesh_module._parse_obj(text, "m"))
                == parse_outcome(lambda: mesh_module._parse_obj_lines(text, "m")))

    def test_written_files_take_the_bulk_path(self, tmp_path, monkeypatch):
        calls = []
        line_parser = mesh_module._parse_obj_lines

        def counting(text, origin):
            calls.append(origin)
            return line_parser(text, origin)

        monkeypatch.setattr(mesh_module, "_parse_obj_lines", counting)
        written = tmp_path / "sphere.obj"
        save_mesh(icosphere(2), written)
        crlf = tmp_path / "sphere-crlf.obj"
        crlf.write_bytes(written.read_bytes().replace(b"\n", b"\r\n"))
        shipped = files("morphreduce") / "data" / "demo_hull.obj"
        assert load_mesh(written).num_vertices == icosphere(2).num_vertices
        assert parse_outcome(lambda: load_mesh(crlf)) == parse_outcome(lambda: load_mesh(written))
        assert load_mesh(str(shipped)).num_vertices == demo_hull().num_vertices
        assert calls == []
        commented = tmp_path / "cube.obj"
        commented.write_text(CUBE_OBJ)
        load_mesh(commented)
        assert calls == [str(commented)]


class TestDerivedMeshTriangles:
    def test_derived_mesh_shares_the_locked_triangles(self):
        base = demo_hull(40, 20)
        moved = base.with_vertices(base.vertices * 1.5)
        fielded = moved.with_scalar_field("p", np.ones(base.num_vertices))
        for mesh in (moved, fielded):
            assert mesh.triangles is base.triangles
            assert not mesh.triangles.flags.writeable

    def test_public_constructor_copies_and_checks_the_triangles(self):
        base = unit_cube()
        again = TriMesh(base.vertices, base.triangles)
        assert again.triangles is not base.triangles
        assert np.array_equal(again.triangles, base.triangles)
        with pytest.raises(MeshFormatError, match=r"indices must lie in \[0, 7\)"):
            TriMesh(base.vertices[:7], base.triangles)

    def test_another_vertex_count_is_refused(self):
        base = unit_cube()
        fielded = base.with_scalar_field("p", np.ones(8))
        fewer, more = base.vertices[:7], np.vstack([base.vertices, [[2.0, 2.0, 2.0]]])
        for mesh in (base, fielded, fielded.with_vertices(base.vertices * 2.0)):
            for v, n in ((fewer, 7), (more, 9)):
                # the count is refused before the field's length is compared with it
                with pytest.raises(MeshFormatError, match=f"root's 8 vertices, got {n}$"):
                    mesh.with_vertices(v)


class TestScalarFields:
    def test_missing_field_errors(self):
        with pytest.raises(ToolkitError, match="no scalar field"):
            integrate_pressure_force(unit_cube(), "pressure")

    def test_field_length_must_match(self):
        with pytest.raises(ToolkitError):
            unit_cube().with_scalar_field("p", np.zeros(5))


class TestPressureForce:
    def test_single_triangle_hand_value(self):
        # area 0.5 in the z=0 plane, p = 2 everywhere -> p * A * n = (0, 0, 1)
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        mesh = mesh.with_scalar_field("p", [2.0, 2.0, 2.0])
        result = integrate_pressure_force(mesh, "p")
        np.testing.assert_allclose(result.force, [0.0, 0.0, 1.0], atol=1e-15)
        assert result.resistance == result.force[0]

    def test_closed_sphere_constant_pressure_vanishes_under_refinement(self):
        norms, floors = [], []
        for sub in (2, 3):
            mesh = icosphere(sub)
            mesh = mesh.with_scalar_field("p", np.full(mesh.num_vertices, 100.0))
            f = integrate_pressure_force(mesh, "p").force
            norms.append(np.linalg.norm(f))
            floors.append(1e-12 * 100.0 * mesh.num_triangles)
        a, b, c = icosphere(2).corner_coordinates()
        h_coarse = np.linalg.norm(np.concatenate([b - a, c - b, a - c]), axis=1).max()
        assert norms[0] < 100.0 * h_coarse  # |F| <= C h with C ~ p
        # constant fields cancel exactly in this quadrature, so refinement
        # either reduces |F| or leaves it at the roundoff floor
        assert norms[1] < norms[0] or norms[1] <= floors[1]

    def test_cube_hydrostatic_buoyancy(self):
        # p = -rho g z on the cube below the waterline; the integral of p n dA
        # equals grad(p) V = -rho g V e_z, so the buoyancy magnitude is rho g V
        rho, g = 1000.0, 9.81
        mesh = unit_cube(origin=(0.0, 0.0, -1.0))
        mesh = mesh.with_scalar_field("p", -rho * g * mesh.vertices[:, 2])
        force = integrate_pressure_force(mesh, "p").force
        assert abs(abs(force[2]) - rho * g * 1.0) < 0.01 * rho * g
        assert abs(force[0]) < 1e-9 and abs(force[1]) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        mesh = icosphere(2)
        p = rng.random(mesh.num_vertices)
        f0 = integrate_pressure_force(mesh.with_scalar_field("p", p), "p").force
        moved = mesh.with_vertices(mesh.vertices + [12.5, -3.0, 44.0])
        f1 = integrate_pressure_force(moved.with_scalar_field("p", p), "p").force
        np.testing.assert_allclose(f1, f0, rtol=1e-9, atol=1e-9 * np.abs(f0).max())

    def test_winding_check(self):
        mesh = unit_cube()
        open_mesh = TriMesh(mesh.vertices, mesh.triangles[:-1])
        open_mesh = open_mesh.with_scalar_field("p", np.zeros(8))
        with pytest.raises(MeshTopologyError):
            integrate_pressure_force(open_mesh, "p", check_winding=True)


class TestEnclosedVolume:
    def test_unit_cube_exact(self):
        assert enclosed_volume(unit_cube()) == 1.0

    def test_inward_cube_sign(self):
        assert enclosed_volume(unit_cube(inward=True)) == -1.0

    def test_icosphere_converges(self):
        exact = 4.0 * np.pi / 3.0
        vol = enclosed_volume(icosphere(3))
        assert abs(vol - exact) < 0.01 * exact

    def test_rotation_invariance(self):
        mesh = icosphere(2, radius=0.8)
        v0 = enclosed_volume(mesh)
        r = rotation_matrix([1.0, 2.0, -0.5], 1.234)
        v1 = enclosed_volume(mesh.with_vertices(mesh.vertices @ r.T))
        assert abs(v1 - v0) <= 1e-10 * abs(v0)

    def test_open_mesh_reports_boundary_edges(self):
        mesh = unit_cube()
        open_mesh = TriMesh(mesh.vertices, mesh.triangles[:-1])
        assert boundary_edge_count(open_mesh) == 3
        with pytest.raises(MeshTopologyError, match="3 boundary"):
            enclosed_volume(open_mesh)


def dict_loop_boundary_edge_count(mesh):
    """Reference: count directed edges, then judge each undirected edge once."""
    directed = {}
    for tri in mesh.triangles.tolist():
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            directed[e] = directed.get(e, 0) + 1
    bad = 0
    seen = set()
    for (i, j), count in directed.items():
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        if count != 1 or directed.get((j, i), 0) != 1:
            bad += 1
    return bad


class TestBoundaryEdgeCount:
    def test_matches_dict_loop_on_random_small_meshes(self):
        rng = np.random.default_rng(31)
        kinds = {"repeated": 0, "duplicated": 0}
        for _ in range(400):
            nv = int(rng.integers(1, 7))
            t = rng.integers(0, nv, (int(rng.integers(0, 10)), 3))
            if len(t) and rng.random() < 0.5:
                t = np.concatenate([t, t[rng.integers(0, len(t), 2)]])
                kinds["duplicated"] += 1
            if len(t) and ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
                           | (t[:, 0] == t[:, 2])).any():
                kinds["repeated"] += 1
            mesh = TriMesh(rng.random((nv, 3)), t)
            assert boundary_edge_count(mesh) == dict_loop_boundary_edge_count(mesh), t
        assert min(kinds.values()) > 50

    def test_matches_dict_loop_with_flipped_windings(self):
        rng = np.random.default_rng(32)
        for base in (unit_cube(), icosphere(1)):
            assert boundary_edge_count(base) == 0
            for _ in range(20):
                t = np.array(base.triangles)
                flip = rng.random(len(t)) < 0.2
                t[flip] = t[flip][:, ::-1]
                keep = rng.random(len(t)) < 0.9
                mesh = TriMesh(base.vertices, t[keep])
                assert boundary_edge_count(mesh) == dict_loop_boundary_edge_count(mesh)


class TestClosednessOncePerConnectivity:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = integrals.boundary_edge_count

        def counting(mesh):
            calls.append(mesh.num_triangles)
            return original(mesh)

        monkeypatch.setattr(integrals, "boundary_edge_count", counting)
        return calls

    def test_counted_once_across_derived_meshes(self, calls):
        base = icosphere(2)
        rng = np.random.default_rng(60)
        children = [base.with_vertices(base.vertices * (1.0 + 0.1 * rng.random((1, 3))))
                    for _ in range(3)]
        children.append(children[0].with_scalar_field("p", np.ones(base.num_vertices)))
        for mesh in children + [base]:
            enclosed_volume(mesh)
            volume_centroid(mesh)
            integrate_pressure_force(mesh.with_scalar_field("q", mesh.vertices[:, 2]),
                                     "q", check_winding=True)
        assert calls == [base.num_triangles]

    def test_other_triangles_do_not_share_the_cache(self, calls):
        base = icosphere(1)
        enclosed_volume(base)
        flipped = TriMesh(base.vertices, base.triangles[:, ::-1])
        assert enclosed_volume(flipped) < 0.0
        fresh = TriMesh(base.vertices, base.triangles)
        volume_centroid(fresh)
        assert len(calls) == 3
        open_mesh = TriMesh(base.vertices, base.triangles[:-1])
        for mesh in (open_mesh, open_mesh.with_vertices(2.0 * open_mesh.vertices)):
            with pytest.raises(MeshTopologyError, match="3 boundary"):
                volume_centroid(mesh)
        assert len(calls) == 4


def deformed_demo_hulls():
    """demo_hull(36, 18) and demo_hull(120, 60), each under two demo-lattice samples."""
    lattice, binding = load_ffd_json(files("morphreduce") / "data" / "demo_ffd.json")
    mus = sample_parameters(binding, 2, seed=5)
    return [deform_mesh(apply_parameters(lattice, binding, mu), demo_hull(nx, nr))
            for nx, nr in ((36, 18), (120, 60)) for mu in mus]


def np_cross_integrals(mesh):
    """surface_area, enclosed_volume and volume_centroid by np.cross and einsum."""
    a, b, c = mesh.corner_coordinates()
    area = float((0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)).sum())
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    volume = float(det.sum() / 6.0)
    moment = (det[:, None] * ((a + b + c) / 4.0)).sum(axis=0) / 6.0
    return area, volume, moment / volume


class TestIntegralsBitwise:
    """The memoized one-pass integrals equal the np.cross/einsum formulas bit for bit."""

    def test_cross_matches_np_cross(self):
        rng = np.random.default_rng(70)
        u = extreme_values(rng, 3000).reshape(-1, 3)
        v = rng.permutation(extreme_values(rng, 3000)).reshape(-1, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            out, ref = mesh_module._cross(u, v), np.cross(u, v)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_deformed_demo_hulls(self):
        for mesh in deformed_demo_hulls():
            area, volume, centroid = np_cross_integrals(mesh)
            for _ in range(2):  # computed, then memoized
                assert np.array_equal(surface_area(mesh), area)
                assert np.array_equal(enclosed_volume(mesh), volume)
                assert np.array_equal(volume_centroid(mesh), centroid)

    def test_derived_mesh_never_sees_the_parents_values(self):
        base = deformed_demo_hulls()[0]
        enclosed_volume(base)
        volume_centroid(base)
        scale = np.array([1.5, 0.5, 2.0])
        for child in (base.with_vertices(base.vertices * scale),
                      base.with_vertices(base.vertices + 1.0)):
            _, volume, centroid = np_cross_integrals(child)
            assert np.array_equal(volume_centroid(child), centroid)
            assert np.array_equal(enclosed_volume(child), volume)
        assert np.array_equal(volume_centroid(base), np_cross_integrals(base)[2])

    def test_open_mesh_raises_on_every_call(self):
        base = demo_hull(36, 18)
        open_mesh = TriMesh(base.vertices, base.triangles[:-1])
        for _ in range(2):
            for integral in (enclosed_volume, volume_centroid):
                with pytest.raises(MeshTopologyError, match="3 boundary"):
                    integral(open_mesh)

    def test_zero_volume_centroid_raises_on_every_call(self):
        # one triangle twice, oppositely wound, off the origin: closed, volume exactly 0
        sheet = TriMesh([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                        [[0, 1, 2], [0, 2, 1]])
        assert enclosed_volume(sheet) == 0.0
        for _ in range(2):
            with pytest.raises(DomainError, match="zero enclosed volume"):
                volume_centroid(sheet)


def assert_integrals_match_np_cross(mesh):
    area, volume, centroid = np_cross_integrals(mesh)
    for _ in range(2):  # computed, then memoized
        assert np.array_equal(np.float64(surface_area(mesh)).view(np.int64),
                              np.float64(area).view(np.int64))
        assert np.array_equal(np.float64(enclosed_volume(mesh)).view(np.int64),
                              np.float64(volume).view(np.int64))
        assert np.array_equal(volume_centroid(mesh).view(np.int64), centroid.view(np.int64))


class TestIntegralsReuse:
    """Meshes derived from one root recompute only the triangles whose corners
    moved from the root's, and still equal the np.cross formulas bit for bit."""

    def test_derived_meshes_match_np_cross(self, tmp_path):
        rng = np.random.default_rng(80)
        hull = deformed_demo_hulls()[0]
        base_v = np.array(hull.vertices)
        base_v[10, 1] = 0.0
        first = base_v.copy()
        first[0:5] += 1e-3 * rng.standard_normal((5, 3))
        second = base_v.copy()
        second[3:40] += 1e-3 * rng.standard_normal((37, 3))
        second[10, 1] = -0.0  # equal to base_v under ==, bitwise another row
        third = first.copy()
        third[200] *= 1.01
        everywhere = 1.25 * base_v
        base = TriMesh(base_v, hull.triangles)
        path = tmp_path / "m.obj"
        # the base itself comes last, after every derived mesh
        sequence = [base.with_vertices(v)
                    for v in (first, second, first, third, everywhere, second)]
        for k, mesh in enumerate(sequence + [base]):
            if k % 2:  # integrals after the mesh was written, else before
                save_mesh(mesh, path)
            assert_integrals_match_np_cross(mesh)
            if not k % 2:
                save_mesh(mesh, path)
            assert path.read_bytes() == per_vertex_obj_text(mesh).encode()
            expected = (mesh.vertices.view(np.int64) != base_v.view(np.int64)).any(axis=1)
            assert np.array_equal(mesh.moved_rows(), expected)
        assert sequence[4].moved_rows().all()
        assert sequence[1].moved_rows()[10] and not sequence[0].moved_rows()[10]
        assert not base.moved_rows().any()

    def test_concurrent_integrals_match_np_cross(self, tmp_path):
        base = icosphere(2)
        rng = np.random.default_rng(81)
        meshes = []
        for k in range(16):
            v = np.array(base.vertices)
            rows = rng.choice(len(v), 20, replace=False)
            v[rows] += rng.standard_normal((20, 3)) * 10.0 ** -k
            meshes.append(base.with_vertices(v))
        # the fresh base's first volume_centroid builds its terms inside its integrals
        meshes.append(base)
        expected = [np_cross_integrals(mesh) for mesh in meshes]
        errors = []

        def worker(w):
            for j in range(len(meshes)):
                k = (j + 2 * w) % len(meshes)
                mesh, (area, volume, centroid) = meshes[k], expected[k]
                if (j + w) % 2:
                    save_mesh(mesh, tmp_path / f"{w}.obj")
                got = (volume_centroid(mesh), enclosed_volume(mesh), surface_area(mesh))
                if not (np.array_equal(got[0].view(np.int64), centroid.view(np.int64))
                        and (got[1], got[2]) == (volume, area)):
                    errors.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_open_mesh_has_an_area_and_no_volume(self):
        base = deformed_demo_hulls()[0]
        open_mesh = TriMesh(base.vertices, base.triangles[:-1])
        v = np.array(open_mesh.vertices)
        v[:50] += 0.01
        for mesh in (open_mesh, open_mesh.with_vertices(v)):
            for area_first in (False, True):
                if area_first:
                    assert surface_area(mesh) == np_cross_integrals(mesh)[0]
                for integral in (enclosed_volume, volume_centroid):
                    with pytest.raises(MeshTopologyError, match="3 boundary"):
                        integral(mesh)
                if not area_first:  # the root's memo keeps its closedness count
                    assert "integrals" not in mesh._memo._entries

    def test_root_with_a_filled_memo_is_freed_by_refcount(self, tmp_path):
        root = icosphere(2)
        child = root.with_vertices(root.vertices * 1.5)
        for mesh in (root, child):
            save_mesh(mesh, tmp_path / "m.obj")
            volume_centroid(mesh)
        assert child.root is root and root.root is root
        assert {"integrals", "obj_vertex_lines", "triangle_terms"} <= set(root._memo._entries)
        ref = weakref.ref(root)
        gc.disable()
        try:
            del root, mesh
            assert ref() is not None  # the child still holds its root
            del child
            assert ref() is None
        finally:
            gc.enable()


class TestVolumeCentroid:
    @pytest.mark.parametrize("mesh", [unit_cube(),
                                      icosphere(2, radius=0.8, center=(0.3, -0.2, 0.9))])
    def test_first_moment_over_enclosed_volume(self, mesh):
        centroid = volume_centroid(mesh)
        assert np.array_equal(centroid, np_cross_integrals(mesh)[2])
        np.testing.assert_allclose(centroid, mesh.vertices.mean(axis=0), atol=1e-12)


class TestIttc57:
    def test_reference_point(self):
        assert ittc57_friction_coefficient(1e7) == 0.003
        assert ittc57_drag(1e7, density=1000.0, speed=1.0, wetted_area=1.0) == 1.5

    def test_higher_reynolds(self):
        assert ittc57_friction_coefficient(1e8) == pytest.approx(0.075 / 36.0, rel=1e-14)

    def test_low_reynolds_domain_error(self):
        with pytest.raises(DomainError):
            ittc57_friction_coefficient(50.0)

    def test_positivity_guards(self):
        with pytest.raises(DomainError):
            ittc57_drag(1e6, density=-1.0, speed=1.0, wetted_area=1.0)


def test_surface_area_of_cube():
    assert surface_area(unit_cube()) == pytest.approx(6.0, rel=1e-14)

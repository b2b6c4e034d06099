import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from morphreduce import activesubspace as asub, cli, dmd
from morphreduce.activesubspace import save_sample_table, SampleTable
from morphreduce.campaign import AnalysisSettings, SampleRecord, analyze_campaign
from morphreduce.ffd import BindingEntry, FFDLattice, ParameterBinding, save_ffd_json
from morphreduce.geometry import icosphere, load_mesh, save_mesh


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "morphreduce", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def snapshots_csv(tmp_path):
    rng = np.random.default_rng(0)
    theta = 0.2
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    data = np.empty((2, 15))
    data[:, 0] = [1.0, 0.2]
    for k in range(14):
        data[:, k + 1] = r @ data[:, k]
    snaps = dmd.SnapshotSet(data, t0=0.0, dt=0.5)
    path = tmp_path / "snaps.csv"
    dmd.save_snapshots_csv(snaps, path)
    return path, snaps


@pytest.fixture
def ffd_doc(tmp_path):
    lattice = FFDLattice([-1.5, -1.5, -1.5], np.diag([3.0, 3.0, 3.0]), (3, 3, 3))
    binding = ParameterBinding(
        [BindingEntry(p, (1, 1, 1), p % 3, 1.0) for p in range(2)],
        bounds=np.tile([-0.3, 0.3], (2, 1)))
    path = tmp_path / "ffd.json"
    save_ffd_json(path, lattice, binding)
    return path


class TestExitProtocol:
    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "morphreduce" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ("ffd", "deform", "--help"),
        ("ffd", "sample", "--help"),
        ("dmd", "fit", "--help"),
        ("dmd", "predict", "--help"),
        ("as", "analyze", "--help"),
        ("rigidbody", "simulate", "--help"),
        ("campaign", "run", "--help"),
        ("campaign", "analyze", "--help"),
    ])
    def test_subcommand_help(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()

    def test_missing_input_file_is_io_error(self, tmp_path):
        proc = run_cli("dmd", "fit", "--in", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "model.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: io_not_found:")

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("dmd", "fit", "--frobnicate")
        assert proc.returncode == 2

    def test_unwritable_output_is_io_error(self, tmp_path, ffd_doc):
        blocker = tmp_path / "file"
        blocker.write_text("")
        proc = run_cli("ffd", "sample", "--lattice", str(ffd_doc), "--n", "3",
                       "--seed", "1", "--out", str(blocker / "x.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: io_error:")
        assert proc.stderr.rstrip().endswith(f"'{blocker / 'x.csv'}'")  # not its .tmp

    def test_flag_the_command_ignores_is_usage_error(self, tmp_path):
        proc = run_cli("dmd", "predict", "--model", str(tmp_path / "m.json"),
                       "--t", "1", "--seed", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("ffd", "sample", "--lattice", "x.json", "--n", "3", "--seed", "-1"),
        ("as", "analyze", "--in", "t.csv", "--seed", "-2"),
        ("as", "analyze", "--in", "t.csv", "--split-seed", "-1"),
        ("as", "analyze", "--in", "t.csv", "--boot", "-3"),
        ("as", "analyze", "--in", "t.csv", "--boot", "2.5"),
        ("campaign", "run", "--config", "demo", "--seed", "-1"),
    ], ids=["sample-seed", "as-seed", "as-split-seed", "as-boot", "as-boot-float",
            "campaign-seed"])
    def test_negative_seed_or_count_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "out"
        proc = run_cli(*argv, *(() if argv[0] == "campaign" else ("--out", str(out))))
        assert proc.returncode == 2
        assert f"error: argument {argv[-2]}: expected an integer >= 0, got '{argv[-1]}'" \
            in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "1.5"])
    def test_thread_count_below_one_is_usage_error(self, tmp_path, value):
        out = tmp_path / "run"
        proc = run_cli("campaign", "run", "--config", "demo", "--out", str(out),
                       "--threads", value)
        assert proc.returncode == 2
        assert f"error: argument --threads: expected an integer >= 1, got '{value}'" \
            in proc.stderr, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, file_name, text, message", [
        (("campaign", "analyze", "--run-dir", "{dir}"), "manifest.json", "{}",
         "KeyError: 'records'"),
        (("campaign", "analyze", "--run-dir", "{dir}"), "manifest.json",
         '{"bounds": [[0, 1]], "records": [{"index": 0, "status": "ok"}]}',
         "KeyError: 'mu'"),
        (("dmd", "predict", "--model", "{file}", "--t", "1"), "model.json", "[]",
         "expected a JSON object"),
        (("rigidbody", "simulate", "--config", "{file}", "--t-end", "1", "--dt", "0.1",
          "--out", "{dir}/traj.csv"), "body.json", "[]", "expected a JSON object"),
        (("ffd", "sample", "--lattice", "{file}", "--n", "3", "--seed", "1",
          "--out", "{dir}/mus.csv"), "ffd.json", "[]", "expected a JSON object"),
        (("campaign", "analyze", "--run-dir", "{dir}"), "manifest.json",
         '{"bounds": [[0, 1]], "records": [], "config": {"analysis": {"bogus": 1}}}',
         "TypeError"),
        (("campaign", "analyze", "--run-dir", "{dir}"), "manifest.json",
         '{"bounds": [[0, 1]], "records": [], "config": []}', "AttributeError"),
        # numpy words CSV errors differently across versions: only path and code are matched
        (("as", "analyze", "--in", "{file}", "--out", "{dir}/as.json"), "table.csv",
         "mu_1,f\n0.5,1\n0.25,x\n", ""),
        (("as", "analyze", "--in", "{file}", "--out", "{dir}/as.json"), "table.csv",
         "mu_1,f\n0.5,1\n0.25\n", ""),
        (("as", "analyze", "--in", "{file}", "--out", "{dir}/as.json"), "table.csv",
         "mu_1,mu_2,f\n", "expected header"),
        (("as", "analyze", "--in", "{file}", "--out", "{dir}/as.json"), "table.csv",
         "mu_1,f\n0.5,1\n0.25,2 # a cell, not a comment\n0.75,3\n", ""),
        (("dmd", "fit", "--in", "{file}", "--out", "{dir}/model.json"), "snaps.csv",
         "0,0.5\n1,2,3\n4,5,x\n", ""),
        (("dmd", "fit", "--in", "{file}", "--out", "{dir}/model.json"), "snaps.csv",
         "0,0.5\n1,2,3\n4,5\n", ""),
    ], ids=["manifest-without-records", "record-without-mu", "model-array",
            "body-array", "lattice-array", "manifest-analysis-unknown-key",
            "manifest-config-array", "table-non-number", "table-short-row",
            "table-header-only", "table-hash-cell", "snapshots-non-number",
            "snapshots-short-row"])
    def test_malformed_document_is_config_error(self, tmp_path, argv, file_name, text,
                                                message):
        (tmp_path / file_name).write_text(text)
        proc = run_cli(*(a.format(dir=tmp_path, file=tmp_path / file_name) for a in argv))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: config: {tmp_path / file_name}: "), proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("analysis, message", [
        ({"degree": "x"}, "analysis degree must be an int in [1, 6], got 'x'"),
        ({"degree": True}, "analysis degree must be an int in [1, 6], got True"),
        ({"n_boot": -1}, "analysis n_boot must be an int >= 0, got -1"),
        ({"rule": "biggest-gap"}, "analysis rule must be one of"),
        ({"split_fraction": 1.5}, "analysis split_fraction must lie in (0, 1), got 1.5"),
    ], ids=["degree-string", "degree-bool", "n-boot-negative", "rule-unknown",
            "split-fraction-above-one"])
    def test_bad_analysis_setting_names_manifest(self, tmp_path, analysis, message):
        # no records: an analysis that started would fail with a domain error instead
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"bounds": [[0, 1]], "records": [],
                                        "config": {"analysis": analysis}}))
        proc = run_cli("campaign", "analyze", "--run-dir", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: config: {manifest}: bad config "
                                      "(ConfigError: "), proc.stderr
        assert message in proc.stderr
        assert proc.stderr.count(str(manifest)) == 1

    def test_domain_error_reported_with_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,header\n")
        proc = run_cli("dmd", "fit", "--in", str(bad),
                       "--out", str(tmp_path / "model.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config:")


class TestFloatOptionValues:
    """A value such as -inf after a float option reaches the command's own check."""

    @pytest.fixture
    def inputs(self, tmp_path, snapshots_csv):
        model = tmp_path / "model.json"
        assert cli.main(["dmd", "fit", "--in", str(snapshots_csv[0]),
                         "--out", str(model)]) == 0
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"mass": 1.0, "inertia": np.eye(3).tolist()}))
        table = tmp_path / "table.csv"
        table.write_text("mu_1,mu_2,f\n0.1,0.2,1\n0.3,0.1,2\n")
        return {"model": model, "body": body, "table": table, "dir": tmp_path}

    @pytest.mark.parametrize("argv, flag, value, message", [
        (["dmd", "predict", "--model", "{model}"], "--t", "-inf",
         "domain: time must be finite, got -inf"),
        (["dmd", "predict", "--model", "{model}"], "--t", "-nan",
         "domain: time must be finite, got nan"),
        (["dmd", "predict", "--model", "{model}"], "--t", "-1e-3",
         "domain: time -0.001 precedes the training start 0.0"),
        (["rigidbody", "simulate", "--config", "{body}", "--dt", "0.1", "--out",
          "{dir}/traj.csv"], "--t-end", "-inf", "domain: time must be finite, got -inf"),
        (["rigidbody", "simulate", "--config", "{body}", "--t-end", "1", "--out",
          "{dir}/traj.csv"], "--dt", "-nan",
         "domain: time step must be finite and positive, got nan"),
        (["rigidbody", "simulate", "--config", "{body}", "--t-end", "1", "--out",
          "{dir}/traj.csv"], "--dt", "-1E-4",
         "domain: time step must be finite and positive, got -0.0001"),
        # the split fraction is an analysis setting, checked with the config code
        (["as", "analyze", "--in", "{table}", "--seed", "1", "--out", "{dir}/as.json"],
         "--split", "-inf", "config: analysis split_fraction must lie in (0, 1), got -inf"),
    ], ids=["predict-t-inf", "predict-t-nan", "predict-t-exponent", "simulate-t-end-inf",
            "simulate-dt-nan", "simulate-dt-exponent", "analyze-split-inf"])
    @pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
    def test_negative_value_reaches_the_check(self, inputs, capsys, argv, flag, value,
                                              message, joined):
        argv = [a.format(**inputs) for a in argv]
        argv += [f"{flag}={value}"] if joined else [flag, value]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
        assert not (inputs["dir"] / "traj.csv").exists()

    def test_entry_point_passes_the_value(self, inputs):
        proc = run_cli("dmd", "predict", "--model", str(inputs["model"]), "--t", "-inf")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: domain: time must be finite, got -inf\n"

    def test_only_float_values_of_float_options_are_joined(self):
        cli.build_parser()  # registers the float options
        assert cli._join_float_values(
            ["--t", "-inf", "--dt", "-0.5", "--split", "-x", "--seed", "-1e3",
             "--t-end=-nan", "--t-end", "--dt"]) == [
            "--t=-inf", "--dt=-0.5", "--split", "-x", "--seed", "-1e3", "--t-end=-nan",
            "--t-end", "--dt"]


class TestDmdCommands:
    def test_fit_matches_library_bytes(self, tmp_path, snapshots_csv):
        path, snaps = snapshots_csv
        out_cli = tmp_path / "cli_model.json"
        proc = run_cli("dmd", "fit", "--in", str(path), "--out", str(out_cli))
        assert proc.returncode == 0, proc.stderr
        out_lib = tmp_path / "lib_model.json"
        dmd.save_model_json(dmd.fit(dmd.load_snapshots_csv(path)), out_lib)
        assert out_cli.read_bytes() == out_lib.read_bytes()

    def test_explicit_rank_flag(self, tmp_path, snapshots_csv):
        path, _ = snapshots_csv
        out = tmp_path / "model.json"
        proc = run_cli("dmd", "fit", "--in", str(path), "--rank", "2",
                       "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["rank"] == 2

    def test_fit_refuses_a_nan_snapshot(self, tmp_path, snapshots_csv):
        path, snaps = snapshots_csv
        data = snaps.data.copy()
        data[1, 6] = np.nan
        dmd.save_snapshots_csv(dmd.SnapshotSet(data, snaps.t0, snaps.dt), path)
        out = tmp_path / "model.json"
        proc = run_cli("dmd", "fit", "--in", str(path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: domain: snapshot data must be finite"), \
            proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_fit_refuses_a_nan_start_time(self, tmp_path):
        path = tmp_path / "snaps.csv"
        path.write_text("nan,0.1\n1,0.9,0.81,0.729\n2,1.8,1.62,1.458\n")
        out = tmp_path / "model.json"
        proc = run_cli("dmd", "fit", "--in", str(path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: domain: snapshot t0 must be finite, got nan"), \
            proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_predict_prints_state(self, tmp_path, snapshots_csv):
        path, snaps = snapshots_csv
        model_path = tmp_path / "model.json"
        run_cli("dmd", "fit", "--in", str(path), "--out", str(model_path))
        proc = run_cli("dmd", "predict", "--model", str(model_path), "--t", "2.0")
        assert proc.returncode == 0
        got = np.array([float(v) for v in proc.stdout.strip().split(",")])
        np.testing.assert_allclose(got, snaps.data[:, 4], atol=1e-8)

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_predict_refuses_a_non_finite_time(self, tmp_path, snapshots_csv, t):
        path, _ = snapshots_csv
        model_path = tmp_path / "model.json"
        run_cli("dmd", "fit", "--in", str(path), "--out", str(model_path))
        proc = run_cli("dmd", "predict", "--model", str(model_path), f"--t={t}")
        assert proc.returncode == 1
        assert proc.stderr == f"error: domain: time must be finite, got {t}\n"
        assert proc.stdout == ""


class TestFfdCommands:
    def test_deform_identity_matches_library(self, tmp_path, ffd_doc):
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(1), mesh_path)
        out_cli = tmp_path / "cli.obj"
        proc = run_cli("ffd", "deform", "--lattice", str(ffd_doc),
                       "--mu", "0.0,0.0", "--in", str(mesh_path),
                       "--out", str(out_cli))
        assert proc.returncode == 0, proc.stderr
        out_lib = tmp_path / "lib.obj"
        save_mesh(load_mesh(mesh_path), out_lib)
        assert out_cli.read_bytes() == out_lib.read_bytes()

    def test_deform_moves_vertices(self, tmp_path, ffd_doc):
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(1), mesh_path)
        out = tmp_path / "deformed.obj"
        proc = run_cli("ffd", "deform", "--lattice", str(ffd_doc),
                       "--mu", "0.25,-0.1", "--in", str(mesh_path),
                       "--out", str(out))
        assert proc.returncode == 0
        moved = load_mesh(out)
        base = load_mesh(mesh_path)
        assert not np.array_equal(moved.vertices, base.vertices)
        assert np.array_equal(moved.triangles, base.triangles)

    @pytest.mark.parametrize("suffix", [".stl", ".obj"])
    def test_deform_binary_mesh_is_mesh_format_error(self, tmp_path, ffd_doc, suffix):
        part = tmp_path / f"part{suffix}"
        # binary STL: 80-byte header, facet count, normal + 3 corners, attribute
        part.write_bytes(b"solid part".ljust(80, b"\0") + (1).to_bytes(4, "little")
                         + np.array([0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 1, 0], "<f4").tobytes()
                         + bytes(2))
        out = tmp_path / "o.obj"
        proc = run_cli("ffd", "deform", "--lattice", str(ffd_doc), "--in", str(part),
                       "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: mesh_format: {part}: not a text OBJ / ASCII STL file"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("suffix, token", [(".obj", "inf"), (".obj", "nan"),
                                               (".stl", "-inf")])
    def test_deform_non_finite_vertex_is_mesh_format_error(self, tmp_path, ffd_doc,
                                                           suffix, token):
        part = tmp_path / f"part{suffix}"
        save_mesh(icosphere(1), part)
        lines = part.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.split()[0] in ("v", "vertex"))
        lines[first] = f"{lines[first].split()[0]} {token} 0 0\n"
        part.write_text("".join(lines))
        out = tmp_path / "o.obj"
        proc = run_cli("ffd", "deform", "--lattice", str(ffd_doc), "--in", str(part),
                       "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: mesh_format: {part}: vertex 0 has a non-finite coordinate: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_deform_fractional_binding_parameter_is_config_error(self, tmp_path, ffd_doc):
        doc = json.loads(ffd_doc.read_text())
        doc["binding"]["entries"][0]["parameter"] = 0.5
        ffd_doc.write_text(json.dumps(doc))
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(1), mesh_path)
        out = tmp_path / "o.obj"
        proc = run_cli("ffd", "deform", "--lattice", str(ffd_doc), "--mu", "0.1,0.1",
                       "--in", str(mesh_path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: config: {ffd_doc}: binding parameter must be an int >= 0, got 0.5"), \
            proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_deform_four_entry_binding_index_is_config_error(self, tmp_path, ffd_doc):
        doc = json.loads(ffd_doc.read_text())
        doc["binding"]["entries"][0]["index"] = [1, 1, 1, 0]
        ffd_doc.write_text(json.dumps(doc))
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(1), mesh_path)
        out = tmp_path / "o.obj"
        proc = run_cli("ffd", "deform", "--lattice", str(ffd_doc), "--mu", "0.1,0.1",
                       "--in", str(mesh_path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: config: {ffd_doc}: binding entry 0 index (1, 1, 1, 0) outside lattice "
            "counts (3, 3, 3)"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_sample_writes_table(self, tmp_path, ffd_doc):
        out = tmp_path / "samples.csv"
        proc = run_cli("ffd", "sample", "--lattice", str(ffd_doc), "--n", "10",
                       "--seed", "4", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu_1,mu_2"
        assert len(lines) == 11

    @pytest.mark.parametrize("field, message", [
        ("bounds", "binding bounds must be finite"),
        ("weight", "binding weight must be a finite number, got nan")])
    def test_sample_refuses_a_nan_binding(self, tmp_path, ffd_doc, field, message):
        doc = json.loads(ffd_doc.read_text())
        if field == "bounds":
            doc["binding"]["bounds"][1][0] = float("nan")
        else:
            doc["binding"]["entries"][0]["weight"] = float("nan")
        ffd_doc.write_text(json.dumps(doc))
        out = tmp_path / "samples.csv"
        proc = run_cli("ffd", "sample", "--lattice", str(ffd_doc), "--n", "3",
                       "--seed", "4", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: config: {ffd_doc}: {message}"), proc.stderr
        assert not out.exists()

    def test_sample_without_seed_prints_one(self, tmp_path, ffd_doc):
        out = tmp_path / "samples.csv"
        proc = run_cli("ffd", "sample", "--lattice", str(ffd_doc), "--n", "3",
                       "--out", str(out))
        assert proc.returncode == 0
        assert "seed:" in proc.stderr


class TestAsCommand:
    def test_analyze_writes_report_and_plot_data(self, tmp_path):
        rng = np.random.default_rng(1)
        m = 4
        x = rng.uniform(-0.3, 0.3, (120, m))
        c = np.array([1.0, -0.5, 0.25, 2.0])
        c /= np.linalg.norm(c)
        f = 2.0 * (x @ c) + (x @ c) ** 2
        table_path = tmp_path / "samples.csv"
        save_sample_table(SampleTable(x, f), table_path)
        report_path = tmp_path / "report.json"
        plots = tmp_path / "plots"
        proc = run_cli("as", "analyze", "--in", str(table_path),
                       "--boot", "20", "--degree", "4", "--split", "0.75",
                       "--seed", "7", "--bounds=-0.3,0.3",
                       "--out", str(report_path), "--plot-data", str(plots))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(report_path.read_text())
        assert report["active_dim"] == 1
        assert report["surface"]["normalized_test_error"] < 0.05
        for name in ("eigenvalues.csv", "bootstrap.csv", "summary_1d.csv",
                     "summary_2d.csv"):
            assert (plots / name).exists()

    def test_plot_data_matches_campaign_analysis(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.3, 0.3, (80, 3))
        f = np.sin(3.0 * x[:, 0] - x[:, 2]) + 0.1 * x[:, 1]
        table_path = tmp_path / "samples.csv"
        save_sample_table(SampleTable(x, f), table_path)
        plots = tmp_path / "plots"
        proc = run_cli("as", "analyze", "--in", str(table_path), "--boot", "15",
                       "--degree", "2", "--split", "0.7", "--split-seed", "3",
                       "--seed", "9", "--bounds=-0.3,0.3",
                       "--out", str(tmp_path / "report.json"), "--plot-data", str(plots))
        assert proc.returncode == 0, proc.stderr
        records = [SampleRecord(i, x[i], "ok", {"f": float(v)}) for i, v in enumerate(f)]
        settings = AnalysisSettings(degree=2, split_fraction=0.7, n_boot=15, seed=9,
                                    split_seed=3)
        analyze_campaign(records, np.tile([-0.3, 0.3], (3, 1)), settings, outputs=("f",),
                         out_dir=tmp_path / "analysis")
        for name in ("eigenvalues.csv", "bootstrap.csv", "summary_1d.csv",
                     "summary_2d.csv"):
            with open(plots / name, newline="") as fh:
                cli_rows = list(csv.reader(fh))
            with open(tmp_path / "analysis" / name, newline="") as fh:
                campaign_rows = list(csv.reader(fh))
            assert campaign_rows[0][0] == "output"
            assert [row[1:] for row in campaign_rows] == cli_rows
            assert len(cli_rows) > 1

    @pytest.mark.parametrize("header, cell", [
        ("mu_1,mu_2,f", "nan,0.5,1"), ("mu_1,mu_2,f", "0.25,0.5,inf"),
        ("mu_1,mu_2,f", "0.25,0.5,nan"), ("mu_1,mu_2,f,g_1,g_2", "0.25,0.5,1,nan,0")],
        ids=["nan-mu", "inf-f", "nan-f", "nan-g"])
    def test_non_finite_table_is_domain_error(self, tmp_path, header, cell):
        rng = np.random.default_rng(3)
        width = header.count(",") + 1
        rows = [",".join(f"{v:.6f}" for v in rng.uniform(-1, 1, width)) for _ in range(30)]
        table_path = tmp_path / "samples.csv"
        table_path.write_text("\n".join([header, *rows[:10], cell, *rows[10:]]) + "\n")
        out = tmp_path / "report.json"
        proc = run_cli("as", "analyze", "--in", str(table_path), "--seed", "1",
                       "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: domain:"), proc.stderr
        assert "must be finite" in proc.stderr and "row 10 " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--split", "1.5"], "analysis split_fraction must lie in (0, 1), got 1.5"),
        (["--degree", "9"], "analysis degree must be an int in [1, 6], got 9"),
        (["--dim", "0"], "analysis explicit_dim must be an int >= 1, got 0"),
        (["--rule", "explicit"], "analysis explicit_dim must be set for the explicit rule"),
    ], ids=["split", "degree", "dim", "explicit-without-dim"])
    def test_bad_setting_rejected_before_analysis(self, tmp_path, flags, message):
        # a constant output never reaches the surface fit
        rng = np.random.default_rng(4)
        table_path = tmp_path / "const.csv"
        save_sample_table(SampleTable(rng.uniform(-1, 1, (40, 3)), np.ones(40)), table_path)
        out = tmp_path / "report.json"
        proc = run_cli("as", "analyze", "--in", str(table_path), "--seed", "1",
                       "--out", str(out), *flags)
        assert proc.returncode == 1
        assert proc.stderr == f"error: config: {message}\n"
        assert not out.exists()

    def test_explicit_dim_of_table_rejected_before_gradients(self, tmp_path, monkeypatch,
                                                            capsys):
        def no_gradients(*args, **kwargs):
            raise AssertionError("gradients estimated for an impossible explicit_dim")

        monkeypatch.setattr(asub, "estimate_gradients", no_gradients)
        rng = np.random.default_rng(5)
        table_path = tmp_path / "five.csv"
        x = rng.uniform(-1, 1, (40, 5))
        save_sample_table(SampleTable(x, x @ np.arange(1.0, 6.0)), table_path)
        out = tmp_path / "report.json"
        code = cli.main(["as", "analyze", "--in", str(table_path), "--seed", "1",
                         "--out", str(out), "--rule", "explicit", "--dim", "9"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: domain: explicit active dimension must be in [1, 5)\n")
        assert not out.exists()

    @pytest.mark.parametrize("rule_flags", [
        ["--rule", "largest-gap"], ["--rule", "threshold"], ["--rule", "explicit", "--dim", "1"],
    ], ids=["largest-gap", "threshold", "explicit"])
    def test_one_parameter_table_rejected_before_gradients(self, tmp_path, monkeypatch,
                                                           capsys, rule_flags):
        def no_gradients(*args, **kwargs):
            raise AssertionError("gradients estimated for a one-parameter table")

        monkeypatch.setattr(asub, "estimate_gradients", no_gradients)
        x = np.random.default_rng(6).uniform(-1, 1, (40, 1))
        table_path = tmp_path / "one.csv"
        save_sample_table(SampleTable(x, x[:, 0] ** 2), table_path)
        out = tmp_path / "report.json"
        code = cli.main(["as", "analyze", "--in", str(table_path), "--seed", "1",
                         "--out", str(out), *rule_flags])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: domain: active-subspace analysis needs at least 2 parameters, got 1\n")
        assert not out.exists()


class TestRigidBodyCommand:
    def test_simulate_free_fall(self, tmp_path):
        config = {
            "mass": 1.0,
            "inertia": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "initial": {"position": [0, 0, 0]},
        }
        cfg = tmp_path / "body.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "traj.csv"
        proc = run_cli("rigidbody", "simulate", "--config", str(cfg),
                       "--t-end", "1.0", "--dt", "0.01", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = out.read_text().splitlines()
        assert len(rows) == 102
        z_final = float(rows[-1].split(",")[3])
        assert abs(z_final - (-0.5 * 9.81)) < 1e-10

    @pytest.mark.parametrize("key, value, message", [
        ("quaternion", [float("nan"), 0, 0, 0], "state quaternion must be finite"),
        ("velocity", [float("nan"), 0, 0], "state velocity must be finite")])
    def test_nan_initial_state_is_domain_error(self, tmp_path, key, value, message):
        cfg = tmp_path / "body.json"
        cfg.write_text(json.dumps({"mass": 1.0, "inertia": np.eye(3).tolist(),
                                   "initial": {key: value}}))
        out = tmp_path / "traj.csv"
        proc = run_cli("rigidbody", "simulate", "--config", str(cfg),
                       "--t-end", "0.1", "--dt", "0.01", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: domain: {message}"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("t_end, dt", [
        ("1", "0"), ("1", "-0.1"), ("1", "nan"), ("1", "inf"), ("nan", "0.1"),
        ("inf", "0.1"), ("1e300", "1e-10"), ("1e19", "1")])
    def test_bad_time_is_domain_error(self, tmp_path, t_end, dt):
        cfg = tmp_path / "body.json"
        cfg.write_text(json.dumps({"mass": 1.0, "inertia": np.eye(3).tolist()}))
        out = tmp_path / "traj.csv"
        proc = run_cli("rigidbody", "simulate", "--config", str(cfg),
                       f"--t-end={t_end}", f"--dt={dt}", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: domain:"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestCampaignCommands:
    def test_run_and_analyze(self, tmp_path, ffd_doc):
        mesh_path = tmp_path / "mesh.obj"
        save_mesh(icosphere(1), mesh_path)
        config = {
            "ffd": "ffd.json",
            "mesh": "mesh.obj",
            "samples": 12,
            "seed": 2,
            "objective": {"kind": "ridge", "direction": [1.0, 0.5]},
            "outputs": ["resistance"],
            "time_resolved": False,
            "analysis": {"degree": 2, "n_boot": 10, "n_replicates": 3},
        }
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        proc = run_cli("campaign", "run", "--config", str(cfg), "--out",
                       str(run_dir), "--threads", "2")
        assert proc.returncode == 0, proc.stderr
        assert "12/12 samples ok" in proc.stdout
        proc = run_cli("campaign", "analyze", "--run-dir", str(run_dir))
        assert proc.returncode == 0, proc.stderr
        assert (run_dir / "analysis" / "report.json").exists()

    @pytest.mark.parametrize("direction, shown", [
        ([1.0, float("nan")], "[1.0, nan]"), ([float("inf"), 0.5], "[inf, 0.5]"),
    ])
    def test_non_finite_ridge_direction_refused_before_sampling(self, tmp_path, ffd_doc,
                                                                 direction, shown):
        save_mesh(icosphere(1), tmp_path / "mesh.obj")
        config = {"ffd": "ffd.json", "mesh": "mesh.obj", "samples": 12,
                  "objective": {"kind": "ridge", "direction": direction},
                  "outputs": ["resistance"], "time_resolved": False}
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(config))  # NaN and Infinity literals, as Python reads them
        run_dir = tmp_path / "run"
        proc = run_cli("campaign", "run", "--config", str(cfg), "--out", str(run_dir))
        assert proc.returncode == 1
        assert proc.stderr == (f"error: config: {cfg}: ridge direction must hold "
                               f"finite numbers, got {shown}\n")
        assert not (run_dir / "samples").exists()

    def test_run_on_a_nan_vertex_mesh_fails_before_the_run_directory(self, tmp_path,
                                                                     ffd_doc):
        save_mesh(icosphere(1), tmp_path / "mesh.obj")
        lines = (tmp_path / "mesh.obj").read_text().splitlines(keepends=True)
        lines[1] = "v 0 nan 0\n"
        (tmp_path / "mesh.obj").write_text("".join(lines))
        config = {"ffd": "ffd.json", "mesh": "mesh.obj", "samples": 6,
                  "objective": {"kind": "ridge", "direction": [1.0, 0.5]},
                  "outputs": ["resistance"], "time_resolved": False}
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        proc = run_cli("campaign", "run", "--config", str(cfg), "--out", str(run_dir),
                       "--analyze")
        assert proc.returncode == 1
        assert proc.stderr == (f"error: mesh_format: {tmp_path / 'mesh.obj'}: vertex 1 has "
                               "a non-finite coordinate: [0.0, nan, 0.0]\n")
        assert not run_dir.exists()

    def test_bad_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{}")
        proc = run_cli("campaign", "run", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config:")

    @pytest.mark.parametrize("section, value, message", [
        ("analysis", {"degree": "x"}, "analysis degree must be an int in [1, 6], got 'x'"),
        ("dmd", {"window_start": 15.0, "window_end": 7.0},
         "DMD window end must exceed its start"),
        ("seed", -1, "campaign seed must be an int >= 0, got -1"),
        ("outputs", "resistance", "campaign outputs must be a list of strings, "
                                  "got 'resistance'"),
        ("time_resolved", "no", "campaign time_resolved must be true or false, got 'no'"),
        ("dmd", {"dt": float("nan")}, "DMD dt must be a finite number, got nan"),
        ("dmd", {"window_start": 7.0, "window_end": 7.04},
         "DMD window [7.0, 7.04] s at dt 0.1 s gives 1 snapshot(s), need >= 2"),
    ], ids=["analysis-degree", "dmd-window", "seed", "outputs", "time-resolved",
            "dmd-nan", "dmd-one-snapshot"])
    def test_bad_setting_names_config_file(self, tmp_path, section, value, message):
        from importlib.resources import files
        doc = json.loads((files("morphreduce") / "data" / "demo_campaign.json").read_text())
        doc[section] = value
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(doc))
        proc = run_cli("campaign", "run", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr == f"error: config: {cfg}: {message}\n"

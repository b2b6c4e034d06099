import dataclasses
import json
import re
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest

import morphreduce.campaign as camp
from morphreduce.campaign import (AnalysisSettings, CampaignConfig, DMDSettings,
                                  SampleRecord, analyze_campaign, extract_steady_state,
                                  load_campaign_config, load_run_records, run_campaign,
                                  trim_proxy)
from morphreduce.dmd import SnapshotSet, fit, reconstruct_series
from morphreduce.errors import ConfigError, DomainError, MeshFormatError
from morphreduce.ffd import BindingEntry, FFDLattice, ParameterBinding, save_ffd_json
import morphreduce.geometry.integrals as integrals
import morphreduce.geometry.mesh as mesh_module
from morphreduce.geometry import demo_hull, icosphere, save_mesh
from morphreduce.surrogate import ObjectiveSpec, TimeSeriesMode, TimeSeriesSpec, generate_timeseries


@pytest.fixture
def workspace(tmp_path):
    """Small FFD document + base mesh for fast campaigns."""
    mesh = icosphere(1)
    mesh_path = tmp_path / "base.obj"
    save_mesh(mesh, mesh_path)
    lattice = FFDLattice([0.0, -1.2, -1.2], np.diag([1.4, 2.4, 2.4]), (4, 4, 4))
    entries = [BindingEntry(p, (1 + (p % 2), 1 + ((p // 2) % 2), 1 + ((p // 4) % 2)),
                            p % 3, 1.0) for p in range(8)]
    binding = ParameterBinding(entries, bounds=np.tile([-0.3, 0.3], (8, 1)))
    ffd_path = tmp_path / "ffd.json"
    save_ffd_json(ffd_path, lattice, binding)
    return tmp_path, str(ffd_path), str(mesh_path)


def ridge_objective(m=8, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(m)
    c /= np.linalg.norm(c)
    return ObjectiveSpec("ridge", direction=c)


class TestConfig:
    def test_json_round_trip_and_relative_paths(self, workspace):
        tmp_path, ffd_path, mesh_path = workspace
        doc = {
            "ffd": "ffd.json",
            "mesh": "base.obj",
            "samples": 4,
            "seed": 3,
            "objective": {"kind": "volume-drag-proxy"},
            "time_resolved": False,
        }
        cfg_path = tmp_path / "campaign.json"
        cfg_path.write_text(json.dumps(doc))
        config = load_campaign_config(cfg_path)
        assert config.ffd_path == str(tmp_path / "ffd.json")
        assert config.mesh_path == str(tmp_path / "base.obj")
        assert config.n_samples == 4

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            AnalysisSettings(split_fraction=1.5)

    @pytest.mark.parametrize("field, value", [
        ("degree", "x"), ("degree", 0), ("degree", 7), ("degree", 2.0), ("degree", True),
        ("n_boot", -1), ("n_boot", False), ("n_replicates", 0), ("seed", -1),
        ("split_seed", "1"), ("rule", "biggest-gap"), ("rule", None),
        ("explicit_dim", 0), ("explicit_dim", 1.5), ("split_fraction", True),
        ("split_fraction", "0.5"), ("split_fraction", float("nan")),
    ])
    def test_every_analysis_field_validated(self, field, value):
        with pytest.raises(ConfigError, match=f"analysis {field} "):
            AnalysisSettings(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("degree", 1), ("degree", 6), ("degree", np.int64(3)), ("n_boot", 0),
        ("n_replicates", 1), ("rule", "threshold"), ("explicit_dim", 2),
        ("split_fraction", 0.5),
    ])
    def test_analysis_field_limits_accepted(self, field, value):
        assert getattr(AnalysisSettings(**{field: value}), field) == value

    def test_explicit_rule_accepted_with_its_dimension(self):
        settings = AnalysisSettings(rule="explicit", explicit_dim=2)
        assert (settings.rule, settings.explicit_dim) == ("explicit", 2)

    def test_analysis_settings_frozen_after_checks(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AnalysisSettings().degree = 9

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "campaign seed must be an int >= 0, got -1"),
        ("seed", 1.5, "campaign seed must be an int >= 0, got 1.5"),
        ("seed", True, "campaign seed must be an int >= 0, got True"),
        ("outputs", "resistance", "campaign outputs must be a list of strings"),
        ("outputs", ["resistance", 2], "campaign outputs must be a list of strings"),
        ("time_resolved", "no", "campaign time_resolved must be true or false"),
        ("time_resolved", 1, "campaign time_resolved must be true or false"),
        ("dmd", {"dt": float("nan")}, "DMD dt must be a finite number"),
        ("dmd", {"window_end": float("inf")}, "DMD window_end must be a finite number"),
        ("dmd", {"window_start": "7"}, "DMD window_start must be a finite number"),
        ("dmd", {"window_end": 7.04}, r"DMD window .* gives 1 snapshot\(s\), need >= 2"),
        ("samples", 4.9, "campaign samples must be an int >= 1, got 4.9"),
        ("samples", 0, "campaign samples must be an int >= 1, got 0"),
        ("samples", "4", "campaign samples must be an int >= 1, got '4'"),
        ("channels", 24.5, "campaign channels must be an int >= 1, got 24.5"),
        ("channels", 0, "campaign channels must be an int >= 1, got 0"),
        ("channels", True, "campaign channels must be an int >= 1, got True"),
        ("transient_modes", {"growth": -0.3, "frequency": 2.0},
         "campaign transient_modes must be a list of objects"),
        ("transient_modes", [{"growth": "x", "frequency": 2.0}],
         "campaign transient mode must map growth, frequency and optionally amplitude"),
        ("transient_modes", [{"growth": -0.3}],
         "campaign transient mode must map growth, frequency and optionally amplitude"),
        ("transient_modes", [{"growth": -0.3, "frequency": 2.0, "phase": 1.0}],
         "campaign transient mode must map growth, frequency and optionally amplitude"),
        ("transient_modes", [{"growth": -0.3, "frequency": 2.0, "amplitude": float("nan")}],
         "campaign transient mode must map growth, frequency and optionally amplitude"),
        ("transient_modes", [{"growth": -0.3, "frequency": False}],
         "campaign transient mode must map growth, frequency and optionally amplitude"),
        ("transient_modes", [[-0.3, 2.0]],
         "campaign transient mode must map growth, frequency and optionally amplitude"),
        ("analysis", {"rule": "explicit"},
         "analysis explicit_dim must be set for the explicit rule"),
        ("objective", {"kind": "volume-drag-proxy", "volume_coefficient": "x"},
         "objective volume_coefficient must be a finite number, got 'x'"),
        ("objective", {"kind": "volume-drag-proxy", "speed": -2.0},
         "objective speed must be a finite number > 0, got -2.0"),
        ("objective", {"kind": "ridge", "direction": [1.0] * 8, "noise": 0.05, "seed": -1},
         "objective seed must be an int >= 0, got -1"),
        ("chanels", 12, "unknown campaign key 'chanels'$"),
        ("n_samples", 12, "unknown campaign key 'n_samples'$"),
    ], ids=["seed-negative", "seed-float", "seed-bool", "outputs-string", "outputs-number",
            "time-resolved-string", "time-resolved-int", "dmd-dt-nan", "dmd-end-inf",
            "dmd-start-string", "dmd-one-snapshot", "samples-float", "samples-zero",
            "samples-string", "channels-float", "channels-zero", "channels-bool",
            "modes-object", "modes-growth-string", "modes-no-frequency", "modes-unknown-key",
            "modes-amplitude-nan", "modes-frequency-bool", "modes-list-entry",
            "analysis-explicit-without-dim", "objective-number-string",
            "objective-speed-negative", "objective-noisy-ridge-seed-negative",
            "unknown-key-typo", "unknown-key-field-name"])
    def test_every_campaign_field_validated(self, workspace, key, value, message):
        tmp_path, _, _ = workspace
        doc = {"ffd": "ffd.json", "mesh": "base.obj", "samples": 2,
               "objective": {"kind": "volume-drag-proxy"}, key: value}
        cfg_path = tmp_path / "campaign.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg_path))}: {message}"):
            load_campaign_config(cfg_path)

    def test_transient_modes_stored_as_floats(self):
        config = CampaignConfig(ffd_path="f.json", mesh_path="m.obj", n_samples=1,
                                objective=ridge_objective(),
                                transient_modes=[{"growth": -1, "frequency": np.int64(2)},
                                                 {"growth": -0.5, "frequency": 1.5,
                                                  "amplitude": 1}])
        assert config.transient_modes == [{"growth": -1.0, "frequency": 2.0},
                                          {"growth": -0.5, "frequency": 1.5,
                                           "amplitude": 1.0}]
        assert all(type(v) is float for mode in config.transient_modes
                   for v in mode.values())

    def test_shortest_dmd_window_accepted(self):
        assert DMDSettings(window_start=7.0, window_end=7.1).n_snapshots == 2

    def test_dmd_defaults_are_ten_snapshot_full_rank(self):
        assert [f.name for f in dataclasses.fields(DMDSettings)] == [
            "window_start", "window_end", "dt"]
        assert DMDSettings().n_snapshots == 10
        demo = load_campaign_config(files("morphreduce") / "data" / "demo_campaign.json")
        assert demo.dmd == DMDSettings()

    @pytest.mark.parametrize("key", ["horizon", "steady_window", "rank"])
    def test_retired_forecast_setting_rejected(self, workspace, key):
        tmp_path, _, _ = workspace
        doc = {"ffd": "ffd.json", "mesh": "base.obj", "samples": 2,
               "objective": {"kind": "volume-drag-proxy"}, "dmd": {key: 5.0}}
        cfg_path = tmp_path / "campaign.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unexpected keyword argument '{key}'"):
            load_campaign_config(cfg_path)

    @pytest.mark.parametrize("name", ["a,b", 'say "x"', "line\nbreak", "cr\r"],
                             ids=["comma", "quote", "newline", "carriage-return"])
    def test_output_name_with_csv_syntax_rejected(self, name):
        # analysis CSVs write output names unquoted
        with pytest.raises(ConfigError, match="outputs must be distinct names from"):
            CampaignConfig(ffd_path="f.json", mesh_path="m.obj", n_samples=1,
                           objective=ridge_objective(), outputs=("resistance", name))

    @pytest.mark.parametrize("outputs", [
        [], ["resistance", "resistance"], ["trim", "resistance", "trim"],
        ["resistance", "drag"], ["Trim"]],
        ids=["empty", "twice", "trim-twice", "drag", "case"])
    def test_outputs_must_be_distinct_known_names(self, outputs):
        message = ("campaign outputs must be distinct names from 'resistance' and 'trim', "
                   f"got {outputs!r}")
        with pytest.raises(ConfigError, match=re.escape(message)):
            CampaignConfig(ffd_path="f.json", mesh_path="m.obj", n_samples=1,
                           objective=ridge_objective(), outputs=outputs)

    @pytest.mark.parametrize("outputs", [["resistance"], ["trim"], ["trim", "resistance"]])
    def test_known_outputs_accepted_in_any_order(self, outputs):
        config = CampaignConfig(ffd_path="f.json", mesh_path="m.obj", n_samples=1,
                                objective=ridge_objective(), outputs=outputs)
        assert config.outputs == tuple(outputs)

    def test_sample_count_rejected(self, workspace):
        _, ffd_path, mesh_path = workspace
        with pytest.raises(ConfigError):
            CampaignConfig(ffd_path=ffd_path, mesh_path=mesh_path, n_samples=0,
                           objective=ridge_objective())

    @pytest.mark.parametrize("key", ["ffd", "mesh", "samples", "objective"])
    def test_required_key_missing(self, workspace, key):
        tmp_path, _, _ = workspace
        doc = {"ffd": "ffd.json", "mesh": "base.obj", "samples": 2,
               "objective": {"kind": "volume-drag-proxy"}}
        del doc[key]
        cfg_path = tmp_path / "campaign.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(cfg_path))}: campaign key '{key}' is required$"):
            load_campaign_config(cfg_path)

    def test_left_out_keys_take_the_dataclass_defaults(self, workspace):
        tmp_path, ffd_path, mesh_path = workspace
        doc = {"ffd": "ffd.json", "mesh": "base.obj", "samples": 2,
               "objective": {"kind": "volume-drag-proxy"}}
        cfg_path = tmp_path / "campaign.json"
        cfg_path.write_text(json.dumps(doc))
        expected = CampaignConfig(ffd_path=ffd_path, mesh_path=mesh_path, n_samples=2,
                                  objective=ObjectiveSpec("volume-drag-proxy"))
        assert load_campaign_config(cfg_path) == expected

    def test_every_document_key_read_back(self, tmp_path):
        demo = load_campaign_config(files("morphreduce") / "data" / "demo_campaign.json")
        cfg_path = tmp_path / "campaign.json"
        cfg_path.write_text(json.dumps({**demo.to_doc(), "output_dir": "elsewhere"}))
        back = load_campaign_config(cfg_path)
        assert back.to_doc() == demo.to_doc()
        assert back.output_dir == "elsewhere"


class TestSteadyState:
    def test_constant_model(self):
        data = np.tile(np.array([[4.0], [1.0]]), (1, 12))
        model = fit(SnapshotSet(data, t0=7.0, dt=0.1))
        steady = extract_steady_state(model, 30.0, 5.0)
        np.testing.assert_allclose(steady, [4.0, 1.0], atol=1e-10)

    def test_unit_eigenvalue_exact_projection(self):
        spec = TimeSeriesSpec(modes=[], dimension=3, offset=np.array([2.0, -1.0, 0.5]))
        model = fit(generate_timeseries(spec, 7.0, 0.1, 20))
        steady = extract_steady_state(model, 30.0, 5.0)
        np.testing.assert_allclose(steady, [2.0, -1.0, 0.5], atol=1e-10)

    def test_decaying_mode_within_tail_bound(self):
        amp, sigma = 0.8, -0.3
        offset = np.full(10, 3.0)
        spec = TimeSeriesSpec(modes=[TimeSeriesMode(sigma, 1.5, amp, 9)],
                              dimension=10, offset=offset)
        model = fit(generate_timeseries(spec, 7.0, 0.1, 81))
        steady = extract_steady_state(model, 30.0, 5.0)
        bound = amp * np.exp(sigma * (30.0 - 5.0))
        assert np.abs(steady - offset).max() < bound

    def test_empty_window_rejected(self):
        spec = TimeSeriesSpec(modes=[], dimension=2, offset=1.0)
        model = fit(generate_timeseries(spec, 7.0, 0.1, 20))
        with pytest.raises(DomainError):
            extract_steady_state(model, 5.0, 1.0)

    @staticmethod
    def transient_model(n, seed=3):
        rng = np.random.default_rng(seed)
        offset = rng.uniform(-1.5, 1.5, n)
        modes = [TimeSeriesMode(g, f, a, profile_seed=int(rng.integers(2**31)),
                                profile=offset * rng.uniform(0.6, 1.4, n))
                 for g, f, a in ((-0.35, 2.1, 0.25), (-0.6, 0.7, 0.1), (-0.45, 1.3, 0.15))]
        spec = TimeSeriesSpec(modes=modes, dimension=n, offset=offset)
        return fit(generate_timeseries(spec, 7.0, 0.1, 81), rank="full")

    @pytest.mark.parametrize("horizon, window, k_lo, k_hi, channels", [
        (30.0, 5.0, 180, 230, None),     # the demo window
        (10.0, 5.0, 0, 30, None),        # starts before t0: clamped at k_lo = 0
        (30.0, 0.05, 230, 230, None),    # narrower than dt: one column
        (22.5, 1.0, 145, 155, [5, 0, 17, 5]),
    ], ids=["demo", "clamped", "one-column", "channels"])
    def test_matches_reconstructed_window_mean(self, horizon, window, k_lo, k_hi, channels):
        model = self.transient_model(24)
        expected = reconstruct_series(model, k_hi)[:, k_lo:].mean(axis=1)
        steady = extract_steady_state(model, horizon, window)
        if channels is not None:
            expected, steady = expected[channels], steady[channels]
        assert np.abs(steady - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_memory_is_mode_sized(self):
        model = self.transient_model(5000)
        tracemalloc.start()
        try:
            extract_steady_state(model, 30.0, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the (n x 231) complex forecast alone is 18 MB


class TestRunCampaign:
    def config(self, workspace, **kwargs):
        tmp_path, ffd_path, mesh_path = workspace
        defaults = dict(ffd_path=ffd_path, mesh_path=mesh_path, n_samples=3,
                        objective=ridge_objective(), output_dir=str(tmp_path / "run"),
                        seed=5, time_resolved=False)
        defaults.update(kwargs)
        return CampaignConfig(**defaults)

    def test_ridge_direction_of_another_length_rejected_before_sampling(self, workspace):
        tmp_path, _, _ = workspace
        config = self.config(workspace,
                             objective=ObjectiveSpec("ridge", direction=[1.0, 0.5, 0.25]))
        with pytest.raises(ConfigError, match="^objective direction has 3 entries, but the "
                                              "binding has 8 parameters$"):
            run_campaign(config, threads=1)
        assert not (tmp_path / "run").exists()

    def test_single_zero_sample_evaluates_profile_at_zero(self, workspace):
        tmp_path, ffd_path, mesh_path = workspace
        lattice = FFDLattice([0.0, -1.2, -1.2], np.diag([1.4, 2.4, 2.4]), (4, 4, 4))
        binding = ParameterBinding([BindingEntry(0, (1, 1, 1), 0, 1.0)],
                                   bounds=np.zeros((8, 2)))
        ffd0 = tmp_path / "ffd0.json"
        save_ffd_json(ffd0, lattice, binding)
        config = self.config(workspace, ffd_path=str(ffd0), n_samples=1,
                             outputs=("resistance",))
        records = run_campaign(config, threads=1)
        assert records[0].status == "ok"
        # h(0) = 0 for the default ridge profile
        assert records[0].scalars["resistance"] == pytest.approx(0.0, abs=1e-14)

    def test_run_directory_layout(self, workspace):
        tmp_path, _, _ = workspace
        config = self.config(workspace, n_samples=3, time_resolved=True,
                             n_channels=8)
        records = run_campaign(config, threads=2)
        assert all(r.status == "ok" for r in records)
        run = tmp_path / "run"
        assert (run / "manifest.json").exists()
        for i in range(3):
            d = run / "samples" / f"{i:03d}"
            assert (d / "record.json").exists()
            assert (d / "mesh.obj").exists()
            assert (d / "mu.csv").exists()
            assert (d / "series.csv").exists()

    def test_fault_isolation(self, workspace, monkeypatch):
        config = self.config(workspace, n_samples=4, outputs=("resistance",))
        original = camp.evaluate_objective
        mus = {}

        def flaky(spec, mu, mesh=None, mesh_path=None):
            key = round(float(np.abs(mu).sum()), 12)
            mus.setdefault(key, len(mus))
            if mus[key] == 2:
                raise RuntimeError("synthetic evaluator crash")
            return original(spec, mu, mesh=mesh, mesh_path=mesh_path)

        monkeypatch.setattr(camp, "evaluate_objective", flaky)
        records = run_campaign(config, threads=1, resume=False)
        statuses = [r.status for r in records]
        assert statuses.count("failed") == 1
        assert statuses.count("ok") == 3
        failed = [r for r in records if r.status == "failed"][0]
        assert "synthetic evaluator crash" in failed.reason

    def test_reproducible_manifests(self, workspace):
        tmp_path, _, _ = workspace
        cfg_a = self.config(workspace, output_dir=str(tmp_path / "a"),
                            time_resolved=True, n_channels=6)
        cfg_b = self.config(workspace, output_dir=str(tmp_path / "b"),
                            time_resolved=True, n_channels=6)
        run_campaign(cfg_a, threads=2)
        run_campaign(cfg_b, threads=1)
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()
        for i in range(cfg_a.n_samples):
            mesh_a = tmp_path / "a" / "samples" / f"{i:03d}" / "mesh.obj"
            assert mesh_a.read_bytes() == \
                (tmp_path / "b" / "samples" / f"{i:03d}" / "mesh.obj").read_bytes()

    def run_two_samples(self, tmp_path, threads):
        config = CampaignConfig(
            ffd_path=str(files("morphreduce") / "data" / "demo_ffd.json"),
            mesh_path=str(tmp_path / "hull.obj"), n_samples=2, seed=1,
            objective=ObjectiveSpec("volume-drag-proxy"),
            output_dir=str(tmp_path / f"run{threads}"), time_resolved=False)
        records = run_campaign(config, threads=threads)
        assert [r.status for r in records] == ["ok", "ok"]

    def test_later_samples_format_only_moved_vertex_rows(self, tmp_path, monkeypatch):
        """The root's lines are formatted once, then each sample its moved rows."""
        base = demo_hull()
        save_mesh(base, tmp_path / "hull.obj")
        formatted = []
        original = mesh_module._obj_rows

        def counting(template, rows):
            formatted.append((template, len(rows)))
            return original(template, rows)

        monkeypatch.setattr(mesh_module, "_obj_rows", counting)
        counts = []
        for threads in (1, 2):
            formatted.clear()
            self.run_two_samples(tmp_path, threads)
            faces, root, *samples = formatted
            assert faces == (mesh_module._OBJ_FACE, base.num_triangles)
            assert root == (mesh_module._OBJ_VERTEX, base.num_vertices)
            assert len(samples) == 2
            for template, n in samples:
                assert template == mesh_module._OBJ_VERTEX
                assert 0 < n < base.num_vertices / 2
            counts.append(sorted(formatted))
        assert counts[0] == counts[1]

    def test_later_samples_integrate_only_moved_triangles(self, tmp_path, monkeypatch):
        """The root's terms are computed once, then each sample's moved triangles."""
        base = demo_hull()
        save_mesh(base, tmp_path / "hull.obj")
        passed = []
        original = integrals._triangle_terms

        def counting(a, b, c):
            passed.append(len(a))
            return original(a, b, c)

        monkeypatch.setattr(integrals, "_triangle_terms", counting)
        counts = []
        for threads in (1, 2):
            passed.clear()
            self.run_two_samples(tmp_path, threads)
            root, *samples = passed
            assert root == base.num_triangles
            assert len(samples) == 2
            assert all(0 < n < base.num_triangles / 2 for n in samples)
            counts.append(sorted(passed))
        assert counts[0] == counts[1]

    def test_resume_skips_completed(self, workspace, monkeypatch):
        config = self.config(workspace, n_samples=3)
        run_campaign(config, threads=1)
        calls = []
        original = camp._run_sample

        def counting(index, *args, **kwargs):
            calls.append(index)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(camp, "_run_sample", counting)
        run_dir = camp.Path(config.output_dir)
        (run_dir / "samples" / "001" / "record.json").unlink()
        records = run_campaign(config, threads=1)
        assert calls == [1]
        assert all(r.status == "ok" for r in records)

    def counting_run_sample(self, monkeypatch):
        calls = []
        original = camp._run_sample

        def counting(index, *args, **kwargs):
            calls.append(index)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(camp, "_run_sample", counting)
        return calls

    def test_resume_recomputes_corrupt_record(self, workspace, monkeypatch, caplog):
        config = self.config(workspace, n_samples=3)
        first = run_campaign(config, threads=1)
        record_file = camp.Path(config.output_dir) / "samples" / "002" / "record.json"
        doc = json.loads(record_file.read_text())
        doc["mu"] = "garbage"
        record_file.write_text(json.dumps(doc))
        calls = self.counting_run_sample(monkeypatch)
        records = run_campaign(config, threads=1)
        assert calls == [2]
        assert "sample 2: unreadable record" in caplog.text
        assert [r.to_doc() for r in records] == [r.to_doc() for r in first]

    def test_resume_recomputes_record_with_null_mu(self, workspace, monkeypatch, caplog):
        config = self.config(workspace, n_samples=3)
        first = run_campaign(config, threads=1)
        record_file = camp.Path(config.output_dir) / "samples" / "001" / "record.json"
        doc = json.loads(record_file.read_text())
        doc["mu"] = None
        record_file.write_text(json.dumps(doc))
        calls = self.counting_run_sample(monkeypatch)
        records = run_campaign(config, threads=1)
        assert calls == [1]
        assert "sample 1: unreadable record" in caplog.text
        assert [r.to_doc() for r in records] == [r.to_doc() for r in first]

    def test_resume_refuses_records_of_another_seed(self, workspace):
        config = self.config(workspace, n_samples=12, seed=7)
        run_campaign(config, threads=2)
        run_dir = camp.Path(config.output_dir)
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        reseeded = self.config(workspace, n_samples=12, seed=8)
        with pytest.raises(ConfigError, match="sample 0: .*--no-resume"):
            run_campaign(reseeded, threads=2)
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        records = run_campaign(reseeded, threads=2, resume=False)
        assert all(r.status == "ok" for r in records)
        assert run_campaign(reseeded, threads=2)[0].mu.tobytes() == records[0].mu.tobytes()

    def demo_copy(self, directory, **changes):
        """A 4-sample copy of the shipped demo config in directory, with changes."""
        data = files("morphreduce") / "data"
        doc = json.loads((data / "demo_campaign.json").read_text())
        doc.update(ffd=str(data / doc["ffd"]), mesh=str(data / doc["mesh"]), samples=4,
                   output_dir=str(directory / "run"), **changes)
        path = directory / "campaign.json"
        path.write_text(json.dumps(doc))
        return load_campaign_config(path)

    def test_resume_refuses_records_of_another_objective(self, tmp_path):
        # same seed, scheme and binding, so every mu matches; only the records differ
        config = self.demo_copy(tmp_path)
        first = run_campaign(config, threads=2)
        run_dir = camp.Path(config.output_dir)
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        objective = dict(config.to_doc()["objective"], volume_coefficient=500.0)
        changed = self.demo_copy(tmp_path, objective=objective)
        with pytest.raises(ConfigError, match="sample 0: .*fingerprint.*--no-resume"):
            run_campaign(changed, threads=2)
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        fresh = run_campaign(changed, threads=2, resume=False)
        assert all(b.scalars["resistance"] > 5 * a.scalars["resistance"]
                   for a, b in zip(first, fresh))

    def test_resume_refuses_record_without_fingerprint(self, workspace):
        config = self.config(workspace, n_samples=3)
        run_campaign(config, threads=1)
        record_file = camp.Path(config.output_dir) / "samples" / "002" / "record.json"
        doc = json.loads(record_file.read_text())
        del doc["fingerprint"]
        record_file.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="sample 2: .*fingerprint.*--no-resume"):
            run_campaign(config, threads=1)

    def test_analysis_change_resumes_every_record(self, tmp_path, monkeypatch):
        config = self.demo_copy(tmp_path)
        run_campaign(config, threads=2)
        manifest_file = camp.Path(config.output_dir) / "manifest.json"
        fresh = json.loads(manifest_file.read_text())
        calls = self.counting_run_sample(monkeypatch)
        other = self.demo_copy(tmp_path, analysis={"degree": 2, "n_boot": 10})
        records = run_campaign(other, threads=2)
        assert calls == []
        resumed = json.loads(manifest_file.read_text())
        assert resumed["records"] == fresh["records"] == [r.to_doc() for r in records]
        assert resumed["fingerprint"] == fresh["fingerprint"]
        assert resumed["config"]["analysis"]["degree"] == 2

    def test_rerun_with_every_record_reused_parses_no_mesh(self, workspace, monkeypatch):
        config = self.config(workspace, n_samples=4, time_resolved=True, n_channels=6)
        first = run_campaign(config, threads=2)
        manifest_file = camp.Path(config.output_dir) / "manifest.json"
        before = manifest_file.read_bytes(), manifest_file.stat()

        def refuse(path, validate=True):
            raise AssertionError(f"mesh {path} parsed on a rerun with nothing to compute")

        monkeypatch.setattr(camp, "load_mesh", refuse)
        calls = self.counting_run_sample(monkeypatch)
        records = run_campaign(config, threads=2)
        assert calls == []
        assert [r.to_doc() for r in records] == [r.to_doc() for r in first]
        after = manifest_file.read_bytes(), manifest_file.stat()
        assert after[0] == before[0]
        assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino,
                                                          before[1].st_mtime_ns)

    def test_rerun_parses_the_mesh_once_for_a_missing_record(self, workspace, monkeypatch):
        config = self.config(workspace, n_samples=4)
        first = run_campaign(config, threads=2)
        run_dir = camp.Path(config.output_dir)
        manifest = (run_dir / "manifest.json").read_bytes()
        (run_dir / "samples" / "002" / "record.json").unlink()
        loads = []
        original = camp.load_mesh

        def counting(path, validate=True):
            loads.append(path)
            return original(path, validate)

        monkeypatch.setattr(camp, "load_mesh", counting)
        calls = self.counting_run_sample(monkeypatch)
        records = run_campaign(config, threads=2)
        assert loads == [config.mesh_path]
        assert calls == [2]
        assert [r.to_doc() for r in records] == [r.to_doc() for r in first]
        assert (run_dir / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("damage", ["missing", "truncated", "not_json", "empty", "edited"])
    def test_damaged_manifest_rewritten(self, workspace, damage):
        config = self.config(workspace, n_samples=3)
        run_campaign(config, threads=1)
        manifest_file = camp.Path(config.output_dir) / "manifest.json"
        good = manifest_file.read_bytes()
        if damage == "missing":
            manifest_file.unlink()
        elif damage == "truncated":
            manifest_file.write_bytes(good[:len(good) // 2])
        elif damage == "not_json":
            manifest_file.write_bytes(b"\xff\xfe not a manifest")
        elif damage == "empty":
            manifest_file.write_bytes(b"")
        else:
            doc = json.loads(good)
            doc["n_ok"] = 0
            manifest_file.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        run_campaign(config, threads=1)
        assert manifest_file.read_bytes() == good

    @pytest.mark.parametrize("mesh_text, error, message", [
        (None, FileNotFoundError, "No such file or directory"),
        ("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n", MeshFormatError,
         "1 degenerate triangle"),
        ("v 0 0 0\nf 1 2 3\n", MeshFormatError, "face index 2 out of range")])
    def test_bad_mesh_on_fresh_run_leaves_no_run_directory(self, workspace, mesh_text,
                                                          error, message):
        tmp_path, _, _ = workspace
        mesh_path = tmp_path / "bad.obj"
        if mesh_text is not None:
            mesh_path.write_text(mesh_text)
        config = self.config(workspace, mesh_path=str(mesh_path))
        with pytest.raises(error, match=message) as raised:
            run_campaign(config, threads=1)
        with pytest.raises(error) as direct:  # the error load_mesh gives on its own
            camp.load_mesh(mesh_path)
        assert str(raised.value) == str(direct.value)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_mesh_on_fresh_run_leaves_no_run_directory(self, workspace, token):
        tmp_path, _, mesh_path = workspace
        lines = open(mesh_path).read().splitlines(keepends=True)
        lines[4] = f"v 0.5 {token} 0.25\n"
        bad = tmp_path / "bad.obj"
        bad.write_text("".join(lines))
        config = self.config(workspace, mesh_path=str(bad))
        with pytest.raises(MeshFormatError,
                           match=re.escape(f"{bad}: vertex 4 has a non-finite coordinate")):
            run_campaign(config, threads=2)
        assert not (tmp_path / "run").exists()

    def test_fingerprint_is_of_file_bytes_not_paths(self, workspace):
        tmp_path, ffd_path, mesh_path = workspace
        moved = tmp_path / "elsewhere"
        moved.mkdir()
        for path in (ffd_path, mesh_path):
            (moved / camp.Path(path).name).write_bytes(camp.Path(path).read_bytes())
        runs = [self.config(workspace, output_dir=str(tmp_path / "a")),
                self.config(workspace, output_dir=str(tmp_path / "b"),
                            ffd_path=str(moved / "ffd.json"),
                            mesh_path=str(moved / "base.obj"))]
        for config in runs:
            run_campaign(config, threads=1)
        record = camp.Path("samples", "001", "record.json")
        assert (tmp_path / "a" / record).read_bytes() == (tmp_path / "b" / record).read_bytes()
        fingerprints = [json.loads((tmp_path / d / "manifest.json").read_text())["fingerprint"]
                        for d in "ab"]
        assert fingerprints[0] == fingerprints[1]
        assert json.loads((tmp_path / "a" / record).read_text())["fingerprint"] == \
            fingerprints[0]

    def test_resume_retries_failed_record(self, workspace, monkeypatch):
        config = self.config(workspace, n_samples=4, outputs=("resistance",))
        original = camp.evaluate_objective
        target = camp.sample_parameters(
            camp.load_ffd_json(config.ffd_path)[1], 4, seed=config.seed)[1]
        failures = []

        def fails_once(spec, mu, mesh=None, mesh_path=None):
            if not failures and np.array_equal(mu, target):
                failures.append(1)
                raise RuntimeError("transient evaluator failure")
            return original(spec, mu, mesh=mesh, mesh_path=mesh_path)

        monkeypatch.setattr(camp, "evaluate_objective", fails_once)
        first = run_campaign(config, threads=1)
        assert [r.status for r in first] == ["ok", "failed", "ok", "ok"]
        calls = self.counting_run_sample(monkeypatch)
        records = run_campaign(config, threads=1)
        assert calls == [1]
        assert [r.status for r in records] == ["ok"] * 4
        manifest = json.loads((camp.Path(config.output_dir) / "manifest.json").read_text())
        assert manifest["n_ok"] == 4

    def test_pipeline_consistency_without_transient(self, workspace):
        # constant series: steady-state scalar equals the instantaneous value
        config_flat = self.config(workspace, n_samples=2, time_resolved=False,
                                  outputs=("resistance", "trim"))
        config_series = self.config(
            workspace, n_samples=2, time_resolved=True, n_channels=6,
            transient_modes=[],
            output_dir=str(camp.Path(config_flat.output_dir).parent / "run_ts"))
        flat = run_campaign(config_flat, threads=1)
        series = run_campaign(config_series, threads=1)
        for a, b in zip(flat, series):
            for name in ("resistance", "trim"):
                assert abs(a.scalars[name] - b.scalars[name]) < 1e-10

    @pytest.mark.parametrize("threads", [-1, 0])  # only None means "every CPU"
    def test_nonpositive_thread_count_rejected(self, workspace, threads):
        config = self.config(workspace)
        with pytest.raises(ConfigError, match=f"thread count must be positive, got {threads}"):
            run_campaign(config, threads=threads)
        assert not camp.Path(config.output_dir).exists()

    def test_time_resolved_records_carry_dmd_diagnostics(self, workspace):
        config = self.config(workspace, n_samples=4, time_resolved=True, n_channels=8)
        records = run_campaign(config, threads=1)
        manifest_file = camp.Path(config.output_dir) / "manifest.json"
        fresh = manifest_file.read_bytes()
        for record in records:
            diag = record.diagnostics
            assert diag["rank"] == 5  # two oscillating pairs and the offset
            assert diag["max_abs_eigenvalue"] <= 1.0 + 1e-6
            assert diag["fixed_point_distance"] < 1e-9
            assert set(diag["steady_rel_change"]) == set(config.outputs)
            assert max(diag["steady_rel_change"].values()) < 1e-9
        run_campaign(config, threads=2)  # resumes every record from record.json
        assert manifest_file.read_bytes() == fresh
        doc = json.loads(fresh)["records"][0]
        assert SampleRecord.from_doc(doc).to_doc() == doc

    def test_direct_records_have_no_diagnostics(self, workspace):
        records = run_campaign(self.config(workspace, n_samples=2), threads=1)
        assert all(r.diagnostics is None and "diagnostics" not in r.to_doc()
                   for r in records)

    def test_growing_transient_fails_with_the_rule(self, workspace):
        config = self.config(workspace, n_samples=2, time_resolved=True, n_channels=8,
                             transient_modes=[{"growth": 0.3, "frequency": 2.1}])
        records = run_campaign(config, threads=1)
        for record in records:
            assert record.status == "failed" and record.diagnostics is None
            assert re.fullmatch(r"max \|λ\| 1\.030454\d* > 1 \+ 1e-06", record.reason)

    @pytest.mark.parametrize("explicit_dim", [8, 9])
    def test_explicit_dim_of_binding_rejected_before_sampling(self, workspace, explicit_dim):
        tmp_path, _, _ = workspace
        config = self.config(workspace, analysis=AnalysisSettings(
            rule="explicit", explicit_dim=explicit_dim))
        with pytest.raises(DomainError,
                           match=re.escape("explicit active dimension must be in [1, 8)")):
            run_campaign(config, threads=1)
        assert not (tmp_path / "run" / "samples").exists()

    def test_missing_binding_rejected(self, workspace):
        tmp_path, _, mesh_path = workspace
        lattice = FFDLattice([0, 0, 0], np.eye(3), (2, 2, 2))
        bare = tmp_path / "bare.json"
        save_ffd_json(bare, lattice)
        config = self.config(workspace, ffd_path=str(bare))
        with pytest.raises(ConfigError, match="binding"):
            run_campaign(config)


class TestTrimProxy:
    def test_symmetric_body_is_balanced(self):
        assert abs(trim_proxy(icosphere(2))) < 1e-12

    def test_shifted_mass_registers(self):
        mesh = icosphere(2)
        stretched = mesh.with_vertices(mesh.vertices * np.array([1.0, 1.0, 1.0])
                                       + np.array([0.2, 0.0, 0.0]))
        # translation alone does not change trim: centroid moves with the box
        assert abs(trim_proxy(stretched)) < 1e-12
        bulb = mesh.vertices.copy()
        bulb[:, 0] = np.where(bulb[:, 0] > 0, bulb[:, 0] * 1.5, bulb[:, 0])
        assert abs(trim_proxy(mesh.with_vertices(bulb))) > 1e-3


class TestAnalyzeCampaign:
    def records_from(self, mus, values, extra=None):
        records = []
        for i, (mu, v) in enumerate(zip(mus, values)):
            scalars = {"resistance": float(v)}
            if extra is not None:
                scalars["trim"] = float(extra[i])
            records.append(SampleRecord(index=i, mu=mu, status="ok", scalars=scalars))
        return records

    def test_ridge_structured_results(self, tmp_path):
        rng = np.random.default_rng(1)
        m = 6
        bounds = np.tile([-0.3, 0.3], (m, 1))
        c = rng.standard_normal(m)
        c /= np.linalg.norm(c)
        mus = rng.uniform(-0.3, 0.3, (150, m))
        values = 3.0 * (mus @ c) + 0.3 * (mus @ c) ** 2
        records = self.records_from(mus, values)
        report = analyze_campaign(records, bounds, AnalysisSettings(n_boot=20),
                                  outputs=("resistance",), out_dir=tmp_path / "an")
        entry = report["outputs"]["resistance"]
        assert entry["active_dim"] == 1
        assert entry["gap_ratio"] > 1e3
        assert (tmp_path / "an" / "eigenvalues.csv").exists()
        assert (tmp_path / "an" / "summary_2d.csv").exists()
        assert (tmp_path / "an" / "report.json").exists()

    def test_constant_outputs_flag_no_structure(self):
        rng = np.random.default_rng(2)
        bounds = np.tile([-1.0, 1.0], (4, 1))
        mus = rng.uniform(-1, 1, (40, 4))
        report = analyze_campaign(self.records_from(mus, np.full(40, 7.0)), bounds,
                                  AnalysisSettings(n_boot=5), outputs=("resistance",))
        assert report["outputs"]["resistance"]["structure"] == "none"

    def test_isotropic_quadratic_flags_weak_gap(self):
        rng = np.random.default_rng(3)
        bounds = np.tile([-1.0, 1.0], (4, 1))
        mus = rng.uniform(-1, 1, (400, 4))
        values = np.sum(mus ** 2, axis=1)
        report = analyze_campaign(self.records_from(mus, values), bounds,
                                  AnalysisSettings(n_boot=5), outputs=("resistance",))
        entry = report["outputs"]["resistance"]
        assert entry["structure"] == "weak"
        assert entry["gap_ratio"] < 10.0
        assert 1 <= entry["active_dim"] < 4

    def test_insufficient_ok_records(self):
        bounds = np.tile([-1.0, 1.0], (4, 1))
        records = self.records_from(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(DomainError, match="at least"):
            analyze_campaign(records, bounds, AnalysisSettings())

    def test_failed_records_excluded(self):
        rng = np.random.default_rng(4)
        bounds = np.tile([-1.0, 1.0], (3, 1))
        mus = rng.uniform(-1, 1, (60, 3))
        values = mus @ np.array([1.0, 0.0, 0.0])
        records = self.records_from(mus, values)
        records.append(SampleRecord(index=60, mu=np.zeros(3), status="failed",
                                    reason="boom"))
        report = analyze_campaign(records, bounds, AnalysisSettings(n_boot=5),
                                  outputs=("resistance",))
        assert report["n_ok"] == 60
        assert report["n_failed"] == 1


class TestLoadRunRecords:
    def test_round_trip(self, workspace):
        tmp_path, _, _ = workspace
        config = TestRunCampaign().config(workspace, n_samples=3)
        records = run_campaign(config, threads=1)
        back, bounds, config_doc = load_run_records(config.output_dir)
        assert len(back) == 3
        assert bounds.shape == (8, 2)
        assert [r.index for r in back] == [r.index for r in records]
        assert config_doc["samples"] == 3

"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
from spans import Recorder, Span, children_of, self_time, tail, union_length

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(id, name, start, end, parent=None):
    return Span(id, name, float(start), float(end), parent, 0)


class TestSelfTime:
    def test_hand_built_tree(self):
        # children overlap each other and one runs past the parent's end
        parent = span(0, "p", 0, 10)
        kids = [span(1, "a", 1, 3, 0), span(2, "b", 2, 5, 0), span(3, "c", 8, 12, 0)]
        assert union_length([(1, 3), (2, 5), (8, 10)]) == 6
        assert self_time(parent, kids) == pytest.approx(4.0)

    def test_grandchildren_do_not_count_twice(self):
        spans = [span(0, "p", 0, 10), span(1, "a", 2, 6, 0), span(2, "g", 3, 4, 1)]
        kids = children_of(spans)
        assert self_time(spans[0], kids[0]) == pytest.approx(6.0)
        assert self_time(spans[1], kids[1]) == pytest.approx(3.0)
        assert self_time(spans[2], kids.get(2, ())) == pytest.approx(1.0)


class TestTail:
    @pytest.mark.parametrize("n, pct, value, beyond", [
        (100, 90.0, 90, 10),
        (40, 75.0, 30, 10),
        (1000, 99.0, 990, 10),
        (10_000, 99.9, 9990, 10),
        (130, 90.0, 117, 13),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, pct, value, beyond):
        t = tail(range(1, n + 1))
        assert (t["n"], t["pct"], t["value"], t["beyond"]) == (n, pct, value, beyond)

    def test_too_few_samples_give_only_the_median(self):
        t = tail([3.0, 1.0, 2.0] * 13)
        assert t["n"] == 39 and t["pct"] is None and t["p50"] == 2.0

    def test_empty(self):
        assert tail([]) == {"n": 0, "p50": 0.0, "pct": None, "value": None, "beyond": 0}


class TestRecorder:
    def test_wraps_and_restores_module_attribute(self):
        module = types.SimpleNamespace(f=lambda x: 2 * x)
        module.outer = lambda x: module.f(x) + 1
        originals = module.f, module.outer
        rec = Recorder()
        rec.install(module, "f", "layer.f", attrs=lambda a, k, r: {"arg": a[0]})
        rec.install(module, "outer", "layer.outer")
        assert module.outer(3) == 7
        rec.uninstall()
        assert (module.f, module.outer) == originals
        inner, outer = rec.spans
        assert (inner.name, inner.parent, inner.attrs) == ("layer.f", outer.id, {"arg": 3})
        assert outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_worker_spans_hang_under_the_waiting_span(self):
        module = types.SimpleNamespace(work=lambda i: threading.get_ident())

        def pool_map():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(module.work, range(4)))

        module.pool_map = pool_map
        rec = Recorder()
        rec.install(module, "work", "work")
        rec.install(module, "pool_map", "pool")
        module.pool_map()
        rec.uninstall()
        (pool_span,) = [s for s in rec.spans if s.name == "pool"]
        work = [s for s in rec.spans if s.name == "work"]
        assert len(work) == 4 and all(s.parent == pool_span.id for s in work)

    def test_replay_measures_allocation_of_the_last_iteration(self):
        module = types.SimpleNamespace(alloc=lambda n: np.ones(n).sum())
        rec = Recorder()
        rec.install(module, "alloc", "alloc", alloc=True)
        module.alloc(10)
        rec.next_run()
        module.alloc(2**20)          # 8 MiB
        rec.next_run()               # a run without calls keeps the last calls
        rec.uninstall()
        peak = rec.replay_alloc()["alloc"]
        assert 7.9 < peak < 9.0


class TestLayerMetrics:
    def test_campaign_tree(self):
        run = span(0, layers.RUN, 0.0, 1.0)
        samples = [span(1, layers.SAMPLE, 0.1, 0.5, 0), span(2, layers.SAMPLE, 0.5, 0.9, 0)]
        inner = []
        for s in samples:
            base = s.id * 10
            inner += [
                span(base, "surrogate.evaluate_objective", s.start, s.start + 0.2, s.id),
                span(base + 1, "geometry.surface_area", s.start, s.start + 0.05, base),
                span(base + 2, "geometry.enclosed_volume", s.start + 0.05, s.start + 0.15, base),
                span(base + 3, "geometry.boundary_edge_count", s.start + 0.05,
                     s.start + 0.1, base + 2),
                span(base + 4, "geometry.volume_centroid", s.start + 0.2, s.start + 0.3, s.id),
                span(base + 5, "geometry.boundary_edge_count", s.start + 0.2,
                     s.start + 0.25, base + 4),
            ]
        resume = span(99, layers.RUN, 2.0, 2.2)
        out, stats = layers.metrics([run, resume] + samples + inner,
                                    {"n_samples": 2, "bytes_written_per_sample": 10.0},
                                    {}, dict.fromkeys(layers.OVERHEAD, 0.0))
        assert out["campaign.sample_ms"] == (pytest.approx(400.0), "ms")
        assert out["campaign.sample_self_ms"][0] == pytest.approx(100.0)
        assert out["campaign.run_self_s"][0] == pytest.approx(0.2)
        assert out["campaign.resume_ms_per_record"][0] == pytest.approx(100.0)
        assert out["geometry.boundary_edge_count_calls_per_sample"] == (2.0, "count")
        assert out["geometry.integrals_ms_per_sample"][0] == pytest.approx(250.0)
        assert out["surrogate.evaluate_objective_self_ms"][0] == pytest.approx(50.0)
        assert out["rigidbody.step_us"] == (0.0, "us") and stats["rigidbody.step_us"]["n"] == 0
        assert set(out) == {name for name, _, _ in layers.names()}

    def test_names_match_benchmark_json(self):
        doc = json.loads(BENCHMARK.read_text())
        assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.names()


class TestOracles:
    def test_steady_value_off_by_1e3_is_rejected(self):
        direct = np.array([12.5, -0.031, 7.0])
        assert oracles.at_most("s", oracles.steady_rel_err(direct * (1 + 1e-6), direct),
                               oracles.STEADY_REL_TOL).ok
        bad = direct.copy()
        bad[1] *= 1 + 1e-3
        assert not oracles.at_most("s", oracles.steady_rel_err(bad, direct),
                                   oracles.STEADY_REL_TOL).ok

    def test_offset_error(self):
        offset = np.array([1.0, -1.5, 0.7])
        assert oracles.offset_rel_err(offset + 1e-7, offset) < oracles.STEADY_REL_TOL
        assert oracles.offset_rel_err(offset + 1e-3, offset) > oracles.STEADY_REL_TOL

    def test_eigenvalue_off_the_oracle_is_rejected(self):
        oracle = np.exp(np.array([-0.035 + 0.21j, -0.035 - 0.21j, 0.0]))
        assert oracles.eigen_deviation(oracle[::-1] + 1e-9, oracle) < oracles.EIGEN_TOL
        assert oracles.eigen_deviation(oracle + [0, 1e-5, 0], oracle) > oracles.EIGEN_TOL

    def test_tilted_active_direction_is_rejected(self):
        c = np.array([0.6, 0.8, 0.0])
        assert oracles.active_cosine(-c, c) == pytest.approx(1.0)
        tilted = c + np.array([0.0, 0.0, 0.2])
        assert oracles.active_cosine(tilted, c) < oracles.ACTIVE_COS_MIN

    def test_conservation_drift_of_a_perturbed_trajectory(self):
        rigidbody = pytest.importorskip("morphreduce.rigidbody")
        props = rigidbody.BodyProperties(mass=1.0, inertia=np.diag([1.0, 2.0, 3.0]))
        state = rigidbody.RigidBodyState(np.zeros(3), np.zeros(3), [0.02, 1.0, -0.03],
                                         [1.0, 0.0, 0.0, 0.0])
        _, states = rigidbody.simulate(state, props, rigidbody.no_forces, 0.0, 0.2, 1e-3)
        assert oracles.conservation_drift(states, props.inertia) < oracles.CONSERVATION_TOL
        states[-1, 7] *= 1 + 1e-3
        assert oracles.conservation_drift(states, props.inertia) > oracles.CONSERVATION_TOL

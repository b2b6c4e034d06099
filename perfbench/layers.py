"""Which program functions the traced run wraps, and the per-layer metrics.

Each function is wrapped at the module attribute its caller looks it up
through: run_campaign finds load_mesh, save_mesh and the FFD functions as
globals of morphreduce.campaign, evaluate_objective finds the integrals as
globals of morphreduce.surrogate, enclosed_volume finds
boundary_edge_count in morphreduce.geometry.integrals, and simulate finds
step in morphreduce.rigidbody.
"""

from __future__ import annotations

import os
from collections import defaultdict
from statistics import median

from morphreduce import activesubspace as asub
from morphreduce import campaign, dmd, rigidbody, surrogate
from morphreduce.geometry import integrals

from spans import ancestor, children_of, self_time, tail

SAMPLE = "campaign.sample"
RUN = "campaign.run_campaign"
INTEGRALS = ("geometry.surface_area", "geometry.enclosed_volume",
             "geometry.volume_centroid")

# (metric, unit, whether a tail percentile is reported) for every timing
TIMINGS = (
    ("campaign.sample_ms", "ms", True),
    ("campaign.sample_self_ms", "ms", True),
    ("campaign.run_self_s", "s", False),
    ("campaign.resume_ms_per_record", "ms", False),
    ("campaign.steady_extract_ms", "ms", True),
    ("geometry.boundary_edge_count_ms", "ms", True),
    ("geometry.integrals_ms_per_sample", "ms", True),
    ("geometry.save_mesh_ms", "ms", True),
    ("geometry.load_mesh_ms", "ms", False),
    ("ffd.apply_parameters_ms", "ms", True),
    ("ffd.deform_mesh_ms", "ms", True),
    ("surrogate.evaluate_objective_self_ms", "ms", True),
    ("surrogate.generate_timeseries_ms", "ms", True),
    ("dmd.fit_ms", "ms", True),
    ("dmd.save_snapshots_ms", "ms", True),
    ("dmd.load_snapshots_ms", "ms", False),
    ("activesubspace.estimate_gradients_ms", "ms", False),
    ("activesubspace.decompose_ms", "ms", False),
    ("activesubspace.fit_response_surface_ms", "ms", False),
    ("activesubspace.replicated_errors_ms", "ms", False),
    ("rigidbody.step_us", "us", True),
    ("rigidbody.simulate_self_ms", "ms", False),
)
# (metric, unit, better) for the counts, rates and allocation peaks
OTHERS = (
    ("campaign.bytes_written_per_sample", "B", "lower"),
    ("geometry.boundary_edge_count_calls_per_sample", "count", "lower"),
    ("geometry.save_mesh_mb_per_s", "MB/s", "higher"),
    ("ffd.points_per_s", "1/s", "higher"),
    ("dmd.rank", "count", "higher"),
    ("dmd.fit_alloc_peak_mb", "MB", "lower"),
    ("activesubspace.gradients_alloc_peak_mb", "MB", "lower"),
)
OVERHEAD = ("setup_s", "compute_s", "finish_s")
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def names() -> list:
    """Every per-layer metric as (name, unit, better), in BENCHMARK.json order."""
    out = []
    for metric, unit, has_tail in TIMINGS:
        out.append((metric, unit, "lower"))
        if has_tail:
            out.append((metric + ".tail", unit, "lower"))
    out += list(OTHERS)
    out += [(f"trace_overhead.{m}", "s", "lower") for m in OVERHEAD]
    return out


def install(recorder) -> None:
    def file_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    def points(args, kwargs, result):
        return {"points": args[1].num_vertices}

    def rank(args, kwargs, result):
        return {"rank": result.rank}

    wraps = [
        (campaign, "run_campaign", RUN, None, False),
        (campaign, "_run_sample", SAMPLE, None, False),
        (campaign, "apply_parameters", "ffd.apply_parameters", None, False),
        (campaign, "deform_mesh", "ffd.deform_mesh", points, False),
        (campaign, "save_mesh", "geometry.save_mesh", file_bytes, False),
        (campaign, "load_mesh", "geometry.load_mesh", None, False),
        (campaign, "volume_centroid", "geometry.volume_centroid", None, False),
        (campaign, "evaluate_objective", "surrogate.evaluate_objective", None, False),
        (campaign, "generate_timeseries", "surrogate.generate_timeseries", None, False),
        (campaign, "extract_steady_state", "campaign.extract_steady_state", None, False),
        (surrogate, "surface_area", "geometry.surface_area", None, False),
        (surrogate, "enclosed_volume", "geometry.enclosed_volume", None, False),
        (integrals, "boundary_edge_count", "geometry.boundary_edge_count", None, False),
        (dmd, "fit", "dmd.fit", rank, True),
        (dmd, "save_snapshots_csv", "dmd.save_snapshots", None, False),
        (dmd, "load_snapshots_bin", "dmd.load_snapshots", None, False),
        (asub, "analyze_table", "activesubspace.analyze_table", None, False),
        (asub, "estimate_gradients", "activesubspace.estimate_gradients", None, True),
        (asub, "decompose", "activesubspace.decompose", None, False),
        (asub, "fit_response_surface", "activesubspace.fit_response_surface", None, False),
        (asub, "replicated_errors", "activesubspace.replicated_errors", None, False),
        (rigidbody, "step", "rigidbody.step", None, False),
        (rigidbody, "simulate", "rigidbody.simulate", None, False),
    ]
    for module, attr, name, attrs, alloc in wraps:
        recorder.install(module, attr, name, attrs=attrs, alloc=alloc)


def metrics(spans, values: dict, alloc_peaks: dict, overhead: dict):
    """Per-layer metrics as {name: (value, unit)} plus the timing statistics.

    A layer that never ran in this workload reads 0 with a sample count of 0.
    """
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    samples = named[SAMPLE]
    with_samples = {s.parent for s in samples}
    fresh = [r for r in named[RUN] if r.id in with_samples]
    resumed = [r for r in named[RUN] if r.id not in with_samples]
    per_sample = defaultdict(float)
    for s in (x for n in INTEGRALS for x in named[n]):
        owner = ancestor(s, by_id, SAMPLE)
        if owner is not None:
            per_sample[owner.id] += s.duration
    n_records = values.get("n_samples", 1)

    def durations(name):
        return [s.duration for s in named[name]]

    seconds = {
        "campaign.sample_ms": durations(SAMPLE),
        "campaign.sample_self_ms": [self_time(s, kids.get(s.id, ())) for s in samples],
        "campaign.run_self_s": [self_time(r, [k for k in kids.get(r.id, ())
                                              if k.name == SAMPLE]) for r in fresh],
        "campaign.resume_ms_per_record": [r.duration / n_records for r in resumed],
        "campaign.steady_extract_ms": durations("campaign.extract_steady_state"),
        "geometry.boundary_edge_count_ms": durations("geometry.boundary_edge_count"),
        "geometry.integrals_ms_per_sample": [per_sample[s.id] for s in samples],
        "geometry.save_mesh_ms": durations("geometry.save_mesh"),
        "geometry.load_mesh_ms": durations("geometry.load_mesh"),
        "ffd.apply_parameters_ms": durations("ffd.apply_parameters"),
        "ffd.deform_mesh_ms": durations("ffd.deform_mesh"),
        "surrogate.evaluate_objective_self_ms": [
            self_time(s, kids.get(s.id, ())) for s in named["surrogate.evaluate_objective"]],
        "surrogate.generate_timeseries_ms": durations("surrogate.generate_timeseries"),
        "dmd.fit_ms": durations("dmd.fit"),
        "dmd.save_snapshots_ms": durations("dmd.save_snapshots"),
        "dmd.load_snapshots_ms": durations("dmd.load_snapshots"),
        "activesubspace.estimate_gradients_ms": durations("activesubspace.estimate_gradients"),
        "activesubspace.decompose_ms": [
            s.duration for s in named["activesubspace.decompose"]
            if by_id.get(s.parent) is not None
            and by_id[s.parent].name == "activesubspace.analyze_table"],
        "activesubspace.fit_response_surface_ms": durations(
            "activesubspace.fit_response_surface"),
        "activesubspace.replicated_errors_ms": durations("activesubspace.replicated_errors"),
        "rigidbody.step_us": durations("rigidbody.step"),
        "rigidbody.simulate_self_ms": [self_time(s, kids.get(s.id, ()))
                                       for s in named["rigidbody.simulate"]],
    }
    out, stats = {}, {}
    for metric, unit, has_tail in TIMINGS:
        t = tail([v * SCALE[unit] for v in seconds[metric]])
        stats[metric] = t
        out[metric] = (t["p50"], unit)
        if has_tail:
            out[metric + ".tail"] = (t["p50"] if t["value"] is None else t["value"], unit)

    def med(xs):
        xs = list(xs)
        return median(xs) if xs else 0.0

    bec = [s for s in named["geometry.boundary_edge_count"]
           if ancestor(s, by_id, SAMPLE) is not None]
    out["campaign.bytes_written_per_sample"] = (values.get("bytes_written_per_sample", 0.0), "B")
    out["geometry.boundary_edge_count_calls_per_sample"] = (
        len(bec) / len(samples) if samples else 0.0, "count")
    out["geometry.save_mesh_mb_per_s"] = (med(
        s.attrs["bytes"] / s.duration / 2**20 for s in named["geometry.save_mesh"]), "MB/s")
    out["ffd.points_per_s"] = (med(
        s.attrs["points"] / s.duration for s in named["ffd.deform_mesh"]), "1/s")
    out["dmd.rank"] = (med(s.attrs["rank"] for s in named["dmd.fit"]), "count")
    out["dmd.fit_alloc_peak_mb"] = (alloc_peaks.get("dmd.fit", 0.0), "MB")
    out["activesubspace.gradients_alloc_peak_mb"] = (
        alloc_peaks.get("activesubspace.estimate_gradients", 0.0), "MB")
    for m in OVERHEAD:
        out[f"trace_overhead.{m}"] = (overhead[m], "s")
    return out, stats

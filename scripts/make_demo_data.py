#!/usr/bin/env python3
"""Regenerate the shipped demo files under src/morphreduce/data/.

Writes the demo hull mesh, the FFD lattice + 8-parameter binding document,
and the end-to-end campaign configuration.
"""

import json
from pathlib import Path

import numpy as np

from morphreduce.ffd import BindingEntry, FFDLattice, ParameterBinding, save_ffd_json
from morphreduce.geometry import demo_hull, save_mesh

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "morphreduce" / "data"


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    hull = demo_hull()
    save_mesh(hull, DATA_DIR / "demo_hull.obj")
    lo = hull.vertices.min(axis=0)
    hi = hull.vertices.max(axis=0)
    print(f"hull: {hull.num_vertices} vertices, bbox {lo.round(3)} .. {hi.round(3)}")

    # 6x6x6 lattice over the bow; the two outermost control layers per side
    # stay fixed so the map is smooth across the box faces.
    origin = np.array([1.1, -0.85, -0.75])
    axes = np.diag([2.2, 1.7, 1.3])
    counts = (6, 6, 6)
    lattice = FFDLattice(origin=origin, axes=axes, counts=counts)

    interior = [(i, j, k) for i in (2, 3) for j in (2, 3) for k in (2, 3)]
    entries = [BindingEntry(parameter=p, index=idx, axis=(idx[0] + idx[1] + idx[2]) % 3,
                            weight=1.0)
               for p, idx in enumerate(interior)]
    binding = ParameterBinding(entries, bounds=np.tile([-0.3, 0.3], (8, 1)))
    save_ffd_json(DATA_DIR / "demo_ffd.json", lattice, binding)
    print(f"lattice: counts {counts}, {len(entries)} bound control points")

    config = {
        "ffd": "demo_ffd.json",
        "mesh": "demo_hull.obj",
        "samples": 130,
        "scheme": "latin-hypercube",
        "seed": 7,
        "objective": {
            "kind": "volume-drag-proxy",
            "density": 1000.0,
            "speed": 2.0,
            "viscosity": 1.19e-6,
            "volume_coefficient": 50.0,
        },
        "outputs": ["resistance", "trim"],
        "time_resolved": True,
        "channels": 24,
        "transient_modes": [
            {"growth": -0.35, "frequency": 2.1, "amplitude": 0.25},
            {"growth": -0.6, "frequency": 0.7, "amplitude": 0.1},
        ],
        "dmd": {
            "window_start": 7.0,
            "window_end": 7.9,
            "dt": 0.1,
        },
        "analysis": {
            "degree": 4,
            "split_fraction": 0.75,
            "n_boot": 100,
            "seed": 3,
            "split_seed": 11,
            "rule": "largest-gap",
            "n_replicates": 10,
        },
        "output_dir": "campaign_run",
    }
    (DATA_DIR / "demo_campaign.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n")
    print("wrote demo_campaign.json")


if __name__ == "__main__":
    main()

import json
from importlib.resources import files

import numpy as np
import pytest

from morphreduce import activesubspace as asub
from morphreduce import dmd, ffd, rigidbody
from morphreduce.campaign import (AnalysisSettings, CampaignConfig, analyze_campaign,
                                  run_campaign)
from morphreduce.geometry import icosphere, save_mesh
from morphreduce.surrogate import ObjectiveSpec
from morphreduce import textio
from morphreduce.textio import write_text

# signed zeros, subnormals, the smallest normal decade, the largest doubles
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-307, -1e-307, 1e308,
               np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0 / 3.0]


def edge_matrix(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    flat = data.ravel()
    flat[:len(EDGE_VALUES)] = EDGE_VALUES
    return flat.reshape(rows, cols)


def assert_bit_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def as_written(path):
    """Leave the file as its writer wrote it."""


def as_spreadsheet(path):
    """Rewrite a CSV with CRLF ends, blank lines, quoted cells and spaces around cells."""
    header, first, second, *rows = path.read_text().splitlines()

    def quoted(line):
        return ",".join(f'"{cell}"' for cell in line.split(","))

    lines = ["", quoted(header), "", first.replace(",", " , "), quoted(second), "", *rows, ""]
    path.write_bytes("\r\n".join(lines).encode())


def write_sample_table(path, rewrite=as_written):
    data = edge_matrix(12, 7)
    asub.save_sample_table(asub.SampleTable(data[:, :3], data[:, 3], data[:, 4:]), path)
    rewrite(path)
    back = asub.load_sample_table(path)
    return data, np.column_stack([back.inputs, back.outputs, back.gradients])


def write_trajectory(path, rewrite=as_written):
    data = edge_matrix(2 * textio._BLOCK_ROWS + 77, 14, seed=1)  # three row blocks
    rigidbody.save_trajectory_csv(path, data[:, 0], data[:, 1:])
    rewrite(path)
    return data, textio.read_csv(path)[1]


def write_snapshots(path, rewrite=as_written):
    data = edge_matrix(5, 11, seed=3)
    dmd.save_snapshots_csv(dmd.SnapshotSet(data, t0=-0.0, dt=5e-324), path)
    rewrite(path)
    back = dmd.load_snapshots_csv(path)
    return np.concatenate([[-0.0, 5e-324], data.ravel()]), \
        np.concatenate([[back.t0, back.dt], back.data.ravel()])


WRITERS = [write_sample_table, write_trajectory, write_snapshots]


@pytest.mark.parametrize("writer, rewrite", [
    *(pytest.param(w, as_written, id=w.__name__) for w in WRITERS),
    *(pytest.param(w, as_spreadsheet, id=f"{w.__name__}-crlf-blank-quoted") for w in WRITERS),
])
def test_csv_writer_round_trips_bit_exactly(tmp_path, writer, rewrite):
    written, back = writer(tmp_path / "table.csv", rewrite)
    assert_bit_equal(back, written)


def small_campaign(tmp_path):
    lattice = ffd.FFDLattice([-1.5, -1.5, -1.5], np.diag([3.0, 3.0, 3.0]), (3, 3, 3))
    binding = ffd.ParameterBinding(
        [ffd.BindingEntry(p, (1, 1, 1), p % 3, 1.0) for p in range(2)],
        bounds=np.tile([-0.3, 0.3], (2, 1)))
    ffd.save_ffd_json(tmp_path / "ffd.json", lattice, binding)
    save_mesh(icosphere(1), tmp_path / "mesh.obj")
    config = CampaignConfig(
        ffd_path=str(tmp_path / "ffd.json"), mesh_path=str(tmp_path / "mesh.obj"),
        n_samples=12, objective=ObjectiveSpec("ridge", direction=np.array([1.0, 0.5])),
        output_dir=str(tmp_path / "run"), seed=2, outputs=("resistance",), n_channels=6)
    records = run_campaign(config, threads=1)
    analyze_campaign(records, binding.bounds, AnalysisSettings(degree=2, n_boot=10,
                                                               n_replicates=3),
                     outputs=config.outputs, out_dir=tmp_path / "run" / "analysis")


def test_no_written_csv_contains_carriage_return(tmp_path):
    for writer in WRITERS:
        writer(tmp_path / f"{writer.__name__}.csv")
    small_campaign(tmp_path)
    written = sorted(tmp_path.rglob("*.csv"))
    names = {p.name for p in written}
    assert {"mu.csv", "series.csv", "eigenvalues.csv", "bootstrap.csv",
            "summary_1d.csv", "summary_2d.csv"} <= names
    assert [p.name for p in written if b"\r" in p.read_bytes()] == []
    assert list(tmp_path.rglob("*.tmp")) == []


def test_write_text_replaces_file_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old contents that are longer\n")
    write_text(target, "new\n")
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with pytest.raises(TypeError):  # the second row does not fill the column template
        textio.write_csv(target, [[1.0, 2.0], [3.0]])
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_ffd_document_of_shipped_demo_round_trips(tmp_path):
    shipped = files("morphreduce") / "data" / "demo_ffd.json"
    lattice, binding = ffd.load_ffd_json(shipped)
    ffd.save_ffd_json(tmp_path / "ffd.json", lattice, binding)
    text = (tmp_path / "ffd.json").read_text()
    doc = json.loads(text)
    assert doc == json.loads(shipped.read_text())
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"

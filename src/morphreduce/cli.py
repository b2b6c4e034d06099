"""Command-line entry point: ``morphreduce <group> <command> ...``.

Every subcommand is a thin adapter over the library modules; no numerical
logic lives here.  Exit status 0 on success, 1 on a domain error (reported
as ``error: <code>: <message>`` on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import logging
import secrets
import sys
from pathlib import Path

import numpy as np

from . import activesubspace as asub
from . import campaign as camp
from . import dmd, ffd, rigidbody
from .errors import ConfigError, ToolkitError
from .geometry import load_mesh, save_mesh
from .textio import csv_lines, read_json, write_csv, write_json

logger = logging.getLogger("morphreduce.cli")


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
        if value >= low:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")


def _non_negative_int(text: str) -> int:
    """argparse type of seeds and counts; AnalysisSettings applies the same rule."""
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    """argparse type of thread counts; run_campaign applies the same rule."""
    return _int_at_least(text, 1)


_FLOAT_OPTIONS = set()  # every flag _float_option has added, whichever subcommand


def _float_option(parser, flag, **kwargs):
    """Add a float-valued option whose value main() passes on even as "-inf"."""
    parser.add_argument(flag, type=float, **kwargs)
    _FLOAT_OPTIONS.add(flag)


def _join_float_values(argv) -> list:
    """argv with each value after a float option that starts with "-" joined to it.

    argparse reads only forms like "-1" and "-0.5" as negative numbers and
    takes "-inf", "-nan" or "-1e-3" for an unknown flag, so the option
    would go without its value; "--t=-inf" is read as written.
    """
    out = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and token.startswith("-") and _reads_as_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _seed_flag(parser, text="seed for any randomness (a generated seed is printed if omitted)"):
    parser.add_argument("--seed", type=_non_negative_int, default=None, help=text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2 ** 31)
    logger.info("no --seed given, using generated seed %d", seed)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as a comma-separated vector")


def _parse_rank(text):
    if text is None or text == "auto":
        return None
    if text == "full":
        return "full"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"rank must be an integer, a fraction, 'full' or 'auto', got {text!r}")


def _parse_bounds(text, m):
    if text is None:
        return None
    vals = _parse_vector(text)
    if len(vals) == 2:
        return np.tile(vals, (m, 1))
    if len(vals) == 2 * m:
        return vals.reshape(m, 2)
    raise ConfigError(f"--bounds needs 2 or {2 * m} comma-separated values")


# --- ffd ------------------------------------------------------------------

def cmd_ffd_deform(args) -> int:
    lattice, binding = ffd.load_ffd_json(args.lattice)
    if args.mu is not None:
        if binding is None:
            raise ConfigError(f"{args.lattice} has no parameter binding; cannot apply --mu")
        lattice = ffd.apply_parameters(lattice, binding, _parse_vector(args.mu))
    mesh = load_mesh(args.infile)
    save_mesh(ffd.deform_mesh(lattice, mesh), args.outfile)
    print(f"wrote {args.outfile}")
    return 0


def cmd_ffd_sample(args) -> int:
    _, binding = ffd.load_ffd_json(args.lattice)
    if binding is None:
        raise ConfigError(f"{args.lattice} has no parameter binding")
    seed = _resolve_seed(args)
    mus = ffd.sample_parameters(binding, args.n, scheme=args.scheme, seed=seed)
    write_csv(args.outfile, mus, [f"mu_{j + 1}" for j in range(binding.dimension)])
    print(f"wrote {args.outfile} ({args.n} x {binding.dimension})")
    return 0


# --- dmd ------------------------------------------------------------------

def _load_snapshots(path):
    if str(path).endswith(".bin"):
        return dmd.load_snapshots_bin(path)
    return dmd.load_snapshots_csv(path)


def cmd_dmd_fit(args) -> int:
    snapshots = _load_snapshots(args.infile)
    model = dmd.fit(snapshots, rank=_parse_rank(args.rank), mode_kind=args.modes)
    dmd.save_model_json(model, args.outfile)
    err = dmd.training_error(model, snapshots)
    print(f"rank {model.rank}, training error {err:.3e}, wrote {args.outfile}")
    return 0


def cmd_dmd_predict(args) -> int:
    model = dmd.load_model_json(args.model)
    state = dmd.predict_at_time(model, args.t)
    sys.stdout.writelines(csv_lines([state]))
    return 0


# --- as -------------------------------------------------------------------

def cmd_as_analyze(args) -> int:
    table = asub.load_sample_table(args.infile)
    if args.bounds is not None:
        table = asub.SampleTable(table.inputs, table.outputs, table.gradients,
                                 _parse_bounds(args.bounds, table.m))
    # every setting is checked here, before any gradient is computed
    settings = asub.AnalysisSettings(
        degree=args.degree, split_fraction=args.split, n_boot=args.boot,
        seed=_resolve_seed(args), split_seed=args.split_seed, rule=args.rule,
        explicit_dim=args.dim)
    report, decomp, surface = asub.analyze_table(table, settings)
    doc = dict(report)
    if surface is not None:
        doc["surface_model"] = asub.surface_to_doc(surface)
    write_json(args.outfile, doc)
    print(f"active dimension {report['active_dim']}, structure {report['structure']}, "
          f"wrote {args.outfile}")

    if args.plot_data:
        out = Path(args.plot_data)
        out.mkdir(parents=True, exist_ok=True)
        for file_name, (header, rows) in asub.plot_data(table, decomp).items():
            write_csv(out / file_name, rows, header)
        print(f"wrote plot data under {out}")
    return 0


# --- rigidbody --------------------------------------------------------------

def cmd_rigidbody_simulate(args) -> int:
    with read_json(args.config) as doc:
        props = rigidbody.BodyProperties(
            mass=float(doc["mass"]), inertia=doc["inertia"],
            gravity=doc.get("gravity"))
        init = doc.get("initial", {})
        state = rigidbody.RigidBodyState(
            position=init.get("position", [0, 0, 0]),
            velocity=init.get("velocity", [0, 0, 0]),
            angular_velocity=init.get("angular_velocity", [0, 0, 0]),
            quaternion=init.get("quaternion", [1, 0, 0, 0]))
        force_doc = doc.get("forces", {"kind": "none"})
        if force_doc.get("kind", "none") == "none":
            forces = rigidbody.no_forces
        elif force_doc["kind"] == "constant":
            forces = rigidbody.constant_forces(force_doc.get("force", [0, 0, 0]),
                                               force_doc.get("moment", [0, 0, 0]))
        else:
            raise ConfigError(f"unknown force model kind {force_doc.get('kind')!r}")
        t0 = float(doc.get("t0", 0.0))
    times, states = rigidbody.simulate(state, props, forces, t0, args.t_end, args.dt)
    rigidbody.save_trajectory_csv(args.outfile, times, states)
    print(f"wrote {args.outfile} ({len(times)} states)")
    return 0


# --- campaign ---------------------------------------------------------------

def _print_outputs(report: dict) -> None:
    for name, entry in report["outputs"].items():
        line = f"{name}: M={entry['active_dim']} structure={entry['structure']}"
        if "mean_normalized_error" in entry:
            line += f" mean normalized error {entry['mean_normalized_error']:.3f}"
        print(line)


def cmd_campaign_run(args) -> int:
    config_path = args.config
    if config_path == "demo":
        from importlib.resources import files
        config_path = str(files("morphreduce") / "data" / "demo_campaign.json")
    config = camp.load_campaign_config(config_path)
    if args.out is not None:
        config.output_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    records = camp.run_campaign(config, threads=args.threads,
                                resume=not args.no_resume)
    n_ok = sum(1 for r in records if r.status == "ok")
    print(f"{n_ok}/{len(records)} samples ok, run directory {config.output_dir}")
    if args.analyze:
        _, bounds, _ = camp.load_run_records(config.output_dir)
        report = camp.analyze_campaign(
            records, bounds, config.analysis, outputs=config.outputs,
            out_dir=Path(config.output_dir) / "analysis")
        _print_outputs(report)
    return 0


def cmd_campaign_analyze(args) -> int:
    records, bounds, config_doc = camp.load_run_records(args.run_dir)
    try:
        settings = asub.AnalysisSettings(**config_doc.get("analysis", {}))
        outputs = tuple(config_doc.get("outputs", ("resistance", "trim")))
    except (AttributeError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{Path(args.run_dir) / 'manifest.json'}: bad config "
                          f"({type(exc).__name__}: {exc})") from exc
    report = camp.analyze_campaign(records, bounds, settings, outputs=outputs,
                                   out_dir=Path(args.run_dir) / "analysis")
    _print_outputs(report)
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphreduce",
        description="FFD mesh morphing, DMD forecasting and active-subspace "
                    "reduction for shape-parametrized design studies.")
    groups = parser.add_subparsers(dest="group", required=True)

    g_ffd = groups.add_parser("ffd", help="free-form deformation").add_subparsers(
        dest="command", required=True)
    p = g_ffd.add_parser("deform", help="deform a mesh through a lattice")
    p.add_argument("--lattice", required=True, help="lattice+binding JSON document")
    p.add_argument("--mu", default=None, help="comma-separated parameter vector")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_ffd_deform)
    p = g_ffd.add_parser("sample", help="draw parameter vectors from the binding box")
    p.add_argument("--lattice", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scheme", default="latin-hypercube",
                   choices=["latin-hypercube", "uniform-random"])
    p.add_argument("--out", dest="outfile", required=True)
    _seed_flag(p)
    p.set_defaults(func=cmd_ffd_sample)

    g_dmd = groups.add_parser("dmd", help="dynamic mode decomposition").add_subparsers(
        dest="command", required=True)
    p = g_dmd.add_parser("fit", help="fit a model to a snapshot series")
    p.add_argument("--in", dest="infile", required=True,
                   help="snapshot CSV (t0,dt header) or .bin file")
    p.add_argument("--rank", default=None,
                   help="integer rank, energy fraction in (0,1], 'full' or 'auto'")
    p.add_argument("--modes", default="exact", choices=["exact", "projected"])
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_dmd_fit)
    p = g_dmd.add_parser("predict", help="evaluate a fitted model at a time")
    p.add_argument("--model", required=True)
    _float_option(p, "--t", required=True)
    p.set_defaults(func=cmd_dmd_predict)

    g_as = groups.add_parser("as", help="active-subspace analysis").add_subparsers(
        dest="command", required=True)
    p = g_as.add_parser("analyze", help="analyze a sample table CSV")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV with columns mu_1..mu_m,f[,g_1..g_m]")
    p.add_argument("--boot", type=_non_negative_int, default=100)
    p.add_argument("--degree", type=int, default=4)
    _float_option(p, "--split", default=0.75)
    p.add_argument("--split-seed", type=_non_negative_int, default=0)
    p.add_argument("--rule", default="largest-gap", choices=asub.AnalysisSettings.RULES)
    p.add_argument("--dim", type=int, default=None,
                   help="active dimension for the explicit rule")
    p.add_argument("--bounds", default=None,
                   help="parameter bounds 'lo,hi' (all) or per-parameter list")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--plot-data", default=None,
                   help="directory for eigenvalue/bootstrap/summary CSVs")
    _seed_flag(p)
    p.set_defaults(func=cmd_as_analyze)

    g_rb = groups.add_parser("rigidbody", help="rigid-body dynamics").add_subparsers(
        dest="command", required=True)
    p = g_rb.add_parser("simulate", help="integrate a trajectory")
    p.add_argument("--config", required=True, help="body JSON document")
    _float_option(p, "--t-end", dest="t_end", required=True)
    _float_option(p, "--dt", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_rigidbody_simulate)

    g_camp = groups.add_parser("campaign", help="design-study campaigns").add_subparsers(
        dest="command", required=True)
    p = g_camp.add_parser("run", help="run a sampling campaign")
    p.add_argument("--config", required=True,
                   help="campaign JSON document, or 'demo' for the shipped demo")
    p.add_argument("--out", default=None, help="override the run directory")
    p.add_argument("--no-resume", action="store_true",
                   help="recompute samples even when records exist")
    p.add_argument("--analyze", action="store_true",
                   help="run the analysis stage after sampling")
    _seed_flag(p, "override the campaign seed of the config document")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="bound on the sample worker pool (default: available parallelism)")
    p.set_defaults(func=cmd_campaign_run)
    p = g_camp.add_parser("analyze", help="analyze a finished run directory")
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.set_defaults(func=cmd_campaign_analyze)

    for group in (g_ffd, g_dmd, g_as, g_rb, g_camp):
        for p in group.choices.values():
            p.add_argument("--log-level", default="warning",
                           choices=["debug", "info", "warning", "error"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()  # fills _FLOAT_OPTIONS
    args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: io_not_found: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io_error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: learn, inspect, serve, simulate, report.

Exit codes: 0 success, 1 usage, 2 data error, 3 convergence error,
4 I/O or network error. Every run writes a manifest (inputs, version, seed)
next to its outputs, and re-running a subcommand with the same inputs and
seed reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import signal
import sys
import threading
from collections import Counter
from pathlib import Path

from . import __version__
from .car import CarConvergenceError, CarSpec
from .checks import require, require_object
from .dataset import DatasetFormatError, load_dataset
from .geometry import GridSpec, N_OCCLUSION_LEVELS, condition_index, sector_of
from .learn import EmptyDatasetError, StageTimes, learn_pem
from .model import ModelFormatError, PARAM_NAMES, load_model, save_model, stationary_detection
from .protocol import DEFAULT_PORT
from .server import PemServer
from .sim import (
    CellPlan,
    ExperimentReport,
    GroundTruthSource,
    ModelSource,
    PolicyConfig,
    RemoteSource,
    make_scenario,
    merge_reports,
    render_table,
    run_cells,
    save_runlog,
)
from .sim import run_experiment  # noqa: F401  kept resolvable: perfbench wraps cli.run_experiment
from .sim.world import scenario_from_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

INSPECT_PARAMS = PARAM_NAMES + ("pi1",)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, options: dict, inputs: list[Path], seed: int | None) -> None:
    manifest = {
        "command": command,
        "options": {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(options.items())},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "seed": seed,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(_canonical_json(manifest), encoding="utf-8")


def _grid_from_args(args) -> GridSpec:
    return GridSpec(
        sector_width_deg=args.sector_deg,
        ring_depth_m=args.ring_depth_m,
        max_radius_m=args.max_radius_m,
    )


def cmd_learn(args) -> int:
    out_model = Path(args.out)
    out_dir = out_model.parent
    grid = _grid_from_args(args)
    timings = StageTimes()
    with timings.stage("load"):
        dataset = load_dataset(args.dataset, frame_rate_hz=args.frame_rate_hz)
    spec = CarSpec.for_grid(grid, alpha=args.alpha)
    model, diagnostics = learn_pem(
        dataset, grid, car_spec=spec, gate_m=args.gate_m, metadata=args.label, timings=timings
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_model)
    diag_path = Path(args.diagnostics) if args.diagnostics else out_model.with_suffix(".diagnostics.json")
    diag_path.write_text(_canonical_json(diagnostics.to_dict()), encoding="utf-8")
    write_manifest(
        out_dir,
        "learn",
        {
            "dataset": args.dataset,
            "out": str(out_model),
            "alpha": args.alpha,
            "gate_m": args.gate_m,
            "sector_deg": args.sector_deg,
            "ring_depth_m": args.ring_depth_m,
            "max_radius_m": args.max_radius_m,
            "label": args.label,
        },
        [Path(args.dataset)],
        seed=None,
    )
    print(timings.line(), file=sys.stderr)
    print(f"wrote {out_model} ({model.n_conditions} conditions) and {diag_path}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    if args.parameter not in INSPECT_PARAMS:
        raise UsageError(f"unknown parameter {args.parameter!r}; valid: {', '.join(INSPECT_PARAMS)}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = model.grid

    def value_at(name: str, index: int) -> float:
        if name == "pi1":
            return stationary_detection(float(model.a01[index]), float(model.a11[index]))
        return float(getattr(model, name)[index])

    emitted = []
    for name in dict.fromkeys([args.parameter, "pi1"]):
        for occ in range(N_OCCLUSION_LEVELS):
            path = out_dir / f"{name}_vis{occ}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["ring", "sector", "value"])
                for ring in range(grid.n_rings):
                    for sector in range(grid.n_sectors):
                        index = condition_index(occ, ring, sector, grid)
                        writer.writerow([ring, sector, repr(value_at(name, index))])
            emitted.append(path)

    # Decay of the requested parameter along the sector that contains the ego heading.
    frontal = sector_of(0.0, grid)
    path = out_dir / f"{args.parameter}_frontal_cone.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ring", "vis0", "vis1", "vis2", "vis3"])
        for ring in range(grid.n_rings):
            row = [ring]
            for occ in range(N_OCCLUSION_LEVELS):
                row.append(repr(value_at(args.parameter, condition_index(occ, ring, frontal, grid))))
            writer.writerow(row)
    emitted.append(path)

    write_manifest(
        out_dir,
        "inspect",
        {"model": args.model, "parameter": args.parameter, "out_dir": str(out_dir)},
        [Path(args.model)],
        seed=None,
    )
    print(f"wrote {len(emitted)} files to {out_dir}")
    return EXIT_OK


def _parse_model_args(entries: list[str]) -> dict[str, Path]:
    models = {}
    for entry in entries:
        if "=" in entry:
            name, _, path = entry.partition("=")
        else:
            name, path = Path(entry).stem, entry
        if name in models:
            raise UsageError(f"duplicate model name {name!r}")
        models[name] = Path(path)
    return models


def cmd_serve(args) -> int:
    registry = {}
    for name, path in _parse_model_args(args.model).items():
        registry[name] = load_model(path)
    server = PemServer(registry, host=args.host, port=args.port)
    host, port = server.address

    def _stop(signum, frame):
        # The handler runs on the thread inside serve_forever, and shutdown()
        # waits for serve_forever to return; calling it here would deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    # Installed before the banner, so a caller that has read it may signal.
    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    print(f"serving {sorted(registry)} on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
    print("server stopped")
    return EXIT_OK


def _policy_from_file(path: str | None) -> PolicyConfig:
    if path is None:
        return PolicyConfig()
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    require_object(doc, f"policy file {path}", known=PolicyConfig.__dataclass_fields__)
    return PolicyConfig(**doc)


def _resolve_scenario(entry: str):
    path = Path(entry)
    if path.suffix == ".json" or path.is_file():
        return scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
    return make_scenario(entry)


def cmd_simulate(args) -> int:
    scenarios = [_resolve_scenario(s) for s in args.scenario]
    policy = _policy_from_file(args.policy)
    models = _parse_model_args(args.model or [])
    sources = [ModelSource(load_model(path), label=name) for name, path in models.items()]
    for entry in args.server or []:
        host, port, name = _parse_server_spec(entry)
        sources.append(RemoteSource(host, port, name, label=f"remote:{name}"))
    if not sources and not args.baseline:
        raise UsageError("nothing to simulate: give --model, --server, or --baseline")
    # Each source label names an output directory and a report row; a repeat would overwrite one.
    labels = [source.label for source in sources] + ([GroundTruthSource.label] if args.baseline else [])
    repeated = next((label for label, n in Counter(labels).items() if n > 1), None)
    if repeated is not None:
        raise UsageError(f"duplicate source label {repeated!r}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plans, cell_dirs = [], []
    for spec in scenarios:
        cases = [(src, args.runs, False) for src in sources]
        if args.baseline:
            cases.append((GroundTruthSource(), args.baseline_runs, True))
        for source, n_runs, is_baseline in cases:
            cell_dir = out_dir / f"{source.label}__{spec.scenario_id}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            sink = None
            if args.save_logs:
                runs_dir = cell_dir / "runs"
                runs_dir.mkdir(exist_ok=True)
                sink = lambda seed, log, d=runs_dir: save_runlog(log, d / f"run_{seed:06d}.jsonl")
            plans.append(CellPlan(spec, source, n_runs, args.seed, policy, is_baseline, sink))
            cell_dirs.append(cell_dir)
    try:
        reports = run_cells(plans, _sim_workers())
    finally:
        for source in sources:
            if hasattr(source, "close"):
                source.close()
    aborted_cells = []
    for cell_dir, report in zip(cell_dirs, reports):
        (cell_dir / "report.json").write_text(_canonical_json(report.to_dict()), encoding="utf-8")
        cell = report.cells[0]
        if cell.n_aborted:
            aborted_cells.append((cell.source_label, cell.scenario_id, cell.n_aborted))

    combined = merge_reports(reports)
    (out_dir / "report.json").write_text(_canonical_json(combined.to_dict()), encoding="utf-8")
    (out_dir / "table.txt").write_text(render_table(combined), encoding="utf-8")
    scenario_paths = [Path(s) for s in args.scenario if Path(s).is_file()]
    write_manifest(
        out_dir,
        "simulate",
        {
            "scenario": args.scenario,
            "model": args.model or [],
            "server": args.server or [],
            "baseline": args.baseline,
            "runs": args.runs,
            "baseline_runs": args.baseline_runs,
            "save_logs": args.save_logs,
            "out_dir": str(out_dir),
            "policy": args.policy,
        },
        [*models.values(), *scenario_paths],
        seed=args.seed,
    )
    sys.stdout.write(render_table(combined))
    if aborted_cells:
        for label, sc, n in aborted_cells:
            print(f"warning: {n} aborted runs in {label}/{sc} (excluded from bins)", file=sys.stderr)
        print(f"partial results written to {out_dir}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# On a 2-CPU host, 2 simulate workers ran 2.0x as many runs per second as
# one; 4 and 8 workers there were slower than 2. Larger hosts were not measured.
MAX_SIM_WORKERS = 2


def _sim_workers() -> int:
    """Worker processes for simulate: the CPUs this process may run on, at most MAX_SIM_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, MAX_SIM_WORKERS)


def _parse_server_spec(entry: str) -> tuple[str, int, str]:
    parts = entry.split(":")
    if len(parts) != 3:
        raise UsageError(f"--server expects HOST:PORT:MODEL, got {entry!r}")
    try:
        port = int(parts[1])
    except ValueError:
        raise UsageError(f"--server port must be an integer, got {parts[1]!r}")
    return parts[0], require(port, "option server port", int, **_OPTION_BOUNDS["port"]), parts[2]


def cmd_report(args) -> int:
    reports = []
    for run_dir in args.run_dir:
        path = Path(run_dir) / "report.json"
        if not path.exists():
            raise FileNotFoundError(f"{run_dir} contains no report.json")
        try:
            reports.append(ExperimentReport.from_dict(json.loads(path.read_text(encoding="utf-8"))))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    combined = merge_reports(reports)

    grids = {json.dumps(c.grid, sort_keys=True) for c in combined.cells if c.grid is not None}
    warnings = []
    if len(grids) > 1:
        warnings.append(f"cells mix {len(grids)} different model grids; compare with care")
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = combined.to_dict()
    doc["warnings"] = warnings
    (out_dir / "report.json").write_text(_canonical_json(doc), encoding="utf-8")
    table = render_table(combined)
    (out_dir / "table.txt").write_text(table, encoding="utf-8")
    for cell in combined.cells:
        path = out_dir / f"runs_{cell.source_label}__{cell.scenario_id}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "min_distance_m", "rel_detection_freq", "max_non_detection_s"])
            for i, dist in enumerate(cell.min_distances):
                freq = cell.detection_freqs[i]
                gap = cell.max_gaps[i]
                writer.writerow(
                    [
                        cell.base_seed + i,
                        repr(dist),
                        "" if freq is None else repr(freq),
                        "" if gap is None else repr(gap),
                    ]
                )
    write_manifest(
        out_dir,
        "report",
        {"run_dir": args.run_dir, "out_dir": str(out_dir)},
        [Path(d) / "report.json" for d in args.run_dir],
        seed=None,
    )
    sys.stdout.write(table)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pemkit", description=__doc__)
    parser.add_argument("--config", help="JSON file with option defaults (dest names as keys)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit a model from a JSONL perception dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--label", default="learned")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--gate-m", type=float, default=10.0)
    p.add_argument("--frame-rate-hz", type=float, default=2.0)
    p.add_argument("--sector-deg", type=float, default=30.0)
    p.add_argument("--ring-depth-m", type=float, default=10.0)
    p.add_argument("--max-radius-m", type=float, default=100.0)
    p.add_argument("--diagnostics", help="diagnostics JSON path (default: alongside the model)")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("inspect", help="export per-cell grids of a model parameter as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--parameter", default="pi1")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("serve", help="serve models over the line-delimited JSON protocol")
    p.add_argument("--model", action="append", required=True, help="NAME=PATH or PATH (name = file stem)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="run scenario batches against models / server / baseline")
    p.add_argument("--scenario", action="append", required=True,
                   help="TC1, TC2, TC3, or a scenario config JSON path (repeatable)")
    p.add_argument("--model", action="append", help="NAME=PATH or PATH (repeatable)")
    p.add_argument("--server", action="append", help="HOST:PORT:MODEL (repeatable)")
    p.add_argument("--baseline", action="store_true", help="also run error-free perception")
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--baseline-runs", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", help="JSON file with driving-policy constants")
    p.add_argument("--save-logs", action="store_true", help="write per-run JSONL logs")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="merge simulate outputs into a table and per-run CSVs")
    p.add_argument("--run-dir", action="append", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


# Bounds of the numeric options, checked with every option's type before a command starts.
_OPTION_BOUNDS = {"gate_m": {"above": 0}, "frame_rate_hz": {"above": 0}, "runs": {"at_least": 1},
                  "baseline_runs": {"at_least": 1}, "seed": {"at_least": 0}, "port": {"at_least": 0, "at_most": 65535}}


def _check_options(parser: argparse.ArgumentParser, args) -> None:
    """Every option of the command holds its type and bounds; argparse converts no --config value."""
    for action in _subparsers(parser).choices[args.command]._actions:
        value, name = getattr(args, action.dest, None), f"option {action.dest}"
        if value is None:  # also --help
            continue
        append = isinstance(action, argparse._AppendAction)
        kind = action.type or (bool if action.nargs == 0 else list if append else str)
        require(value, name, kind, **_OPTION_BOUNDS.get(action.dest, {}))
        for i, item in enumerate(value if kind is list else ()):
            require(item, f"{name}[{i}]", str)


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))


def _apply_config_defaults(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """Install config values as defaults, including into subparsers, and stop
    argparse from demanding options the config already provides."""
    parser.set_defaults(**defaults)
    for sub in _subparsers(parser).choices.values():
        sub.set_defaults(**defaults)
        for sub_action in sub._actions:
            if sub_action.dest in defaults:
                sub_action.required = False


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        config_path = pre.parse_known_args(argv)[0].config
        if config_path is not None:
            defaults = json.loads(Path(config_path).read_text(encoding="utf-8"))
            _apply_config_defaults(parser, require_object(defaults, f"--config file {config_path}"))
        args = parser.parse_args(argv)
        _check_options(parser, args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetFormatError, ModelFormatError, EmptyDatasetError, json.JSONDecodeError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CarConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OSError, ConnectionError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())

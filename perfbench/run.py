"""pemkit benchmark: simulate, serve and learn end to end, plus a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_local --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics for ``--seconds`` with no
wrappers installed. ``--trace 1`` runs a fixed amount of work twice, first
untraced and then with span wrappers, and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
name each figure with its unit. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sim_local", "sim_remote", "serve_stream", "learn")
# Set-up is repeated and its median reported, so one slow start does not decide it.
SETUP_REPS = 3


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _emit(workload: str, report: dict) -> None:
    for name, (value, unit) in report.items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{workload} {name} = {shown} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    from layers import PER_LAYER, per_layer
    from serverctl import child_env

    seed = seed % (1 << 31)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    trace_dir = ROOT / ".bench_work" / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Ctx(
        root=ROOT, work=work, trace_dir=trace_dir, seed=seed, smoke=smoke,
        python=sys.executable, env=child_env(SRC),
    )
    wl = workloads.WORKLOADS[name]()
    try:
        setups = []
        reps = 1 if smoke else SETUP_REPS
        for rep in range(reps):
            t0 = time.perf_counter()
            subprocess.run([ctx.python, "-c", "import pemkit.cli"], cwd=ROOT, env=ctx.env, check=True)
            wl.make_inputs(ctx)
            if wl.uses_server:
                wl.start_server(ctx, traced=False)
            setups.append(time.perf_counter() - t0)
            if wl.uses_server and rep < reps - 1:
                wl.stop_server()
        setup_s = statistics.median(setups)

        if not trace:
            p = wl.measure(ctx, seconds, traced=False)
            problems = wl.check(ctx, p)
            metrics = {
                "setup_s": (setup_s, "s"),
                "throughput_per_s": (p.throughput_per_s, "1/s"),
                "latency_ms_p50": (p.latency_ms_p50, "ms"),
                "peak_rss_mb": (p.peak_rss_mb, "MB"),
            }
            shown = {"setup_s": (setup_s, "s"), **p.report, "peak_rss_mb": (p.peak_rss_mb, "MB")}
        else:
            untraced = wl.measure(ctx, None, traced=False)
            server = None
            if wl.uses_server:
                wl.stop_server()
                wl.start_server(ctx, traced=True)
            p = wl.measure(ctx, None, traced=True)
            if wl.uses_server:
                server = wl.stop_server()
            problems = wl.check(ctx, untraced) + wl.check(ctx, p)
            p.attempted += untraced.attempted
            p.failed += untraced.failed
            values = per_layer(untraced, p, server)
            metrics = {metric: (values[metric], unit) for metric, unit in PER_LAYER}
            shown = {f"untraced.{k}": v for k, v in untraced.report.items()}
            shown.update({f"traced.{k}": v for k, v in p.report.items()})
            shown.update(metrics)
        if wl.uses_server and wl.server is not None:
            wl.stop_server()
        attempted = p.attempted + wl.server_stops
        failed = p.failed + wl.server_failures
        if wl.server_failures:
            problems.append(f"{wl.server_failures} server(s) did not exit after the shutdown request")
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    shown["failed_frac"] = (failed / attempted, "1")
    _emit(name, shown)
    for problem in problems:
        print(f"{name} CHECK FAILED: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Each workload in its own process, so no run inherits another's memory or warm state."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, fig in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = fig
    return combined


def smoke() -> int:
    """Every workload, traced and untraced, at a tiny size; checks the output contract."""
    spec = _benchmark_spec()
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for trace in (False, True):
        result = run_all(seed=1, seconds=0.2, trace=trace, smoke=True)
        for name in WORKLOAD_NAMES:
            got = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items() if k.startswith(name + ".")}
            if got != expected[trace]:
                print(f"smoke: {name} trace={int(trace)} metrics differ from BENCHMARK.json", file=sys.stderr)
                ok = False
        ok &= result["correct"] and result["failed"] == 0
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; with no --workload, test every workload")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so that servers and workers are stopped
    # and the scratch directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pemkit" / "__init__.py").is_file():
        print(f"error: pemkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pemkit

    if Path(pemkit.__file__).resolve().parent != (SRC / "pemkit").resolve():
        print(f"error: imported pemkit from {pemkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    print("# machine: " + json.dumps(machine_info(), sort_keys=True), flush=True)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

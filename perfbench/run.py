"""Benchmark of the SIA on a fixed workload matrix: host wall time end to
end (tracing off) and per layer (tracing on).

Run one workload, as the benchmark contract does::

    python3 perfbench/run.py --workload ccsd_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs every workload, untraced and traced, each in its own process,
and prints every report.  Workloads, metrics and what each layer
metric should move are described in ``perfbench/INTERACTIONS.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench_out"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict[str, object]:
    """nproc, Python, numpy, the BLAS library and its thread setting."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env: dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _blas_threads() -> object:
    """The loaded OpenBLAS's thread count, or "unknown"."""
    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import measure
    from workloads import WORKLOADS, prepare

    spec = _spec()
    prepared = prepare(WORKLOADS[workload], seed)
    spans_path = SPANS_DIR / f"{workload}-seed{seed}-spans.npz" if trace else None
    report = measure(prepared, seconds, trace, spans_path)

    if trace:
        metrics = {
            m["name"]: _metric(report.layers.get(m["name"], 0.0), m["unit"])
            for m in spec["per_layer"]
        }
    else:
        values = {
            "wall_s": statistics.median(report.walls) if report.walls else 0.0,
            "setup_s": statistics.median(report.setups),
            "peak_rss_mb": report.peak_rss_mb,
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("environment " + json.dumps(environment()))
    print(
        f"executions: {report.attempted} attempted, {report.failed} failed, "
        f"error_rate {report.failed / max(report.attempted, 1):.4f}; "
        f"{len(report.walls)} untraced, {len(report.traced_walls)} traced, "
        f"{report.setup_count} set-ups in {len(report.setups)} samples"
    )
    print("untraced walls (s): " + " ".join(f"{w:.3f}" for w in report.walls))
    if trace:
        print("traced walls (s): " + " ".join(f"{w:.3f}" for w in report.traced_walls))
    for name, m in metrics.items():
        print(f"  {name:<28s} {m['value']:>16.6g} {m['unit']}")
    for problem in report.problems:
        print("problem: " + problem, file=sys.stderr)
    return {
        "correct": report.failed == 0 and not report.problems and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = {}
    for workload in (w["name"] for w in _spec()["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
            if trace:
                overhead[workload] = result["metrics"]["trace.overhead"]["value"]
    for workload, value in overhead.items():
        print(f"trace.overhead {workload}: {100 * value:.1f} %")
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no SIA source under {src}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.workload in names:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

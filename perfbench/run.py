"""Run one pvg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout: pvg is imported from ``src/`` next to
this directory, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units BENCHMARK.json lists.
Scratch files, the span CSV and a full JSON report go to ``.perfbench_out/``.
"""

import os

# OpenBLAS reads this when numpy loads it, so it is set before anything
# imports numpy. One thread: a run uses one core whatever the host has.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-tiny", "train-deep21", "eval-b1")
E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "images/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes
    (threadpoolctl is not available)."""
    with open("/proc/self/maps") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
    libs = {p for p in paths if ".so" in p}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "pvg" / "__init__.py").is_file():
        print(f"error: no pvg sources at {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    import pvg
    import workloads

    if Path(pvg.__file__).resolve().parent != (src / "pvg").resolve():
        print(f"error: imported pvg from {pvg.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    host = host_info()
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)

    correct = out.failed == 0 and all(out.gates.values())

    for c in out.calls:
        print("call: " + json.dumps(c, sort_keys=True))
    for gate, ok in out.gates.items():
        print(f"gate: {'ok  ' if ok else 'FAIL'} {gate}")
    print(f"ops = {out.attempted}")
    print(f"ops_failed = {out.failed}")

    report = {
        "args": vars(args),
        "host": host,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "gates": out.gates,
        "calls": out.calls,
        "setup_s_samples": out.setup_s,
    }
    if args.trace:
        layers = dict(out.layers or {})
        untraced = statistics.median(out.samples_per_s)
        traced = statistics.median(out.traced_samples_per_s)
        layers["trace.samples_per_s"] = (traced, "images/s")
        layers["trace.overhead_pct"] = (100.0 * (untraced - traced) / untraced, "%")
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit}")
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        metrics = {m["name"]: {"value": layers[m["name"]][0], "unit": layers[m["name"]][1]} for m in spec["per_layer"]}
    else:
        tail_ms, tail_pct = workloads.tail(out.op_ms) if out.op_ms else (0.0, 0.0)
        e2e = {
            "setup_s": statistics.median(out.setup_s),
            "samples_per_s": statistics.median(out.samples_per_s) if out.samples_per_s else 0.0,
            "op_ms_p50": statistics.median(out.op_ms) if out.op_ms else 0.0,
            "op_ms_tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name, value in e2e.items():
            print(f"{name} = {value:.6g} {E2E_UNITS[name]}")
        beyond = 10 if len(out.op_ms) > 10 else 0
        print(f"op_ms_tail is p{tail_pct:.2f} of {len(out.op_ms)} operations ({beyond} beyond it)")
        report["end_to_end"] = e2e
        report["op_ms_tail_percentile"] = tail_pct
        report["op_ms_samples"] = len(out.op_ms)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": E2E_UNITS[m["name"]]} for m in spec["end_to_end"]}
    (workdir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

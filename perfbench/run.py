"""Benchmark of floqlat: three seeded workloads, end-to-end metrics, optional per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A record of the machine, the inputs, every timing and (when
traced) every span is written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
# One BLAS thread unless the environment asks for another count: on this
# workload two threads were no faster, and one thread is steadier.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import floqlat
floqlat.quasienergies(floqlat.build_floquet(floqlat.DriveParams(0.3, 0.7, 4)))
print(time.perf_counter() - start)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record(np, seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = _blas_threads(np)
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def measure_setup() -> list[float]:
    """Fresh processes: import floqlat plus one tiny quasienergies call, timed inside each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "phase_grid", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "floqlat" / "__init__.py").is_file():
        fail(f"no floqlat package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import floqlat

    if Path(floqlat.__file__).resolve().parent != (SRC / "floqlat").resolve():
        fail(f"imported floqlat from {floqlat.__file__}, not from {SRC}")
    machine = machine_record(np, args.seed)
    if machine["blas_threads"] > machine["nproc"]:
        fail(f"{machine['blas_threads']} BLAS threads on {machine['nproc']} cores; "
             "set OPENBLAS_NUM_THREADS to at most the core count")

    from workloads import WORKLOADS, check_ops, run_ops, timed_passes

    setup = measure_setup()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        workload.warmup()
        ops: list = []
        traced_ops: list = []
        if args.trace:
            from spans import Tracer, layer_metrics

            durations = timed_passes(workload, 0.0, ops)  # exactly one untraced pass
            tracer = Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                traced_ops = run_ops(workload.ops(), tracer)
                traced_s = time.perf_counter() - start
            finally:
                tracer.uninstall()
        else:
            durations = timed_passes(workload, args.seconds, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_ops(workload, ops + traced_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) + len(traced_ops)
    op_ms = np.array([op.seconds * 1e3 for op in ops])
    record = {
        "workload": args.workload,
        "inputs": workload.describe(),
        "machine": machine,
        "setup_samples_s": setup,
        "pass_s": durations,
        "op_ms": {op.label: [] for op in ops},
        "attempted": attempted,
        "failures": failures,
    }
    for op in ops:
        record["op_ms"][op.label].append(op.seconds * 1e3)

    if args.trace:
        layers = layer_metrics(tracer.spans)
        layers["trace.run_s"] = (traced_s, "s")
        layers["trace.overhead_s"] = (traced_s - durations[0], "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        record["spans"] = [span.as_list() for span in tracer.spans]
        record["unpatched"] = tracer.skipped
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(durations), "unit": "s"},
            "op_p50_ms": {"value": float(np.percentile(op_ms, 50)), "unit": "ms"},
            "op_p90_ms": {"value": float(np.percentile(op_ms, 90)), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"inputs: {json.dumps(workload.describe())}")
    print(f"passes: {len(durations)} untraced" + (", 1 traced" if args.trace else "")
          + f"; operations timed: {len(op_ms)}, beyond p90: {int((op_ms > np.percentile(op_ms, 90)).sum())}")
    for metric, entry in metrics.items():
        print(f"{metric:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_frac':34s} {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``metrics.END_TO_END``;
``--trace 1`` runs the timed phase twice, untraced then traced, and prints
the per-layer metrics of ``metrics.PER_LAYER``. The last line of standard
output is the result object; the line before it is the run's metadata.
The run and the processes it starts are pinned to one CPU.
Output files (containers, server logs, the span trace) go under
``.perfbench_out/`` in the checkout. The exit code is non-zero when an
output check fails, when the traced spans cover less than 95% of the timed
phase, or when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, for this process and the ones it starts: OpenBLAS's
# worker threads otherwise spin on the second core of a 2-core host without
# making the single-vector work faster, and tie every timing to both cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-interpreter imports and set-up repeats per run; ``setup_s`` adds
#: the median of each.
SETUP_REPEATS = 5
#: ROADMAP's coverage target: layer spans must cover this share of the
#: timed phase in the traced run.
MIN_COVERAGE = 0.95


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def import_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing everything the
    benchmark needs before its set-up (``workloads`` pulls in numpy, scipy
    and the ``repro`` layers)."""
    from workloads import median

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE), str(SRC), env.get("PYTHONPATH", "")) if p
    )
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return median(samples)


def parse_args(argv=None) -> argparse.Namespace:
    from metrics import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(w, rec, seconds: float, import_s: float = 0.0):
    """Set up ``w`` and run its timed phase; return ``(metrics, coverage)``.

    Untraced (``rec.enabled`` false): the end-to-end metrics. Traced: the
    timed phase runs twice, untraced then traced, for the per-layer
    metrics, the tracing overhead and the spans' coverage.
    """
    from workloads import median

    traced = rec.enabled
    if traced:
        w.install(rec)
    setup_times = []
    for r in range(SETUP_REPEATS):
        rec.run = f"setup{r}"
        if r:
            w.teardown()
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
    rec.run = "after_setup"
    w.after_setup()
    setup_s = import_s + median(setup_times)
    if not traced:
        rec.run = "timed"
        w.begin_phase()
        w.run_phase(seconds)
        w.finish()
        return w.end_to_end(setup_s), 1.0
    # Untraced half first, for the overhead; then the traced half.
    rec.unwrap()
    rec.enabled = False
    rec.run = "untraced"
    w.begin_phase()
    w.run_phase(seconds / 2)
    w.finish()
    w.untraced_latencies = list(w.latencies)
    rec.enabled = True
    w.install(rec)
    rec.run = "begin"
    w.begin_phase()
    rec.run = "timed"
    windows = w.run_phase(seconds / 2)
    rec.run = "probe"
    w.finish()
    values = w.layer_metrics()
    coverage = rec.coverage(windows)
    values["bench.unattributed_frac"] = 1.0 - coverage
    values["bench.trace_overhead_frac"] = (
        statistics.fmean(w.latencies) / statistics.fmean(w.untraced_latencies) - 1.0
    )
    rec.unwrap()
    return values, coverage


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every process it starts. Each closed loop
    # here has one runnable thread at a time; on a shared virtual machine a
    # wake-up sent to the other vCPU waits until the host schedules it, and
    # serve_wait's latency then rose 1.3-1.5x in busy-host periods, against
    # about 1.1x with client and server on one CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import repro
    from metrics import END_TO_END, PER_LAYER, result
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out.mkdir(parents=True)
    rec = SpanRecorder(enabled=bool(args.trace))
    w = WORKLOADS[args.workload](args.seed, out, rec)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": w.params,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(ROOT),
    }
    try:
        import_s = 0.0 if args.trace else import_seconds(SETUP_REPEATS)
        values, coverage = measure(w, rec, args.seconds, import_s)
    finally:
        rec.unwrap()
        w.close()

    n = len(w.latencies)
    meta["samples"] = {
        "setup_repeats": SETUP_REPEATS,
        "latency_mean_ms": n,
        "throughput_rps": n,
        "attempted": w.attempted,
    }
    meta["latency_p50_ms"] = 1e3 * statistics.median(w.latencies)
    p95 = int(0.95 * n)
    if n - 1 - p95 >= 10:  # at least ten samples beyond the 95th percentile
        meta["latency_p95_ms"] = 1e3 * sorted(w.latencies)[p95]
        meta["samples"]["latency_p95_ms"] = n
    if args.trace:
        meta["coverage"] = coverage
        rec.dump(str(out / "trace.json"), meta)
    for brx in out.rglob("*.brx"):
        brx.unlink()
    (out / "meta.json").write_text(json.dumps(meta, indent=1))

    correct = w.failed == 0 and coverage >= MIN_COVERAGE
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": result(values, PER_LAYER if args.trace else END_TO_END),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's metric catalogue.

Names, units, directions and bounds live in ``BENCHMARK.json`` only; this
module reads them from there and adds what the file has no room for: the
definition of each end-to-end metric and, for each per-layer metric, the
end-to-end metric (and workload) where its layer's number shows. Every run
prints every metric of its mode (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).

End-to-end metrics are defined on every workload. Each workload has one
*timed operation*: a build pass over both matrices (``build``), one CG
solve (``solve``) or one request (``serve_wait``).

A per-layer metric of a layer that a workload never calls reads 0 there
(for example ``reorder.bar_s`` outside ``build``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])
#: metric name -> unit, in ``BENCHMARK.json`` order
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

DEFINED: Dict[str, str] = {
    "setup_s": "fresh-process start to the first timed operation: the median "
               "of 5 fresh interpreters importing the benchmark, plus the median "
               "of 5 repeats of input building and warm-up (serve_wait: server "
               "spawn, pool load and warm-up)",
    "latency_mean_ms": "mean wall time of one timed operation over the timed "
                       "phase: a build pass, BAR through the verified first SpMV "
                       "of both matrices (build); one CG solve (solve); a request "
                       "(serve_wait). The median and p95 are in the run metadata",
    "throughput_rps": "single-vector operations completed per second over the "
                      "timed phase: matrices prepared (build), operator "
                      "applications (solve), requests (serve_wait)",
    "success_rate": "verified operations over attempted ones; rejected, errored, "
                    "failed-check and (serve_wait) slower-than-1-s requests are "
                    "failures",
    "peak_rss_mb": "peak RSS of the benchmark process; of the server process "
                   "(VmHWM) on serve_wait",
    "stored_bytes_per_nnz": ".brx file bytes over nnz: the paper's space saving",
    "model_gflops": "simulated K20 GFLOP/s from KernelCounters of the first SpMV; exact",
}

MOVES: Dict[str, str] = {
    # -- build path --------------------------------------------------------
    "matrices.generate_s": "setup_s on every workload",
    "reorder.bar_s": "latency_mean_ms on build; 0 elsewhere",
    "reorder.bar_ns_per_nnz": "latency_mean_ms on build; 0 elsewhere",
    "formats.convert_s": "latency_mean_ms on build, setup_s on solve and serve_wait",
    "integrity.seal_s": "latency_mean_ms on build",
    "serialize.save_s": "latency_mean_ms on build",
    "serialize.open_s": "latency_mean_ms on build, setup_s on solve and serve_wait",
    "kernels.plan_build_s": "latency_mean_ms on build, setup_s on solve and serve_wait",
    "kernels.first_spmv_ms": "latency_mean_ms on build",
    "core.index_bytes_per_nnz": "stored_bytes_per_nnz (exact count)",
    "gpu.dram_bytes_per_nnz": "model_gflops (exact model count)",
    # -- kernels / solve path ----------------------------------------------
    "kernels.spmv_calls": "latency_mean_ms on solve (count)",
    "kernels.spmv_busy_s": "latency_mean_ms on solve",
    "kernels.spmv_ns_per_nnz": "latency_mean_ms on solve",
    "kernels.replay_ns_per_nnz": "latency_mean_ms on solve",
    "kernels.dispatch_us": "latency_mean_ms on solve",
    "kernels.spmv_x_scipy": "latency_mean_ms on solve",
    "kernels.host_gbs_computed": "latency_mean_ms on solve",
    "solvers.cg_iterations": "latency_mean_ms on solve; 0 elsewhere",
    "solvers.cg_self_s": "latency_mean_ms on solve; 0 elsewhere",
    "solvers.cg_x_scipy": "latency_mean_ms on solve; 0 elsewhere",
    "gpu.model_ms_per_spmv": "model_gflops",
    # -- serve path (0 outside serve_wait) -----------------------------------
    "serve.queue_ms_p50": "latency_mean_ms on serve_wait (the batch window's wait)",
    "serve.execute_ms_p50": "latency_mean_ms and throughput_rps on serve_wait",
    "serve.handoff_ms": "latency_mean_ms on serve_wait (execute_ms minus in-process run_spmv)",
    "serve.wire_ms_p50": "latency_mean_ms on serve_wait (latency minus queue_ms minus execute_ms)",
    "serve.batch_size_mean": "throughput_rps; stays 1.0 on serve_wait",
    "serve.server_cpu_ms_per_req": "latency_mean_ms on serve_wait",
    "serve.server_busy_frac": "latency_mean_ms on serve_wait",
    "serve.client_cpu_ms_per_req": "latency_mean_ms on serve_wait",
    "serve.api.request_encode_ms": "latency_mean_ms on serve_wait",
    "serve.api.response_decode_ms": "latency_mean_ms on serve_wait",
    "kernels.spmm_ms_per_vec": "throughput_rps of a batching server (in-process "
                               "run_spmm at 8 vectors on the served .brx)",
    "kernels.plancache_hit_ratio": "latency_mean_ms on serve_wait (1.0 when warm)",
    "serve.rejected": "success_rate on serve_wait",
    # -- every workload ------------------------------------------------------
    "bench.trace_overhead_frac": "none: traced minus untraced over untraced",
    "bench.unattributed_frac": "none: share of the timed phase no layer span covers",
}


def result(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict]:
    """``{name: {"value", "unit"}}`` for exactly the names of ``units``."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}

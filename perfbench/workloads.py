"""The benchmark workloads, driven only through ``repro``'s public
entry points.

A workload has ``setup()`` (repeated; the median is part of ``setup_s``),
``run_phase(seconds)`` (the timed closed loop; every operation is checked
independently of the code under test) and, for the traced run,
``layer_metrics()``. :mod:`run` owns the repeats, the traced and untraced
phases and the result line.

Why these workloads (``BENCHMARK.json`` carries a one-line version):

* ``build`` — offline preparation of two suite matrices. BAR
  (``reorder.bar_permutation``) is about 90% of the work here and runs
  nowhere else, so a faster or exact BAR shows here and only here.
* ``solve`` — CG over ``SimulatedOperator`` on a sealed, mmap-opened SPD
  ``bro_ell`` system: warm single-vector plan replay dominates; neither
  reordering nor the wire runs.
* ``serve_wait`` — ``repro serve`` in its own process with its shipped
  defaults, in a closed loop with one waiting caller: batching never
  coalesces, so the batch window is pure waiting and JSON wire work
  dominates. A closed loop keeps the offered load steady on a small host,
  where an open-loop client's percentiles swing with the machine's other
  load.

The seed draws every x vector and right-hand side. The matrices are the
suite's fixed stand-ins, so runs with different seeds do the same work.

Left unmeasured: ``repro.exec`` (sharded thread/process backends),
``repro.tuner``, and the micro-batcher coalescing under concurrent load: a
burst workload (two connections pipelining 8 requests each) saturated both
cores of a 2-core host, and its medians moved by more than the 0.25 bound
between two sets of runs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro.pipeline
import repro.serve.client
from repro import formats, integrity, kernels, matrices, reorder, serialize, solvers
from repro.exec.policy import ExecutionPolicy
from repro.formats.coo import COOMatrix
from repro.kernels.plan import SpMVPlan
from repro.kernels.plancache import PLAN_CACHE, PlanCache
from repro.serve import ServeClient, SpMVRequest, SpMVResponse

from server import ServerProcess
from spans import SpanRecorder

DEVICE = "k20"
#: A served request slower than this counts as a failure.
SERVE_LIMIT_S = 1.0

Windows = Dict[int, Tuple[float, float]]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def to_scipy_csr(coo: COOMatrix) -> sp.csr_matrix:
    """A COO matrix as scipy CSR: the reference the checks use."""
    return sp.csr_matrix((coo.vals, (coo.row_idx, coo.col_idx)), shape=coo.shape)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def check_permuted_product(y: np.ndarray, y_source: np.ndarray, perm: np.ndarray) -> bool:
    """y of the reordered container against scipy's product on the source
    COO under the permutation: ``y[i] == y_source[perm[i]]`` up to
    summation order."""
    expected = y_source[perm]
    scale = float(np.max(np.abs(expected), initial=1.0))
    return y.shape == expected.shape and bool(
        np.allclose(y, expected, rtol=1e-10, atol=1e-12 * scale)
    )


def true_residual(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> float:
    """Relative residual ``||b - A x|| / ||b||`` computed by scipy."""
    return float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


def scipy_spmv_seconds(A: sp.csr_matrix, x: np.ndarray, reps: int = 50) -> float:
    """Median seconds of scipy CSR ``A @ x``: the same-run host reference."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        A @ x
        samples.append(time.perf_counter() - t0)
    return median(samples)


def computed_host_bytes(matrix) -> int:
    """Stored container bytes plus x read and y written (16 B per row)."""
    return int(sum(matrix.device_bytes().values())) + 16 * int(matrix.shape[0])


PREP_LAYERS = {
    "formats.convert_s": "formats.convert",
    "integrity.seal_s": "integrity.seal",
    "serialize.save_s": "serialize.save",
    "serialize.open_s": "serialize.open",
    "kernels.plan_build_s": "kernels.plan_build",
}
REORDER_LAYERS = ("reorder.bar_s", "reorder.bar_ns_per_nnz")
SOLVER_LAYERS = ("solvers.cg_iterations", "solvers.cg_self_s", "solvers.cg_x_scipy")
SERVE_LAYERS = (
    "serve.queue_ms_p50", "serve.execute_ms_p50", "serve.handoff_ms",
    "serve.wire_ms_p50", "serve.batch_size_mean", "serve.server_cpu_ms_per_req",
    "serve.server_busy_frac", "serve.client_cpu_ms_per_req",
    "serve.api.request_encode_ms", "serve.api.response_decode_ms",
    "kernels.spmm_ms_per_vec", "kernels.plancache_hit_ratio", "serve.rejected",
)


class Workload:
    """Seed, output directory, span recorder and the check counts."""

    name = ""
    #: (owner, attribute, span name) wrapped for the traced phases.
    wraps: Tuple[Tuple[Any, str, str], ...] = ((SpMVPlan, "execute", "kernels.plan_execute"),)

    def __init__(self, seed: int, out: Path, rec: SpanRecorder) -> None:
        self.seed = seed
        self.out = out
        self.rec = rec
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.ops = 0  #: operations started, over all phases
        self.setups = 0  #: set-up repeats started
        self.untraced_latencies: List[float] = []
        self.begin_phase()

    # -- hooks -------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo one set-up repeat before the next (not timed)."""

    def after_setup(self) -> None:
        """Build check references after the timed set-up repeats."""

    def op(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Read end-of-phase counters."""

    def close(self) -> None:
        """Release everything the workload started."""

    def install(self, rec: SpanRecorder) -> None:
        for owner, attr, name in self.wraps:
            rec.wrap(owner, attr, name)

    # -- phase -------------------------------------------------------------
    def begin_phase(self) -> None:
        self.latencies: List[float] = []  #: seconds per timed operation
        self.units = 0  #: single-vector operations completed
        self.wall = 0.0  #: seconds of the timed phase

    def run_phase(self, seconds: float) -> Windows:
        """Closed loop of ``op()`` for ``seconds`` (at least one op)."""
        t0 = time.perf_counter()
        while True:
            self.op()
            self.ops += 1
            t1 = time.perf_counter()
            if t1 - t0 >= seconds:
                self.wall = t1 - t0
                return {threading.get_ident(): (t0, t1)}

    def throughput(self) -> float:
        """Units per second over the whole timed phase, checks between the
        operations included."""
        return self.units / self.wall

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def span(self, name: str):
        return self.rec.span(name)

    # -- model and storage counts of the prepared containers -------------------
    def reset_model_counts(self) -> None:
        self.stored_bytes = self.stored_nnz = self.index_bytes = 0
        self.dram_bytes = self.model_flops = self.model_spmvs = 0
        self.host_bytes = 0
        self.model_time = 0.0

    def record_first_spmv(self, result, matrix, path: Path) -> None:
        self.stored_bytes += os.path.getsize(path)
        self.stored_nnz += int(matrix.nnz)
        self.index_bytes += int(matrix.device_bytes()["index"])
        self.dram_bytes += int(result.counters.dram_bytes)
        self.model_flops += int(result.counters.useful_flops)
        self.model_time += float(result.timing.time)
        self.model_spmvs += 1
        self.host_bytes += computed_host_bytes(matrix)

    # -- metrics -------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        return {
            "setup_s": setup_s,
            "latency_mean_ms": 1e3 * statistics.fmean(self.latencies),
            "throughput_rps": self.throughput(),
            "success_rate": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": self.peak_rss_mb(),
            "stored_bytes_per_nnz": self.stored_bytes / self.stored_nnz,
            "model_gflops": self.model_flops / self.model_time / 1e9,
        }

    def setup_layer(self, name: str) -> float:
        """Median over set-up repeats of a layer's seconds in one repeat."""
        runs = {s.run for s in self.rec.spans if s.run.startswith("setup")}
        return median(
            sum(s.duration for s in self.rec.select(name, run)) for run in sorted(runs)
        )

    def common_layers(self, run: str, scipy_s_per_call: float) -> Dict[str, float]:
        """Model counts, plus replay and dispatch numbers from the
        ``run_spmv``/``execute`` spans in ``run``, against scipy's ``A @ x``
        (all per call, averaged over the workload's matrices)."""
        rec = self.rec
        nnz_per_call = self.stored_nnz / self.model_spmvs
        bytes_per_call = self.host_bytes / self.model_spmvs
        calls = rec.select("kernels.run_spmv", run)
        replay = rec.total("kernels.plan_execute", run)
        busy = sum(s.duration for s in calls)
        n = max(len(calls), 1)
        per_call = busy / n
        return {
            "core.index_bytes_per_nnz": self.index_bytes / self.stored_nnz,
            "gpu.dram_bytes_per_nnz": self.dram_bytes / self.stored_nnz,
            "gpu.model_ms_per_spmv": 1e3 * self.model_time / self.model_spmvs,
            "kernels.spmv_calls": float(len(calls)),
            "kernels.spmv_busy_s": busy,
            "kernels.spmv_ns_per_nnz": 1e9 * per_call / nnz_per_call,
            "kernels.replay_ns_per_nnz": 1e9 * replay / n / nnz_per_call,
            "kernels.dispatch_us": 1e6 * (busy - replay) / n,
            "kernels.spmv_x_scipy": per_call / scipy_s_per_call,
            "kernels.host_gbs_computed": bytes_per_call / per_call / 1e9,
        }


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------
class Build(Workload):
    """generate → bar_permutation → convert → seal → save → open → prepare
    → one verified run_spmv, for a hub-row and a block-band matrix."""

    name = "build"
    #: (suite name, format, scale): rajat30 (Test Set 2, hub rows) and cant
    #: (Test Set 1, block band).
    MATRICES = (("rajat30", "bro_hyb", 0.01), ("cant", "bro_ell", 0.05))

    def __init__(self, seed: int, out: Path, rec: SpanRecorder, specs=MATRICES) -> None:
        super().__init__(seed, out, rec)
        self.specs = tuple(specs)
        self.params = {"matrices": [list(m) for m in self.specs], "verify": "checksum",
                       "device": DEVICE}

    def setup(self) -> None:
        self.sources = []
        for name, fmt, scale in self.specs:
            with self.span("matrices.generate"):
                coo = matrices.generate(name, scale=scale)
            self.sources.append((name, fmt, coo))

    def after_setup(self) -> None:
        self.inputs = []
        for _, _, coo in self.sources:
            x = self.rng.standard_normal(coo.shape[1])
            self.inputs.append((x, to_scipy_csr(coo) @ x))

    def op(self) -> None:
        self.reset_model_counts()
        t0 = time.perf_counter()
        for (name, fmt, coo), (x, y_source) in zip(self.sources, self.inputs):
            path = self.out / f"{name}-{self.ops}.brx"
            with self.span("reorder.bar"):
                perm = reorder.bar_permutation(coo)
            with self.span("reorder.apply"):
                reordered = reorder.apply_reordering(coo, perm)
            with self.span("formats.convert"):
                matrix = formats.convert(reordered, fmt)
            with self.span("integrity.seal"):
                integrity.seal(matrix)
            with self.span("serialize.save"):
                serialize.save_container(matrix, path)
            with self.span("serialize.open"):
                opened = serialize.load_container(path, mmap_arrays=True, verify=True)
            cache = PlanCache()
            with self.span("kernels.plan_build"):
                cache.get_or_build(opened, DEVICE)
            with self.span("kernels.run_spmv"):
                result = kernels.run_spmv(
                    opened, x, DEVICE,
                    policy=ExecutionPolicy(verify="checksum", plan_cache=cache),
                )
            with self.span("bench.verify"):
                self.count(check_permuted_product(result.y, y_source, perm))
            self.record_first_spmv(result, opened, path)
            del opened, cache
            path.unlink()
        self.latencies.append(time.perf_counter() - t0)
        self.units += len(self.sources)

    def layer_metrics(self) -> Dict[str, float]:
        rec = self.rec
        passes = len(self.latencies)
        nnz = sum(coo.nnz for _, _, coo in self.sources)
        k = len(self.sources)
        scipy_s = sum(
            scipy_spmv_seconds(to_scipy_csr(coo), x)
            for (_, _, coo), (x, _) in zip(self.sources, self.inputs)
        )
        bar = rec.total("reorder.bar") / passes
        out = {
            "matrices.generate_s": self.setup_layer("matrices.generate"),
            "reorder.bar_s": bar,
            "reorder.bar_ns_per_nnz": 1e9 * bar / nnz,
            "kernels.first_spmv_ms": 1e3 * rec.total("kernels.run_spmv") / (passes * k),
        }
        out.update({key: rec.total(span) / passes for key, span in PREP_LAYERS.items()})
        out.update(self.common_layers("timed", scipy_s / k))
        out.update(dict.fromkeys(SOLVER_LAYERS + SERVE_LAYERS, 0.0))
        return out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------
def spd_system(coo: COOMatrix, shift: float = 1e-3) -> COOMatrix:
    """An SPD matrix on the pattern of ``coo``: the pattern mirrored, the
    off-diagonals ``-(|A| + |A|^T)`` and the diagonal on top, ``1 + shift``
    times each row's off-diagonal sum (a shifted graph Laplacian)."""
    B = abs(to_scipy_csr(coo))
    S = (B + B.T).tocsr()
    S.setdiag(0)
    S.eliminate_zeros()
    A = (sp.diags(np.asarray(S.sum(axis=1)).ravel() * (1.0 + shift)) - S).tocoo()
    return COOMatrix(A.row, A.col, A.data, A.shape)


class Solve(Workload):
    """CG to relative residual 1e-8 from x0 = 0 over seeded right-hand
    sides, applied through ``SimulatedOperator`` (default policy) on a
    sealed, saved and mmap-opened ``bro_ell`` container."""

    name = "solve"
    MATRIX = ("mc2depi", "bro_ell", 0.05)
    TOL = 1e-8
    MAX_ITER = 5000
    N_RHS = 8
    # Session.run calls run_spmv through the pipeline module's name.
    wraps = Workload.wraps + ((repro.pipeline, "run_spmv", "kernels.run_spmv"),)

    def __init__(self, seed: int, out: Path, rec: SpanRecorder, spec=MATRIX) -> None:
        super().__init__(seed, out, rec)
        self.spec = tuple(spec)
        name, fmt, scale = self.spec
        self.params = {"matrix": name, "format": fmt, "scale": scale,
                       "system": "spd_system(shift=1e-3)", "tol": self.TOL,
                       "rhs": self.N_RHS, "device": DEVICE}
        self.iterations: List[int] = []

    def setup(self) -> None:
        name, fmt, scale = self.spec
        with self.span("matrices.generate"):
            coo = matrices.generate(name, scale=scale)
        self.source = spd_system(coo)
        self.reset_model_counts()
        PLAN_CACHE.clear()  # every repeat pays its own plan build
        path = self.out / f"{name}-spd-{self.setups}.brx"
        self.setups += 1
        with self.span("formats.convert"):
            matrix = formats.convert(self.source, fmt)
        with self.span("integrity.seal"):
            integrity.seal(matrix)
        with self.span("serialize.save"):
            serialize.save_container(matrix, path)
        with self.span("serialize.open"):
            self.matrix = serialize.load_container(path, mmap_arrays=True, verify=True)
        self.operator = solvers.SimulatedOperator(self.matrix, DEVICE)
        with self.span("kernels.plan_build"):
            self.operator.session.prepare()
        with self.span("kernels.first_spmv"):
            self.operator(np.ones(self.matrix.shape[1]))
        self.record_first_spmv(self.operator.session.last_result, self.matrix, path)

    def after_setup(self) -> None:
        self.A = to_scipy_csr(self.source)
        n = self.A.shape[0]
        self.rhs = [self.rng.standard_normal(n) for _ in range(self.N_RHS)]

    def op(self) -> None:
        b = self.rhs[self.ops % len(self.rhs)]
        calls = self.operator.spmv_calls
        t0 = time.perf_counter()
        with self.span("solvers.cg"):
            res = solvers.conjugate_gradient(
                self.operator, b, tol=self.TOL, max_iter=self.MAX_ITER
            )
        elapsed = time.perf_counter() - t0
        with self.span("bench.verify"):
            self.count(res.converged and true_residual(self.A, b, res.x) <= self.TOL)
        self.latencies.append(elapsed)
        self.iterations.append(res.iterations)
        self.units += self.operator.spmv_calls - calls

    def layer_metrics(self) -> Dict[str, float]:
        rec = self.rec
        A = self.A
        # The same system and right-hand sides through repro's CG with
        # scipy's CSR A @ x as the operator: the same-run host reference.
        host_cg = []
        for b in self.rhs[:3]:
            t0 = time.perf_counter()
            solvers.conjugate_gradient(lambda v: A @ v, b, tol=self.TOL, max_iter=self.MAX_ITER)
            host_cg.append(time.perf_counter() - t0)
        solves = rec.select("solvers.cg")
        out = {
            "matrices.generate_s": self.setup_layer("matrices.generate"),
            "kernels.first_spmv_ms": 1e3 * self.setup_layer("kernels.first_spmv"),
            "solvers.cg_iterations": median(self.iterations),
            "solvers.cg_self_s": rec.self_total("solvers.cg") / max(len(solves), 1),
            "solvers.cg_x_scipy": median(self.untraced_latencies) / median(host_cg),
        }
        out.update({key: self.setup_layer(span) for key, span in PREP_LAYERS.items()})
        out.update(self.common_layers("timed", scipy_spmv_seconds(A, self.rhs[0])))
        out.update(dict.fromkeys(REORDER_LAYERS + SERVE_LAYERS, 0.0))
        return out


# ---------------------------------------------------------------------------
# serve_wait
# ---------------------------------------------------------------------------
class ServeWait(Workload):
    """``repro serve`` in its own process over a benchmark-built ``.brx``,
    driven by one ``ServeClient`` connection with one request in flight:
    a closed loop with a single waiting caller."""

    name = "serve_wait"
    #: as `repro serve` converts a suite name: bro_ell, h=64, scale 0.05
    MATRIX = ("qcd5_4", "bro_ell", 0.05, 64)
    N_X = 32  #: distinct seeded x vectors, cycled
    WARMUP = 16

    def __init__(self, seed: int, out: Path, rec: SpanRecorder, spec=MATRIX) -> None:
        self.server: Optional[ServerProcess] = None
        self.client: Optional[ServeClient] = None
        super().__init__(seed, out, rec)
        self.spec = tuple(spec)
        name, fmt, scale, h = self.spec
        self.params = {"matrix": name, "format": fmt, "scale": scale, "h": h,
                       "connections": 1, "in_flight": 1,
                       "server": "repro serve defaults: 2 ms window, max_batch 16, "
                                 "4 executor threads", "device": DEVICE}

    def install(self, rec: SpanRecorder) -> None:
        super().install(rec)
        rec.wrap(SpMVRequest, "to_wire", "serve.api.request_encode")
        rec.wrap(SpMVResponse, "from_wire", "serve.api.response_decode")
        # The client's JSON codec, seen through its module's `json` name.
        rec.patch(repro.serve.client, "json", SimpleNamespace(
            dumps=rec.spanned(json.dumps, "serve.api.json_encode"),
            loads=rec.spanned(json.loads, "serve.api.json_decode"),
            JSONDecodeError=json.JSONDecodeError,
        ))

    def setup(self) -> None:
        name, fmt, scale, h = self.spec
        with self.span("matrices.generate"):
            self.source = matrices.generate(name, scale=scale)
        self.reset_model_counts()
        # One directory per repeat: the pool name is the file's stem, and a
        # container still mapped by an earlier repeat is never overwritten.
        path = self.out / f"rep{self.setups}" / f"{name}.brx"
        path.parent.mkdir()
        self.setups += 1
        with self.span("formats.convert"):
            matrix = formats.convert(self.source, fmt, h=h)
        with self.span("integrity.seal"):
            integrity.seal(matrix)
        with self.span("serialize.save"):
            serialize.save_container(matrix, path)
        with self.span("serialize.open"):
            self.matrix = serialize.load_container(path, mmap_arrays=True, verify=True)
        cache = PlanCache()
        with self.span("kernels.plan_build"):
            cache.get_or_build(self.matrix, DEVICE)
        self.policy = ExecutionPolicy(plan_cache=cache)
        with self.span("kernels.first_spmv"):
            result = kernels.run_spmv(
                self.matrix, np.ones(self.matrix.shape[1]), DEVICE, policy=self.policy
            )
        self.record_first_spmv(result, self.matrix, path)
        with self.span("serve.spawn"):
            self.server = ServerProcess(path, path.parent / "server.log")
            self.client = ServeClient("127.0.0.1", self.server.port)
        with self.span("serve.warmup"):
            for j in range(self.WARMUP):
                x = self.rng.standard_normal(self.matrix.shape[1])
                ref = kernels.run_spmv(self.matrix, x, DEVICE, policy=self.policy).y
                resp = self.client.submit(SpMVRequest(request_id=f"w{j}", matrix=name, x=x))
                if not (resp.ok and bits_equal(resp.y, ref)):
                    raise RuntimeError(f"warm-up request failed: {resp.status} {resp.error}")

    def teardown(self) -> None:
        server, client = self.server, self.client
        self.server = self.client = None
        if server is None:
            return
        try:
            server.shutdown(client)
        finally:
            if client is not None:
                client.close()

    close = teardown

    def after_setup(self) -> None:
        n = self.matrix.shape[1]
        xs = [self.rng.standard_normal(n) for _ in range(self.N_X)]
        self.refs = [kernels.run_spmv(self.matrix, x, DEVICE, policy=self.policy).y for x in xs]
        self.requests = [
            SpMVRequest(request_id=f"x{k}", matrix=self.spec[0], x=x) for k, x in enumerate(xs)
        ]

    def begin_phase(self) -> None:
        super().begin_phase()
        self.responses: List[SpMVResponse] = []
        if self.server is not None:
            self.stats0 = self.client.stats()
            self.cpu0 = (self.server.cpu_seconds(), time.process_time(), time.perf_counter())

    def op(self) -> None:
        k = self.ops % self.N_X
        t0 = time.perf_counter()
        with self.span("serve.client.submit"):
            resp = self.client.submit(self.requests[k])
        elapsed = time.perf_counter() - t0
        with self.span("bench.verify"):
            # Served y bit-identical to in-process run_spmv on the same .brx,
            # within the latency limit.
            self.count(resp.ok and resp.y is not None and bits_equal(resp.y, self.refs[k])
                       and elapsed <= SERVE_LIMIT_S)
        self.latencies.append(elapsed)
        self.responses.append(resp)
        self.units += 1

    def finish(self) -> None:
        self.stats1 = self.client.stats()
        self.cpu1 = (self.server.cpu_seconds(), time.process_time(), time.perf_counter())
        self.server_hwm_mb = self.server.vm_hwm_mb()

    def peak_rss_mb(self) -> float:
        return self.server_hwm_mb

    def layer_metrics(self) -> Dict[str, float]:
        rec = self.rec
        resps = self.responses
        n_req = len(resps)
        s0, s1 = self.stats0, self.stats1
        server_cpu = self.cpu1[0] - self.cpu0[0]
        client_cpu = self.cpu1[1] - self.cpu0[1]
        wall = self.cpu1[2] - self.cpu0[2]
        batches = s1["batches"] - s0["batches"]
        batch_mean = (s1["batched_vectors"] - s0["batched_vectors"]) / max(batches, 1)
        cache0, cache1 = s0["plan_cache"], s1["plan_cache"]
        hits = cache1.get("hits", 0) - cache0.get("hits", 0)
        lookups = hits + cache1.get("misses", 0) - cache0.get("misses", 0)
        execute = median(r.execute_ms for r in resps)
        # In-process run_spmv / run_spmm on the same .brx: what the server's
        # execute_ms adds on top is hand-off.
        x = self.requests[0].x
        X = np.ascontiguousarray(np.stack([r.x for r in self.requests[:8]], axis=1))
        spmm_s = []
        for _ in range(30):
            with self.span("kernels.run_spmv"):
                kernels.run_spmv(self.matrix, x, DEVICE, policy=self.policy)
            t0 = time.perf_counter()
            kernels.run_spmm(self.matrix, X, DEVICE, policy=self.policy)
            spmm_s.append(time.perf_counter() - t0)
        spmv_ms = 1e3 * median(s.duration for s in rec.select("kernels.run_spmv", "probe"))
        encode = rec.total("serve.api.request_encode") + rec.total("serve.api.json_encode")
        decode = rec.total("serve.api.response_decode") + rec.total("serve.api.json_decode")
        out = {
            "matrices.generate_s": self.setup_layer("matrices.generate"),
            "kernels.first_spmv_ms": 1e3 * self.setup_layer("kernels.first_spmv"),
            "serve.queue_ms_p50": median(r.queue_ms for r in resps),
            "serve.execute_ms_p50": execute,
            "serve.handoff_ms": execute - spmv_ms,
            "serve.wire_ms_p50": median(
                1e3 * lat - r.queue_ms - r.execute_ms
                for lat, r in zip(self.latencies, resps)
            ),
            "serve.batch_size_mean": batch_mean,
            "serve.server_cpu_ms_per_req": 1e3 * server_cpu / n_req,
            "serve.server_busy_frac": server_cpu / wall,
            "serve.client_cpu_ms_per_req": 1e3 * client_cpu / n_req,
            "serve.api.request_encode_ms": 1e3 * encode / n_req,
            "serve.api.response_decode_ms": 1e3 * decode / n_req,
            "kernels.spmm_ms_per_vec": 1e3 * median(spmm_s) / X.shape[1],
            "kernels.plancache_hit_ratio": hits / max(lookups, 1),
            "serve.rejected": float(sum(r.rejected for r in resps)),
        }
        out.update({key: self.setup_layer(span) for key, span in PREP_LAYERS.items()})
        out.update(self.common_layers(
            "probe", scipy_spmv_seconds(to_scipy_csr(self.source), x)))
        out.update(dict.fromkeys(REORDER_LAYERS + SOLVER_LAYERS, 0.0))
        return out


WORKLOADS = {w.name: w for w in (Build, Solve, ServeWait)}

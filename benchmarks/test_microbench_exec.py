"""Micro-benchmark: the plan executor's compiled loop vs its NumPy form.

Every prepared plan lowers to row-sorted jagged diagonals, run either by
the vectorized NumPy executor or by one loop (``jagged_spmm``) compiled
with Numba when it is importable and interpreted otherwise. This file
pins two things:

* **bit-identity** — the interpreted loop accumulates every row in
  exactly the order of the NumPy executor, so swapping backends can
  never change ``y`` by even one ulp; and
* **the reporting contract** — ``microbench_exec()`` (the row folded
  into ``repro bench wallclock``) uses a ``ratio`` column rather than
  ``speedup`` so the ``--min-speedup`` gate ignores the interpreted
  twin on Numba-free hosts, where it loses to NumPy by construction.

On a host with Numba the timed row exercises the real compiled loop and
the ratio is the compiled-path win; without it it times the pure-Python
twin on a shrunken problem.
"""

import numpy as np
from conftest import save_table

from repro.bench.experiments import microbench_exec
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.kernels import backends as _bk
from repro.kernels.plan import prepare

COLUMNS = ["format", "mode", "backend", "ref_time_ms", "fast_time_ms", "ratio"]


def _csr(m=96, seed=3):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 40, size=m)
    rows = np.repeat(np.arange(m), lengths)
    cols = rng.integers(0, m, size=rows.size)
    coo = COOMatrix(rows, cols, rng.standard_normal(rows.size), (m, m))
    return convert(coo, "csr"), rng.standard_normal(m)


class TestExecutorBitIdentity:
    """The interpreted loop reproduces the NumPy executor bit for bit.

    It runs ``jagged_spmm_py`` directly so the loop order is pinned on
    every host; with Numba present the compiled alias executes the same
    source and tests/kernels/test_backends.py covers it through the
    plan layer.
    """

    def test_jagged_loop_matches_numpy_executor(self, monkeypatch):
        mat, x = _csr()
        plan = prepare(mat, "k20")
        expected = plan.execute(x).y
        monkeypatch.setattr(_bk, "jagged_spmm", _bk.jagged_spmm_py)
        plan.set_backend("jit")
        assert np.array_equal(plan.execute(x).y, expected)


class TestMicrobenchRows:
    def test_row_shape_and_gate_exemption(self):
        (row,) = microbench_exec(m=256, repeats=2)
        assert row["mode"] == "micro:executor"
        assert row["matrix"] == "synthetic"
        assert row["backend"] == ("jit" if _bk.jit_available() else "python")
        assert row["ratio"] > 0.0
        # `ratio`, never `speedup`: the wallclock --min-speedup gate
        # only inspects rows carrying a "speedup" key, and the
        # interpreted twin must not trip it on Numba-free hosts.
        assert "speedup" not in row

    def test_compiled_loop_beats_numpy_when_jit(self):
        if not _bk.jit_available():
            return  # the interpreted twin loses to NumPy by construction
        (row,) = microbench_exec(repeats=3)
        assert row["ratio"] > 1.0


def test_microbench_exec_table(benchmark):
    rows = microbench_exec(repeats=3)
    save_table(
        "microbench_exec", rows, COLUMNS,
        "plan executor: lowered NumPy vs the jagged-diagonal loop "
        f"(backend={rows[0]['backend']})",
    )

    mat, x = _csr(m=256)
    plan = prepare(mat, "k20")
    plan.set_backend("jit")
    benchmark.pedantic(lambda: plan.execute(x), rounds=3, iterations=1)

"""Tests of the benchmark itself: its metric catalogue, its result line,
the span accounting, and negative controls showing that one corruption per
workload drops ``success_rate`` below 1.0.

Run from the checkout root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro.reorder  # noqa: E402
import repro.solvers  # noqa: E402
from metrics import DEFINED, END_TO_END, MOVES, PER_LAYER, SPEC, WORKLOADS  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from run import measure  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402
from workloads import Build, ServeWait, Solve  # noqa: E402

#: Small inputs so each control runs in seconds.
SMALL_BUILD = (("cant", "bro_ell", 0.01),)
SMALL_SOLVE = ("mc2depi", "bro_ell", 0.01)
SMALL_SERVE = ("qcd5_4", "bro_ell", 0.01, 64)


def run_small(cls, tmp_path, spec, seconds=0.5):
    tmp_path.mkdir()
    rec = SpanRecorder(enabled=False)
    w = cls(7, tmp_path, rec, spec)
    try:
        values, _ = measure(w, rec, seconds)
    finally:
        w.close()
    return w, values


# -- contract -----------------------------------------------------------------
def test_catalogue_describes_every_metric():
    assert set(WORKLOADS) == set(WORKLOAD_CLASSES)
    assert set(DEFINED) == set(END_TO_END)
    assert set(MOVES) == set(PER_LAYER)
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(END_TO_END)
    for name, m in line["metrics"].items():
        assert m["unit"] == END_TO_END[name]
        assert m["value"] > 0, name


def test_fails_without_a_program_to_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- span accounting ----------------------------------------------------------
def test_self_time_and_coverage():
    rec = SpanRecorder(enabled=True)
    rec.run = "timed"
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer = rec.select("outer")[0]
    inner = rec.select("inner")[0]
    assert rec.self_total("outer") == pytest.approx(outer.duration - inner.duration)
    window = {outer.thread: (outer.start, outer.start + 2 * outer.duration)}
    assert rec.coverage(window) == pytest.approx(0.5)
    with rec.span("bench.verify"):  # the benchmark's own time is not layer time
        pass
    check = rec.select("bench.verify")[0]
    assert rec.coverage({check.thread: (check.start, check.end)}) == 0.0


def test_traced_run_covers_the_timed_phase(tmp_path):
    rec = SpanRecorder(enabled=True)
    w = Solve(7, tmp_path, rec, SMALL_SOLVE)
    values, coverage = measure(w, rec, 0.5)
    assert set(values) == set(PER_LAYER)
    assert coverage >= 0.95
    assert values["solvers.cg_iterations"] > 0
    assert values["kernels.spmv_calls"] > 0


# -- negative controls --------------------------------------------------------
def test_build_checks_pass_and_catch_a_wrong_permutation(tmp_path, monkeypatch):
    _, values = run_small(Build, tmp_path / "good", SMALL_BUILD)
    assert values["success_rate"] == 1.0

    apply = repro.reorder.apply_reordering

    def swapped(coo, perm):
        wrong = np.array(perm, copy=True)
        wrong[[0, 1]] = wrong[[1, 0]]
        return apply(coo, wrong)

    monkeypatch.setattr(repro.reorder, "apply_reordering", swapped)
    w, values = run_small(Build, tmp_path / "bad", SMALL_BUILD)
    assert w.failed > 0 and values["success_rate"] < 1.0


def test_solve_checks_pass_and_catch_a_perturbed_solution(tmp_path, monkeypatch):
    _, values = run_small(Solve, tmp_path / "good", SMALL_SOLVE)
    assert values["success_rate"] == 1.0

    cg = repro.solvers.conjugate_gradient

    def perturbed(*args, **kwargs):
        res = cg(*args, **kwargs)
        res.x[0] += 1e-3 * max(1.0, abs(res.x[0]))
        return res

    monkeypatch.setattr(repro.solvers, "conjugate_gradient", perturbed)
    w, values = run_small(Solve, tmp_path / "bad", SMALL_SOLVE)
    assert w.failed > 0 and values["success_rate"] < 1.0


def test_serve_checks_pass_and_catch_a_flipped_bit(tmp_path, monkeypatch):
    w, values = run_small(ServeWait, tmp_path / "good", SMALL_SERVE)
    assert values["success_rate"] == 1.0
    assert w.server is None  # shut down through the protocol

    submit = ServeClient.submit
    flipped = []

    def flip_once(self, request):
        resp = submit(self, request)
        if not flipped and request.request_id.startswith("x"):  # a timed request
            resp.y.view(np.uint64)[0] ^= np.uint64(1)
            flipped.append(request.request_id)
        return resp

    monkeypatch.setattr(ServeClient, "submit", flip_once)
    w, values = run_small(ServeWait, tmp_path / "bad", SMALL_SERVE)
    assert flipped and w.failed == 1 and values["success_rate"] < 1.0

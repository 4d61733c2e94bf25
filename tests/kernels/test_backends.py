"""The executor-backend layer of the lowered plan executor.

Three contracts, in order of importance:

* **bit-identity** — for every plannable format, suite matrix and symbol
  length, the ``"jit"`` replay produces the same ``y`` bits and the same
  :class:`KernelCounters` as the ``"numpy"`` replay. On a Numba-free
  host the compiled loop *is* its pure-Python twin, so forcing
  ``set_backend("jit")`` drives the exact loop Numba would compile.
* **graceful resolution** — ``resolve_backend`` maps policy requests to
  concrete backends: ``"auto"`` degrades silently, an explicit ``"jit"``
  that cannot be honoured degrades with an ``exec.backend_fallback``
  counter, and nothing ever raises for a missing Numba.
* **plan wiring** — ``set_backend`` validates its argument and
  ``warm_compile`` records ``jit_compile_seconds`` at prepare() time.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.kernels import backends, prepare, run_spmv
from repro.kernels.plancache import PlanCache
from repro.matrices.suite import generate
from repro.telemetry import metrics as M
from tests.conftest import random_coo

#: A representative Table 2 slice — dense-ish, tall-sparse, and the QCD
#: lattice — small enough that the format x sym_len sweep stays quick.
SUITE = ("dense2", "epb3", "qcd5_4")
SUITE_SCALE = 0.01

BRO_FORMATS = ("bro_ell", "bro_ell_mt", "bro_ell_vc", "bro_coo", "bro_hyb", "bro_sell")
PLAIN_FORMATS = ("csr", "ellpack", "sliced_ellpack", "ellpack_r", "sell_c_sigma",
                 "cmrs", "hyb", "bellpack", "coo")


@lru_cache(maxsize=None)
def suite_mat(name, fmt, sym_len=None):
    kwargs = {}
    if sym_len is not None:
        kwargs["sym_len"] = sym_len
    if fmt in ("bro_ell", "bro_hyb"):
        kwargs["h"] = 64
    return convert(generate(name, scale=SUITE_SCALE), fmt, **kwargs)


def _x_for(mat, seed=11):
    return np.random.default_rng(seed).standard_normal(mat.shape[1])


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_numpy_always_numpy(self):
        assert backends.resolve_backend("numpy", "bro_ell") == "numpy"
        assert backends.resolve_backend("numpy") == "numpy"

    def test_bad_name_rejected(self):
        with pytest.raises(ValidationError, match="compute_backend"):
            backends.resolve_backend("cuda", "bro_ell")

    def test_auto_without_numba_is_silent(self):
        if backends.jit_available():  # container never has numba; CI may
            pytest.skip("host has Numba")
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            assert backends.resolve_backend("auto", "bro_ell") == "numpy"
        finally:
            M.stop_collecting()
        assert not any(
            k.startswith("exec.backend_fallback")
            for k in reg.snapshot()["counters"]
        )

    def test_explicit_jit_without_numba_counts_fallback(self):
        if backends.jit_available():
            pytest.skip("host has Numba")
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            assert backends.resolve_backend("jit", "bro_ell") == "numpy"
        finally:
            M.stop_collecting()
        key = 'exec.backend_fallback{format="bro_ell",reason="numba-missing"}'
        assert reg.snapshot()["counters"][key] == 1

    def test_jit_resolves_when_available(self, monkeypatch):
        monkeypatch.setattr(backends, "jit_available", lambda: True)
        assert backends.resolve_backend("jit", "bro_ell") == "jit"
        assert backends.resolve_backend("auto", "csr") == "jit"


# ----------------------------------------------------------------------
# Bit-identity: jit replay == numpy replay, bits and counters
# ----------------------------------------------------------------------
class TestBitIdentity:
    """Force ``set_backend("jit")`` so the jit code path executes even
    without Numba (the loop is then its interpreted twin, which pins the
    exact loop order the compiled function shares)."""

    @pytest.mark.parametrize("name", SUITE)
    @pytest.mark.parametrize("sym_len", [32, 64])
    def test_bro_formats(self, name, sym_len):
        for fmt in BRO_FORMATS:
            mat = suite_mat(name, fmt, sym_len)
            x = _x_for(mat)
            plan = prepare(mat, "k20")
            y_numpy = plan.execute(x)
            plan.set_backend("jit")
            y_jit = plan.execute(x)
            assert np.array_equal(y_numpy.y, y_jit.y), (name, fmt, sym_len)
            assert y_numpy.counters == y_jit.counters

    @pytest.mark.parametrize("fmt", PLAIN_FORMATS)
    def test_plain_formats(self, fmt):
        for seed in (0, 1):
            mat = convert(random_coo(150, 130, density=0.07, seed=seed), fmt)
            x = _x_for(mat, seed)
            plan = prepare(mat, "k20")
            y_numpy = plan.execute(x)
            plan.set_backend("jit")
            y_jit = plan.execute(x)
            assert np.array_equal(y_numpy.y, y_jit.y)
            assert y_numpy.counters == y_jit.counters

    @pytest.mark.parametrize("fmt", BRO_FORMATS + PLAIN_FORMATS)
    def test_multi_rhs(self, fmt):
        mat = suite_mat("qcd5_4", fmt, 32 if fmt in BRO_FORMATS else None)
        X = np.random.default_rng(3).standard_normal((mat.shape[1], 5))
        plan = prepare(mat, "k20")
        Y_numpy = plan.execute_many(X)
        plan.set_backend("jit")
        Y_jit = plan.execute_many(X)
        assert np.array_equal(Y_numpy.y, Y_jit.y)
        assert Y_numpy.counters == Y_jit.counters
        # ... and each column matches a single-vector jit replay.
        for j in range(X.shape[1]):
            assert np.array_equal(Y_jit.y[:, j], plan.execute(X[:, j]).y)


# ----------------------------------------------------------------------
# Plan wiring: set_backend, warm_compile, prepare() integration
# ----------------------------------------------------------------------
class TestPlanWiring:
    def test_set_backend_rejects_policy_names(self):
        plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20")
        with pytest.raises(ValidationError, match="executor backend"):
            plan.set_backend("auto")

    def test_warm_compile_noop_on_numpy(self):
        plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20")
        assert plan.warm_compile() == 0.0
        assert plan.jit_compile_seconds == 0.0

    def test_warm_compile_records_seconds_on_jit(self):
        plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20")
        plan.set_backend("jit")
        seconds = plan.warm_compile()
        assert seconds > 0.0
        assert plan.jit_compile_seconds == seconds

    def test_prepare_jit_without_numba_builds_numpy_plan(self):
        if backends.jit_available():
            pytest.skip("host has Numba")
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20",
                           backend="jit")
        finally:
            M.stop_collecting()
        assert plan.backend == "numpy"
        assert plan.jit_compile_seconds == 0.0
        assert any(
            k.startswith("exec.backend_fallback")
            for k in reg.snapshot()["counters"]
        )

    def test_prepare_jit_with_numba_warm_compiles(self, monkeypatch):
        monkeypatch.setattr(backends, "jit_available", lambda: True)
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            plan = prepare(suite_mat("epb3", "bro_ell", 32), "k20",
                           backend="auto")
        finally:
            M.stop_collecting()
        assert plan.backend == "jit"
        assert plan.jit_compile_seconds > 0.0
        snap = reg.snapshot()["counters"]
        key = f'plan.jit_builds{{device="{plan.device.name}",format="bro_ell"}}'
        assert snap[key] == 1


# ----------------------------------------------------------------------
# Policy-level graceful fallback (the satellite acceptance check)
# ----------------------------------------------------------------------
class TestPolicyFallback:
    def test_jit_policy_runs_unchanged_without_numba(self):
        if backends.jit_available():
            pytest.skip("host has Numba")
        mat = suite_mat("dense2", "bro_ell", 32)
        x = _x_for(mat)
        y_numpy = run_spmv(
            mat, x, "k20",
            policy=ExecutionPolicy(plan_cache=PlanCache(),
                                   compute_backend="numpy"),
        )
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            y_jit = run_spmv(
                mat, x, "k20",
                policy=ExecutionPolicy(plan_cache=PlanCache(),
                                       compute_backend="jit"),
            )
        finally:
            M.stop_collecting()
        assert np.array_equal(y_numpy.y, y_jit.y)
        assert y_numpy.counters == y_jit.counters
        assert any(
            k.startswith("exec.backend_fallback")
            for k in reg.snapshot()["counters"]
        )

    def test_auto_policy_is_default_and_silent(self):
        assert ExecutionPolicy().compute_backend == "auto"
        mat = suite_mat("dense2", "bro_ell", 32)
        x = _x_for(mat)
        reg = M.start_collecting(M.MetricsRegistry())
        try:
            res = run_spmv(mat, x, "k20",
                           policy=ExecutionPolicy(plan_cache=PlanCache()))
        finally:
            M.stop_collecting()
        assert res.y.shape == (mat.shape[0],)
        assert not any(
            k.startswith("exec.backend_fallback")
            for k in reg.snapshot()["counters"]
        )

    def test_policy_validates_backend_name(self):
        with pytest.raises(ValidationError, match="compute_backend"):
            ExecutionPolicy(compute_backend="cuda")

"""The prepared-plan (fast) engine must be indistinguishable from the
stepwise reference engine: bit-identical ``y`` (no tolerance) and equal
``KernelCounters`` for every suite matrix, every BRO format, and both
symbol lengths — the tentpole acceptance criterion.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import telemetry
from repro.errors import KernelError, ValidationError
from repro.formats.conversion import convert
from repro.kernels import (
    has_planner,
    plannable_formats,
    prepare,
    run_spmv,
)
from repro.kernels.plancache import PlanCache
from repro.matrices.suite import TABLE2, generate
from repro.telemetry import metrics as M
from repro.exec.policy import ExecutionPolicy
from tests.conftest import random_coo

_REF = ExecutionPolicy(engine="reference")

#: Scale small enough that the full 31-matrix suite sweep stays fast.
SUITE_SCALE = 0.004

BRO_FORMATS = ("bro_ell", "bro_ell_mt", "bro_ell_vc", "bro_coo", "bro_hyb", "bro_sell")
BASELINE_FORMATS = ("ellpack", "coo", "csr", "sliced_ellpack", "ellpack_r",
                    "sell_c_sigma", "cmrs", "hyb", "bellpack")


@lru_cache(maxsize=None)
def suite_coo(name):
    return generate(name, scale=SUITE_SCALE)


@lru_cache(maxsize=None)
def suite_format(name, fmt, sym_len):
    kwargs = {"sym_len": sym_len}
    if fmt in ("bro_ell", "bro_hyb"):
        kwargs["h"] = 64
    return convert(suite_coo(name), fmt, **kwargs)


def _x_for(mat, seed=7):
    return np.random.default_rng(seed).standard_normal(mat.shape[1])


class TestRegistry:
    def test_all_target_formats_plannable(self):
        for fmt in BRO_FORMATS + BASELINE_FORMATS:
            assert has_planner(fmt)
        assert set(BRO_FORMATS + BASELINE_FORMATS) <= set(plannable_formats())

    def test_unplannable_format_raises(self, random_matrix, monkeypatch):
        # Every format with a reference kernel now ships a planner, so
        # simulate a missing builder by unbinding one temporarily.
        from repro import registry as _registry

        monkeypatch.setattr(_registry.get_spec("ellpack_r"), "planner", None)
        mat = convert(random_matrix, "ellpack_r")
        assert not has_planner("ellpack_r")
        with pytest.raises(KernelError, match="no prepared-plan builder"):
            prepare(mat, "k20")
        with pytest.raises(KernelError, match="engine='fast'"):
            run_spmv(mat, _x_for(mat), "k20",
                     policy=ExecutionPolicy(engine="fast"))

    def test_auto_engine_falls_back_to_reference(self, random_matrix, monkeypatch):
        # auto + unplannable format must still work (reference engine).
        from repro import registry as _registry

        monkeypatch.setattr(_registry.get_spec("ellpack_r"), "planner", None)
        mat = convert(random_matrix, "ellpack_r")
        res = run_spmv(mat, _x_for(mat), "k20",
                       policy=ExecutionPolicy(plan_cache=PlanCache()))
        np.testing.assert_allclose(res.y, random_matrix.spmv(_x_for(mat)))


class TestSuiteEquivalence:
    """The headline sweep: every Table 2 matrix x BRO format x sym_len."""

    @pytest.mark.parametrize("name", sorted(TABLE2))
    @pytest.mark.parametrize("sym_len", [32, 64])
    def test_suite_matrix_bit_identical(self, name, sym_len):
        for fmt in BRO_FORMATS:
            mat = suite_format(name, fmt, sym_len)
            x = _x_for(mat)
            ref = run_spmv(mat, x, "k20", policy=_REF)
            plan = prepare(mat, "k20")
            fast = plan.execute(x)
            assert np.array_equal(ref.y, fast.y), (name, fmt, sym_len)
            assert ref.counters == fast.counters, (name, fmt, sym_len)

    @pytest.mark.parametrize("fmt", BASELINE_FORMATS)
    def test_baseline_formats_bit_identical(self, fmt):
        for seed in (0, 1, 2):
            coo = random_coo(140, 120, density=0.06, seed=seed)
            mat = convert(coo, fmt)
            x = _x_for(mat, seed)
            ref = run_spmv(mat, x, "k20", policy=_REF)
            fast = prepare(mat, "k20").execute(x)
            assert np.array_equal(ref.y, fast.y)
            assert ref.counters == fast.counters

    @pytest.mark.parametrize("device", ["c2070", "gtx680", "k20"])
    def test_counters_match_on_every_device(self, device):
        mat = suite_format("sme3Da", "bro_ell", 32)
        x = _x_for(mat)
        ref = run_spmv(mat, x, device, policy=_REF)
        fast = prepare(mat, device).execute(x)
        assert np.array_equal(ref.y, fast.y)
        assert ref.counters == fast.counters

    def test_empty_row_and_single_entry_edge_cases(self):
        from repro.formats.coo import COOMatrix

        for coo in (
            COOMatrix([0, 7], [1, 2], [1.0, 2.0], (9, 4)),
            COOMatrix([2], [3], [5.0], (5, 5)),
        ):
            for fmt in BRO_FORMATS:
                kwargs = {"h": 4} if fmt in ("bro_ell", "bro_hyb") else {}
                mat = convert(coo, fmt, **kwargs)
                x = np.ones(coo.shape[1])
                ref = run_spmv(mat, x, "k20", policy=_REF)
                fast = prepare(mat, "k20").execute(x)
                assert np.array_equal(ref.y, fast.y)
                assert ref.counters == fast.counters


def _adversarial_coo(case):
    """Matrices whose row structure stresses the lowered executor."""
    from repro.formats.coo import COOMatrix

    rng = np.random.default_rng(17)
    if case == "empty_rows":
        rows = np.array([0, 0, 3, 3, 3, 7, 9, 9])
        cols = np.array([0, 5, 1, 2, 6, 4, 0, 7])
        shape = (12, 8)
    elif case == "one_heavy_row":
        # Row 5 holds most of the non-zeros, so it outlives the diagonal
        # sweep and runs on the executor's tail path.
        light = rng.integers(0, 40, size=30)
        rows = np.concatenate([light, np.full(60, 5)])
        cols = np.concatenate([rng.integers(0, 60, size=30), np.arange(60)])
        shape = (40, 60)
    else:  # "n1": a single column
        rows = np.array([0, 2, 3])
        cols = np.array([0, 0, 0])
        shape = (5, 1)
    vals = rng.standard_normal(rows.size)
    vals[::4] *= 1e-310  # subnormal stored values
    # All-positive heavy row: under x = -0.0 every product is -0.0 and
    # the row must still sum to +0.0.
    vals[rows == 5] = np.abs(vals[rows == 5])
    return COOMatrix(rows, cols, vals, shape)


#: x entries that defeat a naive reordering: NaN and infinities (0*inf
#: and inf-inf make NaN), negative zero (an all -0.0 row must sum to
#: +0.0) and subnormals.
_SPECIALS = np.array(
    [np.inf, -np.inf, np.nan, -0.0, 5e-324, -2.5e-310, 1.0, -3.0, 0.0]
)


def _bits(y):
    """``y`` as ``uint64`` words with every NaN mapped to one pattern.

    Every other bit pattern — signed zeros, infinities, subnormals — is
    compared exactly. Which NaN a NaN + NaN sum returns is not a property
    of the summation order: NumPy's add keeps the first operand's NaN in
    full SIMD blocks and the second's in the remainder lanes, so the same
    sums in the same order differ in the NaN sign with the array length.
    """
    y = np.where(np.isnan(y), np.nan, y)
    return y.view(np.uint64)


def _adversarial_X(n, k):
    return np.stack(
        [np.resize(np.roll(_SPECIALS, 3 * j), n) for j in range(k)], axis=1
    )


class TestAdversarialInputs:
    """Bit identity (NaN payloads and zero signs included, compared as
    ``uint64``) on inputs the finite random sweeps never produce."""

    @pytest.mark.parametrize("backend", ["numpy", "jit_python"])
    @pytest.mark.parametrize("case", ["empty_rows", "one_heavy_row", "n1"])
    @pytest.mark.parametrize("fmt", BRO_FORMATS + BASELINE_FORMATS)
    def test_special_values_bit_identical(self, fmt, case, backend, monkeypatch):
        from repro.kernels import backends

        kwargs = {"h": 4} if fmt in ("bro_ell", "bro_hyb") else {}
        mat = convert(_adversarial_coo(case), fmt, **kwargs)
        plan = prepare(mat, "k20")
        if backend == "jit_python":
            monkeypatch.setattr(backends, "jagged_spmm", backends.jagged_spmm_py)
            plan.set_backend("jit")
        n = mat.shape[1]
        xs = [np.resize(np.roll(_SPECIALS, s), n) for s in range(len(_SPECIALS))]
        for i, x in enumerate(xs + [np.full(n, -0.0)]):
            ref = run_spmv(mat, x, "k20", policy=_REF).y
            fast = plan.execute(x).y
            assert np.array_equal(_bits(ref), _bits(fast)), (fmt, case, i)
        X = _adversarial_X(n, 3)
        Y = plan.execute_many(X).y
        for j in range(3):
            ref = run_spmv(mat, X[:, j], "k20", policy=_REF).y
            assert np.array_equal(_bits(ref), _bits(Y[:, j])), (fmt, case, j)


class TestDispatchEngines:
    def test_run_spmv_engine_fast_equals_reference(self):
        mat = suite_format("epb3", "bro_ell", 32)
        x = _x_for(mat)
        cache = PlanCache()
        ref = run_spmv(mat, x, "k20", policy=_REF)
        fast = run_spmv(mat, x, "k20",
                        policy=ExecutionPolicy(engine="fast", plan_cache=cache))
        again = run_spmv(mat, x, "k20",
                        policy=ExecutionPolicy(engine="fast", plan_cache=cache))
        assert np.array_equal(ref.y, fast.y)
        assert np.array_equal(ref.y, again.y)
        assert ref.counters == fast.counters == again.counters
        assert cache.stats()["builds"] == 1
        assert cache.stats()["hits"] == 1

    def test_explicit_plan_argument(self):
        mat = suite_format("rim", "bro_coo", 32)
        x = _x_for(mat)
        plan = prepare(mat, "k20")
        ref = run_spmv(mat, x, "k20", policy=_REF)
        fast = run_spmv(mat, x, "k20", policy=ExecutionPolicy(plan=plan))
        assert np.array_equal(ref.y, fast.y)
        assert ref.counters == fast.counters

    def test_plan_for_wrong_matrix_rejected(self):
        a = suite_format("rim", "bro_ell", 32)
        b = suite_format("epb3", "bro_ell", 32)
        plan = prepare(a, "k20")
        with pytest.raises(ValidationError, match="different matrix"):
            run_spmv(b, _x_for(b), "k20", policy=ExecutionPolicy(plan=plan))

    def test_plan_for_wrong_device_rejected(self):
        mat = suite_format("rim", "bro_ell", 32)
        plan = prepare(mat, "c2070")
        with pytest.raises(ValidationError, match="device"):
            run_spmv(mat, _x_for(mat), "k20", policy=ExecutionPolicy(plan=plan))

    def test_plan_conflicts_with_reference_engine(self):
        mat = suite_format("rim", "bro_ell", 32)
        plan = prepare(mat, "k20")
        with pytest.raises(ValidationError, match="engine='reference'"):
            run_spmv(mat, _x_for(mat), "k20",
                     policy=ExecutionPolicy(plan=plan, engine="reference"))

    def test_verified_fallback_path_with_fast_engine(self):
        """A corrupted container degrades to the fallback on the fast path
        exactly as on the reference path (plan build is inside the guard)."""
        import copy

        from repro.formats.csr import CSRMatrix

        coo = suite_coo("rim")
        mat = copy.deepcopy(suite_format("rim", "bro_ell", 32))
        # Corrupt the packed stream so decoding produces garbage widths.
        mat.stream.data[:] = np.iinfo(mat.stream.data.dtype).max
        fb = CSRMatrix.from_coo(coo)
        x = _x_for(mat)
        res = run_spmv(
            mat, x, "k20",
            policy=ExecutionPolicy(verify="structure", fallback=fb,
                                   engine="fast", plan_cache=PlanCache()),
        )
        assert res.fallback_used
        np.testing.assert_allclose(res.y, coo.spmv(x))


class TestTelemetryParity:
    @pytest.fixture(autouse=True)
    def telemetry_off(self):
        telemetry.disable()
        yield
        telemetry.disable()

    def test_fast_replay_emits_kernel_span_and_metrics(self):
        mat = suite_format("epb3", "bro_ell", 32)
        x = _x_for(mat)
        plan = prepare(mat, "k20")
        reg = M.MetricsRegistry()
        with telemetry.tracing(registry=reg) as t:
            result = plan.execute(x)
        (kspan,) = t.find("kernel.bro_ell")
        assert kspan.attrs["engine"] == "fast"
        assert kspan.counters is not None
        assert kspan.counters.dram_bytes == result.counters.dram_bytes
        key = f'kernel.dram_bytes{{device="{result.device.name}",format="bro_ell"}}'
        assert reg.snapshot()["counters"][key] == result.counters.dram_bytes

    def test_prepare_emits_plan_span_and_build_metrics(self):
        mat = suite_format("epb3", "bro_ell", 32)
        reg = M.MetricsRegistry()
        with telemetry.tracing(registry=reg) as t:
            plan = prepare(mat, "k20")
        assert t.find("spmv.plan")
        assert plan.build_seconds > 0.0
        snap = reg.snapshot()["counters"]
        key = f'plan.builds{{device="{plan.device.name}",format="bro_ell"}}'
        assert snap[key] == 1

    def test_fast_result_identical_with_and_without_telemetry(self):
        mat = suite_format("epb3", "bro_ell", 32)
        x = _x_for(mat)
        plan = prepare(mat, "k20")
        plain = plan.execute(x)
        with telemetry.tracing():
            traced = plan.execute(x)
        assert np.array_equal(plain.y, traced.y)
        assert plain.counters == traced.counters

"""Prepared-plan SpMV execution: decode once, replay one lowered form.

The simulated kernels re-derive everything on every call — the stepwise
:class:`~repro.bitstream.reader.SliceDecoder` walk, the texture-cache
model, the transaction counting — even though none of it depends on the
input vector. Iterative solvers and the benchmark sweeps call SpMV with
the *same* matrix hundreds of times, so this module separates the two
phases:

* :func:`prepare` runs each format's planner exactly once per (matrix,
  device). The planner decodes the container (the vectorized
  :func:`~repro.bitstream.packing.unpack_slice` instead of the
  per-column decoder loop), computes the format's entire traffic
  accounting as a :class:`~repro.gpu.counters.KernelCounters` prototype,
  and *lowers* the format's entries to one or more :class:`LoweredPart`.
* :meth:`SpMVPlan.execute` replays the lowered parts for one ``x`` and
  copies the counters; :meth:`SpMVPlan.execute_many` runs the same
  executor on an ``(n, k)`` block (SpMM) with a trailing ``k`` axis.

The lowered form
----------------
On the host every format adds up the same products in row order; the
formats differ in their storage and traffic, which the counters carry.
A :class:`LoweredPart` is the pJDS layout (row-sorted jagged diagonals
plus a permutation, Kreutzer et al.): the non-empty output rows sorted
by descending entry count, and diagonal ``j`` holding entry ``j`` of
every row that has one, in the exact order the format's reference kernel
accumulates them. One executor runs every part:

1. one global gather and multiply, ``p = vals * x[cols]``;
2. ``ys[:cnt[j]] += p[off[j]:off[j+1]]`` for each diagonal ``j``;
3. ``y[perm] = ys``.

Composite formats add a fixed combine step and nothing else: ``hyb`` and
``bro_hyb`` return ``y_ell + y_coo`` over their two parts, ``bro_ell_mt``
applies :meth:`~repro.core.multirow.MultiRowBROELL.fold` to its one.

A slice add per diagonal stops paying once few rows remain in it, so the
longest rows — where the sweep stops is read off the row-length
histogram — are stored whole after the diagonals and each summed on a
tail path as ``np.add.accumulate(p[row])[-1] + 0.0``.

Equivalence contract
--------------------
A replay is **bit-identical** to the reference kernel — same ``y`` bits
and an equal :class:`KernelCounters` record. Every reference kernel
sums each row sequentially from a ``+0.0`` accumulator, and the lowered
form keeps that order; three rules make the rest exact:

* **Masked slots are dropped.** ``bro_*`` and ``ellpack_r`` add a
  literal ``+0.0`` for a masked-out slot. An accumulator that starts at
  ``+0.0`` can never be ``-0.0`` (``a + b`` is ``-0.0`` only when both
  are), and ``acc + 0.0 == acc`` bit for bit for every other value,
  NaN and infinities included.
* **Unmasked padding is kept.** ``ellpack``, ``sliced_ellpack``,
  ``sell_c_sigma``, ``bellpack`` and ``bro_coo``'s padded lanes multiply
  their stored padding slots, so they stay entries ``(stored col, 0.0)``
  and ``0.0 * inf -> NaN`` propagates exactly as in the reference. The
  one exception is BELLPACK's x padding past column ``n``: the kernel
  multiplies a stored ``0.0`` by a padded ``0.0``, a ``+0.0`` product
  that is dropped like a masked slot.
* **The tail is sequential.** ``np.add.accumulate`` adds strictly left
  to right starting from the first product instead of ``+0.0``; that
  start differs only when every product so far is ``-0.0``, and the
  final ``+ 0.0`` turns the resulting ``-0.0`` into the reference's
  ``+0.0`` while leaving every other value unchanged.

``tests/kernels/test_plan_equivalence.py`` enforces this for every
suite matrix and plannable format, including x holding ±inf, NaN,
``-0.0`` and subnormals.

Telemetry
---------
Replays emit the same ``kernel.<format>`` span and per-format
:func:`~repro.telemetry.metrics.record_kernel` metrics as the reference
engine (with an ``engine="fast"`` attribute); plan builds emit a
``spmv.plan`` span and ``plan.builds`` / ``plan.build_seconds`` counters.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import registry as _registry
from ..bitstream.packing import row_stream_symbols, unpack_slice
from ..core.bro_coo import BROCOOMatrix, adaptive_interval_size
from ..core.bro_ell import BROELLMatrix
from ..core.bro_hyb import BROHYBMatrix
from ..core.bro_sell import BROSELLMatrix
from ..core.multirow import MultiRowBROELL
from ..core.value_compression import BROELLVCMatrix
from ..errors import KernelError, ValidationError
from ..formats.base import SparseFormat
from ..formats.bellpack import BELLPACKMatrix
from ..formats.cmrs import CMRSMatrix
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.ellpack import ELLPACKMatrix
from ..formats.ellpack_r import ELLPACKRMatrix
from ..formats.hyb import HYBMatrix
from ..formats.sell_c_sigma import SELLCSigmaMatrix
from ..formats.sliced_ellpack import SlicedELLPACKMatrix
from ..gpu.counters import KernelCounters
from ..gpu.device import (
    DECODE_OPS_PER_ITER,
    DECODE_OPS_PER_LOAD,
    DeviceSpec,
    get_device,
)
from ..gpu.launch import LaunchConfig
from ..gpu.memory import contiguous_transactions
from ..gpu.texcache import TextureCacheModel
from ..gpu.warp import warp_reduce_flops
from ..telemetry import metrics as _metrics
from ..telemetry import tracer as _tracer
from ..telemetry.tracer import span as _span
from ..types import VALUE_DTYPE
from ..utils.bits import ceil_div

from . import backends as _backends
from .base import SpMVResult
from .spmv_bellpack import bellpack_counters
from .spmv_cmrs import cmrs_counters
from .spmv_coo import coo_segmented_counters
from .spmv_ellpack_r import ellpack_r_counters
from .spmv_sell_c_sigma import sell_counters
from .spmv_sliced_ell import sliced_ell_counters

__all__ = [
    "LoweredPart",
    "SpMVPlan",
    "lower",
    "prepare",
    "register_planner",
    "has_planner",
    "plannable_formats",
    "check_multi_x",
]

#: What summing one row whole on the tail path costs, in units of one
#: diagonal's slice add: a slice, an accumulate and a store against one
#: in-place add.
_TAIL_ROW_COST = 2


def check_multi_x(matrix: SparseFormat, X: np.ndarray) -> np.ndarray:
    """Validate a multi-RHS block ``X`` of shape ``(n, k)`` for SpMM."""
    X = np.asarray(X, dtype=VALUE_DTYPE)
    if X.ndim != 2 or X.shape[0] != matrix.shape[1] or X.shape[1] < 1:
        raise ValidationError(
            f"X must have shape ({matrix.shape[1]}, k) with k >= 1, "
            f"got shape {X.shape}"
        )
    return X


# ----------------------------------------------------------------------
# The lowered form
# ----------------------------------------------------------------------
class LoweredPart:
    """One output of a plan as row-sorted jagged diagonals (pJDS).

    ``m`` is the output length and ``perm`` the output row of each sorted
    row: the non-empty rows, most entries first, ties in row order. The
    first ``t = tail.size - 1`` sorted rows are the tail: row ``i``'s
    entries are ``cols``/``vals[tail[i]:tail[i+1]]``. The other rows form
    the jagged diagonals: diagonal ``j`` is ``cols``/``vals[off[j]:off[j+1]]``
    and holds entry ``j`` of sorted rows ``t .. t + off[j+1] - off[j] - 1``.
    Every row's entries appear in accumulation order. Build one with
    :func:`lower`.
    """

    __slots__ = ("m", "perm", "off", "tail", "cols", "vals")

    def __init__(
        self,
        m: int,
        perm: np.ndarray,
        off: np.ndarray,
        tail: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self.m = m
        self.perm = perm
        self.off = off
        self.tail = tail
        self.cols = cols
        self.vals = vals


def lower(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int
) -> LoweredPart:
    """Lower a format's entries to a :class:`LoweredPart`.

    ``rows``/``cols``/``vals`` list every product output row ``rows[i]``
    adds up, each row's entries in the order its reference kernel
    accumulates them (entries of different rows may interleave).
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols, vals = np.asarray(cols), np.asarray(vals)
    if rows.size and np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    lengths = np.bincount(rows, minlength=m)
    return _lower_rows(lengths, np.cumsum(lengths) - lengths, cols, vals)


def _lower_rows(
    lengths: np.ndarray, start: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> LoweredPart:
    """:func:`lower` entries stored row by row: row ``r``'s entries are
    ``cols``/``vals[start[r] : start[r] + lengths[r]]``, in order.

    The diagonal sweep stops at the diagonal ``J`` that minimises
    ``J + _TAIL_ROW_COST * (rows longer than J)``, read off the row-length
    histogram; the rows longer than ``J`` become the tail.
    """
    perm = np.argsort(-lengths, kind="stable")[: np.count_nonzero(lengths)]
    sorted_len = lengths[perm]
    # longer[j] = number of rows with more than j entries, j = 0 .. max.
    longer = perm.size - np.cumsum(np.bincount(sorted_len, minlength=1))
    J = int(np.argmin(np.arange(longer.size) + _TAIL_ROW_COST * longer))
    t = int(longer[J])
    off = np.zeros(J + 1, dtype=np.intp)
    np.cumsum(longer[:J] - t, out=off[1:])
    tail = np.zeros(t + 1, dtype=np.intp)
    np.cumsum(sorted_len[:t], out=tail[1:])
    tail += off[-1]

    out_cols = np.empty(int(tail[-1]), dtype=np.intp)
    out_vals = np.empty(int(tail[-1]), dtype=VALUE_DTYPE)
    first = start[perm]
    for j in range(J):  # diagonal j: entry j of each body row
        src = first[t : t + off[j + 1] - off[j]] + j
        out_cols[off[j] : off[j + 1]] = cols[src]
        out_vals[off[j] : off[j + 1]] = vals[src]
    for i in range(t):  # tail rows are stored whole
        row = slice(int(first[i]), int(first[i] + sorted_len[i]))
        out_cols[tail[i] : tail[i + 1]] = cols[row]
        out_vals[tail[i] : tail[i + 1]] = vals[row]
    return LoweredPart(lengths.size, perm, off, tail, out_cols, out_vals)


#: One block's entries: (row ids, entries per row, cols, vals), each row's
#: entries contiguous and in accumulation order.
_Slots = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _block_slots(
    row_ids: np.ndarray,
    col_block: np.ndarray,
    val_block: np.ndarray,
    keep: Optional[np.ndarray] = None,
) -> _Slots:
    """Entries of an ELL-style ``(h, l)`` block, each row's in slot order."""
    if keep is None:
        lens = np.full(col_block.shape[0], col_block.shape[1], dtype=np.intp)
        return row_ids, lens, col_block.reshape(-1), val_block.reshape(-1)
    return row_ids, keep.sum(axis=1), col_block[keep], val_block[keep]


def _lower_slots(slots: List[_Slots], m: int) -> LoweredPart:
    """:func:`lower` a list of blocks that each hold whole rows."""
    # An empty block keeps the concatenation defined for empty matrices.
    slots.append((np.zeros(0, np.intp),) * 3 + (np.zeros(0),))
    row_ids, lens, cols, vals = (np.concatenate(group) for group in zip(*slots))
    slots.clear()  # drop the per-block copies before lowering
    lengths = np.zeros(m, dtype=np.intp)
    start = np.zeros(m, dtype=np.intp)
    lengths[row_ids] = lens
    start[row_ids] = np.cumsum(lens) - lens
    return _lower_rows(lengths, start, cols, vals)


class _Layout:
    """A part's executor schedule over the plan's concatenated entries."""

    __slots__ = ("rows", "inv", "off", "tail", "runs")

    def __init__(self, part: LoweredPart, base: int) -> None:
        self.rows = part.perm.size
        #: sorted position of each output row; empty rows point one past
        #: the sorted rows, at the accumulator's zero row.
        self.inv = np.full(part.m, self.rows, dtype=np.intp)
        self.inv[part.perm] = np.arange(self.rows)
        #: absolute diagonal and tail-row starts into the plan's entries.
        self.off = part.off + base
        self.tail = part.tail + base
        #: (first entry, diagonals, rows) per run of equally long
        #: diagonals, which reshape to one (diagonals, rows) block.
        cnt = np.diff(part.off)
        starts = np.flatnonzero(np.diff(cnt, prepend=-1))
        self.runs = [
            (int(self.off[j]), int(g), int(cnt[j]))
            for j, g in zip(starts, np.diff(starts, append=cnt.size))
        ]


# ----------------------------------------------------------------------
# The plan and its executor
# ----------------------------------------------------------------------
class SpMVPlan:
    """A prepared, x-independent execution plan for one (matrix, device).

    Holds a strong reference to its matrix (so a cached plan can never be
    confused with a new object reusing the same ``id``), the device spec,
    the :class:`KernelCounters` prototype every replay copies, and the
    lowered parts the executor runs. ``combine`` maps the parts' outputs
    to ``y``; it defaults to returning the only part's output.
    """

    def __init__(
        self,
        matrix: SparseFormat,
        device: DeviceSpec,
        counters: KernelCounters,
        parts: Sequence[LoweredPart],
        combine: Optional[Callable[[List[np.ndarray]], np.ndarray]] = None,
    ) -> None:
        if combine is None and len(parts) != 1:
            raise ValidationError("a plan without combine needs exactly one part")
        self.matrix = matrix
        self.device = device
        self._counters = counters
        #: scaled counters prototypes per k, derived once instead of on
        #: every replay (the prototype is x-independent, so a warm plan
        #: never re-derives it).
        self._counters_memo: dict = {}
        self.parts = tuple(parts)
        self._combine = combine
        if len(self.parts) == 1:
            self._cols, self._vals = self.parts[0].cols, self.parts[0].vals
        else:
            self._cols = np.concatenate([p.cols for p in self.parts])
            self._vals = np.concatenate([p.vals for p in self.parts])
        self._layouts = []
        base = 0
        for part in self.parts:
            end = base + part.cols.size
            # Parts view the plan's storage rather than keep a copy.
            part.cols, part.vals = self._cols[base:end], self._vals[base:end]
            self._layouts.append(_Layout(part, base))
            base = end
        #: wall-clock seconds the one-time build took (set by prepare()).
        self.build_seconds = 0.0
        #: executor backend replays dispatch to ("numpy" or "jit").
        self.backend = "numpy"
        #: seconds the JIT warm-compile pass took (0.0 on the numpy path).
        self.jit_compile_seconds = 0.0

    @property
    def format_name(self) -> str:
        """Format this plan executes (``SparseFormat.format_name``)."""
        return self.matrix.format_name

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def counters(self, k: int = 1) -> KernelCounters:
        """A fresh counters record for a ``k``-vector replay.

        ``k`` sequential products scale every traffic/flop/launch counter
        linearly; ``threads`` stays the per-launch grid size (the
        occupancy model sees the same grid ``k`` times, not a bigger one).
        The scaled prototype is memoized per ``k``; callers get a copy.
        """
        proto = self._counters_memo.get(k)
        if proto is None:
            c = self._counters
            if k == 1:
                proto = c
            else:
                proto = KernelCounters(
                    index_bytes=c.index_bytes * k,
                    value_bytes=c.value_bytes * k,
                    x_bytes=c.x_bytes * k,
                    y_bytes=c.y_bytes * k,
                    aux_bytes=c.aux_bytes * k,
                    useful_flops=c.useful_flops * k,
                    issued_flops=c.issued_flops * k,
                    decode_ops=c.decode_ops * k,
                    launches=c.launches * k,
                    threads=c.threads,
                )
            self._counters_memo[k] = proto
        return replace(proto)

    # -- executor backend ----------------------------------------------
    def set_backend(self, backend: str) -> None:
        """Select the executor backend for this plan.

        Accepts a *concrete* backend name; resolve policy requests with
        :func:`repro.kernels.backends.resolve_backend` first.
        """
        if backend not in _backends.EXECUTOR_BACKENDS:
            raise ValidationError(
                f"executor backend must be one of "
                f"{_backends.EXECUTOR_BACKENDS}, got {backend!r}"
            )
        self.backend = backend

    def warm_compile(self) -> float:
        """Trigger JIT compilation of the executor loop on a zeros input.

        Called by :func:`prepare` so compilation cost lands in the build
        phase (recorded as ``plan.jit_compile_seconds``), not the first
        ``execute``. A no-op on the numpy backend.
        """
        if self.backend != "jit":
            return 0.0
        t0 = time.perf_counter()
        zeros = np.zeros(self.matrix.shape[1], dtype=VALUE_DTYPE)
        self._replay(zeros)
        self._replay(zeros[:, None])
        self.jit_compile_seconds = time.perf_counter() - t0
        return self.jit_compile_seconds

    # -- execution ------------------------------------------------------
    def execute(self, x: np.ndarray) -> SpMVResult:
        """Replay the plan for one input vector."""
        x = self.matrix.check_x(x)
        tracer = _tracer.get_tracer()
        if tracer is None and not _metrics.collecting():
            return SpMVResult(
                y=self._replay(x), counters=self.counters(), device=self.device
            )
        return self._instrumented(tracer, lambda: self._replay(x), 1)

    def execute_many(self, X: np.ndarray) -> SpMVResult:
        """Replay the plan for a multi-RHS block ``X`` of shape ``(n, k)``.

        Returns an :class:`SpMVResult` whose ``y`` has shape ``(m, k)``;
        column ``j`` is bit-identical to ``execute(X[:, j]).y``.
        """
        X = check_multi_x(self.matrix, X)
        k = X.shape[1]
        tracer = _tracer.get_tracer()
        if tracer is None and not _metrics.collecting():
            return SpMVResult(
                y=self._replay(X), counters=self.counters(k),
                device=self.device,
            )
        return self._instrumented(tracer, lambda: self._replay(X), k)

    def _instrumented(
        self, tracer, fn: Callable[[], np.ndarray], k: int
    ) -> SpMVResult:
        """Replay under the same span/metric protocol as ``SpMVKernel.run``."""
        if tracer is not None:
            attrs = {
                "format": self.format_name,
                "device": self.device.name,
                "engine": "fast",
            }
            if k != 1:
                attrs["k"] = k
            with tracer.start(f"kernel.{self.format_name}", "kernel", attrs) as sp:
                result = SpMVResult(
                    y=fn(), counters=self.counters(k), device=self.device
                )
                sp.attach_counters(result.counters)
                try:
                    sp.attach_timing(result.timing)
                except ValidationError:  # pragma: no cover - defensive
                    pass
        else:
            result = SpMVResult(
                y=fn(), counters=self.counters(k), device=self.device
            )
        _metrics.record_kernel(self.format_name, self.device.name, result.counters)
        return result

    def _replay(self, X: np.ndarray) -> np.ndarray:
        """The executor: ``y`` for a validated ``x`` (n,) or ``X`` (n, k).

        Both backends perform the same floating-point operations in the
        same order per row, so they agree bit for bit.
        """
        trailing = X.shape[1:]
        if self.backend == "jit":
            k = X.shape[1] if X.ndim == 2 else 1
            X2 = X.reshape(X.shape[0], k)
        else:
            p = np.take(X, self._cols, axis=0)
            np.multiply(self._vals if X.ndim == 1 else self._vals[:, None], p, out=p)
        ys = []
        for lay in self._layouts:
            # Sorted rows: the tail first, then the diagonals' rows, then
            # one spare zero row that every empty output row reads.
            if self.backend == "jit":
                acc = np.zeros((lay.rows + 1, k), dtype=VALUE_DTYPE)
                _backends.jagged_spmm(
                    lay.off, lay.tail, self._cols, self._vals, X2, acc
                )
                acc = acc.reshape((lay.rows + 1,) + trailing)
            else:
                acc = np.zeros((lay.rows + 1,) + trailing, dtype=VALUE_DTYPE)
                t = lay.tail.size - 1
                for first, count, rows in lay.runs:
                    block = p[first : first + count * rows]
                    dst = acc[t : t + rows]
                    for diagonal in block.reshape((count, rows) + trailing):
                        dst += diagonal
                for i in range(t):
                    segment = p[lay.tail[i] : lay.tail[i + 1]]
                    acc[i] = np.add.accumulate(segment)[-1] + 0.0
            ys.append(np.take(acc, lay.inv, axis=0))
        return ys[0] if self._combine is None else self._combine(ys)


def _add_parts(ys: List[np.ndarray]) -> np.ndarray:
    """Two-launch composite combine: the second part accumulates into the first."""
    return ys[0] + ys[1]


# ----------------------------------------------------------------------
# Planner registration — delegates to the unified capability registry
# ----------------------------------------------------------------------
def register_planner(format_name: str):
    """Decorator binding a plan builder to its format's capability record."""

    def deco(fn: Callable[[SparseFormat, DeviceSpec], SpMVPlan]):
        _registry.bind_planner(format_name, fn)
        return fn

    return deco


def has_planner(format_name: str) -> bool:
    """Whether :func:`prepare` supports the format."""
    return _registry.has_planner(format_name)


def plannable_formats() -> Tuple[str, ...]:
    """Format names with a prepared-plan builder."""
    return _registry.plannable_formats()


def prepare(
    matrix: SparseFormat,
    device: DeviceSpec | str = "k20",
    backend: str = "numpy",
) -> SpMVPlan:
    """Build an :class:`SpMVPlan` — the one-time decode + accounting pass.

    ``backend`` selects the executor the plan replays with: ``"numpy"``
    (default), ``"jit"`` or ``"auto"``, resolved by
    :func:`repro.kernels.backends.resolve_backend`. A JIT plan
    warm-compiles its loop here so compilation cost is part of the
    build, recorded on the plan as ``jit_compile_seconds``.

    Raises :class:`~repro.errors.KernelError` for formats without a plan
    builder (they stay on the reference engine) and propagates the same
    typed errors a reference run would raise on a corrupted container.
    """
    if isinstance(device, str):
        device = get_device(device)
    builder = _registry.planner_for(matrix.format_name)
    if builder is None:
        raise KernelError(
            f"no prepared-plan builder for format {matrix.format_name!r}; "
            f"plannable formats: {plannable_formats()}"
        )
    resolved = _backends.resolve_backend(backend, matrix.format_name)
    t0 = time.perf_counter()
    with _span(
        "spmv.plan", "pipeline", format=matrix.format_name, device=device.name
    ):
        plan = builder(matrix, device)
    plan.build_seconds = time.perf_counter() - t0
    _metrics.record_plan_build(matrix.format_name, device.name, plan.build_seconds)
    if resolved != "numpy":
        plan.set_backend(resolved)
        seconds = plan.warm_compile()
        _metrics.record_jit_compile(matrix.format_name, device.name, seconds)
    return plan


def _check_plan_type(matrix: SparseFormat, expected: type) -> None:
    if not isinstance(matrix, expected):
        raise KernelError(
            f"planner needs a {expected.__name__}, got {type(matrix).__name__}"
        )


# ----------------------------------------------------------------------
# BRO-ELL family: decoded slices, masked slots dropped
# ----------------------------------------------------------------------
def _decode_ell_slice(
    stream_view: np.ndarray, bit_alloc: np.ndarray, h_i: int, sym_len: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of one slice: ``(cols, valid)`` blocks.

    ``cols`` is the running column index (``col_idx - 1`` of Algorithm 1,
    cumulative over deltas) and ``valid`` the non-zero-delta mask —
    exactly the values the stepwise kernel computes column by column.
    """
    deltas = unpack_slice(stream_view, bit_alloc, h_i, sym_len)
    return np.cumsum(deltas, axis=1) - 1, deltas != 0


def _ell_slice_traffic(
    cols: np.ndarray,
    valid: np.ndarray,
    bit_alloc: np.ndarray,
    h_i: int,
    sym_len: int,
    device: DeviceSpec,
    tex: TextureCacheModel,
) -> Tuple[int, int, int, int]:
    """Per-slice traffic terms shared by the BRO-ELL family planners.

    Returns ``(idx_tx, warp_valid_cols, x_bytes, decode_ops)``. A fully
    consumed stream costs exactly ``row_stream_symbols`` coalesced loads —
    the stepwise decoder's ``symbol_loads`` equals ``ceil(total_bits /
    sym_len)`` because it loads lazily and the packer emits no spare
    symbols — so the prototype needs no decoder walk.
    """
    ws = device.warp_size
    tb = device.transaction_bytes
    l_i = valid.shape[1]
    n_sym = row_stream_symbols(bit_alloc, sym_len)
    idx_tx = n_sym * contiguous_transactions(h_i, sym_len // 8, ws, tb)
    warps = ceil_div(h_i, ws)
    pad_rows = warps * ws - h_i
    warp_valid = np.any(
        np.vstack([valid, np.zeros((pad_rows, l_i), dtype=bool)])
        .reshape(warps, ws, l_i),
        axis=1,
    )
    x_bytes = tex.block_x_bytes(cols, valid)
    decode_ops = DECODE_OPS_PER_ITER * h_i * l_i + DECODE_OPS_PER_LOAD * n_sym * h_i
    return idx_tx, int(warp_valid.sum()), x_bytes, decode_ops


@register_planner("bro_ell")
def _plan_bro_ell(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, BROELLMatrix)
    assert isinstance(matrix, BROELLMatrix)
    m, _ = matrix.shape
    launch = LaunchConfig(matrix.h, max(1, matrix.num_slices))
    tb = device.transaction_bytes
    ws = device.warp_size
    tex = TextureCacheModel(device)
    val_per_iter = ceil_div(ws * 8, tb)

    idx_tx = val_tx = x_bytes = decode_ops = 0
    slots = []
    for r0, r1, bit_alloc, stream_view, val_block in matrix.iter_slices():
        h_i, l_i = val_block.shape
        if l_i == 0:
            continue
        cols, valid = _decode_ell_slice(stream_view, bit_alloc, h_i, matrix.sym_len)
        s_idx_tx, warp_cols, s_x_bytes, s_decode = _ell_slice_traffic(
            cols, valid, bit_alloc, h_i, matrix.sym_len, device, tex
        )
        idx_tx += s_idx_tx
        val_tx += warp_cols * val_per_iter
        x_bytes += s_x_bytes
        decode_ops += s_decode
        slots.append(_block_slots(np.arange(r0, r1), cols, val_block, valid))

    counters = KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=contiguous_transactions(m, 8, ws, tb) * tb,
        aux_bytes=int(matrix.num_col.sum()) + 4 * matrix.num_slices,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * matrix.nnz,
        decode_ops=decode_ops,
        launches=1,
        threads=launch.total_threads,
    )
    return SpMVPlan(matrix, device, counters, [_lower_slots(slots, m)])


@register_planner("bro_ell_vc")
def _plan_bro_ell_vc(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, BROELLVCMatrix)
    assert isinstance(matrix, BROELLVCMatrix)
    m, _ = matrix.shape
    launch = LaunchConfig(matrix.h, max(1, matrix.num_slices))
    tb = device.transaction_bytes
    ws = device.warp_size
    tex = TextureCacheModel(device)

    idx_tx = val_bytes = x_bytes = decode_ops = 0
    slots = []
    for i in range(matrix.num_slices):
        r0 = int(matrix.slice_edges[i])
        r1 = int(matrix.slice_edges[i + 1])
        h_i = r1 - r0
        l_i = int(matrix.num_col[i])
        if l_i == 0:
            continue
        bit_alloc = matrix.bit_allocs[i]
        cols, valid = _decode_ell_slice(
            matrix.stream.slice_view(i), bit_alloc, h_i, matrix.sym_len
        )
        s_idx_tx, warp_cols, s_x_bytes, s_decode = _ell_slice_traffic(
            cols, valid, bit_alloc, h_i, matrix.sym_len, device, tex
        )
        idx_tx += s_idx_tx
        vs = matrix.value_slices[i]
        if vs.raw is not None:
            val_bytes += warp_cols * ceil_div(ws * 8, tb) * tb
        else:
            val_bytes += int(vs.codes.nbytes) + int(vs.dictionary.nbytes)
            decode_ops += DECODE_OPS_PER_ITER * h_i * l_i
        x_bytes += s_x_bytes
        decode_ops += s_decode
        slots.append(
            _block_slots(np.arange(r0, r1), cols, matrix.decoded_val_block(i), valid)
        )

    counters = KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=int(val_bytes),
        x_bytes=x_bytes,
        y_bytes=contiguous_transactions(m, 8, ws, tb) * tb,
        aux_bytes=int(matrix.num_col.sum()) + 4 * matrix.num_slices,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * matrix.nnz,
        decode_ops=decode_ops,
        launches=1,
        threads=launch.total_threads,
    )
    return SpMVPlan(matrix, device, counters, [_lower_slots(slots, m)])


@register_planner("bro_ell_mt")
def _plan_bro_ell_mt(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, MultiRowBROELL)
    assert isinstance(matrix, MultiRowBROELL)
    inner = _plan_bro_ell(matrix.inner, device)
    counters = inner.counters()
    m = matrix.shape[0]
    t = matrix.threads_per_row
    counters.y_bytes = (
        contiguous_transactions(m, 8, device.warp_size, device.transaction_bytes)
        * device.transaction_bytes
    )
    counters.issued_flops += m * (t - 1)
    return SpMVPlan(
        matrix, device, counters, inner.parts, lambda ys: matrix.fold(ys[0])
    )


@register_planner("bro_sell")
def _plan_bro_sell(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, BROSELLMatrix)
    assert isinstance(matrix, BROSELLMatrix)
    m, _ = matrix.shape
    launch = LaunchConfig(matrix.c, max(1, matrix.num_chunks))
    tb = device.transaction_bytes
    ws = device.warp_size
    tex = TextureCacheModel(device)
    val_per_iter = ceil_div(ws * 8, tb)

    idx_tx = val_tx = x_bytes = decode_ops = 0
    slots = []
    for r0, r1, bit_alloc, stream_view, val_block in matrix.iter_chunks():
        h_i, l_i = val_block.shape
        if l_i == 0:
            continue
        cols, valid = _decode_ell_slice(stream_view, bit_alloc, h_i, matrix.sym_len)
        s_idx_tx, warp_cols, s_x_bytes, s_decode = _ell_slice_traffic(
            cols, valid, bit_alloc, h_i, matrix.sym_len, device, tex
        )
        idx_tx += s_idx_tx
        val_tx += warp_cols * val_per_iter
        x_bytes += s_x_bytes
        decode_ops += s_decode
        slots.append(_block_slots(matrix.row_ids[r0:r1], cols, val_block, valid))

    counters = KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=contiguous_transactions(m, 8, ws, tb) * tb,
        aux_bytes=int(matrix.num_col.sum())
        + 4 * matrix.num_chunks
        + contiguous_transactions(m, 4, ws, tb) * tb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * matrix.nnz,
        decode_ops=decode_ops,
        launches=1,
        threads=launch.total_threads,
    )
    return SpMVPlan(matrix, device, counters, [_lower_slots(slots, m)])


# ----------------------------------------------------------------------
# BRO-COO: cached decoded rows, padded lanes kept
# ----------------------------------------------------------------------
@register_planner("bro_coo")
def _plan_bro_coo(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, BROCOOMatrix)
    assert isinstance(matrix, BROCOOMatrix)
    ws_fmt = matrix.warp_size
    tb = device.transaction_bytes
    sym_len = matrix.stream.sym_len

    rows = np.zeros(matrix.padded_nnz, dtype=np.int64)
    decode_ops = 0
    idx_stream_tx = 0
    for i, lo, hi, _stream_view in matrix.iter_intervals():
        L = matrix.interval_lanes(i)
        block = matrix.decode_interval_rows(i)  # (w, L), cumulative - 1
        rows[lo:hi] = block.T.reshape(-1)[: hi - lo]
        bits = L * int(matrix.bit_alloc[i])
        n_sym = ceil_div(bits, sym_len) if bits else 0
        idx_stream_tx += n_sym * contiguous_transactions(
            ws_fmt, sym_len // 8, device.warp_size, tb
        )
        decode_ops += DECODE_OPS_PER_ITER * ws_fmt * L
        decode_ops += DECODE_OPS_PER_LOAD * n_sym * ws_fmt

    counters = coo_segmented_counters(
        rows,
        matrix.col_idx.astype(np.int64),
        matrix.padded_nnz,
        device,
        matrix.interval_size,
    )
    counters.index_bytes += idx_stream_tx * tb
    counters.aux_bytes += matrix.num_intervals
    counters.decode_ops = decode_ops
    counters.useful_flops = 2 * matrix.nnz
    if matrix.padded_nnz == 0:
        counters.threads = device.warp_size
    part = lower(rows, matrix.col_idx, matrix.vals, matrix.shape[0])
    return SpMVPlan(matrix, device, counters, [part])


# ----------------------------------------------------------------------
# Composites: two parts summed (two launches, like the kernels)
# ----------------------------------------------------------------------
def _composite(
    matrix: SparseFormat,
    device: DeviceSpec,
    ell: Optional[SpMVPlan],
    coo: Optional[SpMVPlan],
) -> SpMVPlan:
    """HYB-style plan: ``y = y_ell + y_coo``; an absent part adds zeros."""
    if ell is not None:
        counters = ell.counters()
    else:
        counters = KernelCounters(launches=0, threads=device.warp_size)
    if coo is not None:
        counters = counters + coo.counters()
    m = matrix.shape[0]
    parts = [p.parts[0] if p is not None else _lower_slots([], m) for p in (ell, coo)]
    return SpMVPlan(matrix, device, counters, parts, _add_parts)


@register_planner("bro_hyb")
def _plan_bro_hyb(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, BROHYBMatrix)
    assert isinstance(matrix, BROHYBMatrix)
    return _composite(
        matrix,
        device,
        _plan_bro_ell(matrix.ell, device) if matrix.ell.nnz else None,
        _plan_bro_coo(matrix.coo, device) if matrix.coo.padded_nnz else None,
    )


@register_planner("hyb")
def _plan_hyb(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, HYBMatrix)
    assert isinstance(matrix, HYBMatrix)
    return _composite(
        matrix,
        device,
        _plan_ellpack(matrix.ell, device) if matrix.ell.k else None,
        _plan_coo(matrix.coo, device) if matrix.coo.nnz else None,
    )


# ----------------------------------------------------------------------
# Uncompressed baselines: the traffic accounting (texture-cache walks over
# every block or row) dominates the reference call — caching it is the
# whole win. The counters helpers that live next to the reference kernels
# (sliced_ell_counters, ellpack_r_counters, ...) keep plan and kernel
# accounting from drifting apart.
# ----------------------------------------------------------------------
@register_planner("ellpack")
def _plan_ellpack(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, ELLPACKMatrix)
    assert isinstance(matrix, ELLPACKMatrix)
    m, _ = matrix.shape
    k = matrix.k
    threads_per_block = 256  # ELLPACKKernel's default launch shape
    launch = LaunchConfig.for_rows(m, threads_per_block)
    tb = device.transaction_bytes
    ws = device.warp_size

    idx_tx = k * contiguous_transactions(m, 4, ws, tb)
    val_tx = k * contiguous_transactions(m, 8, ws, tb)
    y_tx = contiguous_transactions(m, 8, ws, tb)

    tex = TextureCacheModel(device)
    x_bytes = 0
    for r0 in range(0, m, threads_per_block):
        block_cols = matrix.col_idx[r0 : r0 + threads_per_block]
        x_bytes += tex.block_x_bytes(
            block_cols, np.ones(block_cols.shape, dtype=bool)
        )

    counters = KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=y_tx * tb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * m * k,
        launches=1,
        threads=launch.total_threads,
    )
    part = _lower_slots([_block_slots(np.arange(m), matrix.col_idx, matrix.vals)], m)
    return SpMVPlan(matrix, device, counters, [part])


@register_planner("ellpack_r")
def _plan_ellpack_r(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, ELLPACKRMatrix)
    assert isinstance(matrix, ELLPACKRMatrix)
    m = matrix.shape[0]
    slots = [
        _block_slots(np.arange(m), matrix.col_idx, matrix.vals, matrix.valid_mask())
    ]
    part = _lower_slots(slots, m)
    return SpMVPlan(matrix, device, ellpack_r_counters(matrix, device), [part])


@register_planner("sliced_ellpack")
def _plan_sliced_ell(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, SlicedELLPACKMatrix)
    assert isinstance(matrix, SlicedELLPACKMatrix)
    slots = [
        _block_slots(np.arange(r0, r1), col_block, val_block)
        for r0, r1, col_block, val_block in matrix.iter_slices()
    ]
    part = _lower_slots(slots, matrix.shape[0])
    return SpMVPlan(matrix, device, sliced_ell_counters(matrix, device), [part])


@register_planner("sell_c_sigma")
def _plan_sell_c_sigma(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, SELLCSigmaMatrix)
    assert isinstance(matrix, SELLCSigmaMatrix)
    slots = [
        _block_slots(matrix.row_ids[r0:r1], col_block, val_block)
        for r0, r1, col_block, val_block in matrix.iter_chunks()
    ]
    part = _lower_slots(slots, matrix.shape[0])
    return SpMVPlan(matrix, device, sell_counters(matrix, device), [part])


@register_planner("bellpack")
def _plan_bellpack(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, BELLPACKMatrix)
    assert isinstance(matrix, BELLPACKMatrix)
    m, n = matrix.shape
    r, c = matrix.block_shape
    mb, K = matrix.block_col_idx.shape
    # Thread (block row b, local row rr) walks its K blocks left to right,
    # c entry columns each: one (mb * r, K * c) block of slots.
    first = matrix.block_col_idx.astype(np.int64) * c
    cols = np.broadcast_to(
        first[:, None, :, None] + np.arange(c), (mb, r, K, c)
    ).reshape(mb * r, K * c)[:m]
    vals = matrix.block_vals.transpose(0, 2, 1, 3).reshape(mb * r, K * c)[:m]
    part = _lower_slots([_block_slots(np.arange(m), cols, vals, cols < n)], m)
    return SpMVPlan(matrix, device, bellpack_counters(matrix, device), [part])


@register_planner("coo")
def _plan_coo(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, COOMatrix)
    assert isinstance(matrix, COOMatrix)
    ws = device.warp_size
    tb = device.transaction_bytes
    n = ceil_div(matrix.nnz, ws) * ws if matrix.nnz else 0
    row = np.zeros(n, dtype=np.int64)
    col = np.zeros(n, dtype=np.int64)
    row[: matrix.nnz] = matrix.row_idx
    col[: matrix.nnz] = matrix.col_idx
    if matrix.nnz:
        row[matrix.nnz :] = int(matrix.row_idx[-1])

    interval = adaptive_interval_size(n, ws)
    counters = coo_segmented_counters(row, col, n, device, interval)
    counters.index_bytes += contiguous_transactions(n, 4, ws, tb) * tb
    counters.useful_flops = 2 * matrix.nnz
    if n == 0:
        counters.threads = ws
    part = lower(matrix.row_idx, matrix.col_idx, matrix.vals, matrix.shape[0])
    return SpMVPlan(matrix, device, counters, [part])


@register_planner("cmrs")
def _plan_cmrs(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, CMRSMatrix)
    assert isinstance(matrix, CMRSMatrix)
    part = lower(matrix.entry_rows(), matrix.col_idx, matrix.vals, matrix.shape[0])
    return SpMVPlan(matrix, device, cmrs_counters(matrix, device), [part])


@register_planner("csr")
def _plan_csr(matrix: SparseFormat, device: DeviceSpec) -> SpMVPlan:
    _check_plan_type(matrix, CSRMatrix)
    assert isinstance(matrix, CSRMatrix)
    m, _ = matrix.shape
    ws = device.warp_size
    tb = device.transaction_bytes
    launch = LaunchConfig.for_warps(m, ws)

    lengths = matrix.row_lengths()
    starts = matrix.indptr[:-1]
    misaligned_idx = ((starts * 4) % tb != 0) & (lengths > 0)
    misaligned_val = ((starts * 8) % tb != 0) & (lengths > 0)
    idx_tx = int(np.ceil(lengths * 4 / tb).sum() + misaligned_idx.sum())
    val_tx = int(np.ceil(lengths * 8 / tb).sum() + misaligned_val.sum())
    y_tx = contiguous_transactions(m, 8, ws, tb)
    aux_tx = contiguous_transactions(m + 1, 4, ws, tb)

    tex = TextureCacheModel(device)
    x_bytes = 0
    for r in range(m):
        lo, hi = int(matrix.indptr[r]), int(matrix.indptr[r + 1])
        if lo == hi:
            continue
        L = ceil_div(hi - lo, ws)
        block = np.zeros(L * ws, dtype=np.int64)
        block[: hi - lo] = matrix.indices[lo:hi]
        valid = np.zeros(L * ws, dtype=bool)
        valid[: hi - lo] = True
        x_bytes += (
            tex.warp_sequence_fetches(
                block.reshape(L, ws).T, valid.reshape(L, ws).T
            )
            * device.tex_line_bytes
        )

    counters = KernelCounters(
        index_bytes=idx_tx * tb,
        value_bytes=val_tx * tb,
        x_bytes=x_bytes,
        y_bytes=y_tx * tb,
        aux_bytes=aux_tx * tb,
        useful_flops=2 * matrix.nnz,
        issued_flops=2 * matrix.nnz + warp_reduce_flops(ws) * m,
        launches=1,
        threads=launch.total_threads,
    )
    part = _lower_rows(lengths, starts, matrix.indices, matrix.vals)
    return SpMVPlan(matrix, device, counters, [part])

"""Multiple threads per row — the paper's second future-work item (§6).

"In future, other sources of performance improvement such as assigning
multiple threads per row ... will be investigated."

The clean way to get T threads per row without touching Algorithm 1 is a
*row-splitting transform*: every logical row is dealt round-robin into T
sub-rows (sub-row ``j`` takes the row's entries at positions ``j, j+T,
j+2T, ...``), the expanded matrix is stored as plain BRO-ELL, and the
kernel finishes with a small segmented sum folding each group of T
partial results. Column indices stay strictly increasing inside each
sub-row, so the delta/packing machinery applies unchanged; sub-row
deltas are sums of T consecutive original deltas (slightly wider codes —
the compression cost of the transform).

The win is occupancy: a matrix with too few rows to fill the device
(e40r5000 in Fig. 6) gets T× more threads. The ablation benchmark
``benchmarks/test_ablation_multirow.py`` quantifies both sides.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..bitstream.codec import COLUMN_DELTA
from ..errors import ValidationError
from ..formats.base import SparseFormat, register_format
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..registry import TunerProfile
from ..utils.validation import check_positive
from .bro_ell import BROELLMatrix

__all__ = ["split_rows", "MultiRowBROELL"]


def split_rows(coo: COOMatrix, t: int) -> COOMatrix:
    """Deal each row's entries round-robin into ``t`` sub-rows.

    Row ``r`` of the input becomes rows ``r*t .. r*t + t - 1`` of the
    output; entry ``p`` of the row goes to sub-row ``p mod t``. The
    product of the original matrix is recovered by summing each group of
    ``t`` consecutive output rows.
    """
    t = check_positive(t, "t")
    m, n = coo.shape
    if coo.nnz == 0:
        return COOMatrix(
            np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
            (m * t, n),
        )
    lengths = coo.row_lengths()
    csr = CSRMatrix.from_coo(coo)
    pos = np.arange(coo.nnz, dtype=np.int64) - np.repeat(csr.indptr[:-1], lengths)
    rows = coo.row_idx.astype(np.int64) * t + pos % t
    return COOMatrix(rows, coo.col_idx, coo.vals, (m * t, n))


@register_format(
    default_kwargs={"threads_per_row": 2, "h": 256, "sym_len": 32},
    tuner=TunerProfile(candidate=False),
    codec=COLUMN_DELTA,
)
class MultiRowBROELL(SparseFormat):
    """BRO-ELL with ``t`` threads (sub-rows) per logical matrix row."""

    format_name = "bro_ell_mt"

    def __init__(self, inner: BROELLMatrix, t: int, shape: Tuple[int, int]):
        t = check_positive(t, "t")
        m, n = int(shape[0]), int(shape[1])
        if inner.shape != (m * t, n):
            raise ValidationError(
                f"inner matrix must be ({m * t}, {n}), got {inner.shape}"
            )
        self._inner = inner
        self._t = t
        self._shape = (m, n)

    # ------------------------------------------------------------------
    @property
    def inner(self) -> BROELLMatrix:
        """The row-split BRO-ELL storage (``m * t`` sub-rows)."""
        return self._inner

    @property
    def threads_per_row(self) -> int:
        return self._t

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._inner.nnz

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        threads_per_row: int = 2,
        h: int = 256,
        sym_len: int = 32,
        **kwargs,
    ) -> "MultiRowBROELL":
        t = check_positive(threads_per_row, "threads_per_row")
        inner = BROELLMatrix.from_coo(split_rows(coo, t), h=h, sym_len=sym_len)
        return cls(inner, t, coo.shape)

    def fold(self, partial: np.ndarray) -> np.ndarray:
        """Sum each group of ``t`` sub-row results into the logical row.

        ``partial`` is ``(m * t,)`` or, for a multi-RHS block, ``(m * t, k)``.
        """
        m, t = self._shape[0], self._t
        if partial.ndim not in (1, 2) or partial.shape[0] != m * t:
            raise ValidationError("partial vector has the wrong length")
        return partial.reshape((m, t) + partial.shape[1:]).sum(axis=1)

    def to_coo(self) -> COOMatrix:
        sub = self._inner.to_coo()
        return COOMatrix(
            sub.row_idx.astype(np.int64) // self._t,
            sub.col_idx,
            sub.vals,
            self._shape,
        )

    # -- container serialization (.brx) --------------------------------
    def to_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        inner_meta, inner_arrays = self._inner.to_state()
        meta: Dict[str, Any] = {
            "shape": list(self._shape), "t": self._t, "inner": inner_meta,
        }
        arrays = {f"inner.{k}": v for k, v in inner_arrays.items()}
        return meta, arrays

    @classmethod
    def from_state(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "MultiRowBROELL":
        inner = BROELLMatrix.from_state(
            meta["inner"],
            {k[6:]: v for k, v in arrays.items() if k.startswith("inner.")},
        )
        return cls(inner, int(meta["t"]), tuple(meta["shape"]))

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self.check_x(x)
        return self.fold(self._inner.spmv(x))

    def device_bytes(self) -> Dict[str, int]:
        return self._inner.device_bytes()

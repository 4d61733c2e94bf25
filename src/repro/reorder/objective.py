"""The BAR clustering objective (paper Eqns. (1)–(3)).

For a partitioning of the delta-encoded rows into clusters
:math:`\\{S_t\\}`, the objective counts memory transactions:

.. math::

    \\Phi = \\sum_t \\frac{h}{w} \\Big( \\lceil \\tfrac{\\sum_j d(S_t, j)}{\\alpha}
    \\rceil + \\sum_j c(S_t, j) \\Big)

* :math:`d(S, j)` (Eqn. 2) — the maximum :math:`\\Gamma` bit width of the
  ``j``-th delta over the cluster's rows: the packed stream's per-column
  bit allocation, whose row sum divided by the symbol length ``alpha`` is
  the number of index-stream loads per thread;
* :math:`c(S, j)` (Eqn. 3) — the number of distinct x-vector cachelines
  the cluster's ``j``-th column indices touch. The paper's Eqn. (3) maps
  the delta values through :math:`\\Omega`; since ``x`` is addressed by the
  *reconstructed* column index we map the absolute indices (the intent of
  the formulation — spatial locality of ``x``).

The paper notes this model captures spatial but not temporal locality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ReorderingError
from ..utils.bits import bit_width_array, ceil_div

__all__ = ["cluster_cost", "bar_objective", "bar_entries", "delta_rows_for_bar"]

#: x-vector entries per cacheline: a 32-byte sector of float64 values.
_LINE_ENTRIES = 4


def bar_entries(coo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entry data BAR clusters on, in O(nnz).

    Returns ``(row_ptr, delta_bits, col_lines)``: the ``m + 1`` row
    pointers of the matrix's stored entries (row-major, columns ascending,
    as :class:`~repro.formats.coo.COOMatrix` keeps them) and, per entry,
    the Gamma bit width of its 1-based column delta (Section 3.1: the
    first entry of a row is taken against ``c_{i,-1} = 0``) and the
    x-cacheline index of its absolute column.
    """
    col = coo.col_idx.astype(np.int64)
    row_ptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
    np.cumsum(coo.row_lengths(), out=row_ptr[1:])
    ones = col + 1
    deltas = np.diff(ones, prepend=0)
    starts = row_ptr[:-1][row_ptr[:-1] < row_ptr[1:]]
    deltas[starts] = ones[starts]
    return row_ptr, bit_width_array(deltas), col // _LINE_ENTRIES


def delta_rows_for_bar(coo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter :func:`bar_entries` into a padded ``(m, k)`` view.

    Returns ``(delta_bits, col_lines, valid)``: ``(m, k)`` arrays with
    ``k`` the longest row's length, holding the Gamma bit width of each
    delta, the x-cacheline index of each absolute column, and the
    validity mask. Padding positions carry zero bits and line ``-1``.
    This is the shape :func:`bar_objective` scores; BAR itself never
    builds it.
    """
    row_ptr, entry_bits, entry_lines = bar_entries(coo)
    lengths = np.diff(row_ptr)
    k = int(lengths.max())
    valid = np.arange(k)[np.newaxis, :] < lengths[:, np.newaxis]
    bits = np.zeros(valid.shape, dtype=np.int64)
    bits[valid] = entry_bits
    lines = np.full(valid.shape, -1, dtype=np.int64)
    lines[valid] = entry_lines
    return bits, lines, valid


def cluster_cost(
    bits: np.ndarray,
    lines: np.ndarray,
    alpha: int = 32,
    h: int = 256,
    w: int = 32,
) -> float:
    """Cost of one cluster: the parenthesized term of Eqn. (1) x ``h/w``.

    ``bits``/``lines`` are the cluster's rows of the precomputed
    :func:`delta_rows_for_bar` arrays.
    """
    bits = np.asarray(bits)
    lines = np.asarray(lines)
    if bits.ndim != 2 or bits.shape != lines.shape:
        raise ReorderingError("bits and lines must be equal-shape 2-D arrays")
    if bits.shape[0] == 0:
        return 0.0
    d = bits.max(axis=0)  # Eqn. (2): per-column max width
    stream_loads = ceil_div(int(d.sum()), alpha) if d.size else 0
    c = 0
    for j in range(lines.shape[1]):
        col = lines[:, j]
        col = col[col >= 0]
        if col.size:
            c += int(np.unique(col).shape[0])  # Eqn. (3)
    return (h / w) * (stream_loads + c)


def bar_objective(
    clusters: Sequence[np.ndarray],
    bits: np.ndarray,
    lines: np.ndarray,
    alpha: int = 32,
    h: int = 256,
    w: int = 32,
) -> float:
    """Eqn. (1): total cost of a partitioning.

    ``clusters`` is a sequence of row-index arrays into ``bits``/``lines``.
    """
    total = 0.0
    for rows in clusters:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            total += cluster_cost(bits[rows], lines[rows], alpha, h, w)
    return total

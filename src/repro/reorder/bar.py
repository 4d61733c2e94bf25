"""BRO-aware reordering (BAR) — Algorithm 2 of the paper.

The rows of the delta-encoded index array are greedily clustered into
``v = ceil(m / h)`` equal-size clusters (cluster = future BRO-ELL slice)
minimizing the memory-transaction objective of Eqn. (1): clusters are
seeded with rows spaced ``h`` apart in row-length order, then each
remaining row goes to the cluster whose cost it increases least, subject
to the equi-partition capacity.

Implementation notes
--------------------
The greedy needs the *incremental* cost of adding a row to every cluster.
The bit-width term is exact and vectorized over clusters (per-cluster
running column maxima). The cacheline term ``c`` (Eqn. 3) needs per-column
*distinct-line* sets; storing a real set per (cluster, column) would make
the inner loop Python-bound, so membership is tracked in a 1024-bit hashed
bitmap per (cluster, column) — line ``l`` maps to bit ``l mod 1024``.
Collisions can only *undercount* new lines (they make BAR slightly
over-eager to group far-apart rows); with h = 256 rows per cluster the
bitmap is at most quarter-full and the approximation error is marginal.
The hashed bitmap is kept, rather than exact distinct-line sets, so that
permutations stay identical to earlier releases (exact sets would move
them, and with them the modeled GFLOP/s and bytes of every reordered
experiment). The exact objective
(:func:`repro.reorder.objective.bar_objective`) is used in the test-suite
to confirm BAR lowers Eqn. (1) versus the identity order.

Cost
----
BAR works on the matrix's flat per-entry arrays
(:func:`repro.reorder.objective.bar_entries`), never on a padded
``(m, K)`` block (``K`` = the longest row): the prep is O(nnz). A row of
length ``L`` is scored only on the first ``L`` columns of the cluster
state, so the greedy is O(v·nnz) element work plus a constant number of
NumPy calls per row. Memory is O(v·K + nnz): the per-column maxima and the
bitmap (``v × K × 128`` bytes) are the only cluster-wide state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReorderingError
from ..formats.coo import COOMatrix
from ..utils.bits import ceil_div
from .base import check_permutation
from .objective import bar_entries

__all__ = ["bar_permutation", "BARReordering"]

_BITMAP_BITS = 1024
_BITMAP_WORDS = _BITMAP_BITS // 64


@dataclass
class BARReordering:
    """Result of a BAR run: the permutation plus diagnostic cluster sizes."""

    perm: np.ndarray
    cluster_sizes: np.ndarray
    v: int
    h: int


def bar_permutation(
    coo: COOMatrix,
    h: int = 256,
    alpha: int = 32,
    w: int = 32,
    cache_weight: float = 1.0,
) -> np.ndarray:
    """Compute the BAR gather permutation for a matrix (Algorithm 2).

    Parameters
    ----------
    coo:
        The matrix to reorder.
    h:
        Slice height (cluster capacity); the paper uses the thread-block
        size, 256.
    alpha:
        Symbol length of the packed stream in bits (Eqn. 1's alpha).
    w:
        Warp size (only scales the objective; kept for fidelity).
    cache_weight:
        Weight of the cacheline term; ``0.0`` ablates Eqn. (3) (used by
        the ablation benchmark), ``1.0`` is the paper's objective.

    Returns
    -------
    numpy.ndarray
        Gather permutation: row ``perm[i]`` of ``coo`` becomes row ``i``.
    """
    return bar_reordering(coo, h=h, alpha=alpha, w=w, cache_weight=cache_weight).perm


def bar_reordering(
    coo: COOMatrix,
    h: int = 256,
    alpha: int = 32,
    w: int = 32,
    cache_weight: float = 1.0,
) -> BARReordering:
    """Like :func:`bar_permutation` but returns diagnostics too."""
    if h <= 0 or alpha <= 0 or w <= 0:
        raise ReorderingError("h, alpha and w must be positive")
    m = coo.shape[0]
    row_ptr, bits, lines = bar_entries(coo)
    lengths = np.diff(row_ptr)
    K = int(lengths.max())
    v = max(1, ceil_div(m, h))

    # Capacities sum to m, so the greedy necessarily fills every cluster
    # exactly: cluster boundaries coincide with slice boundaries.
    caps = np.full(v, h, dtype=np.int64)
    caps[-1] = m - (v - 1) * h if m > (v - 1) * h else h

    # Line 2: sort rows by row length; seeds are spaced h apart.
    order = np.argsort(-lengths, kind="stable")
    seed_positions = np.arange(v) * h
    seed_positions = seed_positions[seed_positions < m]
    seeds = order[seed_positions]
    is_seed = np.zeros(m, dtype=bool)
    is_seed[seeds] = True
    rest = order[~is_seed[order]]

    # Each entry's bitmap slot: its column position within the row times
    # the words per column, plus the word its hashed line falls in.
    pos = np.arange(bits.size, dtype=np.int64) - np.repeat(row_ptr[:-1], lengths)
    hashed = lines % _BITMAP_BITS
    slot = pos * _BITMAP_WORDS + hashed // 64
    mask = np.left_shift(np.uint64(1), (hashed % 64).astype(np.uint64))

    # Cluster state, column-major so a row of length L reads the first L
    # rows of D and only its own slots of the bitmap.
    D = np.zeros((K, v), dtype=np.int64)  # per-column max bit widths
    Sd_up = np.full(v, alpha - 1, dtype=np.int64)  # sum_j d(S, j) + alpha - 1
    loads = np.zeros(v, dtype=np.int64)  # ceil(sum_j d(S, j) / alpha)
    bitmap = np.zeros((K * _BITMAP_WORDS, v), dtype=np.uint64)
    sizes = np.zeros(v, dtype=np.int64)
    full = np.zeros(v)  # +inf once a cluster reaches its capacity
    assignment = np.empty(m, dtype=np.int64)
    ptr = row_ptr.tolist()

    def insert(t: int, r: int, inc: int) -> None:
        s, e = ptr[r], ptr[r + 1]
        d = D[: e - s, t]
        np.maximum(d, bits[s:e], out=d)
        Sd_up[t] += inc
        loads[t] = Sd_up[t] // alpha
        # (column, word) slots are unique within a row: a plain |= is exact.
        bitmap[slot[s:e], t] |= mask[s:e]
        sizes[t] += 1
        if sizes[t] == caps[t]:
            full[t] = np.inf
        assignment[r] = t

    for t, r in enumerate(seeds.tolist()):  # lines 3-6
        insert(t, r, int(bits[ptr[r] : ptr[r + 1]].sum()))

    use_lines = cache_weight > 0.0
    for r in rest.tolist():  # lines 7-13
        s, e = ptr[r], ptr[r + 1]
        inc = np.maximum(bits[s:e, np.newaxis] - D[: e - s], 0).sum(axis=0)
        # ceil((Sd + inc) / alpha) - ceil(Sd / alpha)
        stream_cost = (Sd_up + inc) // alpha - loads
        if use_lines and e > s:
            held = bitmap[slot[s:e]]
            held &= mask[s:e, np.newaxis]
            cost = cache_weight * (held == 0).sum(axis=0)
            cost += stream_cost
        else:
            cost = stream_cost + 0.0
        cost += full
        t = int(np.argmin(cost))
        insert(t, r, int(inc[t]))

    # Clusters in index order become consecutive row blocks (slices),
    # each keeping its rows in ascending order.
    perm = np.argsort(assignment, kind="stable")
    return BARReordering(
        perm=check_permutation(perm, m), cluster_sizes=sizes.copy(), v=v, h=h
    )

"""BAR-specific tests: the Eqn. (1) objective and Algorithm 2 behaviour."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.bro_ell import BROELLMatrix
from repro.core.compression import index_compression_report
from repro.core.delta import delta_encode_columns
from repro.errors import ReorderingError
from repro.formats.coo import COOMatrix
from repro.formats.ellpack import ellpack_arrays_from_coo
from repro.matrices import generate
from repro.matrices.generators import block_band
from repro.reorder.bar import bar_permutation, bar_reordering
from repro.reorder.objective import (
    bar_entries,
    bar_objective,
    cluster_cost,
    delta_rows_for_bar,
)
from repro.reorder.rcm import rcm_permutation
from repro.utils.bits import bit_width_array


def mixed_width_matrix(seed=0, m=256):
    """Rows alternate between short tight-run rows and long scattered rows
    (different lengths AND different delta widths), so Algorithm 2's
    length-sorted seeding plus greedy placement can profitably separate
    them into homogeneous slices."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for i in range(m):
        if i % 2 == 0:  # short run of unit deltas near the diagonal
            base = min(i, m - 5)
            c = base + np.arange(4)
        else:  # long scattered row
            c = np.sort(rng.choice(m, size=12, replace=False))
        rows.extend([i] * len(c))
        cols.extend(c.tolist())
    return COOMatrix(rows, cols, np.ones(len(rows)), (m, m))


class TestObjective:
    def test_cluster_cost_components(self):
        # One cluster, 2 rows, widths max to [2, 3]; alpha=4 -> 2 loads.
        bits = np.array([[2, 1], [1, 3]])
        lines = np.array([[0, 1], [0, 2]])
        cost = cluster_cost(bits, lines, alpha=4, h=2, w=2)
        # h/w = 1; ceil(5/4)=2 stream loads; c = 1 + 2 distinct lines.
        assert cost == pytest.approx(2 + 3)

    def test_empty_cluster_free(self):
        cost = cluster_cost(np.zeros((0, 3)), np.zeros((0, 3)), alpha=32)
        assert cost == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ReorderingError):
            cluster_cost(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_objective_sums_clusters(self):
        bits = np.array([[1, 1], [2, 2], [3, 3], [4, 4]])
        lines = np.zeros((4, 2), dtype=np.int64)
        both = bar_objective([np.array([0, 1]), np.array([2, 3])], bits, lines,
                             alpha=8, h=2, w=2)
        assert both == pytest.approx(
            cluster_cost(bits[:2], lines[:2], 8, 2, 2)
            + cluster_cost(bits[2:], lines[2:], 8, 2, 2)
        )

    def test_grouping_similar_rows_is_cheaper(self):
        # Mixing a wide row into a narrow cluster raises every column max.
        bits = np.array([[1, 1], [1, 1], [8, 8], [8, 8]])
        lines = np.tile(np.array([[0, 1]]), (4, 1))
        good = bar_objective([np.array([0, 1]), np.array([2, 3])], bits, lines,
                             alpha=4, h=2, w=2)
        bad = bar_objective([np.array([0, 2]), np.array([1, 3])], bits, lines,
                            alpha=4, h=2, w=2)
        assert good < bad


class TestAlgorithm2:
    def test_equal_cluster_sizes(self):
        coo = mixed_width_matrix(m=256)
        result = bar_reordering(coo, h=32)
        assert result.v == 8
        np.testing.assert_array_equal(result.cluster_sizes, np.full(8, 32))

    def test_ragged_final_cluster(self):
        coo = mixed_width_matrix(m=250)
        result = bar_reordering(coo, h=32)
        assert result.cluster_sizes.sum() == 250
        assert result.cluster_sizes[:-1].max() <= 32

    def test_lowers_objective_vs_identity(self):
        coo = mixed_width_matrix()
        bits, lines, _ = delta_rows_for_bar(coo)
        h = 32
        m = coo.shape[0]
        identity_clusters = [np.arange(i, min(i + h, m)) for i in range(0, m, h)]
        perm = bar_permutation(coo, h=h)
        bar_clusters = [perm[i : i + h] for i in range(0, m, h)]
        before = bar_objective(identity_clusters, bits, lines, h=h)
        after = bar_objective(bar_clusters, bits, lines, h=h)
        assert after < before

    def test_improves_compression(self):
        coo = mixed_width_matrix(seed=3)
        perm = bar_permutation(coo, h=32)
        eta0 = index_compression_report(BROELLMatrix.from_coo(coo, h=32), "o").eta
        eta1 = index_compression_report(
            BROELLMatrix.from_coo(coo.permute_rows(perm), h=32), "r"
        ).eta
        assert eta1 > eta0

    def test_bar_beats_rcm_on_compression(self):
        # The paper's headline reordering claim (Fig. 9 / Table 5).
        coo = block_band(2048, 30.0, 10.0, run=3, bandwidth=600, seed=7)
        h = 64
        def eta(p):
            return index_compression_report(
                BROELLMatrix.from_coo(coo.permute_rows(p), h=h), "x"
            ).eta
        assert eta(bar_permutation(coo, h=h)) >= eta(rcm_permutation(coo))

    def test_cache_weight_zero_ablation_runs(self):
        coo = mixed_width_matrix(seed=5)
        perm = bar_permutation(coo, h=32, cache_weight=0.0)
        assert np.array_equal(np.sort(perm), np.arange(coo.shape[0]))

    def test_bad_params(self):
        coo = mixed_width_matrix()
        with pytest.raises(ReorderingError):
            bar_permutation(coo, h=0)

    def test_small_matrix_single_cluster(self):
        coo = COOMatrix([0, 1], [1, 0], [1.0, 1.0], (2, 2))
        perm = bar_permutation(coo, h=256)
        assert np.array_equal(np.sort(perm), [0, 1])


#: BAR permutations pinned bit-for-bit: (matrix, scale, kwargs, SHA-256 of
#: ``perm.astype("<i8").tobytes()``, cluster sizes as (h, full clusters,
#: last cluster's size)). Any change to the greedy, its tie-breaking or its
#: prep data shows up here.
GOLDEN = [
    ("rajat30", 0.01, dict(h=256),
     "68861544d39f5cfe13d71ddaa5ffa01789dfa3c850adaf5b6eac49072cf51d3b",
     (256, 25, 40)),
    ("rajat30", 0.01, dict(h=64),
     "8b2d9a4d96cad3f4a7f96df6bfbb191e9811e261b195d8dd21211c1f9470795b",
     (64, 100, 40)),
    ("rajat30", 0.01, dict(cache_weight=0.0),
     "29152bb4c7a560199423939138b4eb637e09dc804fb4aa4798e49c932a0257e2",
     (256, 25, 40)),
    ("webbase-1M", 0.01, dict(h=256),
     "15dcb8d6d3b8c3f314abaa9b84602aa850198f751459dc328145c2005a296733",
     (256, 39, 16)),
    ("webbase-1M", 0.01, dict(h=64),
     "d83be92b774b8022181eb67fb53bb02b56055a2db2df0696ac7156b77ff7b213",
     (64, 156, 16)),
    ("webbase-1M", 0.01, dict(cache_weight=0.0),
     "08c64665b63c74e28d430c104e483d3ad597ec723e955ca915dc1a80f0fed940",
     (256, 39, 16)),
    ("cant", 0.05, dict(h=256),
     "d63104e46723f1f539ab49553ee9292b1a148113d3d30dfab08016a921763d20",
     (256, 12, 28)),
    ("cant", 0.05, dict(h=64),
     "9eff11bd496515e23730164dc414ed94278be537aecd378f21ce36176fb971e1",
     (64, 48, 28)),
    ("cant", 0.05, dict(cache_weight=0.0),
     "4f5e7e38bcc61e9120165d1a7c238d6065db0028b1fecb164efeddc728289f7a",
     (256, 12, 28)),
    ("mc2depi", 0.01, dict(h=256),
     "b1f5d8daa7ddf0fd05c409a1c149023d113065486cc51b9d15619bd0f1ad2b36",
     (256, 20, 140)),
    ("mc2depi", 0.01, dict(h=64),
     "d0d5f48489db70c5680c5647affa17903259c56033b8a798966cfc8c02f4e418",
     (64, 82, 12)),
    ("mc2depi", 0.01, dict(cache_weight=0.0),
     "b1f5d8daa7ddf0fd05c409a1c149023d113065486cc51b9d15619bd0f1ad2b36",
     (256, 20, 140)),
    ("scircuit", 0.01, dict(h=256),
     "291426132e123ca56209b7609f5509287438357712e044f6c5cd4d2ba01b49b0",
     (256, 6, 174)),
    ("scircuit", 0.01, dict(h=64),
     "b919388b467633bcd6126f597ac59cba3494dc4ad7f3e8f12c8b62e4c9022d7d",
     (64, 26, 46)),
    ("scircuit", 0.01, dict(cache_weight=0.0),
     "a86def88734abd2e5d6f24a3102c6bf71e3277bff00ac1b29bd4aab05a992dd6",
     (256, 6, 174)),
    ("twotone", 0.01, dict(h=256),
     "e86bdddd52cab95ac5f0826feafb52dfb19ad848ee94bd7ab2fe84cf6bba1b86",
     (256, 4, 186)),
    ("twotone", 0.01, dict(h=64),
     "67f0d93d24b6ac4631c50697c5371cce2be481964e1941382cb79e67b714debe",
     (64, 18, 58)),
    ("twotone", 0.01, dict(cache_weight=0.0),
     "818e7db718afebe548378f13ab17e557ebd3d54e94c7f3fc7c700ae453975238",
     (256, 4, 186)),
]


@functools.lru_cache(maxsize=None)
def _suite(name, scale):
    return generate(name, scale=scale)


class TestGolden:
    @pytest.mark.parametrize(
        "name,scale,kwargs,sha,sizes", GOLDEN,
        ids=[f"{g[0]}-{g[1]}-{'-'.join(f'{k}={v}' for k, v in g[2].items())}"
             for g in GOLDEN],
    )
    def test_permutation_pinned(self, name, scale, kwargs, sha, sizes):
        result = bar_reordering(_suite(name, scale), **kwargs)
        digest = hashlib.sha256(result.perm.astype("<i8").tobytes()).hexdigest()
        assert digest == sha
        h, full, last = sizes
        assert result.cluster_sizes.tolist() == [h] * full + [last]

    def test_no_padded_block(self):
        # rajat30's longest row is ~540x its mean: an (m, K) padded block
        # would cost over a gigabyte; the flat-array BAR peaks near 20 MB.
        coo = _suite("rajat30", 0.01)
        tracemalloc.start()
        try:
            bar_permutation(coo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestEntries:
    def test_padded_view_matches_bro_ell_encoder(self):
        # The padded view holds exactly the widths of the deltas BRO-ELL
        # encodes (core.delta over the ELLPACK arrays), zero on padding.
        coo = mixed_width_matrix(seed=1, m=64)
        col_idx, _vals, stored = ellpack_arrays_from_coo(coo)
        valid = np.arange(col_idx.shape[1]) < stored[:, np.newaxis]
        deltas = delta_encode_columns(col_idx, valid)
        bits, lines, got_valid = delta_rows_for_bar(coo)
        np.testing.assert_array_equal(got_valid, valid)
        np.testing.assert_array_equal(
            bits, np.where(valid, bit_width_array(deltas), 0)
        )
        np.testing.assert_array_equal(lines, np.where(valid, col_idx // 4, -1))

    def test_deltas_restart_each_row(self):
        # Row 0: cols 2, 3, 9 -> 1-based deltas 3, 1, 6; row 1 is empty;
        # row 2: col 20 -> delta 21 (taken against c_{i,-1} = 0 again).
        coo = COOMatrix([0, 0, 0, 2], [2, 3, 9, 20], np.ones(4), (3, 24))
        row_ptr, bits, lines = bar_entries(coo)
        assert row_ptr.tolist() == [0, 3, 3, 4]
        assert bits.tolist() == [2, 1, 3, 5]
        assert lines.tolist() == [0, 0, 2, 5]

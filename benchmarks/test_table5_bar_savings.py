"""Table 5: index space savings after BAR reordering, Test Set 1.

Shape to hold: BAR adds space savings on top of Table 3's values (paper:
+4 percentage points on average, never negative, mc2depi unchanged at
50.7% because its stencil is already order-invariant).
"""

from conftest import save_table

from repro.bench.experiments import table5_bar_savings
from repro.bench.harness import bench_scale, cached_matrix
from repro.core.bro_ell import BROELLMatrix

#: Published Table 5 (eta % after BAR).
PAPER_TABLE5 = {
    "cage12": 81.1, "cant": 92.7, "consph": 91.7, "e40r5000": 95.4,
    "epb3": 83.2, "lhr71": 95.7, "mc2depi": 50.7, "pdb1HYS": 90.8,
    "qcd5_4": 88.9, "rim": 96.0, "rma10": 94.9, "shipsec1": 94.8,
    "stomach": 82.3, "torso3": 83.6, "venkat01": 92.3, "xenon2": 87.3,
}

COLUMNS = ["matrix", "eta_before_pct", "eta_after_pct", "eta_after_paper",
           "delta_pp"]

_SCALE = bench_scale()


def test_table5_bar_savings(benchmark):
    rows = table5_bar_savings(scale=_SCALE)
    for row in rows:
        row["eta_after_paper"] = PAPER_TABLE5.get(row["matrix"], "")
    save_table("table5_bar_savings", rows, COLUMNS,
               "Table 5: space savings after BAR (measured vs paper)")

    gains = [r["delta_pp"] for r in rows]
    # BAR helps on average (paper: +4pp) and any individual regression is
    # small — the paper itself reports one matrix (cant) where the greedy
    # loses to the baselines.
    assert min(gains) > -2.5
    assert sum(gains) / len(gains) > 0.5

    # mc2depi's regular stencil leaves almost nothing for reordering.
    by = {r["matrix"]: r["delta_pp"] for r in rows}
    assert abs(by["mc2depi"]) < 2.0

    coo = cached_matrix("rim", _SCALE)
    benchmark.pedantic(
        lambda: BROELLMatrix.from_coo(coo, h=256), rounds=3, iterations=1
    )

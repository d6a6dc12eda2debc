"""The A/B benchmark script's summary and verdicts, on synthetic runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab_bench  # noqa: E402

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_ms_p50", "better": "lower", "bound": 0.25}


def runs(parent, change, name="ops_per_s"):
    """Paired runs, one per seed, from the two sides' values."""
    out = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        out.append({"seed": seed, "side": "parent", name: p})
        out.append({"seed": seed, "side": "change", name: c})
    return out


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_clear_gain():
    change = [v * 1.5 for v in PARENT]
    row = ab_bench.summarize(runs(PARENT, change), [OPS])["ops_per_s"]
    assert row["change_wins"] == "10/10"
    assert row["ratio_change_over_parent"] == pytest.approx(1.5)
    assert row["verdict"] == "gain"


def test_gain_needs_nine_of_ten_pairs():
    # a large median gain, but the change loses two pairs
    change = [v * 1.5 for v in PARENT[:8]] + [90.0, 90.0]
    row = ab_bench.summarize(runs(PARENT, change), [OPS])["ops_per_s"]
    assert row["change_wins"] == "8/10"
    assert row["verdict"] == "no regression"


def test_gain_needs_the_median_past_the_parents_iqr():
    # wins every pair, by less than the parent's spread
    change = [v + 0.1 for v in PARENT]
    row = ab_bench.summarize(runs(PARENT, change), [OPS])["ops_per_s"]
    assert row["change_wins"] == "10/10"
    assert row["verdict"] == "no regression"


def test_regression_past_the_bound_in_either_direction():
    slower = [v * 0.7 for v in PARENT]
    assert ab_bench.summarize(runs(PARENT, slower), [OPS])["ops_per_s"]["verdict"] == "regression"
    longer = [v * 1.3 for v in PARENT]
    rows = ab_bench.summarize(runs(PARENT, longer, "op_ms_p50"), [P50])
    assert rows["op_ms_p50"]["verdict"] == "regression"
    # worse, but inside the bound
    a_bit_slower = [v * 0.9 for v in PARENT]
    row = ab_bench.summarize(runs(PARENT, a_bit_slower), [OPS])["ops_per_s"]
    assert row["verdict"] == "no regression"


def test_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 65.0, 135.0]
    change = [v * 1.05 for v in wide]
    row = ab_bench.summarize(runs(wide, change), [OPS])["ops_per_s"]
    assert row["parent_iqr"] > 0.25 * row["parent"]["median"]
    assert row["verdict"] == "unresolved"
    # unless every change run beats every parent run
    change = [151.0 + i for i in range(10)]
    row = ab_bench.summarize(runs(wide, change), [OPS])["ops_per_s"]
    assert row["change"]["median"] - row["parent"]["median"] < row["parent_iqr"]
    assert row["verdict"] == "no regression"

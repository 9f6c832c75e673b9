"""The A/B driver's statistics (``tools/perf_ab.py``), without running it."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[2] / "tools" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", PATH)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)


def test_quartiles_inclusive():
    assert perf_ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert perf_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_clear_gain_on_a_lower_is_better_metric():
    base = [1.20, 1.22, 1.18, 1.25, 1.21, 1.19, 1.23, 1.20, 1.24, 1.22]
    change = [0.82, 0.85, 0.80, 0.84, 0.83, 0.81, 0.86, 0.82, 0.84, 1.30]
    row = perf_ab.compare(base, change, "lower", 0.25)
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["verdict"] == "gain"
    assert row["ratio"] == pytest.approx(0.835 / 1.215)
    assert row["base_median"] == pytest.approx(1.215)


def test_fewer_than_ten_pairs_claim_no_gain():
    assert perf_ab.compare([2.0] * 9, [1.0] * 9, "lower",
                           0.25)["verdict"] == "same"


def test_eight_wins_in_ten_is_no_gain():
    base = [2.0] * 10
    change = [1.0] * 8 + [3.0] * 2
    assert perf_ab.compare(base, change, "lower", 0.25)["verdict"] == "same"


def test_gain_must_beat_the_base_iqr():
    base = [10.0, 10.25, 10.5, 10.75, 11.0] * 2
    change = [b - 0.25 for b in base]  # wins every pair, but by < IQR
    row = perf_ab.compare(base, change, "lower", 0.25)
    assert row["wins"] == 10 and row["base_iqr"] == 0.5
    assert row["verdict"] == "same"


def test_worsening_past_the_bound_is_worse():
    base = [50.0, 50.1, 49.9]
    assert perf_ab.compare(base, [52.0, 52.1, 52.2], "lower",
                           0.05)["verdict"] == "same"       # +4%
    assert perf_ab.compare(base, [53.0, 53.1, 52.9], "lower",
                           0.05)["verdict"] == "worse"      # +6%


def test_spread_wider_than_the_bound_is_unresolved():
    base = [40.0, 50.0, 60.0, 45.0, 55.0]           # IQR 10 > 5% of 50
    assert perf_ab.compare(base, [51.0, 49.0, 50.5, 50.0, 50.2], "lower",
                           0.05)["verdict"] == "unresolved"
    # Unless every change run beats every base run.
    assert perf_ab.compare(base, [39.0] * 5, "lower",
                           0.05)["verdict"] == "same"


def test_higher_is_better_flips_the_sign():
    row = perf_ab.compare([1.0] * 10, [2.0] * 10, "higher", 0.1)
    assert row["wins"] == 10 and row["verdict"] == "gain"
    assert perf_ab.compare([2.0, 2.0], [1.0, 1.0], "higher",
                           0.1)["verdict"] == "worse"


def test_compare_rejects_unpaired_samples():
    with pytest.raises(ValueError):
        perf_ab.compare([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        perf_ab.compare([], [], "lower", 0.25)
    with pytest.raises(ValueError):
        perf_ab.compare([1.0], [1.0], "faster", 0.25)

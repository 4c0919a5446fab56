"""tools/bench_pairs.summarize decides every gain claim and bound of the benchmark."""
import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
PASS = {"name": "pass_ratio", "unit": "ratio", "better": "higher", "bound": 0.01}


@pytest.fixture(scope="module")
def summarize():
    saved = list(sys.path)  # the tool puts perfbench/ on the path for its envinfo import
    try:
        spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    finally:
        sys.path[:] = saved
    return tool.summarize


def pairs(base, change, name="wall_s"):
    return [{"base": {name: b}, "change": {name: c}} for b, c in zip(base, change)]


# base runs 10.0..10.9 (quartiles 10.225 and 10.675, IQR 0.45)
BASE = [10.0 + 0.1 * k for k in range(10)]


@pytest.mark.parametrize("wins", [10, 9])
def test_nine_or_ten_wins_beyond_the_base_iqr_are_claimable(summarize, wins):
    change = [b - 1.0 if k < wins else b + 0.5 for k, b in enumerate(BASE)]
    got = summarize(pairs(BASE, change), [WALL])["wall_s"]
    assert (got["wins"], got["losses"], got["ties"]) == (wins, 10 - wins, 0)
    assert got["base"]["iqr"] == pytest.approx(0.45)
    assert got["base"]["median"] - got["change"]["median"] > got["base"]["iqr"]
    assert got["claimable_gain"] is True
    assert got["within_bound"] is True


def test_eight_wins_are_not_claimable(summarize):
    change = [b - 1.0 if k < 8 else b + 0.5 for k, b in enumerate(BASE)]
    got = summarize(pairs(BASE, change), [WALL])["wall_s"]
    assert got["wins"] == 8
    assert got["base"]["median"] - got["change"]["median"] > got["base"]["iqr"]
    assert got["claimable_gain"] is False


def test_nine_pairs_are_not_claimable(summarize):
    got = summarize(pairs(BASE[:9], [b - 1.0 for b in BASE[:9]]), [WALL])["wall_s"]
    assert got["wins"] == 9 and got["losses"] == 0
    assert got["claimable_gain"] is False


def test_wins_within_the_base_iqr_are_not_claimable(summarize):
    got = summarize(pairs(BASE, [b - 0.3 for b in BASE]), [WALL])["wall_s"]
    assert got["wins"] == 10
    assert got["claimable_gain"] is False


def test_higher_is_better_flips_the_sign(summarize):
    base = [0.5 + 0.01 * k for k in range(10)]
    higher = summarize(pairs(base, [b + 0.2 for b in base], "pass_ratio"), [PASS])
    lower = summarize(pairs(base, [b - 0.2 for b in base], "pass_ratio"), [PASS])
    assert higher["pass_ratio"]["wins"] == 10 and higher["pass_ratio"]["claimable_gain"]
    assert higher["pass_ratio"]["within_bound"] is True
    assert lower["pass_ratio"]["losses"] == 10 and not lower["pass_ratio"]["claimable_gain"]
    assert lower["pass_ratio"]["within_bound"] is False


def test_a_change_at_the_bound_is_within_it(summarize):
    # medians 10 and 12: 20% worse, exactly the bound; a little more is not within it
    at = summarize(pairs([10.0] * 10, [12.0] * 10), [WALL])["wall_s"]
    over = summarize(pairs([10.0] * 10, [12.001] * 10), [WALL])["wall_s"]
    assert at["change_rel"] == pytest.approx(0.2)
    assert at["within_bound"] is True
    assert over["within_bound"] is False
    assert at["losses"] == over["losses"] == 10


def test_a_metric_missing_from_some_pairs_is_summarised_over_the_rest(summarize):
    rows = pairs(BASE, [b - 1.0 for b in BASE])
    for k in (2, 5, 7):
        del rows[k]["change"]["wall_s"]
    rows[8]["base"].clear()
    got = summarize(rows, [WALL, PASS])
    assert "pass_ratio" not in got  # in no pair
    kept = [b for k, b in enumerate(BASE) if k not in (2, 5, 7, 8)]
    assert got["wall_s"]["wins"] + got["wall_s"]["losses"] + got["wall_s"]["ties"] == 6
    assert got["wall_s"]["base"]["median"] == statistics.median(kept)
    assert got["wall_s"]["claimable_gain"] is False  # six pairs are fewer than ten

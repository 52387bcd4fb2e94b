"""Tests of the benchmark's result checker, its plain-Python mirror, and
the agreement of BENCHMARK.json with what a run prints.

Run from the repository root:

    python3 -m pytest perfbench/test_checker.py -q
"""

from __future__ import annotations

import datetime
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checker import check_result, same_value  # noqa: E402
from common import Run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from oracle import SalesMirror  # noqa: E402

ROWS = [("a", 1, 2.5), ("b", 2, 3.0), ("c", 3, 1.0 / 3.0)]


def test_accepts_any_order_without_order_by():
    assert check_result(list(reversed(ROWS)), ROWS) is None


def test_rejects_changed_cell():
    changed = [ROWS[0], ("b", 2, 3.5), ROWS[2]]
    assert check_result(changed, ROWS) is not None


def test_rejects_changed_text_cell():
    changed = [ROWS[0], ("x", 2, 3.0), ROWS[2]]
    assert check_result(changed, ROWS) is not None


def test_rejects_missing_row():
    assert check_result(ROWS[:2], ROWS) is not None


def test_rejects_duplicated_row_in_place_of_another():
    assert check_result([ROWS[0], ROWS[0], ROWS[2]], ROWS) is not None


def test_rejects_wrong_order():
    order = [(1, False)]
    assert check_result(ROWS, ROWS, order=order) is None
    assert check_result([ROWS[1], ROWS[0], ROWS[2]], ROWS, order=order) is not None


def test_accepts_ties_in_any_order():
    expected = [("a", 1), ("b", 1), ("c", 2)]
    swapped = [("b", 1), ("a", 1), ("c", 2)]
    assert check_result(swapped, expected, order=[(1, False)]) is None


def test_limit_accepts_other_choice_among_tied_rows():
    full = [("a", 9), ("b", 5), ("c", 5), ("d", 1)]
    expected = full[:2]
    other = [("a", 9), ("c", 5)]
    assert (
        check_result(other, expected, order=[(1, True)], limit=2, unlimited=full)
        is None
    )


def test_limit_rejects_row_outside_the_answer():
    full = [("a", 9), ("b", 5), ("c", 5), ("d", 1)]
    wrong = [("a", 9), ("z", 5)]
    assert (
        check_result(wrong, full[:2], order=[(1, True)], limit=2, unlimited=full)
        is not None
    )


def test_limit_rejects_wrong_sort_key_sequence():
    full = [("a", 9), ("b", 5), ("c", 5), ("d", 1)]
    wrong = [("a", 9), ("d", 1)]
    assert (
        check_result(wrong, full[:2], order=[(1, True)], limit=2, unlimited=full)
        is not None
    )


def test_float_tolerance_is_relative_not_rounded():
    # Rounding to six digits splits these two equal averages:
    # round(x, 6) gives 0.1234565 -> 0.123456 and 0.1234565000000001 -> 0.123457.
    a, b = 0.1234565, 0.1234565000000001
    assert round(a, 6) != round(b, 6)
    assert check_result([(a,)], [(b,)]) is None
    assert check_result([(0.1234,)], [(0.1235,)]) is not None


def test_int_and_float_of_equal_value_match():
    assert same_value(5, 5.0)
    assert check_result([(5, "x")], [(5.0, "x")]) is None


def test_none_matches_only_none():
    assert check_result([(None,)], [(None,)]) is None
    assert check_result([(None,)], [(0,)]) is not None


def test_sales_mirror_applies_writes():
    day = datetime.date(1997, 1, 1)
    mirror = SalesMirror(
        [
            (1, 4, 100, 2, 0, day, "OPEN", "x"),
            (2, 4, 50, 9, 0, day, "OPEN", "y"),
            (3, 7, 80, 1, 0, day, "OPEN", "z"),
        ]
    )
    assert mirror.insert([(4, 7, 20, 3, 1, day, "OPEN", "w")]) == 1
    assert mirror.update_price(discount=5, low=60, custkey=4) == 1
    assert mirror.rows[0][2] == 95
    assert mirror.delete(custkey=7, max_qty=2) == 1
    assert mirror.totals() == (3, 95 + 50 + 20)
    assert sorted(r[0] for r in mirror.rows) == [1, 2, 4]


def test_benchmark_json_names_what_a_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    printed = Run().end_to_end(peak_rss=1.0, scaled=False)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_value, unit) in printed.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

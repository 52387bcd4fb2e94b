"""Result checker: does a result set answer the query correctly?

The checker accepts every correct answer and nothing else:

* Without ORDER BY, rows compare as a multiset.
* With ORDER BY, the sequence of sort keys must match the expected
  sequence row by row, and the rows must match as a multiset.  Rows that
  tie on every sort key may come in any order.
* With ORDER BY ... LIMIT, ties at the cut-off may be broken either way,
  so every returned row must instead belong to the answer computed
  without the LIMIT (``unlimited``).
* Floats compare with a relative tolerance, never by rounding: rounding
  to a fixed number of digits can put two equal averages on opposite
  sides of a rounding boundary.

The module imports nothing from the program under test, so a fault in
the program cannot hide a fault in the checker.
"""

from __future__ import annotations

import math
from typing import Sequence

REL_TOL = 1e-9
ABS_TOL = 1e-9


def same_value(a: object, b: object) -> bool:
    """Cell equality: floats within a relative tolerance, else exact."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def same_row(a: Sequence, b: Sequence) -> bool:
    return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bucket(row: Sequence) -> tuple:
    """Exact-match part of a row: numbers are matched with tolerance
    inside a bucket, every other cell must be equal to share one."""
    return tuple(None if _is_number(v) else (type(v).__name__, v) for v in row)


def _numbers(row: Sequence) -> tuple:
    return tuple(float(v) if _is_number(v) else 0.0 for v in row)


def unmatched(rows: Sequence[Sequence], pool: Sequence[Sequence]) -> list[Sequence]:
    """Rows of ``rows`` left over after pairing each with a distinct,
    equal row of ``pool``."""
    buckets: dict[tuple, list[Sequence]] = {}
    for row in sorted(pool, key=_numbers):
        buckets.setdefault(_bucket(row), []).append(row)
    left = []
    for row in sorted(rows, key=_numbers):
        candidates = buckets.get(_bucket(row), [])
        for index, candidate in enumerate(candidates):
            if same_row(row, candidate):
                del candidates[index]
                break
        else:
            left.append(row)
    return left


def check_result(
    actual: Sequence[Sequence],
    expected: Sequence[Sequence],
    order: Sequence[tuple[int, bool]] = (),
    limit: int | None = None,
    unlimited: Sequence[Sequence] | None = None,
) -> str | None:
    """``None`` when ``actual`` is a correct answer, else why it is not.

    ``expected`` is one correct answer.  ``order`` lists the output
    positions of the ORDER BY keys (position, descending); ``limit`` is
    the query's LIMIT and ``unlimited`` its answer without the LIMIT.
    """
    if len(actual) != len(expected):
        return f"{len(actual)} rows, expected {len(expected)}"
    for index, row in enumerate(actual):
        if len(row) != len(expected[index]):
            return f"row {index} has {len(row)} columns, expected {len(expected[index])}"
    if order:
        for index, (got, want) in enumerate(zip(actual, expected)):
            for position, _descending in order:
                if not same_value(got[position], want[position]):
                    return (
                        f"row {index}: sort key column {position} is "
                        f"{got[position]!r}, expected {want[position]!r}"
                    )
    if limit is not None and unlimited is not None:
        extra = unmatched(actual, unlimited)
        if extra:
            return f"row {tuple(extra[0])!r} is not in the answer"
        return None
    extra = unmatched(actual, expected)
    if extra:
        return f"row {tuple(extra[0])!r} is not in the expected rows"
    return None

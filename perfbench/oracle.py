"""Answers computed in plain Python over the generated rows.

These never touch the program's SQL engine, so a fault shared by the
encrypted path and the plaintext engine cannot pass unnoticed on the
statements they cover: TPC-H Q1 and Q6, the SSB flight-1 revenue
template, and the running ``COUNT(*)``/``SUM(o_price)`` of the sales
table, whose writes are mirrored here too.
"""

from __future__ import annotations

import datetime


def _columns(table, *names: str) -> list[int]:
    return [table.schema.column_index(name) for name in names]


def tpch_q1(db) -> list[tuple]:
    """TPC-H Q1 (pricing summary report), sorted by flag and status."""
    lineitem = db.table("lineitem")
    qty, price, disc, tax, flag, status, ship = _columns(
        lineitem,
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_returnflag",
        "l_linestatus",
        "l_shipdate",
    )
    cutoff = datetime.date(1998, 12, 1) - datetime.timedelta(days=90)
    groups: dict[tuple, list[int]] = {}
    for row in lineitem.rows:
        if row[ship] > cutoff:
            continue
        acc = groups.setdefault((row[flag], row[status]), [0, 0, 0, 0, 0, 0])
        disc_price = row[price] * (100 - row[disc])
        acc[0] += row[qty]
        acc[1] += row[price]
        acc[2] += disc_price
        acc[3] += disc_price * (100 + row[tax])
        acc[4] += row[disc]
        acc[5] += 1
    out = []
    for key in sorted(groups):
        s_qty, s_price, s_disc_price, s_charge, s_disc, count = groups[key]
        out.append(
            key
            + (
                s_qty,
                s_price,
                s_disc_price,
                s_charge,
                s_qty / count,
                s_price / count,
                s_disc / count,
                count,
            )
        )
    return out


def tpch_q6(db) -> list[tuple]:
    """TPC-H Q6 (forecasting revenue change): one row, NULL when empty."""
    lineitem = db.table("lineitem")
    qty, price, disc, ship = _columns(
        lineitem, "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"
    )
    low, high = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)
    revenue = None
    for row in lineitem.rows:
        if low <= row[ship] < high and 5 <= row[disc] <= 7 and row[qty] < 24:
            revenue = (revenue or 0) + row[price] * row[disc]
    return [(revenue,)]


def ssb_flight1_revenue(db, year: int, dlo: int, dhi: int, qty: int) -> list[tuple]:
    """The SSB flight-1 template: revenue of one year's discounted,
    small-quantity line orders; one row, NULL when empty."""
    ddate = db.table("ddate")
    datekey, d_year = _columns(ddate, "d_datekey", "d_year")
    keys = {row[datekey] for row in ddate.rows if row[d_year] == year}
    lineorder = db.table("lineorder")
    odate, price, disc, quantity = _columns(
        lineorder, "lo_orderdate", "lo_extendedprice", "lo_discount", "lo_quantity"
    )
    revenue = None
    for row in lineorder.rows:
        if row[odate] in keys and dlo <= row[disc] <= dhi and row[quantity] < qty:
            revenue = (revenue or 0) + row[price] * row[disc]
    return [(revenue,)]


class SalesMirror:
    """The ``orders`` table of the sales workload, kept in plain Python.

    Rows are ``(o_orderkey, o_custkey, o_price, o_qty, o_discount,
    o_date, o_status, o_comment)``; each write method applies the one
    statement shape the workload issues and returns the rows it changed.
    """

    def __init__(self, rows) -> None:
        self.rows = [tuple(row) for row in rows]

    def insert(self, rows) -> int:
        self.rows.extend(tuple(row) for row in rows)
        return len(rows)

    def update_price(self, discount: int, low: int, custkey: int) -> int:
        """``UPDATE orders SET o_price = o_price - :d
        WHERE o_price >= :lo AND o_custkey = :c``"""
        changed = 0
        for index, row in enumerate(self.rows):
            if row[2] >= low and row[1] == custkey:
                self.rows[index] = row[:2] + (row[2] - discount,) + row[3:]
                changed += 1
        return changed

    def delete(self, custkey: int, max_qty: int) -> int:
        """``DELETE FROM orders WHERE o_custkey = :c AND o_qty <= :q``"""
        kept = [r for r in self.rows if not (r[1] == custkey and r[3] <= max_qty)]
        deleted = len(self.rows) - len(kept)
        self.rows = kept
        return deleted

    def totals(self) -> tuple[int, int | None]:
        """``SELECT COUNT(*), SUM(o_price) FROM orders``"""
        if not self.rows:
            return 0, None
        return len(self.rows), sum(row[2] for row in self.rows)

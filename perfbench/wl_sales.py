"""sales-htap: writes beside analytics on one table.

One client alternates INSERT, UPDATE and DELETE with the five sales
analytic queries and a running-totals query (``COUNT(*)``,
``SUM(o_price)``) on the same ``orders`` table, on the in-memory backend.  Every write's ``rows_affected`` and
the final table contents are checked against the benchmark's own
Python mirror of the table; every SELECT against the plaintext engine
over that mirror.

The stream stays inside what the load fixed: inserted values lie within
each column's loaded range (packed Paillier slots have fixed widths),
prices only decrease, and the run stops before the packed files' insert
headroom (2^pad_bits rows; DELETE never frees a slot) runs out.
"""

from __future__ import annotations

import datetime
import random
from time import perf_counter

from common import (
    MASTER_KEY,
    PAILLIER_BITS,
    PlainEngine,
    result_spec,
    statement_from,
)
from oracle import SalesMirror

NUM_ORDERS = 520
#: The table is the same in every run; ``--seed`` draws the writes.
DATA_SEED = 11
SETUPS = 3
MIN_ROUNDS = 12
TOTALS = "SELECT COUNT(*) AS n, SUM(o_price) AS total FROM orders"
COLUMNS = (
    "o_orderkey, o_custkey, o_price, o_qty, o_discount, o_date, o_status, o_comment"
)
#: One round: (operation, analytic query index or None): two cycles of
#: insert, update and delete, each followed by the five analytic reads,
#: and one read of the running totals (index 5).  Eleven reads a round
#: put the median read inside one analytic query's samples, away from
#: the totals, whose latency moves most with the write stream.
_CYCLE = (
    ("insert", None),
    ("select", 0),
    ("select", 1),
    ("update", None),
    ("select", 2),
    ("delete", None),
    ("select", 3),
    ("select", 4),
)
ROUND = _CYCLE + _CYCLE[:5] + (("select", 5),) + _CYCLE[5:]


class WriteStream:
    """Seeded writes whose values stay inside the loaded column ranges."""

    def __init__(self, rows, rng: random.Random) -> None:
        self.rng = rng
        self.next_key = max(r[0] for r in rows) + 1
        self.custkeys = sorted({r[1] for r in rows})
        self.max_price = max(r[2] for r in rows)
        self.max_qty = max(r[3] for r in rows)
        self.max_product = max(r[2] * r[3] for r in rows)
        self.max_discount = max(r[4] for r in rows)
        self.first_day = min(r[5] for r in rows)
        self.days = (max(r[5] for r in rows) - self.first_day).days
        self.statuses = sorted({r[6] for r in rows})
        self.comments = sorted({r[7] for r in rows})

    def insert(self) -> tuple[str, tuple]:
        rng = self.rng
        price = rng.randint(10, self.max_price)
        qty = rng.randint(1, max(1, min(self.max_qty, self.max_product // price)))
        row = (
            self.next_key,
            rng.choice(self.custkeys),
            price,
            qty,
            rng.randint(0, self.max_discount),
            self.first_day + datetime.timedelta(days=rng.randint(0, self.days)),
            rng.choice(self.statuses),
            rng.choice(self.comments),
        )
        self.next_key += 1
        sql = (
            f"INSERT INTO orders VALUES ({row[0]}, {row[1]}, {row[2]}, {row[3]}, "
            f"{row[4]}, DATE '{row[5].isoformat()}', '{row[6]}', '{row[7]}')"
        )
        return sql, row

    def update(self) -> dict:
        discount = self.rng.randint(1, 9)
        return {"d": discount, "lo": discount + 10, "c": self.rng.choice(self.custkeys)}

    def delete(self) -> dict:
        return {"c": self.rng.choice(self.custkeys), "q": self.rng.randint(1, 4)}


UPDATE = (
    "UPDATE orders SET o_price = o_price - :d WHERE o_price >= :lo AND o_custkey = :c"
)
DELETE = "DELETE FROM orders WHERE o_custkey = :c AND o_qty <= :q"


def _oracle_db(reference, mirror: SalesMirror):
    """A fresh plaintext database: the reference customers and the
    mirror's orders."""
    from repro.engine import Database

    db = Database("sales_oracle")
    customer = reference.table("customer")
    db.create_table(customer.schema).insert_many(customer.rows)
    db.create_table(reference.table("orders").schema).insert_many(mirror.rows)
    return db


def insert_headroom(client) -> int:
    """Rows the orders table's packed Paillier files can still take."""
    room = None
    for group in client.design.hom_groups:
        if group.table == "orders":
            info = client.backend.hom_file_info(group.file_name)
            free = 2 ** info["pad_bits"] - info["num_rows"]
            room = free if room is None else min(room, free)
    return room if room is not None else 1 << 30


def run(bench) -> None:
    from repro.core import MonomiClient
    from repro.testkit import SALES_WORKLOAD, build_sales_db

    run = bench.run
    queries = list(SALES_WORKLOAD) + [TOTALS]
    client = None
    for _ in range(SETUPS):
        db = build_sales_db(NUM_ORDERS, seed=DATA_SEED)
        if client is not None:
            client.close()
        bench.begin_setup()
        client = MonomiClient.setup(
            db, queries, master_key=MASTER_KEY, paillier_bits=PAILLIER_BITS
        )
        bench.after_setup(client)

    reference = build_sales_db(NUM_ORDERS, seed=DATA_SEED)
    mirror = SalesMirror(reference.table("orders").rows)
    plain = PlainEngine(_oracle_db(reference, mirror))
    writes = WriteStream(mirror.rows, random.Random(bench.seed))
    specs = [result_spec(sql) for sql in queries]
    headroom = insert_headroom(client)
    run.info.update(
        num_orders=NUM_ORDERS,
        customers=reference.table("customer").num_rows,
        setups=SETUPS,
        insert_headroom_rows=headroom,
    )

    def execute(kind: str, key: str, sql, params, round_):
        stmt_id = run.next_statement_id()
        opened = bench.begin_statement(stmt_id)
        t0 = perf_counter()
        outcome = run.ops.attempt(kind, lambda: client.execute(sql, params))
        seconds = perf_counter() - t0
        bench.end_statement(opened)
        if outcome is not None:
            run.busy_seconds += seconds
            run.statements.append(statement_from(outcome, kind, key, seconds, round_, stmt_id))
        return outcome

    def one_round(round_) -> None:
        nonlocal plain
        for op, index in ROUND:
            if op == "select":
                key = f"S{index}"
                outcome = execute("select", key, queries[index], None, round_)
                if outcome is None:
                    continue
                want, seconds, unlimited = bench.untraced(lambda: plain.answer(queries[index]))
                run.add_plain(key, seconds)
                run.checks.rows(f"{key} vs plaintext engine", outcome.rows, want, specs[index], unlimited)
                if queries[index] == TOTALS:
                    run.checks.rows(f"{key} vs mirror totals", outcome.rows, [mirror.totals()])
                continue
            if op == "insert":
                sql, row = writes.insert()
                outcome = execute("insert", op, sql, None, round_)
                expected = mirror.insert([row])
            elif op == "update":
                params = writes.update()
                outcome = execute("update", op, UPDATE, params, round_)
                expected = mirror.update_price(params["d"], params["lo"], params["c"])
            else:
                params = writes.delete()
                outcome = execute("delete", op, DELETE, params, round_)
                expected = mirror.delete(params["c"], params["q"])
            if outcome is not None:
                run.checks.expect(
                    outcome.rows == [(expected,)],
                    f"{op}: rows_affected {outcome.rows} vs mirror {expected}",
                )
            plain = PlainEngine(_oracle_db(reference, mirror))

    bench.timed_rounds(
        one_round,
        MIN_ROUNDS,
        provider=client.provider,
        max_rounds=headroom // 2,  # Two inserted rows per round.
    )

    final = bench.untraced(lambda: client.execute(f"SELECT {COLUMNS} FROM orders"))
    run.checks.rows("final orders contents vs mirror", final.rows, mirror.rows)
    run.info["final_orders"] = len(mirror.rows)
    run.info["inserted_rows"] = 2 * run.rounds
    client.close()

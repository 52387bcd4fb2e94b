"""ssb-prepared-tcp: SSB flight queries as prepared templates over TCP.

An in-process ``MonomiServer`` hosts the encrypted SSB database on the
SQLite backend.  A client that reconnects with a fresh key provider
(``MonomiClient.connect``) runs ``service(workers=2)``; two sessions each
execute every template once per round, in a seeded order, with fresh
seeded parameters for every execution.  After the first execution of a
template, re-binds skip the planner, so the server, its ``hom_agg`` UDF,
the wire and decryption do most of the work.

The designer does not yet give the same design in every process, so a
run sets up three times (design, load, server start, connect) and
measures a third of its time on each design: ``setup_s`` is the median
setup, and the latencies pool all three designs.
"""

from __future__ import annotations

import random
import threading
from time import perf_counter

import oracle
from common import (
    MASTER_KEY,
    PAILLIER_BITS,
    PlainEngine,
    result_spec,
    statement_from,
)

SCALE = 0.0005
#: The database is the same in every run; ``--seed`` draws the template
#: order and parameters.  The design follows the data, so data drawn per
#: seed would also change the design from run to run.
DATA_SEED = 1
SESSIONS = 2
SETUPS = 3
MIN_ROUNDS = 2

_JOIN = "lo_orderdate = d_datekey"
TEMPLATES = {
    "1.1": (
        "SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, ddate "
        f"WHERE {_JOIN} AND d_year = :year "
        "AND lo_discount BETWEEN :dlo AND :dhi AND lo_quantity < :qty"
    ),
    "1.2": (
        "SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, ddate "
        f"WHERE {_JOIN} AND d_yearmonthnum = :ym "
        "AND lo_discount BETWEEN :dlo AND :dhi AND lo_quantity BETWEEN :qlo AND :qhi"
    ),
    "1.3": (
        "SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, ddate "
        f"WHERE {_JOIN} AND d_weeknuminyear = :week AND d_year = :year "
        "AND lo_discount BETWEEN :dlo AND :dhi AND lo_quantity BETWEEN :qlo AND :qhi"
    ),
    "2.1": (
        "SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 "
        "FROM lineorder, ddate, part, supplier "
        f"WHERE {_JOIN} AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
        "AND p_category = :cat AND s_region = :sregion "
        "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"
    ),
    "2.3": (
        "SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 "
        "FROM lineorder, ddate, part, supplier "
        f"WHERE {_JOIN} AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
        "AND p_brand1 = :brand AND s_region = :sregion "
        "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"
    ),
    "3.1": (
        "SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue "
        "FROM customer, lineorder, supplier, ddate "
        "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
        f"AND {_JOIN} AND c_region = :cregion AND s_region = :sregion "
        "AND d_year >= :y1 AND d_year <= :y2 "
        "GROUP BY c_nation, s_nation, d_year ORDER BY d_year, revenue DESC"
    ),
    "4.1": (
        "SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit "
        "FROM ddate, customer, supplier, part, lineorder "
        "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
        f"AND lo_partkey = p_partkey AND {_JOIN} "
        "AND c_region = :cregion AND s_region = :sregion AND p_mfgr IN (:m1, :m2) "
        "GROUP BY d_year, c_nation ORDER BY d_year, c_nation"
    ),
}


class Params:
    """Seeded template parameters drawn around a sampled line order, so
    each execution matches at least one row where the template allows.
    Draws whose values collide are redrawn: a prepared statement can
    only re-bind parameters whose literals it can tell apart."""

    def __init__(self, db, rng: random.Random) -> None:
        self.rng = rng
        self.lineorder = db.table("lineorder")
        self._cols = {c: i for i, c in enumerate(self.lineorder.schema.column_names)}

        def index(table: str):
            t = db.table(table)
            names = t.schema.column_names
            return {row[0]: dict(zip(names, row)) for row in t.rows}

        self.dates = index("ddate")
        self.customers = index("customer")
        self.suppliers = index("supplier")
        self.parts = index("part")

    def _sample(self) -> dict:
        row = self.rng.choice(self.lineorder.rows)
        fact = {c: row[i] for c, i in self._cols.items()}
        fact.update(self.dates[fact["lo_orderdate"]])
        fact.update(self.customers[fact["lo_custkey"]])
        fact.update(self.suppliers[fact["lo_suppkey"]])
        fact.update(self.parts[fact["lo_partkey"]])
        return fact

    def draw(self, name: str) -> dict:
        while True:
            params = self._draw(name, self._sample())
            values = [(type(v), v) for v in params.values()]
            if len(set(values)) == len(values):
                return params

    def _draw(self, name: str, f: dict) -> dict:
        rng = self.rng
        disc, qty = f["lo_discount"], f["lo_quantity"]
        window = {"dlo": max(0, disc - 1), "dhi": min(10, disc + 1)}
        quantity = {"qlo": max(1, qty - 5), "qhi": min(50, qty + 5)}
        if name == "1.1":
            return {"year": f["d_year"], **window, "qty": qty + rng.randint(1, 10)}
        if name == "1.2":
            return {"ym": f["d_yearmonthnum"], **window, **quantity}
        if name == "1.3":
            return {"week": f["d_weeknuminyear"], "year": f["d_year"], **window, **quantity}
        if name == "2.1":
            return {"cat": f["p_category"], "sregion": f["s_region"]}
        if name == "2.3":
            return {"brand": f["p_brand1"], "sregion": f["s_region"]}
        if name == "3.1":
            low = f["d_year"] - rng.randint(0, 2)
            return {
                "cregion": f["c_region"],
                "sregion": f["s_region"],
                "y1": low,
                "y2": low + rng.randint(2, 4),
            }
        other = rng.choice([m for m in ("MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5") if m != f["p_mfgr"]])
        return {
            "cregion": f["c_region"],
            "sregion": f["s_region"],
            "m1": f["p_mfgr"],
            "m2": other,
        }


def _phase(bench, db, workload, draws, executions, lock, between_rounds) -> None:
    """One setup (design, SQLite load, server start, connect) and one
    timed share of the run on the design it produced."""
    from repro.core import CryptoProvider, MonomiClient
    from repro.net import MonomiServer

    run = bench.run
    bench.begin_setup()
    client = MonomiClient.setup(
        db, workload, master_key=MASTER_KEY, paillier_bits=PAILLIER_BITS, backend="sqlite"
    )
    server = MonomiServer(client.backend).start()
    try:
        remote = MonomiClient.connect(
            server.address,
            db,
            design=client.design,
            provider=CryptoProvider(MASTER_KEY, paillier_bits=PAILLIER_BITS),
        )
        bench.after_setup(client)
        service = remote.service(workers=2)
        try:
            statements: dict = {}

            def prepared(name: str):
                """Prepared on first use, so the timed phase pays for the
                parse and the first (full) planning of each template."""
                with lock:
                    if name not in statements:
                        statements[name] = service.prepare(TEMPLATES[name])
                    return statements[name]

            sessions = [service.open_session() for _ in range(SESSIONS)]

            def session_round(index: int, round_) -> None:
                session, params_of = sessions[index], draws[index]
                order = sorted(TEMPLATES)
                params_of.rng.shuffle(order)
                for name in order:
                    params = params_of.draw(name)
                    stmt_id = run.next_statement_id()
                    opened = bench.begin_statement(stmt_id)
                    t0 = perf_counter()
                    outcome = run.ops.attempt(
                        "select",
                        lambda: service.execute_prepared(prepared(name), params, session=session),
                    )
                    seconds = perf_counter() - t0
                    bench.end_statement(opened)
                    if outcome is None:
                        continue
                    with lock:
                        run.statements.append(
                            statement_from(outcome, "select", name, seconds, round_, stmt_id)
                        )
                        executions.append((name, params, outcome.rows))

            before = service.stats()
            executed = len(run.statements)
            bench.timed_rounds(
                session_round,
                MIN_ROUNDS,
                provider=remote.provider,
                sessions=SESSIONS,
                seconds=bench.seconds / SETUPS,
                between_rounds=between_rounds,
            )
            after = service.stats()
            executed = len(run.statements) - executed
            for name, value in (
                ("service.prepared_executions", executed),
                ("service.fast_rebinds", after.prepared_fast_rebinds - before.prepared_fast_rebinds),
                ("service.replans", after.prepared_replans - before.prepared_replans),
                ("service.plan_cache_hits", after.plan_cache.hits - before.plan_cache.hits),
                ("service.plan_cache_misses", after.plan_cache.misses - before.plan_cache.misses),
            ):
                run.layer_extra[name] = (run.layer_extra.get(name, (0,))[0] + value, "count")
        finally:
            service.close()
            remote.close()
    finally:
        server.close()
        client.close()


def run(bench) -> None:
    from repro.sql import parse
    from repro.core import normalize_query
    from repro.ssb import generate

    run = bench.run
    db = generate(scale=SCALE, seed=DATA_SEED)
    plain = PlainEngine(generate(scale=SCALE, seed=DATA_SEED))
    # The designer's workload: every template bound once, the same in
    # every run.
    anchors = Params(plain.db, random.Random(DATA_SEED))
    workload = [
        normalize_query(parse(sql), anchors.draw(name)) for name, sql in TEMPLATES.items()
    ]
    run.info.update(
        scale=SCALE,
        rows={name: t.num_rows for name, t in db.tables.items()},
        templates=sorted(TEMPLATES),
        sessions=SESSIONS,
        service_workers=2,
        setups=SETUPS,
    )
    draws = [Params(plain.db, random.Random(bench.seed * 7919 + s)) for s in range(SESSIONS)]
    specs = {name: result_spec(sql) for name, sql in TEMPLATES.items()}
    executions: list[tuple] = []  # (template, params, rows) of every success
    lock = threading.Lock()
    answers: dict[tuple, tuple] = {}

    def answer(name: str, params: dict, timed: bool = False) -> tuple:
        key = (name, tuple(sorted(params.items())))
        if key not in answers:
            want, seconds, unlimited = plain.answer(TEMPLATES[name], params)
            answers[key] = (want, unlimited)
            if timed:
                run.add_plain(name, seconds)
        return answers[key]

    def time_plaintext() -> None:
        """Between rounds, while both sessions wait: the plaintext engine
        answers the round's last execution of each template, so the
        slowdown's two sides are timed in the same stretch of the run."""
        seen = set()
        for name, params, _rows in reversed(executions[-SESSIONS * len(TEMPLATES):]):
            if name not in seen:
                seen.add(name)
                answer(name, params, timed=True)

    for _ in range(SETUPS):
        _phase(bench, db, workload, draws, executions, lock, time_plaintext)
    fast, executed = (run.layer_extra[n][0] for n in ("service.fast_rebinds", "service.prepared_executions"))
    run.layer_extra["service.fast_rebind_ratio"] = (fast / executed if executed else 0.0, "ratio")

    # Checks run after the timed phases so that the plaintext engine
    # never competes with the two sessions for the interpreter.
    for name, params, rows in executions:
        want, unlimited = answer(name, params)
        run.checks.rows(f"{name} {params} vs plaintext engine", rows, want, specs[name], unlimited)
        if name == "1.1":
            python = oracle.ssb_flight1_revenue(
                plain.db, params["year"], params["dlo"], params["dhi"], params["qty"]
            )
            run.checks.rows(f"1.1 {params} vs plain Python", rows, python)
    empty = [name for name, _params, rows in executions if not rows or rows == [(None,)]]
    run.info["empty_results"] = sorted(set(empty))
    run.info["empty_result_share"] = len(empty) / max(1, len(executions))

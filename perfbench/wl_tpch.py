"""tpch-adhoc: the paper's Fig 4 workload.

The 19 supported TPC-H queries run ad hoc through
``MonomiClient.execute`` on the in-memory backend, one client, round
after round, each round in a seeded order: every statement is parsed, normalized, planned (Algorithm
1, no plan cache), executed, decrypted and finished by the residual.
"""

from __future__ import annotations

import random
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
#: The database is the same in every run; ``--seed`` orders the queries
#: of each round.  Data drawn per seed changes which queries come back
#: empty at this scale, and with it how much work a round does.  Data
#: seed 13 leaves four of the 19 answers empty (Q18, Q20, Q21, Q22), the
#: fewest among data seeds 1-30; an empty answer checks little.
DATA_SEED = 13
MIN_ROUNDS = 4


def run(bench) -> None:
    from repro.core import MonomiClient
    from repro.tpch import generate, supported_numbers, tpch_queries

    run = bench.run
    db = generate(scale=SCALE, seed=DATA_SEED)
    plain = PlainEngine(generate(scale=SCALE, seed=DATA_SEED))
    queries = tpch_queries(SCALE)
    numbers = supported_numbers()
    workload = [queries[n].sql for n in numbers]

    bench.begin_setup()
    client = MonomiClient.setup(
        db, workload, master_key=MASTER_KEY, paillier_bits=PAILLIER_BITS
    )
    bench.after_setup(client)

    # Reference answers: the data never changes, so one per query.
    expected = {}
    for n in numbers:
        rows, seconds, unlimited = plain.answer(queries[n].sql)
        expected[n] = (rows, result_spec(queries[n].sql), unlimited)
        run.add_plain(f"Q{n}", seconds)
    for name, n, rows in (
        ("Q1", 1, oracle.tpch_q1(plain.db)),
        ("Q6", 6, oracle.tpch_q6(plain.db)),
    ):
        run.checks.rows(f"{name} plaintext engine vs plain Python", expected[n][0], rows, expected[n][1])
        expected[n] = expected[n] + (rows,)
    run.info.update(
        scale=SCALE,
        rows={name: t.num_rows for name, t in db.tables.items()},
        queries=len(numbers),
        empty_results=[f"Q{n}" for n in numbers if not expected[n][0]],
    )

    order = random.Random(bench.seed)

    def one_round(round_) -> None:
        for n in order.sample(numbers, len(numbers)):
            sql = queries[n].sql
            stmt_id = run.next_statement_id()
            opened = bench.begin_statement(stmt_id)
            t0 = perf_counter()
            outcome = run.ops.attempt("select", lambda: client.execute(sql))
            seconds = perf_counter() - t0
            bench.end_statement(opened)
            if outcome is None:
                continue
            run.busy_seconds += seconds
            run.statements.append(
                statement_from(outcome, "select", f"Q{n}", seconds, round_, stmt_id)
            )
            rows, spec, unlimited = expected[n][:3]
            run.checks.rows(f"Q{n} vs plaintext engine", outcome.rows, rows, spec, unlimited)
            if len(expected[n]) == 4:
                run.checks.rows(f"Q{n} vs plain Python", outcome.rows, expected[n][3], spec)
            # More plaintext samples for the slowdown denominator.
            run.add_plain(f"Q{n}", bench.untraced(lambda: plain.answer(sql))[1])
            run.calibrate("timed")

    bench.timed_rounds(one_round, MIN_ROUNDS, provider=client.provider)

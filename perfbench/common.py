"""Pieces every workload shares: statistics, operation and check
accounting, the plaintext reference engine, and the run's figures."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from checker import check_result

PAILLIER_BITS = 384
MASTER_KEY = b"perfbench-master-key-0123456789ab"

#: Seconds one calibration slice took on the reference machine (the
#: container the benchmark was written on, when its host was quiet).
CALIBRATION_REFERENCE_S = 0.014
_MODULUS = (1 << 383) + 1351


def calibration_slice() -> float:
    """Seconds for a fixed slice of interpreter work: small-integer
    arithmetic, dict and list traffic, and 384-bit modular powers, the
    mix the program spends its time on.  The garbage collector is held
    off, so the time does not depend on how many objects the run holds."""
    gc.disable()
    try:
        start = perf_counter()
        acc, table, items = 0, {}, []
        for i in range(12_000):
            acc += i * i % 7
            table[i & 511] = acc
            items.append((i, acc))
        items.sort(key=lambda pair: -pair[1])
        for exponent in range(3, 23):
            acc ^= pow(0xC0FFEE + exponent, _MODULUS - exponent, _MODULUS)
        return perf_counter() - start
    finally:
        gc.enable()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """Linear-interpolated 90th percentile, as ``statistics.quantiles``
    gives it."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def geomean(values) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


class Ops:
    """Attempted and failed operations, per operation type."""

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def attempt(self, kind: str, fn):
        """Run one operation; a raised error counts it as failed and
        returns ``None``."""
        entry = self.counts.setdefault(kind, [0, 0])
        entry[0] += 1
        try:
            return fn()
        except Exception as exc:  # Every failure is counted, none stops the run.
            entry[1] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


class Checks:
    """Every output check made in a run, and the ones that failed."""

    def __init__(self) -> None:
        self.made = 0
        self.failed = 0
        self.failures: list[str] = []  # The first 50.

    def expect(self, ok: bool, what: str) -> None:
        self.made += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)

    def rows(self, what: str, actual, expected, spec=((), None), unlimited=None) -> None:
        order, limit = spec
        reason = check_result(actual, expected, order, limit, unlimited)
        self.expect(reason is None, f"{what}: {reason}")


def result_spec(sql) -> tuple[list[tuple[int, bool]], int | None]:
    """ORDER BY keys as (output position, descending), and the LIMIT.

    Keys are taken up to the first one that is not an output column; the
    ones after it only break ties the checker already allows."""
    from repro.sql import ast, parse, to_sql

    query = parse(sql) if isinstance(sql, str) else sql
    names = [item.output_name(i) for i, item in enumerate(query.items)]
    texts = [to_sql(item.expr) for item in query.items]
    order = []
    for item in query.order_by:
        expr = item.expr
        if isinstance(expr, ast.Column) and expr.table is None and expr.name in names:
            position = names.index(expr.name)
        elif to_sql(expr) in texts:
            position = texts.index(to_sql(expr))
        else:
            break
        order.append((position, not item.ascending))
    return order, query.limit


class PlainEngine:
    """The program's plaintext engine over a separate copy of the data:
    the reference answer for every SELECT and the denominator of the
    slowdown."""

    def __init__(self, db) -> None:
        from repro.engine import Executor

        self.db = db
        self.executor = Executor(db)

    def answer(self, sql, params=None):
        """(rows, seconds, rows without the LIMIT or ``None``)."""
        from repro.core import normalize_query
        from repro.sql import parse

        start = perf_counter()
        query = normalize_query(parse(sql) if isinstance(sql, str) else sql, params)
        rows = self.executor.execute(query).rows
        seconds = perf_counter() - start
        unlimited = None
        if query.limit is not None:
            unlimited = self.executor.execute(
                dataclasses.replace(query, limit=None)
            ).rows
        return rows, seconds, unlimited


@dataclass
class Statement:
    """One executed statement of the timed phase."""

    stmt_id: int
    kind: str  # select / insert / update / delete
    key: str  # query number, template or write type
    seconds: float
    traced: bool
    transfer_bytes: int = 0
    est_transfer_bytes: float = 0.0
    round_trips: int = 0
    bytes_scanned: int = 0
    candidates: int = 0
    rows: int = 0  # Rows returned, or rows affected by a write.
    round_index: int = 0


def statement_from(outcome, kind: str, key: str, seconds: float, round_, stmt_id: int):
    """The statement's figures; ``round_`` is its round's (index, traced)."""
    round_index, traced = round_
    ledger = outcome.ledger
    planned = outcome.planned
    return Statement(
        stmt_id,
        kind,
        key,
        seconds,
        traced,
        transfer_bytes=ledger.transfer_bytes,
        est_transfer_bytes=planned.cost.transfer_bytes if planned is not None else 0.0,
        round_trips=ledger.round_trips,
        bytes_scanned=ledger.server_bytes_scanned,
        candidates=planned.candidates_tried if planned is not None else 0,
        rows=len(outcome.rows) if kind == "select" else outcome.rows[0][0],
        round_index=round_index,
    )


@dataclass
class Run:
    """What one workload run measured."""

    setup_seconds: list[float] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    plain_seconds: dict[str, list[float]] = field(default_factory=dict)
    busy_seconds: float = 0.0
    rounds: int = 0
    space_overhead: float = 0.0
    server_bytes: int = 0
    ops: Ops = field(default_factory=Ops)
    checks: Checks = field(default_factory=Checks)
    info: dict = field(default_factory=dict)
    layer_extra: dict = field(default_factory=dict)
    calibration: dict[str, list[float]] = field(
        default_factory=lambda: {"setup": [], "timed": []}
    )
    _statement_ids: itertools.count = field(default_factory=lambda: itertools.count(1))

    def next_statement_id(self) -> int:
        return next(self._statement_ids)

    def calibrate(self, phase: str, slices: int = 1) -> None:
        """Measure the machine's current speed around a setup or between
        statements of the timed phase (see ``speed_factor``)."""
        for _ in range(slices):
            self.calibration[phase].append(calibration_slice())

    def speed_factor(self, phase: str) -> float:
        """Reference seconds per measured second during ``phase``.

        The benchmark shares its host with other work, and the host's
        speed drifts by tens of percent over minutes.  Times are reported
        scaled to the reference machine: multiplied by this factor, the
        ratio of the reference calibration time to the median of the
        calibration slices taken in that phase."""
        return CALIBRATION_REFERENCE_S / median(self.calibration[phase])

    def add_plain(self, key: str, seconds: float) -> None:
        self.plain_seconds.setdefault(key, []).append(seconds)

    def untraced(self, kind: str | None = None) -> list[Statement]:
        return [
            s
            for s in self.statements
            if not s.traced and (kind is None or s.kind == kind)
        ]

    def per_key(self) -> dict[str, dict]:
        """Per query or template: untraced samples, median encrypted and
        plaintext milliseconds, and their ratio."""
        by_key: dict[str, list[float]] = {}
        for s in self.untraced("select"):
            by_key.setdefault(s.key, []).append(s.seconds)
        out = {}
        for key, times in sorted(by_key.items()):
            plain = median(self.plain_seconds.get(key, []))
            out[key] = {
                "samples": len(times),
                "encrypted_ms": median(times) * 1e3,
                "plaintext_ms": plain * 1e3,
                "slowdown": median(times) / plain if plain else 0.0,
            }
        return out

    def end_to_end(self, peak_rss: float, scaled: bool = True) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics; ``scaled`` times are multiplied by the
        speed factor of the phase they were taken in."""
        setup = self.speed_factor("setup") if scaled else 1.0
        factor = self.speed_factor("timed") if scaled else 1.0
        selects = [s.seconds * factor for s in self.untraced("select")]
        slowdowns = [entry["slowdown"] for entry in self.per_key().values()]
        return {
            "setup_s": (median(self.setup_seconds) * setup, "s"),
            "select_p50_ms": (median(selects) * 1e3, "ms"),
            "select_p90_ms": (p90(selects) * 1e3, "ms"),
            "statements_per_s": (
                len(self.untraced()) / (self.busy_seconds * factor) if self.busy_seconds else 0.0,
                "1/s",
            ),
            "slowdown_geomean": (geomean(slowdowns), "x"),
            "server_bytes_per_plain_byte": (self.space_overhead, "x"),
            "peak_rss_mb": (peak_rss, "MB"),
        }

    def write_latencies(self) -> dict[str, float]:
        """Median write latency per write type, scaled (sales-htap only)."""
        out = {}
        for kind in ("insert", "update", "delete"):
            times = [s.seconds for s in self.untraced(kind)]
            if times:
                out[f"{kind}_p50_ms"] = median(times) * 1e3 * self.speed_factor("timed")
        return out

"""Per-layer figures of a traced run.

Setup figures are per setup (the mean when a run sets up more than
once).  Statement figures are means over the traced statements: means
add up to the mean statement latency, while medians of layer times do
not, and read exactly 0 for a layer that half the statements skip.
"""

from __future__ import annotations

from common import geomean, mean, median
from tracing import END, NAME, PARENT, START, STMT, layer_times

#: The per-layer metrics every workload reports (BENCHMARK.json
#: ``per_layer``).  Workload-specific ones go to the run record only.
PER_LAYER = {
    "designer.design_s": "s",
    "designer.profile_s": "s",
    "designer.ilp_s": "s",
    "designer.stats_max_calls": "count",
    "designer.peak_rss_mb": "MB",
    "loader.load_s": "s",
    "encrypt.det_s": "s",
    "encrypt.ope_s": "s",
    "encrypt.hom_s": "s",
    "server.bytes_stored": "bytes",
    "sql.parse_ms": "ms",
    "normalize.ms": "ms",
    "planner.plan_ms": "ms",
    "planner.candidates": "count",
    "planner.transfer_qerror": "x",
    "pexec.self_ms": "ms",
    "pexec.round_trips": "count",
    "server.execute_ms": "ms",
    "server.bytes_scanned": "bytes",
    "net.transfer_bytes": "bytes",
    "decrypt.det_ms": "ms",
    "decrypt.hom_ms": "ms",
    "decrypt.det_values": "count",
    "decrypt.hom_values": "count",
    "encdata.value_cache_hit_ratio": "ratio",
    "encdata.pivot_cache_hit_ratio": "ratio",
    "engine.residual_ms": "ms",
    "engine.plaintext_ms": "ms",
    "service.fast_rebind_ratio": "ratio",
    "dml.rows_examined_per_row_affected": "ratio",
    "dml.transfer_bytes": "bytes",
    "dml.hom_patches": "count",
    "trace.overhead_ratio": "x",
}

VALUE_CACHES = ("det_encrypt", "ope_encrypt", "ope_decrypt")
PIVOT_CACHES = ("ope_pivots_int", "ope_pivots_date", "ope_pivots_text")


def _under(spans, by_id, name: str, ancestor: str) -> float:
    """Seconds in spans called ``name`` that run below an ``ancestor`` span."""
    total = 0.0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = by_id.get(span[PARENT])
        while parent is not None and parent[NAME] != ancestor:
            parent = by_id.get(parent[PARENT])
        if parent is not None:
            total += span[END] - span[START]
    return total


def _cache_ratio(windows, names) -> tuple[float, int]:
    """Hit ratio of the named caches over the timed phases, and its base."""
    hits = sum(after[n].hits - before[n].hits for before, after in windows for n in names)
    misses = sum(
        after[n].misses - before[n].misses for before, after in windows for n in names
    )
    base = hits + misses
    return (hits / base if base else 0.0), base


def per_layer(bench) -> tuple[dict, dict]:
    """(the PER_LAYER metrics, workload-specific metrics and bases)."""
    run, tracer = bench.run, bench.tracer
    in_setup = [
        any(lo <= span[START] <= hi for lo, hi in bench.setup_windows)
        for span in tracer.spans
    ]
    setup_spans = [span for span, inside in zip(tracer.spans, in_setup) if inside]
    timed_spans = [span for span, inside in zip(tracer.spans, in_setup) if not inside]
    setups = max(1, len(run.setup_seconds))
    setup = layer_times(setup_spans).get(None, {})
    by_id = {span[0]: span for span in setup_spans}
    out: dict[str, float] = {
        "designer.design_s": setup.get("incl:designer", 0.0) / setups,
        "designer.profile_s": setup.get("incl:designer.profile", 0.0) / setups,
        "designer.ilp_s": setup.get("incl:designer.ilp", 0.0) / setups,
        "designer.stats_max_calls": bench.setup_counters.get("designer.stats_max_calls", 0)
        / setups,
        "designer.peak_rss_mb": tracer.marks.get("designer.peak_rss_mb", 0.0),
        "loader.load_s": setup.get("incl:loader", 0.0) / setups,
        "server.bytes_stored": run.server_bytes,
    }
    extra: dict[str, float] = {}
    for scheme in ("det", "ope", "rnd", "search", "hom"):
        seconds = _under(setup_spans, by_id, f"encrypt.{scheme}", "loader") / setups
        (out if f"encrypt.{scheme}_s" in PER_LAYER else extra)[f"encrypt.{scheme}_s"] = seconds

    per_stmt = layer_times(timed_spans)
    traced = [s for s in run.statements if s.traced]
    selects = [s for s in traced if s.kind == "select"]
    all_selects = [s for s in run.statements if s.kind == "select"]

    def per_select(key: str, scale: float = 1e3) -> float:
        return mean([per_stmt.get(s.stmt_id, {}).get(key, 0.0) for s in selects]) * scale

    # Spans with no statement after setup ran on the TCP server's threads.
    remote = layer_times([s for s in timed_spans if s[STMT] is None]).get(None, {})
    remote_server_ms = remote.get("incl:server", 0.0) / max(1, len(selects)) * 1e3
    client_server_ms = per_select("incl:server")
    over_tcp = bool(remote_server_ms) and not client_server_ms
    out.update(
        {
            "sql.parse_ms": per_select("incl:sql.parse"),
            "normalize.ms": per_select("incl:normalize"),
            "planner.plan_ms": per_select("incl:planner"),
            "planner.candidates": mean([s.candidates for s in all_selects]),
            "planner.transfer_qerror": geomean(
                [
                    max(s.est_transfer_bytes, 1) / max(s.transfer_bytes, 1)
                    if s.est_transfer_bytes > s.transfer_bytes
                    else max(s.transfer_bytes, 1) / max(s.est_transfer_bytes, 1)
                    for s in all_selects
                ]
            ),
            "pexec.self_ms": per_select("self:pexec"),
            "pexec.round_trips": mean([s.round_trips for s in all_selects]),
            "server.execute_ms": remote_server_ms if over_tcp else client_server_ms,
            "server.bytes_scanned": mean([s.bytes_scanned for s in all_selects]),
            "net.transfer_bytes": mean([s.transfer_bytes for s in all_selects]),
            "engine.residual_ms": per_select("self:engine.residual"),
            "engine.plaintext_ms": mean(
                [median(run.plain_seconds.get(s.key, [0.0])) for s in selects]
            )
            * 1e3,
        }
    )
    for scheme in ("det", "ope", "rnd", "hom"):
        for metric, key, scale in (
            (f"decrypt.{scheme}_ms", f"incl:decrypt.{scheme}", 1e3),
            (f"decrypt.{scheme}_values", f"values:decrypt.{scheme}", 1),
        ):
            (out if metric in PER_LAYER else extra)[metric] = per_select(key, scale)
    if over_tcp:
        extra["net.wire_ms"] = per_select("incl:net.client") - remote_server_ms
        extra["service.wait_ms"] = mean(
            [
                s.seconds * 1e3
                - (
                    per_stmt.get(s.stmt_id, {}).get("incl:planner", 0.0)
                    + per_stmt.get(s.stmt_id, {}).get("incl:pexec", 0.0)
                )
                * 1e3
                for s in selects
            ]
        )

    value_ratio, value_base = _cache_ratio(bench.cache_windows, VALUE_CACHES)
    pivot_ratio, pivot_base = _cache_ratio(bench.cache_windows, PIVOT_CACHES)
    out["encdata.value_cache_hit_ratio"] = value_ratio
    out["encdata.pivot_cache_hit_ratio"] = pivot_ratio
    extra["encdata.value_cache_lookups"] = value_base
    extra["encdata.pivot_cache_lookups"] = pivot_base
    last = bench.cache_windows[-1][1]
    extra["encdata.value_cache_entries"] = sum(last[n].entries for n in VALUE_CACHES)
    extra["encdata.value_cache_capacity"] = sum(last[n].capacity for n in VALUE_CACHES)

    # Write path.
    writes = [s for s in traced if s.kind != "select"]
    changed = [s for s in writes if s.kind in ("update", "delete")]
    examined = sum(per_stmt.get(s.stmt_id, {}).get("values:server", 0) for s in changed)
    affected = sum(s.rows for s in changed)
    out["dml.rows_examined_per_row_affected"] = examined / affected if affected else 0.0
    out["dml.transfer_bytes"] = mean([s.transfer_bytes for s in writes])
    out["dml.hom_patches"] = mean(
        [per_stmt.get(s.stmt_id, {}).get("calls:server.hom_apply", 0) for s in writes]
    )
    if writes:
        extra["dml.rows_examined"] = examined
        extra["dml.rows_affected"] = affected
        for kind in ("insert", "update", "delete"):
            extra[f"dml.{kind}_ms"] = mean(
                [per_stmt.get(s.stmt_id, {}).get("incl:dml", 0.0) * 1e3 for s in writes if s.kind == kind]
            )
        extra["planner.refresh_ms"] = mean(
            [
                (
                    s.seconds
                    - sum(
                        per_stmt.get(s.stmt_id, {}).get(f"incl:{layer}", 0.0)
                        for layer in ("dml", "sql.parse", "normalize")
                    )
                )
                * 1e3
                for s in writes
            ]
        )
    extra.update({name: value for name, (value, _unit) in run.layer_extra.items()})
    # Prepared executions exist only on ssb-prepared-tcp; elsewhere the
    # ratio has base 0 and reads 0.
    out["service.fast_rebind_ratio"] = extra.pop("service.fast_rebind_ratio", 0.0)

    # Tracing overhead: traced against untraced rounds of the same run.
    # The first round (traced) starts on cold caches and is left out.
    warm = [s for s in run.statements if s.round_index > 0]
    ratios = []
    for key in sorted({(s.kind, s.key) for s in warm}):
        on = [s.seconds for s in warm if s.traced and (s.kind, s.key) == key]
        off = [s.seconds for s in warm if not s.traced and (s.kind, s.key) == key]
        if on and off:
            ratios.append(median(on) / median(off))
    out["trace.overhead_ratio"] = geomean(ratios)
    extra["trace.spans"] = len(tracer.spans)
    extra["trace.traced_statements"] = len(traced)
    extra["trace.untraced_statements"] = len(run.statements) - len(traced)
    return out, extra

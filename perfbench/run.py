"""The benchmark of the encrypted query path.

    python3 perfbench/run.py --workload tpch-adhoc --seed 1 --seconds 15 --trace 0

Runs one workload from this process, checks every output, and prints
each end-to-end metric (``--trace 0``) or each per-layer metric
(``--trace 1``) by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (and, when traced, the spans) is written to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import threading
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "tpch-adhoc": "wl_tpch",
    "ssb-prepared-tcp": "wl_ssb",
    "sales-htap": "wl_sales",
}


class Bench:
    """One run: its settings, its measurements, and its tracer."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        from common import Run
        from tracing import Tracer

        self.seed = seed
        self.seconds = seconds
        self.run = Run()
        self.tracer = Tracer() if trace else None
        self.setup_windows: list[tuple[float, float]] = []
        self.setup_counters: dict[str, int] = {}
        self.cache_windows: list[tuple[dict, dict]] = []
        if self.tracer is not None:
            self.tracer.install()

    def begin_setup(self) -> None:
        """Start one setup (traced in a traced run)."""
        self.run.calibrate("setup", 3)
        if self.tracer is not None:
            self._counters_before = dict(self.tracer.counters)
            self.tracer.attach()
            self.tracer.enabled = True
        self._setup_start = perf_counter()

    def after_setup(self, client) -> None:
        end = perf_counter()
        self.run.setup_seconds.append(end - self._setup_start)
        self.setup_windows.append((self._setup_start, end))
        self.run.space_overhead = client.space_overhead()
        self.run.server_bytes = client.server_bytes()
        self.run.info.setdefault("design_fingerprints", []).append(
            client.design.fingerprint()
        )
        if self.tracer is not None:
            self.tracer.enabled = False
            for name, count in self.tracer.counters.items():
                delta = count - self._counters_before.get(name, 0)
                self.setup_counters[name] = self.setup_counters.get(name, 0) + delta
        self.run.calibrate("setup", 3)

    def begin_statement(self, stmt_id: int):
        if self.tracer is None:
            return None
        return self.tracer.begin("stmt", stmt_id)

    def end_statement(self, opened) -> None:
        if opened is not None:
            self.tracer.end(opened)

    def untraced(self, fn):
        """Run benchmark-side work (reference answers) outside the trace."""
        if self.tracer is None:
            return fn()
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            return fn()
        finally:
            self.tracer.enabled = enabled

    def _start_round(self, index: int) -> tuple[int, bool]:
        """(index, traced) of a new round.  Traced runs alternate traced
        and untraced rounds, starting traced, so the tracing overhead is
        measured within one run; untraced rounds run with the wrappers
        taken out."""
        traced = self.tracer is not None and index % 2 == 0
        if self.tracer is not None:
            if traced:
                self.tracer.attach()
                self.tracer.enabled = True
            else:
                self.tracer.enabled = False
                self.tracer.detach()
        return index, traced

    def timed_rounds(
        self,
        one_round,
        min_rounds: int,
        provider,
        sessions: int = 1,
        max_rounds: int = 0,
        seconds: float | None = None,
        between_rounds=None,
    ) -> None:
        """Closed loop: whole rounds until ``seconds`` have passed (and at
        least ``min_rounds`` ran).  ``one_round`` gets the round's (index,
        traced); with several sessions each runs ``one_round(session,
        round_)`` on its own thread, and a round ends when all of them
        finish it.  ``seconds`` defaults to the run's.  With several
        sessions, ``between_rounds`` (benchmark-side work) runs after
        each round on one thread, and its time is left out of the phase's
        busy time."""
        if seconds is None:
            seconds = self.seconds
        cache_before = provider.cache_stats()
        start = perf_counter()
        rounds = 0
        harness = 0.0
        if sessions == 1:
            while True:
                one_round(self._start_round(rounds))
                self.run.calibrate("timed", 2)
                rounds += 1
                if max_rounds and rounds >= max_rounds:
                    self.run.info["stopped_at_insert_headroom"] = True
                    break
                if rounds >= min_rounds and perf_counter() - start >= seconds:
                    break
        else:
            state = {"round": self._start_round(0), "stop": False, "error": None}

            def round_done() -> None:
                nonlocal rounds, harness
                t0 = perf_counter()
                if between_rounds is not None:
                    self.untraced(between_rounds)
                self.run.calibrate("timed", 2)
                harness += perf_counter() - t0
                rounds += 1
                if rounds >= min_rounds and perf_counter() - start >= seconds:
                    state["stop"] = True
                else:
                    state["round"] = self._start_round(rounds)

            barrier = threading.Barrier(sessions, action=round_done)

            def session(index: int) -> None:
                try:
                    while not state["stop"]:
                        one_round(index, state["round"])
                        barrier.wait()
                except threading.BrokenBarrierError:
                    pass
                except BaseException as exc:  # Surface it after the join.
                    state["error"] = exc
                    barrier.abort()

            threads = [
                threading.Thread(target=session, args=(i,), name=f"bench-session-{i}")
                for i in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if state["error"] is not None:
                raise state["error"]
            self.run.busy_seconds += perf_counter() - start - harness
        self.run.rounds += rounds
        self.run.info["timed_seconds"] = (
            self.run.info.get("timed_seconds", 0.0) + perf_counter() - start
        )
        if self.tracer is not None:
            self.tracer.enabled = False
        self.cache_windows.append((cache_before, provider.cache_stats()))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Every MONOMI_* knob stays at its default: the run measures the
    # program as shipped, not whatever the calling shell exported.
    for name in [n for n in os.environ if n.startswith("MONOMI_")]:
        del os.environ[name]

    from common import PAILLIER_BITS
    from tracing import peak_rss_mb

    bench = Bench(args.seed, args.seconds, bool(args.trace))
    importlib.import_module(WORKLOADS[args.workload]).run(bench)
    run = bench.run

    if args.trace:
        from layers import PER_LAYER, per_layer

        values, extra = per_layer(bench)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = run.end_to_end(peak_rss_mb())
        extra = run.write_latencies()
        extra["speed_factor.setup"] = run.speed_factor("setup")
        extra["speed_factor.timed"] = run.speed_factor("timed")
        unscaled = run.end_to_end(0.0, scaled=False)
        for name in ("setup_s", "select_p50_ms", "select_p90_ms", "statements_per_s"):
            extra[f"unscaled.{name}"] = unscaled[name][0]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "paillier_bits": PAILLIER_BITS,
        **run.info,
        "rounds": run.rounds,
        "ops": {kind: {"attempted": a, "failed": f} for kind, (a, f) in run.ops.counts.items()},
        "errors": run.ops.errors,
        "checks": run.checks.made,
        "checks_failed": run.checks.failed,
        "check_failures": run.checks.failures,
        "setup_seconds": run.setup_seconds,
        "per_statement": run.per_key(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "extra": extra,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if bench.tracer is not None:
        bench.tracer.detach()
        bench.tracer.dump(results / f"{stem}-spans.json")

    print(
        f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
        f"designs {' '.join(fp[:12] for fp in run.info.get('design_fingerprints', []))}, "
        f"{run.checks.made} checks, {run.checks.failed} failed"
    )
    for kind, (attempted, failed) in run.ops.counts.items():
        print(f"  ops {kind}: attempted {attempted}, failed {failed}")
    for line in run.ops.errors + run.checks.failures:
        print(f"  ! {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"  ({name} = {value:.6g})" if isinstance(value, float) else f"  ({name} = {value})")
    # An operation type none of whose operations succeeded had no output
    # to check (every SELECT raising leaves only setup-time checks).
    checked = run.checks.made > 0 and all(a > f for a, f in run.ops.counts.values())
    result = {
        "correct": checked and run.checks.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

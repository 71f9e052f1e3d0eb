"""paper-cold: the paper's method, one closed-loop caller in-process.

An OIF over Zipf(0.8) records, |I| = 2000, with the paper's 32 KB buffer
pool, emptied (with the decoded-block cache) before every query, so the
index is far larger than the cache.  The queries are the paper's grid:
subset, equality and superset at |qs| in {2, 4, 8}, each answered by at
least one record.  Queries run in slices of ``SLICE``; the reference kernel
runs between slices, and each slice's timings are scaled by its host factor.

The untraced run drives ``OrderedInvertedFile.measured_execute``.  The traced
run drives ``OrderedInvertedFile.execute`` and drains the cursor under the
benchmark's own timers, alternating traced and untraced slices, so the
tracing overhead is measured in one process.
"""

from __future__ import annotations

import os
import random
import time

from common import TRACE_STAGES, QueryTally, quantile, ratio, tree_peak_rss_mb
from inputs import paper_grid, user_bytes, zipf_transactions
from oracle import Oracle, to_expr

RECORDS = {"full": 20_000, "tiny": 1_500}
PER_CELL = {"full": 300, "tiny": 4}
SETUPS = 3
SLICE = 20
WARMUP = 30


def run(args, report, speed) -> None:
    from repro import Dataset, OrderedInvertedFile
    from repro.obs import trace
    from repro.storage import PAPER_CACHE_BYTES

    rng = random.Random(args.seed)
    transactions = zipf_transactions(rng, RECORDS[args.scale])
    pool = paper_grid(rng, transactions, PER_CELL[args.scale])
    exprs = [to_expr(spec) for spec in pool]
    oracle = Oracle(transactions)
    report.config.update(
        records=len(transactions),
        query_pool=len(pool),
        buffer_pool_bytes=PAPER_CACHE_BYTES,
        cache_regime="buffer pool and decoded-block cache emptied before every query",
        slice_queries=SLICE,
        setups=SETUPS,
    )

    # Set-up: build SETUPS times, each between two kernel timings.  The first
    # query of each build pays the planner's lazy statistics.
    setup_raw, setup_marks, first_plan_ms = [], [], []
    index = None
    for _ in range(SETUPS):
        index = None
        setup_marks.append(speed.mark())
        start = time.perf_counter()
        index = OrderedInvertedFile(Dataset.from_transactions(transactions))
        setup_raw.append(time.perf_counter() - start)
        speed.sample()
        index.drop_cache()
        start = time.perf_counter()
        cursor = index.execute(exprs[0])
        first_plan_ms.append((time.perf_counter() - start) * 1000.0)
        cursor.fetch_all()

    for position in range(WARMUP):
        index.drop_cache()
        index.measured_execute(exprs[position % len(exprs)])

    tally = QueryTally()
    if args.trace:
        trace.configure(enabled=True)
    try:
        layer = _measure(args, report, speed, index, pool, exprs, oracle, tally)
    finally:
        trace.disable()

    setup_scaled = [raw * speed.factor(mark) for raw, mark in zip(setup_raw, setup_marks)]
    report.put("setup_s", quantile(setup_scaled, 0.5), samples=SETUPS,
               raw=quantile(setup_raw, 0.5))
    report.put("build.s", quantile(setup_raw, 0.5), samples=SETUPS)
    report.put("planner.first_plan_ms", quantile(first_plan_ms, 0.5), samples=SETUPS)
    raw, scaled = layer["raw_ms"], tally.latency_ms
    for name, q in (("query_p50_ms", 0.5), ("query_p99_ms", 0.99)):
        report.put(name, quantile(scaled, q), samples=len(raw), raw=quantile(raw, q))
    report.put("query_qps", ratio(len(scaled), sum(scaled) / 1000.0), samples=len(raw),
               raw=ratio(len(raw), sum(raw) / 1000.0))
    report.put("stored_bytes_per_user_byte",
               index.index_size_bytes / user_bytes(transactions))
    report.put("rss_mb", tree_peak_rss_mb(os.getpid())[0])
    report.put("error_rate", ratio(report.failed, report.attempted), samples=report.attempted)
    tally.put_io(report, index.stats.disk_model)
    if args.trace:
        report.put("buffer_pool.hit_ratio", ratio(layer["hits"], layer["logical"]))
        report.put("planner.plan_ms.p50", quantile(layer["plan_ms"], 0.5),
                   samples=len(layer["plan_ms"]))
        report.put("cursor.fetch_ms.p50", quantile(layer["fetch_ms"], 0.5),
                   samples=len(layer["fetch_ms"]))
        tally.put_trace(report, TRACE_STAGES)


def _measure(args, report, speed, index, pool, exprs, oracle, tally) -> dict:
    """Run slices until the deadline; returns the traced run's layer timings."""
    from repro.obs import trace

    layer = {"raw_ms": [], "plan_ms": [], "fetch_ms": [], "logical": 0, "hits": 0}
    slices = []
    deadline = time.perf_counter() + args.seconds
    position = 0
    slice_number = 0
    mark = speed.mark()
    while time.perf_counter() < deadline:
        # The traced run alternates traced and untraced slices.
        traced = bool(args.trace) and slice_number % 2 == 1
        slice_number += 1
        rows = []
        for _ in range(SLICE):
            spec, expr = pool[position % len(pool)], exprs[position % len(exprs)]
            position += 1
            index.drop_cache()
            report.attempted += 1
            if args.trace:
                start = time.perf_counter()
                root = trace.begin("query") if traced else None
                cursor = index.execute(expr)
                planned = time.perf_counter()
                ids = cursor.fetch_all()
                done = time.perf_counter()
                tree = trace.finish(root)
                io = cursor.io_delta()
                rows.append(((done - start) * 1000.0, (planned - start) * 1000.0))
                if tree is not None:
                    tally.add_trace(tree)
                layer["logical"] += io.logical_reads
                layer["hits"] += io.cache_hits
                pages = io.page_reads
            else:
                start = time.perf_counter()
                io = index.measured_execute(expr)
                rows.append(((time.perf_counter() - start) * 1000.0, None))
                ids = io.record_ids
                pages = io.page_accesses
            tally.add_io(pages, io.random_reads, io.sequential_reads,
                         io.decoded_hits, io.decoded_misses)
            report.check(oracle.check(spec, report.tamper(ids)))
        slices.append((mark, traced, rows))
        mark = speed.mark()
    # Scale each slice once every kernel timing around it has been taken.
    for mark, traced, rows in slices:
        factor = speed.factor(mark)
        latencies = [latency * factor for latency, _ in rows]
        if traced:
            tally.traced_latency_ms.extend(latencies)
            continue
        tally.latency_ms.extend(latencies)
        layer["raw_ms"].extend(latency for latency, _ in rows)
        if args.trace:
            layer["plan_ms"].extend(plan * factor for _, plan in rows)
            layer["fetch_ms"].extend(latencies)
    return layer

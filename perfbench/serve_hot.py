"""serve-hot: one OIF behind a ``repro-oif serve`` process, two keep-alive clients.

The server runs with 2 worker threads and the default result cache; the
index's buffer pool (``POOL_BYTES``) holds the whole index, so cold I/O is
near zero.  Two ``ServiceClient`` connections run a closed loop (the client
is synchronous: every caller waits for its reply) over a fixed pool of point
and composite ``and``/``not``/``limit`` queries drawn with Zipf popularity.
The pool is sized so the result-cache hit ratio settles in ``HIT_BAND``.

Every metric is reported raw.  Today every reply waits on a delayed-ACK
timer, so host speed does not move the latency, and the set-up runs mostly
in the server process, which the reference kernel does not time; scaling
either widened its spread.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import time

from common import (
    ROOT, SRC, TRACE_STAGES, QueryTally, quantile, ratio, span_durations, tree_peak_rss_mb,
)
from inputs import PREDICATES, QueryMaker, user_bytes, zipf_cum_weights, zipf_transactions
from oracle import Oracle, to_expr

RECORDS = {"full": 5_000, "tiny": 800}
POOL = {"full": 800, "tiny": 60}
WARMUP = {"full": 120, "tiny": 10}
POPULARITY_ZIPF = 0.8
HIT_BAND = (0.55, 0.80)
CONNECTIONS = 2
SERVER_WORKERS = 2
POOL_BYTES = 64 << 20
SETUPS = 3
INDEX = "hot"


class Server:
    """A ``repro-oif serve`` subprocess; :meth:`stop` interrupts it and waits."""

    def __init__(self, traced: bool) -> None:
        command = [sys.executable, "-u", "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                   "--port", "0", "--workers", str(SERVER_WORKERS)]
        if traced:
            # Every other evaluated query is traced; the rest measure the overhead.
            command += ["--trace", "--trace-sample", "2"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.port = None
        for line in self.process.stdout:
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rstrip("/").rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("the server exited before it was ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _query_pool(rng: random.Random, transactions: list, size: int) -> list:
    """``size`` distinct point, composite and ``limit`` queries with small answers.

    Broad expressions (one or two items, whose answers run to thousands of
    ids) appear only under ``limit``, so reply size does not set the tail.
    """
    maker = QueryMaker(rng, transactions)
    pool, seen = [], set()
    while len(pool) < size:
        kind = rng.random()
        if kind < 0.4:
            predicate = rng.choice(PREDICATES)
            spec = maker.containment(predicate, rng.choice((3, 4) if predicate == "subset"
                                                           else (2, 3, 4)))
        elif kind < 0.7:
            spec = maker.composite(3)
        else:
            inner = (maker.composite(rng.choice((1, 2))) if rng.random() < 0.5
                     else maker.containment("subset", rng.choice((1, 2))))
            spec = ("limit", inner, rng.randint(1, 10))
        if spec not in seen:
            seen.add(spec)
            pool.append(spec)
    return pool


def run(args, report, speed) -> None:
    from repro.service import ServiceClient

    rng = random.Random(args.seed)
    transactions = zipf_transactions(rng, RECORDS[args.scale])
    pool = _query_pool(rng, transactions, POOL[args.scale])
    wires = [to_expr(spec).to_dict() for spec in pool]
    cum = zipf_cum_weights(len(pool), POPULARITY_ZIPF)
    draws = [rng.choices(range(len(pool)), cum_weights=cum, k=20_000)
             for _ in range(CONNECTIONS)]
    oracle = Oracle(transactions)
    wire_records = [sorted(items) for items in transactions]
    report.config.update(
        records=len(transactions),
        query_pool=len(pool),
        popularity_zipf=POPULARITY_ZIPF,
        connections=CONNECTIONS,
        server_workers=SERVER_WORKERS,
        buffer_pool_bytes=POOL_BYTES,
        result_cache_hit_band=HIT_BAND,
        warmup_requests=WARMUP[args.scale],
        setups=SETUPS,
    )

    setup_s, build_s = [], []
    server = None
    # Timed only to record the host's speed in the artifact; nothing is scaled.
    speed.sample()
    try:
        for attempt in range(SETUPS):
            start = time.perf_counter()
            server = Server(traced=bool(args.trace))
            with ServiceClient(port=server.port) as client:
                created = client.create_index(INDEX, transactions=wire_records,
                                              cache_bytes=POOL_BYTES)
            setup_s.append(time.perf_counter() - start)
            build_s.append(created["build_seconds"])
            if created["size_bytes"] > POOL_BYTES:
                raise RuntimeError("the buffer pool does not hold the whole index")
            if attempt < SETUPS - 1:
                server.stop()
                server = None
        rows, stats = _drive(args, report, server.port, wires, draws)
        rss_mb = tree_peak_rss_mb(server.process.pid)[0]
        speed.sample()
    finally:
        if server is not None:
            server.stop()

    _report(args, report, pool, oracle, rows, stats)
    report.put("setup_s", quantile(setup_s, 0.5), samples=SETUPS)
    report.put("build.s", quantile(build_s, 0.5), samples=SETUPS)
    report.put("stored_bytes_per_user_byte", created["size_bytes"] / user_bytes(transactions))
    report.put("rss_mb", rss_mb)


def _drive(args, report, port, wires, draws):
    """Warm up, then run both connections until the deadline."""
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    rows: list = []
    failures = [0]
    lock = threading.Lock()
    stop_at = [0.0]

    def connection(sequence, limit=None):
        client = ServiceClient(port=port, max_retries=0)
        mine = []
        try:
            for count, position in enumerate(itertools.cycle(sequence)):
                if (limit is not None and count >= limit) or (
                        limit is None and time.perf_counter() >= stop_at[0]):
                    break
                start = time.perf_counter()
                try:
                    reply = client.query_expr(INDEX, wires[position])
                except ServiceError:
                    with lock:
                        failures[0] += 1
                    continue
                mine.append((position, (time.perf_counter() - start) * 1000.0, reply))
        finally:
            client.close()
        with lock:
            rows.extend(mine)

    share = WARMUP[args.scale] // CONNECTIONS
    _run_threads(connection, [(draw[:share], share) for draw in draws])
    rows.clear()
    failures[0] = 0
    with ServiceClient(port=port) as client:
        before = client.stats()
        stop_at[0] = time.perf_counter() + args.seconds
        started = time.perf_counter()
        _run_threads(connection, [(draw[share:], None) for draw in draws])
        elapsed = time.perf_counter() - started
        after = client.stats()
    report.attempted += len(rows) + failures[0]
    report.failed += failures[0]
    return rows, {"before": before, "after": after, "elapsed": elapsed}


def _run_threads(target, arguments) -> None:
    threads = [threading.Thread(target=target, args=argument) for argument in arguments]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _report(args, report, pool, oracle, rows, stats) -> None:
    from repro.storage.stats import DiskModel

    tally = QueryTally()
    latency, server_ms, overhead, plan_ms = [], [], [], []
    logical_reads = traced_pages = 0
    for position, client_ms, reply in rows:
        report.check(oracle.check(pool[position], report.tamper(reply["record_ids"])))
        latency.append(client_ms)
        server_ms.append(reply["latency_ms"])
        overhead.append(client_ms - reply["latency_ms"])
        if reply["cached"] or reply["deduplicated"]:
            continue
        tally.add_io(reply["page_accesses"], reply["random_reads"], reply["sequential_reads"],
                     reply["decoded_hits"], reply["decoded_misses"])
        tree = reply.get("trace")
        if tree is None:
            tally.latency_ms.append(client_ms)
            continue
        tally.traced_latency_ms.append(client_ms)
        tally.add_trace(tree)
        plan_ms.extend(span_durations(tree, "plan"))
        traced_pages += reply["page_accesses"]

    count = len(latency)
    report.put("query_p50_ms", quantile(latency, 0.5), samples=count)
    report.put("query_p99_ms", quantile(latency, 0.99), samples=count)
    report.put("query_qps", count / stats["elapsed"], samples=count)
    report.put("error_rate", ratio(report.failed, report.attempted), samples=report.attempted)

    before, after = stats["before"], stats["after"]
    report.config["result_cache_entries"] = after["cache"]["capacity"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    queries = after["serving"]["queries"] - before["serving"]["queries"]
    dedup = after["serving"]["dedup_hits"] - before["serving"]["dedup_hits"]
    shed = sum(after["serving"]["shed"].values()) - sum(before["serving"]["shed"].values())
    hit_ratio = ratio(hits, hits + misses)
    report.config["result_cache_hit_ratio_in_band"] = HIT_BAND[0] <= hit_ratio <= HIT_BAND[1]
    report.put("result_cache.hit_ratio", hit_ratio, samples=hits + misses)
    report.put("result_cache.dedup_ratio", ratio(dedup, queries), samples=queries)
    report.put("admission.shed_frac", ratio(shed, report.attempted), samples=report.attempted)
    report.put("server.http_overhead_ms.p50", quantile(overhead, 0.5), samples=count)
    report.put("server.http_overhead_ms.p99", quantile(overhead, 0.99), samples=count)
    report.put("executor.server_ms.p50", quantile(server_ms, 0.5), samples=count)
    report.put("executor.server_ms.p99", quantile(server_ms, 0.99), samples=count)
    tally.put_io(report, DiskModel())
    if args.trace:
        logical_reads = tally.stage_calls.get("buffer_pool", 0)
        report.put("buffer_pool.hit_ratio",
                   1.0 - ratio(traced_pages, logical_reads) if logical_reads else 0.0,
                   samples=tally.traced)
        report.put("planner.plan_ms.p50", quantile(plan_ms, 0.5), samples=len(plan_ms))
        tally.put_trace(report, TRACE_STAGES)

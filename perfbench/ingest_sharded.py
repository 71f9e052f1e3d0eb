"""ingest-sharded: writes beside reads through the in-process service API.

A durable, 4-shard, hash-partitioned OIF on ``shard_backend="processes"``
with 2 workers, WAL ``fsync="always"``, driven through ``IndexManager`` and
``QueryExecutor`` (never HTTP, so no HTTP stall can mask the write and shard
path).  One writer thread inserts batches of ``BATCH`` records on a fixed
schedule of ``WRITE_RATE`` batches per second (an open loop: a write's
latency runs from when it was due, so a stall delays the writes behind it);
after every ``FLUSH_EVERY`` inserted records it calls ``flush``, and after
every ``CHECKPOINT_EVERY`` flushes ``checkpoint`` -- triggered by counts, never
by timers.  One reader thread runs queries against the pending deltas in a
closed loop.  A closed-loop writer would hold the write lock back to back and
starve the reader.

Both threads run in rounds of ``ROUND_SECONDS``; between rounds they idle
while the reference kernel runs.  After the run the manager closes without a
checkpoint, the index is reopened from disk with ``open_resident``, and every
acknowledged insert must be answered.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

from common import QueryTally, mean, quantile, ratio, tree_peak_rss_mb
from inputs import PREDICATES, QueryMaker, user_bytes, zipf_transactions
from oracle import Oracle, to_expr

BASE_RECORDS = {"full": 4_000, "tiny": 600}
INSERT_STREAM = {"full": 20_000, "tiny": 2_000}
REPEAT_EVERY = 4
REPEAT_LAG = 40
#: Query sizes of the reader's new queries, per predicate: small answers,
#: and enough distinct records that new queries do not run out.
FRESH_SIZES = {"subset": (3, 4), "equality": tuple(range(2, 9)), "superset": tuple(range(2, 7))}
BATCH = 1
WRITE_RATE = 60
FLUSH_EVERY = {"full": 300, "tiny": 40}
CHECKPOINT_EVERY = {"full": 2, "tiny": 2}
SHARDS = 4
SHARD_WORKERS = 2
FSYNC = "always"
ROUND_SECONDS = 1.0
REOPEN_QUERIES = 50
#: Acknowledged inserts checked per reopened query (an ``or`` of equalities).
REOPEN_CHUNK = 500
SETUPS = 3
INDEX = "ingest"


class Read(NamedTuple):
    """One query the reader ran."""

    round: int
    index: int
    elapsed_ms: float
    outcome: object
    #: Inserts acknowledged before the query started and handed in before it
    #: ended: the answer may reflect any prefix of the inserts between them.
    low: int
    high: int
    pending: int


class Rounds:
    """Runs worker loops in rounds; between rounds every worker idles.

    The main thread times the reference kernel while the workers wait at the
    barrier, so the kernel never competes with the program for a core.
    """

    def __init__(self, speed, workers: int) -> None:
        self.speed = speed
        self.number = -1
        self.active_s: list[float] = []
        #: The kernel timing taken before each round (see ``HostSpeed.factor``).
        self.marks: list[int] = []
        self.start = 0.0
        self.end: "float | None" = None
        #: Active seconds of the rounds already finished.
        self.active_before = 0.0
        self._barrier = threading.Barrier(workers + 1)
        self._error: "BaseException | None" = None

    def work(self, operation) -> None:
        """Worker body: run ``operation(round)`` until each round ends."""
        try:
            while True:
                self._barrier.wait()
                end = self.end
                if end is None:
                    return
                while time.perf_counter() < end:
                    operation(self.number)
                self._barrier.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException as error:
            self._error = error
            self._barrier.abort()

    def active_now(self) -> float:
        """Seconds of round time so far: the pauses between rounds do not count."""
        return self.active_before + (time.perf_counter() - self.start)

    def drive(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        mark = self.speed.mark()
        try:
            while time.perf_counter() < deadline:
                self.number += 1
                self.start = time.perf_counter()
                self.end = min(self.start + ROUND_SECONDS, deadline)
                self._barrier.wait()
                self._barrier.wait()
                self.active_s.append(time.perf_counter() - self.start)
                self.active_before += self.active_s[-1]
                self.marks.append(mark)
                mark = self.speed.mark()
            self.end = None
            self._barrier.wait()
        except threading.BrokenBarrierError:
            if self._error is not None:
                raise self._error
            raise
        except BaseException:
            self._barrier.abort()
            raise


class ReadStream:
    """The reader's queries, drawn on demand from the base records.

    Every ``REPEAT_EVERY``-th read repeats the one ``REPEAT_LAG`` reads earlier
    (a result-cache hit unless an insert invalidated it); every other read is
    a point query not asked before, with a small answer.
    """

    def __init__(self, rng: random.Random, transactions: list) -> None:
        self.rng = rng
        self.maker = QueryMaker(rng, transactions)
        self.pool: list = []
        self.exprs: list = []
        self.history: list[int] = []
        self.seen: set = set()

    def _fresh(self) -> tuple:
        """A point query not drawn before (the draws stop short of repeating one)."""
        for _ in range(100):
            predicate = self.rng.choice(PREDICATES)
            size = self.rng.choice(FRESH_SIZES[predicate])
            spec = self.maker.containment(predicate, size)
            if spec not in self.seen:
                break
        return spec

    def next(self) -> int:
        """Position in :attr:`pool` of the next query to read."""
        count = len(self.history)
        if count >= REPEAT_LAG and count % REPEAT_EVERY == REPEAT_EVERY - 1:
            index = self.history[count - REPEAT_LAG]
        else:
            index = len(self.pool)
            spec = self._fresh()
            self.seen.add(spec)
            self.pool.append(spec)
            self.exprs.append(to_expr(spec))
        self.history.append(index)
        return index


def _wal_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("wal.log"))


def _generation_files(directory: Path) -> dict:
    return {
        path: (stat.st_size, stat.st_mtime_ns)
        for path in directory.rglob("*")
        if path.is_file() and path.name != "wal.log"
        for stat in (path.stat(),)
    }


def _worker_rss_mb(children: list) -> list:
    """Peak RSS of the shard worker processes among ``children`` (pid, MiB)."""
    out = []
    for pid, rss in children:
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"spawn_main" in command:
            out.append(rss)
    return out


def run(args, report, speed) -> None:
    rng = random.Random(args.seed)
    base = zipf_transactions(rng, BASE_RECORDS[args.scale])
    stream = zipf_transactions(rng, INSERT_STREAM[args.scale])
    reads = ReadStream(random.Random(args.seed + 1), base)
    report.config.update(
        base_records=len(base),
        repeat_every_reads=REPEAT_EVERY,
        repeat_lag_reads=REPEAT_LAG,
        shards=SHARDS,
        strategy="hash",
        shard_backend="processes",
        shard_workers=SHARD_WORKERS,
        fsync=FSYNC,
        insert_batch_records=BATCH,
        write_batches_per_second=WRITE_RATE,
        flush_every_records=FLUSH_EVERY[args.scale],
        checkpoint_every_flushes=CHECKPOINT_EVERY[args.scale],
        round_seconds=ROUND_SECONDS,
        setups=SETUPS,
    )
    # The run's temporary directory (inside the checkout) holds the data dirs.
    _run(args, report, speed, Path(tempfile.mkdtemp(prefix="ingest-")), base, stream, reads)


def _setup(directory: Path, base):
    from repro import Dataset
    from repro.service import IndexManager, QueryExecutor, ResultCache

    start = time.perf_counter()
    manager = IndexManager(
        result_cache=ResultCache(),
        data_dir=str(directory),
        fsync=FSYNC,
        shard_backend="processes",
        shard_workers=SHARD_WORKERS,
    )
    created = time.perf_counter()
    entry = manager.create(INDEX, Dataset.from_transactions(base), kind="oif", shards=SHARDS)
    create_s = time.perf_counter() - created
    executor = QueryExecutor(manager, max_workers=2)
    return manager, executor, entry, time.perf_counter() - start, create_s


def _run(args, report, speed, scratch, base, stream, reads) -> None:
    from repro.obs import trace
    from repro.storage import PAPER_CACHE_BYTES

    setup_raw, setup_marks, build_s, attach_s = [], [], [], []
    manager = executor = None
    try:
        for attempt in range(SETUPS):
            directory = scratch / f"data-{attempt}"
            setup_marks.append(speed.mark())
            manager, executor, entry, elapsed, create_s = _setup(directory, base)
            setup_raw.append(elapsed)
            speed.sample()
            build_s.append(entry.build_seconds)
            attach_s.append(create_s - entry.build_seconds)
            if attempt < SETUPS - 1:
                executor.shutdown()
                manager.close(checkpoint=False)
                manager = executor = None
                shutil.rmtree(directory)
        if args.trace:
            # Every other evaluated query is traced; the rest measure the overhead.
            trace.configure(enabled=True, sample_every=2)
        try:
            state = _drive(args, report, speed, manager, executor, entry, directory,
                           stream, reads)
        finally:
            trace.disable()
        rss_mb, children = tree_peak_rss_mb(os.getpid())
        workers = _worker_rss_mb(children)
        stored_s = entry.index.index_size_bytes
        executor.shutdown()
        executor = None
        state["wal_bytes"] += _wal_bytes(directory)
        # A crash-like close: acknowledged inserts since the last checkpoint
        # live only in the WAL.
        manager.close(checkpoint=False)
        manager = None
    finally:
        if executor is not None:
            executor.shutdown()
        if manager is not None:
            manager.close(checkpoint=False)

    setup_scaled = [raw * speed.factor(mark) for raw, mark in zip(setup_raw, setup_marks)]
    report.put("setup_s", quantile(setup_scaled, 0.5), samples=SETUPS,
               raw=quantile(setup_raw, 0.5))
    report.put("build.s", quantile(build_s, 0.5), samples=SETUPS)
    report.put("procpool.attach_s", quantile(attach_s, 0.5), samples=SETUPS)
    report.config.update(
        result_cache_entries=state["cache"][1]["capacity"],
        buffer_pool_bytes_per_shard=PAPER_CACHE_BYTES,
    )
    report.put("rss_mb", rss_mb)
    report.put("procpool.worker_rss_mb", mean(workers), samples=len(workers))
    inserted = state["inserted"]
    flushed = base + [items for _, items in inserted[: state["flushed"]]]
    report.put("stored_bytes_per_user_byte", stored_s / user_bytes(flushed))
    inserted_bytes = user_bytes(items for _, items in inserted)
    report.put("durability.wal_bytes_per_user_byte", ratio(state["wal_bytes"], inserted_bytes))
    report.put("durability.generation_bytes_per_user_byte",
               ratio(state["generation_bytes"], inserted_bytes))
    report.put("written_bytes_per_user_byte",
               ratio(state["wal_bytes"] + state["generation_bytes"], inserted_bytes))
    start = time.perf_counter()
    report.config["queries_drawn"] = len(reads.pool)
    _check_reads(report, base, reads.pool, state)
    report.config["check_reads_s"] = time.perf_counter() - start
    start = time.perf_counter()
    _check_reopen(report, directory, base, reads.pool, inserted)
    report.config["check_reopen_s"] = time.perf_counter() - start
    _report(args, report, state, speed)


def _drive(args, report, speed, manager, executor, entry, directory, stream, reads):
    """Run the writer and the reader for ``args.seconds`` of rounds."""
    from repro.errors import ReproError

    flush_every = FLUSH_EVERY[args.scale]
    checkpoint_every = CHECKPOINT_EVERY[args.scale]
    state = {
        "issued": 0, "acked": 0, "inserted": [], "flushed": 0, "since_flush": 0,
        "writes": [], "reads": [], "flush_s": [], "checkpoint_s": [],
        "wal_bytes": 0, "generation_bytes": 0, "failed": 0, "attempted": 0,
    }
    lock = threading.Lock()
    cache = manager.result_cache
    cache_before = cache.stats()
    serving_before = executor.stats.as_dict()

    rounds = Rounds(speed, workers=2)
    sent = [0]

    def write(round_number: int) -> None:
        # Due times run on the rounds' active clock, so writes that a stall
        # delayed stay late across the pause that ends a round.
        due = sent[0] / WRITE_RATE
        wait = due - rounds.active_now()
        if wait > 0:
            time.sleep(min(wait, max(0.0, rounds.end - time.perf_counter())))
            if due > rounds.active_now():
                return
        sent[0] += 1
        # The stream repeats when exhausted; a repeated record gets a new id.
        issued = state["issued"]
        batch = [stream[(issued + offset) % len(stream)] for offset in range(BATCH)]
        state["issued"] = issued + BATCH
        try:
            ids = manager.insert(INDEX, batch)
        except ReproError:
            with lock:
                state["failed"] += 1
                state["attempted"] += 1
            return
        elapsed = (rounds.active_now() - due) * 1000.0
        state["inserted"].extend(zip(ids, batch))
        state["acked"] += len(batch)
        state["writes"].append((round_number, elapsed))
        with lock:
            state["attempted"] += 1
        state["since_flush"] += len(batch)
        if state["since_flush"] < flush_every:
            return
        state["since_flush"] = 0
        start = time.perf_counter()
        manager.flush(INDEX)
        state["flush_s"].append(time.perf_counter() - start)
        state["flushed"] = state["acked"]
        if len(state["flush_s"]) % checkpoint_every:
            return
        state["wal_bytes"] += _wal_bytes(directory)
        before = _generation_files(directory)
        start = time.perf_counter()
        manager.checkpoint(INDEX)
        state["checkpoint_s"].append(time.perf_counter() - start)
        state["generation_bytes"] += sum(
            size for path, (size, mtime) in _generation_files(directory).items()
            if before.get(path) != (size, mtime)
        )

    def read(round_number: int) -> None:
        index = reads.next()
        expr = reads.exprs[index]
        low = state["acked"]
        pending = entry.pending_updates
        start = time.perf_counter()
        try:
            outcome = executor.execute_expr(INDEX, expr)
        except ReproError:
            with lock:
                state["failed"] += 1
                state["attempted"] += 1
            return
        elapsed = (time.perf_counter() - start) * 1000.0
        state["reads"].append(
            Read(round_number, index, elapsed, outcome, low, state["issued"], pending))
        with lock:
            state["attempted"] += 1

    threads = [threading.Thread(target=rounds.work, args=(operation,))
               for operation in (write, read)]
    for thread in threads:
        thread.start()
    try:
        rounds.drive(args.seconds)
    finally:
        for thread in threads:
            thread.join()
    state["rounds"] = rounds
    state["cache"] = (cache_before, cache.stats())
    state["serving"] = (serving_before, executor.stats.as_dict())
    report.attempted += state["attempted"]
    report.failed += state["failed"]
    return state


def _check_reads(report, base, pool, state) -> None:
    """Each answer must equal the expected one over some prefix of the inserts.

    A query overlaps the writer, so it may see any prefix between the inserts
    acknowledged before it started and those handed in before it finished.
    Every predicate is decided per record and ids grow with insertion order,
    so the answer over a prefix is a prefix of the full answer's sorted ids.
    """
    inserted = state["inserted"]
    oracle = Oracle(base)
    oracle.add(inserted)
    boundaries = [len(base)] + [record_id for record_id, _ in inserted]
    ordered: dict = {}
    for read in state["reads"]:
        full = ordered.get(read.index)
        if full is None:
            full = ordered[read.index] = sorted(oracle.answer(pool[read.index]))
        returned = sorted(report.tamper(read.outcome.record_ids))
        settled = bisect.bisect_right(full, boundaries[min(read.low, len(inserted))])
        reachable = bisect.bisect_right(full, boundaries[min(read.high, len(inserted))])
        report.check(settled <= len(returned) <= reachable
                     and returned == full[: len(returned)])


def _check_reopen(report, directory, base, pool, inserted) -> None:
    """Reopen from disk: every acknowledged insert, and the first pool queries, must be answered."""
    from repro.core.query import Equality, Or
    from repro.service import IndexManager

    manager = IndexManager(data_dir=str(directory), fsync=FSYNC)
    try:
        manager.open_resident()
        entry = manager.get(INDEX)
        report.check(entry.num_records == len(base) + len(inserted))
        for first in range(0, len(inserted), REOPEN_CHUNK):
            chunk = inserted[first : first + REOPEN_CHUNK]
            found = set(entry.evaluate(Or(tuple(Equality(items) for _, items in chunk))))
            report.check(all(record_id in found for record_id, _ in chunk))
        oracle = Oracle(base)
        oracle.add(inserted)
        for spec in pool[:REOPEN_QUERIES]:
            report.check(oracle.check(spec, entry.evaluate(to_expr(spec))))
    finally:
        manager.close(checkpoint=False)


def _report(args, report, state, speed) -> None:
    from repro.storage.stats import DiskModel

    reads, writes, rounds = state["reads"], state["writes"], state["rounds"]
    factors = [speed.factor(mark) for mark in rounds.marks]
    read_ms = [read.elapsed_ms for read in reads]
    write_ms = [elapsed for _, elapsed in writes]
    read_scaled = [read.elapsed_ms * factors[read.round] for read in reads]
    write_scaled = [elapsed * factors[number] for number, elapsed in writes]
    for name, scaled, raw, q in (
        ("query_p50_ms", read_scaled, read_ms, 0.5),
        ("query_p99_ms", read_scaled, read_ms, 0.99),
        ("write_p50_ms", write_scaled, write_ms, 0.5),
        ("write_p99_ms", write_scaled, write_ms, 0.99),
    ):
        report.put(name, quantile(scaled, q), samples=len(raw), raw=quantile(raw, q))
    busy = sum(rounds.active_s)
    busy_scaled = sum(seconds * factor for seconds, factor in zip(rounds.active_s, factors))
    report.put("query_qps", ratio(len(reads), busy_scaled), samples=len(reads),
               raw=ratio(len(reads), busy))
    tally = QueryTally()
    report.put("error_rate", ratio(report.failed, report.attempted), samples=report.attempted)
    report.put("updates.flush_s", quantile(state["flush_s"], 0.5), samples=len(state["flush_s"]))
    report.put("durability.checkpoint_s", quantile(state["checkpoint_s"], 0.5),
               samples=len(state["checkpoint_s"]))
    report.put("updates.pending_deltas_mean", mean(read.pending for read in reads),
               samples=len(reads))

    server_ms, shards_read, stragglers = [], [], []
    for read in reads:
        outcome = read.outcome
        server_ms.append(outcome.latency_ms)
        if outcome.cached or outcome.deduplicated:
            continue
        tally.add_io(outcome.page_accesses, outcome.random_reads, outcome.sequential_reads,
                     outcome.decoded_hits, outcome.decoded_misses)
        stats = outcome.shard_stats or ()
        shards_read.append(sum(1 for stat in stats if stat.page_accesses > 0))
        times = [stat.elapsed_ms for stat in stats]
        if times and mean(times) > 0:
            stragglers.append(max(times) / mean(times))
        if outcome.trace is None:
            tally.latency_ms.append(read.elapsed_ms)
        else:
            tally.traced_latency_ms.append(read.elapsed_ms)
            tally.add_trace(outcome.trace)
    report.put("executor.server_ms.p50", quantile(server_ms, 0.5), samples=len(server_ms))
    report.put("executor.server_ms.p99", quantile(server_ms, 0.99), samples=len(server_ms))
    report.put("shard.shards_read_per_query", mean(shards_read), samples=len(shards_read))
    report.put("shard.straggler_ratio", quantile(stragglers, 0.5), samples=len(stragglers))
    tally.put_io(report, DiskModel())

    cache_before, cache_after = state["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    report.put("result_cache.hit_ratio", ratio(hits, hits + misses), samples=hits + misses)
    serving_before, serving_after = state["serving"]
    queries = serving_after["queries"] - serving_before["queries"]
    dedup = serving_after["dedup_hits"] - serving_before["dedup_hits"]
    shed = sum(serving_after["shed"].values()) - sum(serving_before["shed"].values())
    report.put("result_cache.dedup_ratio", ratio(dedup, queries), samples=queries)
    report.put("admission.shed_frac", ratio(shed, len(reads)), samples=len(reads))
    if args.trace:
        tally.put_trace(report)

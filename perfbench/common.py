"""Shared pieces of the benchmark: host-speed reference, statistics, memory, artifacts.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: The reference kernel's duration on the nominal host.  A CPU-bound timing
#: taken while the kernel ran in ``k`` ms is scaled by ``REFERENCE_KERNEL_MS /
#: k``, so the reported value is what the nominal host would have measured.
REFERENCE_KERNEL_MS = 10.0


class _Kernel:
    """The reference work: fixed pure-Python dict, sort, set and bytes work,
    then random lookups in a table larger than the CPU caches, so that
    contention for memory shows as well as a slower core."""

    def __init__(self) -> None:
        rng = random.Random(20110322)
        self.table = {rng.getrandbits(40): position for position in range(200_000)}
        keys = list(self.table)
        self.probes = [keys[rng.randrange(len(keys))] for _ in range(20_000)]

    @staticmethod
    def _compute() -> int:
        rng = random.Random(20110322)
        table = {}
        for position in range(6000):
            table[rng.getrandbits(32)] = position
        keys = sorted(table)
        common = set(keys[::2]) & set(keys[::3])
        packed = bytearray()
        for key in keys[:3000]:
            packed += key.to_bytes(4, "little")
        return len(common) + len(bytes(packed))

    def time_ms(self) -> float:
        # The collector is held off so the kernel times the host, not the
        # size of the program's heap.
        gc.disable()
        try:
            start = time.perf_counter()
            self._compute()
            sum(map(self.table.__getitem__, self.probes))
            return (time.perf_counter() - start) * 1000.0
        finally:
            gc.enable()


class HostSpeed:
    """Times the reference kernel between measured slices, while the program idles.

    The host's speed drifts between processes and within one (frequency
    scaling, neighbours on shared cores).  The kernel is timed between the
    run's measured slices, and a slice's CPU-bound timings are scaled by
    :meth:`factor`, from the kernel timings just before and after it.  Both
    the raw and the scaled values are kept in the run's artifact.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._kernel = _Kernel()

    def sample(self) -> float:
        elapsed_ms = self._kernel.time_ms()
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    def mark(self) -> int:
        """Sample and return its position: a slice runs between two marks."""
        self.sample()
        return len(self.samples_ms) - 1

    def factor(self, mark: int) -> float:
        """Scale for the slice between ``mark`` and the next sample."""
        return REFERENCE_KERNEL_MS / mean(self.samples_ms[mark : mark + 2])

    def describe(self) -> dict:
        return {
            "reference_kernel_nominal_ms": REFERENCE_KERNEL_MS,
            "reference_kernel_median_ms": quantile(self.samples_ms, 0.5),
            "reference_kernel_samples": len(self.samples_ms),
        }


# -- statistics -------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- memory -----------------------------------------------------------------------------


def descendants(pid: int) -> list[int]:
    found = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            pending.extend(children)
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> tuple[float, list[tuple[int, float]]]:
    """Summed peak RSS of ``pid`` and its live descendants, plus ``(pid, MiB)`` of each."""
    children = [(child, peak_rss_mb(child)) for child in descendants(pid)]
    return peak_rss_mb(pid) + sum(rss for _, rss in children), children


# -- processes --------------------------------------------------------------------------


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie left to another parent counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_descendants(timeout: float = 10.0) -> list[int]:
    """Stop every process this one started and wait until each has ended.

    The shard workers' ``multiprocessing`` resource tracker outlives them
    until its parent exits; it is stopped first, the way the standard library
    stops it.  Any other live descendant gets SIGTERM, and SIGKILL if it still
    runs after ``timeout`` seconds.  Returns the pids that had to be signalled.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    leftover = descendants(os.getpid())
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in leftover:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for pid in leftover:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            if not any(_alive(pid) for pid in leftover):
                return leftover
            time.sleep(0.05)
    return leftover


# -- provenance -------------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's sources: names a revision without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> "str | None":
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def fingerprint() -> dict:
    from repro.compression.postings import numpy_module

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "posting_backend": "numpy" if numpy_module() is not None else "python",
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def write_artifact(name: str, payload: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- traces -----------------------------------------------------------------------------

#: The hot-loop stages ``repro.obs.trace`` records on a query's spans.
TRACE_STAGES = ("buffer_pool", "decode", "intersect", "block_scan")


def add_stage_times(tree: dict, totals: dict, calls: dict) -> float:
    """Add the self time and call count of every stage in a rendered span tree.

    Returns the summed stage time, the part of the tree that stages cover.
    """
    covered = 0.0
    for name, stage in tree.get("stages", {}).items():
        totals[name] = totals.get(name, 0.0) + stage["total_ms"]
        calls[name] = calls.get(name, 0) + stage["count"]
        covered += stage["total_ms"]
    for child in tree.get("children", ()):
        covered += add_stage_times(child, totals, calls)
    return covered


def span_durations(tree: dict, name: str) -> list[float]:
    """Durations of every span called ``name`` in a rendered span tree."""
    found = [tree["duration_ms"]] if tree.get("name") == name else []
    for child in tree.get("children", ()):
        found.extend(span_durations(child, name))
    return found


@dataclass
class QueryTally:
    """What the queries of one run cost, summed over the queries that reached an index."""

    latency_ms: list = field(default_factory=list)
    traced_latency_ms: list = field(default_factory=list)
    queries: int = 0
    pages: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0
    stages: dict = field(default_factory=dict)
    stage_calls: dict = field(default_factory=dict)
    traced: int = 0
    root_ms: float = 0.0
    other_ms: float = 0.0

    def add_io(self, pages: int, random_reads: int, sequential_reads: int,
               decoded_hits: int, decoded_misses: int) -> None:
        self.queries += 1
        self.pages += pages
        self.random_reads += random_reads
        self.sequential_reads += sequential_reads
        self.decoded_hits += decoded_hits
        self.decoded_misses += decoded_misses

    def add_trace(self, tree: dict) -> None:
        covered = add_stage_times(tree, self.stages, self.stage_calls)
        self.traced += 1
        self.root_ms += tree["duration_ms"]
        # Parallel shard spans can cover more than the root's wall time.
        self.other_ms += max(0.0, tree["duration_ms"] - covered)

    def put_io(self, report, disk_model) -> None:
        """Page and simulated-I/O metrics per query that reached an index."""
        io_ms = disk_model.io_time_ms(self.random_reads, self.sequential_reads)
        report.put("pages_per_query", ratio(self.pages, self.queries), samples=self.queries)
        report.put("io_ms_per_query", ratio(io_ms, self.queries), samples=self.queries)
        report.put("buffer_pool.random_reads_per_query",
                   ratio(self.random_reads, self.queries), samples=self.queries)
        report.put("buffer_pool.sequential_reads_per_query",
                   ratio(self.sequential_reads, self.queries), samples=self.queries)
        report.put("block_cache.hit_ratio", ratio(
            self.decoded_hits, self.decoded_hits + self.decoded_misses), samples=self.queries)

    def put_trace(self, report, stages=()) -> None:
        """Stage self times, untraced remainder and tracing overhead."""
        for stage in stages:
            report.put(f"{stage}.self_ms_per_query",
                       ratio(self.stages.get(stage, 0.0), self.traced), samples=self.traced)
        report.put("trace.other_frac", ratio(self.other_ms, self.root_ms), samples=self.traced)
        report.put(
            "trace.overhead_frac",
            ratio(quantile(self.traced_latency_ms, 0.5), quantile(self.latency_ms, 0.5)) - 1.0,
            samples=self.traced,
        )

"""Where each metric applies, and the per-run report that collects them.

``BENCHMARK.json`` names the metrics and their units.  Every run prints every
metric of its kind (end-to-end untraced, per-layer traced); a per-layer
metric whose layer a workload never crosses reads 0 there, and the artifact
lists those under ``not_crossed``.
"""

from __future__ import annotations

import json

from common import ROOT

WORKLOADS = ("paper-cold", "serve-hot", "ingest-sharded")
_ALL = frozenset(WORKLOADS)
_COLD = frozenset({"paper-cold"})
_HOT = frozenset({"serve-hot"})
_INGEST = frozenset({"ingest-sharded"})

#: Per-layer metric -> the workloads that cross its layer.
PER_LAYER_SCOPE = {
    "server.http_overhead_ms.p50": _HOT,
    "server.http_overhead_ms.p99": _HOT,
    "executor.server_ms.p50": _HOT | _INGEST,
    "executor.server_ms.p99": _HOT | _INGEST,
    "admission.shed_frac": _HOT | _INGEST,
    "result_cache.hit_ratio": _HOT | _INGEST,
    "result_cache.dedup_ratio": _HOT | _INGEST,
    "updates.flush_s": _INGEST,
    "updates.pending_deltas_mean": _INGEST,
    "durability.checkpoint_s": _INGEST,
    "durability.wal_bytes_per_user_byte": _INGEST,
    "durability.generation_bytes_per_user_byte": _INGEST,
    "shard.shards_read_per_query": _INGEST,
    "shard.straggler_ratio": _INGEST,
    "procpool.attach_s": _INGEST,
    "procpool.worker_rss_mb": _INGEST,
    "build.s": _ALL,
    "planner.plan_ms.p50": _COLD | _HOT,
    "planner.first_plan_ms": _COLD,
    "cursor.fetch_ms.p50": _COLD,
    "buffer_pool.random_reads_per_query": _COLD | _INGEST,
    "buffer_pool.sequential_reads_per_query": _COLD | _INGEST,
    "buffer_pool.hit_ratio": _COLD | _HOT,
    "buffer_pool.self_ms_per_query": _COLD | _HOT,
    "block_cache.hit_ratio": _ALL,
    "decode.self_ms_per_query": _COLD | _HOT,
    "intersect.self_ms_per_query": _COLD | _HOT,
    "block_scan.self_ms_per_query": _COLD | _HOT,
    "trace.other_frac": _ALL,
    "trace.overhead_frac": _ALL,
    # User-visible, but not gated end to end: too noisy on ingest-sharded
    # (p99, qps), or not on every workload (the rest).
    "query_p99_ms": _ALL,
    "query_qps": _ALL,
    "pages_per_query": _COLD | _INGEST,
    "io_ms_per_query": _COLD | _INGEST,
    "write_p50_ms": _INGEST,
    "write_p99_ms": _INGEST,
    "written_bytes_per_user_byte": _INGEST,
    "error_rate": _ALL,
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Report:
    """Metrics, sample counts and correctness of one run."""

    def __init__(self, workload: str, corrupt: bool = False) -> None:
        self.workload = workload
        #: Metric name -> value, form ("raw", "host-normalized" or
        #: "not_crossed"), raw value and sample count where they apply.
        self.detail: dict[str, dict] = {}
        self.config: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong_answers = 0
        self.checked_answers = 0
        self._corrupt = corrupt

    def put(self, name: str, value: float, *, samples: "int | None" = None,
            raw: "float | None" = None) -> None:
        """Record one metric; ``raw`` marks ``value`` as host-normalized."""
        entry: dict = {"value": float(value), "form": "raw" if raw is None else "host-normalized"}
        if raw is not None:
            entry["raw"] = float(raw)
        if samples is not None:
            entry["samples"] = samples
        self.detail[name] = entry

    def check(self, ok: bool) -> None:
        self.checked_answers += 1
        if not ok:
            self.wrong_answers += 1

    def tamper(self, ids):
        """With ``--corrupt``, damage the first answer handed in (smoke test)."""
        if not self._corrupt:
            return ids
        self._corrupt = False
        ids = list(ids)
        return ids[1:] if ids else [10**9]

    @property
    def correct(self) -> bool:
        return self.wrong_answers == 0 and self.checked_answers > 0

    def emitted(self, names: list[str]) -> dict:
        """The result-line metrics for ``names``; fills 0 for layers not crossed."""
        out = {}
        for name in names:
            if name not in self.detail:
                scope = PER_LAYER_SCOPE.get(name)
                if scope is None or self.workload in scope:
                    raise RuntimeError(f"{self.workload} produced no value for {name!r}")
                self.detail[name] = {"value": 0.0, "form": "not_crossed"}
            out[name] = self.detail[name]["value"]
        return out

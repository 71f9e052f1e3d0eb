"""Sharding through the service stack: manager, executor, HTTP wire, CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import Dataset
from repro.core.query import Subset
from repro.core.updates import UpdatableShardedOIF
from repro.datasets.io import write_transactions
from repro.errors import ServiceError
from repro.service import (
    IndexManager,
    QueryExecutor,
    ResultCache,
    ServiceClient,
    ServiceServer,
)

TRANSACTIONS = [
    {"a", "b", "g"}, {"a", "e"}, {"a", "b", "e", "f"}, {"a", "b", "d"},
    {"a", "b", "c", "f"}, {"a", "c"}, {"d", "h"}, {"a", "b", "f"},
    {"b", "c"}, {"b", "g", "j"}, {"a", "b", "c"}, {"d", "i"},
    {"a"}, {"a", "d"}, {"a", "c", "j"}, {"c", "i"}, {"a", "c", "h"}, {"c", "d"},
] * 3


@pytest.fixture()
def dataset() -> Dataset:
    return Dataset.from_transactions(TRANSACTIONS)


class TestManagerSharding:
    def test_create_with_shards_builds_a_sharded_handle(self, dataset):
        manager = IndexManager()
        entry = manager.create("s", dataset, kind="oif", shards=3)
        assert isinstance(entry._handle, UpdatableShardedOIF)
        description = entry.describe()
        assert description["shards"] == 3
        assert sum(description["shard_records"]) == len(dataset)
        assert description["pending_per_shard"] == [0, 0, 0]
        assert description["records"] == len(dataset)

    def test_sharded_and_monolithic_entries_answer_identically(self, dataset):
        manager = IndexManager()
        manager.create("mono", dataset, kind="oif")
        manager.create("sharded", dataset, kind="oif", shards=4)
        expr = Subset(frozenset(["a", "b"]))
        mono_ids, _, mono_stats = manager.get("mono").measured_expr(expr)
        sharded_ids, delta, shard_stats = manager.get("sharded").measured_expr(expr)
        assert sharded_ids == mono_ids
        assert mono_stats is None
        assert shard_stats is not None
        assert delta.page_reads == sum(stat.page_accesses for stat in shard_stats)
        assert delta.random_reads + delta.sequential_reads == delta.page_reads
        assert sum(stat.matches for stat in shard_stats) == len(sharded_ids)

    def test_shards_option_is_validated(self, dataset):
        manager = IndexManager()
        with pytest.raises(ServiceError):
            manager.create("bad", dataset, kind="oif", shards=0)
        with pytest.raises(ServiceError):
            manager.create("bad", dataset, kind="oif", shards="four")
        with pytest.raises(ServiceError):
            manager.create("bad", dataset, kind="naive", shards=2)
        # Failed creates must release the name reservation.
        manager.create("bad", dataset, kind="oif", shards=2)

    def test_strategy_without_sharding_is_rejected(self, dataset):
        manager = IndexManager()
        with pytest.raises(ServiceError, match="strategy"):
            manager.create("bad", dataset, kind="oif", strategy="round_robin")
        with pytest.raises(ServiceError, match="strategy"):
            manager.create("bad", dataset, kind="oif", shards=1, strategy="hash")

    def test_shards_1_builds_the_monolithic_handle(self, dataset):
        manager = IndexManager()
        entry = manager.create("one", dataset, kind="oif", shards=1)
        assert not isinstance(entry._handle, UpdatableShardedOIF)
        assert "shards" not in entry.describe()

    def test_insert_flush_rebuild_cycle_preserves_answers(self, dataset):
        manager = IndexManager()
        manager.create("mono", dataset, kind="oif")
        manager.create("sharded", dataset, kind="oif", shards=4, strategy="round_robin")
        batch = [["a", "zz"], ["zz", "b"]]
        assert manager.insert("mono", batch) == manager.insert("sharded", batch)
        expr = Subset(frozenset(["zz"]))
        assert (
            manager.get("sharded").evaluate(expr)
            == manager.get("mono").evaluate(expr)
        )
        report = manager.flush("sharded")
        assert report.records_merged == 2
        manager.rebuild("sharded")
        entry = manager.get("sharded")
        assert isinstance(entry._handle, UpdatableShardedOIF), "rebuild keeps sharding"
        assert entry.evaluate(expr) == manager.get("mono").evaluate(expr)

    def test_fanout_borrows_the_caller_pool_without_deadlock(self, dataset):
        """A 1-worker executor answers sharded queries.

        The worker thread that runs the query visits every shard itself, so
        the executor's pool size never limits shard fan-out.
        """
        manager = IndexManager()
        manager.create("s", dataset, kind="oif", shards=4)
        with QueryExecutor(manager, cache=None, max_workers=1) as executor:
            outcome = executor.execute_expr("s", Subset(frozenset(["a"])))
        assert outcome.shard_stats is not None and len(outcome.shard_stats) == 4
        oracle = sorted(
            record.record_id for record in dataset if "a" in record.items
        )
        assert list(outcome.record_ids) == oracle

    def test_dropped_entry_refuses_served_queries_and_writes(self, dataset):
        from repro.errors import UnknownIndexError

        manager = IndexManager()
        entry = manager.create("s", dataset, kind="oif", shards=2)
        with QueryExecutor(manager, cache=None, max_workers=2) as executor:
            manager.drop("s")
            assert entry.dropped
            # The serving path refuses the name, and a retained entry
            # reference refuses writes — nothing lands in a discarded handle.
            with pytest.raises(UnknownIndexError):
                executor.execute_expr("s", Subset(frozenset(["a"])))
            with pytest.raises(UnknownIndexError):
                entry.insert([["a", "b"]])


class TestExecutorSharding:
    def test_outcome_carries_the_shard_breakdown(self, dataset):
        cache = ResultCache(capacity=32)
        manager = IndexManager(result_cache=cache)
        manager.create("s", dataset, kind="oif", shards=3)
        with QueryExecutor(manager, cache=cache, max_workers=2) as executor:
            outcome = executor.execute_expr("s", Subset(frozenset(["a"])))
            assert outcome.shard_stats is not None
            assert len(outcome.shard_stats) == 3
            assert outcome.page_accesses == sum(
                stat.page_accesses for stat in outcome.shard_stats
            )
            payload = outcome.as_dict()
            assert [entry["shard"] for entry in payload["shards"]] == [0, 1, 2]
            # A cache hit never touches the shards again.
            hit = executor.execute_expr("s", Subset(frozenset(["a"])))
            assert hit.cached and hit.shard_stats is None

    def test_serving_stats_aggregate_per_shard(self, dataset):
        manager = IndexManager()
        manager.create("s", dataset, kind="oif", shards=2)
        with QueryExecutor(manager, cache=None, max_workers=2) as executor:
            executor.execute_expr("s", Subset(frozenset(["a"])))
            executor.execute_expr("s", Subset(frozenset(["b"])))
            stats = executor.stats.as_dict()
        breakdown = stats["per_index_shards"]["s"]
        assert sorted(breakdown) == ["0", "1"]
        assert all(slot["queries"] == 2 for slot in breakdown.values())
        assert (
            sum(slot["matches"] for slot in breakdown.values())
            <= stats["queries"] * len(dataset)
        )


class TestServerSharding:
    def test_create_query_and_stats_over_the_wire(self, dataset):
        with ServiceServer(port=0) as server:
            client = ServiceClient(host=server.host, port=server.port)
            description = client.create_index(
                "wire",
                transactions=[sorted(record.items) for record in dataset],
                shards=3,
            )
            assert description["shards"] == 3
            assert sum(description["shard_records"]) == len(dataset)

            response = client.query("wire", "subset", ["a", "b"])
            oracle = [
                record.record_id
                for record in dataset
                if {"a", "b"} <= set(record.items)
            ]
            assert response["record_ids"] == oracle
            assert [entry["shard"] for entry in response["shards"]] == [0, 1, 2]

            stats = client.stats()
            assert "wire" in stats["serving"]["per_index_shards"]
            described = {entry["name"]: entry for entry in client.indexes()}
            assert described["wire"]["shards"] == 3

    def test_entries_answer_after_server_shutdown(self, dataset):
        """No per-entry threads exist any more: a shut-down server's manager
        keeps answering sharded queries serially (fan-out needs no pool)."""
        server = ServiceServer(port=0)
        with server:
            client = ServiceClient(host=server.host, port=server.port)
            client.create_index(
                "wire",
                transactions=[sorted(record.items) for record in dataset],
                shards=2,
            )
            client.query("wire", "subset", ["a"])
        entry = server.manager.get("wire")
        ids, _, shard_stats = entry.measured_expr(Subset(frozenset(["a"])))
        assert len(ids) > 0 and shard_stats is not None

    def test_shutdown_leaves_an_external_manager_armed(self, dataset):
        manager = IndexManager()
        manager.create("mine", dataset, kind="oif", shards=2)
        with ServiceServer(port=0, manager=manager) as server:
            client = ServiceClient(host=server.host, port=server.port)
            client.query("mine", "subset", ["a"])
        # The embedder's manager outlives the server and keeps answering.
        entry = manager.get("mine")
        ids, _, shard_stats = entry.measured_expr(Subset(frozenset(["a"])))
        assert len(ids) > 0 and shard_stats is not None
        manager.close()  # compatibility no-op
        ids_again, _, _ = entry.measured_expr(Subset(frozenset(["a"])))
        assert ids_again == ids

    def test_invalid_shards_is_a_client_error(self, dataset):
        with ServiceServer(port=0) as server:
            client = ServiceClient(host=server.host, port=server.port)
            with pytest.raises(ServiceError, match="shards"):
                client.create_index("bad", transactions=[["a"]], shards=-2)

    def test_conflicting_shards_values_are_rejected(self, dataset):
        with ServiceServer(port=0) as server:
            client = ServiceClient(host=server.host, port=server.port)
            with pytest.raises(ServiceError, match="conflicting 'shards'"):
                client._request(
                    "POST",
                    "/indexes",
                    {
                        "name": "bad",
                        "transactions": [["a"]],
                        "shards": 2,
                        "options": {"shards": 8},
                    },
                )
            # Agreeing values are fine (the top-level field is sugar).
            description = client._request(
                "POST",
                "/indexes",
                {
                    "name": "ok",
                    "transactions": [["a"], ["a", "b"]],
                    "shards": 2,
                    "options": {"shards": 2},
                },
            )
            assert description["shards"] == 2


class TestCliSharding:
    @pytest.fixture()
    def transaction_file(self, tmp_path, dataset):
        path = tmp_path / "data.txt"
        write_transactions(dataset, path)
        return str(path)

    def test_query_with_shards_matches_unsharded(self, transaction_file, capsys):
        assert main(["query", transaction_file, "subset", "a", "b"]) == 0
        unsharded = capsys.readouterr().out.splitlines()[0]
        assert main(["query", transaction_file, "subset", "a", "b", "--shards", "4"]) == 0
        sharded = capsys.readouterr().out.splitlines()[0]
        assert sharded == unsharded

    def test_query_shards_explain_prints_fanout(self, transaction_file, capsys):
        code = main([
            "query", transaction_file, "subset", "a", "--shards", "2", "--explain",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "fanout over 2 shard(s)" in output
        assert "matching records" in output

    @pytest.mark.parametrize("command", [
        ["query", "{data}", "subset", "a", "--shards", "0"],
        ["serve", "--shards", "-2"],
        ["client", "create", "x", "{data}", "--shards", "0"],
    ])
    def test_non_positive_shards_rejected_at_parse_time(
        self, transaction_file, capsys, command
    ):
        argv = [part.format(data=transaction_file) for part in command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

"""Seeded inputs: Zipf set-valued records and containment queries with known answers.

The benchmark makes its own inputs so that the program under test receives
only generated data.  The parameters follow the paper's synthetic setup:
|I| = 2000 items under Zipf(0.8), record lengths 2..20.

Queries are plain tuples (``spec``) that :mod:`oracle` answers itself and
converts to the program's expression objects:

* ``(predicate, items)`` with predicate ``subset``, ``equality`` or ``superset``;
* ``("and", (spec, ...))``, ``("not", spec)``, ``("limit", spec, count)``.
"""

from __future__ import annotations

import bisect
import itertools
import random

DOMAIN = 2000
ZIPF_ORDER = 0.8
MIN_LENGTH = 2
MAX_LENGTH = 20
PREDICATES = ("subset", "equality", "superset")


def item_label(index: int) -> str:
    return f"i{index:06d}"


def zipf_cum_weights(count: int, order: float) -> list[float]:
    return list(itertools.accumulate((rank + 1) ** -order for rank in range(count)))


def zipf_transactions(rng: random.Random, count: int) -> list[frozenset]:
    """``count`` records of distinct Zipf-popular items, lengths uniform in 2..20."""
    cum = zipf_cum_weights(DOMAIN, ZIPF_ORDER)
    total = cum[-1]
    labels = [item_label(index) for index in range(DOMAIN)]
    records = []
    for _ in range(count):
        wanted = rng.randint(MIN_LENGTH, MAX_LENGTH)
        items: set = set()
        while len(items) < wanted:
            items.add(labels[bisect.bisect_left(cum, rng.random() * total)])
        records.append(frozenset(items))
    return records


def user_bytes(transactions) -> int:
    """User data size: the UTF-8 bytes of every item label of every record."""
    return sum(len(label.encode()) for items in transactions for label in items)


class QueryMaker:
    """Draws queries that some record answers, from one seeded stream."""

    def __init__(self, rng: random.Random, transactions: list) -> None:
        self.rng = rng
        self._transactions = transactions
        self._pools: dict[tuple, list] = {}

    def _record(self, low: int, high: int) -> frozenset:
        """A random record whose length lies in ``low..high``."""
        pool = self._pools.get((low, high))
        if pool is None:
            pool = [t for t in self._transactions if low <= len(t) <= high]
            self._pools[(low, high)] = pool
        return self.rng.choice(pool)

    def containment(self, predicate: str, size: int) -> tuple:
        """A ``predicate`` query of ``size`` items.

        Subset: ``size`` items of a record at least that long.  Equality: a
        whole record of that length.  Superset: a record no longer than
        ``size``, padded with other items.
        """
        rng = self.rng
        if predicate == "subset":
            record = self._record(size, MAX_LENGTH)
            return ("subset", frozenset(rng.sample(sorted(record), size)))
        if predicate == "equality":
            return ("equality", self._record(size, size))
        record = set(self._record(MIN_LENGTH, size))
        while len(record) < size:
            record.add(item_label(rng.randrange(DOMAIN)))
        return ("superset", frozenset(record))

    def composite(self, size: int) -> tuple:
        """``Subset(q) and not Superset({x})`` with q, x from one record, so it has an answer."""
        record = sorted(self._record(max(size, 2), MAX_LENGTH))
        items = frozenset(self.rng.sample(record, size))
        excluded = frozenset({self.rng.choice(record)})
        return ("and", (("subset", items), ("not", ("superset", excluded))))


def paper_grid(rng: random.Random, transactions: list, per_cell: int) -> list:
    """The paper's grid: every predicate at |qs| in {2, 4, 8}, ``per_cell`` each, shuffled."""
    maker = QueryMaker(rng, transactions)
    pool = [
        maker.containment(predicate, size)
        for predicate in PREDICATES
        for size in (2, 4, 8)
        for _ in range(per_cell)
    ]
    rng.shuffle(pool)
    return pool

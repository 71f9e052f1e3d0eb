"""Expected answers, computed by the benchmark itself.

The benchmark keeps its own map from each item to the ids of the records
holding it.  A record contains ``q`` exactly when it is in the id set of
every item of ``q``, so ``subset`` is the intersection of those sets,
``equality`` keeps the ones of size ``|q|``, and ``superset`` takes the
union over ``q``'s items and keeps the records whose items lie inside ``q``.
``and`` / ``not`` are set algebra over those answers, with every record as
the universe.  ``limit`` returns the full answer, and :func:`matches`
accepts any ``count`` distinct ids from it.
"""

from __future__ import annotations


def evaluate(index: "Oracle", spec) -> frozenset:
    """Ids of the records in ``index`` that answer ``spec``."""
    op = spec[0]
    if op in ("subset", "equality"):
        query = spec[1]
        postings = sorted((index.postings.get(item, frozenset()) for item in query), key=len)
        answer = set(postings[0]).intersection(*postings[1:])
        if op == "equality":
            answer = {rid for rid in answer if len(index.items[rid]) == len(query)}
        return frozenset(answer)
    if op == "superset":
        query = spec[1]
        candidates = set().union(*(index.postings.get(item, ()) for item in query))
        return frozenset(rid for rid in candidates if index.items[rid] <= query)
    if op == "and":
        answer = evaluate(index, spec[1][0])
        for child in spec[1][1:]:
            answer &= evaluate(index, child)
        return answer
    if op == "not":
        return index.universe - evaluate(index, spec[1])
    if op == "limit":
        return evaluate(index, spec[1])
    raise ValueError(f"unknown query spec {spec!r}")


def matches(spec, returned, expected: frozenset) -> bool:
    """Whether the program's ``returned`` ids are a correct answer to ``spec``."""
    returned = list(returned)
    distinct = set(returned)
    if len(distinct) != len(returned):
        return False
    if spec[0] == "limit":
        return distinct <= expected and len(distinct) == min(spec[2], len(expected))
    return distinct == expected


class Oracle:
    """Memoized expected answers over a growing record list (ids from ``first_id``)."""

    def __init__(self, transactions, first_id: int = 1) -> None:
        self.items: dict[int, frozenset] = {}
        self.postings: dict = {}
        self.universe = frozenset()
        self._memo: dict = {}
        self.add((first_id + offset, items) for offset, items in enumerate(transactions))

    def add(self, records) -> None:
        """Add ``(id, items)`` records; answers computed so far are dropped."""
        for rid, items in records:
            self.items[rid] = items
            for item in items:
                self.postings.setdefault(item, set()).add(rid)
        self.universe = frozenset(self.items)
        self._memo.clear()

    def answer(self, spec) -> frozenset:
        answer = self._memo.get(spec)
        if answer is None:
            answer = self._memo[spec] = evaluate(self, spec)
        return answer

    def check(self, spec, returned) -> bool:
        return matches(spec, returned, self.answer(spec))


def to_expr(spec):
    """The program's expression object for ``spec``."""
    from repro.core.query import And, Equality, Not, Subset, Superset

    op = spec[0]
    if op == "subset":
        return Subset(spec[1])
    if op == "equality":
        return Equality(spec[1])
    if op == "superset":
        return Superset(spec[1])
    if op == "and":
        return And(tuple(to_expr(child) for child in spec[1]))
    if op == "not":
        return Not(to_expr(spec[1]))
    if op == "limit":
        return to_expr(spec[1]).limit(spec[2])
    raise ValueError(f"unknown query spec {spec!r}")

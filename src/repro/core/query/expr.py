"""Immutable query-expression algebra over the three containment predicates.

The paper defines three per-record predicates — subset, equality, superset
(Section 2) — which this module lifts into a small composable algebra:

* **leaves** :class:`Subset`, :class:`Equality`, :class:`Superset` test one
  record's set-value against a query item set;
* **combinators** :class:`And`, :class:`Or`, :class:`Not` build boolean
  expressions over the leaves;
* the **modifier** :class:`Limit` (built with :meth:`Expr.limit` /
  :meth:`Expr.offset`) truncates the result stream; it is only legal at the
  top of an expression because it is not a per-record predicate.

Every node is a frozen dataclass, so expressions are hashable values.
:meth:`Expr.normalize` rewrites an expression into a canonical shape —
nested ``And``/``Or`` chains are flattened, duplicate children dropped,
``Not`` pushed inward via De Morgan until it sits on a leaf, double negation
eliminated, stacked limits composed, and children sorted deterministically —
so two equivalent-by-construction expressions compare (and hash) equal.  The
normalized expression therefore *is* the canonical form: the service layer
keys its result cache and in-flight dedup map on it, and
:meth:`Expr.canonical_key` renders the same identity as plain nested tuples
for logging and tests.

Expressions also serialize to/from the JSON wire format of the query service
(:meth:`Expr.to_dict` / :func:`expr_from_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator

from repro.core.items import Item
from repro.errors import QueryError

__all__ = [
    "Expr",
    "Leaf",
    "Subset",
    "Equality",
    "Superset",
    "And",
    "Or",
    "Not",
    "Limit",
    "expr_from_dict",
    "leaf_for",
    "slice_ids",
    "split_limit",
    "wire_item",
]


def _item_sort_token(item: Item) -> tuple[str, str]:
    """Deterministic sort key for items of heterogeneous hashable types."""
    return (type(item).__name__, str(item))


def sorted_items(items: Iterable[Item]) -> tuple[Item, ...]:
    """Items as a deterministically ordered tuple (canonical rendering)."""
    return tuple(sorted(items, key=_item_sort_token))


@dataclass(frozen=True)
class Expr:
    """Base class of all query-expression nodes."""

    # -- composition sugar -----------------------------------------------------------

    def __and__(self, other: "Expr") -> "And":
        return And((self, other))

    def __or__(self, other: "Expr") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def limit(self, count: int, offset: int = 0) -> "Limit":
        """Truncate the result stream to ``count`` ids after skipping ``offset``."""
        return Limit(self, count=count, offset=offset)

    def offset(self, count: int) -> "Limit":
        """Skip the first ``count`` result ids (no upper bound)."""
        return Limit(self, count=None, offset=count)

    # -- semantics -------------------------------------------------------------------

    def matches(self, record_items: frozenset) -> bool:
        """Evaluate the expression against one record's set-value.

        This is the brute-force per-record semantics every plan must agree
        with; residual filters and the naive fallback use it directly.
        """
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (empty for leaves)."""
        return ()

    def iter_leaves(self) -> Iterator["Leaf"]:
        """All predicate leaves, in syntactic order."""
        for child in self.children():
            yield from child.iter_leaves()

    def referenced_items(self) -> frozenset:
        """Union of every leaf's query items (used for size-grouped reports)."""
        out: set = set()
        for leaf in self.iter_leaves():
            out |= leaf.items
        return frozenset(out)

    # -- canonical form --------------------------------------------------------------

    def normalize(self) -> "Expr":
        """Rewrite into the canonical shape (idempotent).

        The result is memoized on the returned node, so the layers that each
        defensively normalize (request coercion, ``execute``, the planner)
        pay for the rewrite only once per expression.
        """
        if getattr(self, "_is_normalized", False):
            return self
        result = self._normalize()
        object.__setattr__(result, "_is_normalized", True)
        return result

    def _normalize(self) -> "Expr":
        return self

    def canonical_key(self) -> tuple:
        """The normalized expression rendered as plain nested tuples."""
        return self.normalize()._key()

    def _key(self) -> tuple:
        raise NotImplementedError

    # -- wire format -----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly rendering, inverse of :func:`expr_from_dict`."""
        raise NotImplementedError


@dataclass(frozen=True)
class Leaf(Expr):
    """A containment predicate over one query item set."""

    items: frozenset = field(default_factory=frozenset)

    #: Wire name of the predicate ("subset" / "equality" / "superset").
    op: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if not isinstance(self.items, frozenset):
            object.__setattr__(self, "items", frozenset(self.items))
        if not self.items:
            raise QueryError("containment queries require a non-empty query set")

    def iter_leaves(self) -> Iterator["Leaf"]:
        yield self

    def referenced_items(self) -> frozenset:
        return self.items

    def _key(self) -> tuple:
        return (self.op, sorted_items(self.items))

    def to_dict(self) -> dict:
        return {"op": self.op, "items": list(sorted_items(self.items))}


@dataclass(frozen=True)
class Subset(Leaf):
    """Records ``t`` with ``items ⊆ t.s`` (the paper's subset query)."""

    op = "subset"

    def matches(self, record_items: frozenset) -> bool:
        return self.items <= record_items


@dataclass(frozen=True)
class Equality(Leaf):
    """Records ``t`` with ``t.s = items``."""

    op = "equality"

    def matches(self, record_items: frozenset) -> bool:
        return self.items == record_items


@dataclass(frozen=True)
class Superset(Leaf):
    """Records ``t`` with ``t.s ⊆ items`` (the paper's superset query)."""

    op = "superset"

    def matches(self, record_items: frozenset) -> bool:
        return record_items <= self.items


def _coerce_children(children: Iterable[Expr], op: str) -> tuple[Expr, ...]:
    out = tuple(children)
    if not out:
        raise QueryError(f"{op} needs at least one operand")
    for child in out:
        if not isinstance(child, Expr):
            raise QueryError(f"{op} operands must be expressions, got {child!r}")
        if isinstance(child, Limit):
            raise QueryError("limit/offset is only allowed at the top of an expression")
    return out


@dataclass(frozen=True)
class And(Expr):
    """Conjunction: a record matches when every operand matches."""

    operands: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", _coerce_children(self.operands, "And"))

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def matches(self, record_items: frozenset) -> bool:
        return all(child.matches(record_items) for child in self.operands)

    def _normalize(self) -> Expr:
        return _normalize_nary(And, self.operands)

    def _key(self) -> tuple:
        return ("and", tuple(child._key() for child in self.operands))

    def to_dict(self) -> dict:
        return {"op": "and", "args": [child.to_dict() for child in self.operands]}


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction: a record matches when any operand matches."""

    operands: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", _coerce_children(self.operands, "Or"))

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def matches(self, record_items: frozenset) -> bool:
        return any(child.matches(record_items) for child in self.operands)

    def _normalize(self) -> Expr:
        return _normalize_nary(Or, self.operands)

    def _key(self) -> tuple:
        return ("or", tuple(child._key() for child in self.operands))

    def to_dict(self) -> dict:
        return {"op": "or", "args": [child.to_dict() for child in self.operands]}


@dataclass(frozen=True)
class Not(Expr):
    """Negation: a record matches when the operand does not."""

    operand: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not isinstance(self.operand, Expr):
            raise QueryError(f"Not needs an expression operand, got {self.operand!r}")
        if isinstance(self.operand, Limit):
            raise QueryError("limit/offset is only allowed at the top of an expression")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def matches(self, record_items: frozenset) -> bool:
        return not self.operand.matches(record_items)

    def _normalize(self) -> Expr:
        inner = self.operand
        if isinstance(inner, Not):  # double negation
            return inner.operand.normalize()
        if isinstance(inner, And):  # De Morgan: push the negation inward
            return Or(tuple(Not(child) for child in inner.operands)).normalize()
        if isinstance(inner, Or):
            return And(tuple(Not(child) for child in inner.operands)).normalize()
        return Not(inner.normalize())

    def _key(self) -> tuple:
        return ("not", self.operand._key())

    def to_dict(self) -> dict:
        return {"op": "not", "arg": self.operand.to_dict()}


@dataclass(frozen=True)
class Limit(Expr):
    """Result-stream truncation: skip ``offset`` ids, then yield at most ``count``.

    Only legal as the outermost node: limits select a prefix of the *result
    stream*, so they compose with each other but not with the boolean algebra
    underneath.
    """

    operand: Expr = None  # type: ignore[assignment]
    count: "int | None" = None
    offset: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.operand, Expr):
            raise QueryError(f"limit needs an expression operand, got {self.operand!r}")
        if self.count is not None and (not isinstance(self.count, int) or self.count < 0):
            raise QueryError(f"limit count must be a non-negative int, got {self.count!r}")
        if not isinstance(self.offset, int) or self.offset < 0:
            raise QueryError(f"offset must be a non-negative int, got {self.offset!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def matches(self, record_items: frozenset) -> bool:
        # Per-record semantics ignore stream truncation; invalidation logic
        # relies on this (a record outside the inner predicate can never
        # enter the limited result either).
        return self.operand.matches(record_items)

    def _normalize(self) -> Expr:
        inner = self.operand.normalize()
        count, offset = self.count, self.offset
        if isinstance(inner, Limit):
            # Stacked limits compose: the outer one slices the inner stream.
            inner_count, inner_offset = inner.count, inner.offset
            new_offset = inner_offset + offset
            remaining = None if inner_count is None else max(inner_count - offset, 0)
            count = remaining if count is None else (
                count if remaining is None else min(count, remaining)
            )
            inner, offset = inner.operand, new_offset
        if count is None and offset == 0:
            return inner
        return Limit(inner, count=count, offset=offset)

    def _key(self) -> tuple:
        return ("limit", self.operand._key(), self.count, self.offset)

    def to_dict(self) -> dict:
        out: dict = {"op": "limit", "arg": self.operand.to_dict(), "offset": self.offset}
        if self.count is not None:
            out["count"] = self.count
        return out


def _normalize_nary(node_type: type, operands: tuple[Expr, ...]) -> Expr:
    """Shared And/Or normalization: flatten, dedupe, sort, collapse singletons."""
    flat: list[Expr] = []
    for child in operands:
        normalized = child.normalize()
        if isinstance(normalized, node_type):
            flat.extend(normalized.children())
        else:
            flat.append(normalized)
    unique: dict[tuple, Expr] = {}
    for child in flat:
        unique.setdefault(child._key(), child)
    ordered = [unique[key] for key in sorted(unique, key=repr)]
    if len(ordered) == 1:
        return ordered[0]
    return node_type(tuple(ordered))


def split_limit(expr: Expr) -> "tuple[Expr, int | None, int]":
    """Normalize ``expr`` and peel a top-level limit off it.

    Returns ``(inner, count, offset)`` with ``count=None, offset=0`` when the
    expression carries no limit.  Every layer that applies stream truncation
    *after* its own merge step (delta-aware evaluation, shard fan-out) uses
    this instead of re-implementing the unwrap.
    """
    normalized = expr.normalize()
    if isinstance(normalized, Limit):
        return normalized.operand, normalized.count, normalized.offset
    return normalized, None, 0


def slice_ids(ids: list, count: "int | None", offset: int) -> list:
    """Apply a peeled ``(count, offset)`` pair to a materialized id list.

    The companion of :func:`split_limit` for layers that slice *after* their
    own merge step, so the limit-after-merge arithmetic exists exactly once.
    """
    if count is None and offset == 0:
        return ids
    upper = None if count is None else offset + count
    return ids[offset:upper]


_LEAF_TYPES = {"subset": Subset, "equality": Equality, "superset": Superset}


def leaf_for(predicate: str, items: Iterable[Item]) -> Leaf:
    """Build the leaf for one of the paper's predicates by wire name."""
    try:
        leaf_type = _LEAF_TYPES[str(predicate).lower()]
    except KeyError:
        raise QueryError(
            f"unknown query type {predicate!r}; expected one of {sorted(_LEAF_TYPES)}"
        ) from None
    return leaf_type(frozenset(items))


def wire_item(item: object) -> Item:
    """Check one item decoded from JSON: a scalar, never an array or object.

    The rule every JSON decoder of items shares (expression leaves here, the
    service's transaction and legacy query payloads), so a nested value is a
    client error everywhere instead of unhashable in one place and silently
    stringified in another.
    """
    if isinstance(item, (list, dict)):
        raise QueryError(f"an item must be a string or a number, got {item!r}")
    return item


def expr_from_dict(payload: object) -> Expr:
    """Parse the JSON wire format back into an expression tree."""
    if not isinstance(payload, dict):
        raise QueryError(f"an expression must be a JSON object, got {payload!r}")
    op = payload.get("op")
    if not isinstance(op, str):
        raise QueryError("an expression object needs a string 'op'")
    op = op.lower()
    if op in _LEAF_TYPES:
        items = payload.get("items")
        if not isinstance(items, (list, tuple)) or not items:
            raise QueryError(f"{op!r} needs a non-empty 'items' list")
        return _LEAF_TYPES[op](frozenset(wire_item(item) for item in items))
    if op in ("and", "or"):
        args = payload.get("args")
        if not isinstance(args, list) or not args:
            raise QueryError(f"{op!r} needs a non-empty 'args' list")
        operands = tuple(expr_from_dict(arg) for arg in args)
        return And(operands) if op == "and" else Or(operands)
    if op == "not":
        return Not(expr_from_dict(payload.get("arg")))
    if op == "limit":
        count = payload.get("count")
        offset = payload.get("offset", 0)
        return Limit(expr_from_dict(payload.get("arg")), count=count, offset=offset)
    raise QueryError(f"unknown expression op {op!r}")

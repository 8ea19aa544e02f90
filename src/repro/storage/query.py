"""Typed query layer over the store backends.

A :class:`Query` is a conjunction of typed predicates over a class's
declared ``keySpecs`` (§III-B: the platform, not the application, owns
structured state — so the platform can index and query it), plus
ordering, a limit, and keyset-cursor pagination.  The grammar is small
on purpose: equality, ranges, and string prefixes are exactly what a
secondary index can answer without a planner.

``where`` grammar (comma-separated conjunction)::

    field==value   field=value    equality
    field<value    field<=value   range
    field>value    field>=value   range
    field^=value   string prefix (STR keys)

Values are coerced by the key's declared :class:`~repro.model.types.
DataType`; ``order`` is ``field`` or ``field:desc``; ``cursor`` is the
opaque token returned by the previous page.

Evaluation semantics are identical across engines (the conformance
tests hold both to them):

* a predicate on a key the document does not carry never matches;
* ordered queries return only documents carrying the order key;
* ties (and unordered results) break by object id, ascending with the
  sort direction, so pagination is deterministic.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import QueryError
from repro.model.types import DataType

__all__ = [
    "Predicate",
    "Query",
    "QueryResult",
    "parse_query",
    "parse_where",
    "evaluate_query",
    "encode_cursor",
    "decode_cursor",
]

#: Operator token -> canonical op name, longest tokens first so the
#: scanner never splits ``<=`` into ``<`` + ``=``.
_OPS = (
    ("==", "eq"),
    ("<=", "le"),
    (">=", "ge"),
    ("^=", "prefix"),
    ("=", "eq"),
    ("<", "lt"),
    (">", "gt"),
)

_RANGE_OPS = {"lt", "le", "gt", "ge"}


@dataclass(frozen=True)
class Predicate:
    """One typed comparison against a declared state key."""

    key: str
    op: str  # eq | lt | le | gt | ge | prefix
    value: Any


@dataclass(frozen=True)
class Query:
    """A conjunctive query with ordering and keyset pagination."""

    where: tuple[Predicate, ...] = ()
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    #: Decoded keyset cursor: ``(order_value, id)`` for ordered queries,
    #: ``(id,)`` otherwise.  ``None`` = first page.
    cursor: tuple | None = None


@dataclass
class QueryResult:
    """What a backend's ``query`` resolves to."""

    docs: list[dict[str, Any]] = field(default_factory=list)
    #: Documents the engine produced to answer — what the operation is
    #: billed for.  The indexed engine reports the rows its one page
    #: statement returned (the page plus the look-ahead row under
    #: ``limit``, every match without one; rows a residual filter
    #: skipped are not billed); a scan touches every document and says so.
    scanned: int = 0
    index_used: bool = False
    plan: str = ""
    next_cursor: str | None = None


# -- parsing -----------------------------------------------------------------


def _coerce(raw: str, dtype: DataType, key: str) -> Any:
    try:
        if dtype is DataType.INT:
            return int(raw)
        if dtype is DataType.FLOAT:
            return float(raw)
        if dtype is DataType.BOOL:
            token = raw.strip().lower()
            if token in ("true", "1"):
                return True
            if token in ("false", "0"):
                return False
            raise ValueError(raw)
        if dtype is DataType.JSON:
            try:
                return json.loads(raw)
            except json.JSONDecodeError:
                return raw
        return raw  # STR
    except (TypeError, ValueError):
        raise QueryError(
            f"value {raw!r} is not a valid {dtype.value} for key {key!r}"
        ) from None


def parse_where(text: str, schema: Mapping[str, DataType]) -> tuple[Predicate, ...]:
    """Parse a ``where`` expression against a class's key schema."""
    predicates: list[Predicate] = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        for token, op in _OPS:
            split_at = clause.find(token)
            if split_at > 0:
                key, raw = clause[:split_at].strip(), clause[split_at + len(token):].strip()
                break
        else:
            raise QueryError(
                f"cannot parse predicate {clause!r}; expected field<op>value "
                "with op one of ==, <, <=, >, >=, ^="
            )
        dtype = schema.get(key)
        if dtype is None:
            raise QueryError(
                f"unknown query key {key!r}; queryable keys: {sorted(schema)}"
            )
        if op == "prefix" and dtype is not DataType.STR:
            raise QueryError(
                f"prefix match (^=) requires a STR key; {key!r} is {dtype.value}"
            )
        predicates.append(Predicate(key, op, _coerce(raw, dtype, key)))
    return tuple(predicates)


def parse_query(params: Mapping[str, str], schema: Mapping[str, DataType]) -> Query:
    """Build a :class:`Query` from decoded HTTP query parameters."""
    known = {"where", "order", "limit", "cursor", "explain"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise QueryError(f"unknown query parameter(s) {unknown}; expected {sorted(known)}")
    where = parse_where(params.get("where", ""), schema)
    order_by: str | None = None
    descending = False
    order = params.get("order", "").strip()
    if order:
        order_by, _, direction = order.partition(":")
        order_by = order_by.strip()
        if order_by not in schema:
            raise QueryError(
                f"unknown order key {order_by!r}; queryable keys: {sorted(schema)}"
            )
        direction = direction.strip().lower()
        if direction not in ("", "asc", "desc"):
            raise QueryError(f"order direction must be asc or desc, got {direction!r}")
        descending = direction == "desc"
    limit: int | None = None
    if params.get("limit", "").strip():
        try:
            limit = int(params["limit"])
        except ValueError:
            raise QueryError(f"limit must be an integer, got {params['limit']!r}") from None
        if limit < 1:
            raise QueryError(f"limit must be >= 1, got {limit}")
    cursor: tuple | None = None
    cursor_text = params.get("cursor", "").strip()
    if cursor_text:
        cursor = decode_cursor(cursor_text, order_by)
        # Engines compare a mistyped value differently (SQLite coerces
        # by column affinity, Python refuses), so neither ever sees one.
        if order_by is not None and (
            cursor[0] is None or not schema[order_by].accepts(cursor[0])
        ):
            raise QueryError(
                f"cursor value {cursor[0]!r} is not a valid "
                f"{schema[order_by].value} for order key {order_by!r}"
            )
    return Query(
        where=where, order_by=order_by, descending=descending, limit=limit, cursor=cursor
    )


# -- cursors -----------------------------------------------------------------


def encode_cursor(doc: Mapping[str, Any], order_by: str | None) -> str:
    """Keyset token for the page ending at ``doc``."""
    if order_by is None:
        payload: list[Any] = [doc["id"]]
    else:
        payload = [(doc.get("state") or {}).get(order_by), doc["id"]]
    raw = json.dumps(payload, separators=(",", ":"), default=str).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def decode_cursor(text: str, order_by: str | None) -> tuple:
    try:
        payload = json.loads(base64.urlsafe_b64decode(text.encode("ascii")))
    except (ValueError, binascii.Error):
        raise QueryError(f"malformed cursor {text!r}") from None
    expected = 1 if order_by is None else 2
    if (
        not isinstance(payload, list)
        or len(payload) != expected
        or not isinstance(payload[-1], str)
    ):
        raise QueryError(
            f"cursor {text!r} does not match this query's ordering"
        )
    return tuple(payload)


# -- evaluation (dict engine + ephemeral in-memory fallback) -----------------


def _matches(doc: Mapping[str, Any], pred: Predicate) -> bool:
    value = (doc.get("state") or {}).get(pred.key)
    if value is None:
        return False
    if pred.op == "eq":
        return bool(value == pred.value)
    if pred.op == "prefix":
        return isinstance(value, str) and value.startswith(pred.value)
    try:
        if pred.op == "lt":
            return bool(value < pred.value)
        if pred.op == "le":
            return bool(value <= pred.value)
        if pred.op == "gt":
            return bool(value > pred.value)
        return bool(value >= pred.value)
    except TypeError:
        return False


def _after_cursor(doc: Mapping[str, Any], query: Query) -> bool:
    """Keyset position test: is ``doc`` strictly past the cursor?"""
    assert query.cursor is not None
    if query.order_by is None:
        return doc["id"] > query.cursor[0]
    value = (doc.get("state") or {}).get(query.order_by)
    cursor_value, cursor_id = query.cursor
    try:
        if value == cursor_value:
            return (doc["id"] < cursor_id) if query.descending else (doc["id"] > cursor_id)
        if query.descending:
            return bool(value < cursor_value)
        return bool(value > cursor_value)
    except TypeError:
        return False


def evaluate_query(
    docs: Iterable[Mapping[str, Any]], query: Query, plan: str = "full-scan"
) -> QueryResult:
    """Reference evaluation over plain documents (no index).

    The dict engine and the ephemeral in-memory fallback both run this,
    so their semantics cannot drift from each other; the SQLite engine's
    conformance tests hold its compiled SQL to the same results.
    """
    scanned = 0
    matched: list[dict[str, Any]] = []
    for doc in docs:
        scanned += 1
        if query.order_by is not None and (doc.get("state") or {}).get(query.order_by) is None:
            continue
        if all(_matches(doc, pred) for pred in query.where):
            matched.append(dict(doc))
    if query.order_by is None:
        matched.sort(key=lambda d: d["id"])
    else:
        matched.sort(
            key=lambda d: ((d.get("state") or {})[query.order_by], d["id"]),
            reverse=query.descending,
        )
    if query.cursor is not None:
        matched = [doc for doc in matched if _after_cursor(doc, query)]
    next_cursor = None
    if query.limit is not None and len(matched) > query.limit:
        matched = matched[: query.limit]
        next_cursor = encode_cursor(matched[-1], query.order_by)
    return QueryResult(
        docs=matched,
        scanned=scanned,
        index_used=False,
        plan=plan,
        next_cursor=next_cursor,
    )

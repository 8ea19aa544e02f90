"""Paging visits the reference evaluator's sequence, on every engine.

The SQLite engine pages with a row-value seek and takes out of the
planner's reach the bounds its cursor already implies (docs/storage.md,
"Keyset seeks"); the dict engine runs the reference evaluator.  Whatever
the predicates, the direction, the page size — and wherever a client
claims the previous page ended — both walk exactly what
:func:`evaluate_query` says is left.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.types import DataType
from repro.storage.backends import DictBackend, SqliteBackend
from repro.storage.query import Predicate, Query, decode_cursor, evaluate_query

SCHEMA = {"total": DataType.INT, "region": DataType.STR, "priority": DataType.INT}
REGIONS = ["ap", "eu-east", "eu-west", "us"]

#: Few distinct values, so that ties in the order key are the rule; a
#: key drawn ``None`` is one the document lacks.
STATES = st.fixed_dictionaries(
    {
        "total": st.one_of(st.none(), *[st.integers(0, 6)] * 5),
        "region": st.one_of(st.none(), *[st.sampled_from(REGIONS)] * 5),
        "priority": st.one_of(st.none(), st.integers(0, 2)),
    }
)
PREDICATES = {
    "total": st.builds(
        Predicate,
        st.just("total"),
        st.sampled_from(["eq", "lt", "le", "gt", "ge"]),
        st.integers(-1, 7),
    ),
    "region": st.builds(
        Predicate,
        st.just("region"),
        st.sampled_from(["eq", "prefix", "ge", "gt", "le", "lt"]),
        st.sampled_from(["", "e", "eu", "eu-", "eu-west", "us", "zz"]),
    ),
    "priority": st.builds(
        Predicate, st.just("priority"), st.sampled_from(["eq", "ge", "lt"]), st.integers(0, 2)
    ),
}
#: Where a client says the last page ended: anywhere — before the range
#: the predicates bound, past it, at no document at all.
CURSOR_VALUES = {
    "total": st.integers(-2, 8),
    "region": st.sampled_from(["", "a", "eu", "eu-east", "eu-west", "zz"]),
}
CURSOR_IDS = st.sampled_from(["", "o-03", "o-11", "zz"])


@st.composite
def queries(draw):
    order_by = draw(st.sampled_from([None, "total", "total", "region"]))
    descending = draw(st.booleans())
    where = draw(st.lists(st.one_of(*PREDICATES.values()), max_size=2))
    if order_by is not None:  # the seek, and the bounds it must not lose
        where += draw(st.lists(PREDICATES[order_by], max_size=2))
    cursor = None
    if draw(st.booleans()):
        cursor = (draw(CURSOR_IDS),)
        if order_by is not None:
            cursor = (draw(CURSOR_VALUES[order_by]), *cursor)
    forged = draw(st.sampled_from(["", "below-the-bound", "beside-the-pin"]))
    if order_by == "total" and forged == "below-the-bound":
        # The page "ended" before the range began.
        bound = draw(st.integers(2, 5))
        if descending:
            where.append(Predicate("total", draw(st.sampled_from(["le", "lt"])), bound))
            cursor = (draw(st.integers(bound + 1, 8)), draw(CURSOR_IDS))
        else:
            where.append(Predicate("total", draw(st.sampled_from(["ge", "gt"])), bound))
            cursor = (draw(st.integers(bound - 3, bound - 1)), draw(CURSOR_IDS))
    elif order_by == "total" and forged == "beside-the-pin":
        # Equality pins the order key; an honest cursor carries the
        # pinned value, a forged one a neighbour's.
        pin = draw(st.integers(1, 5))
        where.append(Predicate("total", "eq", pin))
        cursor = (pin + draw(st.integers(-1, 1)), draw(CURSOR_IDS))
    return Query(tuple(where), order_by, descending, draw(st.integers(1, 7)), cursor)


def walk(backend, query):
    """Every document from ``query``'s cursor on, page by page."""
    seen = []
    while True:
        result = backend.query("orders", query)
        seen.extend(result.docs)
        if result.next_cursor is None:
            return seen
        assert len(result.docs) == query.limit and len(seen) <= backend.count("orders")
        query = Query(
            query.where,
            query.order_by,
            query.descending,
            query.limit,
            decode_cursor(result.next_cursor, query.order_by),
        )


@settings(max_examples=200, deadline=None)
@given(
    states=st.one_of(st.lists(STATES, max_size=4), st.lists(STATES, min_size=12, max_size=24)),
    query=queries(),
)
def test_paging_visits_the_reference_sequence(states, query):
    docs = [
        {
            "id": f"o-{index:02d}",
            "cls": "Order",
            "version": 1,
            "state": {key: value for key, value in state.items() if value is not None},
        }
        for index, state in enumerate(states)
    ]
    expected = evaluate_query(
        docs, Query(query.where, query.order_by, query.descending, None, query.cursor)
    ).docs
    for backend in (DictBackend(), SqliteBackend()):
        backend.register_schema("orders", SCHEMA)
        backend.put_many("orders", [dict(doc) for doc in docs])
        try:
            assert walk(backend, query) == expected, backend.name
        finally:
            backend.close()

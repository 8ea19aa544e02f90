"""The typed query layer: grammar, evaluation semantics, the gateway
surface, and the ``ocli query`` command."""

import base64
import json
from pathlib import Path

import pytest

from repro.errors import QueryError
from repro.model.types import DataType
from repro.platform.cli import main
from repro.storage.backends import StorageConfig
from repro.storage.query import (
    Predicate,
    Query,
    decode_cursor,
    encode_cursor,
    evaluate_query,
    parse_query,
    parse_where,
)

from tests.helpers import listing1_platform

SCHEMA = {
    "width": DataType.INT,
    "price": DataType.FLOAT,
    "region": DataType.STR,
    "active": DataType.BOOL,
    "tags": DataType.JSON,
}


def forged_cursor(payload):
    """The token a client would send to claim the last page ended at
    ``payload``."""
    return base64.urlsafe_b64encode(json.dumps(payload).encode()).decode()


def doc(object_id, **state):
    return {"id": object_id, "cls": "C", "version": 1, "state": state}


class TestParseWhere:
    def test_all_operators(self):
        predicates = parse_where(
            "width==3,width<5,width<=5,width>1,width>=1,region^=eu,region=x",
            SCHEMA,
        )
        assert [p.op for p in predicates] == [
            "eq", "lt", "le", "gt", "ge", "prefix", "eq",
        ]

    def test_values_coerced_by_declared_type(self):
        predicates = parse_where(
            "width==3,price<=2.5,active==true,region==eu-west", SCHEMA
        )
        assert [p.value for p in predicates] == [3, 2.5, True, "eu-west"]

    def test_empty_clauses_skipped(self):
        assert parse_where("", SCHEMA) == ()
        assert parse_where(" , width==3 , ", SCHEMA) == (
            Predicate("width", "eq", 3),
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(QueryError, match="unknown query key 'ghost'"):
            parse_where("ghost==3", SCHEMA)

    def test_bad_value_rejected(self):
        with pytest.raises(QueryError, match="not a valid INT"):
            parse_where("width==abc", SCHEMA)
        with pytest.raises(QueryError, match="not a valid BOOL"):
            parse_where("active==maybe", SCHEMA)

    def test_prefix_requires_str_key(self):
        with pytest.raises(QueryError, match="requires a STR key"):
            parse_where("width^=1", SCHEMA)

    def test_garbage_clause_rejected(self):
        with pytest.raises(QueryError, match="cannot parse predicate"):
            parse_where("width", SCHEMA)


class TestParseQuery:
    def test_order_limit(self):
        query = parse_query({"order": "width:desc", "limit": "5"}, SCHEMA)
        assert query.order_by == "width"
        assert query.descending is True
        assert query.limit == 5

    def test_defaults(self):
        query = parse_query({}, SCHEMA)
        assert query == Query()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(QueryError, match="unknown query parameter"):
            parse_query({"sort": "width"}, SCHEMA)

    def test_bad_order_direction(self):
        with pytest.raises(QueryError, match="asc or desc"):
            parse_query({"order": "width:sideways"}, SCHEMA)

    def test_bad_limit(self):
        with pytest.raises(QueryError, match="limit must be an integer"):
            parse_query({"limit": "many"}, SCHEMA)
        with pytest.raises(QueryError, match="limit must be >= 1"):
            parse_query({"limit": "0"}, SCHEMA)

    def test_cursor_round_trip(self):
        token = encode_cursor(doc("C~b", width=7), "width")
        query = parse_query({"order": "width", "cursor": token}, SCHEMA)
        assert query.cursor == (7, "C~b")

    def test_mistyped_cursor_names_the_order_key(self):
        """Engines compare a mistyped cursor value differently (SQLite
        coerces ``"5"`` by column affinity, Python refuses), so the
        parser answers before either sees one."""
        for payload in (["5", "C~b"], [None, "C~b"], [True, "C~b"]):
            with pytest.raises(QueryError, match="not a valid INT for order key 'width'"):
                parse_query({"order": "width", "cursor": forged_cursor(payload)}, SCHEMA)
        # The id half is always a string.
        with pytest.raises(QueryError, match="does not match"):
            parse_query({"order": "width", "cursor": forged_cursor([7, 7])}, SCHEMA)

    def test_malformed_cursor(self):
        with pytest.raises(QueryError, match="malformed cursor"):
            decode_cursor("!!!", None)
        # An ordered cursor used on an unordered query mismatches arity.
        token = encode_cursor(doc("C~b", width=7), "width")
        with pytest.raises(QueryError, match="ordering"):
            decode_cursor(token, None)


class TestEvaluateQuery:
    CORPUS = [
        doc("C~a", width=10, region="eu-west"),
        doc("C~b", width=30, region="eu-east"),
        doc("C~c", width=20, region="us-east"),
        doc("C~d", region="eu-north"),  # no width
        doc("C~e", width=20, region="ap-south"),
    ]

    def test_missing_key_never_matches(self):
        result = evaluate_query(self.CORPUS, Query(where=(Predicate("width", "ge", 0),)))
        assert [d["id"] for d in result.docs] == ["C~a", "C~b", "C~c", "C~e"]
        assert result.scanned == 5

    def test_order_excludes_docs_without_order_key(self):
        result = evaluate_query(self.CORPUS, Query(order_by="width"))
        assert [d["id"] for d in result.docs] == ["C~a", "C~c", "C~e", "C~b"]

    def test_descending_with_id_tiebreak(self):
        result = evaluate_query(self.CORPUS, Query(order_by="width", descending=True))
        # width 20 tie: ids descend with the sort direction.
        assert [d["id"] for d in result.docs] == ["C~b", "C~e", "C~c", "C~a"]

    def test_prefix(self):
        result = evaluate_query(
            self.CORPUS, Query(where=(Predicate("region", "prefix", "eu-"),))
        )
        assert [d["id"] for d in result.docs] == ["C~a", "C~b", "C~d"]

    def test_limit_pagination_walk(self):
        query = Query(order_by="width", limit=2)
        page1 = evaluate_query(self.CORPUS, query)
        assert [d["id"] for d in page1.docs] == ["C~a", "C~c"]
        assert page1.next_cursor is not None
        query2 = Query(
            order_by="width", limit=2, cursor=decode_cursor(page1.next_cursor, "width")
        )
        page2 = evaluate_query(self.CORPUS, query2)
        assert [d["id"] for d in page2.docs] == ["C~e", "C~b"]
        assert page2.next_cursor is None

    def test_incomparable_types_do_not_match(self):
        corpus = [doc("C~a", width="wide"), doc("C~b", width=3)]
        result = evaluate_query(corpus, Query(where=(Predicate("width", "lt", 10),)))
        assert [d["id"] for d in result.docs] == ["C~b"]


class TestGatewaySurface:
    @pytest.fixture()
    def platform(self):
        platform = listing1_platform(nodes=2)
        for width in (100, 300, 200):
            platform.new_object("Image", {"width": width})
        yield platform
        platform.shutdown()

    def test_range_query(self, platform):
        response = platform.http(
            "GET", "/api/classes/Image/objects?where=width>=200&order=width"
        )
        assert response.status == 200
        assert [d["state"]["width"] for d in response.body["objects"]] == [200, 300]
        assert response.body["count"] == 2
        assert response.body["scanned"] == 3

    def test_listing_without_query_string_unchanged(self, platform):
        response = platform.http("GET", "/api/classes/Image/objects")
        assert response.status == 200
        assert response.body["count"] == 3
        # The historical listing returns ids, not documents.
        assert all(isinstance(entry, str) for entry in response.body["objects"])

    def test_pagination_via_cursor(self, platform):
        first = platform.http(
            "GET", "/api/classes/Image/objects?order=width&limit=2"
        )
        assert [d["state"]["width"] for d in first.body["objects"]] == [100, 200]
        token = first.body["cursor"]
        assert token
        second = platform.http(
            "GET", f"/api/classes/Image/objects?order=width&limit=2&cursor={token}"
        )
        assert [d["state"]["width"] for d in second.body["objects"]] == [300]
        assert second.body["cursor"] is None

    def test_explain(self, platform):
        response = platform.http(
            "GET", "/api/classes/Image/objects?where=width>0&explain=1"
        )
        assert response.body["plan"] == "dict-scan"
        assert response.body["index_used"] is False

    def test_bad_query_is_400(self, platform):
        response = platform.http("GET", "/api/classes/Image/objects?where=ghost==1")
        assert response.status == 400
        assert response.body["type"] == "QueryError"

    @pytest.mark.parametrize("backend", ["dict", "sqlite"])
    def test_mistyped_cursor_is_400_on_both_engines(self, backend):
        """``["5", …]`` on an INT order key used to page on SQLite and
        return nothing from the dict engine."""
        platform = listing1_platform(nodes=2, storage=StorageConfig(backend))
        try:
            for width in (3, 5, 6, 7):
                platform.new_object("Image", {"width": width})
            token = forged_cursor(["5", "Image~0"])
            response = platform.http(
                "GET", f"/api/classes/Image/objects?order=width&limit=2&cursor={token}"
            )
            assert response.status == 400
            assert response.body["type"] == "QueryError"
            assert "'width'" in response.body["error"]
        finally:
            platform.shutdown()

    def test_file_key_not_queryable(self, platform):
        response = platform.http("GET", "/api/classes/Image/objects?where=image==x")
        assert response.status == 400
        assert response.body["type"] == "QueryError"

    def test_unknown_class_is_404(self, platform):
        response = platform.http("GET", "/api/classes/Ghost/objects?where=width>0")
        assert response.status == 404

    def test_query_observable(self):
        platform = listing1_platform(nodes=2, tracing_enabled=True, events_enabled=True)
        try:
            platform.new_object("Image", {"width": 64})
            platform.http("GET", "/api/classes/Image/objects?where=width>0")
            assert platform.store.query_ops == 1
            assert platform.store.query_docs_scanned == 1
            events = platform.platform_events("storage.query")
            assert len(events) == 1
            assert events[0].fields["cls"] == "Image"
            spans = [s for s in platform.tracer.spans() if s.name == "storage.query"]
            assert len(spans) == 1
        finally:
            platform.shutdown()

    def test_query_consumes_db_capacity(self, platform):
        store = platform.store
        platform.flush()  # settle dirty writes so only the query is billed
        before = store.units_for("objects.Image")
        platform.http("GET", "/api/classes/Image/objects?where=width>=200")
        after = store.units_for("objects.Image")
        # op_cost up front plus read_cost per scanned document.
        expected = store.model.op_cost + 3 * store.model.read_cost
        assert after - before == pytest.approx(expected)


EPHEMERAL_YAML = """
name: ephemeral-app
classes:
  - name: Counter
    constraint: { persistent: false }
    keySpecs:
      - name: n
        type: INT
        default: 0
"""


class TestEphemeralQuery:
    def test_memory_scan_over_dht_residents(self):
        from tests.helpers import make_platform

        platform = make_platform(EPHEMERAL_YAML, nodes=2)
        try:
            for n in (1, 5, 9):
                platform.new_object("Counter", {"n": n})
            response = platform.http(
                "GET", "/api/classes/Counter/objects?where=n>=5&order=n:desc&explain=1"
            )
            assert response.status == 200
            assert [d["state"]["n"] for d in response.body["objects"]] == [9, 5]
            assert response.body["plan"] == "memory-scan"
        finally:
            platform.shutdown()


class TestCliQuery:
    @pytest.fixture()
    def pkg_file(self):
        path = Path(__file__).resolve().parent.parent / (
            "examples/packages/durability_demo.yaml"
        )
        return str(path)

    def test_query_command(self, pkg_file, capsys):
        code = main(
            [
                "query", pkg_file, "--auto-handlers", "--new", "Ledger",
                "--state", json.dumps({"balance": 5}),
                "--create", json.dumps({"balance": 20}),
                "--create", json.dumps({"balance": 50}),
                "--where", "balance>=20", "--order", "balance:desc",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 object(s), 3 scanned (backend=dict)" in out
        assert "plan: dict-scan" in out

    def test_query_command_sqlite_uses_index(self, pkg_file, capsys):
        code = main(
            [
                "query", pkg_file, "--auto-handlers", "--new", "Ledger",
                "--state", json.dumps({"balance": 5}),
                "--create", json.dumps({"balance": 20}),
                "--where", "balance>=10", "--order", "balance",
                "--backend", "sqlite", "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=sqlite" in out
        assert "index used: True" in out

    def test_bad_query_fails_cleanly(self, pkg_file, capsys):
        code = main(
            [
                "query", pkg_file, "--auto-handlers", "--new", "Ledger",
                "--where", "ghost==1",
            ]
        )
        assert code == 1
        assert "query failed" in capsys.readouterr().err

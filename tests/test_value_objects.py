"""The value objects' contract.

Seven frozen dataclasses are built on every request: the invocation
request and result, the offloaded task and its completion, the object
record, and the REST request and response.  Each writes its constructor
out (one ``__dict__`` update in place of a setattr per field), so this
file holds what the generated one gave: the fields in order with their
defaults, frozen instances, ``asdict`` / ``replace`` / ``==`` / ``hash``,
and mappings copied away from the caller's.
"""

import dataclasses
import inspect
import re

import pytest

from repro.errors import ValidationError
from repro.faas.runtime import InvocationTask, TaskCompletion
from repro.http import HttpRequest, HttpResponse
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.object.obj import ObjectRecord

REQUIRED = object()
FRESH_ID = object()

#: Per type: its fields in order with their defaults (``REQUIRED``: none;
#: ``FRESH_ID``: a new ``req-N`` per instance), and a full set of
#: non-default arguments.
CONTRACT = {
    InvocationRequest: (
        {
            "object_id": REQUIRED,
            "fn_name": REQUIRED,
            "cls": None,
            "payload": {},
            "request_id": FRESH_ID,
            "internal": False,
            "caller_cls": None,
            "trace_id": None,
            "trace_parent": None,
            "origin_zone": None,
        },
        {
            "object_id": "Order~1",
            "fn_name": "add",
            "cls": "Order",
            "payload": {"n": 1},
            "request_id": "r-7",
            "internal": True,
            "caller_cls": "Flow",
            "trace_id": "t-1",
            "trace_parent": 3,
            "origin_zone": "edge",
        },
    ),
    InvocationResult: (
        {
            "request_id": REQUIRED,
            "cls": REQUIRED,
            "object_id": REQUIRED,
            "fn_name": REQUIRED,
            "ok": REQUIRED,
            "output": {},
            "error": None,
            "error_type": None,
            "created_object_id": None,
            "latency_s": 0.0,
            "retries": 0,
        },
        {
            "request_id": "r-7",
            "cls": "Order",
            "object_id": "Order~1",
            "fn_name": "add",
            "ok": False,
            "output": {"total": 2},
            "error": "boom",
            "error_type": "InvocationError",
            "created_object_id": "Order~2",
            "latency_s": 0.25,
            "retries": 2,
        },
    ),
    InvocationTask: (
        {
            "request_id": REQUIRED,
            "cls": REQUIRED,
            "object_id": REQUIRED,
            "fn_name": REQUIRED,
            "image": REQUIRED,
            "payload": {},
            "state": {},
            "file_urls": {},
            "immutable": False,
            "trace_id": None,
            "trace_parent": None,
        },
        {
            "request_id": "r-7",
            "cls": "Order",
            "object_id": "Order~1",
            "fn_name": "add",
            "image": "img/add",
            "payload": {"n": 1},
            "state": {"total": 1},
            "file_urls": {"scan": "http://store/scan"},
            "immutable": True,
            "trace_id": "t-1",
            "trace_parent": 4,
        },
    ),
    TaskCompletion: (
        {
            "request_id": REQUIRED,
            "output": {},
            "state_updates": {},
            "file_updates": {},
            "error": None,
        },
        {
            "request_id": "r-7",
            "output": {"total": 2},
            "state_updates": {"total": 2},
            "file_updates": {"scan": "bucket/scan-v2"},
            "error": "boom",
        },
    ),
    ObjectRecord: (
        {"id": REQUIRED, "cls": REQUIRED, "version": 0, "state": {}, "files": {}},
        {
            "id": "Order~1",
            "cls": "Order",
            "version": 3,
            "state": {"total": 1},
            "files": {"scan": "bucket/scan"},
        },
    ),
    HttpRequest: (
        {"method": REQUIRED, "path": REQUIRED, "body": {}, "headers": {}},
        {
            "method": "POST",
            "path": "/api/objects/Order~1/invokes/add",
            "body": {"n": 1},
            "headers": {"x-origin-zone": "edge"},
        },
    ),
    HttpResponse: (
        {"status": REQUIRED, "body": {}},
        {"status": 201, "body": {"id": "Order~1"}},
    ),
}

TYPES = list(CONTRACT)


def ids(cls):
    return cls.__name__


def build(cls):
    return cls(**CONTRACT[cls][1])


def required_args(cls):
    defaults, sample = CONTRACT[cls]
    return {name: sample[name] for name, default in defaults.items() if default is REQUIRED}


def mapping_fields(cls):
    return [name for name, value in CONTRACT[cls][1].items() if isinstance(value, dict)]


@pytest.mark.parametrize("cls", TYPES, ids=ids)
class TestValueObjectContract:
    def test_fields_in_order(self, cls):
        assert [f.name for f in dataclasses.fields(cls)] == list(CONTRACT[cls][0])

    def test_constructor_takes_the_init_fields_in_order(self, cls):
        parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
        init_fields = [f for f in dataclasses.fields(cls) if f.init]
        assert [p.name for p in parameters] == [f.name for f in init_fields]
        for parameter, f in zip(parameters, init_fields):
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            has_default = (
                f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            )
            assert (parameter.default is not inspect.Parameter.empty) == has_default, f.name
            if f.default is not dataclasses.MISSING:
                assert parameter.default == f.default, f.name

    def test_omitted_arguments_take_the_field_defaults(self, cls):
        built = cls(**required_args(cls))
        for name, default in CONTRACT[cls][0].items():
            value = getattr(built, name)
            if default is FRESH_ID:
                assert re.fullmatch(r"req-\d+", value)
                assert cls(**required_args(cls)).request_id != value
            elif default is not REQUIRED:
                assert value == default and type(value) is type(default), name

    def test_positional_arguments_fill_fields_in_order(self, cls):
        sample = CONTRACT[cls][1]
        assert cls(*sample.values()) == cls(**sample)

    def test_instances_are_frozen(self, cls):
        built = build(cls)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(built, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.extra = 1

    def test_asdict_eq_and_hash(self, cls):
        built = build(cls)
        assert dataclasses.asdict(built) == {
            f.name: getattr(built, f.name) for f in dataclasses.fields(cls)
        }
        assert built == build(cls)
        assert built != dataclasses.replace(built, **{mapping_fields(cls)[0]: {"other": 1}})
        assert cls.__hash__ is not None
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(built)

    def test_replace_rebuilds_through_the_constructor(self, cls):
        built = build(cls)
        field = mapping_fields(cls)[0]
        fresh = {"k": "v"}
        changed = dataclasses.replace(built, **{field: fresh})
        assert type(changed) is cls
        assert getattr(changed, field) == fresh and getattr(changed, field) is not fresh
        for f in dataclasses.fields(cls):
            if f.name != field:
                assert getattr(changed, f.name) == getattr(built, f.name)

    def test_mappings_are_copied_away_from_the_caller(self, cls):
        sample = CONTRACT[cls][1]
        passed = {name: dict(sample[name]) for name in mapping_fields(cls)}
        built = cls(**{**sample, **passed})
        for name, given in passed.items():
            held = getattr(built, name)
            assert held is not given and type(held) is dict
            given["injected"] = True
            assert "injected" not in held
            held["mutated"] = True
            assert "mutated" not in given


class TestTypeRules:
    """What some constructors do besides storing their arguments."""

    def test_object_record_validates(self):
        with pytest.raises(ValidationError, match="id must be non-empty"):
            ObjectRecord(id="", cls="Order")
        with pytest.raises(ValidationError, match="class must be non-empty"):
            ObjectRecord(id="Order~1", cls="")
        with pytest.raises(ValidationError, match="version must be >= 0"):
            ObjectRecord(id="Order~1", cls="Order", version=-1)
        record = build(ObjectRecord)
        with pytest.raises(ValidationError, match="version must be >= 0"):
            dataclasses.replace(record, version=-1)

    def test_object_record_updates_bump_the_version_on_a_copy(self):
        record = build(ObjectRecord)
        assert record.with_updates() is record
        updated = record.with_updates({"total": 5}, {"thumb": "bucket/t"})
        assert updated == ObjectRecord(
            id=record.id,
            cls=record.cls,
            version=record.version + 1,
            state={"total": 5},
            files={"scan": "bucket/scan", "thumb": "bucket/t"},
        )
        assert record.state == {"total": 1} and record.files == {"scan": "bucket/scan"}

    def test_http_request_normalises_method_and_headers(self):
        request = HttpRequest("post", "/x", headers={"X-Origin-Zone": "edge"})
        assert request.method == "POST"
        assert request.headers == {"x-origin-zone": "edge"}
        assert dataclasses.replace(request, method="get").method == "GET"

    def test_an_explicit_request_id_is_kept(self):
        assert InvocationRequest("Order~1", "add", request_id="r-1").request_id == "r-1"
        assert InvocationRequest("Order~1", "add", request_id="").request_id == ""

    def test_stamps_fill_fields_in_place(self):
        request = build(InvocationRequest)
        request.stamp("core", "t-9", 11)
        assert (request.origin_zone, request.trace_id, request.trace_parent) == (
            "core",
            "t-9",
            11,
        )
        result = build(InvocationResult)
        result.stamp("Base", 1.5)
        assert (result.cls, result.latency_s) == ("Base", 1.5)

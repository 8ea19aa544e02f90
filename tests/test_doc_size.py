"""``doc_size_bytes`` sizes every DHT put with one module-level encoder.

Its lengths feed every transfer time, so they must be the ones the
per-call ``json.dumps`` formula gave — byte for byte, for any JSON-shaped
document (nested containers, non-ASCII text, NaN and infinities, values
only ``default=str`` can encode) — and 512 for a document no encoder can
size.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.dht import doc_size_bytes

UNENCODABLE = 512


def reference_size(doc):
    """The formula ``doc_size_bytes`` replaced."""
    try:
        return len(json.dumps(doc, separators=(",", ":"), default=str))
    except (TypeError, ValueError):
        return UNENCODABLE


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
#: Values JSON has no type for: encoded through ``default=str``.
opaque = st.decimals() | st.datetimes() | st.complex_numbers() | st.frozensets(st.integers())
keys = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
values = st.recursive(
    scalars | opaque,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4),
    max_leaves=16,
)
documents = st.dictionaries(keys, values, max_size=6)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_sizes_equal_the_dumps_formula(doc):
    assert doc_size_bytes(doc) == reference_size(doc)


def circular(doc):
    doc["self"] = doc
    return doc


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        documents.map(circular),  # ValueError: circular reference
        st.tuples(documents, st.tuples(st.text(), st.integers())).map(
            lambda pair: {**pair[0], pair[1]: 1}  # TypeError: a tuple key
        ),
    )
)
def test_an_unencodable_document_sizes_to_512(doc):
    assert doc_size_bytes(doc) == reference_size(doc) == UNENCODABLE


def test_non_ascii_and_non_finite_values_are_sized_as_escaped():
    doc = {"id": "Order~é", "state": {"note": "日本", "x": float("nan"), "y": float("-inf")}}
    assert doc_size_bytes(doc) == len(
        '{"id":"Order~\\u00e9","state":{"note":"\\u65e5\\u672c","x":NaN,"y":-Infinity}}'
    )

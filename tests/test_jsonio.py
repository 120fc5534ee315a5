import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvrp import generator
from rvrp.jsonio import dumps, read_json, write_json

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
JSON_TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=5),
    max_leaves=40,
)


@given(JSON_TREES)
@settings(max_examples=400, deadline=None)
def test_dumps_equals_stdlib_indent_1(value):
    # the reference is the standard library's pure-Python indented encoder
    assert dumps(value) == json.dumps(value, indent=1)


def test_dumps_edge_cases():
    cases = [
        [],
        {},
        [[], {}, [[]]],
        {"a": {}, "b": []},
        [float("nan"), float("inf"), -float("inf"), -0.0],
        {"kéy": "vülü€", "\U0001f600": ["\n\t\""]},
        {1: [1], 2.5: {"x": 1}, None: [True], True: [], False: {}},
        [{"a": 1}, {"b": [2, {"c": [3]}]}],
    ]
    for value in cases:
        assert dumps(value) == json.dumps(value, indent=1)


def test_write_json_matches_stdlib_bytes(tmp_path):
    inst = generator.small_instance(25, cluster_sizes=(2, 4), forbidden_per_cluster=1)
    data = inst.to_dict()
    path = write_json(tmp_path / "sub" / "inst.json", data)
    assert path.read_bytes() == (json.dumps(data, indent=1) + "\n").encode()


@given(JSON_TREES)
@settings(max_examples=100, deadline=None)
def test_read_json_reads_what_write_json_writes(value):
    # the reference is json.loads; a NaN compares unequal to itself, so the
    # two readings are compared as text
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "value.json", value)
        assert json.dumps(read_json(path)) == json.dumps(json.loads(path.read_text(encoding="utf-8")))


def test_read_json_ignores_a_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark, as some editors save one, is not part of the
    # document (RFC 8259 8.1); a second one inside it is not JSON
    value = {"name": "caf\u00e9", "nodes": [[1, 2.5], None]}
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + dumps(value).encode())
    assert read_json(path) == value
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + dumps(value).encode())
    with pytest.raises(ValueError):
        read_json(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"x": 1, "y": 2, "y": 3, "x": 4}', "y"),
        ('[{"a": {"b": 1, "c": 2, "b": 3}}]', "b"),
        ('{"a": 1, "a": 1}', "a"),
    ],
    ids=["first-repeat", "nested", "same-value"],
)
def test_read_json_refuses_a_repeated_key(tmp_path, text, key):
    # json.loads would read each of these as the key's last value
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^the document repeats the key '{key}'$"):
        read_json(path)


@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "0" + "}" * 100_000], ids=["arrays", "objects"]
)
def test_read_json_refuses_a_document_nested_too_deeply(tmp_path, text):
    # json raises a RecursionError at a depth that depends on its caller's
    # stack; the reader names the defect as it names any other
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="^the document nests its arrays or objects too deeply to read$"):
        read_json(path)

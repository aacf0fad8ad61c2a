"""Serialization tests, anchored to golden fixture files whose bytes
were produced directly with the standard json module."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercast import StorageTopology, dbqt_schedule
from hypercast.formats import (
    dumps_document,
    dumps_instance,
    experiment_csv,
    instance_digest,
    instance_document,
    loads_instance,
    parse_instance,
    plan_document,
    read_instance,
    transcript_document,
    write_instance,
)
from hypercast.general import ExperimentRow
from hypercast.generators import random_instance
from hypercast.sim import naive_schedule, run_schedule
from conftest import FIXTURES, topologies


def test_golden_fixture_bytes_match(cyclic_topology, tree_topology):
    assert dumps_instance(cyclic_topology) == (FIXTURES / "cyclic-instance.json").read_text()
    assert dumps_instance(tree_topology) == (FIXTURES / "tree-instance.json").read_text()


def test_golden_fixture_parse(tree_topology, cyclic_topology):
    topo, meta = read_instance(FIXTURES / "tree-instance.json")
    assert topo == tree_topology and meta == {}
    topo, meta = read_instance(FIXTURES / "cyclic-instance.json")
    assert topo == cyclic_topology


def test_round_trip_with_metadata_and_payload(tmp_path):
    topo = StorageTopology(3, {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}, payload_length=9)
    path = tmp_path / "inst.json"
    write_instance(path, topo, {"seed": 5, "generator": "hand"})
    parsed, meta = read_instance(path)
    assert parsed == topo
    assert parsed.payload_length == 9
    assert meta == {"seed": 5, "generator": "hand"}


def test_serialization_is_canonical(tree_topology):
    a = dumps_instance(tree_topology)
    b = dumps_instance(StorageTopology(4, {int(v): s for v, s in reversed(list(
        enumerate([{1}, {2}, {2, 3}, {1, 4}, {3, 4}, {3}], start=1)))}))
    assert a == b
    assert a.endswith("\n")


def test_digest_ignores_metadata(tree_topology):
    d = instance_digest(tree_topology)
    assert len(d) == 64
    text = dumps_instance(tree_topology, {"seed": 1})
    topo, _ = loads_instance(text)
    assert instance_digest(topo) == d


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def instances(draw):
    """A topology from `topologies()`, maybe with a payload length, and
    metadata (maybe none) that JSON carries unchanged."""
    topo = draw(topologies())
    W = topo.num_segments
    length = draw(st.none() | st.integers(W + 1, W + 100))
    holdings = {v: topo.holding(v) for v in topo.users}
    meta = draw(st.dictionaries(st.text(max_size=6), _json_values, max_size=4))
    return StorageTopology(W, holdings, length), meta


@settings(max_examples=100, deadline=None)
@given(instances())
def test_property_loads_inverts_dumps(instance):
    topo, meta = instance
    text = dumps_instance(topo, meta)
    parsed, parsed_meta = loads_instance(text)
    assert parsed == topo and parsed.payload_length == topo.payload_length
    assert parsed_meta == meta
    assert dumps_instance(parsed, parsed_meta) == text


@settings(max_examples=100, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_property_digest_ignores_metadata_and_holding_order(instance, rng):
    topo, meta = instance
    digest = instance_digest(topo)
    assert instance_digest(loads_instance(dumps_instance(topo, meta))[0]) == digest
    users = list(topo.users)
    rng.shuffle(users)
    holdings = {v: rng.sample(sorted(topo.holding(v)), len(topo.holding(v))) for v in users}
    reordered = StorageTopology(topo.num_segments, holdings, topo.payload_length)
    assert instance_digest(reordered) == digest


def test_parse_rejects_malformed_documents(tree_topology):
    good = json.loads(dumps_instance(tree_topology))
    cases = []
    bad = dict(good); bad["format_version"] = 99; cases.append(bad)
    bad = dict(good); del bad["num_users"]; cases.append(bad)
    bad = dict(good); bad["users"] = "nope"; cases.append(bad)
    bad = dict(good); bad["users"] = good["users"][:-1]; cases.append(bad)
    bad = dict(good); bad["users"] = good["users"] + [good["users"][0]]; cases.append(bad)
    bad = json.loads(json.dumps(good)); bad["users"][0]["segments"] *= 2; cases.append(bad)
    cases.append([])
    for doc in cases:
        with pytest.raises(ValueError):
            parse_instance(doc)
    with pytest.raises(ValueError):
        loads_instance("{not json")


@pytest.fixture
def good_doc(tree_topology):
    doc = json.loads(dumps_instance(tree_topology))
    parse_instance(doc)  # the unmodified document parses
    return doc


@pytest.mark.parametrize("value", [True, 1.0, "1", 2, None])
def test_parse_rejects_format_version_other_than_the_integer_1(good_doc, value):
    good_doc["format_version"] = value
    with pytest.raises(ValueError, match="unsupported format_version"):
        parse_instance(good_doc)


@pytest.mark.parametrize("value", [2.9, 6.0, True, "6"])
def test_parse_rejects_non_integer_num_users(good_doc, value):
    good_doc["num_users"] = value
    with pytest.raises(ValueError, match="num_users"):
        parse_instance(good_doc)


@pytest.mark.parametrize("value", [4.0, False, "4"])
def test_parse_rejects_non_integer_num_segments(good_doc, value):
    good_doc["num_segments"] = value
    with pytest.raises(ValueError, match="num_segments"):
        parse_instance(good_doc)


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_parse_rejects_non_integer_user_id(good_doc, value):
    good_doc["users"][0]["id"] = value
    with pytest.raises(ValueError, match="user id"):
        parse_instance(good_doc)


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_parse_rejects_non_integer_segment_id(good_doc, value):
    good_doc["users"][0]["segments"] = [value]
    with pytest.raises(ValueError, match="segment id"):
        parse_instance(good_doc)


@pytest.mark.parametrize("value", [9.0, True, "9"])
def test_parse_rejects_non_integer_payload_length(good_doc, value):
    good_doc["payload_length"] = value
    with pytest.raises(ValueError, match="payload_length"):
        parse_instance(good_doc)


@pytest.mark.parametrize("value", [[], 0, False, "", [1], "x"])
def test_parse_rejects_non_object_metadata(good_doc, value):
    good_doc["metadata"] = value
    with pytest.raises(ValueError, match="metadata must be an object"):
        parse_instance(good_doc)


def test_parse_reads_null_metadata_as_empty(good_doc):
    good_doc["metadata"] = None
    assert parse_instance(good_doc)[1] == {}


def test_plan_document_shape(tree_topology):
    plan = dbqt_schedule(tree_topology)
    doc = plan_document(plan)
    assert doc["min_edge_weight"] == 1
    assert doc["representatives"] == [3, 5, 4]
    assert doc["num_broadcasts"] == 3
    assert [p["broadcast_count"] for p in doc["phases"]] == [1, 1, 1]
    assert doc["phases"][0]["bridge_edge"] is None
    assert doc["phases"][1]["bridge_edge"] == [3, 5, 6]
    assert [s["slot"] for s in doc["schedule"]] == [0, 1, 2]
    json.dumps(doc)  # must be JSON-ready


def test_writers_number_slots_and_phases_by_position():
    # a quasi-tree whose phases code blocks of 3 or more segments
    topo = next(
        t for t in (random_instance(8, 30, 0, 3, seed) for seed in range(50))
        if max(len(ph.block) for ph in dbqt_schedule(t).phases) >= 3
    )
    plan = dbqt_schedule(topo)
    doc = plan_document(plan)
    assert [ph["index"] for ph in doc["phases"]] == list(range(1, len(plan.phases) + 1))
    assert [s["slot"] for s in doc["schedule"]] == list(range(plan.num_broadcasts))
    t = run_schedule(topo, plan.schedule)
    assert [s["slot"] for s in transcript_document(t)["slots"]] == list(range(t.num_broadcasts))
    assert t.num_broadcasts == plan.num_broadcasts > len(plan.phases)


def test_transcript_document_shape(tree_topology):
    t = run_schedule(tree_topology, naive_schedule(tree_topology))
    doc = transcript_document(t)
    assert doc["complete"] is True
    assert doc["num_broadcasts"] == 4
    assert doc["initial_ranks"] == [1, 1, 2, 2, 2, 1]
    assert all("remaining_edges" in s for s in doc["slots"])
    assert doc["slots"][-1]["ranks"] == [4] * 6
    json.dumps(doc)


def test_experiment_csv_format():
    rows = [
        ExperimentRow(6, 16, 14.25, 13, 15, 14.0, 0),
        ExperimentRow(8, 24, 21.5, 21, 22, 21.125, 0),
    ]
    text = experiment_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "users,segments,mean_broadcasts,min_broadcasts,max_broadcasts,"
        "mean_lower_bound,violations"
    )
    assert lines[1] == "6,16,14.2500,13,15,14.0000,0"
    assert lines[2] == "8,24,21.5000,21,22,21.1250,0"
    assert text.endswith("\n")


def _stdlib_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# the stdlib writes subclasses of tuple and dict as their bases
class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    # every code point, lone surrogates and control characters included
    | st.text(st.characters(blacklist_categories=()), max_size=6)
)
# keys of one dict must compare with each other for sort_keys
_number_keys = st.integers(-(2**80), 2**80) | st.floats() | st.booleans()
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4).map(_Tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4).map(_Dict)
    | st.dictionaries(_number_keys, inner, max_size=4)
    | st.dictionaries(st.none(), inner, max_size=1),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example([0, {"a": 1}])  # a container after a scalar, without a "["
@example((0, ["a"], {}))
@example(["[", "{", 1])  # brackets in strings only
@example({2: {1: [3]}, 1: []})
def test_dumps_document_is_the_stdlib_canonical_form(doc):
    assert dumps_document(doc) == _stdlib_canonical(doc)


@pytest.mark.parametrize("doc", [
    {(1, 2): 3},
    {(1, 2): [3]},
    {"a": [1], 2: [3]},
    {"a": {1: 2, "b": 3}},
    [{"a": object()}],
])
def test_dumps_document_refuses_what_the_stdlib_refuses(doc):
    with pytest.raises(TypeError):
        _stdlib_canonical(doc)
    with pytest.raises(TypeError):
        dumps_document(doc)


def test_dumps_document_does_not_run_the_pure_python_encoder(monkeypatch, tree_topology):
    plan = dbqt_schedule(tree_topology)
    docs = [
        instance_document(tree_topology, {"seed": 1}),
        plan_document(plan),
        transcript_document(run_schedule(tree_topology, plan.schedule)),
    ]
    expected = [_stdlib_canonical(doc) for doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    # json.dumps(indent=...) builds its encoder here on the interpreters
    # whose C encoder cannot indent
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert [dumps_document(doc) for doc in docs] == expected

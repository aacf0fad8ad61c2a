"""Storage topology tests: construction, accessors and the hypergraph
model round trip."""
from __future__ import annotations

import pickle
import random
from copy import deepcopy

import pytest
from hypothesis import given, settings, strategies as st

from conftest import topologies
from hypercast import Hypergraph, StorageTopology, dumps_instance, loads_instance


def test_constructor_validation():
    with pytest.raises(ValueError):
        StorageTopology(2, {})
    with pytest.raises(ValueError):
        StorageTopology(2, {2: {1}})  # ids must start at 1
    with pytest.raises(ValueError):
        StorageTopology(2, {1: {1}, 3: {2}})  # gap
    with pytest.raises(ValueError):
        StorageTopology(2, {1: {3}})  # segment out of range
    with pytest.raises(ValueError):
        StorageTopology(2, {1: {1}}, payload_length=2)  # must exceed W
    topo = StorageTopology(2, {1: {1}, 2: {2}}, payload_length=5)
    assert topo.payload_length == 5
    assert StorageTopology(0, {1: ()}).num_segments == 0


@pytest.mark.parametrize(
    "args, kwargs, what",
    [
        ((2, {1: [1, 2.9], 2: [2]}), {}, "user 1 segment id"),
        ((2, {1: [1, 2.0]}), {}, "user 1 segment id"),
        ((2, {1: [1, True], 2: [2]}), {}, "user 1 segment id"),
        ((2, {1: [1], 2: ["2"]}), {}, "user 2 segment id"),
        ((2, {True: [1], 2: [2]}), {}, "user id"),
        ((2, {1: [1], 2.0: [2]}), {}, "user id"),
        ((True, {1: [1]}), {}, "num_segments"),
        ((2.0, {1: [1, 2]}), {}, "num_segments"),
        (("2", {1: [1, 2]}), {}, "num_segments"),
        ((0, {1: []}), {"payload_length": True}, "payload_length"),
        ((2, {1: [1, 2]}), {"payload_length": 5.0}, "payload_length"),
        ((2, {1: [1, 2]}), {"payload_length": "5"}, "payload_length"),
    ],
)
def test_constructor_refuses_what_the_parser_refuses(args, kwargs, what):
    # each of these used to be coerced, or written to a file the parser refuses
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        StorageTopology(*args, **kwargs)


@settings(max_examples=100, deadline=None)
@given(topo=topologies(), extra=st.none() | st.integers(1, 3))
def test_accepted_topologies_round_trip(topo, extra):
    if extra is not None:
        holdings = {v: topo.holding(v) for v in topo.users}
        topo = StorageTopology(topo.num_segments, holdings, topo.num_segments + extra)
    assert loads_instance(dumps_instance(topo)) == (topo, {})


def test_basic_accessors(cyclic_topology):
    t = cyclic_topology
    assert t.num_users == 6
    assert t.num_segments == 5
    assert list(t.users) == [1, 2, 3, 4, 5, 6]
    assert t.holding(3) == frozenset({1, 3, 4})
    assert t.holders_of(1) == frozenset({1, 2, 3})
    assert t.holders_of(4) == frozenset({3, 5, 6})
    with pytest.raises(ValueError):
        t.holding(0)
    with pytest.raises(ValueError):
        t.holders_of(6)


def test_to_hypergraph_cyclic_example(cyclic_topology, cyclic_h):
    h, placement, leftovers = cyclic_topology.to_hypergraph()
    assert h == cyclic_h
    assert leftovers == {}
    assert placement == {
        frozenset({1, 2, 3}): (1,),
        frozenset({1, 4}): (2,),
        frozenset({2, 3}): (3,),
        frozenset({3, 5, 6}): (4,),
        frozenset({4, 5}): (5,),
    }


def test_to_hypergraph_groups_multisegment_edges():
    t = StorageTopology(3, {1: {1, 3}, 2: {1, 3}, 3: {2}, 4: {2, 3}})
    h, placement, leftovers = t.to_hypergraph()
    # segment 3 held by {1,2,4}, segments 1 by {1,2}, 2 by {3,4}
    assert h.weight_of({1, 2}) == 1
    assert h.weight_of({3, 4}) == 1
    assert h.weight_of({1, 2, 4}) == 1
    assert leftovers == {}
    assert placement[frozenset({1, 2})] == (1,)


def test_to_hypergraph_leftovers():
    # segment 1: only user 1; segment 2: everyone; segment 3: pair
    t = StorageTopology(3, {1: {1, 2, 3}, 2: {2, 3}, 3: {2}})
    h, placement, leftovers = t.to_hypergraph()
    assert leftovers == {1: frozenset({1}), 2: frozenset({1, 2, 3})}
    assert h.edge_sets == frozenset({frozenset({1, 2})})
    assert placement == {frozenset({1, 2}): (3,)}


def test_to_hypergraph_builds_one_read_only_model(cyclic_topology):
    first = cyclic_topology.to_hypergraph()
    second = cyclic_topology.to_hypergraph()
    assert all(a is b for a, b in zip(first, second))
    _h, placement, leftovers = first
    with pytest.raises(TypeError):
        placement[frozenset({1, 2})] = (9,)
    with pytest.raises(TypeError):
        leftovers[1] = frozenset({1})
    for copy in (pickle.loads(pickle.dumps(cyclic_topology)), deepcopy(cyclic_topology)):
        assert copy == cyclic_topology and copy.to_hypergraph()[0] == first[0]


def test_to_hypergraph_rejects_uncovered_segment():
    # refused when built, so no model is ever made without the segment
    with pytest.raises(ValueError, match="segment 2 is stored nowhere"):
        StorageTopology(2, {1: {1}, 2: ()})


def test_random_round_trip_preserves_model():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(3, 8)
        edges = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(2, n - 1)
            edges.append((set(rng.sample(range(1, n + 1), size)), rng.randint(1, 4)))
        h = Hypergraph(range(1, n + 1), edges)
        # each edge's weight-many segments, numbered in edge order
        holdings = {v: set() for v in range(1, n + 1)}
        first = 1
        for e in h.edges:
            for v in e.vertices:
                holdings[v].update(range(first, first + e.weight))
            first += e.weight
        t = StorageTopology(h.total_weight, holdings)
        h2, placement, leftovers = t.to_hypergraph()
        assert h2 == h
        assert leftovers == {}
        # the placement alone rebuilds the same holdings
        rebuilt = {v: set() for v in range(1, n + 1)}
        for eset, ids in placement.items():
            for v in eset:
                rebuilt[v].update(ids)
        assert StorageTopology(h.total_weight, rebuilt) == t

"""Seeded generator tests: structure guarantees and determinism."""
from __future__ import annotations

import pytest
from hypothesis import given, reject, settings, strategies as st

from hypercast import Hypergraph, StorageTopology
from hypercast.generators import GenerationError, derive_seed, random_instance
from conftest import generated_model


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(7, "x", 1)
    assert a == derive_seed(7, "x", 1)
    assert a != derive_seed(7, "x", 2)
    assert a != derive_seed(8, "x", 1)
    assert 0 <= a < 2**64


def test_config_validation():
    with pytest.raises(ValueError, match="extra edge count must be >= 0, got -1"):
        random_instance(4, 3, -1, 3, 0)
    with pytest.raises(ValueError, match="need at least 3 users"):
        random_instance(2, 3, 0, 3, 0)
    with pytest.raises(ValueError, match="max_edge_size must be in 2..3"):
        random_instance(4, 3, 0, 1, 0)
    with pytest.raises(ValueError, match="max_edge_size must be in 2..3"):
        random_instance(4, 3, 0, 4, 0)
    with pytest.raises(ValueError, match="need at least 1 segment, got 0"):
        random_instance(4, 0, 0, 3, 0)
    with pytest.raises(GenerationError, match="segments=3 cannot host 3 extra edges"):
        random_instance(4, 3, 3, 3, 0)


def test_infeasible_segment_budget():
    # 9 users need at least 4 size-3 edges, so 3 segments cannot weight them
    with pytest.raises(GenerationError):
        random_instance(9, 3, 0, 3, 0)


def test_smallest_config():
    topo, h, placement = generated_model(3, 2, 0, 2, 0)
    assert topo.num_users == 3
    assert topo.num_segments == 2
    assert h.is_quasi_tree()
    assert sum(len(ids) for ids in placement.values()) == 2


def assert_quasi_tree_with_exact_weights(
    users: int, segments: int, max_size: int, seed: int
) -> Hypergraph:
    _topo, h, _placement = generated_model(users, segments, 0, max_size, seed)
    assert h.is_quasi_tree()
    assert h.num_vertices == users
    assert h.total_weight == segments
    assert all(len(e.vertices) <= max_size for e in h.edges)
    return h


def has_cycle(h: Hypergraph) -> bool:
    """Whether the vertex-edge incidence graph has a cycle: a forest on
    V + |E| nodes with c components has V + |E| - c links."""
    links = sum(len(e.vertices) for e in h.edges)
    return links - len(h.edges) > h.num_vertices - len(h.components())


def test_many_seeds_all_quasi_trees_with_exact_weights():
    cyclic = 0
    for seed in range(500):
        users = 3 + seed % 10
        segments = max(users, 4 + seed % 60)
        max_size = 2 + seed % min(3, users - 2)
        topo = random_instance(users, segments, 0, max_size, seed)
        h, placement, leftovers = topo.to_hypergraph()
        assert leftovers == {}
        assert h.is_quasi_tree()
        assert h.num_vertices == users
        assert h.total_weight == segments
        assert topo.num_segments == segments
        assert all(len(e.vertices) <= max_size for e in h.edges)
        # placement ids partition 1..W and sizes match the weights
        ids = sorted(w for ws in placement.values() for w in ws)
        assert ids == list(range(1, segments + 1))
        for e in h.edges:
            assert len(placement[e.vertices]) == e.weight
        cyclic += has_cycle(h)
    # overlay edges make genuine quasi-trees with cycles, not only hypertrees
    assert cyclic > 0


@pytest.mark.parametrize("users", [100, 200, 500])
def test_large_quasi_trees_on_every_seed(users):
    for seed in range(10):
        assert_quasi_tree_with_exact_weights(users, 4 * users, 3, seed)


def test_tightest_segment_budget_always_suffices():
    # ceil((V - 1) / (r - 1)) edges are the fewest that span V users
    for users in range(3, 31):
        for size in range(2, min(5, users - 1) + 1):
            budget = -(-(users - 1) // (size - 1))
            for seed in range(5):
                h = assert_quasi_tree_with_exact_weights(users, budget, size, seed)
                assert len(h.edges) == budget


def test_same_seed_same_instance():
    a = random_instance(7, 15, 0, 3, 123)
    assert a == random_instance(7, 15, 0, 3, 123)
    assert a != random_instance(7, 15, 0, 3, 124)


@pytest.mark.parametrize("extra", [0, 2])
def test_one_quasi_tree_check_and_one_topology_per_instance(monkeypatch, extra):
    calls = {"is_quasi_tree": 0, "StorageTopology": 0}
    is_quasi_tree, init = Hypergraph.is_quasi_tree, StorageTopology.__init__

    def counted_check(self):
        calls["is_quasi_tree"] += 1
        return is_quasi_tree(self)

    def counted_init(self, *args, **kwargs):
        calls["StorageTopology"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Hypergraph, "is_quasi_tree", counted_check)
    monkeypatch.setattr(StorageTopology, "__init__", counted_init)
    random_instance(12, 40, extra, 3, 1)
    assert calls == {"is_quasi_tree": 1, "StorageTopology": 1}


def test_add_cycle_edges_identity_for_zero():
    # zero extra edges give the quasi-tree that every overlay is drawn on
    for seed in range(20):
        tree = random_instance(7, 12, 0, 3, seed)
        assert tree.to_hypergraph()[0].is_quasi_tree()
        for k in (1, 2):
            topo = random_instance(7, 12 + k, k, 3, seed)
            assert all(topo.holding(v) - {13, 14} == tree.holding(v) for v in tree.users)


def test_add_cycle_edges_breaks_quasi_tree():
    _tree, tree_h, _ = generated_model(6, 4, 0, 3, 5)
    _topo, h, placement = generated_model(6, 5, 1, 3, 5)
    assert h.is_connected()
    assert not h.is_quasi_tree()
    assert h.total_weight == tree_h.total_weight + 1
    # the fresh segment continues the id sequence
    new_sets = h.edge_sets - tree_h.edge_sets
    assert len(new_sets) == 1
    assert placement[next(iter(new_sets))] == (5,)


def test_add_cycle_edges_many_seeds():
    seen = set()
    for seed in range(200):
        _topo, h, placement = generated_model(6, 6, 2, 3, seed)
        assert h.is_connected() and not h.is_quasi_tree()
        assert h.total_weight == 6
        ids = sorted(w for ws in placement.values() for w in ws)
        assert ids == [1, 2, 3, 4, 5, 6]
        seen.add(frozenset(e for e, ws in placement.items() if ws in ((5,), (6,))))
    # the overlay actually varies across seeds
    assert len(seen) > 5


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_random_instance_is_a_quasi_tree_plus_its_overlay(data):
    V = data.draw(st.integers(3, 12), label="users")
    r = data.draw(st.integers(2, min(4, V - 1)), label="max_edge_size")
    k = data.draw(st.integers(0, 3), label="extra_edges")
    tightest = -(-(V - 1) // (r - 1))
    W = data.draw(st.integers(tightest + k, 40), label="segments")
    seed = data.draw(st.integers(), label="seed")
    try:
        topo = random_instance(V, W, k, r, seed)
    except GenerationError as exc:
        assert "no room" in str(exc)  # every vertex set of size 2..r is taken
        reject()
    h, placement, leftovers = topo.to_hypergraph()
    assert topo.num_segments == W and leftovers == {}
    assert h.is_connected()
    assert all(len(e.vertices) <= r for e in h.edges)
    assert h.is_quasi_tree() == (k == 0)
    for w in range(W - k + 1, W + 1):
        assert placement[topo.holders_of(w)] == (w,)
    tree = random_instance(V, W - k, 0, r, seed)
    tree_ids = set(range(1, W - k + 1))
    assert all(topo.holding(v) & tree_ids == tree.holding(v) for v in topo.users)

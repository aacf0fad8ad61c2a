"""Seeded generator tests: structure guarantees and determinism."""
from __future__ import annotations

import pytest

from hypercast import Hypergraph
from hypercast.generators import (
    GenConfig,
    GenerationError,
    add_cycle_edges,
    derive_seed,
    random_quasi_tree,
)


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(7, "x", 1)
    assert a == derive_seed(7, "x", 1)
    assert a != derive_seed(7, "x", 2)
    assert a != derive_seed(8, "x", 1)
    assert 0 <= a < 2**64


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(num_users=2, num_segments=3)
    with pytest.raises(ValueError):
        GenConfig(num_users=4, num_segments=3, max_edge_size=1)
    with pytest.raises(ValueError):
        GenConfig(num_users=4, num_segments=3, max_edge_size=4)
    with pytest.raises(ValueError):
        GenConfig(num_users=4, num_segments=0)


def test_infeasible_segment_budget():
    # 9 users need at least 4 size-3 edges, so 3 segments cannot weight them
    with pytest.raises(GenerationError):
        random_quasi_tree(GenConfig(num_users=9, num_segments=3))


def test_smallest_config():
    topo, h, placement = random_quasi_tree(GenConfig(num_users=3, num_segments=2, max_edge_size=2))
    assert topo.num_users == 3
    assert topo.num_segments == 2
    assert h.is_quasi_tree()
    assert sum(len(ids) for ids in placement.values()) == 2


def assert_quasi_tree_with_exact_weights(cfg: GenConfig) -> Hypergraph:
    _topo, h, _placement = random_quasi_tree(cfg)
    assert h.is_quasi_tree()
    assert h.num_vertices == cfg.num_users
    assert h.total_weight == cfg.num_segments
    assert all(len(e.vertices) <= cfg.max_edge_size for e in h.edges)
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
        cfg = GenConfig(
            num_users=users,
            num_segments=segments,
            max_edge_size=2 + seed % min(3, users - 2),
            seed=seed,
        )
        topo, h, placement = random_quasi_tree(cfg)
        assert h.is_quasi_tree()
        assert h.num_vertices == users
        assert h.total_weight == segments
        assert topo.num_segments == segments
        assert all(len(e.vertices) <= cfg.max_edge_size for e in h.edges)
        # placement ids partition 1..W and sizes match the weights
        ids = sorted(w for ws in placement.values() for w in ws)
        assert ids == list(range(1, segments + 1))
        for e in h.edges:
            assert len(placement[e.vertices]) == e.weight
        # model round trip agrees
        h2, placement2, leftovers = topo.to_hypergraph()
        assert h2 == h and placement2 == placement and leftovers == {}
        cyclic += has_cycle(h)
    # overlay edges make genuine quasi-trees with cycles, not only hypertrees
    assert cyclic > 0


@pytest.mark.parametrize("users", [100, 200, 500])
def test_large_quasi_trees_on_every_seed(users):
    for seed in range(10):
        assert_quasi_tree_with_exact_weights(GenConfig(users, 4 * users, 3, seed))


def test_tightest_segment_budget_always_suffices():
    # ceil((V - 1) / (r - 1)) edges are the fewest that span V users
    for users in range(3, 31):
        for size in range(2, min(5, users - 1) + 1):
            budget = -(-(users - 1) // (size - 1))
            for seed in range(5):
                h = assert_quasi_tree_with_exact_weights(GenConfig(users, budget, size, seed))
                assert len(h.edges) == budget


def test_same_seed_same_instance():
    cfg = GenConfig(num_users=7, num_segments=15, seed=123)
    a = random_quasi_tree(cfg)
    b = random_quasi_tree(cfg)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    c = random_quasi_tree(GenConfig(num_users=7, num_segments=15, seed=124))
    assert a[0] != c[0]


def test_add_cycle_edges_identity_for_zero(tree_h):
    placement = {e.vertices: (i + 1,) for i, e in enumerate(tree_h.edges)}
    h2, p2 = add_cycle_edges(tree_h, placement, 0, seed=5, max_size=3)
    assert h2 == tree_h and p2 == placement


def test_add_cycle_edges_breaks_quasi_tree(tree_h, tree_topology):
    _, placement, _ = tree_topology.to_hypergraph()
    h2, p2 = add_cycle_edges(tree_h, placement, 1, seed=5, max_size=3)
    assert h2.is_connected()
    assert not h2.is_quasi_tree()
    assert h2.total_weight == tree_h.total_weight + 1
    # the fresh segment continues the id sequence
    new_sets = h2.edge_sets - tree_h.edge_sets
    assert len(new_sets) == 1
    assert p2[next(iter(new_sets))] == (5,)


def test_add_cycle_edges_requires_quasi_tree():
    tri = Hypergraph([1, 2, 3], [({1, 2}, 1), ({2, 3}, 1), ({1, 3}, 1)])
    placement = {e.vertices: (i + 1,) for i, e in enumerate(tri.edges)}
    with pytest.raises(ValueError):
        add_cycle_edges(tri, placement, 1, seed=0, max_size=3)


def test_add_cycle_edges_many_seeds(tree_h, tree_topology):
    _, placement, _ = tree_topology.to_hypergraph()
    seen = set()
    for seed in range(200):
        h2, p2 = add_cycle_edges(tree_h, placement, 2, seed=seed, max_size=3)
        assert h2.is_connected() and not h2.is_quasi_tree()
        assert h2.total_weight == 6
        ids = sorted(w for ws in p2.values() for w in ws)
        assert ids == [1, 2, 3, 4, 5, 6]
        seen.add(h2)
    # the overlay actually varies across seeds
    assert len(seen) > 5

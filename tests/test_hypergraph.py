"""Structural hypergraph tests.

Connectivity and min-cut results are cross-checked against independent
oracles: breadth-first reachability over an incidence expansion, full
bipartition enumeration (`brute_min_cut_weight` in conftest), and
(beyond what enumeration reaches, when networkx is installed) maximum
flow on Lawler's network.  The min cut's witness is checked against the
maximum-adjacency loop as first written, which rebuilt its edges every
phase (`min_cut_by_rebuilding`).
"""
from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypercast import Edge, Hypergraph, MinCut
from hypercast.generators import random_instance
from conftest import brute_min_cut_weight, random_subset


# -- oracles ------------------------------------------------------------


def bfs_components(h: Hypergraph) -> list[frozenset[int]]:
    adj: dict[int, set[int]] = {v: set() for v in h.vertices}
    for e in h.edges:
        for a in e.vertices:
            adj[a] |= e.vertices - {a}
    seen: set[int] = set()
    out = []
    for start in sorted(h.vertices):
        if start in seen:
            continue
        frontier = [start]
        comp = {start}
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in comp:
                        comp.add(u)
                        nxt.append(u)
            frontier = nxt
        seen |= comp
        out.append(frozenset(comp))
    return out


def union_find(h: Hypergraph, skip: frozenset[int] | None = None) -> list[frozenset[int]]:
    """Components by union-find over every edge except the one on `skip`,
    one pass per call: the structure layer as first written, kept as the
    oracle of the DFS that finds components and bridges at once."""
    parent = {v: v for v in h.vertices}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in h.edges:
        if e.vertices == skip:
            continue
        it = iter(e.vertices)
        first = find(next(it))
        for v in it:
            root = find(v)
            if root != first:
                parent[root] = first
    groups: dict[int, set[int]] = {}
    for v in h.vertices:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def min_cut_by_rebuilding(h: Hypergraph) -> MinCut:
    """Maximum-adjacency min cut as first written, kept as the oracle of
    the contraction in place: every phase rebuilds each vertex's incidence
    list, and every merge re-keys the edges into a fresh dict, dropping
    one-member edges and summing parallel ones."""
    parts = union_find(h)
    if len(parts) > 1:
        return MinCut(0, parts[0])
    start = min(h.vertices)
    members = {v: frozenset((v,)) for v in sorted(h.vertices)}
    edges = [(e.vertices, e.weight) for e in h.edges]
    best: MinCut | None = None
    while len(members) > 1:
        incident: dict[int, list[int]] = {v: [] for v in members}
        for i, (eset, _w) in enumerate(edges):
            for v in eset:
                incident[v].append(i)
        tie = dict.fromkeys(members, 0)
        touched = [False] * len(edges)
        heap = [(0, start)]
        order = []
        while heap:
            neg, v = heapq.heappop(heap)
            if tie.get(v) != -neg:
                continue
            order.append(v)
            cut = tie.pop(v)
            for i in incident[v]:
                if not touched[i]:
                    touched[i] = True
                    eset, w = edges[i]
                    for u in eset:
                        if u in tie:
                            tie[u] += w
                            heapq.heappush(heap, (-tie[u], u))
        s, t = order[-2], order[-1]
        if best is None or cut < best.capacity:
            best = MinCut(cut, members[t])
        members[s] |= members.pop(t)
        merged: dict[frozenset[int], int] = {}
        for eset, w in edges:
            if t in eset:
                eset = (eset - {t}) | {s}
            if len(eset) > 1:
                merged[eset] = merged.get(eset, 0) + w
        edges = list(merged.items())
    assert best is not None
    return best


def random_hypergraph(rng: random.Random, num_vertices: int, num_edges: int) -> Hypergraph:
    vs = range(1, num_vertices + 1)
    edges = []
    for _ in range(num_edges):
        eset = random_subset(rng, vs, 2, min(4, num_vertices))
        edges.append((eset, rng.randint(1, 5)))
    return Hypergraph(vs, edges)


# -- construction -------------------------------------------------------


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(frozenset({1}))
    with pytest.raises(ValueError):
        Edge(frozenset({0, 1}))
    with pytest.raises(ValueError):
        Edge(frozenset({1, 2}), 0)
    assert Edge(frozenset({2, 1})).key == (1, 2)


def test_constructor_merges_duplicate_vertex_sets():
    h = Hypergraph([1, 2, 3], [({1, 2}, 1), ({2, 1}, 2), ({2, 3}, 1)])
    assert h.weight_of({1, 2}) == 3
    assert h.total_weight == 4
    assert len(h.edges) == 2


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Hypergraph([], [])
    with pytest.raises(ValueError):
        Hypergraph([1, 2], [({1, 3}, 1)])
    with pytest.raises(ValueError):
        Hypergraph([1, 2], [({1}, 1)])
    with pytest.raises(ValueError):
        Hypergraph([1, 2], [({1, 2}, 0)])
    with pytest.raises(ValueError):
        Hypergraph([0, 1], [])


# where a non-integer goes, and what the refusal calls it
NON_INTEGER_SITES = {
    "vertices": (lambda x: Hypergraph([x, 3], []), "vertex id"),
    "edge": (lambda x: Hypergraph([1, 2, 3], [({x, 3}, 1)]), "vertex id"),
    "weight": (lambda x: Hypergraph([1, 2, 3], [({2, 3}, x)]), "edge weight"),
    "Edge": (lambda x: Edge(frozenset({x, 3})), "vertex id"),
    "Edge-weight": (lambda x: Edge(frozenset({2, 3}), x), "edge weight"),
}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, x, id=str(x) if site == "vertices" else f"{site}-{x}")
    for site in NON_INTEGER_SITES for x in (1.9, 2.0, "2", True)
])
def test_constructor_refuses_non_integer_vertex_ids(site, value):
    """Vertex ids, in the vertex list and in an edge, and edge weights are
    refused, not coerced by int() or read as the int a bool equals, by
    Hypergraph and by Edge, as StorageTopology refuses its ids."""
    build, what = NON_INTEGER_SITES[site]
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        build(value)


def test_edges_sorted_deterministically():
    h = Hypergraph(range(1, 7), [({4, 5}, 1), ({1, 4}, 2), ({3, 5, 6}, 1), ({2, 3}, 1)])
    assert [e.key for e in h.edges] == [(1, 4), (2, 3), (3, 5, 6), (4, 5)]


def test_equality_and_hash():
    a = Hypergraph([1, 2, 3], [({1, 2}, 2)])
    b = Hypergraph([1, 2, 3], [({1, 2}, 1), ({1, 2}, 1)])
    c = Hypergraph([1, 2, 3], [({1, 2}, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_with_and_without_edge():
    h = Hypergraph([1, 2, 3], [({1, 2}, 1)])
    # the constructor merges a repeated vertex set by summing weights
    h3 = Hypergraph([1, 2, 3], [({1, 2}, 1), ({1, 2}, 2), ({2, 3}, 1)])
    assert h3.weight_of({1, 2}) == 3
    assert h3.weight_of({2, 3}) == 1
    assert h3.without_edge({1, 2}).edge_sets == frozenset({frozenset({2, 3})})
    with pytest.raises(ValueError):
        h.without_edge({2, 3})
    # connected_without answers for the graph that without_edge would build
    tri = Hypergraph([1, 2, 3], [({1, 2}, 3), ({2, 3}, 1), ({1, 3}, 1)])
    for g in (h3, tri):
        for e in g.edges:
            assert g.connected_without(e.vertices) == g.without_edge(e.vertices).is_connected()
    assert not h3.connected_without({1, 2}) and tri.connected_without({1, 2})
    with pytest.raises(ValueError):
        h.connected_without({2, 3})


# -- frozen example values ---------------------------------------------


def test_degree_on_cyclic_example(cyclic_h):
    assert cyclic_h.degree(1) == (2, 2)
    assert cyclic_h.degree(3) == (3, 3)
    assert cyclic_h.degree(6) == (1, 1)
    with pytest.raises(ValueError):
        cyclic_h.degree(7)


def test_incident_order(cyclic_h):
    assert [e.key for e in cyclic_h.incident(3)] == [(1, 2, 3), (2, 3), (3, 5, 6)]


def test_induced_on_cyclic_example(cyclic_h):
    sub = cyclic_h.induced({2, 3, 6})
    assert {e.key: e.weight for e in sub.edges} == {(2, 3): 2, (3, 6): 1}
    # weight multiset as stated for the worked example
    assert sorted(e.weight for e in sub.edges) == [1, 2]
    sub2 = cyclic_h.induced({1, 2, 4})
    assert {e.key: e.weight for e in sub2.edges} == {(1, 2): 1, (1, 4): 1}


def test_induced_merges_coinciding_intersections():
    h = Hypergraph(range(1, 6), [({1, 2, 3}, 1), ({1, 2, 4}, 2)])
    sub = h.induced({1, 2, 5})
    assert {e.key: e.weight for e in sub.edges} == {(1, 2): 3}


# -- connectivity -------------------------------------------------------


def test_components_sorted_by_min():
    h = Hypergraph(range(1, 8), [({6, 7}, 1), ({1, 2}, 1), ({2, 3}, 1)])
    assert h.components() == (
        frozenset({1, 2, 3}),
        frozenset({4}),
        frozenset({5}),
        frozenset({6, 7}),
    )
    assert not h.is_connected()


def test_connectivity_matches_bfs_oracle(cyclic_h, tree_h):
    rng = random.Random(17)
    graphs = [cyclic_h, tree_h] + [
        random_hypergraph(rng, rng.randint(2, 9), rng.randint(0, 8)) for _ in range(80)
    ]
    for h in graphs:
        assert list(h.components()) == bfs_components(h)
        assert h.is_connected() == (len(bfs_components(h)) == 1)


def test_quasi_tree_frozen_cases(cyclic_h, tree_h):
    assert tree_h.is_quasi_tree()
    assert not cyclic_h.is_quasi_tree()
    # two overlapping triples sharing a pair: removal of either orphans a vertex
    assert Hypergraph([1, 2, 3, 4], [({1, 2, 3}, 1), ({1, 2, 4}, 1)]).is_quasi_tree()
    assert Hypergraph([1, 2], [({1, 2}, 1)]).is_quasi_tree()
    # triangle of pair edges stays connected after any removal
    tri = Hypergraph([1, 2, 3], [({1, 2}, 1), ({2, 3}, 1), ({1, 3}, 1)])
    assert not tri.is_quasi_tree()
    assert not Hypergraph([1, 2, 3], [({1, 2}, 1)]).is_quasi_tree()  # disconnected


def test_ordinary_trees_are_quasi_trees():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 10)
        edges = [({rng.randint(1, v - 1), v}, rng.randint(1, 4)) for v in range(2, n + 1)]
        assert Hypergraph(range(1, n + 1), edges).is_quasi_tree()


# -- cuts ---------------------------------------------------------------


def test_cut_frozen_value(cyclic_h):
    cut = cyclic_h.cut({4, 5, 6})
    assert cut.weight == 2
    assert {e.key for e in cut.crossing_edges} == {(1, 4), (3, 5, 6)}
    # complement gives the same crossing set
    assert cyclic_h.cut({1, 2, 3}).weight == 2


def test_cut_rejects_improper_sides(cyclic_h):
    with pytest.raises(ValueError):
        cyclic_h.cut(set())
    with pytest.raises(ValueError):
        cyclic_h.cut(set(cyclic_h.vertices))
    with pytest.raises(ValueError):
        cyclic_h.cut({99})


def test_partition_by_cut_frozen(cyclic_h):
    crossing, inside, outside = cyclic_h.partition_by_cut({4, 5, 6})
    assert {e.key for e in crossing} == {(1, 4), (3, 5, 6)}
    assert {e.key for e in inside} == {(4, 5)}
    assert {e.key for e in outside} == {(1, 2, 3), (2, 3)}


def test_partition_by_cut_is_a_partition():
    rng = random.Random(31)
    for _ in range(100):
        h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(1, 8))
        x = random_subset(rng, h.vertices, 1, h.num_vertices - 1)
        crossing, inside, outside = h.partition_by_cut(x)
        sets = [frozenset(e.vertices for e in part) for part in (crossing, inside, outside)]
        assert sets[0] | sets[1] | sets[2] == h.edge_sets
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
        assert sum(e.weight for part in (crossing, inside, outside) for e in part) == h.total_weight


def test_min_cut_frozen_values(cyclic_h, tree_h):
    assert cyclic_h.min_cut().capacity == 1 == brute_min_cut_weight(cyclic_h)
    assert tree_h.min_cut().capacity == 1 == brute_min_cut_weight(tree_h)
    assert min(e.weight for e in tree_h.edges) == 1


def test_min_cut_witness_achieves_capacity(cyclic_h, tree_h):
    rng = random.Random(41)
    graphs = [cyclic_h, tree_h]
    for _ in range(40):
        h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(1, 8))
        graphs.append(h)
    for h in graphs:
        mc = h.min_cut()
        if len(h.components()) > 1:
            assert mc.capacity == 0
            continue
        assert h.cut(mc.witness).weight == mc.capacity
        assert mc.capacity == brute_min_cut_weight(h)


def test_min_cut_edge_scan_agrees_on_quasi_trees(tree_h):
    for h in (
        tree_h,
        Hypergraph([1, 2, 3, 4], [({1, 2, 3}, 2), ({3, 4}, 5)]),
        Hypergraph([1, 2], [({1, 2}, 7)]),
    ):
        assert h.is_quasi_tree()
        scan = min(e.weight for e in h.edges)
        assert h.min_cut().capacity == scan == brute_min_cut_weight(h)


def test_min_cut_weighted_scan_picks_lightest_edge():
    h = Hypergraph([1, 2, 3], [({1, 2}, 4), ({2, 3}, 2)])
    mc = h.min_cut()
    assert mc.capacity == 2
    assert h.cut(mc.witness).weight == 2


def test_min_cut_errors_and_limits():
    with pytest.raises(ValueError):
        Hypergraph([1], []).min_cut()
    # disconnected: capacity 0, the first component as witness
    disc = Hypergraph([1, 2, 3, 4], [({1, 2}, 1), ({3, 4}, 1)])
    assert disc.min_cut().capacity == 0
    assert disc.min_cut().witness == frozenset({1, 2})


def test_min_cut_vertex_limit():
    n = 26
    chain = [({v, v + 1}, 1) for v in range(1, n)]
    cyc = Hypergraph(range(1, n + 1), chain + [({1, 3}, 1)])
    assert not cyc.is_quasi_tree()
    mc = cyc.min_cut()
    assert mc.capacity == 1 and cyc.cut(mc.witness).weight == 1
    # a large quasi-tree: the cut is its lightest edge
    star = Hypergraph(range(1, 31), [({1, v}, 1) for v in range(2, 31)])
    assert star.min_cut().capacity == 1 == min(e.weight for e in star.edges)


@st.composite
def small_hypergraphs(draw, min_vertices: int = 2):
    """Up to 9 vertices, edges of any size 2..V with weights 1..5; repeated
    vertex sets (merged by the constructor) and disconnected graphs occur."""
    V = draw(st.integers(min_vertices, 9))
    if V == 1:
        return Hypergraph([1])
    edge = st.tuples(
        st.frozensets(st.integers(1, V), min_size=2, max_size=V), st.integers(1, 5)
    )
    return Hypergraph(range(1, V + 1), draw(st.lists(edge, max_size=12)))


@settings(max_examples=400, deadline=None)
@given(h=small_hypergraphs(min_vertices=1))
def test_property_structure_matches_union_find(h):
    """Components, connectivity, each edge's removal and the quasi-tree
    test all agree with one union-find pass per question."""
    parts = union_find(h)
    assert list(h.components()) == parts
    assert h.is_connected() == (len(parts) == 1)
    stays = [len(union_find(h, e.vertices)) == 1 for e in h.edges]
    assert [h.connected_without(e.vertices) for e in h.edges] == stays
    assert h.is_quasi_tree() == (len(parts) == 1 and not any(stays))
    for v in h.vertices:
        assert h.incident(v) == tuple(e for e in h.edges if v in e.vertices)
    for e in h.edges:  # a derived graph finds its own structure
        assert list(h.without_edge(e.vertices).components()) == union_find(h, e.vertices)


@settings(max_examples=300, deadline=None)
@given(h=small_hypergraphs())
def test_property_default_min_cut_matches_exhaustive(h):
    mc = h.min_cut()
    assert mc.capacity == brute_min_cut_weight(h)
    assert h.cut(mc.witness).weight == mc.capacity


@settings(max_examples=300, deadline=None)
@given(h=small_hypergraphs())
def test_property_min_cut_matches_rebuilding_oracle(h):
    """Contraction in place finds the cut and the witness that rebuilding
    the incidence lists and merging the edges every phase finds."""
    assert h.min_cut() == min_cut_by_rebuilding(h)


@pytest.mark.parametrize(
    "users, segments, extra", [(30, 120, 1), (60, 240, 2), (200, 800, 3), (500, 2000, 4)]
)
def test_min_cut_matches_rebuilding_oracle_on_generated_models(users, segments, extra):
    rng = random.Random(users)
    for seed in (1, 2):
        h, _placement, _leftovers = random_instance(users, segments, extra, 3, seed).to_hypergraph()
        # redrawn weights move the lightest cut away from the generator's
        # own weights: the witnesses here range from 1 to 25 vertices
        h = Hypergraph(h.vertices, [(e.vertices, rng.randint(1, 9)) for e in h.edges])
        assert not h.is_quasi_tree()
        assert h.min_cut() == min_cut_by_rebuilding(h)


def flow_min_cut(nx, h: Hypergraph) -> int:
    """Lawler's reduction: edge e becomes an arc e_in -> e_out of capacity
    w(e), and each member v gets uncapacitated arcs v -> e_in and
    e_out -> v.  A minimum s-t cut of that network is a minimum hypergraph
    cut separating s from t; the global cut is the least over t."""
    g = nx.DiGraph()
    for i, e in enumerate(h.edges):
        g.add_edge(("in", i), ("out", i), capacity=e.weight)
        for v in e.vertices:
            g.add_edge(v, ("in", i))
            g.add_edge(("out", i), v)
    s, *rest = sorted(h.vertices)
    return min(nx.maximum_flow_value(g, s, t) for t in rest)


@pytest.mark.parametrize("users, segments, extra", [(30, 120, 3), (60, 240, 4)])
def test_min_cut_matches_flow_oracle_beyond_exhaustive_limit(users, segments, extra):
    nx = pytest.importorskip("networkx")
    for seed in (1, 2):
        h, _placement, _leftovers = random_instance(users, segments, extra, 3, seed).to_hypergraph()
        # more vertices than brute_min_cut_weight can enumerate
        assert h.num_vertices > 24 and not h.is_quasi_tree()
        mc = h.min_cut()
        assert mc.capacity == flow_min_cut(nx, h)
        assert h.cut(mc.witness).weight == mc.capacity


def test_min_cut_monotone_under_weight_increase():
    rng = random.Random(53)
    for _ in range(30):
        h = random_hypergraph(rng, rng.randint(3, 7), rng.randint(2, 6))
        if not h.is_connected():
            continue
        base = brute_min_cut_weight(h)
        e = h.edges[rng.randrange(len(h.edges))]
        pairs = [(f.vertices, f.weight) for f in h.edges]
        bumped = Hypergraph(h.vertices, pairs + [(e.vertices, 3)])
        assert bumped.min_cut().capacity == brute_min_cut_weight(bumped) >= base

"""General-hypergraph planning: reduction, degree bound, completion
sweep, and the experiment harness."""
from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings

from conftest import brute_min_cut_weight, topologies
from hypercast import Hypergraph, StorageTopology
from hypercast.general import (
    ExperimentConfig,
    dbqt_general,
    iter_experiment_instances,
    min_degree_bound,
    run_experiment,
    spanning_quasi_tree,
)
from hypercast.dbqt import QuasiTreePlan, dbqt_schedule, plan_phases
from hypercast.formats import dumps_document, plan_document
from hypercast.sim import naive_schedule, run_schedule
from hypercast.generators import random_instance


def test_spanning_reduction_drops_cycle_edge(cyclic_h, tree_h):
    red = spanning_quasi_tree(cyclic_h)
    assert red.kept == tree_h
    assert [e.key for e in red.removed] == [(1, 2, 3)]
    assert min(e.weight for e in red.kept.edges) == 1


def test_spanning_reduction_identity_on_quasi_trees(tree_h):
    red = spanning_quasi_tree(tree_h)
    assert red.kept == tree_h
    assert red.removed == ()


def test_spanning_reduction_prefers_light_edges():
    h = Hypergraph([1, 2, 3], [({1, 2}, 5), ({2, 3}, 1), ({1, 3}, 2)])
    red = spanning_quasi_tree(h)
    assert [e.key for e in red.removed] == [(2, 3)]
    assert red.kept.total_weight == 7


def restart_reduction(h):
    """Oracle: after every removal, rescan from the lightest edge."""
    current, removed = h, []
    while True:
        for e in sorted(current.edges, key=lambda e: (e.weight, e.key)):
            if current.without_edge(e.vertices).is_connected():
                removed.append(e)
                current = current.without_edge(e.vertices)
                break
        else:
            return current, tuple(removed)


def test_spanning_reduction_matches_restart_loop():
    rng = random.Random(47)
    done = 0
    while done < 150:
        n = rng.randint(3, 12)
        edges = []
        for _ in range(rng.randint(n - 1, 3 * n)):
            size = rng.randint(2, min(4, n))
            edges.append((set(rng.sample(range(1, n + 1), size)), rng.randint(1, 3)))
        h = Hypergraph(range(1, n + 1), edges)
        if not h.is_connected():
            continue
        red = spanning_quasi_tree(h)
        assert (red.kept, red.removed) == restart_reduction(h)
        done += 1


def test_spanning_reduction_random_outputs_are_quasi_trees():
    rng = random.Random(43)
    done = 0
    while done < 100:
        n = rng.randint(3, 9)
        edges = []
        for _ in range(rng.randint(n, 2 * n)):
            size = rng.randint(2, min(3, n - 1))
            edges.append((set(rng.sample(range(1, n + 1), size)), rng.randint(1, 4)))
        h = Hypergraph(range(1, n + 1), edges)
        if not h.is_connected():
            continue
        red = spanning_quasi_tree(h)
        assert red.kept.is_quasi_tree()
        assert red.kept.vertices == h.vertices
        assert red.kept.total_weight + sum(e.weight for e in red.removed) == h.total_weight
        done += 1


def test_spanning_reduction_rejects_disconnected():
    with pytest.raises(ValueError):
        spanning_quasi_tree(Hypergraph([1, 2, 3, 4], [({1, 2}, 1), ({3, 4}, 1)]))


def test_min_degree_bound_values(cyclic_h):
    # lightest vertex is 6 with weighted degree 1
    assert min_degree_bound(cyclic_h) == 4
    # strict dominance case: min-cut bound 6 beats degree bound 4
    h = Hypergraph([1, 2, 3, 4], [({1, 2}, 3), ({3, 4}, 3), ({2, 3}, 1)])
    assert min_degree_bound(h) == 7 - 3
    assert h.total_weight - brute_min_cut_weight(h) == 6
    # star: both bounds coincide
    star = Hypergraph(range(1, 6), [({1, v}, 1) for v in range(2, 6)])
    assert min_degree_bound(star) == star.total_weight - 1
    assert star.min_cut().capacity == 1


def test_min_degree_never_beats_min_cut_bound():
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 8)
        edges = [
            (set(rng.sample(range(1, n + 1), rng.randint(2, min(4, n - 1)))), rng.randint(1, 5))
            for _ in range(rng.randint(2, 8))
        ]
        h = Hypergraph(range(1, n + 1), edges)
        if not h.is_connected():
            continue
        cut_bound = h.total_weight - brute_min_cut_weight(h)
        assert cut_bound >= min_degree_bound(h)
        checked += 1


def lower_bound(topo):
    h, _placement, _leftovers = topo.to_hypergraph()
    return h.total_weight - h.min_cut().capacity if topo.num_users >= 2 else 0


def test_dbqt_general_triangle(triangle_topology):
    coded = dbqt_general(triangle_topology)
    transcript = run_schedule(triangle_topology, coded, completion=True)
    assert transcript.num_broadcasts == 2
    assert lower_bound(triangle_topology) == 1
    assert transcript.complete
    t = run_schedule(triangle_topology, transcript.schedule)
    assert t.complete and t.num_broadcasts == 2


def test_dbqt_general_matches_plain_planner_on_quasi_trees(tree_topology):
    coded = dbqt_general(tree_topology)
    transcript = run_schedule(tree_topology, coded, completion=True)
    assert transcript.num_broadcasts == len(coded)
    assert transcript.num_broadcasts == 3 == lower_bound(tree_topology)
    assert run_schedule(tree_topology, transcript.schedule).complete


def test_dbqt_general_disconnected_sends_each_lacked_segment_uncoded(disconnected_topology):
    # no segment is stored by every user, so each one goes out once,
    # from its lowest holder: the naive schedule
    coded = dbqt_general(disconnected_topology)
    transcript = run_schedule(disconnected_topology, coded, completion=True)
    assert transcript.num_broadcasts == disconnected_topology.num_segments
    assert coded == []
    assert transcript.schedule == naive_schedule(disconnected_topology)
    assert transcript.complete


@pytest.mark.parametrize(
    "holdings, lower, sent",
    [
        # two islands, segment 4 on every user: w(E) - c = 3
        ({1: {1, 2, 4}, 2: {1, 2, 4}, 3: {3, 4}, 4: {3, 4}}, 3, [(1, 1), (1, 2), (3, 3)]),
        # two users: segment 2 is on both, and no holder set is an edge
        ({1: {1, 2}, 2: {2, 3}}, 0, [(1, 1), (2, 3)]),
    ],
)
def test_dbqt_general_never_sends_a_segment_every_user_stores(holdings, lower, sent):
    topo = StorageTopology(max(map(max, holdings.values())), holdings)
    coded = dbqt_general(topo)
    transcript = run_schedule(topo, coded, completion=True)
    assert transcript.complete
    h, _placement, _leftovers = topo.to_hypergraph()
    assert (h.min_cut().capacity, lower_bound(topo), len(coded)) == (0, lower, 0)
    assert transcript.num_broadcasts == len(sent)
    assert [(b.sender, b.coefficients.index(1) + 1) for b in transcript.schedule] == sent


@settings(max_examples=150, deadline=None)
@given(topo=topologies())
def test_property_dbqt_general_on_any_topology(topo):
    coded = dbqt_general(topo)
    transcript = run_schedule(topo, coded, completion=True)
    W = topo.num_segments
    assert transcript.complete and transcript.schedule[: len(coded)] == coded
    assert lower_bound(topo) <= transcript.num_broadcasts <= W
    everyone = frozenset(topo.users)
    for b in transcript.schedule[len(coded):]:
        (w,) = [w for w, c in enumerate(b.coefficients, start=1) if c]
        assert topo.holders_of(w) != everyone
    h, _placement, leftovers = topo.to_hypergraph()
    if h.is_quasi_tree() and not leftovers:
        delta = min(e.weight for e in h.edges)
        assert transcript.num_broadcasts == W - delta == dbqt_schedule(topo).num_broadcasts


def test_dbqt_general_trivial_instances():
    for topo in (StorageTopology(2, {1: {1, 2}}), StorageTopology(0, {1: (), 2: ()})):
        coded = dbqt_general(topo)
        transcript = run_schedule(topo, coded, completion=True)
        assert coded == [] and transcript.schedule == []


def test_dbqt_general_random_cyclic_instances_stay_in_band():
    rng = random.Random(53)
    for trial in range(25):
        users = rng.randint(4, 9)
        tree_segments = rng.randint(users, 24)
        max_size = rng.randint(2, min(3, users - 1))
        extra = rng.randint(1, 2)
        topo = random_instance(users, tree_segments + extra, extra, max_size, 1000 + trial)
        coded = dbqt_general(topo)
        transcript = run_schedule(topo, coded, completion=True)
        W = topo.num_segments
        assert lower_bound(topo) <= transcript.num_broadcasts <= W
        assert transcript.complete
        assert run_schedule(topo, transcript.schedule).complete


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig((), (8,), trials=1, extra_edges=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig((6,), (8,), trials=0, extra_edges=0, seed=0)
    with pytest.raises(ValueError, match="extra edge count must be >= 0, got -1"):
        ExperimentConfig((6,), (8,), trials=1, extra_edges=-1, seed=0)
    # every grid point is checked as random_instance would check it
    with pytest.raises(ValueError, match="need at least 1 segment, got 0"):
        ExperimentConfig((6,), (8, 0), trials=1, extra_edges=0, seed=0)
    with pytest.raises(ValueError, match="need at least 3 users, got 2"):
        ExperimentConfig((6, 2), (8,), trials=1, extra_edges=0, seed=0)
    # a repeated value would run its grid points again as identical rows
    with pytest.raises(ValueError, match="^users_list repeats 6$"):
        ExperimentConfig((6, 8, 6), (12,), trials=1, extra_edges=0, seed=0)
    with pytest.raises(ValueError, match="^segments_list repeats 12$"):
        ExperimentConfig((6,), (12, 16, 12), trials=1, extra_edges=0, seed=0)


def test_experiment_instances_are_deterministic():
    config = ExperimentConfig((5, 6), (10,), trials=3, extra_edges=1, seed=99)
    a = [(v, w, t, topo) for v, w, t, topo in iter_experiment_instances(config)]
    b = [(v, w, t, topo) for v, w, t, topo in iter_experiment_instances(config)]
    assert a == b
    assert len(a) == 6
    for v, w, _t, topo in a:
        assert topo.num_users == v and topo.num_segments == w


def test_experiment_without_extra_edges_hits_bound_exactly():
    config = ExperimentConfig((6,), (12,), trials=4, extra_edges=0, seed=7)
    rows = run_experiment(config)
    assert len(rows) == 1
    row = rows[0]
    assert row.violations == 0
    # pure quasi-trees: planner hits the bound on every trial
    assert row.mean_broadcasts == row.mean_lower_bound
    assert row.max_broadcasts <= 11  # at least one coded segment saved


def test_experiment_rows_and_determinism():
    config = ExperimentConfig((5, 7), (9, 12), trials=3, extra_edges=2, seed=21)
    rows = run_experiment(config)
    assert [(r.num_users, r.num_segments) for r in rows] == [
        (5, 9), (5, 12), (7, 9), (7, 12)
    ]
    for row in rows:
        assert row.violations == 0
        assert row.min_broadcasts <= row.mean_broadcasts <= row.max_broadcasts
        assert row.mean_lower_bound <= row.mean_broadcasts
    assert run_experiment(config) == rows


def test_reduction_at_a_thousand_users_is_pinned():
    """The removed edges and the phases planned on the reduction of a
    quasi-tree of 1000 users plus 2 redundant edges, as canonical
    documents, as the per-edge union-find reduced it."""
    topo = random_instance(1000, 2048, 2, 3, 1)
    red = spanning_quasi_tree(topo.to_hypergraph()[0])
    phases = plan_document(QuasiTreePlan(0, plan_phases(topo, red.kept), ()))["phases"]
    digests = [hashlib.sha256(dumps_document(doc).encode()).hexdigest()
               for doc in ([list(e.key) for e in red.removed], phases)]
    assert digests == [
        "2a33cdaa306fb3f9f6b71330336896da3d36ac659c0a133d87d0785f58e4524d",
        "d9deb3aca93390023aed7ff8379c87c68c9385a7fbf88b817545a530a67bcfdc",
    ]

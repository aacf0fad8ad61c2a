"""Planner tests for the quasi-tree coded broadcast schedule."""
from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercast import Hypergraph, StorageTopology
from hypercast.dbqt import (
    NotQuasiTreeError,
    PlanError,
    dbqt_schedule,
    decodable_with,
    ordered_representatives,
    phase_schedule,
    plan_phases,
    vandermonde,
)
from hypercast.field import P
from hypercast.formats import dumps_document, plan_document
from hypercast.generators import random_instance
from hypercast.general import spanning_quasi_tree
from hypercast.sim import run_schedule
from conftest import generated_model


# -- representative ordering -------------------------------------------


def covered_prefixes(h, order) -> list[frozenset[frozenset[int]]]:
    """The edge vertex sets covered after each pick of `order`."""
    covered: frozenset[frozenset[int]] = frozenset()
    prefixes = []
    for v in order:
        covered |= {e.vertices for e in h.incident(v)}
        prefixes.append(covered)
    return prefixes


def test_representatives_on_tree_example(tree_h):
    reps = ordered_representatives(tree_h)
    assert reps == (3, 5, 4)
    covered = covered_prefixes(tree_h, reps)
    assert [len(c) for c in covered] == [2, 3, 4]
    assert covered[-1] == tree_h.edge_sets


def test_representatives_star_center():
    star = Hypergraph(range(1, 7), [({1, v}, 1) for v in range(2, 7)])
    assert ordered_representatives(star) == (1,)


def test_representatives_require_connected():
    h = Hypergraph([1, 2, 3, 4], [({1, 2}, 1), ({3, 4}, 1)])
    with pytest.raises(PlanError):
        ordered_representatives(h)


def test_representative_prefixes_stay_connected():
    rng = random.Random(19)
    for trial in range(40):
        users = rng.randint(3, 10)
        segments = rng.randint(users, 20)
        max_size = rng.randint(2, min(4, users - 1))
        _topo, h, _placement = generated_model(users, segments, 0, max_size, trial)
        reps = ordered_representatives(h)
        covered = covered_prefixes(h, reps)
        assert covered[-1] == h.edge_sets
        for prefix in covered:
            verts = frozenset().union(*prefix)
            sub = Hypergraph(verts, [(e, h.weight_of(e)) for e in prefix])
            assert sub.is_connected()
        # each later pick touches an edge covered before it
        for i, v in enumerate(reps[1:], start=1):
            assert any(v in eset for eset in covered[i - 1])


def scanned_representatives(h):
    """The ordering as first written, kept as the oracle: each later pick
    rescans every covered edge for the vertices they reach, and compares
    every pair of eligible candidates."""
    incident = {v: frozenset(e.vertices for e in h.incident(v)) for v in h.vertices}

    def pick(cands):
        return min(v for v in cands if not any(incident[v] < incident[u] for u in cands if u != v))

    order = [pick(sorted(h.vertices))]
    covered = set(incident[order[0]])
    while covered != h.edge_sets:
        reached = set().union(*covered)
        order.append(pick([
            v for v in sorted(h.vertices)
            if v not in order and v in reached and not incident[v] <= covered
        ]))
        covered |= incident[order[-1]]
    return tuple(order)


@settings(max_examples=60, deadline=None)
@given(users=st.integers(3, 40), max_size=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_property_representatives_match_the_covered_edge_scan(users, max_size, seed):
    """On random quasi-trees the ordering with its frontier of reached vertices
    picks exactly what the scan of every covered edge picks."""
    _topo, h, _placement = generated_model(users, 2 * users, 0, min(max_size, users - 1), seed)
    assert ordered_representatives(h) == scanned_representatives(h)


@pytest.mark.parametrize("users", [60, 150, 300])
@pytest.mark.parametrize("max_size", [2, 3, 5])
def test_representatives_match_the_pairwise_picks(users, max_size):
    """Generated quasi-trees up to a few hundred users, and the spanning
    reductions of cyclic instances, pick as the scan with every pairwise
    comparison does, though `pick` tests containment only within each
    candidate's smallest edge."""
    for seed in (1, 2):
        _topo, h, _placement = generated_model(users, 3 * users, 0, max_size, seed)
        assert ordered_representatives(h) == scanned_representatives(h)
        _topo, h, _placement = generated_model(users, 3 * users, 3, max_size, seed)
        kept = spanning_quasi_tree(h).kept
        assert ordered_representatives(kept) == scanned_representatives(kept)


# -- coding matrices ----------------------------------------------------


def test_vandermonde_values():
    assert vandermonde(3, 2) == ((1, 1), (1, 2), (1, 3))
    assert vandermonde(4, 3)[3] == (1, 4, 16)
    assert vandermonde(2, 0) == ((), ())
    with pytest.raises(ValueError):
        vandermonde(0, 0)
    with pytest.raises(ValueError):
        vandermonde(3, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from([0, n]) | st.integers(0, n))
))
@example((300, 300))
@example((300, 0))
@example((1, 1))
def test_vandermonde_is_the_power_matrix(size):
    """The running products equal the powers pow(k, j, P) entry by entry."""
    n, m = size
    powers = tuple(tuple(pow(k, j, P) for j in range(m)) for k in range(1, n + 1))
    assert vandermonde(n, m) == powers


def test_augmented_determinant_hand_value():
    # [e2 | power columns] for block size 3, one held position
    van = vandermonde(3, 2)
    m = [[1 if k == 2 else 0] + list(van[k - 1]) for k in (1, 2, 3)]
    a, b, c = m
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert det % P == P - 2
    assert decodable_with(3, 1, [2])


def test_decodable_with_small_blocks():
    for pos in (1, 2):
        assert decodable_with(2, 1, [pos])
    for a in range(1, 6):
        for b in range(a + 1, 6):
            assert decodable_with(5, 2, [a, b])
    # degenerate corners: nothing held, or the whole block held
    assert decodable_with(4, 0, [])
    assert decodable_with(4, 4, [1, 2, 3, 4])


def test_decodable_with_random_large_patterns():
    rng = random.Random(29)
    for _ in range(500):
        held = rng.sample(range(1, 13), 4)
        assert decodable_with(12, 4, held)


def test_decodable_with_validates_pattern():
    with pytest.raises(ValueError):
        decodable_with(4, 2, [1])
    with pytest.raises(ValueError):
        decodable_with(4, 2, [1, 1])
    with pytest.raises(ValueError):
        decodable_with(4, 2, [0, 1])
    with pytest.raises(ValueError):
        decodable_with(4, 2, [3, 5])


# -- phase planning -----------------------------------------------------


def test_plan_phases_tree_example(tree_topology, tree_h):
    phases = plan_phases(tree_topology, tree_h)
    assert [p.representative for p in phases] == [3, 5, 4]
    assert phases[0].bridge is None and phases[0].seed_segments == ()
    assert phases[0].block == (2, 3)
    assert phases[1].bridge == frozenset({3, 5, 6})
    assert phases[1].seed_segments == (3,)
    assert phases[1].block == (3, 4)
    assert phases[2].bridge == frozenset({4, 5})
    assert phases[2].seed_segments == (4,)
    assert phases[2].block == (1, 4)
    assert [p.broadcast_count for p in phases] == [1, 1, 1]
    # every block stays inside its representative's storage
    for p in phases:
        assert set(p.block) <= tree_topology.holding(p.representative)


def test_phase_schedule_combination_layout(tree_topology, tree_h):
    phases = plan_phases(tree_topology, tree_h)
    schedule = phase_schedule(tree_topology, phases)
    assert [b.sender for b in schedule] == [3, 5, 4]
    assert schedule[0].coefficients == (0, 1, 1, 0)
    assert schedule[1].coefficients == (0, 0, 1, 1)
    assert schedule[2].coefficients == (1, 0, 0, 1)


def planner_trees():
    """(topology, tree, is the whole model) triples: generated quasi-trees,
    and the spanning quasi-trees that dbqt_general keeps from instances
    with extra edges."""
    for seed in range(10):
        users, segments, size = 4 + seed % 7, 20 + 7 * seed, 2 + seed % 3
        topo, h, _placement = generated_model(users, segments, 0, size, seed)
        yield topo, h, True
        extra = 1 + seed % 3
        topo, h, _placement = generated_model(users, segments, extra, size, seed)
        yield topo, spanning_quasi_tree(h).kept, False


def test_property_bridges_seeds_and_blocks():
    for topo, tree, whole in planner_trees():
        delta = min(e.weight for e in tree.edges)
        phases = plan_phases(topo, tree)
        assert phases[0].bridge is None and phases[0].seed_segments == ()
        earlier = {phases[0].representative}
        for ph in phases[1:]:
            assert ph.bridge in tree.edge_sets
            assert ph.representative in ph.bridge and ph.bridge & earlier
            assert len(ph.seed_segments) == delta
            # the delta lowest segments held by exactly the bridge, by a scan
            # of the representative's holding
            scan = sorted(w for w in topo.holding(ph.representative) if topo.holders_of(w) == ph.bridge)
            assert ph.seed_segments == tuple(scan[:delta])
            earlier.add(ph.representative)
        for ph in phases:
            assert set(ph.block) <= topo.holding(ph.representative)
            assert ph.broadcast_count >= 0
        if whole:
            assert sum(ph.broadcast_count for ph in phases) == topo.num_segments - delta


def test_phase_schedule_sends_vandermonde_columns_on_each_block():
    """Phase slot tau puts entry (k, tau) of the phase's power matrix on
    block position k and 0 off the block."""
    later_slots = 0
    for seed in range(12):
        topo, h, _placement = generated_model(9, 40, 0, 4, seed)
        phases = plan_phases(topo, h)
        schedule = iter(phase_schedule(topo, phases))
        for ph in phases:
            columns = vandermonde(len(ph.block), ph.broadcast_count)
            for tau in range(ph.broadcast_count):
                b = next(schedule)
                assert b.sender == ph.representative
                expected = [0] * topo.num_segments
                for k, w in enumerate(ph.block):
                    expected[w - 1] = columns[k][tau]
                assert b.coefficients == tuple(expected)
                later_slots += tau >= 1
        assert next(schedule, None) is None
    assert later_slots  # slots past a phase's first were checked too


def test_dbqt_schedule_tree_example(tree_topology):
    plan = dbqt_schedule(tree_topology)
    assert plan.delta == 1
    assert plan.num_broadcasts == 3
    t = run_schedule(tree_topology, list(plan.schedule))
    assert t.complete
    assert t.num_broadcasts == tree_topology.num_segments - plan.delta


def test_dbqt_schedule_loose_path_chain():
    # segments 1, 2, 3 on the pairs {1,2}, {2,3}, {3,4}
    topo = StorageTopology(3, {1: {1}, 2: {1, 2}, 3: {2, 3}, 4: {3}})
    plan = dbqt_schedule(topo)
    assert plan.representatives == (2, 3)
    assert plan.num_broadcasts == 2
    assert run_schedule(topo, list(plan.schedule)).complete


def test_dbqt_schedule_weighted_tree():
    # segments 1..3 on {1,2,3} and 4, 5 on {3,4}
    topo = StorageTopology(5, {1: {1, 2, 3}, 2: {1, 2, 3}, 3: {1, 2, 3, 4, 5}, 4: {4, 5}})
    plan = dbqt_schedule(topo)
    assert plan.delta == 2
    assert plan.num_broadcasts == topo.num_segments - 2
    assert run_schedule(topo, list(plan.schedule)).complete


def test_dbqt_schedule_rejects_disconnected_model():
    # third user stores nothing, so the model leaves it isolated
    topo = StorageTopology(3, {1: {1, 2, 3}, 2: {1, 2, 3}, 3: ()})
    with pytest.raises(PlanError):
        dbqt_schedule(topo)


def test_dbqt_schedule_rejects_cyclic_model(triangle_topology):
    with pytest.raises(NotQuasiTreeError):
        dbqt_schedule(triangle_topology)


def test_dbqt_schedule_rejects_leftovers():
    # segment 3 is universal, segment 4 is private to user 1
    topo = StorageTopology(
        4, {1: {1, 3, 4}, 2: {1, 3}, 3: {2, 3}, 4: {2, 3}}
    )
    with pytest.raises(PlanError) as err:
        dbqt_schedule(topo)
    assert not isinstance(err.value, NotQuasiTreeError)


def test_dbqt_schedule_any_vertex_order(tree_topology):
    # ties break by vertex id, so relabelling the users reorders them
    rng = random.Random(37)
    users = list(tree_topology.users)
    for _ in range(12):
        relabel = users[:]
        rng.shuffle(relabel)
        topo = StorageTopology(
            tree_topology.num_segments,
            {new: tree_topology.holding(old) for old, new in zip(users, relabel)},
        )
        plan = dbqt_schedule(topo)
        assert plan.num_broadcasts == 3
        assert run_schedule(topo, list(plan.schedule)).complete


def test_plan_at_a_thousand_users_is_pinned():
    """The canonical plan document, less its schedule, of a quasi-tree of
    1000 users and 2048 segments, as the pairwise picks and the per-edge
    union-find planned it."""
    doc = plan_document(dbqt_schedule(random_instance(1000, 2048, 0, 3, 1)))
    del doc["schedule"]
    assert hashlib.sha256(dumps_document(doc).encode()).hexdigest() == (
        "10e72892e662274d59662f302f3bf35f266334546d6a78571ce48fa1d340f3a0")

"""Planner tests for the quasi-tree coded broadcast schedule."""
from __future__ import annotations

import random

import pytest

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


# -- coding matrices ----------------------------------------------------


def test_vandermonde_values():
    assert vandermonde(3, 2) == ((1, 1), (1, 2), (1, 3))
    assert vandermonde(4, 3)[3] == (1, 4, 16)
    assert vandermonde(2, 0) == ((), ())
    with pytest.raises(ValueError):
        vandermonde(0, 0)
    with pytest.raises(ValueError):
        vandermonde(3, 4)


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
    _, placement, _ = tree_topology.to_hypergraph()
    reps = ordered_representatives(tree_h)
    phases = plan_phases(tree_topology, tree_h, placement, reps)
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
    _, placement, _ = tree_topology.to_hypergraph()
    reps = ordered_representatives(tree_h)
    phases = plan_phases(tree_topology, tree_h, placement, reps)
    schedule = phase_schedule(tree_topology, phases)
    assert [b.sender for b in schedule] == [3, 5, 4]
    assert schedule[0].coefficients == (0, 1, 1, 0)
    assert schedule[1].coefficients == (0, 0, 1, 1)
    assert schedule[2].coefficients == (1, 0, 0, 1)


def test_phase_schedule_sends_vandermonde_columns_on_each_block():
    """Phase slot tau puts entry (k, tau) of the phase's power matrix on
    block position k and 0 off the block."""
    later_slots = 0
    for seed in range(12):
        topo, h, placement = generated_model(9, 40, 0, 4, seed)
        phases = plan_phases(topo, h, placement, ordered_representatives(h))
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

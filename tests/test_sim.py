"""Coefficient-level simulator tests.

Ranks and decoded sets are cross-checked against a dense oracle built
from rank_mod on the stored unit vectors plus every slot's coefficient
vector, independent of the simulator's sparse basis.
"""
from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercast import StorageTopology
from hypercast.field import P, rank_mod, unit_vector
from hypercast.sim import (
    MAX_SIM_SEGMENTS,
    Broadcast,
    PayloadMismatch,
    UserState,
    materialize_payloads,
    naive_schedule,
    run_schedule,
    uncoded_broadcast,
    verify_payload_run,
)
from hypercast.dbqt import dbqt_schedule

TRIANGLE = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}


def oracle(topology, coefficient_vectors, user) -> tuple[int, frozenset[int]]:
    """(rank, decoded set) of `user` after hearing the given vectors."""
    W = topology.num_segments
    cols = [unit_vector(W, w - 1) for w in sorted(topology.holding(user))]
    cols += [np.asarray(c, dtype=np.int64) % P for c in coefficient_vectors]
    if not cols:
        return 0, frozenset()
    stack = np.stack(cols, axis=1)
    base = rank_mod(stack)
    decoded = frozenset(
        w for w in range(1, W + 1)
        if rank_mod(np.concatenate([stack, unit_vector(W, w - 1)[:, None]], axis=1)) == base
    )
    return base, decoded


def oracle_decoded(topology, coefficient_vectors, user) -> frozenset[int]:
    return oracle(topology, coefficient_vectors, user)[1]


def checking_oracle(topology):
    """on_slot hook comparing every user's rank and decoded set with the
    oracle after every slot."""
    heard = []

    def on_slot(states, record):
        heard.append(record.coefficients)
        for s in states:
            rank, decoded = oracle(topology, heard, s.user)
            assert (s.rank, s.decoded) == (rank, decoded)
            assert record.ranks[s.user - 1] == rank

    return on_slot


def random_in_span_schedule(rng, topology, slots, coeff_range=3):
    """Broadcasts whose senders mix random multiples of their stored unit
    vectors and of everything broadcast before."""
    W = topology.num_segments
    heard: list[list[int]] = []
    out = []
    for slot in range(slots):
        sender = rng.randint(1, topology.num_users)
        known = [[int(w == u) for w in range(1, W + 1)] for u in sorted(topology.holding(sender))]
        vec = [0] * W
        for col in known + heard:
            a = rng.randrange(coeff_range)
            vec = [(x + a * y) % P for x, y in zip(vec, col)]
        heard.append(vec)
        out.append(Broadcast(slot, sender, tuple(vec)))
    return out


def test_init_states_ranks_and_decoded(tree_topology):
    t = run_schedule(tree_topology, [])
    states = t.final_states
    assert [s.rank for s in states] == [1, 1, 2, 2, 2, 1]
    assert states[2].decoded == frozenset({2, 3})
    assert states[0].decoded == frozenset({1})
    assert not t.complete
    for s in states:
        assert s.decoded == oracle_decoded(tree_topology, [], s.user)


def test_init_states_segment_limit():
    topo = StorageTopology(MAX_SIM_SEGMENTS + 1, {1: {1}, 2: {2}})
    with pytest.raises(ValueError):
        run_schedule(topo, [])


def test_apply_broadcast_two_users():
    topo = StorageTopology(2, {1: {1}, 2: {2}})
    states = run_schedule(topo, [Broadcast(0, 1, (1, 0))]).final_states
    assert states[1].rank == 2
    assert states[1].decoded == frozenset({1, 2})
    # sender's own broadcast adds nothing
    assert states[0].rank == 1


def test_triangle_hand_worked_run():
    topo = StorageTopology(3, TRIANGLE)
    # user 3 mixes its two stored segments 1 and 3
    first = Broadcast(0, 3, (1, 0, 1))
    states = run_schedule(topo, [first]).final_states
    assert states[0].rank == 3 and states[0].decoded == frozenset({1, 2, 3})
    assert states[1].rank == 3
    assert states[2].rank == 2 and states[2].decoded == frozenset({1, 3})
    # plain segment 2 finishes user 3; its lowest holder is user 1
    b = uncoded_broadcast(topo, 1, 2)
    assert b.sender == 1 and b.coefficients == (0, 1, 0)
    t = run_schedule(topo, [first, b], on_slot=checking_oracle(topo))
    assert t.complete and all(s.rank == 3 for s in t.final_states)


def test_broadcast_validation_sender_length_and_span(tree_topology):
    def run(b):
        return run_schedule(tree_topology, [b])

    with pytest.raises(ValueError):
        run(Broadcast(0, 9, (1, 0, 0, 0)))  # no user 9
    with pytest.raises(ValueError):
        run(Broadcast(0, 3, (0, 1, 1)))  # three coefficients for four segments
    with pytest.raises(ValueError):
        run(Broadcast(0, 1, (0, 1, 0, 0)))  # user 1 does not know segment 2
    # a combination the sender can form passes
    assert run(Broadcast(0, 1, (1, 0, 0, 0))).num_broadcasts == 1
    # so does one mixing what the sender received; user 1 then knows
    # segment 1 and the sum of segments 2 and 3, not either of them
    heard = Broadcast(0, 3, (0, 1, 1, 0))
    run_schedule(tree_topology, [heard, Broadcast(1, 1, (5, 2, 2, 0))])
    with pytest.raises(ValueError):
        run_schedule(tree_topology, [heard, Broadcast(1, 1, (5, 1, 2, 0))])


def test_uncoded_broadcast_positions(tree_topology):
    b = uncoded_broadcast(tree_topology, 0, 4)
    # holders of 4 are {4, 5}; the lowest id sends
    assert b.sender == 4
    assert b.coefficients == (0, 0, 0, 1)
    topo = StorageTopology(2, {1: {1}, 2: ()})
    with pytest.raises(ValueError):
        uncoded_broadcast(topo, 0, 2)


def test_naive_schedule_completes_everything(tree_topology, cyclic_topology, triangle_topology):
    for topo in (tree_topology, cyclic_topology, triangle_topology):
        schedule = naive_schedule(topo)
        assert len(schedule) == topo.num_segments
        t = run_schedule(topo, schedule)
        assert t.complete
        assert t.num_broadcasts == topo.num_segments
        # ranks never decrease along the transcript
        prev = t.initial_ranks
        for rec in t.slots:
            assert all(a <= b for a, b in zip(prev, rec.ranks))
            prev = rec.ranks
        assert prev == tuple([topo.num_segments] * topo.num_users)


def test_run_schedule_slot_numbering(tree_topology):
    schedule = naive_schedule(tree_topology)
    bad = [Broadcast(1, schedule[0].sender, schedule[0].coefficients)]
    with pytest.raises(ValueError):
        run_schedule(tree_topology, bad)


def test_run_schedule_tracks_remaining_edges(tree_topology):
    t = run_schedule(tree_topology, naive_schedule(tree_topology))
    counts = [rec.remaining_edges for rec in t.slots]
    assert counts[-1] == 0
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_remaining_edges_start_and_end(tree_topology):
    h, placement, _ = tree_topology.to_hypergraph()

    def oracle_remaining(states):
        known_by_all = frozenset.intersection(*(s.decoded for s in states))
        return sum(1 for e in h.edges if not set(placement[e.vertices]) <= known_by_all)

    assert oracle_remaining(run_schedule(tree_topology, []).final_states) == len(h.edges)
    seen = []

    def on_slot(states, record):
        assert record.remaining_edges == oracle_remaining(states)
        seen.append(record.remaining_edges)

    for schedule in (naive_schedule(tree_topology), list(dbqt_schedule(tree_topology).schedule)):
        seen.clear()
        run_schedule(tree_topology, schedule, on_slot=on_slot)
        assert seen[-1] == 0


def test_random_mixes_respect_rank_laws(tree_topology):
    rng = random.Random(13)
    for _ in range(20):
        schedule = random_in_span_schedule(rng, tree_topology, 6)
        before = [s.rank for s in run_schedule(tree_topology, []).final_states]
        check = checking_oracle(tree_topology)

        def on_slot(states, record):
            after = list(record.ranks)
            assert all(a <= b <= a + 1 for a, b in zip(before, after))
            # the sender never learns from its own transmission
            assert after[record.sender - 1] == before[record.sender - 1]
            check(states, record)
            before[:] = after

        run_schedule(tree_topology, schedule, on_slot=on_slot)


@st.composite
def topologies(draw):
    V = draw(st.integers(2, 5))
    W = draw(st.integers(1, 6))
    holdings = {v: set() for v in range(1, V + 1)}
    for w in range(1, W + 1):
        for v in draw(st.sets(st.integers(1, V), min_size=1, max_size=V)):
            holdings[v].add(w)
    return StorageTopology(W, holdings)


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), slots=st.integers(0, 6))
def test_property_sparse_basis_matches_dense_oracle(topo, seed, slots):
    rng = random.Random(seed)
    schedule = random_in_span_schedule(rng, topo, slots, coeff_range=P)
    t = run_schedule(topo, schedule, on_slot=checking_oracle(topo))
    heard = [b.coefficients for b in schedule]
    # a user lacking segment w cannot send it
    for s in t.final_states:
        lacking = sorted(set(range(1, topo.num_segments + 1)) - s.decoded)
        if lacking:
            assert lacking == sorted(
                set(range(1, topo.num_segments + 1)) - oracle_decoded(topo, heard, s.user)
            )
            vec = [0] * topo.num_segments
            vec[lacking[0] - 1] = 1
            out_of_span = Broadcast(len(schedule), s.user, tuple(vec))
            with pytest.raises(ValueError):
                run_schedule(topo, schedule + [out_of_span])


def test_completion_broadcasts_what_is_missing(tree_topology):
    coded = list(dbqt_schedule(tree_topology).schedule)
    t = run_schedule(tree_topology, coded[:1], completion=True)
    assert t.complete
    tail = t.schedule[1:]
    assert all(sum(1 for c in b.coefficients if c) == 1 for b in tail)
    missing = [w for w in range(1, 5) if not all(w in s.decoded for s in run_schedule(
        tree_topology, coded[:1]).final_states)]
    assert [b.coefficients.index(1) + 1 for b in tail] == missing
    assert run_schedule(tree_topology, coded, completion=True).num_broadcasts == len(coded)


def test_materialize_payloads_deterministic(tree_topology):
    a = materialize_payloads(tree_topology, seed=5)
    b = materialize_payloads(tree_topology, seed=5)
    c = materialize_payloads(tree_topology, seed=6)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert a.length == tree_topology.num_segments + 1
    assert rank_mod(a.matrix) == tree_topology.num_segments


def test_materialize_payloads_honors_declared_length():
    topo = StorageTopology(2, {1: {1}, 2: {2}}, payload_length=9)
    store = materialize_payloads(topo, seed=1)
    assert store.length == 9
    assert store.column(1).shape == (9,)
    with pytest.raises(ValueError):
        store.column(3)


def test_verify_payload_run_accepts_honest_schedules(tree_topology, triangle_topology):
    for topo in (tree_topology, triangle_topology):
        store = materialize_payloads(topo, seed=2)
        assert verify_payload_run(store, naive_schedule(topo))


def test_verify_payload_run_rejects_incomplete(tree_topology):
    store = materialize_payloads(tree_topology, seed=3)
    assert not verify_payload_run(store, [])
    assert not verify_payload_run(store, naive_schedule(tree_topology)[:2])


def test_flipped_payload_coefficient_is_caught_per_slot_and_at_decode(
    tree_topology, monkeypatch
):
    """One wrong coefficient in a payload combination of slot 0: made by
    the sender, the slot check refuses it; slipped into what one
    receiver takes in, the final decode finds that receiver's segment."""
    store = materialize_payloads(tree_topology, seed=4)
    schedule = list(dbqt_schedule(tree_topology).schedule)
    assert verify_payload_run(store, schedule)

    def flipped(coeffs):
        w = min(coeffs)
        return {**coeffs, w: (coeffs[w] + 1) % P}

    honest_payload_of = UserState.payload_of
    monkeypatch.setattr(
        UserState, "payload_of", lambda self, coeffs: honest_payload_of(self, flipped(coeffs))
    )
    with pytest.raises(PayloadMismatch, match="slot 0"):
        run_schedule(tree_topology, schedule, store)
    assert not verify_payload_run(store, schedule)
    monkeypatch.undo()

    # slot 0 (sender 3, segments 2 and 3) lets user 2 decode segment 3
    honest_receive = UserState.receive
    first = {w: c for w, c in enumerate(schedule[0].coefficients, start=1) if c}

    def receive(self, coeffs, payload=None):
        if self.user == 2 and coeffs == first:
            payload = store.combine(flipped(coeffs))
        return honest_receive(self, coeffs, payload)

    monkeypatch.setattr(UserState, "receive", receive)
    assert not verify_payload_run(store, schedule)
    # every sender stays honest, so only the final decode sees it
    with pytest.raises(PayloadMismatch, match="decoded payloads differ") as caught:
        run_schedule(tree_topology, schedule, store)
    mismatches = [(int(v), int(w)) for v, w in re.findall(r"\((\d+), (\d+)\)", str(caught.value))]
    # the error then spreads to what user 2 decodes later, and no further
    assert mismatches == [(2, 3), (2, 4), (2, 1)]

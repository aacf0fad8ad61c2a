"""Coefficient-level simulator tests.

Ranks and decoded sets are cross-checked against a dense oracle built
from rank_mod on the stored unit vectors plus every slot's coefficient
vector, independent of the simulator's sparse basis: ranks against each
slot's record, decoded sets against the run of every prefix.  Ranks and the
order in which each user decodes are also compared, slot by slot, with
one dict basis per user (basis_oracle.ColumnBasis), the simulator's
former per-user design.
"""
from __future__ import annotations

import contextlib
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypercast.sim
from basis_oracle import ColumnBasis
from conftest import topologies
from hypercast import StorageTopology, field
from hypercast.field import P, RUN_ALLOWANCE, UserBases, rank_mod
from hypercast.sim import (
    MAX_SIM_SEGMENTS,
    _draw_residues,
    Broadcast,
    PayloadMismatch,
    SegmentStore,
    materialize_payloads,
    naive_schedule,
    run_schedule,
    uncoded_broadcast,
    verify_payload_run,
)
from hypercast.dbqt import dbqt_schedule
from hypercast.general import dbqt_general
from hypercast.generators import random_instance

TRIANGLE = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}


def oracle(topology, coefficient_vectors, user) -> tuple[int, frozenset[int]]:
    """(rank, decoded set) of `user` after hearing the given vectors."""
    W = topology.num_segments
    unit = np.eye(W, dtype=np.int64)
    cols = [unit[w - 1] for w in sorted(topology.holding(user))]
    cols += [np.asarray(c, dtype=np.int64) % P for c in coefficient_vectors]
    if not cols:
        return 0, frozenset()
    stack = np.stack(cols, axis=1)
    base = rank_mod(stack)
    decoded = frozenset(
        w for w in range(1, W + 1)
        if rank_mod(np.concatenate([stack, unit[w - 1][:, None]], axis=1)) == base
    )
    return base, decoded


def oracle_decoded(topology, coefficient_vectors, user) -> frozenset[int]:
    return oracle(topology, coefficient_vectors, user)[1]


def oracle_rank(topology, coefficient_vectors, user) -> int:
    """The rank of `user` after hearing the given vectors, by rank_mod."""
    W = topology.num_segments
    unit = np.eye(W, dtype=np.int64)
    cols = [unit[w - 1] for w in sorted(topology.holding(user))]
    cols += [np.asarray(c, dtype=np.int64) % P for c in coefficient_vectors]
    return rank_mod(np.stack(cols, axis=1)) if cols else 0


def check_oracle(topology, schedule, t):
    """Compare every user's rank and decoded set with the oracle before
    and after every slot of the run `t` of `schedule`: the ranks from the
    transcript, the decoded sets from the run of each prefix."""
    heard = [b.coefficients for b in schedule]
    for k, ranks in enumerate([t.initial_ranks] + [r.ranks for r in t.slots]):
        decoded = run_schedule(topology, schedule[:k]).decoded
        for v in topology.users:
            assert (ranks[v - 1], decoded[v - 1]) == oracle(topology, heard[:k], v)


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
        out.append(Broadcast(sender, tuple(vec)))
    return out


def test_init_states_ranks_and_decoded(tree_topology):
    t = run_schedule(tree_topology, [])
    assert list(t.initial_ranks) == [1, 1, 2, 2, 2, 1]
    assert t.decoded[2] == frozenset({2, 3})
    assert t.decoded[0] == frozenset({1})
    assert not t.complete
    for v in tree_topology.users:
        assert t.decoded[v - 1] == oracle_decoded(tree_topology, [], v)


def test_init_states_segment_limit():
    W = MAX_SIM_SEGMENTS + 1
    topo = StorageTopology(W, {1: set(range(1, W + 1)), 2: {2}})
    for refuse in (lambda: run_schedule(topo, []), lambda: materialize_payloads(topo, seed=0)):
        with pytest.raises(ValueError, match=f"at most {MAX_SIM_SEGMENTS} segments, got {W}"):
            refuse()


def test_apply_broadcast_two_users():
    topo = StorageTopology(2, {1: {1}, 2: {2}})
    t = run_schedule(topo, [Broadcast(1, (1, 0))])
    assert t.slots[-1].ranks[1] == 2
    assert t.decoded[1] == frozenset({1, 2})
    # sender's own broadcast adds nothing
    assert t.slots[-1].ranks[0] == 1


def test_triangle_hand_worked_run():
    topo = StorageTopology(3, TRIANGLE)
    # user 3 mixes its two stored segments 1 and 3
    first = Broadcast(3, (1, 0, 1))
    t = run_schedule(topo, [first])
    ranks = t.slots[-1].ranks
    assert ranks[0] == 3 and t.decoded[0] == frozenset({1, 2, 3})
    assert ranks[1] == 3
    assert ranks[2] == 2 and t.decoded[2] == frozenset({1, 3})
    # plain segment 2 finishes user 3; its lowest holder is user 1
    b = uncoded_broadcast(topo, 2)
    assert b.sender == 1 and b.coefficients == (0, 1, 0)
    t = run_schedule(topo, [first, b])
    check_oracle(topo, [first, b], t)
    assert t.complete and all(r == 3 for r in t.slots[-1].ranks)


def test_broadcast_validation_sender_length_and_span(tree_topology):
    def run(b):
        return run_schedule(tree_topology, [b])

    with pytest.raises(ValueError):
        run(Broadcast(9, (1, 0, 0, 0)))  # no user 9
    with pytest.raises(ValueError):
        run(Broadcast(3, (0, 1, 1)))  # three coefficients for four segments
    with pytest.raises(ValueError):
        run(Broadcast(1, (0, 1, 0, 0)))  # user 1 does not know segment 2
    # a combination the sender can form passes
    assert run(Broadcast(1, (1, 0, 0, 0))).num_broadcasts == 1
    # so does one mixing what the sender received; user 1 then knows
    # segment 1 and the sum of segments 2 and 3, not either of them
    heard = Broadcast(3, (0, 1, 1, 0))
    run_schedule(tree_topology, [heard, Broadcast(1, (5, 2, 2, 0))])
    with pytest.raises(ValueError):
        run_schedule(tree_topology, [heard, Broadcast(1, (5, 1, 2, 0))])


@pytest.mark.parametrize("bad, message", [
    (Broadcast(True, (1, 0, 0, 0)), "slot 1: sender True is not an integer"),
    (Broadcast(1.0, (1, 0, 0, 0)), "slot 1: sender 1.0 is not an integer"),
    (Broadcast(1, (1.5, 0, 0, 0)), "slot 1: coefficients (1.5, 0, 0, 0) are not all integers"),
    (Broadcast(1, ("1", 0, 0, 0)), "slot 1: coefficients ('1', 0, 0, 0) are not all integers"),
    # a float beside an int beyond int64
    (Broadcast(1, (P * 2**40, 1.5, 0, 0)),
     f"slot 1: coefficients ({P * 2**40}, 1.5, 0, 0) are not all integers"),
    # bools, which numpy would read as 1 and 0, alone or beside ints
    (Broadcast(1, (True, False, False, False)),
     "slot 1: coefficients (True, False, False, False) are not all integers"),
    (Broadcast(1, [False, 1, 0, 0]), "slot 1: coefficients [False, 1, 0, 0] are not all integers"),
])
def test_senders_and_coefficients_must_be_integers(tree_topology, bad, message):
    """A sender or coefficient that is not an int, a bool included, is
    refused at its slot, mid-run too, not read as the int it casts to; a
    slot before it that fails is refused first."""
    ok, lacking = Broadcast(1, (1, 0, 0, 0)), Broadcast(1, (0, 1, 0, 0))
    with pytest.raises(ValueError) as caught:
        run_schedule(tree_topology, [ok, bad])
    assert str(caught.value) == message
    with pytest.raises(ValueError, match="slot 0: sender 1 cannot form"):
        run_schedule(tree_topology, [lacking, bad])


def test_uncoded_broadcast_positions(tree_topology):
    b = uncoded_broadcast(tree_topology, 4)
    # holders of 4 are {4, 5}; the lowest id sends
    assert b.sender == 4
    assert b.coefficients == (0, 0, 0, 1)
    # a segment no user holds has no sender: the topology refuses it
    with pytest.raises(ValueError, match="segment 2 is stored nowhere"):
        StorageTopology(2, {1: {1}, 2: ()})


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


def test_run_schedule_tracks_remaining_edges(tree_topology):
    t = run_schedule(tree_topology, naive_schedule(tree_topology))
    counts = [rec.remaining_edges for rec in t.slots]
    assert counts[-1] == 0
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_remaining_edges_start_and_end(tree_topology):
    h, placement, _ = tree_topology.to_hypergraph()

    def oracle_remaining(decoded):
        known_by_all = frozenset.intersection(*decoded)
        return sum(1 for e in h.edges if not set(placement[e.vertices]) <= known_by_all)

    assert oracle_remaining(run_schedule(tree_topology, []).decoded) == len(h.edges)
    for schedule in (naive_schedule(tree_topology), list(dbqt_schedule(tree_topology).schedule)):
        t = run_schedule(tree_topology, schedule)
        for k, record in enumerate(t.slots, start=1):
            decoded = run_schedule(tree_topology, schedule[:k]).decoded
            assert record.remaining_edges == oracle_remaining(decoded)
        assert t.slots[-1].remaining_edges == 0


def test_random_mixes_respect_rank_laws(tree_topology):
    rng = random.Random(13)
    for _ in range(20):
        schedule = random_in_span_schedule(rng, tree_topology, 6)
        t = run_schedule(tree_topology, schedule)
        before = t.initial_ranks
        for record in t.slots:
            after = record.ranks
            assert all(a <= b <= a + 1 for a, b in zip(before, after))
            # the sender never learns from its own transmission
            assert after[record.sender - 1] == before[record.sender - 1]
            before = after
        check_oracle(tree_topology, schedule, t)


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), slots=st.integers(0, 6))
def test_property_sparse_basis_matches_dense_oracle(topo, seed, slots):
    rng = random.Random(seed)
    schedule = random_in_span_schedule(rng, topo, slots, coeff_range=P)
    t = run_schedule(topo, schedule)
    check_oracle(topo, schedule, t)
    heard = [b.coefficients for b in schedule]
    # a user lacking segment w cannot send it
    for v in topo.users:
        lacking = sorted(set(range(1, topo.num_segments + 1)) - t.decoded[v - 1])
        if lacking:
            assert lacking == sorted(
                set(range(1, topo.num_segments + 1)) - oracle_decoded(topo, heard, v)
            )
            vec = [0] * topo.num_segments
            vec[lacking[0] - 1] = 1
            out_of_span = Broadcast(v, tuple(vec))
            with pytest.raises(ValueError):
                run_schedule(topo, schedule + [out_of_span])


def dict_basis_run(topology, schedule):
    """(ranks after every slot, each user's decoded segments in order) with
    one dict ColumnBasis per user over the segments it is missing."""
    stored = {v: topology.holding(v) for v in topology.users}
    bases = {v: ColumnBasis() for v in topology.users}
    ranks = []
    for b in schedule:
        coeffs = {w: c % P for w, c in enumerate(b.coefficients, start=1) if c % P}
        for v in topology.users:
            if v != b.sender:
                bases[v].insert({w: c for w, c in coeffs.items() if w not in stored[v]})
        ranks.append(tuple(len(stored[v]) + bases[v].rank for v in topology.users))
    return ranks, [bases[v].units for v in topology.users]


def assert_matches_dict_basis(topology, schedule):
    """The run of `schedule` has the ranks and each user's decode order of
    one dict basis per user; the bases are caught as the run builds them."""
    made = []

    class Caught(UserBases):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypercast.sim, "UserBases", Caught)
        t = run_schedule(topology, schedule)
    ranks, units = dict_basis_run(topology, schedule)
    assert [r.ranks for r in t.slots] == ranks
    [bases] = made
    assert [[w + 1 for w in ws] for ws in bases.units] == units


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), slots=st.integers(0, 8),
       coeff_range=st.sampled_from([2, 3, P]))
def test_property_ranks_and_decode_order_match_dict_basis(topo, seed, slots, coeff_range):
    rng = random.Random(seed)
    assert_matches_dict_basis(topo, random_in_span_schedule(rng, topo, slots, coeff_range))


@settings(max_examples=25, deadline=None)
@given(users=st.integers(4, 9), extra=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_property_dbqt_ranks_and_decode_order_match_dict_basis(users, extra, seed):
    topo = random_instance(users, users + extra, 0, 3, seed)
    plan = dbqt_schedule(topo)
    assert_matches_dict_basis(topo, list(plan.schedule))
    # and a prefix, which leaves some users part way through a block
    assert_matches_dict_basis(topo, list(plan.schedule)[: len(plan.schedule) // 2])


def unit_broadcast(sender, W, entries):
    """The broadcast of `sender` with the given {segment: coefficient}."""
    return Broadcast(sender, tuple(entries.get(w, 0) for w in range(1, W + 1)))


def basis_rows(bases):
    """Every basis row of a UserBases as {(user, pivot): {coordinate: value}}:
    a row's owner is in its entries' keys, or, for a row without entries,
    the user whose units list its pivot."""
    rows = {(u, w): {} for u, units in enumerate(bases.units) for w in units}
    row, key, value = bases.entries.tolist()
    for r, k, x in zip(row, key, value):
        owner, coordinate = k >> bases.shift, k & ((1 << bases.shift) - 1)
        rows.setdefault((owner, int(bases.pivot[r])), {})[coordinate] = x
    assert len(rows) == bases.rows
    return rows


def delivered_at_once(topology, schedule):
    """UserBases after one delivery of `schedule`, which takes several
    senders' runs in a piece, and what the delivery returned per slot."""
    stored = np.zeros((topology.num_users, topology.num_segments), dtype=bool)
    for v in topology.users:
        stored[v - 1, [w - 1 for w in topology.holding(v)]] = True
    bases = UserBases(stored)
    if not schedule:
        return bases, []
    vectors = np.array([b.coefficients for b in schedule], dtype=np.int64) % P
    return bases, bases.deliver([b.sender - 1 for b in schedule], vectors)


def check_hand_built_run(topology, schedule):
    """The run of `schedule` matches one dict basis per user in ranks,
    decode order and every basis row, and its payload run, with the
    uncoded completion appended, decodes the store bit for bit.  Returns
    the basis rows."""
    assert_matches_dict_basis(topology, schedule)
    oracles = {v: ColumnBasis() for v in topology.users}
    bases, _ = delivered_at_once(topology, schedule)
    for b in schedule:
        for v in topology.users:
            if v != b.sender:
                oracles[v].insert({w - 1: c for w, c in enumerate(b.coefficients, start=1)
                                   if c and w not in topology.holding(v)})
    rows = basis_rows(bases)
    assert rows == {
        (v - 1, p): row for v in topology.users for p, row in oracles[v].rows.items()
    }
    t = run_schedule(topology, schedule)
    store = materialize_payloads(topology, seed=9)
    paid = run_schedule(topology, schedule, store, completion=True)
    assert paid.complete and paid.slots[:len(schedule)] == t.slots
    assert verify_payload_run(store, paid.schedule)
    return rows


def test_hit_row_with_entries_outside_the_new_rows_columns():
    """User 2's first row holds segments 2 and 3; its second row has pivot
    2 and support {2, 4}, so the first row keeps its entry at 3, outside
    every new row's columns, beside the new one at 4."""
    topo = StorageTopology(4, {1: {1, 2, 3, 4}, 2: set(), 3: {3}})
    schedule = [
        unit_broadcast(1, 4, {1: 1, 2: 2, 3: 3}),
        unit_broadcast(1, 4, {2: 1, 4: 5}),
    ]
    # user 2's row with pivot 1 (coordinates count from 0)
    assert check_hand_built_run(topo, schedule)[1, 0] == {2: 3, 3: P - 10}


def test_rows_emptied_in_the_slot_where_the_new_row_is_one_hot():
    """Slot 3 gives user 2 the one-hot row e4 and empties its rows with
    pivots 1 and 2, met in the order 2, 1 among the entries (the row with
    pivot 1 was rewritten in slot 2): user 2 decodes 3, then 1, 2, 4."""
    topo = StorageTopology(4, {1: {1, 2, 3, 4}, 2: set(), 3: {3, 4}})
    schedule = [
        unit_broadcast(1, 4, {1: 1, 3: 1, 4: 1}),
        unit_broadcast(1, 4, {2: 1, 4: 1}),
        unit_broadcast(1, 4, {3: 1}),
        unit_broadcast(1, 4, {4: 7}),
    ]
    check_hand_built_run(topo, schedule)
    assert dict_basis_run(topo, schedule)[1][1] == [3, 1, 2, 4]


def run_heavy_schedule(rng, topology, runs, coeff_range):
    """Runs of one sender's broadcasts, each up to twice the segment count
    long: random mixes of what the sender knows, repeats of an earlier
    broadcast of the run and zero vectors."""
    W = topology.num_segments
    heard: list[list[int]] = []
    out = []
    for _ in range(runs):
        sender = rng.randint(1, topology.num_users)
        known = [[int(w == u) for w in range(1, W + 1)] for u in sorted(topology.holding(sender))]
        mine: list[list[int]] = []
        for _ in range(rng.randint(1, 2 * W + 2)):
            pick = rng.random()
            if mine and pick < 0.25:
                vec = rng.choice(mine)
            elif pick < 0.35:
                vec = [0] * W
            else:
                vec = [0] * W
                for col in known + heard:
                    a = rng.randrange(coeff_range)
                    vec = [(x + a * y) % P for x, y in zip(vec, col)]
            mine.append(vec)
            out.append(Broadcast(sender, tuple(vec)))
        heard += mine
    return out


def first_refusal(topology, schedule, lie=None):
    """The first slot that one dict basis per user refuses, as (slot,
    reason): "sender" or "length" for a malformed broadcast, "span" for
    coefficients outside the sender's span, "payload" for a broadcast equal
    to `lie`; None if every slot can be sent."""
    stored = {v: topology.holding(v) for v in topology.users}
    bases = {v: ColumnBasis() for v in topology.users}
    for i, b in enumerate(schedule):
        if not 1 <= b.sender <= topology.num_users:
            return i, "sender"
        if len(b.coefficients) != topology.num_segments:
            return i, "length"
        coeffs = {w: c % P for w, c in enumerate(b.coefficients, start=1) if c % P}
        if not bases[b.sender].contains({w: c for w, c in coeffs.items() if w not in stored[b.sender]}):
            return i, "span"
        if b.coefficients == lie:
            return i, "payload"
        for v in topology.users:
            if v != b.sender:
                bases[v].insert({w: c for w, c in coeffs.items() if w not in stored[v]})
    return None


class LyingStore(SegmentStore):
    """A store whose combination of one coefficient vector is off by one,
    so a sender's payload for it does not match."""

    __slots__ = ("lie",)

    def __init__(self, store, lie):
        super().__init__(store.topology, store.matrix)
        self.lie = np.array(lie, dtype=np.int64)

    def combine(self, v):
        out = np.array(super().combine(v), ndmin=2)
        out[(np.array(v, ndmin=2) == self.lie).all(axis=1), 0] += 1
        return out.reshape(super().combine(v).shape)


def assert_refused_as_dict_basis(topology, schedule, lie=None):
    """run_schedule raises at the slot, and for the reason, that
    first_refusal finds; with `lie`, in payload mode through LyingStore."""
    expected = first_refusal(topology, schedule, lie)
    store = None
    if lie is not None:
        store = LyingStore(materialize_payloads(topology, seed=3), lie)
    if expected is None:
        run_schedule(topology, schedule, store)
        return
    slot, reason = expected
    b = schedule[slot]
    message = {
        "sender": f"slot {slot}: sender {b.sender} outside 1..{topology.num_users}",
        "length": f"slot {slot}: {len(b.coefficients)} coefficients for {topology.num_segments} segments",
        "span": f"slot {slot}: sender {b.sender} cannot form these coefficients",
        "payload": f"slot {slot}: sender {b.sender}'s payload is not the store's combination",
    }[reason]
    with pytest.raises(ValueError) as caught:
        run_schedule(topology, schedule, store)
    assert str(caught.value) == message
    assert isinstance(caught.value, PayloadMismatch) == (reason == "payload")


@settings(max_examples=40, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 3),
       coeff_range=st.sampled_from([2, P]))
def test_property_runs_match_dict_basis_and_rank_oracle(topo, seed, runs, coeff_range):
    """Runs that repeat past their support size, hold zero or repeated
    broadcasts and get cut by the budget: ranks and decode order as the
    dict bases, ranks as rank_mod, and a payload run that decodes."""
    schedule = run_heavy_schedule(random.Random(seed), topo, runs, coeff_range)
    assert_matches_dict_basis(topo, schedule)
    t = run_schedule(topo, schedule)
    heard = [b.coefficients for b in schedule]
    for k, record in enumerate(t.slots, start=1):
        assert record.ranks == tuple(oracle_rank(topo, heard[:k], v) for v in topo.users)
    paid = run_schedule(topo, schedule, materialize_payloads(topo, seed=3), completion=True)
    assert paid.complete and paid.slots[:len(schedule)] == t.slots


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 3),
       fault=st.sampled_from(["span", "length", "sender", "none"]), lie=st.booleans(),
       where=st.floats(0, 1), lie_where=st.floats(0, 1))
def test_property_runs_refuse_the_first_bad_slot(topo, seed, runs, fault, lie, where, lie_where):
    """A sender that fails mid-run, a malformed slot mid-run and a payload
    mismatch before or after either: run_schedule stops at the first bad
    slot, for the same reason as the dict bases."""
    rng = random.Random(seed)
    schedule = run_heavy_schedule(rng, topo, runs, P)
    f = int(where * (len(schedule) - 1))
    b = schedule[f]
    if fault == "span":
        lacking = sorted(set(range(1, topo.num_segments + 1))
                         - run_schedule(topo, schedule[:f]).decoded[b.sender - 1])
        if lacking:
            schedule[f] = unit_broadcast(b.sender, topo.num_segments, {lacking[0]: 5})
    elif fault == "length":
        schedule[f] = Broadcast(b.sender, b.coefficients + (0,))
    elif fault == "sender":
        schedule[f] = Broadcast(topo.num_users + 1, b.coefficients)
    target = schedule[int(lie_where * (len(schedule) - 1))].coefficients if lie else None
    if target is not None and len(target) != topo.num_segments:
        target = None
    assert_refused_as_dict_basis(topo, schedule, target)


def test_a_payload_mismatch_before_a_span_failure_in_one_run():
    """Slot 1 of a run is sent with a wrong payload and slot 3 leaves the
    sender's span: the payload refusal comes first, and without it the
    span one.  Swapped, the span refusal comes first."""
    topo = StorageTopology(3, {1: {1, 2}, 2: {3}, 3: {1}})
    run = [unit_broadcast(1, 3, {1: 1}), unit_broadcast(1, 3, {2: 1}),
           unit_broadcast(1, 3, {1: 2, 2: 3}), unit_broadcast(1, 3, {3: 1}),
           unit_broadcast(1, 3, {1: 4})]
    assert first_refusal(topo, run, run[1].coefficients) == (1, "payload")
    assert_refused_as_dict_basis(topo, run, run[1].coefficients)
    assert first_refusal(topo, run) == (3, "span")
    assert_refused_as_dict_basis(topo, run)
    assert first_refusal(topo, run, run[4].coefficients) == (3, "span")
    assert_refused_as_dict_basis(topo, run, run[4].coefficients)


@contextlib.contextmanager
def counted_pieces():
    """While open, run_schedule's bases note how many slots each piece
    took and in how many classes of users it went in, in order, in the
    two lists it yields."""
    pieces, classes = [], []

    class Counted(UserBases):
        __slots__ = ()

        def _eliminate(self, cols, at, block, *rest):
            pieces.append(len(block))
            classes.append(block.shape[1])
            return super()._eliminate(cols, at, block, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypercast.sim, "UserBases", Counted)
        yield pieces, classes


def count_pieces(topology, schedule, store=None):
    """run_schedule's transcript, how many slots each of its pieces took
    and in how many classes of users each piece went in."""
    with counted_pieces() as (pieces, classes):
        t = run_schedule(topology, schedule, store)
    return t, pieces, classes


def test_a_run_over_every_segment_is_cut_and_matches_the_dict_basis():
    """Before any basis row exists the budget is one V x W residual, less
    than RUN_ALLOWANCE, and every broadcast of the first run spans every
    segment.  Its W + 3 slots are more than the `shared` ones, so
    run_schedule delivers it alone at the change of sender and cuts it:
    its first piece takes RUN_ALLOWANCE // (V x W) slots, the rest goes
    in as a second, and the next sender's run as a third; the run goes
    past its support size too.  Delivered at once, the schedule goes in
    as two pieces: the first run's rest shares one with the next run."""
    W = 64
    topo = StorageTopology(W, {1: set(range(1, W + 1)), 2: set(), 3: {1, 2},
                               4: set(range(1, W // 2 + 1)), 5: {W}})
    rng = random.Random(3)
    schedule = [Broadcast(1, tuple(rng.randrange(1, P) for _ in range(W))) for _ in range(W + 3)]
    schedule += [unit_broadcast(4, W, {2: 1, 5: 7}), unit_broadcast(4, W, {3: 1})]
    V = topo.num_users
    shared = RUN_ALLOWANCE // (V * W)
    assert 1 < shared < W + 3 and W + 5 - shared <= shared
    t, pieces, _ = count_pieces(topo, schedule)
    assert pieces == [shared, W + 3 - shared, 2]
    stored = np.array([[w in topo.holding(v) for w in range(1, W + 1)] for v in topo.users])
    with counted_pieces() as (pieces, _):
        hypercast.sim.UserBases(stored).deliver(
            [b.sender - 1 for b in schedule], np.array([b.coefficients for b in schedule]))
    assert pieces == [shared, W + 5 - shared]
    check_hand_built_run(topo, schedule)
    assert t.complete


def test_a_payload_run_budget_counts_the_store():
    """Before any basis row exists, a payload run's budget holds the W + 1
    store and zero rows besides one residual of V x (W + L) values.  So
    without RUN_ALLOWANCE, which would hold the whole run by itself, the
    first run, two broadcasts over every segment, goes in as one piece,
    where one residual alone would hold one slot at a time; the run
    matches the dict basis and decodes the store."""
    W = 12
    topo = StorageTopology(W, {1: set(range(1, W + 1)), 2: set(), 3: {1, 2},
                               4: set(range(1, 7)), 5: {12}})
    rng = random.Random(3)
    schedule = [Broadcast(1, tuple(rng.randrange(1, P) for _ in range(W))) for _ in range(2)]
    schedule += [unit_broadcast(4, W, {2: 1, 5: 7}), unit_broadcast(4, W, {3: 1})]
    store = materialize_payloads(topo, seed=0)
    V, L = topo.num_users, store.length
    assert V * (W + L) < 2 * V * (W + L) <= (W + 1) * L + V * (W + L)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", 0)
        t, pieces, _ = count_pieces(topo, schedule, store)
        assert pieces == [2, 2]
        assert [r.ranks for r in t.slots] == dict_basis_run(topo, schedule)[0]
        check_hand_built_run(topo, schedule)


@settings(max_examples=40, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 3))
def test_property_runs_cut_by_the_bases_budget_match_dict_basis(topo, seed, runs):
    """Without RUN_ALLOWANCE a run is cut wherever its block would outgrow
    what the bases hold plus one residual, as only larger runs are cut
    with it: every piece still matches the dict bases, and a payload run
    decodes the store."""
    schedule = run_heavy_schedule(random.Random(seed), topo, runs, P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", 0)
        t, pieces, _ = count_pieces(topo, schedule)
        assert sum(pieces) == len(schedule)
        assert_matches_dict_basis(topo, schedule)
        paid = run_schedule(topo, schedule, materialize_payloads(topo, seed=3), completion=True)
    assert paid.complete and paid.slots[:len(schedule)] == t.slots


def test_a_relay_goes_in_as_one_piece_and_each_sender_is_checked_in_it():
    """User 1 sends e1 at slot 0; user 2, which stores segment 2, can form
    e1 + e2 only after it: both runs share one piece and are accepted, and
    user 3, which stores nothing, decodes both segments.  Swapped, user 2
    cannot form e1 + e2 at slot 0; with its payload of slot 1 made off,
    the payload check fails there."""
    topo = StorageTopology(2, {1: {1}, 2: {2}, 3: set()})
    relay = [unit_broadcast(1, 2, {1: 1}), unit_broadcast(2, 2, {1: 1, 2: 1})]
    t, pieces, _ = count_pieces(topo, relay)
    assert pieces == [2] and t.complete
    assert [r.ranks for r in t.slots] == [(1, 2, 1), (2, 2, 2)]
    check_hand_built_run(topo, relay)
    with pytest.raises(ValueError, match="^slot 0: sender 2 cannot form these coefficients$"):
        run_schedule(topo, relay[::-1])
    assert_refused_as_dict_basis(topo, relay[::-1])
    store = LyingStore(materialize_payloads(topo, seed=3), relay[1].coefficients)
    with counted_pieces() as (pieces, _), pytest.raises(PayloadMismatch) as caught:
        run_schedule(topo, relay, store)
    assert pieces == [2]
    assert str(caught.value) == "slot 1: sender 2's payload is not the store's combination"
    assert_refused_as_dict_basis(topo, relay, relay[1].coefficients)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_general_schedules_go_in_as_one_piece_and_dbqt_runs_alone(seed):
    """A dbqt-general schedule on a small cyclic instance, whose slots by
    V x W values fit RUN_ALLOWANCE, goes in as one piece of many senders'
    runs; DBQT's runs at V = 20, W = 128, whose block over every column
    fits only a few slots, go in as before: no piece holds two runs.
    Both match the rank oracle."""
    topo = random_instance(16, 32, 2, 3, seed)
    schedule = dbqt_general(topo)
    assert len({b.sender for b in schedule}) > 2
    assert len(schedule) * topo.num_users * topo.num_segments <= RUN_ALLOWANCE
    t, pieces, _ = count_pieces(topo, schedule)
    assert pieces == [len(schedule)]
    assert t.slots[-1].ranks == tuple(oracle_rank(topo, [b.coefficients for b in schedule], v)
                                      for v in topo.users)
    topo = random_instance(20, 128, 0, 3, seed)
    schedule = list(dbqt_schedule(topo).schedule)
    t, pieces, _ = count_pieces(topo, schedule)
    runs = [len(list(run)) for _, run in itertools.groupby(schedule, key=lambda b: b.sender)]
    assert set(itertools.accumulate(runs)) <= set(itertools.accumulate(pieces))
    assert t.complete


def test_users_with_equal_holdings_go_in_as_one_class():
    """Users 2, 3 and 4 store the same segments, and user 1 stores every
    segment, so no piece has as many classes as users.  The three runs
    of two senders, 10 slots by V x W values, fit RUN_ALLOWANCE and go in
    as one piece, where each sender run is checked at its first slot;
    without the allowance each run goes in alone, cut by the bases'
    budget.  Either way the run matches the dict bases row for row and
    decodes the store."""
    W = 8
    topo = StorageTopology(W, {1: set(range(1, W + 1)), 2: {1, 2}, 3: {1, 2}, 4: {1, 2},
                               5: {3, 4, 5}, 6: {8}})
    rng = random.Random(5)
    schedule = [Broadcast(1, tuple(rng.randrange(P) for _ in range(W))) for _ in range(4)]
    schedule += [unit_broadcast(5, W, {3: 1, 4: 2}), unit_broadcast(5, W, {5: 1})]
    schedule += [Broadcast(1, tuple(rng.randrange(P) for _ in range(W))) for _ in range(4)]
    assert len(schedule) * topo.num_users * W <= RUN_ALLOWANCE
    t, pieces, classes = count_pieces(topo, schedule)
    assert pieces == [10] and max(classes) < topo.num_users
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", 0)
        alone, pieces, classes = count_pieces(topo, schedule)
    assert alone == t and len(pieces) > 3 and max(classes) < topo.num_users
    assert {4, 6} <= set(itertools.accumulate(pieces))  # the runs' ends
    check_hand_built_run(topo, schedule)
    assert t.complete


def test_an_off_payload_splits_a_class_and_decodes_as_each_user_alone():
    """Users 2 and 3 store nothing, so their coefficient residuals agree
    at every slot and the run goes in as two classes with the sender.  With
    user 2's payload of slot 0 made off by one, their payload columns
    differ and it goes in as three: only user 2's segment 1, the one its
    row from slot 0 decodes, then differs from the store."""
    topo = StorageTopology(3, {1: {1, 2, 3}, 2: set(), 3: set()})
    schedule = [unit_broadcast(1, 3, {1: 1, 2: 1, 3: 1}), unit_broadcast(1, 3, {2: 1}),
                unit_broadcast(1, 3, {3: 1})]
    store = materialize_payloads(topo, seed=1)
    t, pieces, classes = count_pieces(topo, schedule, store)
    assert t.complete and pieces == [3] and classes == [2]
    honest = UserBases.formed

    def formed(self, vectors):
        out = honest(self, vectors)
        out[(vectors == 1).all(axis=1), 1, 0] += 1  # user 2's of slot 0
        out %= P
        return out

    with pytest.MonkeyPatch.context() as mp, counted_pieces() as (pieces, classes):
        mp.setattr(UserBases, "formed", formed)
        with pytest.raises(PayloadMismatch) as caught:
            run_schedule(topo, schedule, store)
    assert pieces == [3] and classes == [3]
    assert str(caught.value) == "decoded payloads differ from the store at (user, segment) (2, 1)"


@settings(max_examples=40, deadline=None)
@given(topo=topologies(), copies=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 3))
def test_property_copied_users_match_dict_basis(topo, copies, seed, runs):
    """Users added as copies of others share their classes: ranks, decode
    order and every basis row as the dict bases, and a payload run that
    decodes the store."""
    V = topo.num_users
    holdings = {v: set(topo.holding(v)) for v in topo.users}
    for i, c in enumerate(copies):
        holdings[V + 1 + i] = set(holdings[(c - 1) % V + 1])
    topo = StorageTopology(topo.num_segments, holdings)
    check_hand_built_run(topo, run_heavy_schedule(random.Random(seed), topo, runs, P))


def whole_file_run(V, W, store=False):
    """One sender broadcasts W - 1 combinations of every segment to V - 1
    users that each miss two.  Returns the peak of traced memory during
    the run above what is left after it."""
    holdings = {1: set(range(1, W + 1))}
    for u in range(2, V + 1):
        holdings[u] = set(range(1, W + 1)) - {2 * u - 3, 2 * u - 2}
    topo = StorageTopology(W, holdings)
    rng = random.Random(1)
    schedule = [Broadcast(1, tuple(rng.randrange(1, P) for _ in range(W))) for _ in range(W - 1)]
    store = materialize_payloads(topo, seed=0) if store else None
    run_schedule(topo, schedule[:2], store)  # numpy's first calls allocate for good
    tracemalloc.start()
    try:
        t = run_schedule(topo, schedule, store)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.complete
    return peak - kept


def test_a_run_over_the_whole_file_stays_within_the_budget():
    """In one piece the run's residuals would take (W - 1) x V x W values,
    8.5 MB here; cut by the budget, the run peaks at less than four V x W
    residuals above what its transcript keeps."""
    V, W = 65, 128
    assert whole_file_run(V, W) < 4 * V * W * 8


def test_a_payload_run_over_the_whole_file_stays_within_the_budget():
    """With payloads, forming every user's payload of a broadcast over
    every segment gathers V x W x L values, as each slot did before runs
    went in at once.  In one piece the run's pending payloads alone would
    take (W - 1) x V x L values, as many again; cut by the budget, the run
    peaks at less than four residuals of V x (W + L) values above that
    gather."""
    V, W = 65, 128
    L = W + 1
    assert whole_file_run(V, W, store=True) < (V * W * L + 4 * V * (W + L)) * 8


def test_row_emptied_in_the_window_keeps_its_entries_beyond_it():
    """User 2's row with pivot 1 holds segments 2 and 3.  User 3's e2 runs
    over segment 2 alone, so the row's entry at 3 lies beyond that run's
    columns: the row loses its entry at 2 there but is not decoded."""
    topo = StorageTopology(4, {1: {1, 2, 3, 4}, 2: set(), 3: {2}})
    schedule = [unit_broadcast(1, 4, {1: 1, 2: 1, 3: 1}), unit_broadcast(3, 4, {2: 1})]
    assert check_hand_built_run(topo, schedule)[1, 0] == {2: 1}
    assert run_schedule(topo, schedule).decoded[1] == frozenset({2})


def slot_units(topology, schedule):
    """The segments decoded at each slot, in the order UserBases gives
    them, from one delivery of the whole schedule."""
    return [[w + 1 for w in units] for _, units in delivered_at_once(topology, schedule)[1]]


def held_topology(W):
    """User 1 stores every segment, user 2 all but 1 and user 3 all but
    1, 2 and 3."""
    return StorageTopology(W, {1: set(range(1, W + 1)), 2: set(range(2, W + 1)),
                               3: set(range(4, W + 1))})


# user 2 decodes segment 1 from slot 0 and then sends e2 + y e3 and e3, a
# run that goes in as a piece of its own without RUN_ALLOWANCE, so user
# 3's row from slot 0 is held from before it
HELD = held_topology(6)
X, Y = 5, 7


def held_row_run(first, middle=(), W=6):
    """User 1's broadcast `first` at slot 0, then user 2's e2 + y e3,
    the broadcasts `middle`, and e3."""
    return [unit_broadcast(1, W, first), unit_broadcast(2, W, {2: 1, 3: Y}), *middle,
            unit_broadcast(2, W, {3: 1})]


def test_a_held_row_hit_only_through_fill_in_decodes_at_its_last_hit():
    """User 3's row e1 + x e2 takes e2 + y e3 at slot 1 and so gains an
    entry at 3, which e3 clears at slot 2: its last hit comes through that
    fill-in alone, and user 3 decodes 1, 2 and 3 there."""
    schedule = held_row_run({1: 1, 2: X})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", 0)
        assert count_pieces(HELD, schedule)[1] == [1, 2]
        assert slot_units(HELD, schedule) == [[1], [], [1, 2, 3]]
        check_hand_built_run(HELD, schedule)
    assert dict_basis_run(HELD, schedule[:2])[1][2] == []
    assert dict_basis_run(HELD, schedule)[1][2] == [1, 2, 3]


def test_a_held_row_emptied_at_a_slot_is_not_hit_after_it():
    """User 3's row e1 + x e2 + xy e3 loses both entries to e2 + y e3 at
    slot 1, so it decodes 1 there; e3 at slot 2 no longer hits it, though
    the row held an entry at 3 before the piece."""
    schedule = held_row_run({1: 1, 2: X, 3: X * Y})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", 0)
        assert count_pieces(HELD, schedule)[1] == [1, 2]
        assert slot_units(HELD, schedule) == [[1], [1], [2, 3]]
        check_hand_built_run(HELD, schedule)
    assert dict_basis_run(HELD, schedule[:2])[1][2] == [1]
    assert dict_basis_run(HELD, schedule)[1][2] == [1, 2, 3]


def test_a_long_run_of_repeats_between_gains_hits_a_held_row_at_its_last_gain():
    """Between e2 + y e3 and e3, user 2 repeats e2 + y e3 a hundred times,
    and a hundred more after e3: slots without a gain for any user.  Its
    203 slots over 64 segments are more than the `shared` ones, so with
    RUN_ALLOWANCE the run goes in as one piece of 202 after slot 0's, and
    without it in short pieces.  Either way user 3's row from slot 0 is
    hit last through fill-in at e3's slot."""
    W = 64
    topo = held_topology(W)
    repeat = unit_broadcast(2, W, {2: 1, 3: Y})
    schedule = held_row_run({1: 1, 2: X}, [repeat] * 100, W) + [repeat] * 100
    for allowance in (RUN_ALLOWANCE, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field, "RUN_ALLOWANCE", allowance)
            pieces = count_pieces(topo, schedule)[1]
            assert (pieces == [1, 202]) == bool(allowance)
            units = slot_units(topo, schedule)
            assert units[102] == [1, 2, 3] and [u for u in units if u] == [[1], [1, 2, 3]]
            check_hand_built_run(topo, schedule)


@pytest.mark.parametrize("first, units", [
    # e2 + y e3 gives the row an entry at 3 by fill-in alone, which e3 clears
    ({1: 1, 2: X}, [[1], [], [1, 2, 3]]),
    # e2 + y e3 empties the row, cancelling its entry at 3, so e3 misses it
    ({1: 1, 2: X, 3: X * Y}, [[1], [1], [2, 3]]),
])
def test_a_new_row_decodes_at_its_last_hit(first, units):
    """The held rows' two cases above with user 1 sending all three
    broadcasts, so one run in one piece with RUN_ALLOWANCE and without it
    (W = 12 keeps it within the budget): user 3's row from slot 0 is a new
    row of the piece that hits it, and decodes at its last hit."""
    topo = held_topology(12)
    schedule = [unit_broadcast(1, 12, first), unit_broadcast(1, 12, {2: 1, 3: Y}),
                unit_broadcast(1, 12, {3: 1})]
    for allowance in (RUN_ALLOWANCE, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field, "RUN_ALLOWANCE", allowance)
            assert count_pieces(topo, schedule)[1] == [3]
            assert slot_units(topo, schedule) == units
            check_hand_built_run(topo, schedule)
    assert dict_basis_run(topo, schedule[:2])[1][2] == units[1]  # user 3 alone decodes at slot 1
    assert dict_basis_run(topo, schedule)[1][2] == [1, 2, 3]


@settings(max_examples=40, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), runs=st.integers(2, 4))
def test_property_held_rows_reduced_a_row_at_a_time_match_dict_basis(topo, seed, runs):
    """With each run its own piece, so that rows are held from before
    pieces, and _STEP_VALUES so small that every class's product with its
    new rows goes one held row at a time: ranks, decode order and every
    basis row as the dict bases, and a payload run that decodes."""
    schedule = run_heavy_schedule(random.Random(seed), topo, runs, P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", 0)
        mp.setattr(field, "_STEP_VALUES", 1)
        check_hand_built_run(topo, schedule)


def test_coefficients_beyond_int64_and_negative_act_as_their_residues(tree_topology):
    schedule = list(dbqt_schedule(tree_topology).schedule)
    big = [Broadcast(b.sender, tuple(c + P * 2**40 for c in b.coefficients)) for b in schedule]
    negative = [Broadcast(b.sender, tuple(c - 3 * P for c in b.coefficients)) for b in schedule]
    assert max(max(b.coefficients) for b in big) >= 2**63
    expected = run_schedule(tree_topology, schedule)
    for variant in (big, negative):
        assert run_schedule(tree_topology, variant) == expected
    # both in one vector: its zeros as multiples of P beyond int64, the rest negative
    mixed = [Broadcast(b.sender, tuple(c - P if c else P * 2**40 for c in b.coefficients))
             for b in schedule]
    assert run_schedule(tree_topology, mixed) == expected


def test_completion_broadcasts_what_is_missing(tree_topology):
    coded = list(dbqt_schedule(tree_topology).schedule)
    t = run_schedule(tree_topology, coded[:1], completion=True)
    assert t.complete
    tail = t.schedule[1:]
    assert all(sum(1 for c in b.coefficients if c) == 1 for b in tail)
    missing = [w for w in range(1, 5) if not all(w in d for d in run_schedule(
        tree_topology, coded[:1]).decoded)]
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


class ScriptedWords(random.Random):
    """A generator whose 32-bit words come from a list, first to last."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def getrandbits(self, k):
        n = -(-k // 32)
        out = 0
        for i, word in enumerate(self.words[:n]):
            if i == n - 1 and k % 32:
                word >>= 32 - k % 32
            out |= word << 32 * i
        del self.words[:n]
        return out


def test_payload_draw_equals_the_randrange_loop():
    for seed in (0, 1, 4, 2**40 + 3):
        for n in (0, 1, 2, 65 * 64, 3 * 5):
            ours, loop = random.Random(seed), random.Random(seed)
            drawn = _draw_residues(ours, n)
            assert drawn.dtype == np.int64
            assert drawn.tolist() == [loop.randrange(P) for _ in range(n)]
            assert ours.getstate() == loop.getstate()
    # 0xFFFFFFFE and 0xFFFFFFFF both have P as their top 31 bits, so each is redrawn
    words = [0xFFFFFFFE, 5, 0xFFFFFFFF, 0xFFFFFFFF, 7, 0xFFFFFFFE, 9, 11, 13]
    ours, loop = ScriptedWords(words), ScriptedWords(words)
    assert _draw_residues(ours, 4).tolist() == [loop.randrange(P) for _ in range(4)] == [2, 3, 4, 5]
    assert ours.words == loop.words == [13]


def test_materialize_payloads_matches_the_randrange_loop(tree_topology):
    rng = random.Random(5)
    W = tree_topology.num_segments
    expected = [[rng.randrange(P) for _ in range(W)] for _ in range(W + 1)]
    assert materialize_payloads(tree_topology, seed=5).matrix.tolist() == expected


def test_materialize_payloads_honors_declared_length():
    topo = StorageTopology(2, {1: {1}, 2: {2}}, payload_length=9)
    store = materialize_payloads(topo, seed=1)
    assert store.length == 9
    assert store.matrix.shape == (9, 2)


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

    def flipped(v):
        w = int(np.flatnonzero(v)[0])
        v = v.copy()
        v[w] = (v[w] + 1) % P
        return v

    # every user's formed payload, the sender's among them, uses flipped coefficients
    honest_formed = UserBases.formed

    def formed(self, vectors):
        return honest_formed(self, np.array([flipped(v) for v in vectors]))

    monkeypatch.setattr(UserBases, "formed", formed)
    with pytest.raises(PayloadMismatch, match="slot 0"):
        run_schedule(tree_topology, schedule, store)
    assert not verify_payload_run(store, schedule)
    monkeypatch.undo()

    # slot 0 (sender 3, segments 2 and 3) lets user 2 decode segment 3
    first = np.array(schedule[0].coefficients, dtype=np.int64)
    slipped = []

    def formed(self, vectors):
        out = honest_formed(self, vectors)
        if not slipped:  # user 2 takes in the flipped combination at slot 0
            assert np.array_equal(vectors[0], first)
            out[0, 1] += store.combine(first) - store.combine(flipped(first))
            out[0, 1] %= P
            slipped.append(1)
        return out

    monkeypatch.setattr(UserBases, "formed", formed)
    assert not verify_payload_run(store, schedule)
    slipped.clear()
    # every sender stays honest, so only the final decode sees it
    with pytest.raises(PayloadMismatch, match="decoded payloads differ") as caught:
        run_schedule(tree_topology, schedule, store)
    assert slipped
    mismatches = [(int(v), int(w)) for v, w in re.findall(r"\((\d+), (\d+)\)", str(caught.value))]
    # the error then spreads to what user 2 decodes later, and no further
    assert mismatches == [(2, 3), (2, 4), (2, 1)]


@settings(max_examples=60, deadline=None)
@given(topo=topologies(), seed=st.integers(0, 2**32 - 1), slots=st.integers(0, 6),
       coeff_range=st.sampled_from([2, 3, P]))
def test_property_decoded_matches_dense_oracle_after_every_prefix(topo, seed, slots, coeff_range):
    """Transcript.decoded of every prefix of a run, its uncoded completion
    included, is the oracle's decoded set."""
    rng = random.Random(seed)
    schedule = run_schedule(
        topo, random_in_span_schedule(rng, topo, slots, coeff_range), completion=True
    ).schedule
    heard = [b.coefficients for b in schedule]
    for k in range(len(schedule) + 1):
        decoded = run_schedule(topo, schedule[:k]).decoded
        assert decoded == tuple(oracle_decoded(topo, heard[:k], v) for v in topo.users)

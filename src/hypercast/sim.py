"""Collision-channel broadcast simulation at the coefficient level.

A broadcast is a coefficient vector over the W segments, and its sender
must be able to form it: the vector has to lie in the span of what the
sender knows.  Each user keeps the set of segments it stores plus a
fully reduced sparse basis (field.ColumnBasis) over only the segments it
is missing; a received vector is restricted to those coordinates and
reduced into the basis.  A user's rank is its stored count plus the
basis rank, and it has decoded segment w iff it stores w or the basis
row with pivot w is one-hot.  The run is complete when every user
reaches full rank.

`run_schedule` is the one loop over broadcast slots.  With a store it
carries actual length-L codewords: every basis row holds the payload of
its vector, and row operations are mirrored on it.  Each slot checks the
sender's payload combination against M.c (M the store matrix, c the
coefficient vector); at the end of the run every decoded segment is
compared bit for bit with the store.  Either check raises
PayloadMismatch.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Mapping

import numpy as np

from .field import P, ColumnBasis, rank_mod
from .topology import StorageTopology

MAX_SIM_SEGMENTS = 2048  # the largest measured size that completed (README)

__all__ = [
    "MAX_SIM_SEGMENTS",
    "PayloadMismatch",
    "UserState",
    "Broadcast",
    "SlotRecord",
    "Transcript",
    "SegmentStore",
    "run_schedule",
    "uncoded_broadcast",
    "naive_schedule",
    "materialize_payloads",
    "verify_payload_run",
]


class PayloadMismatch(ValueError):
    """A sender's payload differs from the store's combination, or a
    decoded payload differs from the store."""


class UserState:
    """One user's stored segments and its basis over the missing ones."""

    __slots__ = ("user", "stored", "basis", "store")

    def __init__(self, user: int, stored: Iterable[int], store=None):
        self.user = user
        self.stored = frozenset(stored)
        self.basis = ColumnBasis()
        self.store = store

    @property
    def rank(self) -> int:
        return len(self.stored) + self.basis.rank

    @property
    def decoded(self) -> frozenset[int]:
        return self.stored.union(self.basis.units)

    def spans(self, coeffs: Mapping[int, int]) -> bool:
        """True iff this user can form the coefficient vector `coeffs`."""
        return self.basis.contains({w: c for w, c in coeffs.items() if w not in self.stored})

    def payload_of(self, coeffs: Mapping[int, int]) -> np.ndarray:
        """Payload this user forms for `coeffs`, which it spans: stored
        columns for stored entries, row payloads for pivot entries (the
        rest of the missing part is made of those rows)."""
        acc = np.zeros(self.store.length, dtype=np.int64)
        for w, c in coeffs.items():
            y = self.store.column(w) if w in self.stored else self.basis.payloads.get(w)
            if y is not None:
                acc = (acc + c * y) % P
        return acc

    def receive(self, coeffs: Mapping[int, int], payload: np.ndarray | None = None) -> bool:
        """Take in a broadcast; True iff the rank grew."""
        missing = {}
        for w, c in coeffs.items():
            if w not in self.stored:
                missing[w] = c
            elif payload is not None:
                payload = (payload - c * self.store.column(w)) % P
        return self.basis.insert(missing, payload)


@dataclass(frozen=True)
class Broadcast:
    """One slot: `sender` transmits the combination with one coefficient
    per segment."""

    slot: int
    sender: int
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    sender: int
    coefficients: tuple[int, ...]
    ranks: tuple[int, ...]
    remaining_edges: int


@dataclass(eq=False)
class Transcript:
    num_users: int
    num_segments: int
    initial_ranks: tuple[int, ...]
    slots: list[SlotRecord]
    complete: bool
    final_states: list[UserState] = dc_field(repr=False, default_factory=list)

    @property
    def num_broadcasts(self) -> int:
        return len(self.slots)

    @property
    def schedule(self) -> list[Broadcast]:
        return [Broadcast(r.slot, r.sender, r.coefficients) for r in self.slots]


def run_schedule(
    topology: StorageTopology,
    schedule: Iterable[Broadcast],
    store: SegmentStore | None = None,
    completion: bool = False,
    on_slot=None,
) -> Transcript:
    """Deliver a schedule slot by slot: the one loop over broadcast slots.

    Every slot checks that the sender spans its coefficients and, with a
    `store`, that its payload equals the store's combination; once the
    slots run out, every decoded payload is compared with the store.
    Either check raises PayloadMismatch.  With `completion`, each
    segment some user still lacks once `schedule` runs out is then
    broadcast uncoded, in ascending order.  Each record counts the model
    edges still carrying a segment not every user has decoded, so a
    segment stored nowhere is refused.  `on_slot(states, record)` runs
    after every slot.
    """
    V, W = topology.num_users, topology.num_segments
    if W > MAX_SIM_SEGMENTS:
        raise ValueError(f"simulator supports at most {MAX_SIM_SEGMENTS} segments, got {W}")
    states = [UserState(v, topology.holding(v), store) for v in topology.users]
    initial_ranks = tuple(s.rank for s in states)
    # known[w]: users that have decoded w; w is known by all at V
    known = [0] * (W + 1)
    for s in states:
        for w in s.stored:
            known[w] += 1
    edge_of: dict[int, int] = {}
    left: list[int] = []  # per model edge, its segments not known by all
    h, placement, _ = topology.to_hypergraph()
    for i, e in enumerate(h.edges):
        segs = [w for w in placement[e.vertices] if known[w] < V]
        edge_of.update((w, i) for w in segs)
        left.append(len(segs))
    open_edges = sum(1 for n in left if n)
    records: list[SlotRecord] = []

    def slots():
        yield from schedule
        if completion:
            for w in [w for w in range(1, W + 1) if known[w] < V]:
                yield uncoded_broadcast(topology, len(records), w)

    for i, b in enumerate(slots()):
        if b.slot != i:
            raise ValueError(f"schedule slots must run 0..T-1 consecutively; saw {b.slot} at {i}")
        if not 1 <= b.sender <= V:
            raise ValueError(f"slot {i}: sender {b.sender} outside 1..{V}")
        if len(b.coefficients) != W:
            raise ValueError(f"slot {i}: {len(b.coefficients)} coefficients for {W} segments")
        dense = tuple(int(c) % P for c in b.coefficients)
        coeffs = {w: c for w, c in enumerate(dense, start=1) if c}
        sender = states[b.sender - 1]
        if not sender.spans(coeffs):
            raise ValueError(f"slot {i}: sender {b.sender} cannot form these coefficients")
        payload = None
        if store is not None:
            payload = sender.payload_of(coeffs)
            if not np.array_equal(payload, store.combine(coeffs)):
                raise PayloadMismatch(
                    f"slot {i}: sender {b.sender}'s payload is not the store's combination"
                )
        for s in states:
            if s is sender:
                continue
            units = s.basis.units
            n = len(units)
            if s.receive(coeffs, payload):
                for w in units[n:]:
                    known[w] += 1
                    if known[w] == V and w in edge_of:
                        e = edge_of[w]
                        left[e] -= 1
                        if not left[e]:
                            open_edges -= 1
        ranks = tuple(s.rank for s in states)
        record = SlotRecord(i, b.sender, dense, ranks, open_edges)
        records.append(record)
        if on_slot is not None:
            on_slot(states, record)
    if store is not None:
        wrong = [
            (s.user, w)
            for s in states
            for w in s.basis.units
            if not np.array_equal(s.basis.payloads[w], store.column(w))
        ]
        if wrong:
            raise PayloadMismatch(
                "decoded payloads differ from the store at (user, segment) "
                + ", ".join(f"({v}, {w})" for v, w in wrong)
            )
    return Transcript(V, W, initial_ranks, records, all(s.rank == W for s in states), states)


def uncoded_broadcast(topology: StorageTopology, slot: int, w: int) -> Broadcast:
    """Broadcast of the plain segment w by its lowest-id holder."""
    holders = topology.holders_of(w)
    if not holders:
        raise ValueError(f"segment {w} is stored nowhere")
    coefficients = [0] * topology.num_segments
    coefficients[w - 1] = 1
    return Broadcast(slot, min(holders), tuple(coefficients))


def naive_schedule(topology: StorageTopology) -> list[Broadcast]:
    """One uncoded broadcast per segment, in ascending segment order."""
    return [
        uncoded_broadcast(topology, slot, w)
        for slot, w in enumerate(range(1, topology.num_segments + 1))
    ]


class SegmentStore:
    """Ground-truth payloads: one length-L column per segment, with the
    columns linearly independent over GF(P)."""

    __slots__ = ("topology", "length", "matrix")

    def __init__(self, topology: StorageTopology, matrix: np.ndarray):
        W = topology.num_segments
        if matrix.ndim != 2 or matrix.shape[1] != W:
            raise ValueError("matrix must have one column per segment")
        if matrix.shape[0] <= W:
            raise ValueError(f"payload length {matrix.shape[0]} must exceed {W}")
        if rank_mod(matrix) != W:
            raise ValueError("payload columns must be linearly independent")
        self.topology = topology
        self.length = matrix.shape[0]
        self.matrix = matrix % P

    def column(self, w: int) -> np.ndarray:
        if not 1 <= w <= self.topology.num_segments:
            raise ValueError(f"segment {w} outside range")
        return self.matrix[:, w - 1]

    def combine(self, coeffs: Mapping[int, int]) -> np.ndarray:
        """M.c for a sparse coefficient map {segment: coeff}."""
        acc = np.zeros(self.length, dtype=np.int64)
        for w, c in coeffs.items():
            acc = (acc + c % P * self.column(w)) % P
        return acc


def materialize_payloads(topology: StorageTopology, seed: int) -> SegmentStore:
    """Draw random payload columns, re-sampling until independent."""
    W = topology.num_segments
    L = topology.payload_length if topology.payload_length is not None else W + 1
    if L <= W:
        raise ValueError(f"payload length {L} must exceed num_segments {W}")
    rng = random.Random(seed)
    for _ in range(16):
        matrix = np.array(
            [[rng.randrange(P) for _ in range(W)] for _ in range(L)], dtype=np.int64
        )
        try:
            return SegmentStore(topology, matrix)
        except ValueError:  # dependent columns; draw again
            pass
    raise RuntimeError("failed to draw independent payload columns")


def verify_payload_run(store: SegmentStore, schedule: Iterable[Broadcast]) -> bool:
    """Re-run a schedule on real payload vectors.

    True iff every sender's payload equals the store's combination of
    its coefficients, the schedule leaves every user complete, and every
    user's decoded payloads then equal the store bit for bit.  By
    linearity the per-slot check keeps every row's payload the image of
    its coefficients, so each decoded segment is exact at every slot;
    the final decode guards that argument.
    """
    try:
        return run_schedule(store.topology, schedule, store).complete
    except PayloadMismatch:
        return False

"""Collision-channel broadcast simulation at the coefficient level.

A broadcast is a coefficient vector over the W segments, and its sender
must be able to form it: the vector has to lie in the span of what the
sender knows.  Every user spans the unit vectors of the segments it
stores plus a fully reduced sparse basis over the segments it is
missing, and all users' bases live in one field.UserBases.  Broadcasts
go into every basis a piece at a time: one grouped sum reduces every slot
of the piece for every receiver, and a small dense elimination takes the
slots in.  A piece is a run, the broadcasts one sender makes one after
another (or part of a long one), or several runs in a row while their
block over every segment fits field.RUN_ALLOWANCE.  A sender learns
nothing from its own broadcasts, so its run is checked all at once in
the elimination, at the run's first slot.  A user's rank is its stored
count plus its basis rank, and it has decoded segment w iff it stores w
or its basis row with pivot w is one-hot.  A schedule completes when
every user reaches full rank.

A schedule is a plain list of Broadcast(sender, coefficients), and a
broadcast's slot is its position in it.  `run_schedule` is the one loop
over slots, which it delivers piece by piece; its Transcript holds one
record per slot, in the same order, and each user's decoded segments at
the end.  With a store it carries actual length-L codewords: every basis
row holds the payload of its vector, and each row operation is applied
to it.  A piece's pending residuals carry their payloads as columns after
their coefficients, so one rank-1 update per slot takes both, and the
piece budget counts the store's rows as well as the basis rows' payloads.
Each slot checks the sender's payload combination against M.c (M the
store matrix, c the coefficient vector); at the end of the schedule
every decoded segment is compared bit for bit with the store.  Either
check raises PayloadMismatch.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .field import P, Refused, UserBases, combine_mod, rank_mod
from .topology import StorageTopology

MAX_SIM_SEGMENTS = 2048  # the largest measured size that completed (README)
# users times segments of the largest run measured to complete at the
# coefficient level: 1000 users and 2048 segments (README)
MAX_SIM_CELLS = 1000 * 2048
# payload entries in the largest default store: L = W + 1 at W = MAX_SIM_SEGMENTS
_MAX_STORE_ENTRIES = (MAX_SIM_SEGMENTS + 1) * MAX_SIM_SEGMENTS
# payload values on the basis rows of the largest payload run measured to
# complete: the (60, 1024) ladder point with 2 redundant edges, R = 58 942
# rows of L = 1025 values (README)
MAX_PAYLOAD_ROW_VALUES = 58_942 * 1025

__all__ = [
    "MAX_SIM_SEGMENTS",
    "MAX_SIM_CELLS",
    "MAX_PAYLOAD_ROW_VALUES",
    "PayloadMismatch",
    "Broadcast",
    "SlotRecord",
    "Transcript",
    "SegmentStore",
    "run_schedule",
    "uncoded_broadcast",
    "naive_schedule",
    "check_limits",
    "materialize_payloads",
    "verify_payload_run",
]


class PayloadMismatch(ValueError):
    """A sender's payload differs from the store's combination, or a
    decoded payload differs from the store."""


@dataclass(frozen=True)
class Broadcast:
    """One broadcast: `sender` transmits the combination with one
    coefficient per segment.  Its slot is its position in the schedule."""

    sender: int
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class SlotRecord:
    sender: int
    coefficients: tuple[int, ...]
    ranks: tuple[int, ...]
    remaining_edges: int


@dataclass(frozen=True)
class Transcript:
    """The records of a run, slot i at position i, and each user's
    decoded segments once it ends (user v at position v - 1)."""

    num_users: int
    num_segments: int
    initial_ranks: tuple[int, ...]
    slots: list[SlotRecord]
    complete: bool
    decoded: tuple[frozenset[int], ...]

    @property
    def num_broadcasts(self) -> int:
        return len(self.slots)

    @property
    def schedule(self) -> list[Broadcast]:
        return [Broadcast(r.sender, r.coefficients) for r in self.slots]


def run_schedule(
    topology: StorageTopology,
    schedule: Iterable[Broadcast],
    store: SegmentStore | None = None,
    completion: bool = False,
) -> Transcript:
    """Deliver a schedule piece by piece: the one loop over broadcast slots.

    Every slot checks that the sender spans its coefficients and, with a
    `store`, that its payload equals the store's combination; once the
    slots run out, every decoded payload is compared with the store.
    Either check raises PayloadMismatch.  With `completion`, each
    segment some user still lacks once `schedule` runs out is then
    broadcast uncoded, in ascending order, so a segment every user
    stores is never sent.  Each record counts the edges of
    `topology.to_hypergraph()` still carrying a segment not every user
    has decoded.  A run over `check_limits` is refused before anything
    is built.
    """
    V, W = topology.num_users, topology.num_segments
    check_limits(V, W, map(topology.holding, topology.users), None if store is None else store.length)
    stored = np.zeros((V, W), dtype=bool)
    for v in topology.users:
        stored[v - 1, [w - 1 for w in topology.holding(v)]] = True
    # known[c]: users that have decoded segment c + 1, V once all have
    known = stored.sum(axis=0).tolist()
    _h, placement, _leftovers = topology.to_hypergraph()
    edge_of = {w - 1: e for e, segs in enumerate(placement.values()) for w in segs}
    left = [len(segs) for segs in placement.values()]  # per edge, segments not known by all
    open_edges = len(left)
    bases = UserBases(stored, None if store is None else store.matrix.T)
    initial_ranks = tuple(stored.sum(axis=1).tolist())
    records: list[SlotRecord] = []
    pending, plain = [], []  # the slots not yet delivered, and is each one's row a tuple of ints

    def deliver():
        """Deliver the pending slots."""
        nonlocal open_edges
        senders = [b.sender for b in pending]
        vectors = np.array([b.coefficients for b in pending])
        # a record keeps a row's own tuple of ints in [0, P) (as unsigned a negative int is above P)
        kept = np.logical_and(plain, vectors.dtype == np.int64 and (vectors.view("u8") < P).all(1))
        if vectors.dtype != np.int64:  # ints beyond int64 or of other widths: value by value
            vectors = np.array([[int(c) % P for c in b.coefficients] for b in pending], dtype=np.int64)
        vectors %= P
        first = len(records)
        try:
            slots = bases.deliver([s - 1 for s in senders], vectors,
                                  None if store is None else store.combine(vectors))
        except Refused as refusal:
            i, sender = first + refusal.slot, senders[refusal.slot]
            if refusal.payload:
                raise PayloadMismatch(
                    f"slot {i}: sender {sender}'s payload is not the store's combination"
                ) from None
            raise ValueError(f"slot {i}: sender {sender} cannot form these coefficients") from None
        for b, own, dense, (ranks, decoded) in zip(pending, kept, vectors, slots):
            for c in decoded:
                known[c] += 1
                if known[c] == V and c in edge_of:
                    e = edge_of[c]
                    left[e] -= 1
                    if not left[e]:
                        open_edges -= 1
            row = b.coefficients if own else tuple(dense.tolist())
            records.append(SlotRecord(b.sender, row, ranks, open_edges))
        del pending[:], plain[:]

    def walk(broadcasts: Iterable[Broadcast]):
        """The one loop over slots: the pending slots are delivered at an
        invalid slot, at the end, or at a change of sender once there are
        more than the bases take in one piece of several senders."""
        for b in broadcasts:
            i = len(records) + len(pending)
            problem = None
            if isinstance(b.sender, bool) or not isinstance(b.sender, int):
                problem = f"slot {i}: sender {b.sender!r} is not an integer"
            elif not 1 <= b.sender <= V:
                problem = f"slot {i}: sender {b.sender} outside 1..{V}"
            elif len(b.coefficients) != W:
                problem = f"slot {i}: {len(b.coefficients)} coefficients for {W} segments"
            elif (types := set(map(type, b.coefficients))) - {int} and not all(  # numpy takes bools
                    t is not bool and issubclass(t, (int, np.integer)) for t in types):
                problem = f"slot {i}: coefficients {b.coefficients!r} are not all integers"
            if pending and (problem or b.sender != pending[-1].sender and len(pending) > bases.shared):
                deliver()
            if problem:
                raise ValueError(problem)
            pending.append(b)
            plain.append(type(b.coefficients) is tuple and types <= {int})
        if pending:
            deliver()

    walk(schedule)
    if completion:
        walk([uncoded_broadcast(topology, c + 1) for c in range(W) if known[c] < V])
    if store is not None:
        wrong = []
        for u, units in enumerate(bases.units):
            cols = np.array(units, dtype=np.int64)
            differs = (bases.payloads[bases.source[u, cols]] != store.matrix.T[cols]).any(axis=1)
            wrong += [(u + 1, w + 1) for w, bad in zip(units, differs.tolist()) if bad]
        if wrong:
            raise PayloadMismatch(
                "decoded payloads differ from the store at (user, segment) "
                + ", ".join(f"({v}, {w})" for v, w in wrong)
            )
    decoded = tuple(
        topology.holding(v).union(w + 1 for w in bases.units[v - 1]) for v in topology.users
    )
    return Transcript(V, W, initial_ranks, records, bool(bases.covered.all()), decoded)


def uncoded_broadcast(topology: StorageTopology, w: int) -> Broadcast:
    """Broadcast of the plain segment w by its lowest-id holder."""
    holders = topology.holders_of(w)
    coefficients = [0] * topology.num_segments
    coefficients[w - 1] = 1
    return Broadcast(min(holders), tuple(coefficients))


def naive_schedule(topology: StorageTopology) -> list[Broadcast]:
    """One uncoded broadcast per segment, in ascending segment order."""
    return [uncoded_broadcast(topology, w) for w in range(1, topology.num_segments + 1)]


class SegmentStore:
    """Ground-truth payloads: one length-L column per segment, with the
    columns linearly independent over GF(P)."""

    __slots__ = ("topology", "length", "matrix")

    def __init__(self, topology: StorageTopology, matrix: np.ndarray):
        W = topology.num_segments
        if not np.issubdtype(matrix.dtype, np.integer):
            raise ValueError(f"payload matrix must hold integers, got dtype {matrix.dtype}")
        if matrix.ndim != 2 or matrix.shape[1] != W:
            raise ValueError("matrix must have one column per segment")
        if matrix.shape[0] <= W:
            raise ValueError(f"payload length {matrix.shape[0]} must exceed {W}")
        if rank_mod(matrix) != W:
            raise ValueError("payload columns must be linearly independent")
        self.topology = topology
        self.length = matrix.shape[0]
        self.matrix = matrix % P

    def combine(self, v: np.ndarray) -> np.ndarray:
        """M.c for a coefficient vector c of W ints in [0, P), or for each
        row c of a k x W array of them."""
        cols = v.reshape(-1, v.shape[-1]).any(axis=0).nonzero()[0]
        return combine_mod(v[..., cols], self.matrix[:, cols].T)


def check_limits(num_users: int, num_segments: int, holdings=(), payload_length=None):
    """Refuse, from sizes alone, what the simulator does not take, in this
    order: more than MAX_SIM_SEGMENTS segments; more than MAX_SIM_CELLS
    users times segments (each slot works on dense blocks of users by
    segments); and with a payload length L, a store of more entries than
    the largest default one, or more than MAX_PAYLOAD_ROW_VALUES payload
    values on R = V * W - sum |H_v| basis rows, H_v the given holdings."""
    V, W = num_users, num_segments
    if W > MAX_SIM_SEGMENTS:
        raise ValueError(f"simulator supports at most {MAX_SIM_SEGMENTS} segments, got {W}")
    if V * W > MAX_SIM_CELLS:
        raise ValueError(
            f"a run here simulates {V} users by {W} segments, {V * W} in all; "
            f"the simulator takes at most {MAX_SIM_CELLS} users times segments"
        )
    if payload_length is None:
        return
    L = payload_length
    if L * W > _MAX_STORE_ENTRIES:
        raise ValueError(
            f"payload_length {L} over {W} segments needs {L * W} payload entries; "
            f"the simulator takes at most {_MAX_STORE_ENTRIES}"
        )
    R = V * W - sum(map(len, holdings))
    if R * L > MAX_PAYLOAD_ROW_VALUES:
        raise ValueError(
            f"a payload check here carries up to {R} basis rows of {L} payload values, "
            f"{R * L} in all; the simulator takes at most {MAX_PAYLOAD_ROW_VALUES}"
        )


def materialize_payloads(topology: StorageTopology, seed: int) -> SegmentStore:
    """Draw random payload columns, re-sampling until independent.  An
    instance whose payload run the simulator does not take
    (`check_limits`) is refused first."""
    W, L = topology.num_segments, topology.store_length
    check_limits(topology.num_users, W, map(topology.holding, topology.users), L)
    rng = random.Random(seed)
    for _ in range(16):
        matrix = _draw_residues(rng, L * W).reshape(L, W)
        try:
            return SegmentStore(topology, matrix)
        except ValueError:  # dependent columns; draw again
            pass
    raise RuntimeError("failed to draw independent payload columns")


def _draw_residues(rng: random.Random, n: int) -> np.ndarray:
    """n values of rng.randrange(P), in one getrandbits call and one more
    per round of redraws, that leave rng in the same state.  Each randrange(P) is the top 31 bits of
    one 32-bit word, redrawn while it equals P; getrandbits(32 * k) gives
    k such words, least significant first."""
    parts, left = [np.empty(0, np.int64)], n  # n = 0 draws nothing
    while left:
        words = rng.getrandbits(32 * left).to_bytes(4 * left, "little")
        values = np.frombuffer(words, dtype="<u4") >> 1
        values = values[values != P]
        parts.append(values)
        left -= values.size
    return np.concatenate(parts, dtype=np.int64)


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

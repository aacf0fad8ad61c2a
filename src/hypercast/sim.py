"""Collision-channel broadcast simulation at the coefficient level.

A broadcast is a coefficient vector over the W segments, and its sender
must be able to form it: the vector has to lie in the span of what the
sender knows.  Every user spans the unit vectors of the segments it
stores plus a fully reduced sparse basis over the segments it is
missing, and all users' bases live in one field.UserBases, so each
slot reduces the broadcast for every receiver in one vectorized pass.
A user's rank is its stored count plus its basis rank, and it has
decoded segment w iff it stores w or its basis row with pivot w is
one-hot.  The run is complete when every user reaches full rank.

A schedule is a plain list of Broadcast(sender, coefficients), and a
broadcast's slot is its position in it.  `run_schedule` is the one loop
over slots; its Transcript holds one record per slot, in the same
order, and each user's decoded segments at the end.  With a store it
carries actual length-L codewords: every basis row holds the payload of
its vector, and each row operation is applied to it.  Each slot checks
the sender's payload combination against M.c (M the store matrix, c the
coefficient vector); at the end of the run every decoded segment is
compared bit for bit with the store.  Either check raises
PayloadMismatch.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .field import P, UserBases, rank_mod
from .topology import StorageTopology

MAX_SIM_SEGMENTS = 2048  # the largest measured size that completed (README)
# payload entries in the largest default store: L = W + 1 at W = MAX_SIM_SEGMENTS
_MAX_STORE_ENTRIES = (MAX_SIM_SEGMENTS + 1) * MAX_SIM_SEGMENTS

__all__ = [
    "MAX_SIM_SEGMENTS",
    "PayloadMismatch",
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
    """Deliver a schedule slot by slot: the one loop over broadcast slots.

    Every slot checks that the sender spans its coefficients and, with a
    `store`, that its payload equals the store's combination; once the
    slots run out, every decoded payload is compared with the store.
    Either check raises PayloadMismatch.  With `completion`, each
    segment some user still lacks once `schedule` runs out is then
    broadcast uncoded, in ascending order, so a segment every user
    stores is never sent.  Each record counts the edges of
    `topology.to_hypergraph()` still carrying a segment not every user
    has decoded.
    """
    V, W = topology.num_users, topology.num_segments
    _check_segment_limit(W)
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
    initial_ranks = tuple(bases.rank.tolist())
    records: list[SlotRecord] = []

    def slots():
        yield from schedule
        if completion:
            for w in [c + 1 for c in range(W) if known[c] < V]:
                yield uncoded_broadcast(topology, w)

    for i, b in enumerate(slots()):
        if not 1 <= b.sender <= V:
            raise ValueError(f"slot {i}: sender {b.sender} outside 1..{V}")
        if len(b.coefficients) != W:
            raise ValueError(f"slot {i}: {len(b.coefficients)} coefficients for {W} segments")
        try:
            v = np.array(b.coefficients, dtype=np.int64)
        except OverflowError:  # a coefficient beyond int64: reduce it as a Python int
            v = np.array([int(c) % P for c in b.coefficients], dtype=np.int64)
        v %= P
        dense = tuple(v.tolist())
        residuals = bases.reduce(v)
        if residuals[b.sender - 1].any():
            raise ValueError(f"slot {i}: sender {b.sender} cannot form these coefficients")
        payloads = None
        if store is not None:
            formed = bases.combine(v)
            payload = formed[b.sender - 1]
            expected = store.combine(v)
            if not np.array_equal(payload, expected):
                raise PayloadMismatch(
                    f"slot {i}: sender {b.sender}'s payload is not the store's combination"
                )
            # what each receiver has left after taking out its own part
            payloads = (payload + P - formed) % P
        for _user, c in bases.insert(residuals, payloads):
            known[c] += 1
            if known[c] == V and c in edge_of:
                e = edge_of[c]
                left[e] -= 1
                if not left[e]:
                    open_edges -= 1
        records.append(SlotRecord(b.sender, dense, tuple(bases.rank.tolist()), open_edges))
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
    return Transcript(V, W, initial_ranks, records, bool((bases.rank == W).all()), decoded)


def _check_segment_limit(W: int):
    if W > MAX_SIM_SEGMENTS:
        raise ValueError(f"simulator supports at most {MAX_SIM_SEGMENTS} segments, got {W}")


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
        """M.c for a coefficient vector c of W ints in [0, P)."""
        cols = v.nonzero()[0]
        # W products below P each: the sum stays below 2**42
        return (self.matrix[:, cols] * v[cols] % P).sum(axis=1) % P


def materialize_payloads(topology: StorageTopology, seed: int) -> SegmentStore:
    """Draw random payload columns, re-sampling until independent.  An
    instance with more segments than the simulator takes, or a store
    larger than the largest default one it takes, is refused first."""
    W = topology.num_segments
    _check_segment_limit(W)
    L = topology.payload_length if topology.payload_length is not None else W + 1
    if L * W > _MAX_STORE_ENTRIES:
        raise ValueError(
            f"payload_length {L} over {W} segments needs {L * W} payload entries; "
            f"the simulator takes at most {_MAX_STORE_ENTRIES}"
        )
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

"""Optimal coded broadcast planning on quasi-trees (DBQT).

The planner orders representative vertices so that each prefix induces a
connected region and each new representative contributes at least one
uncovered edge, then emits one phase per representative.  A phase mixes
the representative's fresh segments with a small seed taken from a
bridge edge back into the covered region, and sends the columns of
`vandermonde(len(block), count)`, which `decodable_with` proves
decodable.  With delta the minimum edge weight, the schedule, a list of
Broadcast(sender, coefficients), is exactly W - delta broadcasts and
leaves every user able to decode everything.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .field import P, nonsingular_mod
from .hypergraph import Hypergraph
from .sim import Broadcast
from .topology import PlacementMap, StorageTopology

__all__ = [
    "PlanError",
    "NotQuasiTreeError",
    "PhasePlan",
    "QuasiTreePlan",
    "ordered_representatives",
    "vandermonde",
    "decodable_with",
    "plan_phases",
    "phase_schedule",
    "dbqt_schedule",
]


class PlanError(ValueError):
    """The topology cannot be scheduled by this planner."""


class NotQuasiTreeError(PlanError):
    """The storage hypergraph is connected but not a quasi-tree."""


@dataclass(frozen=True)
class PhasePlan:
    representative: int
    bridge: frozenset[int] | None
    seed_segments: tuple[int, ...]
    block: tuple[int, ...]
    broadcast_count: int


@dataclass(frozen=True)
class QuasiTreePlan:
    delta: int
    representatives: tuple[int, ...]
    phases: tuple[PhasePlan, ...]
    schedule: tuple[Broadcast, ...]

    @property
    def num_broadcasts(self) -> int:
        return len(self.schedule)


def ordered_representatives(h: Hypergraph) -> tuple[int, ...]:
    """Greedy representative ordering covering every edge.

    The first pick is a vertex whose incident edge set is not strictly
    contained in any other vertex's; every later pick lies on an already
    covered edge, contributes at least one uncovered edge, and is
    maximal in the same strict-containment sense among the eligible
    candidates.  Ties break toward the lowest vertex id.
    """
    if not h.is_connected():
        raise PlanError("representative ordering needs a connected hypergraph")
    incident = {v: frozenset(e.vertices for e in h.incident(v)) for v in h.vertices}
    all_edges = h.edge_sets

    def pick(cands: list[int]) -> int:
        maximal = [
            v for v in cands
            if not any(incident[v] < incident[u] for u in cands if u != v)
        ]
        return min(maximal)

    first = pick(sorted(h.vertices))
    order = [first]
    covered = set(incident[first])
    while covered != all_edges:
        chosen = set(order)
        eligible = [
            v for v in sorted(h.vertices)
            if v not in chosen
            and any(v in eset for eset in covered)
            and not incident[v] <= covered
        ]
        if not eligible:
            raise PlanError("no eligible representative; hypergraph is not connected")
        nxt = pick(eligible)
        order.append(nxt)
        covered |= incident[nxt]
    return tuple(order)


def vandermonde(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """n x m power matrix over GF(P): entry (k, j) is k**(j-1), k in 1..n."""
    if n < 1 or n >= P:
        raise ValueError(f"row count must be in 1..{P - 1}, got {n}")
    if m < 0 or m > n:
        raise ValueError(f"column count must be in 0..{n}, got {m}")
    return tuple(tuple(pow(k, j, P) for j in range(m)) for k in range(1, n + 1))


def decodable_with(block_size: int, delta: int, held_positions) -> bool:
    """Can a user holding exactly these block positions decode the whole
    block from block_size - delta coded broadcasts?

    Checks that the square matrix [one-hot columns at the held positions
    | power-basis columns] is invertible over GF(P).
    """
    held = sorted(set(int(p) for p in held_positions))
    if len(held) != delta:
        raise ValueError(f"expected {delta} distinct held positions, got {len(held)}")
    if held and (held[0] < 1 or held[-1] > block_size):
        raise ValueError(f"held positions must lie in 1..{block_size}")
    van = vandermonde(block_size, block_size - delta)
    matrix = [
        [1 if k == pos else 0 for pos in held] + list(van[k - 1])
        for k in range(1, block_size + 1)
    ]
    return nonsingular_mod(matrix)


def plan_phases(
    topology: StorageTopology,
    tree: Hypergraph,
    placement: PlacementMap,
    reps: Sequence[int],
) -> tuple[PhasePlan, ...]:
    """One phase per representative over the given quasi-tree, with delta
    the tree's minimum edge weight.

    Blocks draw on the users' full holdings, so the tree may be a
    reduced subgraph of the topology's model; `placement` must cover the
    tree's edges.  Bridge ties break toward the lowest vertex ids.
    """
    if not tree.edges:
        raise PlanError("cannot plan phases without edges")
    delta = min(e.weight for e in tree.edges)
    phases: list[PhasePlan] = []
    prev_union: set[int] = set()
    for i, v in enumerate(reps, start=1):
        holding = set(topology.holding(v))
        if i == 1:
            bridge = None
            seed: tuple[int, ...] = ()
            block = tuple(sorted(holding))
        else:
            prior = set(reps[: i - 1])
            eligible = [
                e for e in tree.edges
                if v in e.vertices and e.vertices & prior
            ]
            if not eligible:
                raise PlanError(f"representative {v} has no bridge edge into the covered region")
            bridge_edge = min(eligible, key=lambda e: e.key)
            bridge = bridge_edge.vertices
            segs = placement[bridge]
            if len(segs) < delta:
                raise PlanError(
                    f"bridge edge {sorted(bridge)} carries {len(segs)} segments, "
                    f"fewer than delta={delta}"
                )
            seed = tuple(sorted(segs)[:delta])
            assert set(seed) <= prev_union, "seed segments must already be covered"
            block = tuple(sorted(set(seed) | (holding - prev_union)))
        count = len(block) - delta
        if count < 0:
            raise PlanError(
                f"phase {i} block of {len(block)} segments cannot support delta={delta}"
            )
        phases.append(PhasePlan(v, bridge, seed, block, count))
        prev_union |= holding
    total = sum(p.broadcast_count for p in phases)
    assert total == len(prev_union) - delta, "phase sizes must telescope"
    return tuple(phases)


def phase_schedule(topology: StorageTopology, phases: Sequence[PhasePlan]) -> list[Broadcast]:
    """Flatten phases, in order, into one list of broadcasts.

    Slot tau of a phase sends column tau of
    `vandermonde(len(block), broadcast_count)`, placed on the block's
    segments; blocks are drawn from the representative's own storage,
    so it can always form the combination.
    """
    out: list[Broadcast] = []
    W = topology.num_segments
    for i, ph in enumerate(phases, start=1):
        if not set(ph.block) <= topology.holding(ph.representative):
            raise PlanError(
                f"phase {i}: block contains segments user "
                f"{ph.representative} does not store"
            )
        rows = vandermonde(len(ph.block), ph.broadcast_count) if ph.broadcast_count else ()
        for tau in range(ph.broadcast_count):
            coefficients = [0] * W
            for w, row in zip(ph.block, rows):
                coefficients[w - 1] = row[tau]
            out.append(Broadcast(ph.representative, tuple(coefficients)))
    return out


def dbqt_schedule(topology: StorageTopology) -> QuasiTreePlan:
    """Plan the full broadcast schedule for a quasi-tree topology.

    Requires every segment to sit on a model edge (no leftovers) and the
    model to be a connected quasi-tree; the result is exactly
    W - delta broadcasts.
    """
    h, placement, leftovers = topology.to_hypergraph()
    if leftovers:
        raise PlanError(
            f"{len(leftovers)} segments are held by one user or by everyone "
            "and cannot be coded over the storage model (see the general planner)"
        )
    if not h.is_connected():
        raise PlanError("storage model is disconnected; no coded schedule exists")
    if not h.is_quasi_tree():
        raise NotQuasiTreeError("storage model is not a quasi-tree")
    reps = ordered_representatives(h)
    phases = plan_phases(topology, h, placement, reps)
    schedule = phase_schedule(topology, phases)
    # plan_phases takes delta and checks that the phases telescope to
    # W - delta: every segment lies on an edge some representative holds
    return QuasiTreePlan(topology.num_segments - len(schedule), reps, phases, tuple(schedule))

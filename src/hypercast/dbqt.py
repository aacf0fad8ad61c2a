"""Optimal coded broadcast planning on quasi-trees (DBQT).

The planner orders representative vertices so that each prefix induces a
connected region and each new representative contributes at least one
uncovered edge, then emits one phase per representative.  A phase mixes
the representative's fresh segments with a seed of delta segments from
its bridge, the lowest tree edge joining it to an earlier
representative, and sends the columns of
`vandermonde(len(block), count)`, which `decodable_with` proves
decodable.  With delta the minimum edge weight, the schedule, a list of
Broadcast(sender, coefficients), is exactly W - delta broadcasts and
leaves every user able to decode everything.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

from .field import P, nonsingular_mod
from .hypergraph import Hypergraph
from .sim import Broadcast
from .topology import StorageTopology

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
    phases: tuple[PhasePlan, ...]
    schedule: tuple[Broadcast, ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(ph.representative for ph in self.phases)

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

    def pick(cands: frozenset[int] | set[int]) -> int:
        # a vertex whose edges strictly contain v's lies on each of v's
        # edges, so only the members of v's smallest edge can dominate it
        return min(v for v in cands if not any(
            u in cands and incident[v] < incident[u] for u in min(incident[v], key=len, default=())))

    first = pick(h.vertices)
    order = [first]
    covered = set(incident[first])
    frontier = set().union(*covered)  # reached vertices, less some whose edges are all covered
    while covered != all_edges:
        # a chosen vertex's edges are covered, and stay so
        frontier = {v for v in frontier if not incident[v] <= covered}
        nxt = pick(frontier)
        order.append(nxt)
        covered |= incident[nxt]
        frontier.update(*incident[nxt])
    return tuple(order)


def vandermonde(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """n x m power matrix over GF(P): entry (k, j) is k**(j-1), k in 1..n,
    each row the first m of the running products 1, k, k * k % P, ... (< 2**62)."""
    if n < 1 or n >= P:
        raise ValueError(f"row count must be in 1..{P - 1}, got {n}")
    if m < 0 or m > n:
        raise ValueError(f"column count must be in 0..{n}, got {m}")
    return tuple(tuple(accumulate(repeat(k, m - 1), lambda x, y: x * y % P, initial=1))[:m]
                 for k in range(1, n + 1))


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


def plan_phases(topology: StorageTopology, tree: Hypergraph) -> tuple[PhasePlan, ...]:
    """One phase per representative of `ordered_representatives(tree)`,
    with delta the tree's minimum edge weight.

    A later representative's bridge is its lowest-key tree edge that
    holds an earlier representative, and its seed is the delta lowest
    segments whose holders are exactly that edge.  A block is the seed
    plus the segments of the representative's holding that no earlier
    representative holds (the whole holding in the first phase).  Blocks
    draw on the users' full holdings, so the tree may be a spanning
    quasi-tree of the topology's model.
    """
    if not tree.edges:
        raise PlanError("cannot plan phases without edges")
    delta = min(e.weight for e in tree.edges)
    _model, placement, _leftovers = topology.to_hypergraph()  # each edge's segments, ascending
    phases: list[PhasePlan] = []
    prior: set[int] = set()
    prev_union: set[int] = set()
    for v in ordered_representatives(tree):
        holding = topology.holding(v)
        bridge, seed = None, ()
        if prior:
            bridge = next(e.vertices for e in tree.incident(v) if e.vertices & prior)
            seed = placement[bridge][:delta]
        block = tuple(sorted((holding - prev_union).union(seed)))
        phases.append(PhasePlan(v, bridge, seed, block, len(block) - delta))
        prior.add(v)
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
    for ph in phases:
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
    h, _placement, leftovers = topology.to_hypergraph()
    if leftovers:
        raise PlanError(
            f"{len(leftovers)} segments are held by one user or by everyone "
            "and cannot be coded over the storage model (see the general planner)"
        )
    if not h.is_connected():
        raise PlanError("storage model is disconnected; no coded schedule exists")
    if not h.is_quasi_tree():
        raise NotQuasiTreeError("storage model is not a quasi-tree")
    phases = plan_phases(topology, h)
    schedule = phase_schedule(topology, phases)
    # plan_phases takes delta and checks that the phases telescope to
    # W - delta: every segment lies on an edge some representative holds
    return QuasiTreePlan(topology.num_segments - len(schedule), phases, tuple(schedule))

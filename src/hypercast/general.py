"""Coded broadcast on general hypergraphs via quasi-tree reduction.

On a connected model, redundant edges (those whose removal keeps it
connected) are greedily stripped until a spanning quasi-tree remains,
and the quasi-tree planner runs on it with the users' full storage.
`run_schedule(..., completion=True)` then broadcasts uncoded any
segment some user still lacks; a segment every user stores is never
sent.  The total never exceeds W and never beats the lower bound
w(E) - c, the model's total edge weight minus its min cut.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterator

from .dbqt import phase_schedule, plan_phases
from .generators import check_instance_args, derive_seed, random_instance
from .hypergraph import Edge, Hypergraph
from .sim import Broadcast, check_limits, run_schedule
from .topology import StorageTopology

__all__ = [
    "Reduction",
    "ExperimentConfig",
    "ExperimentRow",
    "spanning_quasi_tree",
    "min_degree_bound",
    "dbqt_general",
    "iter_experiment_instances",
    "run_experiment",
]


@dataclass(frozen=True)
class Reduction:
    kept: Hypergraph
    removed: tuple[Edge, ...]


def spanning_quasi_tree(h: Hypergraph) -> Reduction:
    """Strip removable edges (ascending weight, then lexicographic vertex
    set) until every remaining edge is a bridge.

    One ascending pass over the edges that are not bridges of `h`
    suffices: an edge that is a bridge stays one as other edges go, so a
    skipped edge never becomes removable later.
    """
    if not h.is_connected():
        raise ValueError("spanning quasi-tree reduction needs a connected hypergraph")
    current = h
    removed: list[Edge] = []
    cyclic = (e for e in h.edges if h.connected_without(e.vertices))
    for e in sorted(cyclic, key=lambda e: (e.weight, e.key)):
        if current.connected_without(e.vertices):
            removed.append(e)
            current = current.without_edge(e.vertices)
    assert current.is_quasi_tree()
    if not current.edges:
        raise ValueError("hypergraph has no edges to keep")
    return Reduction(current, tuple(removed))


def min_degree_bound(h: Hypergraph) -> int:
    """Total weight minus the smallest weighted vertex degree.

    A coarser broadcast lower bound than total weight minus min-cut:
    every single-vertex split is a cut, so this never exceeds it.
    """
    return h.total_weight - min(h.degree(v)[1] for v in h.vertices)


def dbqt_general(topology: StorageTopology) -> list[Broadcast]:
    """The coded part of a schedule for an arbitrary topology.

    On a connected model with edges, the quasi-tree planner's schedule
    on its spanning reduction, with blocks drawn from full storage;
    otherwise no broadcast.  Run it with `completion=True` to send what
    some user still lacks.
    """
    h, _placement, _leftovers = topology.to_hypergraph()
    if not (h.edges and h.is_connected()):
        return []
    return phase_schedule(topology, plan_phases(topology, spanning_quasi_tree(h).kept))


@dataclass(frozen=True)
class ExperimentConfig:
    users_list: tuple[int, ...]
    segments_list: tuple[int, ...]
    trials: int
    extra_edges: int
    seed: int
    max_edge_size: int = 3

    def __post_init__(self):
        if not self.users_list or not self.segments_list:
            raise ValueError("users_list and segments_list must be nonempty")
        # a repeated value would run its grid points again as identical rows
        for name, values in (("users_list", self.users_list), ("segments_list", self.segments_list)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} repeats {value}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # every grid point is refused here, before any trial runs
        for V in self.users_list:
            for W in self.segments_list:
                check_instance_args(V, W, self.extra_edges, self.max_edge_size)
                check_limits(V, W)


@dataclass(frozen=True)
class ExperimentRow:
    num_users: int
    num_segments: int
    mean_broadcasts: float
    min_broadcasts: int
    max_broadcasts: int
    mean_lower_bound: float
    violations: int


def iter_experiment_instances(
    config: ExperimentConfig,
) -> Iterator[tuple[int, int, int, StorageTopology]]:
    """Deterministic instance stream for an experiment grid.

    For each (V, W) pair and trial index, draws `random_instance` on W
    segments with extra_edges redundant edges.  Every trial derives its
    own seed from (seed, V, W, trial).
    """
    for V in config.users_list:
        for W in config.segments_list:
            for trial in range(config.trials):
                seed = derive_seed(config.seed, V, W, trial)
                yield V, W, trial, random_instance(
                    V, W, config.extra_edges, config.max_edge_size, seed
                )


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run the general planner over a seeded grid and aggregate rows."""
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for V, W, _trial, topology in iter_experiment_instances(config):
        transcript = run_schedule(topology, dbqt_general(topology), completion=True)
        h, _placement, _leftovers = topology.to_hypergraph()
        cut = h.min_cut().capacity if V >= 2 else 0
        buckets.setdefault((V, W), []).append(
            (transcript.num_broadcasts, h.total_weight - cut)
        )
    rows = []
    for V in config.users_list:
        for W in config.segments_list:
            data = buckets[(V, W)]
            totals = [t for t, _ in data]
            bounds = [b for _, b in data]
            violations = sum(
                1 for t, b in data if not b <= t <= W
            )
            rows.append(
                ExperimentRow(
                    num_users=V,
                    num_segments=W,
                    mean_broadcasts=statistics.fmean(totals),
                    min_broadcasts=min(totals),
                    max_broadcasts=max(totals),
                    mean_lower_bound=statistics.fmean(bounds),
                    violations=violations,
                )
            )
    return rows

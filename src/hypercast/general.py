"""Coded broadcast on general hypergraphs via quasi-tree reduction.

Redundant edges (those whose removal keeps the model connected) are
greedily stripped until a spanning quasi-tree remains; the quasi-tree
planner then runs with the users' full storage, and any segment still
missing somewhere afterward is broadcast uncoded.  The total never
exceeds W and never beats the min-cut lower bound W - delta of the
original model.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterator

from .dbqt import ordered_representatives, phase_schedule, plan_phases
from .generators import GenConfig, add_cycle_edges, derive_seed, random_quasi_tree
from .hypergraph import Edge, Hypergraph
from .sim import SegmentStore, Transcript, naive_schedule, run_schedule
from .topology import StorageTopology, from_hypergraph

__all__ = [
    "Reduction",
    "GeneralRunResult",
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
    delta_kept: int


@dataclass(frozen=True)
class GeneralRunResult:
    total_broadcasts: int
    dbqt_broadcasts: int
    completion_broadcasts: int
    lower_bound: int
    min_cut: int


def spanning_quasi_tree(h: Hypergraph) -> Reduction:
    """Strip removable edges (ascending weight, then lexicographic vertex
    set) until every remaining edge is a bridge.

    One ascending pass suffices: an edge that is a bridge stays one as
    other edges go, so a skipped edge never becomes removable later.
    """
    if not h.is_connected():
        raise ValueError("spanning quasi-tree reduction needs a connected hypergraph")
    current = h
    removed: list[Edge] = []
    for e in sorted(h.edges, key=lambda e: (e.weight, e.key)):
        reduced = current.without_edge(e.vertices)
        if reduced.is_connected():
            removed.append(e)
            current = reduced
    assert current.is_quasi_tree()
    if not current.edges:
        raise ValueError("hypergraph has no edges to keep")
    return Reduction(current, tuple(removed), min(e.weight for e in current.edges))


def min_degree_bound(h: Hypergraph) -> int:
    """Total weight minus the smallest weighted vertex degree.

    A coarser broadcast lower bound than total weight minus min-cut:
    every single-vertex split is a cut, so this never exceeds it.
    """
    return h.total_weight - min(h.degree(v)[1] for v in h.vertices)


def dbqt_general(
    topology: StorageTopology, store: SegmentStore | None = None
) -> tuple[GeneralRunResult, Transcript]:
    """Plan and verify a schedule for an arbitrary topology.

    The lower bound is the total edge weight minus the min cut, taken
    once by its default route.  Disconnected models fall back
    to one uncoded broadcast per segment.  Connected models run the
    quasi-tree planner on a spanning reduction (blocks drawn from full
    storage), then sweep still-missing segments uncoded in the same
    simulated run (on payloads too with a `store`), whose transcript
    (with the schedule) is returned.  The run must complete; the result
    satisfies lower_bound <= total <= W.
    """
    W = topology.num_segments
    if topology.num_users == 1 or W == 0:
        return GeneralRunResult(0, 0, 0, 0, 0), run_schedule(topology, [], store)
    h, placement, _leftovers = topology.to_hypergraph()
    cut = h.min_cut().capacity
    lower = h.total_weight - cut
    if cut == 0:  # disconnected
        transcript = run_schedule(topology, naive_schedule(topology), store)
        assert transcript.complete
        return GeneralRunResult(W, 0, W, lower, cut), transcript

    reduction = spanning_quasi_tree(h)
    kept_placement = {vs: placement[vs] for vs in reduction.kept.edge_sets}
    reps = ordered_representatives(reduction.kept)
    phases = plan_phases(topology, reduction.kept, kept_placement, reps)
    coded = phase_schedule(topology, phases)
    transcript = run_schedule(topology, coded, store, completion=True)
    if not transcript.complete:
        raise RuntimeError("schedule failed to complete; planner invariant broken")
    total = transcript.num_broadcasts
    result = GeneralRunResult(total, len(coded), total - len(coded), lower, cut)
    assert result.lower_bound <= result.total_broadcasts <= W
    return result, transcript


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.extra_edges < 0:
            raise ValueError("extra_edges must be >= 0")


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

    For each (V, W) pair and trial index, draws a quasi-tree on
    W - extra_edges segments and overlays extra_edges redundant edges,
    one fresh segment each, so the final instance has W segments.  Every
    trial derives its own seed from (seed, V, W, trial).
    """
    k = config.extra_edges
    for V in config.users_list:
        for W in config.segments_list:
            if W - k < 1:
                raise ValueError(f"segments={W} cannot host {k} extra edges")
            for trial in range(config.trials):
                seed = derive_seed(config.seed, V, W, trial)
                cfg = GenConfig(
                    num_users=V,
                    num_segments=W - k,
                    max_edge_size=config.max_edge_size,
                    seed=seed,
                )
                _topo, h, placement = random_quasi_tree(cfg)
                if k:
                    h, placement = add_cycle_edges(h, placement, k, seed, config.max_edge_size)
                yield V, W, trial, from_hypergraph(h, placement)


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run the general planner over a seeded grid and aggregate rows."""
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for V, W, _trial, topology in iter_experiment_instances(config):
        result, _transcript = dbqt_general(topology)
        buckets.setdefault((V, W), []).append(
            (result.total_broadcasts, result.lower_bound)
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

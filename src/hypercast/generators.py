"""Seeded random instance generators.

Quasi-trees are grown so that every edge is a bridge by construction:
merge edges join distinct components, and an overlay edge closes a cycle
only through one earlier edge that keeps a vertex of its own (see
`_grow_skeleton`).  Nothing is checked and redrawn.
All randomness flows from the config seed through a stable hash, so a
given config always produces the same instance.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .hypergraph import Hypergraph
from .topology import PlacementMap, StorageTopology, from_hypergraph

RNG_ALGORITHM = "mt19937+sha256"
_OVERLAY_RATE = 0.25

__all__ = [
    "RNG_ALGORITHM",
    "GenerationError",
    "GenConfig",
    "derive_seed",
    "random_quasi_tree",
    "add_cycle_edges",
    "random_instance",
]


class GenerationError(ValueError):
    """The configuration cannot produce an instance."""


def derive_seed(seed: int, *parts) -> int:
    """Stable 64-bit sub-seed from a seed and a label path."""
    text = ":".join([str(int(seed))] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class GenConfig:
    num_users: int
    num_segments: int
    max_edge_size: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_users < 3:
            raise ValueError(f"need at least 3 users, got {self.num_users}")
        if not 2 <= self.max_edge_size <= self.num_users - 1:
            raise ValueError(
                f"max_edge_size must be in 2..{self.num_users - 1}, got {self.max_edge_size}"
            )
        if self.num_segments < 1:
            raise ValueError(f"need at least 1 segment, got {self.num_segments}")


def _grow_skeleton(
    rng: random.Random, num_users: int, max_size: int, budget: int
) -> list[frozenset[int]]:
    """Edge vertex sets of a quasi-tree on 1..num_users with at most
    `budget` edges of at most `max_size` vertices.

    A merge edge takes one vertex from each of 2..max_size distinct
    components.  An overlay edge takes two vertices of an earlier merge
    edge of 3 or more vertices (its base) plus one vertex from each of
    1..max_size-2 other components.  Merges never rejoin components, so
    the only cycle an overlay closes runs through its base, and both stay
    bridges: the overlay alone links its other components, and the base
    alone links its third vertex's side.  A base serves once, an overlay
    never.  Each step merges enough of the c components that the edges
    left, merging max_size-1 at a time, still finish within the budget.
    """
    label = {v: v for v in range(1, num_users + 1)}  # vertex -> component
    members = {v: [v] for v in range(1, num_users + 1)}
    edges: list[frozenset[int]] = []
    bases: list[frozenset[int]] = []
    while len(members) > 1:
        labels = sorted(members)
        least = max(2, len(labels) - (budget - len(edges) - 1) * (max_size - 1))
        if bases and least < max_size and rng.random() < _OVERLAY_RATE:
            base = bases.pop(rng.randrange(len(bases)))
            verts = rng.sample(sorted(base), 2)
            home = label[verts[0]]
            others = [c for c in labels if c != home]
            merged = rng.sample(others, rng.randint(least - 1, min(max_size - 2, len(others))))
            verts += [rng.choice(members[c]) for c in merged]
            merged.append(home)
        else:
            merged = rng.sample(labels, rng.randint(least, min(max_size, len(labels))))
            verts = [rng.choice(members[c]) for c in merged]
            if len(verts) >= 3:
                bases.append(frozenset(verts))
        edges.append(frozenset(verts))
        keep = min(merged)
        for c in merged:
            if c != keep:
                for v in members.pop(c):
                    label[v] = keep
                    members[keep].append(v)
    return edges


def random_quasi_tree(cfg: GenConfig) -> tuple[StorageTopology, Hypergraph, PlacementMap]:
    """Draw a quasi-tree storage instance for the config.

    Returns the topology together with its model hypergraph and the
    edge-to-segments placement.  num_segments must cover one segment per
    edge; surplus segments are spread over edges at random.
    """
    V, W, r = cfg.num_users, cfg.num_segments, cfg.max_edge_size
    min_edges = -(-(V - 1) // (r - 1))  # ceil: fewest edges that can span V users
    if W < min_edges:
        raise GenerationError(
            f"{W} segments cannot weight the at least {min_edges} edges needed "
            f"to span {V} users with edges of size <= {r}"
        )
    rng = random.Random(derive_seed(cfg.seed, "quasi-tree"))
    ordered = sorted(_grow_skeleton(rng, V, r, W), key=lambda e: tuple(sorted(e)))
    weights = [1] * len(ordered)
    for _ in range(W - len(ordered)):
        weights[rng.randrange(len(ordered))] += 1
    placement: PlacementMap = {}
    nxt = 1
    for eset, w in zip(ordered, weights):
        placement[eset] = tuple(range(nxt, nxt + w))
        nxt += w
    h = Hypergraph(range(1, V + 1), list(zip(ordered, weights)))
    assert h.is_quasi_tree()
    return from_hypergraph(h, placement), h, placement


def add_cycle_edges(
    h: Hypergraph,
    placement: PlacementMap,
    k: int,
    seed: int,
    max_size: int,
) -> tuple[Hypergraph, PlacementMap]:
    """Overlay k redundant edges of at most max_size vertices, each
    carrying one fresh segment.

    The input must be a quasi-tree; every added edge sits on already
    connected vertices, so the result stays connected but stops being a
    quasi-tree for k >= 1.
    """
    if k < 0:
        raise ValueError(f"extra edge count must be >= 0, got {k}")
    if k == 0:
        return h, dict(placement)
    if not h.is_quasi_tree():
        raise ValueError("redundant edges can only be added to a quasi-tree")
    vertices = sorted(h.vertices)
    cap = min(len(vertices) - 1, max_size)
    if cap < 2:
        raise GenerationError("too few vertices to place a redundant edge")
    rng = random.Random(derive_seed(seed, "cycle-edges"))
    existing = set(h.edge_sets)
    new_placement: PlacementMap = dict(placement)
    next_segment = max((w for ids in placement.values() for w in ids), default=0) + 1
    pairs = [(e.vertices, e.weight) for e in h.edges]
    for _ in range(k):
        for _attempt in range(200):
            size = rng.randint(2, cap)
            vs = frozenset(rng.sample(vertices, size))
            if vs not in existing:
                break
        else:
            raise GenerationError("no room left for another redundant edge")
        existing.add(vs)
        pairs.append((vs, 1))
        new_placement[vs] = (next_segment,)
        next_segment += 1
    return Hypergraph(h.vertices, pairs), new_placement


def random_instance(
    num_users: int, num_segments: int, extra_edges: int, max_edge_size: int, seed: int
) -> StorageTopology:
    """The instance of `gen` and of one experiment trial: a quasi-tree on
    num_segments - extra_edges segments with extra_edges redundant edges
    overlaid, one fresh segment each, so it has num_segments segments."""
    if num_segments - extra_edges < 1:
        raise GenerationError(f"segments={num_segments} cannot host {extra_edges} extra edges")
    cfg = GenConfig(num_users, num_segments - extra_edges, max_edge_size, seed)
    _topology, h, placement = random_quasi_tree(cfg)
    h, placement = add_cycle_edges(h, placement, extra_edges, seed, max_edge_size)
    return from_hypergraph(h, placement)

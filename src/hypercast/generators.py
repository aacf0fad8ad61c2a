"""Seeded random instance generators.

Quasi-trees grow from singleton components: each new edge takes one
vertex from each of several distinct components and merges them, which
keeps every edge a bridge.  Occasionally an edge instead takes two
vertices out of one existing edge plus vertices from other components;
that can create genuine quasi-trees with cycles but can also break the
bridge property, so every draw is verified and re-drawn if needed.
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
_MAX_DRAWS = 64
_OVERLAY_RATE = 0.25

__all__ = [
    "RNG_ALGORITHM",
    "GenerationError",
    "GenConfig",
    "derive_seed",
    "random_quasi_tree",
    "add_cycle_edges",
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


def _grow_skeleton(rng: random.Random, num_users: int, max_size: int) -> list[frozenset[int]]:
    root = {v: v for v in range(1, num_users + 1)}
    members = {v: [v] for v in range(1, num_users + 1)}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    def merge(vertices: set[int]):
        roots = {find(v) for v in vertices}
        keep = min(roots)
        for r in roots:
            if r != keep:
                root[r] = keep
                members[keep].extend(members.pop(r))

    edges: list[frozenset[int]] = []
    while len(members) > 1:
        roots = sorted(members)
        overlay_bases = sorted(e for e in edges if len(e) >= 3) if max_size >= 3 else []
        if overlay_bases and rng.random() < _OVERLAY_RATE:
            base = overlay_bases[rng.randrange(len(overlay_bases))]
            pair = rng.sample(sorted(base), 2)
            base_root = find(pair[0])
            other_roots = [r for r in roots if r != base_root]
            extra = rng.randint(1, min(max_size - 2, len(other_roots)))
            chosen = rng.sample(other_roots, extra)
            verts = set(pair)
            for r in chosen:
                verts.add(rng.choice(sorted(members[r])))
        else:
            size = rng.randint(2, min(max_size, len(roots)))
            chosen = rng.sample(roots, size)
            verts = {rng.choice(sorted(members[r])) for r in chosen}
        edges.append(frozenset(verts))
        merge(verts)
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
    for attempt in range(_MAX_DRAWS):
        rng = random.Random(derive_seed(cfg.seed, "quasi-tree", attempt))
        edge_sets = _grow_skeleton(rng, V, r)
        if len(edge_sets) > W:
            continue
        if not Hypergraph(range(1, V + 1), [(e, 1) for e in edge_sets]).is_quasi_tree():
            continue
        ordered = sorted(edge_sets, key=lambda e: tuple(sorted(e)))
        weights = [1] * len(ordered)
        for _ in range(W - len(ordered)):
            weights[rng.randrange(len(ordered))] += 1
        placement: PlacementMap = {}
        nxt = 1
        for eset, w in zip(ordered, weights):
            placement[eset] = tuple(range(nxt, nxt + w))
            nxt += w
        h = Hypergraph(range(1, V + 1), list(zip(ordered, weights)))
        return from_hypergraph(h, placement), h, placement
    raise GenerationError(f"no quasi-tree found in {_MAX_DRAWS} draws for {cfg}")


def add_cycle_edges(
    h: Hypergraph,
    placement: PlacementMap,
    k: int,
    seed: int,
    max_size: int | None = None,
) -> tuple[Hypergraph, PlacementMap]:
    """Overlay k redundant edges, each carrying one fresh segment.

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
    cap = min(len(vertices) - 1, max_size if max_size is not None else 3)
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

"""Seeded random instance generators.

Quasi-trees are grown so that every edge is a bridge by construction:
merge edges join distinct components, and an overlay edge closes a cycle
only through one earlier edge that keeps a vertex of its own (see
`_grow_skeleton`).  Nothing is checked and redrawn.
All randomness flows from the seed through a stable hash, so the same
arguments always produce the same instance.
"""
from __future__ import annotations

import hashlib
import random

from .hypergraph import Hypergraph
from .topology import StorageTopology

RNG_ALGORITHM = "mt19937+sha256"
_OVERLAY_RATE = 0.25

__all__ = [
    "RNG_ALGORITHM",
    "GenerationError",
    "derive_seed",
    "check_instance_args",
    "random_instance",
]


class GenerationError(ValueError):
    """The configuration cannot produce an instance."""


def derive_seed(seed: int, *parts) -> int:
    """Stable 64-bit sub-seed from a seed and a label path."""
    text = ":".join([str(int(seed))] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


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


def check_instance_args(
    num_users: int, num_segments: int, extra_edges: int, max_edge_size: int
):
    """Refuse the arguments of `random_instance` that no instance fits:
    ValueError for a value out of range, GenerationError for a segment
    budget too small, the first bad argument named."""
    V, W, k, r = num_users, num_segments, extra_edges, max_edge_size
    if k < 0:
        raise ValueError(f"extra edge count must be >= 0, got {k}")
    if W < 1:
        raise ValueError(f"need at least 1 segment, got {W}")
    if W - k < 1:
        raise GenerationError(f"segments={W} cannot host {k} extra edges")
    if V < 3:
        raise ValueError(f"need at least 3 users, got {V}")
    if not 2 <= r <= V - 1:
        raise ValueError(f"max_edge_size must be in 2..{V - 1}, got {r}")
    min_edges = -(-(V - 1) // (r - 1))  # ceil: fewest edges that can span V users
    if W - k < min_edges:
        raise GenerationError(
            f"{W - k} segments cannot weight the at least {min_edges} edges needed "
            f"to span {V} users with edges of size <= {r}"
        )


def random_instance(
    num_users: int, num_segments: int, extra_edges: int, max_edge_size: int, seed: int
) -> StorageTopology:
    """The instance of `gen` and of one experiment trial: a quasi-tree on
    num_segments - extra_edges segments with extra_edges redundant edges
    overlaid, one fresh segment each, so it has num_segments segments.

    The tree's segment ids run in sorted edge order, each edge taking
    weight-many consecutive ids (at least one each, the surplus spread at
    random); the overlay edges sit on already connected users, so for
    extra_edges >= 1 the instance is connected but not a quasi-tree.
    """
    check_instance_args(num_users, num_segments, extra_edges, max_edge_size)
    V, W, k, r = num_users, num_segments, extra_edges, max_edge_size
    rng = random.Random(derive_seed(seed, "quasi-tree"))
    edges = sorted(_grow_skeleton(rng, V, r, W - k), key=lambda e: tuple(sorted(e)))
    weights = [1] * len(edges)
    for _ in range(W - k - len(edges)):
        weights[rng.randrange(len(edges))] += 1
    assert Hypergraph(range(1, V + 1), list(zip(edges, weights))).is_quasi_tree()
    rng = random.Random(derive_seed(seed, "cycle-edges"))
    existing = set(edges)
    for _ in range(k):
        for _attempt in range(200):
            vs = frozenset(rng.sample(range(1, V + 1), rng.randint(2, r)))
            if vs not in existing:
                break
        else:
            raise GenerationError("no room left for another redundant edge")
        existing.add(vs)
        edges.append(vs)
        weights.append(1)
    holdings: dict[int, list[int]] = {v: [] for v in range(1, V + 1)}
    first = 1
    for eset, w in zip(edges, weights):
        for v in eset:
            holdings[v].extend(range(first, first + w))
        first += w
    return StorageTopology(W, holdings)

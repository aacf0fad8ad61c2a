"""Seeded instance builder owned by the benchmark.

The benchmark makes its own inputs so that a change to the package's
generators cannot change what is measured.  Quasi-trees are grown by
merging components: every edge takes one vertex from each of 2 or 3
distinct components, so every edge is a bridge by construction and the
minimum edge weight delta is known here, not taken from the program.
Cyclic instances add redundant edges on vertex sets not yet used, each
carrying one fresh segment.  Segment ids are shuffled over the edges.

An instance has a shape and labels.  The shape (edges, their weights,
the redundant edges) comes from a shape name that does not involve the
benchmark's seed; the labels (which user id each vertex gets, and the
segment ids) come from the seed.  Different seeds thus give different
inputs of the same cost profile, and a run's timings vary with the
machine and the program, not with a luckier draw of shapes.

Instances are written as format_version 1 JSON, the CLI's input format.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    name: str
    num_users: int
    num_segments: int
    weights: tuple[int, ...]
    extra_edges: int
    holdings: dict[int, tuple[int, ...]]

    @property
    def quasi_tree(self) -> bool:
        return self.extra_edges == 0

    @property
    def delta(self) -> int:
        """Minimum edge weight; the DBQT length on a quasi-tree is W - delta."""
        return min(self.weights)

    def document(self) -> dict:
        return {
            "format_version": 1,
            "num_users": self.num_users,
            "num_segments": self.num_segments,
            "users": [
                {"id": v, "segments": list(self.holdings[v])}
                for v in range(1, self.num_users + 1)
            ],
            "metadata": {
                "generator": "perfbench-builder-v1",
                "name": self.name,
                "extra_edges": self.extra_edges,
            },
        }

    def write(self, path: Path):
        path.write_text(json.dumps(self.document(), indent=2, sort_keys=True) + "\n")


def _grow_quasi_tree(rng: random.Random, num_users: int, max_edge: int) -> list[frozenset[int]]:
    components = [[v] for v in range(1, num_users + 1)]
    edges = []
    while len(components) > 1:
        size = rng.randint(2, min(max_edge, len(components)))
        picked = sorted(rng.sample(range(len(components)), size))
        edges.append(frozenset(rng.choice(components[i]) for i in picked))
        merged = [v for i in picked for v in components[i]]
        components = [c for i, c in enumerate(components) if i not in picked]
        components.append(merged)
    return edges


def build(
    shape: str,
    labels: str,
    num_users: int,
    num_segments: int,
    extra_edges: int,
    max_edge: int = 3,
) -> Instance:
    """One instance; the same names give the same instance."""
    rng = random.Random(shape)
    edges = _grow_quasi_tree(rng, num_users, max_edge)
    tree_segments = num_segments - extra_edges
    if tree_segments < len(edges):
        raise ValueError(f"{shape}: {tree_segments} segments cannot weight {len(edges)} edges")
    weights = [1] * len(edges)
    for _ in range(tree_segments - len(edges)):
        weights[rng.randrange(len(edges))] += 1
    used = set(edges)
    for _ in range(extra_edges):
        while True:
            vs = frozenset(rng.sample(range(1, num_users + 1), rng.randint(2, max_edge)))
            if vs not in used:
                break
        used.add(vs)
        edges.append(vs)
        weights.append(1)
    label_rng = random.Random(labels)
    user_id = list(range(1, num_users + 1))
    label_rng.shuffle(user_id)
    edges = [frozenset(user_id[v - 1] for v in vs) for vs in edges]
    ids = list(range(1, num_segments + 1))
    label_rng.shuffle(ids)
    held: dict[int, list[int]] = {v: [] for v in range(1, num_users + 1)}
    nxt = 0
    for vs, w in zip(edges, weights):
        for v in vs:
            held[v].extend(ids[nxt:nxt + w])
        nxt += w
    return Instance(
        name=labels,
        num_users=num_users,
        num_segments=num_segments,
        weights=tuple(weights),
        extra_edges=extra_edges,
        holdings={v: tuple(sorted(ws)) for v, ws in held.items()},
    )

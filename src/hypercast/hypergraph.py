"""Weighted hypergraphs with vertex-set-keyed edges and cut algorithms.

Vertices are positive integers.  An edge is a vertex subset of size at
least 2 together with a positive integer weight; two edges over the same
vertex set are the same edge, so constructing a hypergraph with duplicate
vertex sets merges them by summing weights.  Edges are reported in a
deterministic order (sorted vertex tuples) everywhere.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

MAX_EXHAUSTIVE_VERTICES = 24

__all__ = [
    "Edge",
    "Cut",
    "MinCut",
    "WalkKind",
    "Hypergraph",
    "MinCutLimitError",
    "MAX_EXHAUSTIVE_VERTICES",
]


class MinCutLimitError(ValueError):
    """Exhaustive min-cut was requested beyond its vertex-count limit."""


def _edge_key(vset: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(vset))


@dataclass(frozen=True)
class Edge:
    vertices: frozenset[int]
    weight: int = 1

    def __post_init__(self):
        vs = frozenset(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise ValueError(f"edge needs at least 2 vertices, got {sorted(vs)}")
        if any(not isinstance(v, int) or v < 1 for v in vs):
            raise ValueError("vertex ids must be positive integers")
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(f"edge weight must be a positive integer, got {self.weight!r}")

    @property
    def key(self) -> tuple[int, ...]:
        return _edge_key(self.vertices)


@dataclass(frozen=True)
class Cut:
    separator: frozenset[int]
    crossing_edges: tuple[Edge, ...]
    weight: int


@dataclass(frozen=True)
class MinCut:
    capacity: int
    witness: frozenset[int]


class WalkKind(str, Enum):
    INVALID = "invalid"
    WALK = "walk"
    PATH = "path"
    CYCLE = "cycle"
    LOOSE_PATH = "loose-path"


def _as_edge_pairs(edges) -> Iterable[tuple[frozenset[int], int]]:
    for item in edges:
        if isinstance(item, Edge):
            yield item.vertices, item.weight
        elif (
            isinstance(item, (tuple, list))
            and len(item) == 2
            and isinstance(item[1], int)
            and not isinstance(item[0], int)
        ):
            yield frozenset(item[0]), item[1]
        else:
            yield frozenset(item), 1


class Hypergraph:
    """Immutable weighted hypergraph."""

    __slots__ = ("_vertices", "_weights", "_edges")

    def __init__(self, vertices: Iterable[int], edges=()):
        vs = frozenset(int(v) for v in vertices)
        if not vs:
            raise ValueError("hypergraph needs at least one vertex")
        if any(v < 1 for v in vs):
            raise ValueError("vertex ids must be positive integers")
        weights: dict[frozenset[int], int] = {}
        for eset, w in _as_edge_pairs(edges):
            if not eset <= vs:
                raise ValueError(f"edge {sorted(eset)} uses unknown vertices")
            if len(eset) < 2:
                raise ValueError(f"edge needs at least 2 vertices, got {sorted(eset)}")
            if w < 1:
                raise ValueError(f"edge weight must be positive, got {w}")
            weights[eset] = weights.get(eset, 0) + w
        self._vertices = vs
        self._weights = weights
        self._edges = tuple(
            Edge(eset, w) for eset, w in sorted(weights.items(), key=lambda kv: _edge_key(kv[0]))
        )

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def edge_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(self._weights)

    @property
    def total_weight(self) -> int:
        return sum(self._weights.values())

    def weight_of(self, vset: Iterable[int]) -> int:
        """Weight of the edge on this vertex set, 0 if absent."""
        return self._weights.get(frozenset(vset), 0)

    def incident(self, v: int) -> tuple[Edge, ...]:
        """All edges containing v, in deterministic order."""
        self._check_vertex(v)
        return tuple(e for e in self._edges if v in e.vertices)

    def degree(self, v: int) -> tuple[int, int]:
        """(edge count, total weight) over the edges containing v."""
        inc = self.incident(v)
        return len(inc), sum(e.weight for e in inc)

    def _check_vertex(self, v: int):
        if v not in self._vertices:
            raise ValueError(f"vertex {v} not in hypergraph")

    # -- construction of derived graphs --------------------------------

    def with_edge(self, vset: Iterable[int], weight: int = 1) -> "Hypergraph":
        return Hypergraph(self._vertices, list(self._edges) + [(frozenset(vset), weight)])

    def without_edge(self, vset: Iterable[int]) -> "Hypergraph":
        key = frozenset(vset)
        if key not in self._weights:
            raise ValueError(f"no edge on {sorted(key)}")
        return Hypergraph(self._vertices, [e for e in self._edges if e.vertices != key])

    def largest_partial(self, vsub: Iterable[int]) -> "Hypergraph":
        """Sub-hypergraph keeping exactly the edges inside vsub."""
        sub = frozenset(vsub)
        self._check_subset(sub)
        return Hypergraph(sub, [e for e in self._edges if e.vertices <= sub])

    def induced(self, vsub: Iterable[int]) -> "Hypergraph":
        """Induced sub-hypergraph: edges are intersections with vsub.

        Intersections of size < 2 are dropped; edges whose intersections
        coincide are merged by summing weights.
        """
        sub = frozenset(vsub)
        self._check_subset(sub)
        merged: dict[frozenset[int], int] = {}
        for e in self._edges:
            cut = e.vertices & sub
            if len(cut) >= 2:
                merged[cut] = merged.get(cut, 0) + e.weight
        return Hypergraph(sub, list(merged.items()))

    def _check_subset(self, sub: frozenset[int]):
        if not sub:
            raise ValueError("vertex subset must be nonempty")
        if not sub <= self._vertices:
            raise ValueError(f"{sorted(sub - self._vertices)} not in hypergraph")

    # -- connectivity ---------------------------------------------------

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, sorted by smallest member."""
        parent = {v: v for v in self._vertices}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self._edges:
            it = iter(e.vertices)
            first = find(next(it))
            for v in it:
                parent[find(v)] = first
        groups: dict[int, set[int]] = {}
        for v in self._vertices:
            groups.setdefault(find(v), set()).add(v)
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def is_quasi_tree(self) -> bool:
        """Connected, and removing any single edge disconnects the graph."""
        if not self.is_connected():
            return False
        return all(not self.without_edge(e.vertices).is_connected() for e in self._edges)

    # -- walks ----------------------------------------------------------

    def classify_walk(self, seq: Sequence) -> WalkKind:
        """Strongest label for an alternating vertex/edge sequence.

        The sequence must read v1, e1, v2, e2, ..., vn, en, v(n+1) with
        each consecutive vertex pair inside its edge and every edge
        present in the hypergraph; anything else is invalid.
        """
        items = list(seq)
        if len(items) < 3 or len(items) % 2 == 0:
            return WalkKind.INVALID
        verts = items[0::2]
        raw_edges = items[1::2]
        for v in verts:
            if not isinstance(v, int) or v not in self._vertices:
                return WalkKind.INVALID
        edges: list[frozenset[int]] = []
        for item in raw_edges:
            if isinstance(item, Edge):
                eset = item.vertices
            else:
                try:
                    eset = frozenset(int(v) for v in item)
                except TypeError:
                    return WalkKind.INVALID
            if eset not in self._weights:
                return WalkKind.INVALID
            edges.append(eset)
        for i, eset in enumerate(edges):
            if verts[i] not in eset or verts[i + 1] not in eset:
                return WalkKind.INVALID
        n = len(edges)
        closed = verts[0] == verts[-1]
        # distinctness excludes the repeated endpoint of a closed walk
        inner = verts[:-1] if closed else verts
        if len(set(edges)) != n or len(set(inner)) != len(inner):
            return WalkKind.WALK
        if closed:
            return WalkKind.CYCLE
        for i in range(n - 1):
            if edges[i] & edges[i + 1] != {verts[i + 1]}:
                return WalkKind.PATH
        for i in range(n):
            for j in range(i + 2, n):
                if edges[i] & edges[j]:
                    return WalkKind.PATH
        return WalkKind.LOOSE_PATH

    # -- cuts -----------------------------------------------------------

    def cut(self, x: Iterable[int]) -> Cut:
        """Edges with endpoints on both sides of the split (x, V - x)."""
        xs = frozenset(x)
        self._check_subset(xs)
        if xs == self._vertices:
            raise ValueError("cut side must be a proper subset of the vertices")
        crossing = tuple(
            e for e in self._edges if e.vertices & xs and e.vertices - xs
        )
        return Cut(xs, crossing, sum(e.weight for e in crossing))

    def partition_by_cut(self, x: Iterable[int]):
        """Split the edge set into (crossing, inside x, outside x)."""
        xs = frozenset(x)
        cut = self.cut(xs)
        inside = tuple(e for e in self._edges if e.vertices <= xs)
        outside = tuple(e for e in self._edges if e.vertices <= self._vertices - xs)
        return cut.crossing_edges, inside, outside

    def min_cut(self, method: str = "auto") -> MinCut:
        """Minimum-capacity cut.

        method "auto" orders vertices by maximum adjacency, which works on
        any hypergraph in polynomial time.  "edge-scan" (quasi-trees only)
        and "exhaustive" (every split, limited to MAX_EXHAUSTIVE_VERTICES
        vertices) force one of the two simpler routes, which serve as
        oracles for the first.
        """
        if len(self._vertices) < 2:
            raise ValueError("min-cut needs at least 2 vertices")
        if method not in ("auto", "exhaustive", "edge-scan"):
            raise ValueError(f"unknown min-cut method {method!r}")
        comps = self.components()
        if len(comps) > 1:
            if method == "edge-scan":
                raise ValueError("edge-scan requires a connected quasi-tree")
            return MinCut(0, comps[0])
        if method == "auto":
            return self._min_cut_by_ordering()
        if method == "edge-scan":
            if not self.is_quasi_tree():
                raise ValueError("edge-scan requires a connected quasi-tree")
            e = min(self._edges, key=lambda e: (e.weight, e.key))
            witness = next(
                c for c in self.without_edge(e.vertices).components()
                if min(e.vertices) in c
            )
            return MinCut(e.weight, witness)
        if len(self._vertices) > MAX_EXHAUSTIVE_VERTICES:
            raise MinCutLimitError(
                f"exhaustive min-cut is limited to {MAX_EXHAUSTIVE_VERTICES} vertices "
                f"(got {len(self._vertices)}); the default route has no such limit"
            )
        vs = sorted(self._vertices)
        anchor, rest = vs[0], vs[1:]
        best: MinCut | None = None
        for r in range(len(rest)):
            for comb in combinations(rest, r):
                xs = frozenset((anchor, *comb))
                w = sum(
                    e.weight for e in self._edges
                    if e.vertices & xs and e.vertices - xs
                )
                if best is None or w < best.capacity:
                    best = MinCut(w, xs)
        assert best is not None
        return best

    def _min_cut_by_ordering(self) -> MinCut:
        """Min cut of a connected hypergraph by maximum-adjacency ordering.

        Klimmek & Wagner's hypergraph form of Stoer-Wagner.  Each phase
        orders the merged vertices from the smallest vertex, always adding
        the one whose edges touching the added set weigh most.  The last
        vertex t, taken alone, is a minimum cut between t and the vertex
        s added before it, and its weight is t's tie when it is added.
        Merging t into s keeps every cut that does not split them, so the
        lightest phase cut is a minimum cut; its witness is the original
        vertices merged into t.  O(V * p log p) for p = sum of edge sizes.
        """
        start = min(self._vertices)
        members = {v: frozenset((v,)) for v in sorted(self._vertices)}
        edges = [(e.vertices, e.weight) for e in self._edges]
        best: MinCut | None = None
        while len(members) > 1:
            incident: dict[int, list[int]] = {v: [] for v in members}
            for i, (eset, _w) in enumerate(edges):
                for v in eset:
                    incident[v].append(i)
            tie = dict.fromkeys(members, 0)
            touched = [False] * len(edges)
            heap = [(0, start)]
            order = []
            while heap:
                neg, v = heapq.heappop(heap)
                if tie.get(v) != -neg:  # added already, or a stale entry
                    continue
                order.append(v)
                cut = tie.pop(v)
                for i in incident[v]:
                    if not touched[i]:
                        touched[i] = True
                        eset, w = edges[i]
                        for u in eset:
                            if u in tie:
                                tie[u] += w
                                heapq.heappush(heap, (-tie[u], u))
            s, t = order[-2], order[-1]
            if best is None or cut < best.capacity:
                best = MinCut(cut, members[t])
            members[s] |= members.pop(t)
            merged: dict[frozenset[int], int] = {}
            for eset, w in edges:
                if t in eset:
                    eset = (eset - {t}) | {s}
                if len(eset) > 1:
                    merged[eset] = merged.get(eset, 0) + w
            edges = list(merged.items())
        assert best is not None
        return best

    # -- misc -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self._weights.items())))

    def __repr__(self) -> str:
        parts = ", ".join(f"{list(e.key)}:{e.weight}" for e in self._edges)
        return f"Hypergraph(|V|={len(self._vertices)}, edges=[{parts}])"

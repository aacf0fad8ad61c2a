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
from typing import Iterable

__all__ = ["Edge", "Cut", "MinCut", "Hypergraph"]


def _integer(value, what: str) -> int:
    # bool is an int subclass; floats and strings are refused, not coerced
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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
        if any(_integer(v, "vertex id") < 1 for v in vs):
            raise ValueError("vertex ids must be positive integers")
        if _integer(self.weight, "edge weight") < 1:
            raise ValueError(f"edge weight must be a positive integer, got {self.weight!r}")

    @classmethod
    def _checked(cls, vertices: frozenset[int], weight: int) -> Edge:
        """The edge on `vertices` of `weight`, which __post_init__ would
        check, built without checking them again."""
        edge = object.__new__(cls)
        object.__setattr__(edge, "vertices", vertices)
        object.__setattr__(edge, "weight", weight)
        return edge

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


class Hypergraph:
    """Immutable weighted hypergraph; edges are (vertex set, weight) pairs."""

    __slots__ = ("_vertices", "_weights", "_edges", "_structure")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[Iterable[int], int]] = ()):
        vs = frozenset(_integer(v, "vertex id") for v in vertices)
        if not vs:
            raise ValueError("hypergraph needs at least one vertex")
        if any(v < 1 for v in vs):
            raise ValueError("vertex ids must be positive integers")
        weights: dict[frozenset[int], int] = {}
        for vset, w in edges:
            eset = frozenset(vset)
            if not all(_integer(v, "vertex id") in vs for v in eset):
                raise ValueError(f"edge {sorted(eset)} uses unknown vertices")
            if _integer(w, "edge weight") < 1:
                raise ValueError(f"edge weight must be positive, got {w}")
            if len(eset) < 2:
                raise ValueError(f"edge needs at least 2 vertices, got {sorted(eset)}")
            weights[eset] = weights.get(eset, 0) + w
        self._fill(vs, weights)

    @classmethod
    def _checked(cls, vertices: frozenset[int], weights: dict[frozenset[int], int]) -> Hypergraph:
        """The hypergraph on `vertices` with these merged edge weights,
        which __init__ would check, built without checking them again."""
        h = object.__new__(cls)
        h._fill(vertices, weights)
        return h

    def _fill(self, vertices: frozenset[int], weights: dict[frozenset[int], int]):
        self._vertices, self._weights, self._structure = vertices, weights, None
        self._edges = tuple(
            Edge._checked(e, w) for e, w in sorted(weights.items(), key=lambda kv: _edge_key(kv[0]))
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
        at, around, _components, _bridges = self._analysis()
        return tuple(self._edges[j - len(at)] for j in around[at[v]])

    def degree(self, v: int) -> tuple[int, int]:
        """(edge count, total weight) over the edges containing v."""
        inc = self.incident(v)
        return len(inc), sum(e.weight for e in inc)

    def _check_vertex(self, v: int):
        if v not in self._vertices:
            raise ValueError(f"vertex {v} not in hypergraph")

    # -- construction of derived graphs --------------------------------

    def without_edge(self, vset: Iterable[int]) -> "Hypergraph":
        key = frozenset(vset)
        if key not in self._weights:
            raise ValueError(f"no edge on {sorted(key)}")
        return Hypergraph._checked(self._vertices, {e: w for e, w in self._weights.items() if e != key})

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

    def _analysis(self):
        """(node of each vertex, each node's neighbours, components,
        bridges) of the vertex-edge incidence graph, whose nodes are the
        vertices in ascending order and then the edges; made on first use
        and kept.  One iterative DFS finds the components and the bridges
        (Hopcroft & Tarjan, CACM 1973): an edge is a bridge, its removal
        splitting its component, iff its node is a cut vertex, that is iff
        some DFS child's subtree reaches no node discovered before it."""
        if self._structure is None:
            vs, edges = sorted(self._vertices), self._edges
            n = len(vs)
            at = {v: i for i, v in enumerate(vs)}
            around = [[] for _ in vs]
            for j, e in enumerate(edges, n):
                around.append([at[v] for v in e.vertices])
                for i in around[j]:
                    around[i].append(j)
            order = [0] * len(around)  # each node's discovery number, 0 until found
            low = order[:]  # the least one its DFS subtree reaches
            count, components, bridges = 0, [], set()
            for root in range(n):
                if order[root]:
                    continue
                count += 1
                order[root] = low[root] = count
                members, stack = [vs[root]], [(root, -1, iter(around[root]))]
                while stack:
                    node, parent, it = stack[-1]
                    for nxt in it:
                        if not order[nxt]:
                            count += 1
                            order[nxt] = low[nxt] = count
                            stack.append((nxt, node, iter(around[nxt])))
                            if nxt < n:
                                members.append(vs[nxt])
                            break
                        if nxt != parent and order[nxt] < low[node]:
                            low[node] = order[nxt]
                    else:
                        stack.pop()
                        if parent >= 0:
                            low[parent] = min(low[parent], low[node])
                            if parent >= n and low[node] >= order[parent]:
                                bridges.add(edges[parent - n].vertices)
                components.append(frozenset(members))
            self._structure = at, around, tuple(components), frozenset(bridges)
        return self._structure

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, sorted by smallest member."""
        return self._analysis()[2]

    def is_connected(self) -> bool:
        return len(self._analysis()[2]) == 1

    def connected_without(self, vset: Iterable[int]) -> bool:
        """True iff the hypergraph stays connected without the edge on
        `vset`: it is connected and that edge is not a bridge."""
        key = frozenset(vset)
        if key not in self._weights:
            raise ValueError(f"no edge on {sorted(key)}")
        _at, _around, components, bridges = self._analysis()
        return len(components) == 1 and key not in bridges

    def is_quasi_tree(self) -> bool:
        """Connected, and removing any single edge disconnects the graph."""
        _at, _around, components, bridges = self._analysis()
        return len(components) == 1 and len(bridges) == len(self._edges)

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

    def min_cut(self) -> MinCut:
        """Minimum-capacity cut: 0 on a disconnected hypergraph (its first
        component is the witness), otherwise by maximum-adjacency
        ordering, polynomial on any hypergraph."""
        if len(self._vertices) < 2:
            raise ValueError("min-cut needs at least 2 vertices")
        comps = self.components()
        if len(comps) > 1:
            return MinCut(0, comps[0])
        return self._min_cut_by_ordering()

    def _min_cut_by_ordering(self) -> MinCut:
        """Min cut of a connected hypergraph by maximum-adjacency ordering.

        Klimmek & Wagner's hypergraph form of Stoer-Wagner.  Each phase
        orders the merged vertices from the smallest vertex, always adding
        the one whose edges touching the added set weigh most.  The last
        vertex t, taken alone, is a minimum cut between t and the vertex
        s added before it, and its weight is t's tie when it is added.
        Merging t into s keeps every cut that does not split them, so the
        lightest phase cut is a minimum cut; its witness is the original
        vertices merged into t.  A merge edits t's edges in place to hold s;
        the parallel and one-member edges this leaves change no tie, as a
        phase touches each edge once.  O(V * p log p) for p = sum of |e|.
        """
        start = min(self._vertices)
        members = {v: frozenset((v,)) for v in sorted(self._vertices)}
        edges = [(set(e.vertices), e.weight) for e in self._edges]
        at, around, _components, _bridges = self._analysis()  # edge i is node len(at) + i
        incident = {v: [j - len(at) for j in around[at[v]]] for v in members}
        best: MinCut | None = None
        while len(members) > 1:
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
            for i in incident.pop(t):
                eset = edges[i][0]
                eset.discard(t)
                if s not in eset:
                    eset.add(s)
                    incident[s].append(i)
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

"""Shared fixtures: the two worked storage examples plus small helpers.

The first example is a six-user, five-segment layout whose overlap
structure is cyclic.  Dropping the three-way group {1,2,3} from it
yields the second example, a quasi-tree on four segments.  Expected
values in the tests were worked out by hand from the holdings below.
"""
from __future__ import annotations

import pathlib
import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from hypercast import Hypergraph, StorageTopology
from hypercast.generators import random_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

CYCLIC_HOLDINGS = {
    1: {1, 2},
    2: {1, 3},
    3: {1, 3, 4},
    4: {2, 5},
    5: {4, 5},
    6: {4},
}

TREE_HOLDINGS = {
    1: {1},
    2: {2},
    3: {2, 3},
    4: {1, 4},
    5: {3, 4},
    6: {3},
}

TRIANGLE_HOLDINGS = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}


@pytest.fixture
def cyclic_topology() -> StorageTopology:
    return StorageTopology(5, CYCLIC_HOLDINGS)


@pytest.fixture
def tree_topology() -> StorageTopology:
    return StorageTopology(4, TREE_HOLDINGS)


@pytest.fixture
def triangle_topology() -> StorageTopology:
    return StorageTopology(3, TRIANGLE_HOLDINGS)


@pytest.fixture
def cyclic_h() -> Hypergraph:
    # same structure built directly from edges, independent of the
    # topology-to-hypergraph conversion
    return Hypergraph(
        range(1, 7),
        [({1, 2, 3}, 1), ({1, 4}, 1), ({2, 3}, 1), ({3, 5, 6}, 1), ({4, 5}, 1)],
    )


@pytest.fixture
def tree_h() -> Hypergraph:
    return Hypergraph(
        range(1, 7),
        [({1, 4}, 1), ({2, 3}, 1), ({3, 5, 6}, 1), ({4, 5}, 1)],
    )


@pytest.fixture
def disconnected_topology() -> StorageTopology:
    # two islands: segments 1,2 on {1,2}, segment 3 on {3,4}
    return StorageTopology(3, {1: {1, 2}, 2: {1, 2}, 3: {3}, 4: {3}})


def generated_model(users: int, segments: int, extra: int, max_size: int, seed: int):
    """A generated instance with its model hypergraph and placement."""
    topo = random_instance(users, segments, extra, max_size, seed)
    h, placement, _leftovers = topo.to_hypergraph()
    return topo, h, placement


def brute_min_cut_weight(h: Hypergraph) -> int:
    """Minimum crossing weight over every split, by enumeration: each
    vertex set that holds the smallest vertex and not all of them."""
    anchor, *rest = sorted(h.vertices)
    best = None
    for r in range(len(rest)):
        for comb in combinations(rest, r):
            xs = {anchor, *comb}
            w = sum(e.weight for e in h.edges if e.vertices & xs and e.vertices - xs)
            if best is None or w < best:
                best = w
    return best


def random_subset(rng: random.Random, items, lo: int, hi: int) -> set[int]:
    size = rng.randint(lo, min(hi, len(items)))
    return set(rng.sample(sorted(items), size))


@st.composite
def topologies(draw):
    """A small topology with every segment stored by one to V users."""
    V = draw(st.integers(1, 5))
    W = draw(st.integers(1, 6))
    holdings = {v: set() for v in range(1, V + 1)}
    for w in range(1, W + 1):
        for v in draw(st.sets(st.integers(1, V), min_size=1, max_size=V)):
            holdings[v].add(w)
    return StorageTopology(W, holdings)

"""Per-user segment storage and its weighted-hypergraph model.

A topology assigns each user v in 1..V a set of stored segment ids out
of 1..W.  Grouping segments by their exact holder set yields the model
hypergraph: holder sets of size 2..V-1 become edges weighted by group
size; segments held by a single user or by everyone cannot form a valid
edge and are reported separately as leftovers.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .hypergraph import Hypergraph, _integer

__all__ = ["StorageTopology"]


class StorageTopology:
    """Immutable map from users 1..V to stored segment subsets of 1..W;
    every segment must be stored by some user."""

    __slots__ = ("_num_segments", "_holdings", "_payload_length", "_holders", "_model")

    def __init__(
        self,
        num_segments: int,
        holdings: Mapping[int, Iterable[int]],
        payload_length: int | None = None,
    ):
        if _integer(num_segments, "num_segments") < 0:
            raise ValueError(f"num_segments must be a non-negative integer, got {num_segments!r}")
        users = sorted(_integer(v, "user id") for v in holdings)
        if not users:
            raise ValueError("topology needs at least one user")
        if users != list(range(1, len(users) + 1)):
            raise ValueError(f"user ids must be exactly 1..{len(users)}, got {users}")
        held = []
        for v in users:
            segs = frozenset(_integer(w, f"user {v} segment id") for w in holdings[v])
            if any(w < 1 or w > num_segments for w in segs):
                bad = sorted(w for w in segs if w < 1 or w > num_segments)
                raise ValueError(f"user {v} stores segments outside 1..{num_segments}: {bad}")
            held.append(segs)
        if payload_length is not None:
            if _integer(payload_length, "payload_length") <= num_segments:
                raise ValueError(
                    f"payload_length must exceed num_segments={num_segments}, got {payload_length!r}"
                )
        covered = frozenset().union(*held)
        if len(covered) < num_segments:
            w = next(w for w in range(1, num_segments + 1) if w not in covered)
            raise ValueError(f"segment {w} is stored nowhere")
        self._num_segments = num_segments
        self._holdings = tuple(held)
        self._payload_length = payload_length
        holders: dict[int, set[int]] = {w: set() for w in range(1, num_segments + 1)}
        for v, segs in enumerate(held, start=1):
            for w in segs:
                holders[w].add(v)
        self._holders = {w: frozenset(vs) for w, vs in holders.items()}
        self._model = None

    @property
    def num_users(self) -> int:
        return len(self._holdings)

    @property
    def num_segments(self) -> int:
        return self._num_segments

    @property
    def payload_length(self) -> int | None:
        return self._payload_length

    @property
    def store_length(self) -> int:
        """The length L of each segment's payload: as declared, or W + 1."""
        return self._payload_length or self._num_segments + 1

    @property
    def users(self) -> range:
        return range(1, self.num_users + 1)

    def holding(self, v: int) -> frozenset[int]:
        self._check_user(v)
        return self._holdings[v - 1]

    def holders_of(self, w: int) -> frozenset[int]:
        """Users that store segment w."""
        if w not in self._holders:
            raise ValueError(f"segment {w} outside 1..{self._num_segments}")
        return self._holders[w]

    def _check_user(self, v):
        if not isinstance(v, int) or not 1 <= v <= self.num_users:
            raise ValueError(f"user {v!r} outside 1..{self.num_users}")

    # -- hypergraph model -----------------------------------------------

    def to_hypergraph(self):
        """(model hypergraph, placement, leftovers), built on the first call;
        every later call returns the same three objects.

        placement maps each edge's vertex set to its sorted segment ids;
        leftovers maps segments with holder count 1 or V (unmodelable)
        to their holder sets.  Both mappings are read-only.
        """
        if self._model is None:
            V = self.num_users
            groups: dict[frozenset[int], list[int]] = {}
            leftovers: dict[int, frozenset[int]] = {}
            for w in range(1, self._num_segments + 1):
                hs = self._holders[w]
                if len(hs) == 1 or len(hs) == V:
                    leftovers[w] = hs
                else:
                    groups.setdefault(hs, []).append(w)
            # holder sets of 2..V-1 users among 1..V, each of at least one segment
            h = Hypergraph._checked(frozenset(self.users), {hs: len(ws) for hs, ws in groups.items()})
            placement = {hs: tuple(ws) for hs, ws in groups.items()}  # ws ascend with w
            self._model = h, MappingProxyType(placement), MappingProxyType(leftovers)
        return self._model

    # -- misc ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, StorageTopology):
            return NotImplemented
        return (
            self._num_segments == other._num_segments
            and self._holdings == other._holdings
            and self._payload_length == other._payload_length
        )

    def __hash__(self) -> int:
        return hash((self._num_segments, self._holdings, self._payload_length))

    def __reduce__(self):
        # rebuilt from its arguments: the kept model's read-only mappings do not pickle
        return StorageTopology, (self._num_segments, dict(enumerate(self._holdings, 1)), self._payload_length)

    def __repr__(self) -> str:
        return (
            f"StorageTopology(users={self.num_users}, segments={self._num_segments})"
        )

"""Exact linear algebra over the prime field GF(2**31 - 1).

All vectors and matrices hold plain integers in [0, P).  Dense arithmetic
uses int64 numpy arrays; a single product of two reduced values stays
below 2**62, so every elementary step fits in int64 before the modular
reduce.  UserBases keeps every user's sparse basis rows in flat int64
arrays, so one vectorized pass takes a broadcast into all of them.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

P = 2_147_483_647  # prime 2**31 - 1

__all__ = [
    "P",
    "inv_mod",
    "inv_mod_many",
    "rank_mod",
    "nonsingular_mod",
    "UserBases",
]


def inv_mod(a: int) -> int:
    """Multiplicative inverse of a modulo P."""
    a %= P
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod P")
    return pow(a, -1, P)


def inv_mod_many(values: list[int]) -> list[int]:
    """Inverses modulo P of many values with one pow (Montgomery's trick):
    invert the product of them all, then peel one factor off at a time."""
    prefix = [1]
    for a in values:
        prefix.append(prefix[-1] * a % P)
    inv = inv_mod(prefix[-1])  # raises ZeroDivisionError if a value is 0 mod P
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * values[i] % P
    return out


def rank_mod(matrix) -> int:
    """Rank of a matrix over GF(P), by row elimination with exact arithmetic.

    Each pivot clears its column below it with one rank-1 update of the
    remaining block; every product of two reduced values stays below
    2**62.
    """
    m = np.array(matrix, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("rank_mod expects a 2-D matrix")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return 0
    m %= P
    r = 0
    for c in range(cols):
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        row = m[r, c:] * inv_mod(int(m[r, c])) % P
        below = m[r + 1:, c:]
        below -= below[:, :1] * row
        below %= P
        r += 1
        if r == rows:
            break
    return r


def nonsingular_mod(matrix) -> bool:
    """True iff a square matrix is invertible over GF(P)."""
    m = np.array(matrix, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("nonsingular_mod expects a square matrix")
    n = m.shape[0]
    return n == 0 or rank_mod(m) == n


class UserBases:
    """Every user's fully reduced basis over GF(P), held together so that
    one vectorized pass takes a broadcast into all of them.

    User u spans the unit vectors of its stored coordinates and its basis
    rows.  A row is 1 at its pivot and 0 at its owner's stored
    coordinates and other pivots; its remaining entries sit in one flat
    (3, E) array of (row id, key, value) over all users, where the key
    packs the owner and the coordinate as owner << shift | coordinate.
    A row without entries is a unit: its owner has decoded the pivot.
    ``covered[u]`` marks u's stored coordinates and pivots, ``rank[u]``
    counts them, and ``units[u]`` lists u's unit pivots in the order
    they appeared.

    With ``columns`` (W x L, one payload per coordinate) each row also
    carries a payload, the image of its vector, and ``source[u, w]``
    indexes the payload that u uses for coordinate w: the stored column,
    the pivot's row, or a zero row.
    """

    __slots__ = ("covered", "rank", "units", "shift", "owner", "pivot", "rows", "entries",
                 "payloads", "source", "_at")

    def __init__(self, stored: np.ndarray, columns: np.ndarray | None = None):
        V, W = stored.shape
        self.covered = stored.copy()
        self.rank = stored.sum(axis=1)
        self.units: list[list[int]] = [[] for _ in range(V)]
        self.shift = max(W - 1, 0).bit_length()
        # the ranks can grow by V * W - sum(rank) in all, one row each
        capacity = V * W - int(self.rank.sum())
        self.owner = np.empty(capacity, dtype=np.int64)
        self.pivot = np.empty(capacity, dtype=np.int64)
        self.rows = 0
        self.entries = np.empty((3, 0), dtype=np.int64)
        # maps from a user or a row id to its position in the current
        # slot's arrays; -1 between slots
        self._at = (np.full(V, -1), np.full(capacity, -1))
        self.payloads = self.source = None
        if columns is not None:
            # payload ids: the W columns, one zero row, then row r at W + 1 + r
            self.payloads = np.empty((W + 1 + capacity, columns.shape[1]), dtype=np.int64)
            self.payloads[:W] = columns % P
            self.payloads[W] = 0
            self.source = np.where(stored, np.arange(W), W)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Every user's residual of v (W ints in [0, P)), as a V x W array:
        v off the user's covered coordinates, minus the multiples of its
        rows.  A user spans v iff its residual is zero."""
        V, W = self.covered.shape
        row, key, value = self.entries
        # no entry sits at a pivot, so row r's multiple is v at r's pivot;
        # each user's sum has fewer than W terms below P, exact in float64
        spent = np.bincount(key, v[self.pivot[row]] * value % P, V << self.shift)
        spent = spent.reshape(V, -1)[:, :W].astype(np.int64)
        return np.where(self.covered, 0, v - spent) % P

    def combine(self, v: np.ndarray) -> np.ndarray:
        """Every user's payload for v from its sources, as a V x L array;
        it is the payload of v for each user that spans v."""
        cols = v.nonzero()[0]
        # v in 16-bit halves: a sum of up to 2**11 products stays below 2**58
        halves = np.array((v[cols] & 0xFFFF, v[cols] >> 16))
        low, high = np.einsum("hk,ukl->hul", halves, self.payloads[self.source[:, cols]])
        return (low + high % P * 0x10000) % P

    def insert(self, residuals: np.ndarray, payloads: np.ndarray | None = None):
        """Give each user with a nonzero residual (from `reduce`) a new row
        with that residual's payload, and keep every basis fully reduced.

        Returns the new units as (user, coordinate) pairs: each user's
        rows that lost their last entry in ascending row id, then its new
        row if it is one-hot, so each ``units`` list grows in that order.
        """
        V, W = self.covered.shape
        shift = self.shift
        users = residuals.any(axis=1).nonzero()[0]
        if not users.size:
            return []
        g = np.arange(users.size)
        new_rows = residuals[users]
        nonzero = new_rows != 0
        q = nonzero.argmax(axis=1)  # the smallest residual coordinate
        inv = np.array(inv_mod_many(new_rows[g, q].tolist()), dtype=np.int64)
        new = self.rows + g
        self.rows += users.size
        self.owner[new] = users
        self.pivot[new] = q
        self.covered[users, q] = True
        self.rank[users] += 1
        if payloads is not None:
            new_payloads = payloads[users] * inv[:, None] % P
            self.payloads[W + 1 + new] = new_payloads
            self.source[users, q] = W + 1 + new

        # back-substitution: a hit row, one with an entry at its owner's new
        # pivot, takes that entry's multiple of the new row.  One dense block
        # holds the hit rows, then the new rows, over every column where any
        # of them has an entry, and is written back whole.
        row, key, value = self.entries
        user_at, row_at = self._at
        user_at[users] = users << shift | q  # the key of each user's new pivot
        hit = (key == user_at[key >> shift]).nonzero()[0]
        user_at[users] = -1
        # hit rows are distinct: a row has one entry per coordinate, and a
        # user gains at most one pivot per slot
        hit_rows, a = row[hit], value[hit]
        ids = np.concatenate((hit_rows, new))
        owners = np.concatenate((key[hit] >> shift, users))
        support = nonzero.any(axis=0)
        kept = self.entries
        if hit.size:
            row_at[hit_rows] = np.arange(hit.size)
            i = row_at[row]
            row_at[hit_rows] = -1
            theirs = i >= 0
            mine = theirs.nonzero()[0]  # every entry of the hit rows
            j = key[mine] & ((1 << shift) - 1)
            support[j] = True
            kept = self.entries.compress(~theirs, axis=1)
        cols = support.nonzero()[0]
        block = new_rows[:, cols] * inv[:, None] % P  # each new row 1 at its pivot
        if hit.size:
            of_user = np.searchsorted(users, owners[:hit.size])
            # a product below 2**62 plus an entry below 2**31 fits int64;
            # the hit entry itself cancels against the new row's pivot 1
            hit_block = (P - a)[:, None] * block[of_user]
            hit_block[i[mine], cols.searchsorted(j)] += value[mine]
            hit_block %= P
            block = np.concatenate((hit_block, block))
            if payloads is not None:
                at = W + 1 + hit_rows
                # nonnegative terms: numpy's % is quicker on them
                hit_payloads = (P - new_payloads)[of_user]
                hit_payloads *= a[:, None]
                hit_payloads += self.payloads[at]
                hit_payloads %= P
                self.payloads[at] = hit_payloads
        block[hit.size + g, cols.searchsorted(q)] = 0  # a row holds no entry at its pivot
        i, j = block.nonzero()
        self.entries = np.concatenate(
            (kept, np.array((ids[i], owners[i] << shift | cols[j], block[i, j]))), axis=1
        )
        # the emptied hit rows in ascending row id, then the one-hot new
        # rows, whose ids are larger than any before
        found = np.sort(ids[~block.any(axis=1)])
        out = list(zip(self.owner[found].tolist(), self.pivot[found].tolist()))
        for u, w in out:
            self.units[u].append(w)
        return out

"""Exact linear algebra over the prime field GF(2**31 - 1).

All vectors and matrices hold plain integers in [0, P).  Dense arithmetic
uses int64 numpy arrays; a single product of two reduced values stays
below 2**62, so every elementary step fits in int64 before the modular
reduce.  ColumnBasis keeps sparse rows as Python dicts.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

P = 2_147_483_647  # prime 2**31 - 1

__all__ = [
    "P",
    "inv_mod",
    "unit_vector",
    "rank_mod",
    "nonsingular_mod",
    "ColumnBasis",
]


def inv_mod(a: int) -> int:
    """Multiplicative inverse of a modulo P."""
    a %= P
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod P")
    return pow(a, -1, P)


def unit_vector(dim: int, row: int) -> np.ndarray:
    """Vector with a single 1 at 0-based position `row`."""
    if not 0 <= row < dim:
        raise ValueError(f"unit row {row} outside [0, {dim})")
    v = np.zeros(dim, dtype=np.int64)
    v[row] = 1
    return v


def rank_mod(matrix) -> int:
    """Rank of a matrix over GF(P), by row elimination with exact arithmetic."""
    m = np.array(matrix, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("rank_mod expects a 2-D matrix")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return 0
    m %= P
    r = 0
    for c in range(cols):
        pivot = -1
        for i in range(r, rows):
            if m[i, c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * inv_mod(int(m[r, c]))) % P
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % P
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




class ColumnBasis:
    """Incrementally, fully reduced sparse basis over GF(P).

    Each row is 1 at its pivot and 0 at every other pivot; ``rows`` maps
    the pivot to the row's other entries, a {coordinate: coeff} map
    without zeros.  In such a basis the unit vector e_w lies in the span
    iff w is a pivot whose row is one-hot (no other entries), so
    ``units`` lists exactly the coordinates the span has resolved, in
    the order they appeared.  In payload mode every row also carries a
    payload vector, and each row operation is mirrored on it.
    """

    __slots__ = ("rows", "payloads", "units")

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.payloads: dict[int, np.ndarray] = {}
        self.units: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[int, int], payload: np.ndarray | None = None):
        """Subtract from `vec` (entries in [1, P)) its pivot entries times
        their rows; returns (residual, payload reduced alike).  The
        residual is empty iff `vec` lies in the span."""
        rows, payloads = self.rows, self.payloads
        out = dict(vec)
        for p in [k for k in vec if k in rows]:
            # no row has an entry at a pivot, so out[p] is still vec[p]
            a = out.pop(p)
            for k, x in rows[p].items():
                out[k] = (out.get(k, 0) - a * x) % P
            if payload is not None:
                payload = (payload - a * payloads[p]) % P
        return {k: x for k, x in out.items() if x}, payload

    def contains(self, vec: Mapping[int, int]) -> bool:
        return not self.reduce(vec)[0]

    def insert(self, vec: Mapping[int, int], payload: np.ndarray | None = None) -> bool:
        """Add `vec` (and its payload) to the span; True iff rank grew."""
        v, y = self.reduce(vec, payload)
        if not v:
            return False
        q = min(v)
        inv = inv_mod(v.pop(q))
        row = {k: x * inv % P for k, x in v.items()}
        if y is not None:
            y = y * inv % P
        payloads, units = self.payloads, self.units
        for p, r in self.rows.items():
            a = r.pop(q, 0)
            if not a:
                continue
            for k, x in row.items():
                c = (r.get(k, 0) - a * x) % P
                if c:
                    r[k] = c
                else:
                    del r[k]
            if y is not None:
                payloads[p] = (payloads[p] - a * y) % P
            if not r:
                units.append(p)
        self.rows[q] = row
        if y is not None:
            payloads[q] = y
        if not row:
            units.append(q)
        return True

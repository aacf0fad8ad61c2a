"""Test oracle: one user's fully reduced sparse basis in Python dicts.

`ColumnBasis` takes in one vector at a time, the simulator's design
before all users' bases were batched into field.UserBases.  It is slow
and plainly correct; the simulator tests compare ranks and the order of
decoding with it.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from hypercast.field import P, inv_mod


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

"""Exact linear algebra over the prime field GF(2**31 - 1).

All vectors and matrices hold plain integers in [0, P).  Dense arithmetic
uses int64 numpy arrays; a single product of two reduced values stays
below 2**62, so every elementary step fits in int64 before the modular
reduce; large products (combine_mod) go through exact float64 BLAS
products on 11-bit limbs.  UserBases keeps every user's sparse basis rows
in flat int64 arrays, and takes in a run of one sender's broadcasts with
one grouped sum and one small dense elimination per slot for every user
at once, payloads included.
"""
from __future__ import annotations

import functools
import math

import numpy as np

P = 2_147_483_647  # prime 2**31 - 1

__all__ = [
    "P",
    "inv_mod",
    "inv_mod_many",
    "rank_mod",
    "nonsingular_mod",
    "combine_mod",
    "Refused",
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


# multiply-adds from which combine_mod takes float64 (BLAS) products: no
# product of the benchmark's payload workload reaches it, and there BLAS
# saves no time but raises the peak; simulations with a store from about
# 20 users and 128 segments on, whose products mostly reach it, are where
# BLAS starts to be faster (BENCH_17.json)
BLAS_MIN_PRODUCT = 1 << 19


def combine_mod(coefficients: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """coefficients @ columns mod P, for ints in [0, P), coefficients of
    any shape (..., n) and at most 2**11 rows of `columns` (n x m).

    Below BLAS_MIN_PRODUCT multiply-adds two int64 products take the
    coefficients' 16-bit halves, each sum below 2**58.  From it on, one
    float64 (BLAS) product per 11-bit limb of the coefficients: a limb
    times a value below 2**31 stays below 2**42, so every sum of at most
    2**11 of them stays below 2**53 and is exact.  Besides the result,
    it takes at most a copy of `columns` and two results' worth of
    temporaries.
    """
    lead, n = coefficients.shape[:-1], coefficients.shape[-1]
    if coefficients.size * columns.shape[1] < BLAS_MIN_PRODUCT:
        out = (coefficients >> 16) @ columns
        _reduce(out)
        out <<= 16
        out += (coefficients & 0xFFFF) @ columns
        _reduce(out)
        return out
    rows = math.prod(lead)
    limbs = [(coefficients >> shift & 0x7FF).reshape(rows, n).astype(np.float64)
             for shift in (22, 11, 0)]
    out = np.zeros((rows, columns.shape[1]), dtype=np.int64)
    columns = columns.astype(np.float64)
    for limb in limbs:
        out <<= 11
        out += (limb @ columns).astype(np.int64)
        _reduce(out)
    return out.reshape(*lead, columns.shape[1])


class Refused(Exception):
    """Slot `slot` of a run, counted from the run's first, cannot be sent:
    its coefficients leave the sender's span or, with `payload`, its
    payload differs from the store's combination."""

    def __init__(self, slot: int, payload: bool):
        super().__init__(slot, payload)
        self.slot, self.payload = slot, payload


class UserBases:
    """Every user's fully reduced basis over GF(P), held together so that
    `deliver` takes a run of one sender's broadcasts into all of them.

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
                 "payloads", "source")

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
        self.payloads = self.source = None
        if columns is not None:
            # payload ids: the W columns, one zero row, then row r at W + 1 + r
            self.payloads = np.empty((W + 1 + capacity, columns.shape[1]), dtype=np.int64)
            self.payloads[:W] = columns % P
            self.payloads[W] = 0
            self.source = np.where(stored, np.arange(W), W)

    def formed(self, users, vectors: np.ndarray) -> np.ndarray:
        """The payload that each of `users` forms for each row of `vectors`
        (k x W ints in [0, P)) from its sources, as a k x len(users) x L
        array: the vector's payload for each user that spans it.  The
        sources are gathered and combined a chunk of users at a time, each
        taking at most what the pending block of the vectors over their
        support takes, or _STEP_VALUES if that is more."""
        cols = vectors.any(axis=0).nonzero()[0]
        k, L = len(vectors), self.payloads.shape[1]
        coefficients = vectors[:, cols]
        out = np.empty((k, len(users), L), dtype=np.int64)
        # a user takes its sources and its k x L payloads, and in combine_mod
        # at most a copy of its sources and two k x L temporaries
        chunk = max(k * len(users) * (cols.size + L), _STEP_VALUES)
        step = max(1, chunk // ((2 * cols.size + 3 * k) * L))
        for i in range(0, len(users), step):
            part = users[i:i + step]
            sources = self.payloads[self.source[np.ix_(part, cols)].T]  # column x user x L
            sources = sources.reshape(cols.size, len(part) * L)
            out[:, i:i + step] = combine_mod(coefficients, sources).reshape(k, len(part), L)
        return out

    def deliver(self, sender: int, vectors: np.ndarray, images: np.ndarray | None = None):
        """Deliver a run: the broadcasts `vectors` (k x W ints in [0, P))
        that user `sender` sends one after another, whose payloads must
        equal `images` (k x L) in payload mode.

        The sender gains no row from its own broadcasts, so the checks of
        every slot come first, against its basis at the start of the run:
        the first slot whose coefficients leave the sender's span, or whose
        payload is not its image, raises Refused, and the slots from it on
        are not delivered.  One grouped sum gives every user's residual of
        every slot over the run's columns (the broadcasts' support and the
        entries of the rows pivoted there), and `_eliminate` takes them in.

        In payload mode each user's residual of a slot carries its L
        payload values as columns after the coefficients, so one rank-1
        step per slot updates both.  A run is cut where its pending block,
        slots by users by its columns plus L, would outgrow what the bases
        hold (their entries and, with payloads, the W + 1 store and zero
        rows and every row's L values) plus one residual of V x W
        coefficients and V x L payload values; the pieces go in one after
        another.

        Returns, per slot, every user's rank after it and the coordinates
        of the units it made, one per user that decoded each.  A user's
        units in one slot are its rows that lost their last entry, in the
        order they were made, then its new row if that is one-hot; each
        ``units`` list grows in that order.
        """
        V, W = self.covered.shape
        shift, L = self.shift, 0 if self.payloads is None else self.payloads.shape[1]
        out = []
        while len(out) < len(vectors):
            start = len(out)
            row, key, value = self.entries
            coord = key & ((1 << shift) - 1)
            # what the bases hold, the store and each row's payload included, and one residual
            budget = self.entries.size + (W + 1 + self.rows) * L + V * (W + L)
            run = vectors[start:start + max(1, budget // V + W)]
            while True:
                cols = run.any(axis=0)
                terms = cols[self.pivot[row]]  # the rows pivoted on the support
                cols[coord[terms]] = True  # and their entries' columns
                cols = cols.nonzero()[0]
                if len(run) * V * (cols.size + L) <= budget or len(run) == 1:
                    break
                # a prefix short enough even over every column of this one
                run = run[:max(1, budget // (V * (cols.size + L)))]
            k, width = len(run), cols.size + 1
            col_at = np.full(W, width - 1)  # the last column, always zero, stands for the rest
            col_at[cols] = np.arange(cols.size)
            at = col_at[coord]  # each entry's column in the block
            terms = terms.nonzero()[0]
            # no entry sits at a pivot, so row r's multiple is the slot's
            # coefficient at r's pivot; each user's sum has fewer than W terms
            # below P, exact in float64.  The products go in groups of slots
            # that the budget holds.
            where = (key[terms] >> shift) * width + at[terms]
            step = max(1, budget // max(terms.size, 1))
            spent = functools.reduce(np.add, (
                np.bincount(
                    (np.arange(j, min(j + step, k))[:, None] * (V * width) + where).ravel(),
                    (run[j:j + step, self.pivot[row[terms]]] * value[terms] % P).ravel(),
                    k * V * width,
                )
                for j in range(0, k, step)
            )).reshape(k, V, width)
            spent[:, :, :-1] -= run[:, None, cols]
            spent[:, :, :-1][:, self.covered[:, cols]] = 0
            np.negative(spent, out=spent)
            if images is not None:  # formed before the block exists, to keep the peak low
                formed = self.formed(np.arange(V), run)
            # each residual's coefficients, then its L payload values
            block = np.empty((k, V, width + L), dtype=np.int64)
            residuals = block[:, :, :width]
            residuals[...] = spent
            del spent
            residuals %= P
            refused = wrong = residuals[:, sender].any(axis=1)
            if images is not None:
                refused = wrong | (formed[:, sender] != images[start:start + k]).any(axis=1)
            if np.count_nonzero(refused):
                j = int(refused.argmax())
                raise Refused(start + j, not wrong[j])
            if images is not None:  # what each user has left of the sender's payloads
                np.subtract(formed[:, sender, None] + P, formed, out=block[:, :, width:])
                del formed
                _reduce(block[:, :, width:])
            out += self._eliminate(cols, at, block, budget)
        return out

    def _eliminate(self, cols, at, block, budget):
        """Take in a run's residuals slot by slot: `block` (k x V x (width
        + L)) holds user u's residual of slot j over `cols` against its
        basis at the start of the run, then one zero column (width in all),
        then in payload mode the residual's L payload values; `at` gives
        each entry's column in it (the zero one for columns beyond) and
        `budget` the run's memory budget.

        At each slot a user's residual, by then reduced by every new row
        before it, becomes a new row if it is nonzero, pivoted at its
        smallest coordinate, and is substituted into every other row of its
        owner with an entry there: the new rows, the later residuals and
        the rows held from before the run.  The rows from before that can
        be hit join a dense block over the run's columns: all at the start
        if they fit the budget, else each at the first slot that hits it.
        Only a held row's entries where its owner has a residual change, and
        its payload is updated where it lies.  A row is emptied at the last
        slot that hits it, or when it is made one-hot.  The blocks are
        written back once.
        """
        V, W = self.covered.shape
        shift = self.shift
        k, width = len(block), cols.size + 1
        paid = self.payloads is not None
        row, key, value = self.entries
        # the candidates: entries where their owner has a residual; `of`
        # gives each its row among the candidate rows, in ascending row id
        inside = block[:, :, :width].any(axis=0)[key >> shift, at]
        cand = inside.nonzero()[0]
        flag = np.zeros(self.rows, dtype=bool)
        flag[row[cand]] = True
        cand_rows = flag.nonzero()[0]
        of = cand_rows.searchsorted(row[cand])
        # `taken` lists the held rows, as candidate rows, in the order they joined
        if cand_rows.size * width <= budget:  # all fit: each is held from the start
            taken = np.arange(cand_rows.size)
            held = np.zeros((taken.size, width), dtype=np.int64)
            held[of, at[cand]] = value[cand]
            wait_of = of[:0]
        else:  # each waits, as its candidate entries, for the first slot that hits it
            taken = of[:0]
            held = np.zeros((0, width), dtype=np.int64)
            wait_of, wait_at, wait_value, wait_owner = of, at[cand], value[cand], key[cand] >> shift
        holder = self.owner[cand_rows[taken]]
        held_at = W + 1 + cand_rows[taken]  # each held row's payload
        held_index = np.arange(len(held))
        last_hit = np.full(cand_rows.size, -1)  # the last slot that hit each candidate row
        everyone = np.arange(V)
        pivot = np.full((k, V), width - 1)  # each new row's column; the last for none
        hit_at = np.full((k, V), -1)  # the last slot that hit each row
        # the block is updated a few slots at a time, so that the update's
        # temporaries stay within _STEP_VALUES
        step = max(1, _STEP_VALUES // block[0].size)
        spans = [slice(lo, lo + step) for lo in range(0, k, step)]
        for j in range(k):
            residual = block[j]  # reduced by every new row before it
            nonzero = residual[:, :width] != 0
            nonzero[:, -1] = True
            q = nonzero.argmax(axis=1)  # the smallest residual coordinate
            gains = (q < width - 1).nonzero()[0]
            if not gains.size:
                continue
            pivot[j] = q
            inv = np.zeros(V, dtype=np.int64)
            inv[gains] = inv_mod_many(residual[gains, q[gains]].tolist())
            new = residual * inv[:, None] % P  # 1 at its pivot, 0 without a gain
            # a hit row, one with an entry at its owner's new pivot, takes
            # that entry's multiple of the new row; the hit entry itself
            # cancels against the pivot 1
            a = block[:, everyone, q]
            a[j] = 0
            hit = a != 0
            if np.count_nonzero(hit):
                hit_at[hit] = j
                for span in spans:
                    part = block[span]
                    part += (P - a[span])[:, :, None] * new  # below 2**62 + 2**31
                    _reduce(part)
            # the waiting rows join held when first hit; a row has one entry
            # per column, so each is hit through at most one
            first = wait_of[wait_at == q[wait_owner]] if wait_of.size else wait_of
            if first.size:
                place = np.full(cand_rows.size, -1)
                place[first] = np.arange(first.size)
                place = place[wait_of]
                mine = place >= 0
                rows = np.zeros((first.size, width), dtype=np.int64)
                rows[place[mine], wait_at[mine]] = wait_value[mine]
                wait = ~mine
                wait_of, wait_at, wait_value, wait_owner = (
                    wait_of[wait], wait_at[wait], wait_value[wait], wait_owner[wait])
                held = np.concatenate((held, rows))
                taken = np.concatenate((taken, first))
                holder = np.concatenate((holder, self.owner[cand_rows[first]]))
                held_at = np.concatenate((held_at, W + 1 + cand_rows[first]))
                held_index = np.arange(len(held))
            b = held[held_index, q[holder]]
            hits = b.nonzero()[0]
            if hits.size:
                last_hit[taken[hits]] = j
                owner, b = holder[hits], (P - b[hits])[:, None]
                rows = new[owner, :width]
                rows *= b
                rows += held[hits]
                _reduce(rows)
                held[hits] = rows
                if paid:  # a held row's payload stays in place
                    at_rows = held_at[hits]
                    rows = new[owner, width:]
                    rows *= b
                    rows += self.payloads[at_rows]
                    _reduce(rows)
                    self.payloads[at_rows] = rows
            new[everyone, q] = 0  # a row holds no entry at its pivot
            block[j] = new
        # the held rows leave the entries and come back below, in row id order
        joined = np.zeros(cand_rows.size, dtype=bool)
        joined[taken] = True
        keep = np.ones(len(row), dtype=bool)
        keep[cand[joined[of]]] = False
        self.entries = self.entries[:, keep]
        order = taken.argsort()
        taken = taken[order]
        held, old, held_hit_at = held[order], cand_rows[taken], last_hit[taken]
        holder = self.owner[old]
        # the new rows, slot after slot and user after user, as their ids go
        made = pivot < width - 1
        slot, user = made.nonzero()
        ids = self.rows + np.arange(slot.size)
        self.rows += slot.size
        coordinate = cols[pivot[slot, user]]
        self.owner[ids] = user
        self.pivot[ids] = coordinate
        self.covered[user, coordinate] = True
        ranks = self.rank + made.cumsum(axis=0)
        self.rank = ranks[-1]
        out = [(tuple(r), []) for r in ranks.tolist()]

        # every row of the window: the held rows, then the new ones
        rows = np.concatenate((held[:, :-1], block[slot, user, :width - 1]))
        ids = np.concatenate((old, ids))
        user = np.concatenate((holder, user))
        empty = ~rows.any(axis=1)
        if np.count_nonzero(empty):
            # a held row emptied here keeps the entries it has beyond the window
            beyond = np.zeros(self.rows, dtype=bool)
            beyond[self.entries[0]] = True
            empty[:old.size] &= ~beyond[old]
            # each unit's slot: the last that hit its row, or the one that made it
            when = np.concatenate((held_hit_at, np.maximum(hit_at[made], slot)))
            empty = empty.nonzero()[0]
            empty = empty[when[empty].argsort(kind="stable")]
            what = np.concatenate((self.pivot[old], coordinate))
            for j, u, w in zip(when[empty].tolist(), user[empty].tolist(), what[empty].tolist()):
                out[j][1].append(w)
                self.units[u].append(w)
        i, c = rows.nonzero()
        self.entries = np.concatenate(
            (self.entries, np.array((ids[i], user[i] << shift | cols[c], rows[i, c]))), axis=1
        )
        if paid:
            self.payloads[W + 1 + ids[old.size:]] = block[made, width:]
            self.source[user[old.size:], coordinate] = ids[old.size:] + W + 1
        return out


_P = np.uint64(P)
# the values that the temporaries of one step of `formed` or of a slot's
# block update may take (4 MB): smaller steps would cost more calls than
# they save memory
_STEP_VALUES = 1 << 19


def _reduce(x: np.ndarray):
    """x mod P in place, for int64 x in [0, 2**63): a division by a
    constant unsigned integer is quicker in numpy than %."""
    q = x.view(np.uint64) // _P
    q *= _P
    x -= q.view(np.int64)

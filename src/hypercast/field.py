"""Exact linear algebra over the prime field GF(2**31 - 1).

All vectors and matrices hold plain integers in [0, P).  Dense arithmetic
uses int64 numpy arrays; a single product of two reduced values stays
below 2**62, so every elementary step fits in int64 before the modular
reduce, and the slot loop lets three such updates pile up in unsigned
64-bit words before one; matrix products (combine_mod) go through exact
float64 BLAS products on limbs of the coefficients, as wide as the inner
dimension allows.  UserBases keeps every user's sparse basis rows in flat int64
arrays, and takes in a piece of broadcasts, of one sender or several,
with one grouped sum and one small dense elimination per slot for every
class of users whose residuals agree, payloads and checks included; the
rows from before the piece then take its new rows in one exact product
per class, and a row that the piece empties is a unit at the last slot
whose pivot it still holds an entry at, or else at the slot that made it.
"""
from __future__ import annotations

import bisect
import functools
import math

import numpy as np

P = 2_147_483_647  # prime 2**31 - 1

__all__ = [
    "P",
    "inv_mod",
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


def combine_mod(coefficients: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """coefficients @ columns mod P, for ints in [0, P), coefficients of
    any shape (..., n) and at most 2**21 rows of `columns` (n x m).

    One float64 (BLAS) product per b-bit limb of the coefficients, top
    limb first, with b = 22 - bit_length(max(n - 1, 1)): a limb times a
    value below 2**31 stays below 2**(b + 31), so a sum of n of them
    stays below 2**53 and is exact (Dumas, Giorgi & Pernet, 2008).  That
    is 2 limbs up to n = 64 and 3 up to n = 2048.  Besides the result,
    it takes a copy of `columns`, one limb and two results' worth of
    temporaries.
    """
    lead, n = coefficients.shape[:-1], coefficients.shape[-1]
    b = 22 - max(n - 1, 1).bit_length()
    coefficients = coefficients.reshape(math.prod(lead), n)
    columns = columns.astype(np.float64)
    out = np.zeros((len(coefficients), columns.shape[1]), dtype=np.int64)
    for shift in range((30 // b) * b, -1, -b):  # from the limb that holds bit 30 down
        limb = (coefficients >> shift & ((1 << b) - 1)).astype(np.float64)
        out <<= b
        out += (limb @ columns).astype(np.int64)
        _reduce(out)
    return out.reshape(*lead, columns.shape[1])


class Refused(Exception):
    """Slot `slot` of a delivery, counted from its first, cannot be sent:
    its coefficients leave the sender's span or, with `payload`, its
    payload differs from the store's combination."""

    def __init__(self, slot: int, payload: bool):
        super().__init__(slot, payload)
        self.slot, self.payload = slot, payload


class UserBases:
    """Every user's fully reduced basis over GF(P), held together so that
    `deliver` takes a sequence of broadcasts into all of them.

    User u spans the unit vectors of its stored coordinates and its basis
    rows.  A row is 1 at its pivot and 0 at its owner's stored
    coordinates and other pivots; its remaining entries sit in one flat
    (3, E) array of (row id, key, value) over all users, where the key
    packs the owner and the coordinate as owner << shift | coordinate.
    A row without entries is a unit: its owner has decoded the pivot.
    ``covered[u]`` marks u's stored coordinates and pivots, which count
    its rank, and ``units[u]`` lists u's unit pivots in the order they
    appeared.

    With ``columns`` (W x L, one payload per coordinate) each row also
    carries a payload, the image of its vector, and ``source[u, w]``
    indexes the payload that u uses for coordinate w: the stored column,
    the pivot's row, or a zero row.

    A `deliver` that raises Refused has taken in the pieces before the
    refused slot's and writes nothing of that one.
    """

    __slots__ = ("covered", "units", "shift", "pivot", "rows", "entries", "payloads", "source")

    def __init__(self, stored: np.ndarray, columns: np.ndarray | None = None):
        V, W = stored.shape
        self.covered = stored.copy()
        self.units: list[list[int]] = [[] for _ in range(V)]
        self.shift = max(W - 1, 0).bit_length()
        # the ranks can grow by V * W - sum(rank) in all, one row each
        capacity = V * W - int(stored.sum())
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

    def formed(self, vectors: np.ndarray) -> np.ndarray:
        """The payload that each user forms for each row of `vectors`
        (k x W ints in [0, P)) from its sources, as a k x V x L array: the
        vector's payload for each user that spans it.  The sources are
        gathered and combined a chunk of users at a time, each taking at
        most what the pending block of the vectors over their support
        takes, or _STEP_VALUES if that is more."""
        cols = vectors.any(axis=0).nonzero()[0]
        V, k, L = len(self.covered), len(vectors), self.payloads.shape[1]
        coefficients = vectors[:, cols]
        out = np.empty((k, V, L), dtype=np.int64)
        # a user takes its sources and its k x L payloads, and in combine_mod
        # at most a copy of its sources and two k x L temporaries
        chunk = max(k * V * (cols.size + L), _STEP_VALUES)
        step = max(1, chunk // ((2 * cols.size + 3 * k) * L))
        for i in range(0, V, step):
            sources = self.payloads[self.source[i:i + step, cols].T]  # column x user x L
            part = sources.shape[1]
            sources = sources.reshape(cols.size, part * L)
            out[:, i:i + step] = combine_mod(coefficients, sources).reshape(k, part, L)
        return out

    @property
    def shared(self) -> int:
        """The most slots that runs of several senders take as one piece:
        users by slots by every column and payload value fit RUN_ALLOWANCE."""
        V, W = self.covered.shape
        L = 0 if self.payloads is None else self.payloads.shape[1]
        return RUN_ALLOWANCE // max(V * (W + L), 1)

    def deliver(self, senders: list[int], vectors: np.ndarray, images: np.ndarray | None = None):
        """Deliver the broadcasts `vectors` (k x W ints in [0, P)) that
        users `senders` (one per slot) send one after another, whose
        payloads must equal `images` (k x L) in payload mode.

        The slots go in as pieces: consecutive sender runs share one while
        it holds at most `shared` slots, else a piece is one sender's run,
        cut where its pending block, users by slots by its columns plus L,
        would outgrow the budget: the larger of RUN_ALLOWANCE values and
        what the bases hold (their entries and, with payloads, the W + 1
        store and zero rows and every row's L values) plus one residual of
        V x W coefficients and V x L payload values.

        One grouped sum gives every user's residual of every slot over the
        piece's columns (the broadcasts' support and the entries of the
        rows pivoted there), against its basis at the start of the piece.
        In payload mode each residual carries L payload values as columns
        after the coefficients, the image less what the user forms, so one
        rank-1 step per slot updates both.  `_eliminate` then takes the
        residuals in, once for each class of users whose residuals agree
        bit for bit, and checks each sender: the first slot where the
        sender's residual is not zero raises Refused, with `payload` if its
        coefficients are zero, and its piece is not delivered.

        Returns, per slot, every user's rank after it and the coordinates
        of the units it made, one per user that decoded each.  A user's
        units in one slot are its rows that lost their last entry, in the
        order they were made, then its new row if that is one-hot; each
        ``units`` list grows in that order.
        """
        V, W = self.covered.shape
        shift, L = self.shift, 0 if self.payloads is None else self.payloads.shape[1]
        # where each run ends, and how many slots runs of several senders share
        ends = [j for j in range(1, len(senders)) if senders[j] != senders[j - 1]] + [len(senders)]
        shared = self.shared
        out = []
        while len(out) < len(vectors):
            start = len(out)
            row, key, value = self.entries
            coord = key & ((1 << shift) - 1)
            # what the bases hold, the store and each row's payload included, and
            # one residual, or RUN_ALLOWANCE if that is more
            budget = max(self.entries.size + (W + 1 + self.rows) * L + V * (W + L), RUN_ALLOWANCE)
            # the runs from `start` on, and those of them that share a piece
            first, last = bisect.bisect(ends, start), bisect.bisect(ends, start + shared)
            stop = ends[last - 1] if last > first else min(ends[first], start + max(1, budget // V + W))
            piece = vectors[start:stop]
            while True:
                cols = piece.any(axis=0)
                terms = cols[self.pivot[row]]  # the rows pivoted on the support
                cols[coord[terms]] = True  # and their entries' columns
                cols = cols.nonzero()[0]
                if len(piece) * V * (cols.size + L) <= budget or len(piece) == 1:
                    break
                # a prefix short enough even over every column of this one
                piece = piece[:max(1, budget // (V * (cols.size + L)))]
            k, width = len(piece), cols.size + 1
            col_at = np.full(W, width - 1)  # the last column, always zero, stands for the rest
            col_at[cols] = np.arange(cols.size)
            at = col_at[coord]  # each entry's column in the block
            terms = terms.nonzero()[0]
            # no entry sits at a pivot, so row r's multiple is the slot's
            # coefficient at r's pivot; each user's sum has fewer than W terms
            # below P, exact in float64.  The products go in groups of slots
            # that the coefficient part of the budget holds: the entries and
            # one V x W residual, or RUN_ALLOWANCE if that is more.
            where = (key[terms] >> shift) * (k * width) + at[terms]
            step = max(1, max(self.entries.size + V * W, RUN_ALLOWANCE) // max(terms.size, 1))
            spent = functools.reduce(np.add, (
                np.bincount(
                    (np.arange(j, min(j + step, k))[:, None] * width + where).ravel(),
                    (piece[j:j + step, self.pivot[row[terms]]] * value[terms] % P).ravel(),
                    V * k * width,
                )
                for j in range(0, k, step)
            )).reshape(V, k, width)
            spent[:, :, :-1] -= piece[:, cols]
            spent.swapaxes(0, 1)[:, :, :-1][:, self.covered[:, cols]] = 0
            np.negative(spent, out=spent)
            if images is not None:  # formed before the block exists, to keep the peak low
                formed = self.formed(piece)
            # user by user, each residual's coefficients, then its L payload values
            block = np.empty((V, k, width + L), dtype=np.int64)
            block[:, :, :width] = spent
            del spent
            block[:, :, :width] %= P
            if images is not None:  # what each user has left of the store's images
                np.subtract(images[start:start + k] + P, formed.swapaxes(0, 1), out=block[:, :, width:])
                del formed
                _reduce(block[:, :, width:])
            # users whose residuals agree bit for bit take the same steps, so
            # each class of them goes in once
            cls, first = _classes(block)
            block = block.swapaxes(0, 1).take(first, axis=1)
            try:
                out += self._eliminate(cols, at, block, cls, senders[start:start + k])
            except Refused as refusal:
                raise Refused(start + refusal.slot, refusal.payload) from None
        return out

    def _eliminate(self, cols, at, block, cls, senders):
        """Take in a piece's residuals slot by slot, once per class of users
        whose residuals agree: `block` (k x C x (width + L)) holds class c's
        residual of slot j over `cols` against its users' bases at the
        start of the piece, then one zero column (width in all), then in
        payload mode the residual's L payload values; ``cls[u]`` is user
        u's class, `at` gives each entry's column in the block (the zero
        one for columns beyond) and ``senders[j]`` slot j's sender.

        `_slots` takes the residuals in, checks the senders and makes each
        class's new rows; Refused names the first refused slot, counted from
        the piece's first, and the bases are left as they were.

        The rows held from before the piece never feed a residual, so they
        take the class's final new rows once, after the last slot: a row with
        entries r at its owner's class's pivots takes r times those rows, in
        one exact product per class, which leaves m_j = r_j - sum_{i<j} r_i
        a_j[i] at slot j's pivot p_j, its entry there when slot j came.  A row
        emptied in the piece, held or new, is a unit at the last slot j whose
        p_j it holds m_j or a_j[i] at, or at the slot that made it if later;
        the pivots' entries then go and each user takes its class's rows.
        """
        W = self.covered.shape[1]
        shift = self.shift
        k, C, width = *block.shape[:2], cols.size + 1
        paid = self.payloads is not None
        pivot = _slots(block, width, cls, senders)
        made = pivot < width - 1
        slot_at = np.full((C, width), -1)  # the slot of each class's new row pivoted there
        slot_at[made.nonzero()[1], pivot[made]] = made.nonzero()[0]

        def unit_slot(rows, slots, made_at=-1):  # the slot where each row, if empty, is a unit
            return np.maximum(np.where(rows != 0, slots, -1).max(axis=-1), made_at)
        # the held rows: those with an entry at a pivot of their owner's class,
        # class after class and in ascending row id, leave the entries; a
        # row's last column marks the entries it keeps beyond the piece's columns
        row, key, value = self.entries
        owner = key >> shift
        place = np.full(self.rows, -1)
        pick = slot_at[cls[owner], at] >= 0
        place[row[pick]] = cls[owner[pick]]
        old = (place >= 0).nonzero()[0]
        old = old[place[old].argsort(kind="stable")]
        place[old] = np.arange(old.size)
        mine = place[row] >= 0
        of = place[row[mine]]
        holder = np.empty(old.size, dtype=np.int64)
        holder[of] = owner[mine]
        held = np.zeros((old.size, width), dtype=np.int64)
        held[of, at[mine]] = value[mine]
        self.entries = self.entries[:, ~mine | (at == width - 1)]
        when = np.empty(old.size, dtype=np.int64)  # each held row's unit slot
        counts = np.bincount(cls[holder], minlength=C)
        ends = counts.cumsum().tolist()
        for c in counts.nonzero()[0].tolist():
            pivots = (slot_at[c] >= 0).nonzero()[0]
            # new row i holds a_j[i] at p_j for i < j and 0 for the others
            new = block[slot_at[c, pivots], c]
            # a chunk's rows, product and payloads and combine_mod's two
            # temporaries take about five times its rows by width + L values
            step = max(1, _STEP_VALUES // (5 * new.shape[1]))
            for lo in range(ends[c] - counts[c], ends[c], step):
                part = slice(lo, min(lo + step, ends[c]))
                rows = held[part]
                product = combine_mod(rows[:, pivots], new)
                rows += P
                rows -= product[:, :width]
                _reduce(rows)
                when[part] = unit_slot(rows, slot_at[c])
                rows[:, pivots] = 0  # cancelled against the pivots' 1
                if paid:  # a held row's payload stays in place, at W + 1 + its id
                    at_rows = W + 1 + old[part]
                    rows = self.payloads[at_rows] + P
                    rows -= product[:, width:]
                    _reduce(rows)
                    self.payloads[at_rows] = rows
        # the new rows, slot after slot and user after user, as their ids go;
        # each user's are its class's, without the entries a_j[i] at other
        # pivots once they give its unit slot
        new_when = unit_slot(block[:, :, :width], slot_at, np.arange(k)[:, None])
        block[:, :, :width][:, slot_at >= 0] = 0
        pivot, new_when, made = pivot[:, cls], new_when[:, cls], made[:, cls]
        slot, user = made.nonzero()
        new = block[slot, cls[user]]
        ids = self.rows + np.arange(slot.size)
        self.rows += slot.size
        coordinate = cols[pivot[slot, user]]
        self.pivot[ids] = coordinate
        ranks = self.covered.sum(axis=1) + made.cumsum(axis=0)
        self.covered[user, coordinate] = True
        out = [(tuple(r), []) for r in ranks.tolist()]
        if paid:
            self.payloads[W + 1 + ids] = new[:, width:]
            self.source[user, coordinate] = W + 1 + ids

        # every row of the window: the held rows, then the new ones
        rows = np.concatenate((held, new[:, :width]))
        ids = np.concatenate((old, ids))
        user = np.concatenate((holder, user))
        when = np.concatenate((when, new_when[made]))
        empty = ~rows.any(axis=1)
        if np.count_nonzero(empty):
            empty = empty.nonzero()[0]
            empty = empty[when[empty].argsort(kind="stable")]
            what = np.concatenate((self.pivot[old], coordinate))
            for j, u, w in zip(when[empty].tolist(), user[empty].tolist(), what[empty].tolist()):
                out[j][1].append(w)
                self.units[u].append(w)
        i, c = rows[:, :-1].nonzero()
        self.entries = np.concatenate(
            (self.entries, np.array((ids[i], user[i] << shift | cols[c], rows[i, c]))), axis=1
        )
        return out


_P = np.uint64(P)
# the values that the temporaries of one step of `formed` or of a slot's
# block update may take (4 MB): smaller steps would cost more calls than
# they save memory
_STEP_VALUES = 1 << 19
# the values that a piece's pending block may take (128 KB) whatever the
# bases hold: a piece costs some hundred numpy calls however small it is,
# so a run below it is not cut, and several runs below it share a piece;
# from 2**16 on, a run over the whole file at V = 65, W = 128 would peak
# beyond four V x W residuals (test_sim)
RUN_ALLOWANCE = 1 << 14


def _classes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each user's class and each class's first user, for `block` holding
    user u's residuals at block[u]: users whose residuals agree bit for bit
    share a class.  One sort of the users' residuals as opaque rows, then
    a comparison of sorted neighbours a few users at a time: the copy each
    step gathers stays within RUN_ALLOWANCE values, or one user's, so the
    heap holds no second block beside the first."""
    V = len(block)
    rows = block.reshape(V, -1).view(np.dtype((np.void, block[0].nbytes))).ravel()
    order = rows.argsort(kind="stable")
    starts = np.ones(V, dtype=bool)
    step = max(1, RUN_ALLOWANCE // block[0].size)
    for lo in range(1, V, step):
        pair = rows[order[lo - 1:lo + step]]
        starts[lo:lo + step] = pair[1:] != pair[:-1]
    cls = np.empty(V, dtype=np.int64)
    cls[order] = starts.cumsum() - 1
    return cls, order[starts]


def _slots(block: np.ndarray, width: int, cls: np.ndarray, senders) -> np.ndarray:
    """The slot loop of `UserBases._eliminate`, in place on `block` (k x C
    x (width + L) ints in [0, P)): returns each slot's new row's column for
    each class, width - 1 for none.

    At the first slot of each sender's run, the sender's class must have no
    residual left in the run: Refused names the first slot where it has.
    At each slot a class's residual, by then reduced by every new row before
    it, becomes each of its users' new row if it is nonzero, pivoted at its
    smallest coordinate, and is substituted into the class's other rows with
    an entry there.  A later residual's entry cancels against the pivot's 1;
    an earlier new row i keeps its entry a_j[i], the multiple of slot j's
    new row that it took.

    The updates add into the block's unsigned words: a product of a value
    below P and P - a, at most P, stays below 2**62, and three of them and
    a residue stay below 2**64, so the block is reduced after every third
    update and after the last, and a slot reduces what it reads first.
    Flat indices into each slot's C x (width + L) values reach every
    class's entry at its new pivot.
    """
    k, C = block.shape[:2]
    pivot = np.full((k, C), width - 1)
    values = block.view(np.uint64)
    flat = values.reshape(k, -1)
    base = np.arange(C) * block.shape[2]
    # the block is updated a few slots at a time, so that the update's
    # scratch stays within _STEP_VALUES
    step = max(1, _STEP_VALUES // block[0].size)
    spans = [slice(lo, lo + step) for lo in range(0, k, step)]
    scratch, pending = None, 0  # pending: the updates since the last reduction

    def settle():
        for span in spans:
            part = values[span]
            _reduce(part, scratch[:len(part)])
    # each run's first slot, with the run's end and its sender's class
    firsts = [j for j in range(k) if not j or senders[j] != senders[j - 1]]
    runs = {j: (end, cls[senders[j]]) for j, end in zip(firsts, firsts[1:] + [k])}
    for j in range(k):
        if j in runs:
            # the sender gains no row in its run, so its residuals, zero
            # iff it spans each slot and forms its image, are checked at once
            end, c = runs[j]
            sent = values[j:end, c]
            if pending:
                _reduce(sent)
            if sent.any():
                i = int(sent.any(axis=1).argmax())
                raise Refused(j + i, not sent[i, :width].any())
        residual = values[j]  # reduced by every new row before it
        if pending:
            _reduce(residual)
        nonzero = residual[:, :width] != 0
        nonzero[:, -1] = True
        q = nonzero.argmax(axis=1)  # the smallest residual coordinate
        pivot[j] = q
        q += base
        lead = residual.take(q).tolist()  # each class's pivot value, 0 without a gain
        if not any(lead):
            continue
        inv = np.array([pow(x, -1, P) if x else 0 for x in lead], dtype=np.uint64)
        new = residual * inv[:, None] % _P  # 1 at its pivot, 0 without a gain
        new.put(q, 0)  # a row holds no entry at its pivot
        # a hit row, one with an entry at its class's new pivot, takes
        # that entry's multiple of the new row
        a = flat.take(q, axis=1)
        a[j] = 0
        if pending:
            _reduce(a)
        if a.any():
            if scratch is None:
                scratch = np.empty((min(step, k), *block.shape[1:]), dtype=np.uint64)
            np.subtract(_P, a, out=a)
            for span in spans:
                part = values[span]
                product = scratch[:len(part)]
                np.multiply(a[span, :, None], new, out=product)
                part += product
            flat[j + 1:, q] = 0  # the later residuals' entries cancel
            pending += 1
        values[j] = new
        if pending == 3:
            settle()
            pending = 0
    if pending:
        settle()
    return pivot


def _reduce(x: np.ndarray, scratch: np.ndarray | None = None):
    """x mod P in place, for int64 x in [0, 2**63) or any uint64 x: a
    division by a constant unsigned integer is quicker in numpy than %.
    The quotients go in `scratch`, a uint64 array of x's shape, if given."""
    x = x.view(np.uint64)
    q = np.floor_divide(x, _P, out=scratch)
    q *= _P
    x -= q

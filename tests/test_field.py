"""Exact field arithmetic tests.

Rank results are cross-checked against an independent oracle: Gaussian
elimination over the rationals with fractions.Fraction on the same
integer matrix.  Rational rank can only exceed the mod-P rank when P
divides a pivot minor, which the seeded cases here never hit.  The
vectorized rank_mod is also compared with the row-by-row elimination it
replaced, and the dict basis that serves the simulator tests as an
oracle (basis_oracle.ColumnBasis) is checked against rank_mod.  The
slot loop of UserBases, which lets updates pile up in unsigned 64-bit
words, is compared with the loop it replaced, which reduced the whole
block after every slot.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from basis_oracle import ColumnBasis
from hypercast import (
    P,
    StorageTopology,
    inv_mod,
    nonsingular_mod,
    rank_mod,
)
from hypercast import field
from hypercast.field import combine_mod
from hypercast.sim import SegmentStore, materialize_payloads


def rank_over_rationals(matrix) -> int:
    """Textbook fraction-based elimination, written without numpy."""
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_by_row_loop(matrix) -> int:
    """Reference rank over GF(P): the row-by-row elimination that
    rank_mod replaced."""
    m = np.array(matrix, dtype=np.int64)
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


def slots_by_full_reduction(block, width, cls, senders):
    """Reference slot loop: the one `field._slots` replaced, which reduced
    every span of the int64 block after each slot's update and gathered
    each class's entries at its new pivot by fancy indexing."""
    k, C = block.shape[:2]
    everyone = np.arange(C)
    pivot = np.full((k, C), width - 1)
    step = max(1, field._STEP_VALUES // block[0].size)
    spans = [slice(lo, lo + step) for lo in range(0, k, step)]
    firsts = [j for j in range(k) if not j or senders[j] != senders[j - 1]]
    runs = {j: (end, cls[senders[j]]) for j, end in zip(firsts, firsts[1:] + [k])}
    for j in range(k):
        if j in runs:
            end, c = runs[j]
            if block[j:end, c].any():
                i = j + int(block[j:end, c].any(axis=1).argmax())
                raise field.Refused(i, not block[i, c, :width].any())
        residual = block[j]
        nonzero = residual[:, :width] != 0
        nonzero[:, -1] = True
        q = nonzero.argmax(axis=1)
        gains = (q < width - 1).nonzero()[0]
        if not gains.size:
            continue
        pivot[j] = q
        inv = np.zeros(C, dtype=np.int64)
        inv[gains] = [pow(x, -1, P) for x in residual[gains, q[gains]].tolist()]
        new = residual * inv[:, None] % P
        new[everyone, q] = 0
        a = block[:, everyone, q]
        a[j] = 0
        if a.any():
            for span in spans:
                part = block[span]
                part += (P - a[span])[:, :, None] * new
                field._reduce(part)
            block[j + 1:, everyone, q] = 0
        block[j] = new
    return pivot


def test_prime_constant():
    assert P == 2**31 - 1
    # P is prime: a few Fermat witnesses
    for a in (2, 3, 5, 7, 61):
        assert pow(a, P - 1, P) == 1


def test_inverse_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randrange(1, P)
        assert (a * inv_mod(a)) % P == 1
    assert inv_mod(1) == 1
    assert inv_mod(P - 1) == P - 1
    assert inv_mod(P + 2) == inv_mod(2)
    with pytest.raises(ZeroDivisionError):
        inv_mod(0)
    with pytest.raises(ZeroDivisionError):
        inv_mod(P)


def test_combine_columns_hand_values():
    """SegmentStore.combine sums coefficient multiples of store columns."""
    topo = StorageTopology(3, {1: {1, 2, 3}, 2: {1}})
    store = SegmentStore(topo, np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1], [0, 0, 0]]))
    assert store.combine(np.array([2, 3, 0])).tolist() == [2, 3, 0, 0]
    # coefficient P-1 acts as -1
    assert store.combine(np.array([P - 1, 1, 0])).tolist() == [P - 1, 1, 0, 0]
    assert store.combine(np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("dtype", [np.float64, bool, object])
def test_store_refuses_a_matrix_that_does_not_hold_integers(dtype):
    """A float matrix is refused, not truncated for the rank check and then
    left to fail in combine, and so are bool and object ones."""
    topo = StorageTopology(3, {1: {1, 2, 3}, 2: {1}})
    matrix = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1], [0, 0, 0]]).astype(dtype)
    with pytest.raises(ValueError, match="payload matrix must hold integers"):
        SegmentStore(topo, matrix)


def test_combine_sparse_matches_dense():
    rng = random.Random(7)
    store = materialize_payloads(StorageTopology(4, {1: {1, 2}, 2: {3, 4}}), seed=7)
    for _ in range(20):
        coeffs = {w: rng.randrange(1, P) for w in range(1, 5) if rng.random() < 0.6}
        dense = [coeffs.get(w, 0) for w in range(1, 5)]
        expect = [
            sum(int(x) * c for x, c in zip(row, dense)) % P for row in store.matrix.tolist()
        ]
        assert store.combine(np.array(dense, dtype=np.int64)).tolist() == expect


@pytest.mark.parametrize("n", [1, 2, 64, 65, 2048, 2049])
def test_combine_mod_is_exact_at_its_bound(n):
    """n terms of (P - 1) * (P - 1), the largest sums that one limb width
    takes, and of (P - 1) * (P - 2), odd limb products in which a rounded
    float64 sum would show, match the Python-int product in 1-D, 2-D and
    stacked shapes, with zero rows and columns, on each side of the inner
    dimensions where the limbs narrow: 2 limbs up to 64 terms, 3 up to
    2048, then 4."""
    rng = np.random.default_rng(5)
    columns = np.full((n, 4), P - 1, dtype=np.int64)
    columns[:, 1] = rng.integers(0, P, n)
    columns[:, 2] = 0
    columns[:, 3] = P - 2
    for lead in ((), (4,), (2, 3), (0,), (2, 0)):
        coefficients = np.full((*lead, n), P - 1, dtype=np.int64)
        if coefficients.size:
            coefficients.reshape(-1, n)[-1] = rng.integers(0, P, n)
        for c, m in ((coefficients, columns), (coefficients, columns[:, :0]),
                     (coefficients[..., :0], columns[:0])):
            expected = np.array(c.astype(object) @ m.astype(object) % P if c.shape[-1]
                                else np.zeros((*lead, m.shape[1]), dtype=object))
            out = combine_mod(c, m)
            assert out.dtype == np.int64 and out.shape == (*lead, m.shape[1])
            assert out.tolist() == expected.tolist()
    assert combine_mod(np.full(n, P - 1), columns[:, :1]).tolist() == [n * (P - 1) ** 2 % P]


@settings(max_examples=100, deadline=None)
@given(picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
       shape=st.tuples(st.integers(1, 3), st.integers(2, 4)), step=st.sampled_from([1, 2, 3, 1 << 19]))
def test_classes_join_exactly_the_equal_residuals(picks, shape, step):
    """User u's residual is one of four that differ in the first value, the
    last value or both; users share a class iff their residuals agree, and
    each class's first user is its smallest, however many users each
    comparison takes."""
    rng = np.random.default_rng(len(picks))
    base = rng.integers(0, P, shape)
    residuals = np.stack([base, base.copy(), base.copy(), base.copy()])
    residuals[1].flat[-1] += 1
    residuals[2].flat[0] += 1
    residuals[3].flat[[0, -1]] += 1
    block = residuals[picks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "RUN_ALLOWANCE", step * block[0].size)
        cls, first = field._classes(block)
    assert len(first) == len(set(picks))
    for u, p in enumerate(picks):
        assert first[cls[u]] == picks.index(p)
        assert [cls[v] == cls[u] for v in range(len(picks))] == [q == p for q in picks]


def slot_piece(seed, k, C, width, L, runs, density):
    """A piece for the slot loop: k slots of residuals for C classes over
    width - 1 columns, the zero column and L payload values, drawn as many
    zeros and values near P - 1 and 1.  The senders come in `runs` runs of
    users of one class each, whose class has no residual left in its run
    unless a run refuses at its first slot, in its coefficients or only
    in its payload."""
    rng = np.random.default_rng(seed)
    pool = np.array([1, 2, P - 1, P - 2, P - 3])
    block = np.where(rng.random((k, C, width + L)) < density,
                     np.where(rng.random((k, C, width + L)) < 0.7, pool[rng.integers(0, 5, (k, C, width + L))],
                              rng.integers(0, P, (k, C, width + L))), 0)
    block[:, :, width - 1] = 0
    cls = np.concatenate((np.arange(C), rng.integers(0, C, C)))  # users 0..2C-1
    cuts = sorted(set(rng.integers(1, k, runs - 1).tolist())) if k > 1 and runs > 1 else []
    senders = []
    for lo, end in zip([0] + cuts, cuts + [k]):
        user = int(rng.integers(0, 2 * C))
        senders += [user] * (end - lo)
        block[lo:end, cls[user]] = 0
        refusal = rng.random()
        if refusal < 0.1:
            block[lo, cls[user], rng.integers(0, width)] = P - 1
            block[lo, cls[user], width - 1] = 0
        elif refusal < 0.2 and L:
            block[lo, cls[user], width + rng.integers(0, L)] = 1
    return block, cls, senders


def outcome(slots, block, width, cls, senders):
    """The block and pivots that a slot loop leaves, or its refusal."""
    try:
        pivot = slots(block, width, cls, senders)
    except field.Refused as refusal:
        return ("refused", refusal.slot, refusal.payload)
    return block.tolist(), pivot.tolist()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), C=st.integers(1, 8),
       width=st.integers(1, 40), L=st.integers(0, 5), runs=st.integers(1, 4),
       density=st.sampled_from([0.05, 0.3, 0.9]), span_rows=st.sampled_from([1, 2, 3, 5, None]))
@example(seed=0, k=6, C=3, width=1, L=0, runs=1, density=0.9, span_rows=None)
@example(seed=1, k=9, C=4, width=1, L=3, runs=3, density=0.9, span_rows=1)
def test_property_slot_loop_matches_full_reduction(seed, k, C, width, L, runs, density, span_rows):
    """`field._slots`, whose updates pile up in unsigned words, leaves the
    same block and pivots as the loop that reduced after every slot, or
    refuses the same slot for the same reason, also when a piece takes
    several spans of slots and when it has no columns at all (width 1)."""
    block, cls, senders = slot_piece(seed, k, C, width, L, runs, density)
    with pytest.MonkeyPatch.context() as mp:
        if span_rows:
            mp.setattr(field, "_STEP_VALUES", span_rows * C * (width + L))
        expected = outcome(slots_by_full_reduction, block.copy(), width, cls, senders)
        assert outcome(field._slots, block.copy(), width, cls, senders) == expected


def test_slot_loop_holds_updates_at_their_largest():
    """Slots whose new rows hold P - 1 beside their pivot's 1, into rows
    whose entries at those pivots are 0 (so each takes P times the new
    row) or 1: every entry takes the largest products there are, and the
    loop still leaves what reducing after every slot does."""
    k, width = 24, 26
    block = np.zeros((k, 2, width), dtype=np.int64)
    for j in range(k):
        block[j, 1, j] = 1
        block[j, 1, k:width - 1] = P - 1
        block[j, 1, j + 1:k] = (j + np.arange(j + 1, k)) % 2
    senders, cls = [0] * k, np.array([0, 1])
    expected = outcome(slots_by_full_reduction, block.copy(), width, cls, senders)
    assert outcome(field._slots, block.copy(), width, cls, senders) == expected


def test_rank_known_constructions():
    assert rank_mod(np.eye(5, dtype=np.int64)) == 5
    assert rank_mod(np.zeros((3, 4), dtype=np.int64)) == 0
    # duplicated row collapses rank
    assert rank_mod([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    # wraparound duplicate: second row is first plus P in one entry
    assert rank_mod([[1, 1], [1, 1 + P]]) == 1
    assert rank_over_rationals([[1, 1], [1, 1 + P]]) == 2  # oracle differs by design here


def test_rank_random_products_match_rational_oracle():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        r = rng.randint(0, min(n, m))
        if r == 0:
            mat = np.zeros((n, m), dtype=np.int64)
        else:
            u = np.array([[rng.randrange(1000) for _ in range(r)] for _ in range(n)])
            v = np.array([[rng.randrange(1000) for _ in range(m)] for _ in range(r)])
            mat = u @ v  # entries < 1e9, exact in int64 and small enough for Fraction
        assert rank_mod(mat % P) == rank_over_rationals(mat)


@st.composite
def matrices_with_rank_at_most(draw):
    """Products of an n x r and an r x m matrix over GF(P), so rank <= r;
    duplicate, zero and wrapped (+P) entries come in through the factors."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    r = draw(st.integers(0, min(n, m)))
    entries = st.one_of(st.integers(0, 3), st.integers(0, P - 1), st.just(P))
    u = np.array(draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n)),
                 dtype=object).reshape(n, r)
    v = np.array(draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r)),
                 dtype=object).reshape(r, m)
    return r, (u.dot(v) % P).astype(np.int64) if r else np.zeros((n, m), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=matrices_with_rank_at_most())
def test_property_rank_mod_matches_row_loop(case):
    r, mat = case
    rank = rank_mod(mat)
    assert rank == rank_by_row_loop(mat)
    assert rank <= r
    # a combination of two rows, appended, leaves the rank as it is
    mixed = np.vstack([mat, (mat[:1] * 5 + mat[-1:]) % P])
    assert rank_mod(mixed) == rank_by_row_loop(mixed) == rank


def test_nonsingular_mod():
    assert nonsingular_mod([[1, 1], [1, 2]])
    assert not nonsingular_mod([[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        nonsingular_mod([[1, 2, 3]])


def sparse(values) -> dict[int, int]:
    """{index: value mod P} of the nonzero entries of a dense vector."""
    return {i: int(x) % P for i, x in enumerate(values) if int(x) % P}


def dense(vec: dict[int, int], dim: int) -> list[int]:
    return [vec.get(i, 0) for i in range(dim)]


def test_basis_insert_and_rank():
    basis = ColumnBasis()
    assert basis.rank == 0
    assert basis.insert(sparse([1, 1, 0]))
    assert basis.insert(sparse([0, 1, 1]))
    # dependent column: sum of the first two
    assert not basis.insert(sparse([1, 2, 1]))
    assert basis.rank == 2


def test_basis_membership_matches_rank_oracle():
    rng = random.Random(9)
    for _ in range(100):
        dim = rng.randint(1, 7)
        basis = ColumnBasis()
        raw = []
        for _tag in range(rng.randint(0, 7)):
            col = [rng.randrange(P) if rng.random() < 0.7 else 0 for _ in range(dim)]
            raw.append(col)
            basis.insert(sparse(col))
        if raw:
            assert basis.rank == rank_mod(np.array(raw).T)
        probe = [rng.randrange(P) for _ in range(dim)]
        if rng.random() < 0.5 and raw:
            # force a member of the span
            coeffs = [rng.randrange(P) for _ in raw]
            probe = [sum(c * col[i] for c, col in zip(coeffs, raw)) % P for i in range(dim)]
        in_span = basis.contains(sparse(probe))
        if raw:
            stacked = np.array(raw + [probe]).T
            assert in_span == (rank_mod(stacked) == basis.rank)
        else:
            assert in_span == (not any(probe))


def test_basis_rows_stay_fully_reduced():
    rng = random.Random(5)
    for _ in range(50):
        dim = rng.randint(1, 8)
        basis = ColumnBasis()
        for _ in range(rng.randint(1, 9)):
            basis.insert(sparse([rng.randrange(3) for _ in range(dim)]))
        for p, row in basis.rows.items():
            # entries off the pivot only, none zero, none at a pivot
            assert all(row.values()) and not any(q in row for q in basis.rows)


def test_reduce_clears_span_members():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(2, 6)
        raw = [[rng.randrange(P) for _ in range(dim)] for _ in range(dim - 1)]
        basis = ColumnBasis()
        for col in raw:
            basis.insert(sparse(col))
        coeffs = [rng.randrange(P) for _ in raw]
        target = [sum(c * col[i] for c, col in zip(coeffs, raw)) % P for i in range(dim)]
        residual, _ = basis.reduce(sparse(target))
        assert residual == {}
        # the payload of a span member reduces to zero alongside
        payloads = {tuple(col): np.array([sum(col) % P, col[0]]) for col in raw}
        basis = ColumnBasis()
        for col in raw:
            basis.insert(sparse(col), payloads[tuple(col)])
        image = np.zeros(2, dtype=np.int64)
        for c, col in zip(coeffs, raw):
            image = (image + c * payloads[tuple(col)]) % P
        residual, y = basis.reduce(sparse(target), image)
        assert residual == {} and not y.any()


def test_reduce_keeps_residual_outside_span():
    basis = ColumnBasis()
    basis.insert(sparse([1, 0, 0]))
    basis.insert(sparse([0, 1, 0]))
    assert basis.reduce(sparse([0, 0, 1]))[0] == {2: 1}
    assert basis.reduce(sparse([4, 5, 0]))[0] == {}
    assert basis.reduce(sparse([4, 5, 7]))[0] == {2: 7}
    assert not basis.contains(sparse([0, 0, 1]))


def test_unit_rows_track_one_hot_members():
    basis = ColumnBasis()
    basis.insert(sparse([1, 1, 0]))
    assert basis.units == []
    basis.insert(sparse([0, 1, 0]))
    # span now contains e0 and e1 but not e2
    assert sorted(basis.units) == [0, 1]
    for r in range(3):
        assert basis.contains(sparse(np.eye(3, dtype=np.int64)[r])) == (r in basis.units)
    basis.insert(sparse([3, 5, 7]))
    assert sorted(basis.units) == [0, 1, 2]

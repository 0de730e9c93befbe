"""Exact sparse linear algebra over cyclotomic scalars."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import Cyclotomic, Rational
from hopfore.errors import ShapeMismatch
from hopfore.groups import algebra_from_descriptor, custom_algebra
from hopfore.linalg import Matrix, sp_rref, sp_trace_restrict


def M(order, rows):
    return Matrix(order, rows)


def _transpose(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _free_column_kernel(order, reduced, pivots, ncols):
    # one kernel vector per free column, read off the reduced rows
    zero = Cyclotomic.zero(order)
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [zero] * ncols
        vec[f] = Cyclotomic.one(order)
        for row, p in zip(reduced, pivots):
            vec[p] = -row.get(f, zero)
        out.append(Matrix(order, [[v] for v in vec]))
    return out


def test_identity_and_scalar():
    i3 = Matrix.identity(4, 3)
    assert i3 @ i3 == i3
    s = Matrix.scalar(4, 2, 5)
    assert s[0, 0] == Cyclotomic.rational(4, 5)
    assert s[0, 1] == Cyclotomic.zero(4)


def test_mul_known():
    a = M(1, [[1, 2], [3, 4]])
    b = M(1, [[0, 1], [1, 0]])
    assert a @ b == M(1, [[2, 1], [4, 3]])
    assert a @ a == M(1, [[7, 10], [15, 22]])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        M(1, [[1, 2]]) + M(1, [[1], [2]])
    with pytest.raises(ShapeMismatch):
        M(1, [[1, 2]]) @ M(1, [[1, 2]])


def test_rank_and_kernel():
    a = M(1, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reduced, pivots = sp_rref(a.rows, a.ncols)
    one = Cyclotomic.one(1)
    assert pivots == [0, 1]
    assert reduced == [{0: one, 2: one}, {1: one, 2: one}]
    # the free column 2 gives the kernel vector (-1, -1, 1)
    kernel = _free_column_kernel(1, reduced, pivots, a.ncols)
    assert kernel == [M(1, [[-1], [-1], [1]])]
    assert not any((a @ kernel[0]).rows)


def test_tensor_product_shape_and_values():
    a = M(1, [[1, 2], [3, 4]])
    b = M(1, [[0, 1], [1, 0]])
    t = a.tensor_product(b)
    assert (t.nrows, t.ncols) == (4, 4)
    assert t[0, 1] == Cyclotomic.one(1)
    assert t[0, 0] == Cyclotomic.zero(1)
    # mixed-product rule
    c = M(1, [[1, 1], [0, 1]])
    d = M(1, [[2, 0], [1, 1]])
    assert (a @ c).tensor_product(b @ d) == a.tensor_product(b) @ c.tensor_product(d)


def test_equality_and_hash_are_canonical(alg3):
    a = M(3, [[1, 0, Cyclotomic.zeta(3)], [0, 0, 0]])
    b = M(3, [[0, 2, 0], [1, -1, 0]])
    # cancellations must leave no stored zeros behind
    c = a + b + b.scale(-1)
    assert c == a and hash(c) == hash(a)
    assert c.rows == ({0: Cyclotomic.one(3), 2: Cyclotomic.zeta(3)}, {})
    # a Kronecker product with a zero row, against its dense literal
    k = M(3, [[1], [0]]).tensor_product(M(3, [[0, 2]]))
    lit = M(3, [[0, 2], [0, 0]])
    assert k == lit and hash(k) == hash(lit)
    zero = a + a.scale(-1)
    assert zero == M(3, [[0, 0, 0], [0, 0, 0]])
    assert hash(zero) == hash(M(3, [[0, 0, 0], [0, 0, 0]]))
    assert a != M(3, [[1, 0, Cyclotomic.zeta(3)], [0, 0, 1]])
    assert {a: 1}[c] == 1
    # AlgebraData hashes its simples' matrices: built ones and ones read
    # back from literals must agree
    custom = custom_algebra(alg3.group, [(r.label, list(r.gen_mats)) for r in alg3.simples],
                            alg3.central, list(alg3.chi), alg3.field_order)
    rebuilt = algebra_from_descriptor(json.loads(json.dumps(custom.descriptor)))
    assert rebuilt == custom == alg3
    assert hash(rebuilt) == hash(custom) == hash(alg3)


def test_cyclotomic_entries():
    z = Cyclotomic.zeta(4)
    a = M(4, [[z, 1], [0, z]])
    assert (a @ a)[0, 1] == 2 * z
    assert len(sp_rref(a.rows, a.ncols)[1]) == 2


def test_literals_round_trip():
    a = M(8, [[Cyclotomic.zeta(8), 1], [0, 2]])
    assert Matrix.from_literals(8, a.to_literals()) == a


def test_sparse_matches_dense():
    a = M(1, [[1, 0, 3], [0, 0, 0], [0, 1, 0]])
    one = Cyclotomic.one(1)
    assert a.rows == ({0: one, 2: 3 * one}, {}, {1: one})
    assert a[1, 1] == Cyclotomic.zero(1) and a[0, 2] == 3 * one
    assert Matrix.from_rows(1, a.rows, 3) == a
    _, pivots = sp_rref(a.rows, 3)
    assert len(pivots) == 2
    # row rank equals column rank
    assert len(sp_rref(_transpose(a.rows, 3), 3)[1]) == 2
    # the routines leave their inputs alone
    assert a == M(1, [[1, 0, 3], [0, 0, 0], [0, 1, 0]])


_small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.lists(_small, min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_nullity(rows):
    a = M(1, rows)
    reduced, pivots = sp_rref(a.rows, a.ncols)
    # row rank equals column rank
    assert len(sp_rref(_transpose(a.rows, a.ncols), a.nrows)[1]) == len(pivots)
    # the reduced rows span the row space: adding them changes nothing
    assert sp_rref(list(a.rows) + reduced, a.ncols) == (reduced, pivots)
    # each free column gives a kernel vector, so rank + nullity = ncols
    kernel = _free_column_kernel(1, reduced, pivots, a.ncols)
    assert len(pivots) + len(kernel) == a.ncols
    assert not any(row for k in kernel for row in (a @ k).rows)


def _dense_rref(order, rows, ncols):
    # textbook Gauss-Jordan on dense lists: swap a pivot row up, scale it,
    # clear its column in every other row
    zero = Cyclotomic.zero(order)
    m = [[row.get(j, zero) for j in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [{j: v for j, v in enumerate(row) if v} for row in m[:len(pivots)]], pivots


def _entry_pool(order):
    w = Cyclotomic.zeta(order)
    q = Cyclotomic.rational
    # pivots that are 1, -1, rational and irrational, and zeros
    return [Cyclotomic.zero(order)] * 3 + [
        q(order, 1), q(order, -1), q(order, 2), q(order, Rational(-2, 3)),
        w, w + 1, Rational(1, 2) * w * w - 3, -w]


@pytest.mark.parametrize("order", (6, 10))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sp_rref_matches_dense_gauss_jordan(order, data):
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from(_entry_pool(order))
    dense = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                               min_size=1, max_size=6))
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    # zero rows, and multiples of earlier rows that vanish mid-elimination
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        k = data.draw(st.integers(min_value=0, max_value=len(rows)))
        if k == len(rows):
            rows.insert(data.draw(st.integers(0, len(rows))), {})
        else:
            f = data.draw(entry.filter(bool))
            rows.append({j: f * v for j, v in rows[k].items()})
    snapshot = [dict(r) for r in rows]
    assert sp_rref(rows, ncols) == _dense_rref(order, rows, ncols)
    assert rows == snapshot


def test_sp_rref_fixed_cases():
    order = 10
    one, minus, w = Cyclotomic.one(order), Cyclotomic.rational(order, -1), Cyclotomic.zeta(order)
    half = Cyclotomic.rational(order, Rational(1, 2))
    rows = [
        {},
        {1: minus, 2: w},  # pivot -1
        {1: minus, 2: w},  # a duplicate that vanishes when column 1 is cleared
        {0: half, 3: one},  # a rational pivot
        {},
        {2: w + 1, 3: w},  # an irrational pivot
        {0: one, 3: 3 * one},  # loses column 0 to the rational pivot row
    ]
    snapshot = [dict(r) for r in rows]
    got = sp_rref(rows, 4)
    assert got == _dense_rref(order, rows, 4)
    assert got[1] == [0, 1, 2, 3]
    assert rows == snapshot
    assert sp_rref([{}, {}], 3) == ([], [])


def test_sp_trace_restrict_is_the_trace_in_a_basis_of_the_subspace():
    # A = P B P^-1 with B block upper triangular: the first two columns of
    # P span an A-invariant subspace W, on which A acts in that basis by the
    # top-left block of B, so the trace on W is that block's trace
    order = 6
    w = Cyclotomic.zeta(order)
    lower = M(order, [[0, 0, 0, 0], [w, 0, 0, 0], [2, 1 - w, 0, 0],
                      [Rational(1, 3), w * w, -1, 0]])
    eye = Matrix.identity(order, 4)
    p = eye + lower
    square = lower @ lower
    p_inv = eye + lower.scale(-1) + square + (square @ lower).scale(-1)
    assert p @ p_inv == eye
    top = [[w + 2, 1], [3 * w, -w]]
    b = M(order, [top[0] + [5, w], top[1] + [0, 1], [0, 0, 7, w], [0, 0, 1, 1 - w]])
    a = p @ b @ p_inv
    span = [{i: p.rows[i][j] for i in range(4) if j in p.rows[i]} for j in (0, 1)]
    basis = sp_rref(span, 4)
    assert basis[1] == [0, 1]
    assert sp_trace_restrict(order, a.rows, basis) == top[0][0] + top[1][1]
    # the whole space gives the whole trace, and the zero subspace 0
    assert sp_trace_restrict(order, a.rows, sp_rref(eye.rows, 4)) == a.trace()
    assert sp_trace_restrict(order, a.rows, ([], [])) == Cyclotomic.zero(order)
    # an operator with fewer rows than a pivot is a shape error, not 0
    with pytest.raises(IndexError):
        sp_trace_restrict(order, a.rows[:1], basis)

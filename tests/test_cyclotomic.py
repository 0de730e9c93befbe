"""Exact scalar arithmetic in cyclotomic fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import (
    Cyclotomic, Rational, cyclotomic_polynomial, field_degree,
)
from hopfore.errors import InvalidParameter, OrderMismatch


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_field_degrees():
    assert field_degree(1) == 1
    assert field_degree(6) == 2
    assert field_degree(10) == 4
    assert field_degree(14) == 6


def test_zeta_powers_cycle():
    z = Cyclotomic.zeta(6)
    assert z ** 6 == Cyclotomic.one(6)
    assert z ** 3 == Cyclotomic.rational(6, -1)
    assert z.multiplicative_order() == 6
    assert (z ** 2).multiplicative_order() == 3


def test_known_identity_zeta6():
    # in Q(zeta_6): z^2 = z - 1
    z = Cyclotomic.zeta(6)
    assert z * z == z - Cyclotomic.one(6)


def test_rational_value_and_literals():
    half = Cyclotomic.rational(6, Rational(1, 2))
    assert half == Rational(1, 2)
    assert half.to_literal() == "1/2"
    z = Cyclotomic.zeta(8)
    assert (z ** 2 - z).to_literal() == "w^2 - w"
    assert Cyclotomic.zero(4).to_literal() == "0"
    assert any((z + 1).num[1:])


def test_division_and_inverse():
    z = Cyclotomic.zeta(5)
    v = z ** 3 - z + 2
    assert v * v.inverse() == Cyclotomic.one(5)
    assert (v / v) == Cyclotomic.one(5)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inverse()


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        Cyclotomic.zeta(4) + Cyclotomic.zeta(6)
    with pytest.raises(OrderMismatch):
        Cyclotomic.sum(4, [Cyclotomic.zeta(4), Cyclotomic.zeta(6)])


def test_integer_coercion():
    z = Cyclotomic.zeta(6)
    assert z + 0 == z
    assert 2 * z == z + z
    assert 1 - z == Cyclotomic.one(6) - z


def _scalars(order):
    coeff = st.integers(min_value=-4, max_value=4)
    deg = field_degree(order)
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: sum((Cyclotomic.zeta(order, k) * c for k, c in enumerate(cs)),
                       Cyclotomic.zero(order)))


@settings(max_examples=60, deadline=None)
@given(a=_scalars(8), b=_scalars(8), c=_scalars(8))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(a=_scalars(12))
def test_literal_round_trip(a):
    from hopfore.syntax import parse_cyclotomic

    assert parse_cyclotomic(12, a.to_literal()) == a


@settings(max_examples=40, deadline=None)
@given(a=_scalars(8), b=_scalars(8))
def test_sort_key_consistent_with_equality(a, b):
    assert (a.sort_key() == b.sort_key()) == (a == b)


def test_rational_inverse():
    for order in (1, 6, 10, 14):
        one = Cyclotomic.one(order)
        for q in (1, -1, 2, -3, Rational(1, 2), Rational(-7, 5)):
            x = Cyclotomic.rational(order, q)
            inv = x.inverse()
            assert x * inv == one, (order, q)
            assert inv == 1 / Rational(q), (order, q)
            assert (one / x) == inv


def test_hash_cached_and_consistent():
    z = Cyclotomic.zeta(10)
    a = z * z - 1
    b = Cyclotomic(10, a.coeffs)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(a) == hash((10, a.coeffs))
    assert len({a, b, z}) == 2


def test_public_constructor_validates():
    with pytest.raises(InvalidParameter):
        Cyclotomic(6, (1, 2, 3))
    x = Cyclotomic(6, (1, "1/2"))
    assert x.coeffs == (Rational(1), Rational(1, 2))
    with pytest.raises(AttributeError):
        x.order = 5


# -- elements with denominators ---------------------------------------------

_RATIONAL_ORDERS = (6, 8, 10, 14)


def _rational_scalars(order):
    coeff = st.builds(Rational, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=12))
    deg = field_degree(order)
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: Cyclotomic(order, cs))


def _reference_product(order, a, b):
    """Schoolbook product of Rational coordinates, reduced modulo Phi_n."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    prod = [Rational(0)] * (2 * d - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for i, p in enumerate(phi):
            prod[k - d + i] -= c * p
    return tuple(prod[:d])


def _assert_canonical(x):
    from math import gcd

    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert all(type(a) is int for a in x.num)
    if not x:
        assert x.den == 1


@pytest.mark.parametrize("order", _RATIONAL_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_field_axioms_with_denominators(order, data):
    a, b, c = (data.draw(_rational_scalars(order)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == Cyclotomic.zero(order)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


@pytest.mark.parametrize("order", _RATIONAL_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_matches_reference(order, data):
    a = data.draw(_rational_scalars(order))
    b = data.draw(_rational_scalars(order))
    assert (a * b).coeffs == _reference_product(order, a, b)


@pytest.mark.parametrize("order", _RATIONAL_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_results_are_canonical(order, data):
    a = data.draw(_rational_scalars(order))
    b = data.draw(_rational_scalars(order))
    q = data.draw(st.sampled_from([0, 3, -2, Rational(-4, 9), Rational(6, 5)]))
    results = [a, b, a + b, a - b, a - a, -a, a * b, a * q, a + q, a * 0]
    # one sum over the lcm of the denominators, as repeated addition gives
    terms = [a, b, a * q, -b, Cyclotomic.rational(order, q)]
    assert Cyclotomic.sum(order, terms) == a + a * q + q
    results += [Cyclotomic.sum(order, terms), Cyclotomic.sum(order, [a, -a]),
                Cyclotomic.sum(order, [])]
    if b:
        results += [a / b, b.inverse()]
    if q:
        results.append(a / q)
    for x in results:
        _assert_canonical(x)
        assert Cyclotomic(order, x.coeffs) == x


@pytest.mark.parametrize("order", (6, 12))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_literal_round_trip_with_denominators(order, data):
    from hopfore.syntax import parse_cyclotomic

    a = data.draw(_rational_scalars(order))
    assert parse_cyclotomic(order, a.to_literal()) == a


@settings(max_examples=40, deadline=None)
@given(a=_rational_scalars(10), b=_rational_scalars(10))
def test_sort_key_with_denominators(a, b):
    assert (a.sort_key() == b.sort_key()) == (a == b)
    assert a.sort_key() == a.coeffs


@pytest.mark.parametrize("order", (1, 2, 4, 5, 6, 8, 10, 12, 14))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_irrational_inverse(order, data):
    x = data.draw(_rational_scalars(order).filter(
        # Q(zeta_1) = Q(zeta_2) = Q: there every nonzero element counts
        lambda v: v and (field_degree(order) == 1 or any(v.num[1:]))))
    one = Cyclotomic.one(order)
    inv = x.inverse()
    _assert_canonical(inv)
    assert x * inv == one
    assert inv * x == one
    assert inv.inverse() == x


def test_equality_against_int_and_fraction():
    for order in (1, 6, 10):
        assert Cyclotomic.rational(order, 3) == 3
        assert Cyclotomic.rational(order, 3) == Rational(3)
        assert Cyclotomic.rational(order, Rational(-5, 4)) == Rational(-5, 4)
        assert Cyclotomic.rational(order, Rational(-5, 4)) != Rational(5, 4)
        assert Cyclotomic.rational(order, Rational(1, 2)) != 1
        assert Cyclotomic.zero(order) == 0
        assert Rational(7, 3) == Cyclotomic.rational(order, Rational(7, 3))
        assert 0 == Cyclotomic.zero(order)
    z = Cyclotomic.zeta(6)
    assert z != 1 and z + 1 != 2 and z != Rational(1, 2)
    assert Cyclotomic(6, (Rational(1, 2), 1)) != Rational(1, 2)


def _unit_cases(order):
    w = Cyclotomic.zeta(order)
    half = Cyclotomic.rational(order, Rational(1, 2))
    return [
        w ** 3 - 2 * w + 5,  # irrational, den 1
        half + w,  # irrational, den 2
        half,
        Cyclotomic.rational(order, Rational(-1, 3)),
        Cyclotomic.rational(order, 7),
        Cyclotomic.zero(order),
        Cyclotomic.one(order),
        Cyclotomic.rational(order, -1),
    ]


@pytest.mark.parametrize("order", _RATIONAL_ORDERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_products_by_plus_minus_one(order, data):
    one, minus = Cyclotomic.one(order), Cyclotomic.rational(order, -1)
    drawn = data.draw(_rational_scalars(order))
    for u in (one, minus):
        for x in _unit_cases(order) + [drawn]:
            ref = _reference_product(order, u, x)
            for p in (u * x, x * u):
                _assert_canonical(p)
                assert p.coeffs == ref
            # the shortcut hands back the other operand itself
            if u == one and x not in (one, minus):
                assert u * x is x and x * u is x
        for q in (0, 1, -1, 3, Rational(1, 2), Rational(-1, 3)):
            ref = _reference_product(order, u, Cyclotomic.rational(order, q))
            for p in (u * q, q * u):
                _assert_canonical(p)
                assert p.coeffs == ref


@pytest.mark.parametrize("order", _RATIONAL_ORDERS)
def test_rational_operands_other_than_plus_minus_one_multiply(order):
    # 1/2 and -1/3 have numerator +-1 but are not units of the shortcut
    for q in (Rational(1, 2), Rational(-1, 3)):
        r = Cyclotomic.rational(order, q)
        for x in _unit_cases(order):
            ref = _reference_product(order, r, x)
            for p in (r * x, x * r):
                _assert_canonical(p)
                assert p.coeffs == ref
                if x:
                    assert p != x and p != -x


def test_plus_minus_one_keep_the_order_check():
    for u in (Cyclotomic.one(6), Cyclotomic.rational(6, -1)):
        with pytest.raises(OrderMismatch):
            u * Cyclotomic.zeta(10)
        with pytest.raises(OrderMismatch):
            Cyclotomic.zeta(10) * u


def test_root_products_by_table(monkeypatch):
    # the roots of unity of Q(zeta_n) are +-zeta_n^e; a product of two of
    # them is read from a table with no convolution, and equals it
    from hopfore import cyclotomic

    mul_num = cyclotomic._mul_num
    calls = []

    def counting(order, a, b):
        calls.append(order)
        return mul_num(order, a, b)

    for order in range(3, 17):
        roots = [s * Cyclotomic.zeta(order, e) for e in range(order) for s in (1, -1)]
        want = {(x, y): cyclotomic._norm(order, mul_num(order, x.num, y.num), 1)
                for x in roots for y in roots}
        others = [x for x in _unit_cases(order) if any(x.num[1:])]
        others += [3 * Cyclotomic.zeta(order), Cyclotomic.zeta(order) - 1]
        monkeypatch.setattr(cyclotomic, "_mul_num", counting)
        for (x, y), ref in want.items():
            p = x * y
            assert p == ref and p.den == 1, (order, x, y)
            if any(x.num[1:]) and any(y.num[1:]):
                assert p is x * y  # a shared element; +-1 keep their own path
        assert calls == [], order
        # a root times a non-root still multiplies out, in either order
        for x in roots[2:6]:
            for y in others:
                for p in (x * y, y * x):
                    _assert_canonical(p)
                    assert p.coeffs == _reference_product(order, x, y)
        assert calls, order
        calls.clear()
        monkeypatch.setattr(cyclotomic, "_mul_num", mul_num)

"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements live over the power basis 1, w, ..., w^(d-1) where w = zeta_n,
d = deg Phi_n, and Phi_n is the n-th cyclotomic polynomial.  An element is
stored as integer numerators over one positive integer denominator, with no
factor common to all of them (zero is 0/1), so arithmetic on integers,
which most scalars of the theory are, runs on Python ints alone.  The
inverse of an irrational element is the product of its Galois
conjugates divided by its norm.  Exact rationals (`Rational`, which is
fractions.Fraction) appear only at the edges: parsing, printing, ordering
and hashing.  A product with an operand that is exactly 1 or -1 returns the
other operand or its negation, with no multiplication and no gcd: most
products of the matrix oracle (group actions, pivots, Kronecker factors)
are of that kind.  The others are mostly products of two roots of unity
+-zeta^e, the entries of monomial group actions: the roots of unity of
the field are the powers of one root u of order lcm(2, n), and a table per
order (_roots) maps each one's coordinates to its exponent, so such a
product is a lookup that returns a shared element, with no convolution.
No floating point is used anywhere.  Mixing elements of different orders
is an error rather than a silent promotion, so callers stay inside one
fixed field per algebra.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

from .errors import InvalidParameter, OrderMismatch


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, ascending coefficients.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c % den[dd]:
            raise InvalidParameter("non-exact polynomial division")
        c //= den[dd]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise InvalidParameter("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic with integer entries."""
    if n < 1:
        raise InvalidParameter(f"cyclotomic order must be >= 1, got {n}")
    # y^n - 1 divided by the product of Phi_d over proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _tables(n: int):
    """Per-order data: degree, reduction rows, and integer coords of w^e.

    zpow[e] gives the coordinates of w^e for e = 0..n-1; reduce[k] gives the
    coordinates of w^(d+k) for k = 0..d-2, which is what folding the tail of
    a product needs.
    """
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    top = [-c for c in phi[:d]]  # w^d in the power basis
    reduce_rows = [tuple(top)]
    row = top
    for _ in range(d - 2):
        shifted = [0] + row[:-1]
        c = row[-1]
        if c:
            shifted = [s + c * t for s, t in zip(shifted, top)]
        reduce_rows.append(tuple(shifted))
        row = shifted
    zpow = [tuple(1 if i == 0 else 0 for i in range(d))]
    cur = [1] + [0] * (d - 1)
    for _ in range(1, n):
        c = cur[-1]
        cur = [0] + cur[:-1]
        if c:
            cur = [x + c * t for x, t in zip(cur, top)]
        zpow.append(tuple(cur))
    return d, tuple(reduce_rows), tuple(zpow)


@lru_cache(maxsize=None)
def _roots(n: int):
    """The roots of unity of Q(zeta_n) as (index, roots): roots[k] = u^k
    for k < N, shared elements, where N = lcm(2, n) and u = zeta_N (zeta_n
    for even n, -zeta_n^((n+1)/2) for odd n), and index maps the integer
    coordinates of u^k to k.  So the product of two roots is
    roots[(k + l) % N]."""
    zpow = _tables(n)[2]
    if n % 2:
        coords = [zpow[k * (n + 1) // 2 % n] for k in range(2 * n)]
        coords = [c if k % 2 == 0 else tuple(map(neg, c)) for k, c in enumerate(coords)]
    else:
        coords = list(zpow)
    return {c: k for k, c in enumerate(coords)}, tuple(_make(n, c, 1) for c in coords)


def field_degree(n: int) -> int:
    return _tables(n)[0]


class Cyclotomic:
    """An element of Q(zeta_n), immutable and hashable.

    `num` holds the integer numerators of the power-basis coordinates and
    `den` their common denominator: den > 0 and gcd(den, *num) == 1, so
    equal elements have equal fields.  The constructor converts and
    length-checks its coordinates.  Results of the field operations go
    through `_make` or `_norm` instead, which trust that `num` is a tuple of
    d ints.
    """

    __slots__ = ("order", "num", "den", "_hash")

    def __init__(self, order: int, coeffs):
        d = _tables(order)[0]
        coeffs = tuple(Rational(c) for c in coeffs)
        if len(coeffs) != d:
            raise InvalidParameter(
                f"order-{order} element needs {d} coordinates, got {len(coeffs)}"
            )
        den = lcm(*(q.denominator for q in coeffs))
        _set_order(self, order)
        _set_num(self, tuple(q.numerator * (den // q.denominator) for q in coeffs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Rationals."""
        den = self.den
        return tuple(Rational(a, den) for a in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return _const(order, 0, 1)

    @staticmethod
    def one(order: int) -> "Cyclotomic":
        return _const(order, 1, 1)

    @staticmethod
    def rational(order: int, value) -> "Cyclotomic":
        q = Rational(value)
        return _const(order, q.numerator, q.denominator)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclotomic":
        zpow = _tables(order)[2]
        return _make(order, zpow[power % order], 1)

    @staticmethod
    def sum(order: int, values) -> "Cyclotomic":
        """The sum of order-`order` elements, accumulated on integer
        numerators over the lcm of their denominators: one reduction for
        the whole sum rather than a new element and a gcd per term."""
        acc = [0] * _tables(order)[0]
        den = 1
        for v in values:
            if v.order != order:
                raise OrderMismatch(f"cannot combine orders {order} and {v.order}")
            if v.den == den:
                acc = list(map(add, acc, v.num))
            else:
                new = lcm(den, v.den)
                f, g = new // den, new // v.den
                acc = [a * f + b * g for a, b in zip(acc, v.num)]
                den = new
        return _norm(order, tuple(acc), den)

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Rational)):
            num = self.num
            return (self.den == other.denominator and num[0] == other.numerator
                    and not any(num[1:]))
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # an integer Rational hashes like the int, so with den == 1 the
            # numerators give hash((order, coeffs)) without building Rationals
            h = hash((self.order, self.num if self.den == 1 else self.coeffs))
            _set_hash(self, h)
            return h

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """other as an element of this field, or None if it is no scalar."""
        if isinstance(other, Cyclotomic):
            if self.order != other.order:
                raise _mismatch(self, other)
            return other
        if isinstance(other, (int, Rational)):
            return _const(self.order, other.numerator, other.denominator)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _norm(self.order, tuple(map(add, self.num, other.num)), da)
        return _norm(self.order,
                     tuple(a * db + b * da for a, b in zip(self.num, other.num)),
                     da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _norm(self.order, tuple(map(sub, self.num, other.num)), da)
        return _norm(self.order,
                     tuple(a * db - b * da for a, b in zip(self.num, other.num)),
                     da * db)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(self.order, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            order = self.order
            if order != other.order:
                raise _mismatch(self, other)
            a, b = self.num, other.num
            a_rational = not any(a[1:])
            if a_rational and self.den == 1 and (a[0] == 1 or a[0] == -1):
                return other if a[0] == 1 else _make(order, tuple(map(neg, b)),
                                                     other.den)
            if not any(b[1:]):
                q = b[0]
                if other.den == 1 and (q == 1 or q == -1):
                    return self if q == 1 else _make(order, tuple(map(neg, a)),
                                                     self.den)
                return _norm(order, tuple(x * q for x in a), self.den * other.den)
            if a_rational:
                q = a[0]
                return _norm(order, tuple(x * q for x in b), self.den * other.den)
            if self.den == 1 and other.den == 1:
                index, roots = _roots(order)
                i = index.get(a)
                if i is not None:
                    j = index.get(b)
                    if j is not None:
                        return roots[(i + j) % len(roots)]
            return _norm(order, _mul_num(order, a, b), self.den * other.den)
        if isinstance(other, (int, Rational)):
            q = other.numerator
            return _norm(self.order, tuple(x * q for x in self.num),
                         self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        order, num, den = self.order, self.num, self.den
        if not any(num[1:]):
            p = num[0]
            if not p:
                raise ZeroDivisionError("inverse of zero cyclotomic")
            if p < 0:
                p, den = -p, -den
            return _make(order, (den,) + num[1:], p)
        # With a = A/den and c the product of sigma_k(A) over the Galois
        # automorphisms sigma_k: w -> w^k, k != 1, A c is the norm of A, a
        # nonzero integer, so 1/a = den c / N(A).
        zpow = _tables(order)[2]
        conj = None
        for k in range(2, order):
            if gcd(k, order) == 1:
                s = _conjugate(num, k, zpow)
                conj = s if conj is None else _mul_num(order, conj, s)
        norm = _mul_num(order, num, conj)[0]
        if norm < 0:
            norm, den = -norm, -den
        return _norm(order, tuple(den * c for c in conj), norm)

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            if self.order != other.order:
                raise _mismatch(self, other)
            return self * other.inverse()
        if isinstance(other, (int, Rational)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division by zero")
            if p < 0:
                p, q = -p, -q
            return _norm(self.order, tuple(x * q for x in self.num), self.den * p)
        return NotImplemented

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def multiplicative_order(self) -> int:
        """Order as a root of unity; InvalidParameter if not one."""
        one = Cyclotomic.one(self.order)
        p = self
        for k in range(1, 2 * self.order + 1):
            if p == one:
                return k
            p = p * self
        raise InvalidParameter("element is not a root of unity")

    # -- printing ----------------------------------------------------------

    def to_literal(self) -> str:
        """Canonical literal: descending powers of w, e.g. 'w^2 - 1/3'."""
        coeffs = self.coeffs
        pieces = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            else:
                sym = "w" if k == 1 else f"w^{k}"
                body = sym if mag == 1 else f"{mag}*{sym}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.to_literal()!r})"

    def sort_key(self):
        """Total order on one field, used only for deterministic output."""
        return self.coeffs


_set_order = Cyclotomic.order.__set__
_set_num = Cyclotomic.num.__set__
_set_den = Cyclotomic.den.__set__
_set_hash = Cyclotomic._hash.__set__


def _make(order: int, num: tuple, den: int) -> Cyclotomic:
    """Trusted constructor: num is a tuple of field_degree(order) ints and
    den > 0 shares no factor with all of them."""
    x = object.__new__(Cyclotomic)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _norm(order: int, num: tuple, den: int) -> Cyclotomic:
    """_make after dividing out the factor that den > 0 shares with num."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return _make(order, num, den)


def _mismatch(a: Cyclotomic, b: Cyclotomic) -> OrderMismatch:
    return OrderMismatch(f"cannot combine orders {a.order} and {b.order}")


def _const(order: int, p: int, q: int) -> Cyclotomic:
    d = _tables(order)[0]
    return _make(order, (p,) + (0,) * (d - 1), q)


def _mul_num(order: int, a: tuple, b: tuple) -> tuple:
    """Integer coordinates of the product of two integer coordinate tuples:
    the convolution, with its tail folded back through Phi_n."""
    d, reduce_rows, _ = _tables(order)
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:d]
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        if c:
            row = reduce_rows[k - d]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return tuple(out)


def _conjugate(num: tuple, k: int, zpow) -> tuple:
    """Integer coordinates of sigma_k(A) = sum_i A_i w^(ik)."""
    n = len(zpow)
    out = [0] * len(num)
    for i, a in enumerate(num):
        if a:
            for j, z in enumerate(zpow[i * k % n]):
                if z:
                    out[j] += a * z
    return tuple(out)

"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are stored as coordinate tuples over the power basis
1, w, ..., w^(d-1) where w = zeta_n, d = deg Phi_n, and Phi_n is the n-th
cyclotomic polynomial.  Coordinates are exact rationals (gmpy2.mpq when
available, fractions.Fraction otherwise); no floating point is used
anywhere.  Mixing elements of different orders is an error rather than a
silent promotion, so callers stay inside one fixed field per algebra.
"""

from __future__ import annotations

from functools import lru_cache

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is an install requirement
    from fractions import Fraction as Rational

from .errors import InvalidParameter, OrderMismatch

_Q0 = Rational(0)
_Q1 = Rational(1)


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


def field_degree(n: int) -> int:
    return _tables(n)[0]


class Cyclotomic:
    """An element of Q(zeta_n), immutable and hashable.

    The constructor converts and length-checks its coordinates.  Results of
    the field operations go through `_make` instead, which trusts that its
    coordinates are already a tuple of d Rationals.
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs):
        d = _tables(order)[0]
        coeffs = tuple(Rational(c) for c in coeffs)
        if len(coeffs) != d:
            raise InvalidParameter(
                f"order-{order} element needs {d} coordinates, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return _const(order, _Q0)

    @staticmethod
    def one(order: int) -> "Cyclotomic":
        return _const(order, _Q1)

    @staticmethod
    def rational(order: int, value) -> "Cyclotomic":
        return _const(order, Rational(value))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclotomic":
        d, _, zpow = _tables(order)
        return Cyclotomic(order, zpow[power % order])

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, type(Rational(0)))):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.order, self.coeffs))
            _set_hash(self, h)
            return h

    def rational_value(self):
        """The element as a Rational if it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise OrderMismatch(
                f"cannot combine orders {self.order} and {other.order}"
            )

    def __add__(self, other):
        other = _coerce(self.order, other)
        if other is None:
            return NotImplemented
        self._check(other)
        return _make(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.order, other)
        if other is None:
            return NotImplemented
        self._check(other)
        return _make(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = _coerce(self.order, other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, type(_Q0))):
            q = Rational(other)
            return _make(self.order, tuple(a * q for a in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not any(b[1:]):
            q = b[0]
            return _make(self.order, tuple(x * q for x in a))
        if not any(a[1:]):
            q = a[0]
            return _make(self.order, tuple(x * q for x in b))
        d, reduce_rows, _ = _tables(self.order)
        conv = [_Q0] * (2 * d - 1)
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
        return _make(self.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        a = self.coeffs
        if not any(a[1:]):
            return _make(self.order, (_Q1 / a[0],) + a[1:])
        # Extended Euclid in Q[y] against Phi_n.
        phi = [Rational(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_Q0], [_Q1]
        while any(r1):
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        lead = next(c for c in reversed(r0) if c)
        inv_coeffs = [c / lead for c in s0]
        d = _tables(self.order)[0]
        inv_coeffs = (inv_coeffs + [_Q0] * d)[:d]
        return _make(self.order, tuple(inv_coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, type(_Q0))):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = _Q1 / Rational(other)
            return _make(self.order, tuple(a * q for a in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(self.order, other)
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
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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
        return tuple(self.coeffs)


_set_order = Cyclotomic.order.__set__
_set_coeffs = Cyclotomic.coeffs.__set__
_set_hash = Cyclotomic._hash.__set__


def _make(order: int, coeffs: tuple) -> Cyclotomic:
    """Trusted constructor: coeffs is a tuple of field_degree(order) Rationals."""
    x = object.__new__(Cyclotomic)
    _set_order(x, order)
    _set_coeffs(x, coeffs)
    return x


def _const(order: int, q) -> Cyclotomic:
    d = _tables(order)[0]
    return _make(order, (q,) + (_Q0,) * (d - 1))


def _coerce(order: int, value):
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, type(_Q0))):
        return _const(order, Rational(value))
    return None


# -- little rational-polynomial helpers for the extended Euclid ------------

def _qpoly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _qpoly_divmod(a, b):
    a = _qpoly_trim(list(a))
    b = _qpoly_trim(list(b))
    q = [_Q0] * max(0, len(a) - len(b) + 1)
    inv_lead = _Q1 / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        _qpoly_trim(a)
    return q, a


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [_Q0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_Q0] * (n - len(a))
    b = list(b) + [_Q0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]

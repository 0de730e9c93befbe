"""Exact linear algebra over one cyclotomic field, on sparse rows.

A matrix is stored as its rows, each a dict {column: nonzero entry}; zero
entries are never stored, so the structured matrices that show up here
(monomial group actions, stratum shifts, their Kronecker products) stay
cheap.  Matrix is the immutable, shape-checked type that modules and
algebras hold; the sp_* routines below work on bare row dict lists, and
`Matrix.rows` can be passed to them as it is.

sp_rref is the one elimination routine.  The image chains that decompose
walks, the coordinates of the halved basis and the unimodularity test of
the Green ring all reduce through it.  Everything is fraction-exact, and
pivoting always takes the first row with a nonzero entry in the current
column, so reduced forms are canonical.
sp_rref keeps each remaining row's leading column beside it and looks
again only at rows that a step changed; row operations by a factor of 1
or -1 add or subtract entries with no product, as Cyclotomic products by
1 or -1 do.
Traces (Matrix.trace, sp_trace_restrict) collect their terms and add them
once with Cyclotomic.sum, on integer numerators over one denominator.
"""

from __future__ import annotations

from operator import add, sub

from .cyclotomic import Cyclotomic
from .errors import ShapeMismatch


class Matrix:
    """Matrix over Q(zeta_order); rows is a tuple of {col: nonzero entry}.

    The constructor takes dense nested lists (JSON, tests, custom
    algebras).  The row dicts are shared, never mutated.
    """

    __slots__ = ("order", "nrows", "ncols", "rows")

    def __init__(self, order: int, rows, ncols: int | None = None):
        sparse = []
        for row in rows:
            row = [_entry(order, e) for e in row]
            if not sparse:
                ncols = len(row)
            elif len(row) != ncols:
                raise ShapeMismatch("ragged rows")
            sparse.append({j: e for j, e in enumerate(row) if e})
        self._set(order, sparse, ncols or 0)

    def _set(self, order, rows, ncols):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(rows))

    @staticmethod
    def from_rows(order: int, rows, ncols: int) -> "Matrix":
        """Wrap row dicts that hold only nonzero entries in range(ncols)."""
        m = object.__new__(Matrix)
        m._set(order, rows, ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(order: int, n: int) -> "Matrix":
        return Matrix.scalar(order, n, 1)

    @staticmethod
    def scalar(order: int, n: int, value) -> "Matrix":
        v = _entry(order, value)
        return Matrix.from_rows(order, [{i: v} if v else {} for i in range(n)], n)

    @staticmethod
    def from_literals(order: int, rows) -> "Matrix":
        from .syntax import parse_cyclotomic

        return Matrix(order, [[parse_cyclotomic(order, s) for s in row] for row in rows])

    def to_literals(self) -> list[list[str]]:
        zero = Cyclotomic.zero(self.order)
        return [[row.get(j, zero).to_literal() for j in range(self.ncols)]
                for row in self.rows]

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.order, self.nrows, self.ncols, self.rows) == (
            other.order, other.nrows, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.order, self.nrows, self.ncols,
                     tuple(tuple(sorted(r.items())) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.order}, {self.nrows}x{self.ncols})"

    def __getitem__(self, key):
        i, j = key
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return self.rows[i].get(j) or Cyclotomic.zero(self.order)

    def trace(self) -> Cyclotomic:
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of a non-square matrix")
        return Cyclotomic.sum(self.order, [row[i] for i, row in enumerate(self.rows)
                                           if i in row])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.order != other.order:
            raise ShapeMismatch("matrices over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")
        # row by row, as self - (-1) * other: the -1 adds entries, no product
        minus_one = -Cyclotomic.one(self.order)
        rows = []
        for r, s in zip(self.rows, other.rows):
            r = dict(r)
            _sp_row_submul(r, minus_one, s)
            rows.append(r)
        return Matrix.from_rows(self.order, rows, self.ncols)

    def scale(self, value) -> "Matrix":
        v = _entry(self.order, value)
        if not v:
            return Matrix.from_rows(self.order, [{} for _ in self.rows], self.ncols)
        return Matrix.from_rows(self.order, [
            {j: a * v for j, a in r.items()} for r in self.rows], self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.order != other.order:
            raise ShapeMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"inner dimensions {self.ncols} vs {other.nrows}")
        return Matrix.from_rows(self.order, sp_matmul(self.rows, other.rows),
                                other.ncols)

    def tensor_product(self, other: "Matrix") -> "Matrix":
        """Kronecker product, blocks ordered row-major by self's entries."""
        if self.order != other.order:
            raise ShapeMismatch("matrices over different fields")
        n = other.ncols
        rows = [{ja * n + jb: a * b for ja, a in arow.items() for jb, b in brow.items()}
                for arow in self.rows for brow in other.rows]
        return Matrix.from_rows(self.order, rows, self.ncols * n)


def _entry(order: int, e) -> Cyclotomic:
    if isinstance(e, Cyclotomic):
        if e.order != order:
            raise ShapeMismatch(f"entry of order {e.order} in order-{order} matrix")
        return e
    return Cyclotomic.rational(order, e)


# -- sparse routines --------------------------------------------------------
#
# Operators are lists of row dicts {col: entry}.  A subspace is what sp_rref
# returns: the reduced echelon rows that span it, as vectors {index: entry},
# and their pivot indices.  All loops are ordered, so results are canonical.
# Inputs are never mutated.


def _sp_row_submul(target: dict, factor, source: dict):
    # target -= factor * source, dropping zeros.  A factor of 1 or -1
    # subtracts or adds the source entries themselves, with no product.
    if factor == -1:
        step, items = add, source.items()
    elif factor == 1:
        step, items = sub, source.items()
    else:
        step, items = sub, [(j, factor * v) for j, v in source.items()]
    for j, v in items:
        cur = target.get(j)
        if cur is None:
            target[j] = v if step is add else -v
        else:
            cur = step(cur, v)
            if cur:
                target[j] = cur
            else:
                del target[j]


def sp_rref(rows: list[dict], ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns.

    Forward elimination picks, for the leftmost column that still has a
    nonzero entry, the first remaining row holding one; a single backward
    pass then clears pivot columns upward.  The result is the canonical
    RREF of the input.  Each remaining row's leading column is kept in a
    list beside it; a step changes only the rows whose leading column is
    the pivot column, so only theirs are found again, and a row that
    becomes empty is dropped.  A pivot that is already 1 is not rescaled.
    Entries lie in range(ncols).
    """
    work = [dict(r) for r in rows if r]
    leads = [min(r) for r in work]
    pivots: list[int] = []
    pivot_rows: list[dict] = []
    while work:
        col = min(leads)
        hit = leads.index(col)
        del leads[hit]
        row = work.pop(hit)
        pivot = row[col]
        if pivot != 1:
            inv = pivot.inverse()
            row = {j: v * inv for j, v in row.items()}
        kept, kept_leads = [], []
        for other, lead in zip(work, leads):
            if lead == col:
                _sp_row_submul(other, other[col], row)
                if not other:
                    continue
                lead = min(other)
            kept.append(other)
            kept_leads.append(lead)
        work, leads = kept, kept_leads
        pivot_rows.append(row)
        pivots.append(col)
    for k in range(len(pivot_rows) - 1, 0, -1):
        row, col = pivot_rows[k], pivots[k]
        for earlier in pivot_rows[:k]:
            f = earlier.get(col)
            if f:
                _sp_row_submul(earlier, f, row)
    return pivot_rows, pivots


def sp_matmul(a: list[dict], b: list[dict]) -> list[dict]:
    """a @ b on dict rows."""
    out = []
    for arow in a:
        acc: dict = {}
        for k, f in arow.items():
            for j, v in b[k].items():
                cur = acc.get(j)
                cur = f * v if cur is None else cur + f * v
                if cur:
                    acc[j] = cur
                elif j in acc:
                    del acc[j]
        out.append(acc)
    return out


def sp_trace_restrict(order: int, rows: list[dict],
                      basis: tuple[list[dict], list[int]]) -> Cyclotomic:
    """Trace of an operator on an invariant subspace given as sp_rref gives it.

    The coordinate of A b_k along b_l is entry p_l of A b_k, since the
    basis is reduced at its pivots p_l, so the trace is the sum over k of
    row p_k of A times b_k.  Invariance is the caller's responsibility; A
    must have a row at every pivot (IndexError otherwise), as a square
    operator on the basis's space has.
    """
    vecs, pivots = basis
    terms = []
    for col, p in zip(vecs, pivots):
        for k, v in rows[p].items():
            c = col.get(k)
            if c is not None:
                terms.append(v * c)
    return Cyclotomic.sum(order, terms)

"""Green ring and Grothendieck ring arithmetic for the extended algebra.

Elements are stored as integer combinations of canonical labels: every
indecomposable for the Green ring, and for the Grothendieck ring the simple
modules, which are the labels of length 1.  Products extend the closed
tensor rules bilinearly; a Grothendieck product is the composition factors
(to_groth) of the Green product of its simples.
For the dihedral algebras this module also provides the two power bases
of the group-ring part, X_1 = {x^(m-1), ..., x, 1, lam, chi, lamchi} and
the halved X_2: each is a list of named Grothendieck elements built from
one list of x powers, and both convert through one exact solve.  A
verifier recomputes every defining relation of the known presentations
inside the concrete rings.
"""

from collections import Counter
from math import comb

from .cyclotomic import Cyclotomic, Rational
from .errors import (
    AlgebraMismatch,
    InternalInconsistency,
    InvalidParameter,
    RingMismatch,
    UnsupportedLabel,
)
from .fusion import comp_factors, tensor_labels
from .labels import EIG, NIL, IndecLabel, canonicalize, sorted_items
from .linalg import sp_rref
from .syntax import (
    MAX_EXPONENT, MAX_SCALAR_BITS, evaluate, format_label, format_terms,
)

GREEN = "green"
GROTH = "groth"

# Most label pairs one ring_mul tensors.  The presentation suites and the
# pinned ring mul corpus need at most 7; a product of 10000 pairs takes
# well under a second, and powers of sums grow past it within a few steps.
MAX_RING_PAIRS = 10_000


def _check_ring(ring):
    if ring not in (GREEN, GROTH):
        raise InvalidParameter(f"unknown ring {ring!r}")


class RingElement:
    """Integer combination of canonical labels in one of the two rings."""

    __slots__ = ("ring", "alg", "coeffs")

    def __init__(self, ring, alg, coeffs):
        _check_ring(ring)
        clean = {}
        for lab, c in coeffs.items():
            if not isinstance(c, int):
                raise InvalidParameter("coefficients must be integers")
            if c:
                clean[lab] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _compat(self, other):
        if not isinstance(other, RingElement):
            raise RingMismatch(f"not a ring element: {other!r}")
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} element mixed with {other.ring}")
        if other.alg != self.alg:
            raise AlgebraMismatch("elements of different algebras")
        return other

    def __add__(self, other):
        other = self._compat(other)
        out = Counter(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] += c
        return RingElement(self.ring, self.alg, out)

    def __sub__(self, other):
        other = self._compat(other)
        out = Counter(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] -= c
        return RingElement(self.ring, self.alg, out)

    def __neg__(self):
        return RingElement(self.ring, self.alg,
                           {lab: -c for lab, c in self.coeffs.items()})

    def scale(self, k):
        return RingElement(self.ring, self.alg,
                           {lab: k * c for lab, c in self.coeffs.items()})

    def __mul__(self, other):
        # products by `*` and `**`, as the expression language takes them,
        # keep every coefficient printable
        if isinstance(other, int):
            return self.scale(other)
        other = self._compat(other)
        bits = _coeff_bits(self) + _coeff_bits(other)
        if bits > MAX_SCALAR_BITS:
            raise InvalidParameter(
                f"coefficients of up to {bits} bits are above the limit {MAX_SCALAR_BITS}")
        return ring_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise InvalidParameter("powers must be nonnegative integers")
        if e > MAX_EXPONENT:
            raise InvalidParameter(f"exponent {e} is above the limit {MAX_EXPONENT}")
        out = unit(self.alg, self.ring)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring == other.ring
                and self.alg == other.alg and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"<{self.ring} {format_element(self)}>"


def green_basis(alg, label) -> RingElement:
    label = canonicalize(alg, label.kind, label.t, label.i, label.beta)
    return RingElement(GREEN, alg, {label: 1})


def groth_basis(alg, simple) -> RingElement:
    """The class of a simple module, named by its label of length 1."""
    simple = canonicalize(alg, simple.kind, simple.t, simple.i, simple.beta)
    if simple.t != 1:
        raise UnsupportedLabel(
            f"{format_label(simple)} is not simple; the Grothendieck ring is "
            "keyed by the labels of length 1")
    return RingElement(GROTH, alg, {simple: 1})


def _is_trivial(alg, label) -> bool:
    # the trivial simple is the one whose character is 1 at every class
    char = alg.simple(label).char
    return all(char[g] == 1 for g, _ in alg.group.classes)


def unit(alg, ring) -> RingElement:
    _check_ring(ring)
    triv = next(s.label for s in alg.simples if _is_trivial(alg, s.label))
    return RingElement(ring, alg, {IndecLabel(NIL, 1, triv): 1})


def _coeff_bits(a: RingElement) -> int:
    return max(map(abs, a.coeffs.values()), default=0).bit_length()


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Bilinear product; a Grothendieck product is to_groth of the Green
    product of the two elements' simples.

    A product of more than MAX_RING_PAIRS label pairs is refused before it
    starts.
    """
    b = a._compat(b)
    if len(a.coeffs) * len(b.coeffs) > MAX_RING_PAIRS:
        raise InvalidParameter(
            f"a product of {len(a.coeffs)} by {len(b.coeffs)} labels is above "
            f"the limit of {MAX_RING_PAIRS} label pairs")
    alg = a.alg
    out = Counter()
    for la, ca in a.coeffs.items():
        for lb, cb in b.coeffs.items():
            for lab, k in tensor_labels(alg, la, lb).items():
                out[lab] += ca * cb * k
    product = RingElement(GREEN, alg, out)
    return product if a.ring == GREEN else to_groth(product)


def to_groth(a: RingElement) -> RingElement:
    """The canonical ring map onto composition factors."""
    if a.ring != GREEN:
        raise RingMismatch("to_groth takes a Green ring element")
    out = Counter()
    for lab, c in a.coeffs.items():
        for fac, n in comp_factors(a.alg, lab).items():
            out[fac] += c * n
    return RingElement(GROTH, a.alg, out)


# -- printing -----------------------------------------------------------------

def _term_text(alg, ring, label) -> str:
    # a one-dimensional group simple prints by name in the Grothendieck ring
    if ring == GROTH and label.kind == NIL and isinstance(label.i, str) \
            and alg.simple(label.i).dim == 1:
        return "1" if _is_trivial(alg, label.i) else label.i
    return format_label(label)


def format_element(elt: RingElement) -> str:
    """Deterministic text form, e.g. '1 + lam + V[1](2)' or '2*V[2](eps;1)'."""
    return format_terms((_term_text(elt.alg, elt.ring, label), c)
                        for label, c in sorted_items(elt.alg, elt.coeffs))


# -- expression evaluation ------------------------------------------------------

def eval_expr(alg, src, ring) -> RingElement:
    """Evaluate the text of a ring expression in the chosen ring."""
    _check_ring(ring)

    def value(atom):
        if isinstance(atom, int):
            return unit(alg, ring).scale(atom)
        g = green_basis(alg, atom)
        return g if ring == GREEN else to_groth(g)

    return evaluate(src, alg, value)


# -- the x-power bases of the group-ring part ----------------------------------
#
# Both bases are ordered (display name, Grothendieck element) lists built from
# one list of x powers, and both convert through one solve (_solve).

def _require_dihedral(alg):
    if alg.kind != "dihedral":
        raise InvalidParameter("polynomial bases exist for the dihedral family")


def _power_name(base, l) -> str:
    return base if l == 1 else f"{base}^{l}"


def _x_powers(alg, top):
    """[1, x, x^2, ..., x^top] in the Grothendieck ring, top >= 1."""
    x = _groth_char(alg, 1)
    powers = [unit(alg, GROTH), x]
    for _ in range(top - 1):
        powers.append(ring_mul(powers[-1], x))
    return powers


def _x1_basis(alg, powers=None):
    """X_1 in display order: x^(m-1), ..., x, 1, lam, chi, lamchi."""
    m = alg.group.size // 4
    powers = powers or _x_powers(alg, m - 1)
    out = [(_power_name("x", l), powers[l]) for l in range(m - 1, 0, -1)]
    return out + [("1", powers[0])] + [(c, _groth_char(alg, c))
                                       for c in ("lam", "chi", "lamchi")]


def _x2_basis(alg, powers=None):
    half = (alg.group.size // 4 - 1) // 2
    powers = powers or _x_powers(alg, half)
    chi = _groth_char(alg, "chi")
    out = [("1", powers[0]), ("lam", _groth_char(alg, "lam")),
           ("chi", chi), ("lamchi", _groth_char(alg, "lamchi"))]
    out += [(_power_name("x", l), powers[l]) for l in range(1, half + 1)]
    out += [(_power_name("chi*x", l), ring_mul(chi, powers[l]))
            for l in range(1, half + 1)]
    return out


def _solve(basis, targets):
    """Integer coordinates of each target in the basis, as (name, integer)
    lists: [basis columns | target columns] is row-reduced over Q in one
    sp_rref call, one row per label."""
    n = len(basis)
    columns = [e.coeffs for _, e in basis] + [t.coeffs for t in targets]
    keys = sorted({k for col in columns for k in col}, key=str)
    rows = [{c: Cyclotomic.rational(1, col[k]) for c, col in enumerate(columns)
             if col.get(k)} for k in keys]
    rows, pivots = sp_rref(rows, len(columns))
    if pivots[:n] != list(range(n)):
        raise InternalInconsistency("requested basis is linearly dependent")
    if len(pivots) > n:
        raise UnsupportedLabel("element lies outside the span of the requested basis")
    out = []
    for j in range(n, len(columns)):
        coords = []
        for (name, _), row in zip(basis, rows):
            v = row.get(j)
            if v is not None and v.den != 1:
                raise InternalInconsistency("basis solve gave a non-integer coefficient")
            coords.append((name, v.num[0] if v is not None else 0))
        out.append(coords)
    return out


def _evaluate(alg, basis, pairs) -> RingElement:
    """The Grothendieck element sum c * basis[name] over (name, c) pairs."""
    out = Counter()
    for name, c in pairs:
        if name not in basis:
            raise InvalidParameter(f"{name!r} is not a power basis element")
        for lab, v in basis[name].coeffs.items():
            out[lab] += c * v
    return RingElement(GROTH, alg, out)


def _group_ring_coords(a: RingElement, which, build):
    _require_dihedral(a.alg)
    if a.ring != GROTH:
        raise RingMismatch("x-basis conversion takes a Grothendieck element")
    for lab in a.coeffs:
        if lab.kind != NIL:
            raise UnsupportedLabel(
                f"{_term_text(a.alg, GROTH, lab)} is not a group simple; the {which} "
                "basis covers only the group-ring part")
    return _solve(build(a.alg), [a])[0]


def groth_to_x_basis(a: RingElement):
    """Coordinates in the power basis X_1, as (name, integer) pairs in the
    order x^(m-1), ..., x, 1, lam, chi, lamchi."""
    return _group_ring_coords(a, "power", _x1_basis)


def groth_to_x2_basis(a: RingElement):
    """Coordinates in the halved basis, as ordered (name, integer) pairs."""
    return _group_ring_coords(a, "halved", _x2_basis)


def _int_coeff(num, den, binom) -> int:
    # the displayed fractions are integers; fail loudly if not
    v = Rational(num, den) * binom
    if v != int(v):
        raise InternalInconsistency(
            f"expected an integer coefficient, got {num}/{den}*{binom}")
    return int(v)


def f_poly(alg):
    """The X_1 form of chi*x by its closed formula, as (name, integer) pairs."""
    _require_dihedral(alg)
    m = alg.group.size // 4
    out = [(_power_name("x", m - 1 - 2 * k),
            (-1) ** k * _int_coeff(m - 1, m - 1 - k, comb(m - 1 - k, k)))
           for k in range((m - 1) // 2)]
    sign = (-1) ** ((m - 1) // 2)
    return out + [("1", sign), ("lam", sign)]


def g_poly(alg):
    """The X_1 form of x^m by its closed formula, as (name, integer) pairs."""
    _require_dihedral(alg)
    m = alg.group.size // 4
    out = [(_power_name("x", m - 2 * k),
            (-1) ** (k - 1) * _int_coeff(m, m - 2 * k, comb(m - 1 - k, k)))
           for k in range(1, (m - 1) // 2 + 1)]
    return out + [("chi", 1), ("lamchi", 1)]


# -- presentation verification ---------------------------------------------------

def _unimodular(rows) -> bool:
    """det = +-1 for a square integer matrix.

    rows: integer dicts keyed by arbitrary hashable basis labels.  An
    integer matrix has det +-1 exactly when it is invertible and its
    inverse is integral, so [M | I] is reduced and the right half read off.
    """
    keys = sorted({k for row in rows for k in row}, key=str)
    n = len(keys)
    if n != len(rows):
        return False
    idx = {k: j for j, k in enumerate(keys)}
    one = Cyclotomic.one(1)
    augmented = [{idx[k]: Cyclotomic.rational(1, v) for k, v in row.items() if v}
                 | {n + r: one} for r, row in enumerate(rows)]
    reduced, pivots = sp_rref(augmented, 2 * n)
    if pivots != list(range(n)):
        return False
    return all(v.den == 1 for row in reduced for v in row.values())


def _green_char(alg, name):
    return green_basis(alg, IndecLabel(NIL, 1, name))


def _groth_char(alg, name):
    return to_groth(_green_char(alg, name))


class _Report:
    def __init__(self):
        self.entries = []

    def check(self, name, lhs, rhs):
        self.entries.append({
            "identity": name,
            "status": "pass" if lhs == rhs else "fail",
            "lhs": format_element(lhs),
            "rhs": format_element(rhs),
        })

    def flag(self, name, ok):
        self.entries.append({
            "identity": name,
            "status": "pass" if ok else "fail",
            "lhs": "",
            "rhs": "",
        })


def _verify_groth_kdn(alg, rep: _Report):
    m = alg.group.size // 4
    powers = _x_powers(alg, m - 1)
    x1 = _x1_basis(alg, powers)
    basis = dict(x1)
    x = powers[1]
    lam = _groth_char(alg, "lam")
    chi = _groth_char(alg, "chi")
    rep.check("lam*x == x", ring_mul(lam, x), x)
    rep.check("chi*x == f(x)", ring_mul(chi, x), _evaluate(alg, basis, f_poly(alg)))
    rep.check("x^m == g(x)", ring_mul(powers[m - 1], x),
              _evaluate(alg, basis, g_poly(alg)))
    # the power basis is a basis: rewriting each simple and evaluating the
    # coordinates gives the simple back
    simples = [groth_basis(alg, IndecLabel(NIL, 1, simple.label))
               for simple in alg.simples]
    rep.flag("power basis round trip",
             all(_evaluate(alg, basis, coords) == e
                 for coords, e in zip(_solve(x1, simples), simples)))
    # the halved basis {1, lam, chi, lamchi, x^l, chi*x^l} is unimodular
    rows = [dict(e.coeffs) for _, e in _x2_basis(alg, powers)]
    rep.flag("halved power basis is unimodular", _unimodular(rows))


def _verify_groth_h(alg, rep: _Report, betas):
    chi = _groth_char(alg, "chi")
    two_chi_unit = (unit(alg, GROTH) + chi).scale(2)
    ys = {b: groth_basis(alg, IndecLabel(EIG, 1, "eps", b)) for b in betas}
    for b in betas:
        rep.check(f"chi*y[{b.to_literal()}] == y[{b.to_literal()}]",
                  ring_mul(chi, ys[b]), ys[b])
    for a in betas:
        for b in betas:
            sll = a.to_literal()
            slr = b.to_literal()
            total = a + b
            if not total:
                rep.check(f"y[{sll}]*y[{slr}] == 2*(1 + chi)",
                          ring_mul(ys[a], ys[b]), two_chi_unit)
            elif total in betas:
                rep.check(f"y[{sll}]*y[{slr}] == 2*y[{total.to_literal()}]",
                          ring_mul(ys[a], ys[b]), ys[total].scale(2))
    # finite check of the free-part basis: {lam*y_b, x^l*y_b} per eigenvalue
    powers = _x_powers(alg, (alg.group.size // 4 - 1) // 2)
    lam = _groth_char(alg, "lam")
    ok = True
    for b in betas:
        rows = [dict(ring_mul(lam, ys[b]).coeffs), dict(ys[b].coeffs)]
        rows += [dict(ring_mul(p, ys[b]).coeffs) for p in powers[1:]]
        if not _unimodular(rows):
            ok = False
    rep.flag("free-part basis is unimodular per eigenvalue", ok)


def _nil_support_bound(elt, bound) -> bool:
    return all(lab.kind == NIL and lab.t <= bound for lab in elt.coeffs)


def _eig_support_bound(elt, bound, beta) -> bool:
    return all(lab.kind == EIG and lab.t <= bound and lab.beta == beta
               for lab in elt.coeffs)


def _verify_green_r(alg, rep: _Report, t_max):
    y = green_basis(alg, IndecLabel(NIL, 2, "eps"))
    z = green_basis(alg, IndecLabel(NIL, 3, "eps"))
    chi = _green_char(alg, "chi")
    rep.check("y^2 == (1 + chi)*y",
              ring_mul(y, y), ring_mul(unit(alg, GREEN) + chi, y))
    for t in range(2, t_max + 1):
        vt = green_basis(alg, IndecLabel(NIL, t, "eps"))
        vt_chi = green_basis(alg, IndecLabel(NIL, t, "chi"))
        if t % 2 == 0:
            rep.check(f"y*V[{t}](eps) == V[{t}](eps) + V[{t}](chi)",
                      ring_mul(y, vt), vt + vt_chi)
        else:
            rep.check(
                f"y*V[{t}](eps) == V[{t+1}](eps) + V[{t-1}](chi)",
                ring_mul(y, vt),
                green_basis(alg, IndecLabel(NIL, t + 1, "eps"))
                + green_basis(alg, IndecLabel(NIL, t - 1, "chi")))
        if t >= 3:
            rep.check(
                f"z*V[{t}](eps) == V[{t+2}](eps) + V[{t-2}](eps) + V[{t}](chi)",
                ring_mul(z, vt),
                green_basis(alg, IndecLabel(NIL, t + 2, "eps"))
                + green_basis(alg, IndecLabel(NIL, t - 2, "eps")) + vt_chi)
    zt = unit(alg, GREEN)
    for t in range(t_max + 1):
        lead = green_basis(alg, IndecLabel(NIL, 2 * t + 1, "eps"))
        rep.flag(f"z^{t} - V[{2*t+1}](eps) supported below length {2*t}",
                 _nil_support_bound(zt - lead, max(2 * t - 1, 0)))
        lead = green_basis(alg, IndecLabel(NIL, 2 * t + 2, "eps"))
        rep.flag(f"y*z^{t} - V[{2*t+2}](eps) supported below length {2*t+1}",
                 _nil_support_bound(ring_mul(y, zt) - lead, 2 * t))
        zt = ring_mul(zt, z)


def _verify_green_h(alg, rep: _Report, betas, t_max):
    y = green_basis(alg, IndecLabel(NIL, 2, "eps"))
    z = green_basis(alg, IndecLabel(NIL, 3, "eps"))
    chi = _green_char(alg, "chi")
    ws = {b: green_basis(alg, IndecLabel(EIG, 1, "eps", b)) for b in betas}
    chi_y = ring_mul(unit(alg, GREEN) + chi, y)
    for b in betas:
        lit = b.to_literal()
        rep.check(f"chi*w[{lit}] == w[{lit}]", ring_mul(chi, ws[b]), ws[b])
        rep.check(f"y*w[{lit}] == 2*w[{lit}]", ring_mul(y, ws[b]),
                  ws[b].scale(2))
    for a in betas:
        for b in betas:
            sll, slr = a.to_literal(), b.to_literal()
            total = a + b
            if not total:
                rep.check(f"w[{sll}]*w[{slr}] == (1 + chi)*y",
                          ring_mul(ws[a], ws[b]), chi_y)
            elif total in betas:
                rep.check(f"w[{sll}]*w[{slr}] == 2*w[{total.to_literal()}]",
                          ring_mul(ws[a], ws[b]), ws[total].scale(2))
    for b in betas:
        lit = b.to_literal()
        zl = unit(alg, GREEN)
        for l in range(1, t_max + 1):
            zl = ring_mul(zl, z)
            lead = green_basis(alg, IndecLabel(EIG, l + 1, "eps", b))
            rep.flag(
                f"z^{l}*w[{lit}] - V[{l+1}](eps;{lit}) supported below length {l+1}",
                _eig_support_bound(ring_mul(zl, ws[b]) - lead, l, b))


def verify_presentation(alg, which="combined", betas=(), t_max=6) -> dict:
    """Recompute the defining relations of the ring presentations.

    which selects a suite: group-ring part (groth_kDn), full Grothendieck
    ring (groth_H), string subring (green_R), full Green ring (green_H),
    or everything (combined).  betas is the finite eigenvalue test set;
    sums of eigenvalues are only tested when they land back in the set.
    t_max bounds the string lengths and powers tested; a negative t_max,
    which would silently drop checks, is rejected.
    """
    _require_dihedral(alg)
    suites = ("groth_kDn", "groth_H", "green_R", "green_H", "combined")
    if which not in suites:
        raise InvalidParameter(f"which must be one of {suites}")
    if not isinstance(t_max, int) or t_max < 0:
        raise InvalidParameter(f"t_max must be a nonnegative integer, got {t_max!r}")
    bvals = [alg.scalar(b) for b in betas]
    for b in bvals:
        if not b:
            raise InvalidParameter("eigenvalue test values must be nonzero")
    rep = _Report()
    if which in ("groth_kDn", "combined"):
        _verify_groth_kdn(alg, rep)
    if which in ("groth_H", "combined"):
        _verify_groth_h(alg, rep, bvals)
    if which in ("green_R", "combined"):
        _verify_green_r(alg, rep, t_max)
    if which in ("green_H", "combined"):
        _verify_green_h(alg, rep, bvals, t_max)
    failed = [e for e in rep.entries if e["status"] != "pass"]
    return {
        "suite": which,
        "checks": len(rep.entries),
        "failed": len(failed),
        "ok": not failed,
        "entries": rep.entries,
    }

"""Green ring and Grothendieck ring arithmetic for the extended algebra.

Elements are stored as integer combinations of canonical labels: whole
indecomposables for the Green ring, composition factors for the
Grothendieck ring.  Products extend the closed tensor rules bilinearly.
For the dihedral algebras this module also provides the polynomial views
(the x-power basis of the group-ring part and its friends) and a
verifier that recomputes every defining relation of the known
presentations inside the concrete rings.
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
from .labels import (
    EIG,
    FREE,
    NIL,
    TORSION,
    IndecLabel,
    SimpleLabel,
    canonical_simple,
    canonicalize,
    label_sort_key,
)
from .linalg import sp_rref
from .syntax import (
    BinNode, IntNode, LabelNode, NegNode, PowNode, format_label, format_signed_sum,
)

GREEN = "green"
GROTH = "groth"


class RingElement:
    """Integer combination of canonical labels in one of the two rings."""

    __slots__ = ("ring", "alg", "coeffs")

    def __init__(self, ring, alg, coeffs):
        if ring not in (GREEN, GROTH):
            raise InvalidParameter(f"unknown ring {ring!r}")
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
        if isinstance(other, int):
            return self.scale(other)
        return ring_mul(self, self._compat(other))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise InvalidParameter("powers must be nonnegative integers")
        out = unit(self.alg, self.ring)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring == other.ring
                and self.alg == other.alg and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"<{self.ring} {format_element(self)}>"

    def sorted_items(self):
        return sorted(self.coeffs.items(),
                      key=lambda kv: label_sort_key(self.alg, kv[0]))


def green_basis(alg, label) -> RingElement:
    label = canonicalize(alg, label.kind, label.t, label.i, label.beta)
    return RingElement(GREEN, alg, {label: 1})


def groth_basis(alg, simple) -> RingElement:
    simple = canonical_simple(alg, simple.kind, simple.i, simple.beta)
    return RingElement(GROTH, alg, {simple: 1})


def unit(alg, ring) -> RingElement:
    triv = alg.simples[0].label
    if alg.simple(triv).dim != 1:
        raise InternalInconsistency("first simple is not the trivial one")
    if ring == GREEN:
        return RingElement(GREEN, alg, {IndecLabel(NIL, 1, triv): 1})
    return RingElement(GROTH, alg, {SimpleLabel(TORSION, triv): 1})


def _lift(simple) -> IndecLabel:
    # minimal indecomposable with the given simple on top
    if simple.kind == TORSION:
        return IndecLabel(NIL, 1, simple.i)
    return IndecLabel(EIG, 1, simple.i, simple.beta)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Bilinear product; the Grothendieck ring multiplies composition factors."""
    b = a._compat(b)
    alg = a.alg
    out = Counter()
    if a.ring == GREEN:
        for la, ca in a.coeffs.items():
            for lb, cb in b.coeffs.items():
                for lab, k in tensor_labels(alg, la, lb).items():
                    out[lab] += ca * cb * k
        return RingElement(GREEN, alg, out)
    for sa, ca in a.coeffs.items():
        for sb, cb in b.coeffs.items():
            for lab, k in tensor_labels(alg, _lift(sa), _lift(sb)).items():
                for fac, n in comp_factors(alg, lab).items():
                    out[fac] += ca * cb * k * n
    return RingElement(GROTH, alg, out)


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

def _term_text(alg, label) -> str:
    if isinstance(label, SimpleLabel):
        if label.kind == TORSION and alg.simple(label.i).dim == 1 \
                and isinstance(label.i, str):
            return "1" if label.i == alg.simples[0].label else label.i
        label = _lift(label)
    return format_label(label)


def format_element(elt: RingElement) -> str:
    """Deterministic text form, e.g. '1 + lam + V[1](2)' or '2*V[2](eps;1)'."""
    terms = []
    for label, c in elt.sorted_items():
        body = _term_text(elt.alg, label)
        mag = abs(c)
        if body == "1":
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        terms.append((c < 0, text))
    return format_signed_sum(terms)


# -- expression evaluation ------------------------------------------------------

def eval_expr(alg, node, ring) -> RingElement:
    """Evaluate a parsed expression tree in the chosen ring."""
    if isinstance(node, IntNode):
        return unit(alg, ring).scale(node.value)
    if isinstance(node, LabelNode):
        g = green_basis(alg, node.label)
        return g if ring == GREEN else to_groth(g)
    if isinstance(node, NegNode):
        return -eval_expr(alg, node.arg, ring)
    if isinstance(node, PowNode):
        return eval_expr(alg, node.base, ring) ** node.power
    if isinstance(node, BinNode):
        left = eval_expr(alg, node.left, ring)
        right = eval_expr(alg, node.right, ring)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    raise InvalidParameter(f"not an expression node: {node!r}")


# -- the x-power basis of the group-ring part ----------------------------------

CHARS = ("eps", "lam", "chi", "lamchi")


def _require_dihedral(alg):
    if alg.kind != "dihedral":
        raise InvalidParameter("polynomial bases exist for the dihedral family")


class Poly:
    """Polynomial in x with coefficients in the character group ring.

    terms maps degree -> {character label: integer}.  This is the X_1
    display form of group-ring classes: 1, lam, chi, lamchi, x, ..., x^(m-1).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        clean = {}
        for deg, coeff in dict(terms).items():
            keep = {c: v for c, v in coeff.items() if v}
            bad = [c for c in keep if c not in CHARS]
            if bad:
                raise InvalidParameter(f"not character labels: {bad}")
            if keep:
                clean[deg] = keep
        self.terms = clean

    @classmethod
    def monomial(cls, deg, char="eps", coeff=1):
        return cls({deg: {char: coeff}})

    def __add__(self, other):
        out = {d: dict(c) for d, c in self.terms.items()}
        for d, coeff in other.terms.items():
            tgt = out.setdefault(d, {})
            for c, v in coeff.items():
                tgt[c] = tgt.get(c, 0) + v
        return Poly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return Poly({d: {c: k * v for c, v in coeff.items()}
                     for d, coeff in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max(self.terms, default=-1)

    def __repr__(self):
        return f"Poly({self.format()!r})"

    def format(self) -> str:
        terms = []
        for deg in sorted(self.terms, reverse=True):
            coeff = self.terms[deg]
            for char in CHARS:
                v = coeff.get(char, 0)
                if not v:
                    continue
                bits = []
                if abs(v) != 1 or (char == "eps" and deg == 0):
                    bits.append(str(abs(v)))
                if char != "eps":
                    bits.append(char)
                if deg == 1:
                    bits.append("x")
                elif deg > 1:
                    bits.append(f"x^{deg}")
                terms.append((v < 0, "*".join(bits)))
        return format_signed_sum(terms)


def _int_coeff(num, den, binom) -> int:
    # the displayed fractions are integers; fail loudly if not
    v = Rational(num, den) * binom
    if v != int(v):
        raise InternalInconsistency(
            f"expected an integer coefficient, got {num}/{den}*{binom}")
    return int(v)


def simple_to_x(alg, i) -> Poly:
    """X_1 coordinates of one group simple class."""
    _require_dihedral(alg)
    alg.require_label(i)
    if isinstance(i, str):
        return Poly.monomial(0, i)
    l = i
    if l % 2:
        r = (l + 1) // 2
        out = Poly()
        for k in range(r):
            c = _int_coeff(2 * r - 1, 2 * r - 1 - 2 * k, comb(2 * r - 2 - k, k))
            out += Poly.monomial(2 * r - 1 - 2 * k, coeff=(-1) ** k * c)
        return out
    r = l // 2
    out = Poly()
    for k in range(r):
        c = _int_coeff(2 * r, 2 * r - k, comb(2 * r - k, k))
        out += Poly.monomial(2 * r - 2 * k, coeff=(-1) ** k * c)
    sign = (-1) ** r
    out += Poly.monomial(0, "eps", sign) + Poly.monomial(0, "lam", sign)
    return out


def groth_to_x_basis(a: RingElement) -> Poly:
    """Rewrite a group-ring Grothendieck element in the power basis."""
    _require_dihedral(a.alg)
    if a.ring != GROTH:
        raise RingMismatch("x-basis conversion takes a Grothendieck element")
    out = Poly()
    for lab, c in a.coeffs.items():
        if lab.kind != TORSION:
            raise UnsupportedLabel(
                f"{_term_text(a.alg, lab)} is not a group simple; the power "
                "basis covers only the group-ring part")
        out += simple_to_x(a.alg, lab.i).scale(c)
    return out


def x_basis_to_groth(alg, p: Poly) -> RingElement:
    """Evaluate an x-polynomial in the Grothendieck ring (any degree)."""
    _require_dihedral(alg)
    out = RingElement(GROTH, alg, {})
    xpow = unit(alg, GROTH)
    x = _groth_char(alg, 1)
    top = p.degree()
    for deg in range(top + 1):
        coeff = p.terms.get(deg, {})
        for char, v in coeff.items():
            if not v:
                continue
            cls = to_groth(green_basis(alg, IndecLabel(NIL, 1, char)))
            out = out + ring_mul(cls, xpow).scale(v)
        if deg < top:
            xpow = ring_mul(xpow, x)
    return out


def f_poly(alg) -> Poly:
    """The X_1 form of chi*x."""
    _require_dihedral(alg)
    m = alg.group.size // 4
    out = Poly()
    for k in range((m - 1) // 2):
        c = _int_coeff(m - 1, m - 1 - k, comb(m - 1 - k, k))
        out += Poly.monomial(m - 1 - 2 * k, coeff=(-1) ** k * c)
    sign = (-1) ** ((m - 1) // 2)
    return out + Poly.monomial(0, "eps", sign) + Poly.monomial(0, "lam", sign)


def g_poly(alg) -> Poly:
    """The X_1 form of x^m."""
    _require_dihedral(alg)
    m = alg.group.size // 4
    out = Poly()
    for k in range(1, (m - 1) // 2 + 1):
        c = _int_coeff(m, m - 2 * k, comb(m - 1 - k, k))
        out += Poly.monomial(m - 2 * k, coeff=(-1) ** (k - 1) * c)
    return out + Poly.monomial(0, "chi", 1) + Poly.monomial(0, "lamchi", 1)


def binomial_power_decomposition(alg, l) -> RingElement:
    """Closed multiset form of x^l in the Grothendieck ring, l <= m-1."""
    _require_dihedral(alg)
    m = alg.group.size // 4
    if not 1 <= l <= m - 1:
        raise InvalidParameter(f"need 1 <= l <= {m - 1}, got {l}")
    out = Counter()
    if l % 2:
        r = (l + 1) // 2
        for j in range(1, r + 1):
            out[SimpleLabel(TORSION, 2 * j - 1)] += comb(2 * r - 1, r - j)
    else:
        r = l // 2
        out[SimpleLabel(TORSION, "eps")] += comb(2 * r - 1, r - 1)
        out[SimpleLabel(TORSION, "lam")] += comb(2 * r - 1, r - 1)
        for j in range(1, r + 1):
            out[SimpleLabel(TORSION, 2 * j)] += comb(2 * r, r - j)
    return RingElement(GROTH, alg, out)


def x2_basis_elements(alg):
    """The halved basis {1, lam, chi, lamchi, x^l, chi*x^l : 1 <= l <= (m-1)/2}
    as (display name, Grothendieck element) pairs, in that order."""
    _require_dihedral(alg)
    half = (alg.group.size // 4 - 1) // 2
    chi = _groth_char(alg, "chi")
    x = _groth_char(alg, 1)
    powers = [unit(alg, GROTH)]
    for _ in range(half):
        powers.append(ring_mul(powers[-1], x))
    out = [("1", powers[0]), ("lam", _groth_char(alg, "lam")),
           ("chi", chi), ("lamchi", _groth_char(alg, "lamchi"))]
    out += [("x" if l == 1 else f"x^{l}", powers[l]) for l in range(1, half + 1)]
    out += [("chi*x" if l == 1 else f"chi*x^{l}", ring_mul(chi, powers[l]))
            for l in range(1, half + 1)]
    return out


def groth_to_x2_basis(a: RingElement):
    """Coordinates in the halved basis, as ordered (name, integer) pairs."""
    _require_dihedral(a.alg)
    if a.ring != GROTH:
        raise RingMismatch("x-basis conversion takes a Grothendieck element")
    for lab in a.coeffs:
        if lab.kind != TORSION:
            raise UnsupportedLabel(
                f"{_term_text(a.alg, lab)} is not a group simple; the halved "
                "basis covers only the group-ring part")
    basis = x2_basis_elements(a.alg)
    # Row-reduce [basis columns | target] over Q: one row per label.
    n = len(basis)
    columns = [e.coeffs for _, e in basis] + [a.coeffs]
    keys = sorted({k for col in columns for k in col}, key=str)
    rows = [{c: Cyclotomic.rational(1, col[k]) for c, col in enumerate(columns)
             if col.get(k)} for k in keys]
    rows, pivots = sp_rref(rows, n + 1)
    if pivots[:n] != list(range(n)):
        raise InternalInconsistency("requested basis is linearly dependent")
    if n in pivots:
        raise UnsupportedLabel("element lies outside the span of the requested basis")
    out = []
    for (name, _), row in zip(basis, rows):
        v = row[n].rational_value() if n in row else 0
        if v.denominator != 1:
            raise InternalInconsistency("basis solve gave a non-integer coefficient")
        out.append((name, int(v)))
    return out


def format_basis_coords(pairs) -> str:
    """Signed sum text for (name, coefficient) pairs; zeros dropped."""
    terms = []
    for name, c in pairs:
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 and name != "1" else (
            str(mag) if name == "1" else f"{mag}*{name}")
        terms.append((c < 0, body))
    return format_signed_sum(terms)


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
    return all(v.rational_value().denominator == 1
               for row in reduced for v in row.values())


def _green_char(alg, name):
    return green_basis(alg, IndecLabel(NIL, 1, name))


def _groth_char(alg, name):
    return to_groth(_green_char(alg, name))


class _Report:
    def __init__(self):
        self.entries = []

    def check(self, name, lhs, rhs):
        same = lhs == rhs
        fmt = (lambda v: v.format() if isinstance(v, Poly)
               else format_element(v) if isinstance(v, RingElement) else str(v))
        self.entries.append({
            "identity": name,
            "status": "pass" if same else "fail",
            "lhs": fmt(lhs),
            "rhs": fmt(rhs),
        })

    def flag(self, name, ok, detail=""):
        self.entries.append({
            "identity": name,
            "status": "pass" if ok else "fail",
            "lhs": detail,
            "rhs": "",
        })


def _verify_groth_kdn(alg, rep: _Report):
    x = _groth_char(alg, 1)
    lam = _groth_char(alg, "lam")
    chi = _groth_char(alg, "chi")
    rep.check("lam*x == x", ring_mul(lam, x), x)
    rep.check("chi*x == f(x)", ring_mul(chi, x), x_basis_to_groth(alg, f_poly(alg)))
    m = alg.group.size // 4
    rep.check("x^m == g(x)", x ** m, x_basis_to_groth(alg, g_poly(alg)))
    # the power basis is a basis: rewriting is inverse to evaluation
    ok = True
    for simple in alg.simples:
        e = groth_basis(alg, SimpleLabel(TORSION, simple.label))
        if x_basis_to_groth(alg, groth_to_x_basis(e)) != e:
            ok = False
    # the basis has characters at degree 0 only, pure powers above
    for char in CHARS:
        p = Poly.monomial(0, char)
        if groth_to_x_basis(x_basis_to_groth(alg, p)) != p:
            ok = False
    for deg in range(1, m):
        p = Poly.monomial(deg)
        if groth_to_x_basis(x_basis_to_groth(alg, p)) != p:
            ok = False
    rep.flag("power basis round trip", ok)
    # the halved basis {1, lam, chi, lamchi, x^l, chi*x^l} is unimodular
    rows = [dict(e.coeffs) for _, e in x2_basis_elements(alg)]
    rep.flag("halved power basis is unimodular", _unimodular(rows))


def _verify_groth_h(alg, rep: _Report, betas):
    chi = _groth_char(alg, "chi")
    two_chi_unit = (unit(alg, GROTH) + chi).scale(2)
    ys = {b: groth_basis(alg, SimpleLabel(FREE, "eps", b)) for b in betas}
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
    m = alg.group.size // 4
    x = _groth_char(alg, 1)
    lam = _groth_char(alg, "lam")
    ok = True
    for b in betas:
        rows = [dict(ring_mul(lam, ys[b]).coeffs)]
        cur = ys[b]
        rows.append(dict(cur.coeffs))
        for _ in range(1, (m - 1) // 2 + 1):
            cur = ring_mul(x, cur)
            rows.append(dict(cur.coeffs))
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

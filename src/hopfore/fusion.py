"""Closed-form tensor product rules on indecomposable labels.

Every product of indecomposables splits into indecomposables again, and
the multiset of summands is given by explicit index formulas.  These are
implemented here symbolically; no module matrices are built.  The matrix
route (modules.tensor followed by decompose.decompose) computes the same
multiset independently, which is what the differential tests exploit.

canonicalize validates only the two input labels.  Each summand is built
as an IndecLabel from parts the rule has already checked: a constituent l
of alg.fusion, its sigma powers or its orbit representative, a length the
index formulas keep positive, and for Eig summands an eigenvalue known to
be nonzero (an input's beta times a root of unity, or a sum under `if`).
The summands' total dimension is still checked against the product of the
inputs' dimensions.
"""

from collections import Counter

from .errors import InternalInconsistency, NotFusionReady
from .labels import (
    EIG,
    FREE,
    NIL,
    TORSION,
    IndecLabel,
    SimpleLabel,
    canonical_simple,
    canonicalize,
    label_dim,
    multiset_dim,
)


def _require_ready(alg):
    if not alg.fusion_ready:
        raise NotFusionReady(
            "closed tensor formulas need the order of q to equal the order "
            "of the character (got |q|=%s, s=%s)"
            % (alg.q.multiplicative_order(), alg.s)
        )


def _recanon(alg, label):
    # accept non-canonical input labels; canonicalize is idempotent
    return canonicalize(alg, label.kind, label.t, label.i, beta=label.beta)


def _nil_nil_terms(s, n, t):
    """Summand shapes for a product of two nilpotent strings.

    Returns a list of (T, u) pairs: one summand V_T(sigma^u(l)) for each
    pair and each composition factor l of the underlying simple product.
    Requires n >= t >= 1.  The last block in the overhang case starts at
    u = max(p, p').
    """
    if n < t:
        raise ValueError("need n >= t")
    rn, pn = divmod(n, s)
    rt, pt = divmod(t, s)
    terms = []
    if pt + pn <= s:
        if pt <= pn:
            blocks = [
                (rt + 1, range(0, pt), None),
                (rt, range(pt, pn), (rt + rn) * s),
                (rt, range(pn, pt + pn), None),
                (rt, range(pt + pn, s), (rt + rn - 1) * s),
            ]
        else:
            blocks = [
                (rt + 1, range(0, pn), None),
                (rt + 1, range(pn, pt), (rt + rn) * s),
                (rt, range(pt, pt + pn), None),
                (rt, range(pt + pn, s), (rt + rn - 1) * s),
            ]
    else:
        mbar = pt + pn - s - 1
        if pt <= pn:
            blocks = [
                (rt + 1, range(0, mbar + 1), (rt + rn + 1) * s),
                (rt + 1, range(mbar + 1, pt), None),
                (rt, range(pt, pn), (rt + rn) * s),
                (rt, range(max(pt, pn), s), None),
            ]
        else:
            blocks = [
                (rt + 1, range(0, mbar + 1), (rt + rn + 1) * s),
                (rt + 1, range(mbar + 1, pn), None),
                (rt + 1, range(pn, pt), (rt + rn) * s),
                (rt, range(max(pt, pn), s), None),
            ]
    for m_count, u_range, even_top in blocks:
        for m in range(m_count):
            for u in u_range:
                if even_top is None:
                    T = n + t - 1 - 2 * m * s - 2 * u
                else:
                    T = even_top - 2 * m * s
                if T <= 0:
                    raise InternalInconsistency(
                        "string product produced a nonpositive length "
                        "T=%d at (n=%d, t=%d, m=%d, u=%d)" % (T, n, t, m, u)
                    )
                terms.append((T, u))
    return terms


def _tensor_nil_nil(alg, left, right):
    n, i = left.t, left.i
    t, j = right.t, right.i
    if n < t:
        n, t = t, n
        i, j = j, i
    terms = _nil_nil_terms(alg.s, n, t)
    out = Counter()
    for l, mult in alg.fusion[(i, j)].items():
        for T, u in terms:
            out[IndecLabel(NIL, T, alg.sigma_power(l, u))] += mult
    return out


def _tensor_nil_eig(alg, nil, eig, twist):
    # twist is the scalar applied to the eigenvalue: 1 when the string
    # factor sits on the left, omega_i^s when it sits on the right; a root
    # of unity, so beta stays nonzero
    s = alg.s
    u, r = divmod(nil.t, s)
    t = eig.t
    beta = eig.beta * twist
    # lengths 2k - 1 + |t - u| for k = 1..min(t, u), then the same with
    # u + 1 in place of u for the r leftover steps
    out = Counter()
    for l, mult in alg.fusion[(nil.i, eig.i)].items():
        rep = alg.orbit_rep[l]
        for T in range(abs(t - u) + 1, t + u, 2):
            out[IndecLabel(EIG, T, rep, beta)] += mult * (s - r)
        if r:
            for T in range(abs(t - u - 1) + 1, t + u + 1, 2):
                out[IndecLabel(EIG, T, rep, beta)] += mult * r
    return out


def _tensor_eig_eig(alg, left, right):
    p, t = left.t, right.t
    s = alg.s
    value = alg.omega_s(right.i) * left.beta + right.beta
    lengths = range(abs(p - t) + 1, p + t, 2)  # 2u - 1 + |p - t|, u <= min(p, t)
    out = Counter()
    for l, mult in alg.fusion[(left.i, right.i)].items():
        if value:
            # orbit_rep is constant on the sigma-orbit of l, so the s
            # constituents sigma^m(l) give one label
            rep = alg.orbit_rep[l]
            for T in lengths:
                out[IndecLabel(EIG, T, rep, value)] += s * mult
        else:
            for m in range(s):
                lm = alg.sigma_power(l, m)
                for T in lengths:
                    out[IndecLabel(NIL, s * T, lm)] += mult
    return out


def tensor_labels(alg, left, right):
    """Decompose the tensor product of two indecomposables symbolically.

    Returns a Counter mapping canonical IndecLabels to multiplicities.
    """
    _require_ready(alg)
    left = _recanon(alg, left)
    right = _recanon(alg, right)
    if left.kind == NIL and right.kind == NIL:
        out = _tensor_nil_nil(alg, left, right)
    elif left.kind == NIL:
        out = _tensor_nil_eig(alg, left, right, alg.one())
    elif right.kind == NIL:
        out = _tensor_nil_eig(alg, right, left, alg.omega_s(right.i))
    else:
        out = _tensor_eig_eig(alg, left, right)
    want = label_dim(alg, left) * label_dim(alg, right)
    got = multiset_dim(alg, out)
    if got != want:
        raise InternalInconsistency(
            "tensor of %s and %s lost dimension: %d != %d"
            % (left, right, got, want)
        )
    return out


def comp_factors(alg, label):
    """Composition factors of an indecomposable, as simple-label counts."""
    label = _recanon(alg, label)
    out = Counter()
    if label.kind == NIL:
        for l in range(label.t):
            out[SimpleLabel(TORSION, alg.sigma_power(label.i, l))] += 1
    else:
        out[canonical_simple(alg, FREE, label.i, label.beta)] += label.t
    return out

"""Closed-form tensor product rules on indecomposable labels.

Every product of indecomposables splits into indecomposables again, and
the multiset of summands is given by explicit index formulas.  These are
implemented here symbolically; no module matrices are built.  The matrix
route (modules.tensor followed by decompose.decompose) computes the same
multiset independently, which is what the differential tests exploit.
"""

from collections import Counter

from .errors import InternalInconsistency, NotFusionReady
from .labels import (
    EIG,
    FREE,
    NIL,
    TORSION,
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
    out = Counter()
    for l, mult in alg.fusion[(i, j)].items():
        for T, u in _nil_nil_terms(alg.s, n, t):
            lab = canonicalize(alg, NIL, T, alg.sigma_power(l, u))
            out[lab] += mult
    return out


def _tensor_nil_eig(alg, nil, eig, twist):
    # twist is the scalar applied to the eigenvalue: 1 when the string
    # factor sits on the left, omega_i^s when it sits on the right
    s = alg.s
    u, r = divmod(nil.t, s)
    t = eig.t
    beta = eig.beta * twist
    out = Counter()
    for l, mult in alg.fusion[(nil.i, eig.i)].items():
        for m in range(1, min(t, u) + 1):
            lab = canonicalize(alg, EIG, 2 * m - 1 + abs(t - u), l, beta)
            out[lab] += mult * (s - r)
        if r:
            for m in range(1, min(t, u + 1) + 1):
                lab = canonicalize(alg, EIG, 2 * m - 1 + abs(t - u - 1), l, beta)
                out[lab] += mult * r
    return out


def _tensor_eig_eig(alg, left, right):
    p, t = left.t, right.t
    value = alg.omega_s(right.i) * left.beta + right.beta
    out = Counter()
    for l, mult in alg.fusion[(left.i, right.i)].items():
        for m in range(alg.s):
            lm = alg.sigma_power(l, m)
            for u in range(1, min(p, t) + 1):
                if value:
                    lab = canonicalize(alg, EIG, 2 * u - 1 + abs(p - t), lm, value)
                else:
                    lab = canonicalize(alg, NIL, alg.s * (2 * u - 1 + abs(p - t)), lm)
                out[lab] += mult
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

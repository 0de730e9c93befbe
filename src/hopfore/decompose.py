"""Exact decomposition of explicit modules into indecomposable labels.

The algorithm follows the structure theory.  x^s is central, so the module
splits into generalized eigenspaces of X = x^s; the candidate eigenvalues
come from the module's provenance (plus 0 and any caller extras), and a
dimension count certifies the pool caught everything.  On the eigenvalue-0
part the operator N = x is nilpotent; on the others N = X - beta is.  In
both cases the subspaces K_j = ker(N) intersect im(N^j) are modules over
the group, and their isotypic multiplicities count strings:

  multiplicity of Nil(t, i)        = mu_{t-1}(sigma^{t-1}(i)) - mu_t(sigma^{t-1}(i))
  multiplicity of Eig(r, [i], b)   = mu_{r-1}(rep) - mu_r(rep)

where mu_j(c) is the multiplicity of the simple c inside K_j.  A final
cross-check recomputes the group-level isotypic decomposition from the
labels and compares it against the module itself.

Multiplicities come from characters, which are class functions, so group
actions, their restrictions and their traces are taken at one
representative per conjugacy class (GroupData.classes) and weighted by
AlgebraData.class_weights.  That is only valid for representations: the
input module must be one, which validate() checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cyclotomic import Cyclotomic
from .errors import (
    CandidatePoolIncomplete,
    InternalInconsistency,
    NonIntegerMultiplicity,
    NotFusionReady,
)
from .groups import AlgebraData
from .labels import IndecLabel, NIL, EIG, label_dim, multiset_dim, sorted_items
from .linalg import (
    sp_apply_basis,
    sp_column_echelon,
    sp_intersect,
    sp_kernel,
    sp_matmul,
    sp_preimage,
    sp_restrict,
    sp_scalar_shift,
    sp_trace_restrict,
)
from .modules import ExplicitModule


@dataclass(frozen=True)
class DecompResult:
    """Multiset of indecomposable labels plus bookkeeping."""

    multiset: tuple  # ((IndecLabel, multiplicity), ...) in canonical order
    total_dim: int
    eigenvalues_found: tuple

    def counter(self) -> Counter:
        return Counter(dict(self.multiset))

    def to_json_dict(self) -> dict:
        out = []
        for lab, mult in self.multiset:
            entry = {"kind": lab.kind, "t": lab.t, "i": lab.i, "mult": mult}
            if lab.beta is not None:
                entry["beta"] = lab.beta.to_literal()
            out.append(entry)
        return {
            "summands": out,
            "total_dim": self.total_dim,
            "eigenvalues": [v.to_literal() for v in self.eigenvalues_found],
        }


def isotypic_multiplicities(m: ExplicitModule) -> dict:
    """Multiplicity of each simple inside m as a module over the group.

    m must be a representation of the group (validate() checks this): the
    traces are taken at the conjugacy class representatives only.  Many
    non-representations still fail here with NonIntegerMultiplicity, but
    not all of them need to.
    """
    alg = m.alg
    traces = [m.element_action(g).trace() for g, _ in alg.group.classes]
    return _isotypic_from_traces(alg, traces)


def _isotypic_from_traces(alg: AlgebraData, traces) -> dict:
    """Multiplicities from traces at the class representatives."""
    out = {}
    for s, weights in zip(alg.simples, alg.class_weights):
        tot = Cyclotomic.zero(alg.field_order)
        for w, tr in zip(weights, traces):
            tot = tot + w * tr
        val = tot.rational_value()
        if val is None or val.denominator != 1 or val < 0:
            raise NonIntegerMultiplicity(
                f"isotypic multiplicity of {s.label!r} came out {val}")
        if val:
            out[s.label] = int(val)
    return out


def decompose(m: ExplicitModule, extra_candidates=()) -> DecompResult:
    """Split m into indecomposable labels with multiplicities.

    The candidate eigenvalue pool is provenance | {0} | extra_candidates; if
    the generalized eigenspaces of X = x^s over the pool do not fill the
    module, CandidatePoolIncomplete reports the missing dimension.
    """
    alg = m.alg
    if not alg.fusion_ready:
        raise NotFusionReady("decomposition needs |q| = |chi|")
    order = alg.field_order
    dim = m.dim
    if dim == 0:
        return DecompResult((), 0, ())

    x_rows = m.x_action.rows
    big_x = x_rows
    for _ in range(alg.s - 1):
        big_x = sp_matmul(big_x, x_rows)

    pool = {alg.zero()} | set(m.provenance) | {alg.scalar(v) for v in extra_candidates}
    pool = sorted(pool, key=lambda v: v.sort_key())

    spaces = []  # (eigenvalue, echelon basis of the generalized eigenspace)
    covered = 0
    for c in pool:
        shifted = sp_scalar_shift(big_x, dim, c)
        basis = sp_kernel(order, shifted, dim)
        if not basis[0]:
            continue
        while True:
            bigger = sp_preimage(order, shifted, basis, dim)
            if len(bigger[0]) == len(basis[0]):
                break
            basis = bigger
        spaces.append((c, basis))
        covered += len(basis[0])

    if covered != dim:
        raise CandidatePoolIncomplete(
            f"candidate eigenvalues cover {covered} of {dim} dimensions; "
            "pass the missing eigenvalues of x^s as extra_candidates")

    element_rows = [m.element_action(g).rows for g, _ in alg.group.classes]

    labels: Counter = Counter()
    eigenvalues = []
    for c, basis in spaces:
        if c:
            eigenvalues.append(c)
        w = len(basis[0])
        if w == dim:
            # the whole module is one generalized eigenspace
            rows_w = element_rows
            nil_op = x_rows if not c else sp_scalar_shift(big_x, dim, c)
        else:
            rows_w = [sp_restrict(rows, basis) for rows in element_rows]
            inner = sp_restrict(x_rows if not c else sp_scalar_shift(big_x, dim, c),
                                basis)
            nil_op = inner
        _count_strings(alg, labels, c, nil_op, rows_w, w)

    check = Counter()
    for lab, mult in labels.items():
        d = alg.simple_by_label[lab.i].dim
        if lab.kind == NIL:
            for j in range(lab.t):
                check[alg.sigma_power(lab.i, j)] += mult
        else:
            for j in range(alg.s):
                check[alg.sigma_power(lab.i, j)] += mult * lab.t
    direct = isotypic_multiplicities(m)
    if dict(check) != direct:
        raise InternalInconsistency(
            f"isotypic content of the labels {dict(check)} "
            f"disagrees with the module {direct}")
    total = multiset_dim(alg, labels)
    if total != dim:
        raise InternalInconsistency(
            f"labels account for {total} of {dim} dimensions")

    return DecompResult(tuple(sorted_items(alg, labels)), dim, tuple(eigenvalues))


def _count_strings(alg: AlgebraData, labels: Counter, c, nil_op, rows_w, w: int):
    """Count indecomposable strings inside one generalized eigenspace."""
    order = alg.field_order
    ker = sp_kernel(order, nil_op, w)
    if not ker[0]:
        raise InternalInconsistency("nilpotent part with empty kernel")

    # K_j = ker(N) intersect im(N^j), j = 0, 1, ... until empty.
    mus = []  # mus[j] = isotypic multiplicities inside K_j
    image = ([{i: alg.one()} for i in range(w)], list(range(w)))
    k_space = ker
    j = 0
    while k_space[0]:
        mus.append(_space_isotypic(alg, rows_w, k_space))
        image = sp_column_echelon(sp_apply_basis(nil_op, image[0]), w)
        k_space = sp_intersect(order, ker, image, w)
        j += 1
        if j > w:
            raise InternalInconsistency("string counting failed to terminate")
    mus.append({})

    if not c:
        for t in range(1, len(mus)):
            for i in alg.labels:
                top = alg.sigma_power(i, t - 1)
                mult = mus[t - 1].get(top, 0) - mus[t].get(top, 0)
                if mult < 0:
                    raise InternalInconsistency(
                        f"negative multiplicity for Nil({t}, {i!r})")
                if mult:
                    labels[IndecLabel(NIL, t, i)] += mult
    else:
        for rep in alg.orbit_reps:
            orbit = next(o for o in alg.orbits if o[0] == rep or rep in o)
            for r in range(1, len(mus)):
                vals = {mus[r - 1].get(i, 0) - mus[r].get(i, 0) for i in orbit}
                if len(vals) != 1:
                    raise InternalInconsistency(
                        f"socle of the {rep!r}-orbit is unbalanced at level {r}")
                mult = vals.pop()
                if mult < 0:
                    raise InternalInconsistency(
                        f"negative multiplicity for Eig({r}, {rep!r})")
                if mult:
                    labels[IndecLabel(EIG, r, rep, c)] += mult


def _space_isotypic(alg: AlgebraData, rows_w, space) -> dict:
    # rows_w holds the actions of the class representatives.
    traces = [sp_trace_restrict(alg.field_order, rows, space) for rows in rows_w]
    return _isotypic_from_traces(alg, traces)

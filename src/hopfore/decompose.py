"""Exact decomposition of explicit modules into indecomposable labels.

The algorithm follows the structure theory.  x^s is central, so the module
splits into generalized eigenspaces of X = x^s; the candidate eigenvalues
are 0 and the module's provenance.  For a candidate c let N = x when
c = 0 and N = X - c otherwise.  The subspaces
K_j = ker(N) intersect im(N^j) are modules over the group, and their
isotypic multiplicities count the strings of eigenvalue c:

  multiplicity of Nil(t, i)        = mu_{t-1}(sigma^{t-1}(i)) - mu_t(sigma^{t-1}(i))
  multiplicity of Eig(r, [i], b)   = mu_{r-1}(rep) - mu_r(rep)

where mu_j(c) is the multiplicity of the simple c inside K_j.

The K_j are never built; their characters come from the image chain
I_0 = the whole module, I_{j+1} = N(I_j) (each a reduced row echelon
basis from sp_rref), which falls until N is invertible on I_j.  N maps
I_j onto I_{j+1} with kernel K_j, and it twists the group action:
x g = chi^{-1}(g) g x, while X commutes with the group.  So at every
group element g

  trace(g | K_j) = trace(g | I_j) - twist(g) * trace(g | I_{j+1}),

with twist = chi^{-1} for c = 0 and twist = 1 otherwise, and the
multiplicities of K_j follow from traces on the image chain alone.  By
Fitting's lemma the module is the generalized eigenspace of c plus the
last image, so dim - dim I_last is that eigenspace's dimension.  The
dimensions over the pool must add up to the module's: otherwise some
eigenvalue is missing and CandidatePoolIncomplete reports by how much.
A final cross-check recomputes the group-level isotypic decomposition
from the labels and compares it against the module itself.

Multiplicities come from characters, which are class functions, so group
actions and their traces are taken at one representative per conjugacy
class (GroupData.classes), and AlgebraData.multiplicities turns them into
multiplicities: the same inner product, with the same exactness guard,
that builds the fusion table the closed rules use, evaluated as integer
dot products of the traces' numerators with the algebra's stored form.
That is only valid for representations: the input module must be one,
which validate() checks.  On I_0, the whole module, trace(g | I_0) is the
plain trace of g's action; only the smaller images need
sp_trace_restrict.  Both sum their terms on integer numerators over one
denominator (Cyclotomic.sum).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import CandidatePoolIncomplete, InternalInconsistency, NotFusionReady
from .groups import AlgebraData
from .labels import IndecLabel, NIL, EIG, multiset_dim, sorted_items
from .linalg import sp_matmul, sp_rref, sp_scalar_shift, sp_trace_restrict
from .modules import ExplicitModule


@dataclass(frozen=True)
class DecompResult:
    """Multiset of indecomposable labels plus bookkeeping."""

    multiset: tuple  # ((IndecLabel, multiplicity), ...) in canonical order
    total_dim: int
    eigenvalues_found: tuple

    def counter(self) -> Counter:
        return Counter(dict(self.multiset))


def isotypic_multiplicities(m: ExplicitModule) -> dict:
    """Multiplicity of each simple inside m as a module over the group.

    m must be a representation of the group (validate() checks this): the
    traces are taken at the conjugacy class representatives only.  Many
    non-representations still fail here with NonIntegerMultiplicity, but
    not all of them need to.
    """
    alg = m.alg
    return alg.multiplicities(
        [m.element_action(g).trace() for g, _ in alg.group.classes])


def decompose(m: ExplicitModule) -> DecompResult:
    """Split m into indecomposable labels with multiplicities.

    The candidate eigenvalue pool is provenance | {0}; if the generalized
    eigenspaces of X = x^s over the pool do not fill the module,
    CandidatePoolIncomplete reports the missing dimension.
    """
    alg = m.alg
    if not alg.fusion_ready:
        raise NotFusionReady("decomposition needs |q| = |chi|")
    dim = m.dim
    if dim == 0:
        return DecompResult((), 0, ())

    x_rows = m.x_action.rows
    big_x = x_rows
    for _ in range(alg.s - 1):
        big_x = sp_matmul(big_x, x_rows)

    pool = {alg.zero()} | set(m.provenance)
    pool = sorted(pool, key=lambda v: v.sort_key())

    actions = [m.element_action(g) for g, _ in alg.group.classes]

    labels: Counter = Counter()
    eigenvalues = []
    covered = 0
    for c in pool:
        nil_op = sp_scalar_shift(big_x, dim, c) if c else x_rows
        found = _count_strings(alg, labels, c, nil_op, actions, dim)
        if found and c:
            eigenvalues.append(c)
        covered += found

    if covered != dim:
        raise CandidatePoolIncomplete(
            f"candidate eigenvalues cover {covered} of {dim} dimensions; "
            "add the missing eigenvalues of x^s to the module's provenance")

    check = Counter()
    for lab, mult in labels.items():
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


def _count_strings(alg: AlgebraData, labels: Counter, c, nil_op, actions,
                   dim: int) -> int:
    """Count the strings of eigenvalue c from the image chain of nil_op;
    returns the dimension of the generalized eigenspace of c.  actions
    are the group's Matrix actions at the class representatives."""
    order = alg.field_order
    classes = alg.group.classes
    if c:
        twists = [alg.one()] * len(classes)
    else:
        # x g = chi^{-1}(g) g x
        twists = [alg.chi[alg.group.inverse[g]] for g, _ in classes]

    # N's columns; a basis (as rows) times them is N applied to each vector
    columns = [{} for _ in range(dim)]
    for i, row in enumerate(nil_op):
        for k, v in row.items():
            columns[k][i] = v
    below = sp_rref(columns, dim)
    if len(below[0]) == dim:
        return 0  # N is invertible: c is not an eigenvalue of x^s
    rank, traces = dim, [a.trace() for a in actions]  # I_0 is everything
    mus = []  # mus[j] = isotypic multiplicities inside K_j
    while len(below[0]) < rank:
        below_traces = [sp_trace_restrict(order, a.rows, below) for a in actions]
        mus.append(alg.multiplicities([
            t - w * u for t, w, u in zip(traces, twists, below_traces)]))
        rank, traces = len(below[0]), below_traces
        below = sp_rref(sp_matmul(below[0], columns), dim)
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
        for rep, orbit in zip(alg.orbit_reps, alg.orbits):
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
    return dim - rank

"""Exact decomposition of explicit modules into indecomposable labels.

The algorithm follows the structure theory.  x^s is central, so the module
splits into generalized eigenspaces of X = x^s; the candidate eigenvalues
are 0 and the module's provenance.  For a candidate c let N = x when
c = 0 and N = X - c otherwise.  The subspaces
K_j = ker(N) intersect im(N^j) are modules over the group, and their
isotypic multiplicities count the strings of eigenvalue c:

  multiplicity of Nil(t, i)        = mu_{t-1}(sigma^{t-1}(i)) - mu_t(sigma^{t-1}(i))
  multiplicity of Eig(r, [i], b)   = mu_{r-1}(i') - mu_r(i')

where mu_j(c) is the multiplicity of the simple c inside K_j, and i' is
the member of i's sigma-orbit on the weight space counted (below).

Candidates.  The nonzero candidates come first, in sort order, and 0
last; the loop stops as soon as the eigenspace dimensions fill the
module.  That is exact: generalized eigenspaces of distinct eigenvalues
form a direct sum, so once they fill the module no other candidate can
add to it.  X is formed only when there is a nonzero candidate.  If the
pool runs out first, some eigenvalue is missing and
CandidatePoolIncomplete reports by how much.

Weight spaces.  When there is a nonzero candidate, the central element a
must act diagonally on the module's basis, as it does on every module
the package builds (strata, their tensor products, direct sums and basis
permutations of these); otherwise decompose raises InvalidParameter.
Its diagonal splits the basis into weight spaces M_lambda, which the
group preserves.  Since x a = q^{-1} a x, x maps M_lambda into
M_{q lambda}, and X preserves each M_lambda.  On the generalized eigenspace
of c != 0, x is invertible and commutes with X, so it carries X - c on
M_lambda to X - c on M_{q lambda}: the Jordan type is the same on every
weight space of a <q>-coset.  So the strings of c != 0 are counted on
one weight space per <q>-coset of the weights that occur, with X formed
only on its rows, and each count stands for s weight spaces: the
eigenspace dimension counts s times.  A simple V_i has weight omega_i,
and along a sigma-orbit omega runs through one whole <q>-coset, so each
orbit has at most one member i' on the weight space, and each
Eig(r, [i], c) has one copy of i' in its socle there.  x does not preserve the
weight spaces, so c = 0 counts on the whole module.

The K_j are never built; their characters come from the image chain
I_0 = the span U counted on, I_{j+1} = N(I_j) (each a reduced row echelon
basis from sp_rref), which falls until N is invertible on I_j.  N maps
I_j onto I_{j+1} with kernel K_j, and it twists the group action:
x g = chi^{-1}(g) g x, while X commutes with the group.  So at every
group element g

  trace(g | K_j) = trace(g | I_j) - twist(g) * trace(g | I_{j+1}),

with twist = chi^{-1} for c = 0 and twist = 1 otherwise, and the
multiplicities of K_j follow from traces on the image chain alone.  By
Fitting's lemma U is the generalized eigenspace of c plus the last image,
so dim U - dim I_last is that eigenspace's dimension in U.  A final
cross-check recomputes the group-level isotypic decomposition from the
labels and compares it against the module itself.

Multiplicities come from characters, which are class functions, so group
actions and their traces are taken at one representative per conjugacy
class (GroupData.classes), and AlgebraData.multiplicities turns them into
multiplicities: the same inner product, with the same exactness guard,
that builds the fusion table the closed rules use, evaluated as integer
dot products of the traces' numerators with the algebra's stored form.
That is only valid for representations: the input module must be one,
which validate() checks.  U is spanned by basis vectors, so trace(g | I_0)
is the sum of g's diagonal over U; only the smaller images need
sp_trace_restrict.  Both sum their terms on integer numerators over one
denominator (Cyclotomic.sum).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cyclotomic import Cyclotomic
from .errors import (
    CandidatePoolIncomplete, InternalInconsistency, InvalidParameter, NotFusionReady,
)
from .groups import AlgebraData
from .labels import IndecLabel, NIL, EIG, multiset_dim, sorted_items
from .linalg import sp_matmul, sp_rref, sp_trace_restrict
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

    If m's provenance holds a nonzero value, the central element a must
    act diagonally on m's basis (InvalidParameter otherwise).  The
    candidate eigenvalue pool is provenance | {0}; if the generalized
    eigenspaces of X = x^s over the pool do not fill the module,
    CandidatePoolIncomplete reports the missing dimension.
    """
    alg = m.alg
    if not alg.fusion_ready:
        raise NotFusionReady("decomposition needs |q| = |chi|")
    dim = m.dim
    if dim == 0:
        return DecompResult((), 0, ())

    actions = [m.element_action(g) for g, _ in alg.group.classes]
    x_rows = m.x_action.rows
    candidates = sorted((c for c in m.provenance if c), key=lambda v: v.sort_key())
    if candidates:
        # X on one weight space per <q>-coset, as s - 1 products of rows
        big_x = []
        for weight, support in _weight_spaces(alg, m.element_action(alg.central).rows):
            rows = [x_rows[k] for k in support]
            for _ in range(alg.s - 1):
                rows = sp_matmul(rows, x_rows)
            big_x.append((weight, support, rows))

    labels: Counter = Counter()
    eigenvalues = []
    covered = 0
    for c in candidates + [alg.zero()]:
        if covered == dim:
            break
        if c:
            found = alg.s * sum(
                _count_strings(alg, labels, c, support, rows, actions, weight)
                for weight, support, rows in big_x)
            if found:
                eigenvalues.append(c)
        else:
            found = _count_strings(alg, labels, c, range(dim), x_rows, actions, None)
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


def _weight_spaces(alg: AlgebraData, a_rows) -> list:
    """(weight, basis indices of its weight space) for the first weight in
    basis order of each <q>-coset of the weights of a; a_rows must be
    diagonal."""
    spaces = {}
    for k, row in enumerate(a_rows):
        if len(row) != 1 or k not in row:
            raise InvalidParameter(
                "decompose needs the central element to act diagonally; "
                f"row {k} of its action is off the diagonal")
        spaces.setdefault(row[k], []).append(k)
    out, seen = [], set()
    for weight, support in spaces.items():
        if weight not in seen:
            out.append((weight, support))
            w = weight
            seen.add(w)
            for _ in range(alg.s - 1):
                w = w * alg.q
                seen.add(w)
    return out


def _count_strings(alg: AlgebraData, labels: Counter, c, support, rows, actions,
                   weight) -> int:
    """Count the strings of eigenvalue c on the span U of the basis vectors
    in support, from the image chain of N = rows - c; returns the dimension
    of the generalized eigenspace of c in U.

    rows are the rows at support of x (c = 0, U the whole module) or of
    X = x^s (c != 0, U the weight space of weight).  actions are the
    group's Matrix actions at the class representatives.
    """
    order = alg.field_order
    classes = alg.group.classes
    if c:
        twists = [alg.one()] * len(classes)
    else:
        # x g = chi^{-1}(g) g x
        twists = [alg.chi[alg.group.inverse[g]] for g, _ in classes]

    # N's columns; a basis (as rows) times them is N applied to each vector
    columns = {k: {} for k in support}
    for i, row in zip(support, rows):
        for k, v in row.items():
            col = columns.get(k)
            if col is None:
                raise InvalidParameter(
                    "x^s does not preserve the weight spaces of the central "
                    "element: the module is not a representation")
            col[i] = v
    if c:
        minus_c = -c
        for k, col in columns.items():
            v = col.get(k)
            v = minus_c if v is None else v - c
            if v:
                col[k] = v
            else:
                del col[k]
    dim = actions[0].ncols
    below = sp_rref(list(columns.values()), dim)
    rank = len(columns)
    if len(below[0]) == rank:
        return 0  # N is invertible on U: c is not an eigenvalue of x^s there
    # I_0 is U, spanned by basis vectors
    traces = [Cyclotomic.sum(order, [a.rows[k][k] for k in support if k in a.rows[k]])
              for a in actions]
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
            top = next((i for i in orbit if alg.omega[i] == weight), None)
            if top is None:
                continue
            for r in range(1, len(mus)):
                mult = mus[r - 1].get(top, 0) - mus[r].get(top, 0)
                if mult < 0:
                    raise InternalInconsistency(
                        f"negative multiplicity for Eig({r}, {rep!r})")
                if mult:
                    labels[IndecLabel(EIG, r, rep, c)] += mult
    return len(support) - rank

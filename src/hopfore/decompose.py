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

The K_j are never built; their multiplicities come from the image chain
I_0 = the span U counted on, I_{j+1} = N(I_j) (each a reduced row echelon
basis from sp_rref), which falls until N is invertible on I_j.  Each I_j
is a submodule over the group, since X commutes with the group and x
skew-commutes with it, so its multiplicities M_j are a character's and
pass the exactness guard on their own.  N maps I_j onto I_{j+1} with
kernel K_j.  X commutes with the group, so for c != 0, I_j / K_j is
I_{j+1} and K_j holds V_l M_j(l) - M_{j+1}(l) times.  x twists the
action, x g = chi^{-1}(g) g x, so for c = 0, I_j / K_j is I_{j+1} (.)
chi^{-1}; since sigma(l) labels chi (.) V_l, K_j holds V_l
M_j(l) - M_{j+1}(sigma(l)) times.  A negative count can only come from a
module that is no representation and raises NonIntegerMultiplicity, as
the guard would for the character of K_j.  So each step of the chain
costs one inner product, on I_{j+1} alone.  By Fitting's lemma U is the
generalized eigenspace of c plus the last image, so dim U - dim I_last is
that eigenspace's dimension in U.

The whole module's multiplicities are taken once, before the candidate
loop: they are M_0 for c = 0, where U is the whole module, and the final
cross-check compares them against the isotypic content the labels
imply.  For c != 0, M_0 comes from the weight space's own diagonals.

Multiplicities come from characters, which are class functions, and
AlgebraData.multiplicities turns per-orbit, per-weight traces into
multiplicities: the same inner product, with the same exactness guard,
that builds the fusion table the closed rules use, evaluated as integer
dot products of the traces' numerators with the algebra's stored form.
That is only valid for representations: the input module must be one,
which validate() checks.

Group actions are taken once per orbit of the classes under the powers of
the central element a (AlgebraData.central_orbits): orbit o has one
element g, and each of its classes holds some g a^e.  The image chain,
U included, is a-stable, and when a acts diagonally each reduced row
echelon basis vector lies in the weight space of its pivot.  Since a^e
acts on the weight mu by mu^e,

  trace(g a^e | I) = sum over mu of mu^e t_mu(g),

where t_mu(g) is the trace of g over the basis vectors of I whose pivot
has weight mu.  Those sums are never formed: the parts {mu: t_mu(g)} go
to AlgebraData.multiplicities as they are, which applies the weights
inside its stored form.  For c != 0, U is one weight space, so an orbit
costs one trace.  On the dihedral algebra with m = 2k + 1 the orbit
elements are e, the two generators and r^2, ..., r^k, so a tensor
product builds Kronecker products of actions only at those r^j and at
a, for its diagonal.  When a is not diagonal (possible only when there
is no nonzero candidate), the table is AlgebraData.class_table: every
class is its own orbit with e = 0 and every weight is 1, so the parts
are the traces at the class representatives.  At the identity, t_mu is
the number of basis vectors of weight mu (support indices for U, pivots
for an image), so no trace reads the identity's rows.  U is spanned by
basis vectors, so its other t_mu(g) are sums of g's diagonal; only the
smaller images need sp_trace_restrict.  Both sum their terms on integer
numerators over one denominator (Cyclotomic.sum).
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .cyclotomic import Cyclotomic
from .errors import (
    CandidatePoolIncomplete, InternalInconsistency, InvalidParameter,
    NonIntegerMultiplicity, NotFusionReady,
)
from .groups import AlgebraData
from .labels import IndecLabel, NIL, EIG, multiset_dim, sorted_items
from .linalg import sp_matmul, sp_rref, sp_trace_restrict
from .modules import ExplicitModule


class DecompResult(namedtuple("DecompResult", "multiset total_dim eigenvalues_found")):
    """Multiset of indecomposable labels plus bookkeeping: multiset is
    ((IndecLabel, multiplicity), ...) in canonical order."""

    __slots__ = ()

    def counter(self) -> Counter:
        return Counter(dict(self.multiset))


def isotypic_multiplicities(m: ExplicitModule) -> dict:
    """Multiplicity of each simple inside m as a module over the group.

    m must be a representation of the group (validate() checks this): the
    traces are taken at the central orbits' elements only, per weight of
    a (_orbit_table).  Many non-representations still fail here with
    NonIntegerMultiplicity, but not all of them need to.
    """
    alg = m.alg
    table, weights, _ = _orbit_table(alg, m.element_action(alg.central).rows)
    actions = [m.element_action(g).rows for g, _ in table]
    return alg.multiplicities(
        table, _diagonal_traces(alg, table, actions, range(m.dim), weights))


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

    a_rows = m.element_action(alg.central).rows
    table, weights, off = _orbit_table(alg, a_rows)
    actions = [m.element_action(g).rows for g, _ in table]
    x_rows = m.x_action.rows
    candidates = sorted((c for c in m.provenance if c), key=lambda v: v.sort_key())
    if candidates:
        if off is not None:
            raise InvalidParameter(
                "decompose needs the central element to act diagonally; "
                f"row {off} of its action is off the diagonal")
        # X on one weight space per <q>-coset, as s - 1 products of rows
        big_x = []
        for support in _weight_spaces(alg, weights):
            rows = [x_rows[k] for k in support]
            for _ in range(alg.s - 1):
                rows = sp_matmul(rows, x_rows)
            big_x.append((support, rows))
    # the whole module's multiplicities: I_0 for c = 0, and the cross-check
    direct = isotypic_multiplicities(m)

    labels: Counter = Counter()
    eigenvalues = []
    covered = 0
    for c in candidates + [alg.zero()]:
        if covered == dim:
            break
        if c:
            found = alg.s * sum(
                _count_strings(alg, labels, c, support, rows, actions, table, weights,
                               direct)
                for support, rows in big_x)
            if found:
                eigenvalues.append(c)
        else:
            found = _count_strings(alg, labels, c, range(dim), x_rows, actions, table,
                                   weights, direct)
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
    if dict(check) != direct:
        raise InternalInconsistency(
            f"isotypic content of the labels {dict(check)} "
            f"disagrees with the module {direct}")
    total = multiset_dim(alg, labels)
    if total != dim:
        raise InternalInconsistency(
            f"labels account for {total} of {dim} dimensions")

    return DecompResult(tuple(sorted_items(alg, labels)), dim, tuple(eigenvalues))


def _orbit_table(alg: AlgebraData, a_rows):
    """(table, weights, off): the orbits to take traces by, the a-weight
    of each basis vector, and the first row of a off the diagonal.

    When a acts diagonally, table is AlgebraData.central_orbits, weights is
    a's diagonal and off is None.  Otherwise table is
    AlgebraData.class_table, every class its own orbit taken at its
    representative with e = 0, and every weight is 1, so the parts are the
    traces at the representatives themselves.
    """
    off = next((k for k, row in enumerate(a_rows) if len(row) != 1 or k not in row),
               None)
    if off is None:
        return alg.central_orbits, [row[k] for k, row in enumerate(a_rows)], None
    return alg.class_table, [alg.one()] * len(a_rows), off


def _diagonal_traces(alg: AlgebraData, table, actions, support, weights) -> list:
    """Per orbit of table, {mu: t_mu(g)} on the span of the basis vectors in
    support: the sum of g's diagonal over those of weight mu, and at the
    identity their number."""
    order, identity = alg.field_order, alg.group.identity
    spaces = {}
    for k in support:
        spaces.setdefault(weights[k], []).append(k)
    return [{mu: Cyclotomic.rational(order, len(ks)) for mu, ks in spaces.items()}
            if g == identity else
            {mu: Cyclotomic.sum(order, [rows[k][k] for k in ks if k in rows[k]])
             for mu, ks in spaces.items()}
            for (g, _), rows in zip(table, actions)]


def _weight_traces(alg: AlgebraData, table, actions, basis, weights) -> list:
    """Per orbit of table, {mu: t_mu(g)} on the a-stable subspace with
    sp_rref basis `basis`: the trace of g over the basis vectors whose
    pivot has weight mu, each of which lies in that weight space, and at
    the identity their number."""
    order, identity = alg.field_order, alg.group.identity
    groups = {}
    for vec, p in zip(*basis):
        vecs, pivots = groups.setdefault(weights[p], ([], []))
        vecs.append(vec)
        pivots.append(p)
    return [{mu: Cyclotomic.rational(order, len(sub[1])) for mu, sub in groups.items()}
            if g == identity else
            {mu: sp_trace_restrict(order, rows, sub) for mu, sub in groups.items()}
            for (g, _), rows in zip(table, actions)]


def _weight_spaces(alg: AlgebraData, weights) -> list:
    """Basis indices of the weight space of the first weight in basis order
    of each <q>-coset of the weights."""
    spaces = {}
    for k, weight in enumerate(weights):
        spaces.setdefault(weight, []).append(k)
    out, seen = [], set()
    for weight, support in spaces.items():
        if weight not in seen:
            out.append(support)
            w = weight
            seen.add(w)
            for _ in range(alg.s - 1):
                w = w * alg.q
                seen.add(w)
    return out


def _kernel_multiplicities(alg: AlgebraData, c, image: dict, below: dict) -> dict:
    """The multiplicities of K_j = ker N in I_j, from those of I_j (image)
    and of I_{j+1} = N(I_j) (below), checked in simples order.

    N maps I_j onto I_{j+1} with kernel K_j.  X = x^s commutes with the
    group, so for c != 0, I_j / K_j is I_{j+1}.  For c = 0, x g =
    chi^{-1}(g) g x, so I_j / K_j is I_{j+1} twisted by chi^{-1}: as
    sigma(l) labels chi (.) V_l, K_j holds V_l image[l] - below[sigma(l)]
    times.  A negative count means the module is no representation.
    """
    out = {}
    for i in alg.labels:
        mult = image.get(i, 0) - below.get(i if c else alg.sigma[i], 0)
        if mult < 0:
            raise NonIntegerMultiplicity(f"isotypic multiplicity of {i!r} came out {mult}")
        if mult:
            out[i] = mult
    return out


def _count_strings(alg: AlgebraData, labels: Counter, c, support, rows, actions,
                   table, weights, whole) -> int:
    """Count the strings of eigenvalue c on the span U of the basis vectors
    in support, from the image chain of N = rows - c; returns the dimension
    of the generalized eigenspace of c in U.

    rows are the rows at support of x (c = 0, U the whole module, whose
    multiplicities are whole) or of X = x^s (c != 0, U one weight space).
    actions are the group's actions (row lists) at the elements of the
    orbit table, and weights the a-weight of each basis vector
    (_orbit_table).
    """
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
    dim = len(weights)
    below = sp_rref(list(columns.values()), dim)
    rank = len(columns)
    if len(below[0]) == rank:
        return 0  # N is invertible on U: c is not an eigenvalue of x^s there
    # the multiplicities of I_0: the whole module's for c = 0, else those
    # of the weight space U, spanned by basis vectors
    if c:
        image = alg.multiplicities(
            table, _diagonal_traces(alg, table, actions, support, weights))
    else:
        image = whole
    mus = []  # mus[j] = isotypic multiplicities inside K_j
    while len(below[0]) < rank:
        below_image = alg.multiplicities(
            table, _weight_traces(alg, table, actions, below, weights))
        mus.append(_kernel_multiplicities(alg, c, image, below_image))
        rank, image = len(below[0]), below_image
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
        weight = weights[support[0]]
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

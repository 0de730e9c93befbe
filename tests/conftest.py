"""Fixture algebras and the test-side oracles shared by several modules.

The oracles stay off both routes they check: they build on Matrix,
sp_rref, ExplicitModule, RingElement's constructor and an algebra's stored
tables only, never on decompose or the closed rules.  The one exception is
reference_tensor_labels, which keeps the closed rules' index formulas but
validates every summand through canonicalize, as the rules once did: it
checks how the rules assemble their summands, not the formulas.
"""

from collections import Counter
from math import comb, lcm
from operator import mul

import pytest

from hopfore.cyclotomic import Cyclotomic, Rational
from hopfore.errors import InternalInconsistency, NonIntegerMultiplicity
from hopfore.fusion import _nil_nil_terms
from hopfore.greenring import GROTH, RingElement
from hopfore.groups import GroupData, custom_algebra, dihedral_algebra
from hopfore.labels import (
    EIG, NIL, TORSION, SimpleLabel, canonicalize, label_dim, multiset_dim,
)
from hopfore.linalg import Matrix, sp_rref
from hopfore.modules import ExplicitModule


def rank(mat):
    return len(sp_rref(mat.rows, mat.ncols)[1])


def mat_power(mat, e):
    """mat^e for a square matrix, by e products."""
    out = Matrix.identity(mat.order, mat.nrows)
    for _ in range(e):
        out = out @ mat
    return out


def word_products(group, gen_mats, order, dim):
    """The matrix of each element as the product of the generator matrices
    along its stored word, one product per letter."""
    mats = []
    for word in group.words:
        m = Matrix.identity(order, dim)
        for k in word:
            m = m @ gen_mats[k]
        mats.append(m)
    return mats


def word_violations(group, gen_mats, mats):
    """The (g, k) pairs at which mats[g] times gen_mats[k] is not the matrix
    of g times the k-th generator, g first, then k."""
    return [(g, k) for g in range(group.size)
            for k, gen in enumerate(group.generators)
            if mats[g] @ gen_mats[k] != mats[group.mul[g][gen]]]


def character_order(group, chi):
    """The least k >= 1 with chi^k = 1 at every group element, found by
    powering all of chi's values together."""
    one = Cyclotomic.one(chi[0].order)
    powers = list(chi)
    for k in range(1, 2 * group.size + 1):
        if all(v == one for v in powers):
            return k
        powers = [p * c for p, c in zip(powers, chi)]
    raise AssertionError("chi does not have finite order")


def reference_multiplicities(alg, traces):
    """AlgebraData.multiplicities by one integer dot product per simple,
    coordinate and nonzero numerator, with the same guard and message."""
    den = lcm(*(t.den for t in traces))
    keys, nums = [], []
    k = 0
    for t in traces:
        f = den // t.den
        for a in t.num:
            if a:
                keys.append(k)
                nums.append(a * f)
            k += 1
    full = den * alg.char_den
    out = {}
    for s, rows in zip(alg.simples, alg.char_form):
        coords = [sum(map(mul, map(row.__getitem__, keys), nums)) for row in rows]
        val, irrational = coords[0], any(coords[1:])
        if irrational or val < 0 or val % full:
            shown = None if irrational else Rational(val, full)
            raise NonIntegerMultiplicity(
                f"isotypic multiplicity of {s.label!r} came out {shown}")
        if val:
            out[s.label] = val // full
    return out


def class_parts(alg, values):
    """Parts over alg.class_table for a class function given by its values
    at the class representatives."""
    return [{alg.one(): v} for v in values]


def class_traces(alg, table, parts):
    """The values at the class representatives (group.classes order) of the
    class function that per-orbit, per-weight parts over an orbit table
    stand for: a class holding g a^e, g the element of orbit o, has the
    value sum over mu of mu^e parts[o][mu], each power taken by
    Cyclotomic.__pow__."""
    out = [None] * len(alg.group.classes)
    for (_, members), by_weight in zip(table, parts):
        for k, e in members:
            out[k] = sum((mu ** e * t for mu, t in by_weight.items()), alg.zero())
    return out


def kernel_class_traces(alg, c, traces, below):
    """Traces at the class representatives of K_j = ker N in I_j, from the
    traces of I_j and of I_{j+1} = N(I_j): trace(I_j) - twist * trace(I_{j+1}),
    where N = x twists the group action by chi^{-1} (x g = chi^{-1}(g) g x)
    and N = x^s - c, c != 0, commutes with it."""
    group = alg.group
    twists = [alg.one() if c else alg.chi[group.inverse[g]] for g, _ in group.classes]
    return [t - w * u for t, w, u in zip(traces, twists, below)]


def direct_sum(m, n):
    """Block-diagonal sum of two modules over one algebra; its provenance
    is the union of theirs."""
    assert m.alg == n.alg
    order = m.alg.field_order
    dim = m.dim + n.dim

    def block(a, b):
        shifted = [{m.dim + c: v for c, v in row.items()} for row in b.rows]
        return Matrix.from_rows(order, a.rows + tuple(shifted), dim)

    gen_actions = [block(a, b) for a, b in zip(m.gen_actions, n.gen_actions)]
    return ExplicitModule(m.alg, gen_actions, block(m.x_action, n.x_action),
                          m.provenance | n.provenance)


def companion_module(alg, t, i, beta):
    """V_t(i, beta) on the companion basis x^j v, j < ts, over a basis v of
    the simple i: g acts on stratum j by chi(g)^j rho_i(g), x maps stratum
    j to j + 1, and the top stratum to x^(ts) v, which (x^s - beta)^t = 0
    writes as -sum_{l<t} C(t, l) (-beta)^(t-l) x^(ls) v."""
    b = alg.scalar(beta)
    assert b
    rep = alg.simple_by_label[i]
    d, strata, order = rep.dim, t * alg.s, alg.field_order
    dim = strata * d
    gen_actions = []
    for k, gen in enumerate(alg.group.generators):
        rows = []
        for j in range(strata):
            c = alg.chi[gen] ** j
            rows += [{j * d + col: c * v for col, v in row.items()}
                     for row in rep.gen_mats[k].rows]
        gen_actions.append(Matrix.from_rows(order, rows, dim))
    top = {l * alg.s: -comb(t, l) * (-b) ** (t - l) for l in range(t)}
    xrows = []
    for j in range(strata):
        for r in range(d):
            row = {(j - 1) * d + r: alg.one()} if j else {}
            if j in top:
                row[dim - d + r] = top[j]
            xrows.append(row)
    return ExplicitModule(alg, gen_actions, Matrix.from_rows(order, xrows, dim), (b,))


def binomial_power_decomposition(alg, l):
    """The paper's closed multiset form of x^l in the Grothendieck ring of a
    dihedral algebra, 1 <= l <= m - 1."""
    m = alg.group.size // 4
    assert alg.kind == "dihedral" and 1 <= l <= m - 1
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


def reference_tensor_labels(alg, left, right):
    """fusion.tensor_labels with every summand put through canonicalize,
    once per fusion constituent and per sigma power."""
    def canon(label):
        return canonicalize(alg, label.kind, label.t, label.i, beta=label.beta)

    left, right = canon(left), canon(right)
    s, out = alg.s, Counter()
    if left.kind == NIL and right.kind == NIL:
        n, i, t, j = left.t, left.i, right.t, right.i
        if n < t:
            n, t, i, j = t, n, j, i
        for l, mult in alg.fusion[(i, j)].items():
            for T, u in _nil_nil_terms(s, n, t):
                out[canonicalize(alg, NIL, T, alg.sigma_power(l, u))] += mult
    elif left.kind == NIL or right.kind == NIL:
        if left.kind == NIL:
            nil, eig, twist = left, right, alg.one()
        else:
            nil, eig, twist = right, left, alg.omega_s(right.i)
        u, r = divmod(nil.t, s)
        t, beta = eig.t, eig.beta * twist
        for l, mult in alg.fusion[(nil.i, eig.i)].items():
            for m in range(1, min(t, u) + 1):
                out[canonicalize(alg, EIG, 2 * m - 1 + abs(t - u), l, beta)] += mult * (s - r)
            if r:
                for m in range(1, min(t, u + 1) + 1):
                    out[canonicalize(alg, EIG, 2 * m - 1 + abs(t - u - 1), l, beta)] += mult * r
    else:
        p, t = left.t, right.t
        value = alg.omega_s(right.i) * left.beta + right.beta
        for l, mult in alg.fusion[(left.i, right.i)].items():
            for m in range(s):
                lm = alg.sigma_power(l, m)
                for u in range(1, min(p, t) + 1):
                    length = 2 * u - 1 + abs(p - t)
                    if value:
                        out[canonicalize(alg, EIG, length, lm, value)] += mult
                    else:
                        out[canonicalize(alg, NIL, s * length, lm)] += mult
    if multiset_dim(alg, out) != label_dim(alg, left) * label_dim(alg, right):
        raise InternalInconsistency("reference product lost dimension")
    return out


def cyclic_algebra(n, chi_exp):
    """Cyclic group C_n with chi = zeta_n^chi_exp on the generator.

    Gives q = zeta_n^chi_exp, so s = n / gcd(n, chi_exp).  With chi_exp
    coprime to n this is fusion ready with s = n and every omega_i^s = 1;
    chi_exp = 2 on C_8 gives s = 4 with omega_i^s = (-1)^i, which exercises
    the nontrivial eigenvalue twist.
    """
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    group = GroupData(mul, generators=(1,), names=[f"g{k}" for k in range(n)])
    simples = [(f"c{l}", [Matrix(n, [[Cyclotomic.zeta(n, l)]])]) for l in range(n)]
    chi = [Cyclotomic.zeta(n, chi_exp * k) for k in range(n)]
    return custom_algebra(group, simples, central=1, chi=chi, field_order=n)


def permutation_algebra(perms, simples, chi, central, order):
    """custom_algebra on the group that the permutations `perms` (tuples of
    images) generate.

    Elements are indexed breadth-first from the identity and multiply as
    maps, g h applying h first.  simples: (label, one matrix per
    generator); chi: its value on each generator, extended along the
    breadth-first words (custom_algebra checks that it is a character);
    central: the position in `perms` of the central generator.
    """
    elements = [tuple(range(len(perms[0])))]
    index = {elements[0]: 0}
    chi_values = [Cyclotomic.one(order)]
    k = 0
    while k < len(elements):
        for h, v in zip(perms, chi):
            p = tuple(elements[k][j] for j in h)
            if p not in index:
                index[p] = len(elements)
                elements.append(p)
                chi_values.append(chi_values[k] * v)
        k += 1
    mul = [[index[tuple(g[j] for j in h)] for h in elements] for g in elements]
    group = GroupData(mul, generators=tuple(index[h] for h in perms))
    return custom_algebra(group, simples, central=index[perms[central]],
                          chi=chi_values, field_order=order)


def s3_c4_algebra():
    """S_3 x C_4 over Q(zeta_4) with chi = sign x zeta_4 and a the C_4
    generator: q = zeta_4, s = 4.  Simples: trivial t, sign g and the
    two-dimensional d of S_3, each times the characters zeta_4^l of C_4."""
    swap, rot, c = (1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6), (0, 1, 2, 4, 5, 6, 3)
    one, z = Cyclotomic.one(4), Cyclotomic.zeta(4)
    simples = []
    for l in range(4):
        zl = z ** l
        simples += [
            (f"t{l}", [Matrix(4, [[one]]), Matrix(4, [[one]]), Matrix(4, [[zl]])]),
            (f"g{l}", [Matrix(4, [[-one]]), Matrix(4, [[one]]), Matrix(4, [[zl]])]),
            (f"d{l}", [Matrix(4, [[0, 1], [1, 0]]), Matrix(4, [[0, -1], [1, -1]]),
                       Matrix.scalar(4, 2, zl)]),
        ]
    return permutation_algebra((swap, rot, c), simples, (-one, one, z), 2, 4)


def a4_c3_algebra():
    """A_4 x C_3 over Q(zeta_3) with chi = lambda x zeta_3, lambda the
    linear character of A_4 that takes a 3-cycle to zeta_3, and a the C_3
    generator: q = zeta_3, s = 3.  Simples: the linear characters l<k>
    (3-cycle to zeta_3^k) and the three-dimensional v of A_4, each times
    the characters zeta_3^l of C_3."""
    rot, dbl = (1, 2, 0, 3, 4, 5, 6), (1, 0, 3, 2, 4, 5, 6)
    c = (0, 1, 2, 3, 5, 6, 4)
    one, w = Cyclotomic.one(3), Cyclotomic.zeta(3)
    # rotations of the tetrahedron: the 3-cycle permutes the axes, the
    # double transposition is a half turn
    cycle = Matrix(3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    half_turn = Matrix(3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    simples = []
    for l in range(3):
        wl = w ** l
        simples += [(f"l{k}{l}", [Matrix(3, [[w ** k]]), Matrix(3, [[one]]),
                                  Matrix(3, [[wl]])]) for k in range(3)]
        simples.append((f"v{l}", [cycle, half_turn, Matrix.scalar(3, 3, wl)]))
    return permutation_algebra((rot, dbl, c), simples, (w, one, w), 2, 3)


@pytest.fixture(scope="session")
def alg3():
    return dihedral_algebra(3)


@pytest.fixture(scope="session")
def alg5():
    return dihedral_algebra(5)


@pytest.fixture(scope="session")
def alg7():
    return dihedral_algebra(7)


@pytest.fixture(scope="session")
def alg15():
    return dihedral_algebra(15)


@pytest.fixture(scope="session")
def c4():
    return cyclic_algebra(4, 1)


@pytest.fixture(scope="session")
def c4_reordered(c4):
    """C_4 as a descriptor with its simples listed c1, c0, c2, c3, so that
    the trivial simple c0 is not the first one."""
    desc = dict(c4.descriptor)
    simples = list(desc["simples"])
    simples[0], simples[1] = simples[1], simples[0]
    desc["simples"] = simples
    return desc


@pytest.fixture(scope="session")
def c8():
    return cyclic_algebra(8, 2)


@pytest.fixture(scope="session")
def c8_unready():
    """C_8 with the faithful chi = zeta_8 but central element g^2, so that
    |q| = 4 < 8 = |chi|: not fusion ready."""
    mul = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    group = GroupData(mul, generators=(1,))
    simples = [(f"c{l}", [Matrix(8, [[Cyclotomic.zeta(8, l)]])]) for l in range(8)]
    chi = [Cyclotomic.zeta(8, k) for k in range(8)]
    return custom_algebra(group, simples, central=2, chi=chi, field_order=8)


@pytest.fixture(scope="session")
def s3c4():
    return s3_c4_algebra()


@pytest.fixture(scope="session")
def a4c3():
    return a4_c3_algebra()

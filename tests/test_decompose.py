"""Matrix-level decomposition oracle."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import Cyclotomic, Rational
from hopfore.decompose import (
    _class_traces, _diagonal_traces, _orbit_table, _weight_traces, decompose,
    isotypic_multiplicities,
)
from hopfore.errors import (
    CandidatePoolIncomplete, InvalidParameter, NonIntegerMultiplicity, NotFusionReady,
)
from hopfore.grid import build_module, check_pair, grid_labels
from hopfore.labels import EIG, NIL, IndecLabel, canonicalize
from hopfore.linalg import Matrix, sp_rref, sp_trace_restrict
from hopfore.modules import ExplicitModule, module_eigen, module_nilpotent, tensor, validate

from conftest import direct_sum, mat_power, word_products


def test_isotypic_examples(alg3):
    m = module_nilpotent(alg3, 3, "eps")
    assert isotypic_multiplicities(m) == {"eps": 2, "chi": 1}
    assert isotypic_multiplicities(module_nilpotent(alg3, 1, 1)) == {1: 1}


def test_isotypic_additive(alg3):
    m = module_eigen(alg3, 1, 1, 2)
    doubled = isotypic_multiplicities(direct_sum(m, m))
    single = isotypic_multiplicities(m)
    assert doubled == {k: 2 * v for k, v in single.items()}


def test_isotypic_rejects_non_representation(alg3):
    good = module_nilpotent(alg3, 1, "eps")
    n = alg3.field_order
    bad_gen = [Matrix(n, [[Rational(1, 3)]]) for _ in good.gen_actions]
    bad = ExplicitModule(alg3, bad_gen, good.x_action, good.provenance)
    with pytest.raises(NonIntegerMultiplicity):
        isotypic_multiplicities(bad)


def test_round_trip_nilpotent(alg3):
    for t in (1, 2, 5):
        for i in ("eps", "lamchi", 1):
            lab = IndecLabel(NIL, t, i)
            got = decompose(module_nilpotent(alg3, t, i))
            assert got.counter() == {lab: 1}
            assert got.total_dim == t * alg3.simple(i).dim


def test_round_trip_eigen(alg3):
    for t in (1, 2):
        for i, b in (("eps", 1), ("lam", -1), (1, Rational(1, 2))):
            lab = canonicalize(alg3, EIG, t, i, b)
            got = decompose(module_eigen(alg3, t, i, b))
            assert got.counter() == {lab: 1}
            assert alg3.scalar(b) in got.eigenvalues_found


def test_round_trip_custom(c4, c8):
    for alg in (c4, c8):
        lab = canonicalize(alg, EIG, 2, "c1", 3)
        got = decompose(module_eigen(alg, 2, "c1", 3)).counter()
        assert got == {lab: 1}
        nil = IndecLabel(NIL, 5, "c2")
        assert decompose(module_nilpotent(alg, 5, "c2")).counter() == {nil: 1}


def test_twist_direction_c8(c8):
    # chi = zeta_8^2 has order s = 4, so chi != chi^{-1}: the string count
    # on the image chain of x must twist by chi^{-1}, as x g = chi^{-1}(g) g x
    gen = c8.group.generators[0]
    assert c8.s == 4 and c8.chi[gen] != c8.chi[c8.group.inverse[gen]]
    total = direct_sum(direct_sum(module_nilpotent(c8, 5, "c1"),
                                  module_nilpotent(c8, 2, "c2")),
                       module_eigen(c8, 2, "c3", 3))
    got = decompose(total)
    assert got.counter() == {IndecLabel(NIL, 5, "c1"): 1,
                             IndecLabel(NIL, 2, "c2"): 1,
                             IndecLabel(EIG, 2, "c1", c8.scalar(3)): 1}
    assert got.eigenvalues_found == (c8.scalar(3),)
    assert got.total_dim == 5 + 2 + 2 * 4


def test_zero_module(alg3):
    empty = Matrix(alg3.field_order, [], 0)
    zero = ExplicitModule(alg3, [empty] * len(alg3.group.generators), empty, ())
    res = decompose(zero)
    assert res.counter() == {}
    assert res.total_dim == 0


def test_direct_sum_additivity(alg3):
    parts = [module_nilpotent(alg3, 2, 1),
             module_eigen(alg3, 1, "eps", 2),
             module_nilpotent(alg3, 4, "lam")]
    total = parts[0]
    for p in parts[1:]:
        total = direct_sum(total, p)
    want = sum((decompose(p).counter() for p in parts), start=type(decompose(parts[0]).counter())())
    assert decompose(total).counter() == want


def test_orbit_identifications(alg3):
    # same underlying iso class found through a non-representative simple
    a = decompose(module_eigen(alg3, 1, "chi", 2)).counter()
    b = decompose(module_eigen(alg3, 1, "eps", 2)).counter()
    assert a == b
    lab2 = canonicalize(alg3, EIG, 1, 2, 5)
    assert decompose(module_eigen(alg3, 2, 2, 5)).counter() == {
        canonicalize(alg3, EIG, 2, 1, 5): 1}
    assert lab2.i == 1


def test_candidate_pool_incomplete(alg3):
    m = module_eigen(alg3, 1, "eps", 7)
    stripped = ExplicitModule(alg3, list(m.gen_actions), m.x_action, [])
    with pytest.raises(CandidatePoolIncomplete, match="provenance"):
        decompose(stripped)
    # the same matrices decompose once 7 is back in the provenance
    restored = ExplicitModule(alg3, list(m.gen_actions), m.x_action, [7])
    got = decompose(restored).counter()
    assert got == {canonicalize(alg3, EIG, 1, "eps", 7): 1}


def _conjugate(mod, p, pinv):
    gens = [p @ g @ pinv for g in mod.gen_actions]
    return ExplicitModule(mod.alg, gens, p @ mod.x_action @ pinv, mod.provenance)


def _permutation_conjugate(mod, perm):
    n = mod.alg.field_order
    zero = Cyclotomic.zero(n)
    one = Cyclotomic.one(n)
    p = Matrix(n, [[one if perm[r] == c else zero for c in range(mod.dim)]
                   for r in range(mod.dim)])
    pinv = Matrix(n, [[one if perm[c] == r else zero for c in range(mod.dim)]
                      for r in range(mod.dim)])
    return _conjugate(mod, p, pinv)


def test_basis_independence(alg3):
    mod = tensor(module_nilpotent(alg3, 2, 1), module_eigen(alg3, 1, "eps", 2))
    want = decompose(mod).counter()
    perm = list(range(mod.dim))
    perm = perm[1:] + perm[:1]
    shuffled = _permutation_conjugate(mod, perm)
    assert decompose(shuffled).counter() == want


def test_central_element_must_act_diagonally(alg3):
    # the same module in a basis that mixes two a-weight spaces: still a
    # representation, but a is no longer diagonal, and decompose says so
    mod = tensor(module_nilpotent(alg3, 2, 1), module_eigen(alg3, 1, "eps", 2))
    weights = [row[k] for k, row in enumerate(mod.element_action(alg3.central).rows)]
    j = next(k for k, w in enumerate(weights) if w != weights[0])
    n = alg3.field_order
    one, zero = Cyclotomic.one(n), Cyclotomic.zero(n)

    def shear(sign):
        return Matrix(n, [[one if r == c else sign * one if (r, c) == (0, j) else zero
                           for c in range(mod.dim)] for r in range(mod.dim)])

    mixed = _conjugate(mod, shear(1), shear(-1))
    assert validate(mixed) == []
    assert mixed.element_action(alg3.central).rows[0].keys() == {0, j}
    with pytest.raises(InvalidParameter, match="diagonal"):
        decompose(mixed)
    # a pure-Nil module has no nonzero candidate and never reads the
    # weight spaces: c = 0 counts on the whole module in any basis
    nil = module_nilpotent(alg3, 2, 1)
    sheared = _conjugate(nil, Matrix(n, [[1, 0, 1, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]]),
                         Matrix(n, [[1, 0, -1, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert sheared.element_action(alg3.central).rows[0].keys() == {0, 2}
    assert decompose(sheared).counter() == {IndecLabel(NIL, 2, 1): 1}
    # with a diagonal, an x^s that leaves the weight spaces is no
    # representation, and decompose says that instead of miscounting
    m = module_eigen(alg3, 1, "eps", 2)
    bent = ExplicitModule(alg3, list(m.gen_actions), Matrix(n, [[0, 1], [1, 1]]), [2])
    assert validate(bent)
    with pytest.raises(InvalidParameter, match="weight spaces"):
        decompose(bent)


def _sort(values):
    return tuple(sorted(values, key=lambda v: v.sort_key()))


def test_two_nonzero_eigenvalues(alg3):
    # Eig (+) Eig with two eigenvalues of x^s, and Eig (+) Nil: the loop
    # tries both nonzero candidates, then 0 only while the module is unfilled
    total = direct_sum(module_eigen(alg3, 1, "eps", 2), module_eigen(alg3, 2, 1, -1))
    got = decompose(total)
    assert got.counter() == {canonicalize(alg3, EIG, 1, "eps", 2): 1,
                             canonicalize(alg3, EIG, 2, 1, -1): 1}
    assert got.eigenvalues_found == _sort([alg3.scalar(2), alg3.scalar(-1)])
    assert got.total_dim == 2 + 8
    mixed = direct_sum(module_nilpotent(alg3, 3, "chi"),
                       module_eigen(alg3, 1, "lam", Rational(1, 2)))
    got = decompose(mixed)
    assert got.counter() == {IndecLabel(NIL, 3, "chi"): 1,
                             canonicalize(alg3, EIG, 1, "lam", Rational(1, 2)): 1}
    assert got.eigenvalues_found == (alg3.scalar(Rational(1, 2)),)


def _count_calls(monkeypatch):
    """Patch decompose's string count to record (c, dimension found)."""
    counted = []
    decompose_module = sys.modules["hopfore.decompose"]
    count = decompose_module._count_strings

    def counting(alg, labels, c, *rest):
        found = count(alg, labels, c, *rest)
        counted.append((c, found))
        return found

    monkeypatch.setattr(decompose_module, "_count_strings", counting)
    return counted


def test_wrong_candidate_still_incomplete(alg3, monkeypatch):
    m = module_eigen(alg3, 1, "eps", 7)
    wrong = ExplicitModule(alg3, list(m.gen_actions), m.x_action, [5])
    with pytest.raises(CandidatePoolIncomplete, match="cover 0 of 2"):
        decompose(wrong)
    # 5 sorts first and misses, then 7 fills the module: 0 is not tried
    both = ExplicitModule(alg3, list(m.gen_actions), m.x_action, [5, 7])
    counted = _count_calls(monkeypatch)
    got = decompose(both)
    assert got.counter() == {canonicalize(alg3, EIG, 1, "eps", 7): 1}
    assert got.eigenvalues_found == (alg3.scalar(7),)
    assert counted == [(alg3.scalar(5), 0), (alg3.scalar(7), 1)]


def test_eigenvalues_on_both_weight_cosets_c8(c8):
    # s = 4 and q = zeta_8^2: the weights zeta_8^l of c1 and c2 lie in the
    # two <q>-cosets, so each eigenvalue is counted on its own weight space
    assert c8.s == 4 and c8.q == Cyclotomic.zeta(8, 2)
    total = direct_sum(direct_sum(module_eigen(c8, 1, "c1", 3),
                                  module_eigen(c8, 2, "c2", 5)),
                       direct_sum(module_eigen(c8, 1, "c6", 3),
                                  module_nilpotent(c8, 3, "c3")))
    got = decompose(total)
    assert got.counter() == {canonicalize(c8, EIG, 1, "c1", 3): 1,
                             canonicalize(c8, EIG, 2, "c2", 5): 1,
                             canonicalize(c8, EIG, 1, "c6", 3): 1,
                             IndecLabel(NIL, 3, "c3"): 1}
    assert got.eigenvalues_found == _sort([c8.scalar(3), c8.scalar(5)])
    assert got.total_dim == 4 + 8 + 4 + 3


GRID_BETAS = (1, -1, 2, Rational(1, 2))


@pytest.mark.parametrize("m, nil_tmax, eig_tmax, seed", [
    (5, 3, 2, 20261101),  # the acceptance grid
    (3, 6, 3, 20261102),  # long strings
])
def test_grid_pairs_count_each_weight_space_once(request, monkeypatch, m, nil_tmax,
                                                 eig_tmax, seed):
    # Every product of two indecomposables has one eigenvalue of x^s, and
    # the dihedral weights +-1 form one <q>-coset (q = -1).  So each pair
    # needs exactly one string count: on one weight space for a nonzero
    # eigenvalue, on the whole module for 0.  A second count would be a
    # candidate that misses.
    alg = request.getfixturevalue(f"alg{m}")
    assert alg.q == -1
    counted = _count_calls(monkeypatch)
    labels = grid_labels(alg, nil_tmax, eig_tmax, GRID_BETAS)
    pairs = random.Random(seed).sample([(l, r) for l in labels for r in labels], 400)
    cache = {}
    for left, right in pairs:
        counted.clear()
        assert check_pair(alg, left, right, cache) is None
        eig = [lab for lab in (left, right) if lab.kind == EIG]
        if not eig:
            want = alg.zero()
        elif len(eig) == 1:
            want = eig[0].beta
        else:
            want = alg.omega_s(right.i) * left.beta + right.beta
        assert len(counted) == 1 and counted[0][0] == want, (left, right, counted)
        assert counted[0][1] > 0


@settings(max_examples=15, deadline=None)
@given(t1=st.integers(min_value=1, max_value=2),
       t2=st.integers(min_value=1, max_value=2),
       i1=st.sampled_from(["eps", "chi", 1]),
       i2=st.sampled_from(["lam", 1, 2]),
       b=st.sampled_from([1, -1, 2]))
def test_tensor_associativity_multisets(alg3, t1, t2, i1, i2, b):
    a = module_nilpotent(alg3, t1, i1)
    c = module_nilpotent(alg3, t2, i2)
    e = module_eigen(alg3, 1, "eps", b)
    left = tensor(tensor(a, c), e)
    right = tensor(a, tensor(c, e))
    assert decompose(left).counter() == decompose(right).counter()


def test_not_fusion_ready_module_builds_but_does_not_decompose(c8_unready):
    alg = c8_unready
    assert not alg.fusion_ready
    m = tensor(module_nilpotent(alg, 2, "c0"), module_nilpotent(alg, 1, "c1"))
    assert m.dim == 2
    with pytest.raises(NotFusionReady):
        decompose(m)
    # chi^s = 1 for s the order of chi, so x^s - beta commutes with the
    # group and the eigenvalue family is a module here too
    m = module_eigen(alg, 2, "c1", 3)
    assert m.dim == 2 * alg.s
    assert validate(m) == []
    with pytest.raises(NotFusionReady):
        decompose(m)


def _image_chains(mod):
    """sp_rref bases of the images of the powers of x, and of x^s - c for
    each nonzero c in the provenance: submodules on which a acts."""
    alg = mod.alg
    x_s = mat_power(mod.x_action, alg.s)
    ops = [mod.x_action] + [
        x_s + Matrix.scalar(alg.field_order, mod.dim, -c) for c in mod.provenance if c]
    out = []
    for op in ops:
        power = op
        for _ in range(3):
            cols = [{i: row[j] for i, row in enumerate(power.rows) if j in row}
                    for j in range(mod.dim)]
            basis = sp_rref(cols, mod.dim)
            if not basis[0]:
                break
            out.append(basis)
            power = power @ op
    return out


@pytest.mark.parametrize("fixture", ["alg3", "alg5", "alg7", "c8", "s3c4", "a4c3"])
def test_orbit_traces_match_traces_at_every_class(fixture, request):
    # trace(g a^e | I) = sum over mu of mu^e t_mu(g), against the trace of
    # each class representative's own matrix (its generator word) on I
    alg = request.getfixturevalue(fixture)
    group, order = alg.group, alg.field_order
    labels = grid_labels(alg, 2, 1, (1, 2))
    picks = random.Random(20261103).sample([(l, r) for l in labels for r in labels], 6)
    subspaces = 0
    for left, right in picks:
        mod = tensor(build_module(alg, left), build_module(alg, right))
        table, weights, off = _orbit_table(alg, mod.element_action(alg.central).rows)
        assert off is None and table is alg.central_orbits
        actions = [mod.element_action(g).rows for g, _ in table]
        words = word_products(group, mod.gen_actions, order, mod.dim)
        reps = [words[g] for g, _ in group.classes]
        whole = _class_traces(alg, table, _diagonal_traces(order, actions, range(mod.dim),
                                                           weights))
        assert whole == [r.trace() for r in reps], (left, right)
        assert isotypic_multiplicities(mod) == alg.multiplicities(whole)
        for basis in _image_chains(mod):
            subspaces += 1
            got = _class_traces(alg, table, _weight_traces(order, actions, basis, weights))
            assert got == [sp_trace_restrict(order, r.rows, basis) for r in reps], (
                left, right)
    assert subspaces >= 6, subspaces


def test_orbit_traces_without_a_diagonal(alg3):
    # a basis where a is not diagonal: every class is its own orbit at its
    # representative, and the same sums give the same traces
    nil = module_nilpotent(alg3, 2, 1)
    n = alg3.field_order
    sheared = _conjugate(nil, Matrix(n, [[1, 0, 1, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]]),
                         Matrix(n, [[1, 0, -1, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]]))
    table, weights, off = _orbit_table(alg3, sheared.element_action(alg3.central).rows)
    assert off == 0
    assert [g for g, _ in table] == [g for g, _ in alg3.group.classes]
    assert all(len(members) == 1 and members[0][1] == 0 for _, members in table)
    actions = [sheared.element_action(g).rows for g, _ in table]
    traces = _class_traces(alg3, table, _diagonal_traces(n, actions, range(4), weights))
    assert traces == [sheared.element_action(g).trace() for g, _ in alg3.group.classes]
    assert isotypic_multiplicities(sheared) == isotypic_multiplicities(nil)


def test_group_actions_at_orbit_elements_only(alg5, monkeypatch):
    # m = 5: the orbits of the classes under a = r^5 are {e, a}, {r, r^4},
    # {r^2, r^3} and {s, rs}, so beyond tensor's own generator products
    # only a (for its diagonal) and r^2 need a Kronecker product
    left = module_eigen(alg5, 2, 1, 2)
    right = module_nilpotent(alg5, 3, 2)
    calls = []
    kron = Matrix.tensor_product

    def counting(self, other):
        calls.append((self.nrows, other.nrows))
        return kron(self, other)

    monkeypatch.setattr(Matrix, "tensor_product", counting)
    prod = tensor(left, right)
    assert len(calls) == len(alg5.group.generators)
    calls.clear()
    got = decompose(prod)
    assert len(calls) <= 2, calls
    monkeypatch.undo()
    assert got.counter() == decompose(tensor(left, right)).counter()
    assert got.total_dim == prod.dim

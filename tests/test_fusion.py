"""Closed-form tensor rules on labels."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import Cyclotomic, Rational
from hopfore.errors import InvalidParameter, NotFusionReady, UnknownLabel
from hopfore.fusion import comp_factors, tensor_labels
from hopfore.grid import grid_labels
from hopfore.groups import dihedral_algebra
from hopfore.labels import (
    EIG, FREE, NIL, TORSION, IndecLabel, SimpleLabel, canonical_simple,
    canonicalize, label_dim, multiset_dim,
)

from conftest import reference_tensor_labels


def N(t, i):
    return IndecLabel(NIL, t, i)


def E(alg, t, i, b):
    return canonicalize(alg, EIG, t, i, b)


def test_string_times_string_frozen(alg3):
    y = N(2, "eps")
    z = N(3, "eps")
    x = N(1, 1)
    assert tensor_labels(alg3, y, y) == {N(2, "eps"): 1, N(2, "chi"): 1}
    assert tensor_labels(alg3, y, z) == {N(4, "eps"): 1, N(2, "chi"): 1}
    assert tensor_labels(alg3, z, z) == {N(5, "eps"): 1, N(1, "eps"): 1,
                                         N(3, "chi"): 1}
    assert tensor_labels(alg3, x, x) == {N(1, "eps"): 1, N(1, "lam"): 1,
                                         N(1, 2): 1}


def test_unit_label(alg3):
    one = N(1, "eps")
    for other in (N(3, 2), E(alg3, 2, 1, 5), N(1, "lamchi")):
        assert tensor_labels(alg3, one, other) == {other: 1}
        assert tensor_labels(alg3, other, one) == {other: 1}


def test_string_times_eigen_frozen(alg3):
    b = alg3.scalar(3)
    res = tensor_labels(alg3, N(2, "eps"), E(alg3, 1, "eps", b))
    assert res == {E(alg3, 1, "eps", b): 2}
    # one full cycle of x-degrees absorbs into a single eigen label
    res = tensor_labels(alg3, N(2, 1), E(alg3, 1, "eps", b))
    assert res == {E(alg3, 1, 1, b): 2}


def test_eigen_times_eigen_nonzero_sum(alg3):
    a, b = alg3.scalar(1), alg3.scalar(2)
    res = tensor_labels(alg3, E(alg3, 1, "eps", a), E(alg3, 1, "eps", b))
    assert res == {E(alg3, 1, "eps", 3): 2}


def test_eigen_times_eigen_zero_sum(alg3):
    res = tensor_labels(alg3, E(alg3, 1, "eps", 1), E(alg3, 1, "eps", -1))
    assert res == {N(2, "eps"): 1, N(2, "chi"): 1}
    # deeper strings: V_2(eps,b) x V_1(eps,-b)
    res = tensor_labels(alg3, E(alg3, 2, "eps", 1), E(alg3, 1, "eps", -1))
    assert multiset_dim(alg3, res) == 8
    assert all(lab.kind == NIL for lab in res)


def test_eigenvalue_twist_on_reversed_order(c8):
    # omega^s = -1 on the odd characters of this algebra
    b = c8.scalar(3)
    eig = E(c8, 1, "c0", b)
    nil = N(1, "c1")
    assert tensor_labels(c8, nil, eig) == {E(c8, 1, "c1", b): 1}
    assert tensor_labels(c8, eig, nil) == {E(c8, 1, "c1", -b): 1}


def test_no_twist_when_omega_trivial(c4):
    b = c4.scalar(2)
    eig = E(c4, 1, "c0", b)
    nil = N(1, "c1")
    assert tensor_labels(c4, nil, eig) == tensor_labels(c4, eig, nil)


def test_long_string_product_frozen(c4):
    # n = 10 = 2*4+2, t = 7 = 1*4+3: the overhang case with all four blocks
    res = tensor_labels(c4, N(10, "c1"), N(7, "c2"))
    want = {N(16, "c3"): 1, N(8, "c3"): 1, N(14, "c0"): 1, N(6, "c0"): 1,
            N(12, "c1"): 1, N(4, "c1"): 1, N(10, "c2"): 1}
    assert res == want
    assert multiset_dim(c4, res) == 70


def test_not_fusion_ready_rejected():
    from hopfore.cyclotomic import Cyclotomic
    from hopfore.groups import GroupData, custom_algebra
    from hopfore.linalg import Matrix

    # faithful chi on C_8 but central element g^2: |q| = 4 < 8 = |chi|
    mul = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    group = GroupData(mul, generators=(1,))
    simples = [(f"c{l}", [Matrix(8, [[Cyclotomic.zeta(8, l)]])]) for l in range(8)]
    chi = [Cyclotomic.zeta(8, k) for k in range(8)]
    alg = custom_algebra(group, simples, central=2, chi=chi, field_order=8)
    assert not alg.fusion_ready
    with pytest.raises(NotFusionReady):
        tensor_labels(alg, N(1, "c0"), N(1, "c1"))


def test_comp_factors(alg3):
    assert comp_factors(alg3, N(3, "eps")) == {
        SimpleLabel(TORSION, "eps"): 2, SimpleLabel(TORSION, "chi"): 1}
    assert comp_factors(alg3, N(1, 2)) == {SimpleLabel(TORSION, 2): 1}
    b = alg3.scalar(1)
    assert comp_factors(alg3, E(alg3, 2, 1, b)) == {
        canonical_simple(alg3, FREE, 1, b): 2}


_lab3 = st.one_of(
    st.tuples(st.just(NIL), st.integers(1, 6),
              st.sampled_from(["eps", "lam", "chi", "lamchi", 1, 2])),
    st.tuples(st.just(EIG), st.integers(1, 3),
              st.sampled_from(["eps", "lam", 1]),
              st.sampled_from([1, -1, 2, Rational(1, 2)])),
)


def _mk(alg, parts):
    if parts[0] == NIL:
        return canonicalize(alg, NIL, parts[1], parts[2])
    return canonicalize(alg, EIG, parts[1], parts[2], parts[3])


@settings(max_examples=60, deadline=None)
@given(a=_lab3, b=_lab3)
def test_dimension_conservation_and_commutativity(alg3, a, b):
    left = _mk(alg3, a)
    right = _mk(alg3, b)
    res = tensor_labels(alg3, left, right)
    assert multiset_dim(alg3, res) == label_dim(alg3, left) * label_dim(alg3, right)
    assert res == tensor_labels(alg3, right, left)


@settings(max_examples=40, deadline=None)
@given(a=_lab3, b=_lab3, c=_lab3)
def test_label_associativity(alg3, a, b, c):
    x, y, z = (_mk(alg3, s) for s in (a, b, c))

    def mul(multiset, lab):
        out = Counter()
        for left, m in multiset.items():
            for res, k in tensor_labels(alg3, left, lab).items():
                out[res] += m * k
        return out

    left = mul(tensor_labels(alg3, x, y), z)
    right = Counter()
    for res, k in tensor_labels(alg3, y, z).items():
        for lab, m in tensor_labels(alg3, x, res).items():
            right[lab] += k * m
    assert left == right


ORACLE_BETAS = (1, -1, 2, -2, Rational(1, 2))


def _assert_same_products(alg, labels):
    # equal Counters, and in the same insertion order
    for a in labels:
        for b in labels:
            want = reference_tensor_labels(alg, a, b)
            assert list(tensor_labels(alg, a, b).items()) == list(want.items()), (a, b)


@pytest.mark.parametrize("m", (3, 5, 7))
def test_closed_rules_match_reference_on_dihedral_grids(m):
    alg = dihedral_algebra(m)
    w = Cyclotomic.zeta(alg.field_order)
    _assert_same_products(alg, grid_labels(alg, 6, 3, ORACLE_BETAS + (w,)))


@pytest.mark.parametrize("name", ("c4", "c8", "s3c4", "a4c3"))
def test_closed_rules_match_reference_on_fixture_grids(name, request):
    alg = request.getfixturevalue(name)
    _assert_same_products(alg, grid_labels(alg, 3, 1, (1, -1, 2)))


def test_non_canonical_inputs_give_the_canonical_answer(alg3, c8):
    for alg in (alg3, c8):
        reps = set(alg.orbit_reps)
        others = [l for l in alg.labels if l not in reps]
        assert others
        beta = alg.scalar(2)
        partners = [N(1, alg.labels[0]), N(alg.s + 1, others[0]),
                    E(alg, 2, alg.labels[0], -1)]
        raw_inputs = [
            # an Eig label on a non-representative member of its orbit
            (IndecLabel(EIG, 2, others[0], beta), E(alg, 2, others[0], beta)),
            # beta 0 is the Nil label of length t * s
            (IndecLabel(EIG, 2, others[0], alg.zero()), N(2 * alg.s, others[0])),
            # int and Fraction betas
            (IndecLabel(EIG, 1, alg.labels[0], 2), E(alg, 1, alg.labels[0], 2)),
            (IndecLabel(EIG, 3, others[0], Rational(-1, 2)),
             E(alg, 3, others[0], Rational(-1, 2))),
            (IndecLabel(NIL, 2, others[0], 0), N(2, others[0])),
        ]
        for raw, canonical in raw_inputs:
            for other in partners:
                for a, b, ca, cb in ((raw, other, canonical, other),
                                     (other, raw, other, canonical)):
                    got = tensor_labels(alg, a, b)
                    assert got == tensor_labels(alg, ca, cb)
                    assert got == reference_tensor_labels(alg, a, b)
                    for lab in got:
                        assert canonicalize(alg, lab.kind, lab.t, lab.i, lab.beta) == lab


def test_malformed_inputs_keep_their_errors(alg3):
    good = N(1, "eps")
    for bad, error, message in (
            (IndecLabel(NIL, 0, "eps"), InvalidParameter,
             "t must be a positive integer, got 0"),
            (IndecLabel(EIG, 0, "eps", alg3.one()), InvalidParameter,
             "t must be a positive integer, got 0"),
            (IndecLabel(NIL, 1, "nope"), UnknownLabel, "no simple labelled 'nope'"),
            (IndecLabel(EIG, 1, "nope", alg3.one()), UnknownLabel,
             "no simple labelled 'nope'"),
            (IndecLabel(NIL, 2, "eps", alg3.one()), InvalidParameter,
             "Nil labels carry no eigenvalue")):
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(error) as caught:
                tensor_labels(alg3, a, b)
            assert str(caught.value) == message


def test_label_tuples_hash_print_and_compare_as_before(alg3):
    beta = alg3.scalar(Rational(-1, 2))
    nil, eig = N(1, "eps"), E(alg3, 2, 1, beta)
    assert hash(nil) == hash(("nil", 1, "eps", None))
    assert hash(eig) == hash(("eig", 2, 1, beta))
    assert repr(nil) == "IndecLabel(kind='nil', t=1, i='eps', beta=None)"
    assert repr(eig) == f"IndecLabel(kind='eig', t=2, i=1, beta={beta!r})"
    assert repr(beta) == "Cyclotomic(6, '-1/2')"
    torsion = SimpleLabel(TORSION, "eps")
    assert repr(torsion) == "SimpleLabel(kind='torsion', i='eps', beta=None)"
    assert hash(torsion) == hash(("torsion", "eps", None))
    assert (nil.kind, nil.t, nil.i, nil.beta) == ("nil", 1, "eps", None)
    # an IndecLabel never equals a SimpleLabel, whatever their fields
    for indec, simple in ((nil, torsion),
                          (IndecLabel("x", "eps", None), SimpleLabel("x", "eps", None)),
                          (IndecLabel(FREE, 1, beta), SimpleLabel(FREE, 1, beta))):
        assert indec != simple and simple != indec
        assert len({indec: 1, simple: 2}) == 2

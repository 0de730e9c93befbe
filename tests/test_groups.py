"""Algebra data: extension parameters, sigma/omega tables, fusion coefficients."""

import pytest

from hopfore.cyclotomic import Cyclotomic
from hopfore.errors import (
    IncompleteSimpleList, NonIntegerMultiplicity, NotCentral, NotIrreducible,
    TrivialQ, UnknownLabel,
)
from hopfore.groups import custom_algebra, dihedral_algebra, fusion_coeffs
from hopfore.linalg import Matrix

from conftest import cyclic_algebra


def test_dihedral_m3_parameters(alg3):
    assert alg3.group.size == 12
    assert alg3.s == 2
    assert alg3.q == Cyclotomic.rational(alg3.field_order, -1)
    assert alg3.fusion_ready
    assert [r.label for r in alg3.simples] == ["eps", "lam", "chi", "lamchi", 1, 2]
    assert [r.dim for r in alg3.simples] == [1, 1, 1, 1, 2, 2]


def test_dihedral_m3_sigma(alg3):
    assert alg3.sigma == {"eps": "chi", "lam": "lamchi", "chi": "eps",
                          "lamchi": "lam", 1: 2, 2: 1}
    for lab in alg3.labels:
        assert alg3.sigma_power(lab, 2) == lab


def test_dihedral_m3_omega(alg3):
    one = Cyclotomic.one(alg3.field_order)
    vals = {k: v for k, v in alg3.omega.items()}
    assert vals["eps"] == one
    assert vals["chi"] == -one
    assert vals[1] == -one
    # omega is +-1 here, so omega^2 = 1 on every simple
    for lab in alg3.labels:
        assert alg3.omega[lab] * alg3.omega[lab] == one


def test_orbit_reps(alg3, alg5):
    assert list(alg3.orbit_reps) == ["eps", "lam", 1]
    assert list(alg5.orbit_reps) == ["eps", "lam", 1, 2]


def test_invalid_m():
    from hopfore.errors import InvalidParameter

    for bad in (2, 4, 1, -3):
        with pytest.raises(InvalidParameter):
            dihedral_algebra(bad)


def test_fusion_examples(alg3, alg5):
    assert fusion_coeffs(alg3, 1, 1) == {"eps": 1, "lam": 1, 2: 1}
    assert fusion_coeffs(alg5, 1, 4) == {3: 1, "chi": 1, "lamchi": 1}
    for alg in (alg3, alg5):
        for lab in alg.labels:
            assert fusion_coeffs(alg, "eps", lab) == {lab: 1}
    with pytest.raises(UnknownLabel):
        fusion_coeffs(alg3, 1, 9)


def test_fusion_symmetric_and_dim_additive(alg5):
    for i in alg5.labels:
        for j in alg5.labels:
            nij = fusion_coeffs(alg5, i, j)
            assert nij == fusion_coeffs(alg5, j, i)
            total = sum(c * alg5.simple(l).dim for l, c in nij.items())
            assert total == alg5.simple(i).dim * alg5.simple(j).dim


@pytest.mark.parametrize("m", [3, 5, 7])
def test_two_dimensional_tensor_table(m):
    """The classical dihedral tensor table, clause by clause."""
    alg = dihedral_algebra(m)
    n = 2 * m
    assert fusion_coeffs(alg, "lam", "lam") == {"eps": 1}
    assert fusion_coeffs(alg, "chi", "chi") == {"eps": 1}
    assert fusion_coeffs(alg, "lam", "chi") == {"lamchi": 1}
    for l in range(1, m):
        assert fusion_coeffs(alg, "lam", l) == {l: 1}
        assert fusion_coeffs(alg, "chi", l) == {m - l: 1}
        if 2 * l < m:
            assert fusion_coeffs(alg, l, l) == {"eps": 1, "lam": 1, 2 * l: 1}
        else:
            assert fusion_coeffs(alg, l, l) == {"eps": 1, "lam": 1, n - 2 * l: 1}
        for t in range(1, m):
            if t == l:
                continue
            if l + t < m:
                want = {abs(l - t): 1, l + t: 1}
            elif l + t == m:
                want = {abs(l - t): 1, "chi": 1, "lamchi": 1}
            else:
                want = {abs(l - t): 1, n - l - t: 1}
            assert fusion_coeffs(alg, l, t) == want


def test_custom_matches_builtin(alg3):
    rebuilt = custom_algebra(
        alg3.group,
        [(r.label, list(r.gen_mats)) for r in alg3.simples],
        alg3.central, list(alg3.chi), alg3.field_order)
    assert rebuilt.q == alg3.q
    assert rebuilt.s == alg3.s
    assert rebuilt.sigma == alg3.sigma
    assert rebuilt.omega == alg3.omega
    assert rebuilt.fusion == alg3.fusion
    assert rebuilt.fusion_ready == alg3.fusion_ready


def test_custom_rejects_bad_data(alg3):
    simples = [(r.label, list(r.gen_mats)) for r in alg3.simples]
    with pytest.raises(TrivialQ):
        custom_algebra(alg3.group, simples, 0, list(alg3.chi), alg3.field_order)
    # a reflection is not central in D_6
    reflection = alg3.group.size // 2
    with pytest.raises(NotCentral):
        custom_algebra(alg3.group, simples, reflection, list(alg3.chi),
                       alg3.field_order)
    with pytest.raises(IncompleteSimpleList):
        custom_algebra(alg3.group, simples[:3], alg3.central, list(alg3.chi),
                       alg3.field_order)


def test_non_associative_table_rejected_at_any_size():
    # Z_202 with one product changed: identity, inverses and generation by
    # g1 survive, associativity does not ((1*1)*3 = 6 but 1*(1*3) = 5).
    from hopfore.errors import InvalidParameter
    from hopfore.groups import GroupData

    n = 202
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    GroupData(mul, generators=(1,))
    mul[2][3] = 6
    with pytest.raises(InvalidParameter, match="not associative"):
        GroupData(mul, generators=(1,))


def test_custom_rejects_reducible():
    n = 4
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    from hopfore.groups import GroupData

    group = GroupData(mul, generators=(1,))
    z = Cyclotomic.zeta(4)
    zero = Cyclotomic.zero(4)
    one = Cyclotomic.one(4)
    # squared dims sum to |G| but the single block is a sum of two characters
    simples = [("a", [Matrix(4, [[one, zero], [zero, z]])])]
    chi = [z ** k for k in range(4)]
    with pytest.raises(NotIrreducible):
        custom_algebra(group, simples, 1, chi, 4)


def _c4_group():
    from hopfore.groups import GroupData

    return GroupData([[(i + j) % 4 for j in range(4)] for i in range(4)],
                     generators=(1,))


def test_custom_rejects_equal_simples():
    # c1 listed twice: squared dimensions still add up to |C_4|
    from hopfore.errors import InvalidParameter

    simples = [(f"c{l}", [Matrix(4, [[Cyclotomic.zeta(4, l)]])]) for l in range(3)]
    simples.append(("c1b", [Matrix(4, [[Cyclotomic.zeta(4, 1)]])]))
    chi = [Cyclotomic.zeta(4, k) for k in range(4)]
    with pytest.raises(InvalidParameter,
                       match="^simples 'c1' and 'c1b' are not distinct$"):
        custom_algebra(_c4_group(), simples, 2, chi, 4)


def test_custom_rejects_non_representation():
    from hopfore.errors import InvalidParameter

    simples = [(f"c{l}", [Matrix(4, [[Cyclotomic.zeta(4, l)]])]) for l in range(3)]
    simples.append(("bad", [Matrix(4, [[2]])]))
    chi = [Cyclotomic.zeta(4, k) for k in range(4)]
    with pytest.raises(InvalidParameter,
                       match="^simple 'bad': matrices violate the group table$"):
        custom_algebra(_c4_group(), simples, 2, chi, 4)


def test_multiplicities(c4):
    # the regular character of C_4 holds every simple once
    four, zero = Cyclotomic.rational(4, 4), c4.zero()
    assert c4.multiplicities([four, zero, zero, zero]) == {
        "c0": 1, "c1": 1, "c2": 1, "c3": 1}
    # 1/4, irrational, negative: none is a multiplicity
    for values in ([c4.one(), zero, zero, zero],
                   [four * Cyclotomic.zeta(4), zero, zero, zero],
                   [-c4.one()] * 4):
        with pytest.raises(NonIntegerMultiplicity):
            c4.multiplicities(values)


def test_cyclic_c4(c4):
    assert c4.s == 4
    assert c4.q == Cyclotomic.zeta(4)
    assert c4.fusion_ready
    one = Cyclotomic.one(4)
    assert all(c4.omega_s(lab) == one for lab in c4.labels)
    assert c4.sigma["c0"] == "c1"


def test_cyclic_c8_twist(c8):
    # chi = zeta_8^2 gives q of order 4 = s, but omega_i^s alternates sign
    assert c8.s == 4
    assert c8.fusion_ready
    one = Cyclotomic.one(8)
    got = [c8.omega_s(f"c{k}") for k in range(8)]
    assert got == [one if k % 2 == 0 else -one for k in range(8)]


def test_not_fusion_ready():
    # chi of order 4 but q = chi(central)^2 of order 2 on C_4 with central g^2
    alg = cyclic_algebra(4, 2)
    # q = zeta_4^2 = -1 has order 2, s = |chi| = 2: this one IS ready
    assert alg.s == 2
    assert alg.fusion_ready
    mul = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    from hopfore.groups import GroupData

    group = GroupData(mul, generators=(1,))
    simples = [(f"c{l}", [Matrix(8, [[Cyclotomic.zeta(8, l)]])]) for l in range(8)]
    chi = [Cyclotomic.zeta(8, k) for k in range(8)]  # order 8
    alg2 = custom_algebra(group, simples, central=2, chi=chi, field_order=8)
    # q = chi(g^2) = zeta_8^2 has order 4 < 8 = |chi|
    assert alg2.q.multiplicative_order() == 4
    assert alg2.s == 8
    assert not alg2.fusion_ready


def _conjugacy_class(group, g):
    return {group.mul[group.mul[h][g]][group.inverse[h]] for h in range(group.size)}


def test_conjugacy_classes(alg3, alg5, alg7, c4, c8):
    for alg, want in ((alg3, 6), (alg5, 8), (alg7, 10), (c4, 4), (c8, 8)):
        group = alg.group
        assert len(group.classes) == want
        seen = set()
        for rep, size in group.classes:
            members = _conjugacy_class(group, rep)
            assert rep == min(members) and len(members) == size
            for g in members:
                assert _conjugacy_class(group, g) == members
            assert not seen & members
            seen |= members
        assert seen == set(range(group.size))
        assert [rep for rep, _ in group.classes] == sorted(
            rep for rep, _ in group.classes)
        # the weights turn the character of each simple into its own
        # multiplicity 1, and every other simple's into 0
        for s, weights in zip(alg.simples, alg.class_weights):
            for t in alg.simples:
                got = sum((w * t.char[rep] for w, (rep, _) in
                           zip(weights, group.classes)), alg.zero())
                assert got == (1 if t is s else 0), (s.label, t.label)

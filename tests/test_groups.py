"""Algebra data: extension parameters, sigma/omega tables, fusion coefficients."""

import random

import pytest

from hopfore.cyclotomic import Cyclotomic, Rational, field_degree
from hopfore.errors import (
    IncompleteSimpleList, InvalidParameter, NonIntegerMultiplicity, NotCentral,
    NotIrreducible, TrivialQ,
)
from hopfore.groups import SimpleRep, custom_algebra, dihedral_algebra
from hopfore.linalg import Matrix
from hopfore.modules import ExplicitModule, module_nilpotent, tensor, validate

from conftest import (
    character_order, class_parts, class_traces, cyclic_algebra, reference_multiplicities,
    word_products, word_violations,
)

FIXTURES = ["alg3", "alg5", "alg7", "alg15", "c4", "c8", "s3c4", "a4c3"]


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
    assert alg3.fusion[(1, 1)] == {"eps": 1, "lam": 1, 2: 1}
    assert alg5.fusion[(1, 4)] == {3: 1, "chi": 1, "lamchi": 1}
    for alg in (alg3, alg5):
        for lab in alg.labels:
            assert alg.fusion[("eps", lab)] == {lab: 1}


def test_fusion_symmetric_and_dim_additive(alg5):
    for i in alg5.labels:
        for j in alg5.labels:
            nij = alg5.fusion[(i, j)]
            assert nij == alg5.fusion[(j, i)]
            total = sum(c * alg5.simple(l).dim for l, c in nij.items())
            assert total == alg5.simple(i).dim * alg5.simple(j).dim


@pytest.mark.parametrize("m", [3, 5, 7])
def test_two_dimensional_tensor_table(m):
    """The classical dihedral tensor table, clause by clause."""
    alg = dihedral_algebra(m)
    n = 2 * m
    assert alg.fusion[("lam", "lam")] == {"eps": 1}
    assert alg.fusion[("chi", "chi")] == {"eps": 1}
    assert alg.fusion[("lam", "chi")] == {"lamchi": 1}
    for l in range(1, m):
        assert alg.fusion[("lam", l)] == {l: 1}
        assert alg.fusion[("chi", l)] == {m - l: 1}
        if 2 * l < m:
            assert alg.fusion[(l, l)] == {"eps": 1, "lam": 1, 2 * l: 1}
        else:
            assert alg.fusion[(l, l)] == {"eps": 1, "lam": 1, n - 2 * l: 1}
        for t in range(1, m):
            if t == l:
                continue
            if l + t < m:
                want = {abs(l - t): 1, l + t: 1}
            elif l + t == m:
                want = {abs(l - t): 1, "chi": 1, "lamchi": 1}
            else:
                want = {abs(l - t): 1, n - l - t: 1}
            assert alg.fusion[(l, t)] == want


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


def _reference_weights(alg, s):
    """|C| chi_s(g_C^{-1}) / |G| per class C, in Cyclotomic arithmetic."""
    group = alg.group
    return [s.char[group.inverse[g]] * size / group.size for g, size in group.classes]


def _reference_inner(alg, s, values):
    """<a, chi_s> for a class function given at the class representatives."""
    return sum((w * v for w, v in zip(_reference_weights(alg, s), values)), alg.zero())


def test_conjugacy_classes(alg3, alg5, alg7, c4, c8, s3c4, a4c3):
    for alg, want in ((alg3, 6), (alg5, 8), (alg7, 10), (c4, 4), (c8, 8),
                      (s3c4, 12), (a4c3, 12)):
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
        # the reference weights turn the character of each simple into its
        # own multiplicity 1, and every other simple's into 0; the stored
        # form holds them times zeta^j, row r giving coordinate r over
        # char_den at position (class, j)
        order = alg.field_order
        d = field_degree(order)
        for s, rows in zip(alg.simples, alg.char_form):
            for t in alg.simples:
                got = _reference_inner(alg, s, [t.char[rep] for rep, _ in group.classes])
                assert got == (1 if t is s else 0), (s.label, t.label)
            assert len(rows) == d
            for c, w in enumerate(_reference_weights(alg, s)):
                for j in range(d):
                    want = (w * Cyclotomic.zeta(order, j)).coeffs
                    assert tuple(Rational(row[c * d + j], alg.char_den)
                                 for row in rows) == want, (s.label, c, j)


@pytest.mark.parametrize("name", FIXTURES)
def test_multiplicities_of_character_combinations(name, request):
    """Seeded nonnegative integer combinations of the simple characters
    come back as their coefficients, as the in-test reference says."""
    alg = request.getfixturevalue(name)
    reps = [g for g, _ in alg.group.classes]
    rng = random.Random(20261018)
    for _ in range(12):
        coeffs = {s.label: rng.choice((0, 0, 1, 2, 7)) for s in alg.simples}
        values = [sum((coeffs[s.label] * s.char[g] for s in alg.simples), alg.zero())
                  for g in reps]
        assert alg.multiplicities(alg.class_table, class_parts(alg, values)) == {
            l: c for l, c in coeffs.items() if c}
        assert {s.label: _reference_inner(alg, s, values)
                for s in alg.simples} == coeffs


def test_multiplicities(c4, alg5):
    # the regular character of C_4 holds every simple once
    four, zero4, zero10 = Cyclotomic.rational(4, 4), c4.zero(), alg5.zero()
    assert c4.multiplicities(c4.class_table, class_parts(c4, [four, zero4, zero4, zero4])) == {
        "c0": 1, "c1": 1, "c2": 1, "c3": 1}
    # none of these is a character: each fails the guard with the value
    # that the in-test reference gives
    cases = [
        # mixed denominators: the values are put over their lcm, 6
        (c4, [Cyclotomic.rational(4, Rational(1, 2)),
              Cyclotomic.rational(4, Rational(1, 3)), zero4, zero4]),
        # degree 4 at m = 5, one nonzero coordinate, irrational
        (alg5, [20 * Cyclotomic.zeta(10, 2)] + [zero10] * 7),
        (c4, [four * Cyclotomic.zeta(4), zero4, zero4, zero4]),
        # negative
        (c4, [-c4.one()] * 4),
        # not integral: 1/4
        (c4, [c4.one(), zero4, zero4, zero4]),
    ]
    for alg, values in cases:
        first = alg.simples[0]
        ref = _reference_inner(alg, first, values)
        shown = None if any(ref.num[1:]) else Rational(ref.num[0], ref.den)
        assert shown is None or shown < 0 or shown.denominator != 1
        with pytest.raises(NonIntegerMultiplicity) as err:
            alg.multiplicities(alg.class_table, class_parts(alg, values))
        assert str(err.value) == f"isotypic multiplicity of {first.label!r} came out {shown}"


def _same_as_reference(alg, values):
    """_parts_as_reference for a class function given by its values at the
    class representatives, as parts over class_table."""
    return _parts_as_reference(alg, alg.class_table, class_parts(alg, values))


def _parts_as_reference(alg, table, parts):
    """multiplicities(table, parts) and the reference on the class values
    that the oracle class_traces gives for the parts agree: equal results,
    or NonIntegerMultiplicity from both with the same message."""
    try:
        want = reference_multiplicities(alg, class_traces(alg, table, parts))
    except NonIntegerMultiplicity as e:
        with pytest.raises(NonIntegerMultiplicity) as err:
            alg.multiplicities(table, parts)
        assert str(err.value) == str(e)
        return None
    assert alg.multiplicities(table, parts) == want
    return want


def _orbit_parts(alg, coeffs):
    """Parts over central_orbits of the representation that holds the k-th
    simple coeffs[k] times: a acts on V_s by omega_s, so t_mu(g) is the sum
    of c_s chi_s(g) over the simples s of weight mu."""
    parts = []
    for g, _ in alg.central_orbits:
        by_weight = {}
        for s, c in zip(alg.simples, coeffs):
            if c:
                mu = alg.omega[s.label]
                by_weight[mu] = by_weight.get(mu, alg.zero()) + c * s.char[g]
        parts.append(by_weight)
    return parts


@pytest.mark.parametrize("name", FIXTURES)
def test_packed_multiplicities_match_reference(name, request):
    """The packed inner product equals the dot-product reference on the
    simple characters, the fusion products, seeded combinations with
    coefficients past 2^64 and 2^300 (the slot width grows), the zero class
    function, and non-characters, which both refuse with one message; and
    so do the per-orbit, per-weight parts of the same combinations over
    central_orbits, where the weights are the omega_s (zeta_8^k on c8), and
    of non-characters made from them."""
    alg = request.getfixturevalue(name)
    reps = [g for g, _ in alg.group.classes]
    chars = [[s.char[g] for g in reps] for s in alg.simples]
    table = alg.central_orbits
    for s, a in zip(alg.simples, chars):
        assert _same_as_reference(alg, a) == {s.label: 1}
        unit = [int(t is s) for t in alg.simples]
        assert _parts_as_reference(alg, table, _orbit_parts(alg, unit)) == {s.label: 1}
        for b in chars:
            assert _same_as_reference(alg, [u * v for u, v in zip(a, b)])
    zero = [alg.zero()] * len(reps)
    assert _same_as_reference(alg, zero) == {}
    assert _parts_as_reference(alg, table, [{} for _ in table]) == {}
    rng = random.Random(20261023)
    for bits in (70, 310):
        for _ in range(3):
            coeffs = [rng.choice((0, 1, rng.getrandbits(bits) | 1 << (bits - 1)))
                      for _ in alg.simples]
            coeffs[0] = 1 << bits
            values = [sum((c * a[k] for c, a in zip(coeffs, chars)), alg.zero())
                      for k in range(len(reps))]
            want = {s.label: c for s, c in zip(alg.simples, coeffs) if c}
            assert _same_as_reference(alg, values) == want
            assert _parts_as_reference(alg, table, _orbit_parts(alg, coeffs)) == want
            # one negative coefficient is no character
            coeffs[rng.choice([j for j, c in enumerate(coeffs) if c])] *= -1
            values = [sum((c * a[k] for c, a in zip(coeffs, chars)), alg.zero())
                      for k in range(len(reps))]
            assert _same_as_reference(alg, values) is None
            assert _parts_as_reference(alg, table, _orbit_parts(alg, coeffs)) is None
    assert max(alg._packs) >= 512
    w = Cyclotomic.zeta(alg.field_order)
    for shift in (Rational(1, 2), w, w / 3):
        for a in chars[:3]:
            assert _same_as_reference(alg, [v + shift for v in a]) is None
        for k in range(min(3, len(alg.simples))):
            parts = _orbit_parts(alg, [int(j == k) for j in range(len(alg.simples))])
            shifted = [{mu: t + shift for mu, t in by_weight.items()} for by_weight in parts]
            assert _parts_as_reference(alg, table, shifted) is None


@pytest.mark.parametrize("name", FIXTURES)
def test_packed_multiplicities_at_weights_off_the_unit_circle(name, request):
    """Parts whose weight is no root of unity, as a module that is no
    representation gives them, weigh the packed columns by large or
    fractional powers mu^e: the packed inner product still equals the
    reference, or refuses with its message, for numerators of every bit
    length up to 130, so no slot width is too narrow for its columns."""
    alg = request.getfixturevalue(name)
    table = alg.central_orbits
    w = Cyclotomic.zeta(alg.field_order)
    for mu in (alg.scalar(1000), alg.scalar(Rational(1, 2)), 3 * w):
        for bits in range(1, 131):
            value = alg.scalar((1 << bits) - 1)
            parts = [{mu: value}] + [{} for _ in table[1:]]
            _parts_as_reference(alg, table, parts)
            parts[0] = {mu: value, alg.one(): value}
            _parts_as_reference(alg, table, parts)


@pytest.mark.parametrize("name", FIXTURES)
def test_element_matrices_are_word_products(name, request):
    """The one-pass element matrices are the products along the words."""
    alg = request.getfixturevalue(name)
    group = alg.group
    for s in alg.simples:
        assert list(s.element_mats) == word_products(
            group, s.gen_mats, alg.field_order, s.dim)
        assert s.violations == ()


@pytest.mark.parametrize("name", FIXTURES)
def test_character_order_matches_pointwise_powers(name, request):
    """s, read off chi at the generators, is the order of chi at every
    element, and fusion readiness compares q's order with it."""
    alg = request.getfixturevalue(name)
    s = character_order(alg.group, alg.chi)
    assert alg.s == s
    assert alg.fusion_ready == (alg.q.multiplicative_order() == s)


def _corrupted(mats, k, order):
    """mats with entry (0, 0) of generator k's matrix raised by 1."""
    out = list(mats)
    rows = [dict(r) for r in out[k].rows]
    rows[0][0] = rows[0].get(0, Cyclotomic.zero(order)) + 1
    rows[0] = {j: v for j, v in rows[0].items() if v}
    out[k] = Matrix.from_rows(order, rows, out[k].ncols)
    return out


@pytest.mark.parametrize("name", ["alg3", "c8", "s3c4", "a4c3"])
def test_corrupted_generator_violations_match_words(name, request):
    """A simple or module with one corrupted generator matrix gets the
    violation list and validate() findings that the word-by-word expansion
    gives."""
    alg = request.getfixturevalue(name)
    group, order = alg.group, alg.field_order
    for k in range(len(group.generators)):
        for s in alg.simples[-2:]:
            mats = _corrupted(s.gen_mats, k, order)
            bad = SimpleRep("bad", mats, group, order)
            want = word_violations(group, mats, word_products(group, mats, order, s.dim))
            assert want and list(bad.violations) == want
            assert list(bad.element_mats) == word_products(group, mats, order, s.dim)
        good = tensor(module_nilpotent(alg, 2, alg.labels[-1]),
                      module_nilpotent(alg, 1, alg.labels[0]))
        mats = _corrupted(good.gen_actions, k, order)
        mod = ExplicitModule(alg, mats, good.x_action, good.provenance)
        found = validate(mod)
        words = word_products(group, mats, order, mod.dim)
        want = [f"group-relation: element {group.names[g]} * generator {j} "
                "violates the multiplication table"
                for g, j in word_violations(group, mats, words)]
        assert want and found[:len(want)] == want
        assert all(not line.startswith("group-relation") for line in found[len(want):])


def test_chi_checked_at_every_element(alg3, c4):
    """chi changed at one element that is not a generator is still caught,
    though only (element, generator) pairs are checked."""
    for alg in (alg3, c4):
        group = alg.group
        others = [g for g in range(group.size)
                  if g != group.identity and g not in group.generators]
        for g in others:
            chi = list(alg.chi)
            chi[g] = -chi[g]
            with pytest.raises(InvalidParameter, match="chi is not a homomorphism"):
                custom_algebra(group, alg.simples, alg.central, chi, alg.field_order)


@pytest.mark.parametrize("m, count", [(3, 144), (5, 320), (7, 560)])
def test_build_matrix_products(m, count, monkeypatch):
    """A dihedral build multiplies #simples * |G| * #generators matrices:
    one per (element, generator) pair of each simple."""
    calls = []
    product = Matrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    alg = dihedral_algebra.__wrapped__(m)
    assert len(calls) == count == len(alg.simples) * alg.group.size * 2

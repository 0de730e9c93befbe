"""Explicit module constructors, tensor products, validation."""

import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import Cyclotomic, Rational
from hopfore.errors import AlgebraMismatch, InvalidParameter, UnknownLabel, ZeroBeta
from hopfore.groups import algebra_from_descriptor
from hopfore.linalg import Matrix
from hopfore.modules import (
    ExplicitModule, module_eigen, module_nilpotent, tensor, validate,
)
from hopfore.syntax import parse_cyclotomic

from conftest import companion_module, direct_sum, mat_power, word_products


def test_nilpotent_t1_is_simple_with_zero_x(alg3):
    m = module_nilpotent(alg3, 1, 1)
    assert m.dim == 2
    assert not any(m.x_action.rows)
    assert m.gen_actions == alg3.simple(1).gen_mats


def test_nilpotent_block_structure(alg3):
    m = module_nilpotent(alg3, 3, "eps")
    assert m.dim == 3
    x = m.x_action
    assert any(mat_power(x, 2).rows)
    assert not any(mat_power(x, 3).rows)
    assert validate(m) == []
    assert m.provenance == {Cyclotomic.zero(alg3.field_order)}


def test_nilpotent_validate_bigger(alg3):
    assert validate(module_nilpotent(alg3, 4, 1)) == []


def test_nilpotent_bad_args(alg3):
    with pytest.raises(InvalidParameter):
        module_nilpotent(alg3, 0, "eps")
    with pytest.raises(UnknownLabel):
        module_nilpotent(alg3, 2, "nope")


def test_eigen_single_block(alg3):
    b = alg3.scalar(5)
    m = module_eigen(alg3, 1, "eps", b)
    assert m.dim == 2
    assert mat_power(m.x_action, 2) == Matrix.scalar(alg3.field_order, 2, b)


def test_eigen_depth_two(alg3):
    m = module_eigen(alg3, 2, "eps", 1)
    assert m.dim == 4
    shifted = mat_power(m.x_action, 2) + Matrix.scalar(alg3.field_order, 4, -1)
    assert any(shifted.rows)
    assert not any(mat_power(shifted, 2).rows)


def test_eigen_two_dim_simple(alg3):
    m = module_eigen(alg3, 1, 1, 1)
    assert m.dim == 4
    assert validate(m) == []


def _betas(alg):
    """Two signs, an integer and an irrational beta."""
    return (1, -1, 3, Cyclotomic.zeta(alg.field_order) + 2)


def companion_to_shift(alg, t, i, beta):
    """The change of basis P that takes coordinates on x^j v to coordinates
    on x^r (x^s - beta)^l v: by the binomial theorem,
    x^(ls+r) v = sum_k C(l, k) beta^(l-k) x^r (x^s - beta)^k v."""
    b, s, d = alg.scalar(beta), alg.s, alg.simple_by_label[i].dim
    dim = t * s * d
    rows = [{} for _ in range(dim)]
    for l in range(t):
        for k in range(l + 1):
            coeff = comb(l, k) * b ** (l - k)
            for r in range(s):
                for c in range(d):
                    rows[(k * s + r) * d + c][(l * s + r) * d + c] = coeff
    return Matrix.from_rows(alg.field_order, rows, dim)


@pytest.mark.parametrize("fixture", ["alg3", "alg5", "c8", "s3c4", "a4c3", "c8_unready"])
def test_eigen_module_is_the_companion_module(fixture, request):
    """P old = new P exactly, for x and every generator, where old is the
    module on the companion basis x^j v with its binomial top stratum."""
    alg = request.getfixturevalue(fixture)
    for t in (1, 2, 3, 5):
        for beta in _betas(alg):
            for i in alg.labels:
                old, new = companion_module(alg, t, i, beta), module_eigen(alg, t, i, beta)
                p = companion_to_shift(alg, t, i, beta)
                # P fixes v, which generates the module over x, so no other
                # P (not even a scalar multiple) satisfies both checks below
                d = alg.simple_by_label[i].dim
                assert all(p.rows[k].get(c, 0) == (k == c)
                           for k in range(p.nrows) for c in range(d))
                assert p @ old.x_action == new.x_action @ p, (t, beta, i)
                for g_old, g_new in zip(old.gen_actions, new.gen_actions):
                    assert p @ g_old == g_new @ p, (t, beta, i)
                assert new.provenance == old.provenance
                assert validate(new) == []


@pytest.mark.parametrize("fixture, t_max", [
    ("alg3", 64), ("c8", 8), ("s3c4", 8), ("a4c3", 8)])
def test_eigen_x_entries_are_one_or_beta(fixture, t_max, request):
    """On x^r (x^s - beta)^l v, x only shifts and adds beta at a wrap: no
    entry grows with t, as the companion basis's binomials C(t, l) do."""
    alg = request.getfixturevalue(fixture)
    for beta in _betas(alg):
        b = alg.scalar(beta)
        for i in alg.labels:
            for t in range(1, t_max + 1):
                x = module_eigen(alg, t, i, b).x_action
                assert {v for row in x.rows for v in row.values()} == {alg.one(), b}


def test_eigen_zero_beta_rejected(alg3):
    with pytest.raises(ZeroBeta):
        module_eigen(alg3, 2, "eps", 0)


def test_x_power_s_is_central(alg3):
    for mod in (module_nilpotent(alg3, 3, 1), module_eigen(alg3, 2, 1, -1)):
        xs = mat_power(mod.x_action, alg3.s)
        for g in mod.gen_actions:
            assert xs @ g == g @ xs


def test_tensor_unit(alg3):
    unit = module_nilpotent(alg3, 1, "eps")
    m = module_eigen(alg3, 2, 1, 1)
    prod = tensor(unit, m)
    assert prod.gen_actions == m.gen_actions
    assert prod.x_action == m.x_action


def test_tensor_eigenvalue(alg3):
    b = alg3.scalar(Rational(1, 2))
    prod = tensor(module_nilpotent(alg3, 2, "eps"), module_eigen(alg3, 1, "eps", b))
    assert prod.dim == 4
    shifted = mat_power(prod.x_action, 2) + Matrix.scalar(alg3.field_order, 4, -b)
    assert not any(mat_power(shifted, 4).rows)
    assert validate(prod) == []


def test_tensor_provenance_closure(alg3):
    a = module_eigen(alg3, 1, "eps", 2)
    b = module_eigen(alg3, 1, 1, 3)
    prod = tensor(a, b)
    # exactly u*2 + 3 for u in {omega_i^s}, which is {1} at m = 3
    assert prod.provenance == {alg3.scalar(5)}


def test_tensor_mismatch(alg3, alg5):
    with pytest.raises(AlgebraMismatch):
        tensor(module_nilpotent(alg3, 1, "eps"), module_nilpotent(alg5, 1, "eps"))


def test_direct_sum(alg3):
    a = module_nilpotent(alg3, 2, 1)
    b = module_eigen(alg3, 1, "lam", 1)
    s = direct_sum(a, b)
    assert s.dim == a.dim + b.dim
    assert validate(s) == []
    empty = Matrix(alg3.field_order, [], 0)
    z = ExplicitModule(alg3, [empty] * len(alg3.group.generators), empty, ())
    assert direct_sum(a, z).gen_actions == a.gen_actions
    assert direct_sum(a, z).x_action == a.x_action


def test_validate_negative_control(alg3):
    good = module_nilpotent(alg3, 2, "eps")
    bad_x = good.x_action + Matrix.identity(alg3.field_order, good.dim)
    bad = ExplicitModule(alg3, list(good.gen_actions), bad_x, good.provenance)
    report = validate(bad)
    assert report
    assert any("x" in line for line in report)


def test_serialization_round_trip(alg3, c8):
    # the written literals read back to the module's own matrices
    for mod in (module_eigen(alg3, 2, 1, Rational(1, 2)),
                module_eigen(c8, 1, "c3", -2)):
        data = json.loads(mod.to_json())
        n = mod.alg.field_order
        assert algebra_from_descriptor(data["algebra"]) == mod.alg
        assert data["dim"] == mod.dim
        assert [Matrix.from_literals(n, m) for m in data["gen_actions"]] == list(
            mod.gen_actions)
        assert Matrix.from_literals(n, data["x_action"]) == mod.x_action
        assert {parse_cyclotomic(n, v) for v in data["provenance"]} == mod.provenance


_t = st.integers(min_value=1, max_value=3)
_i = st.sampled_from(["eps", "lam", "chi", "lamchi", 1, 2])
_b = st.sampled_from([1, -1, 2, Rational(1, 2)])


@settings(max_examples=25, deadline=None)
@given(t1=_t, i1=_i, t2=st.integers(min_value=1, max_value=2), i2=_i, b=_b)
def test_tensor_of_constructors_validates(alg3, t1, i1, t2, i2, b):
    left = module_nilpotent(alg3, t1, i1)
    right = module_eigen(alg3, t2, i2, b)
    assert validate(tensor(left, right)) == []
    assert validate(tensor(right, left)) == []


def _assert_kronecker_action_matches_words(mod):
    alg = mod.alg
    assert mod.factors is not None
    words = word_products(alg.group, mod.gen_actions, alg.field_order, mod.dim)
    for g in range(alg.group.size):
        assert mod.element_action(g) == words[g], g


def test_tensor_element_action_is_kronecker(alg3, c8):
    inner = tensor(module_nilpotent(alg3, 2, 1), module_eigen(alg3, 1, "lam", 2))
    nested = tensor(inner, module_nilpotent(alg3, 2, "chi"))
    assert nested.factors[0] is inner
    _assert_kronecker_action_matches_words(inner)
    _assert_kronecker_action_matches_words(nested)
    cyc = tensor(module_eigen(c8, 1, "c3", -2), module_nilpotent(c8, 3, "c1"))
    _assert_kronecker_action_matches_words(cyc)
    # modules built any other way keep word expansion
    assert module_nilpotent(alg3, 2, 1).factors is None
    assert direct_sum(inner, inner).factors is None


def test_validate_checks_tensor_generators(alg3):
    good = module_nilpotent(alg3, 1, "eps")
    n = alg3.field_order
    bad_gen = [Matrix(n, [[Rational(1, 3)]]) for _ in good.gen_actions]
    bad = ExplicitModule(alg3, bad_gen, good.x_action, good.provenance)
    report = validate(tensor(bad, module_nilpotent(alg3, 2, 1)))
    assert any(line.startswith("group-relation") for line in report)


def test_generator_actions_are_not_rebuilt(alg5):
    prod = tensor(module_eigen(alg5, 1, 1, 2), module_nilpotent(alg5, 2, "chi"))
    group = alg5.group
    words = word_products(group, prod.gen_actions, alg5.field_order, prod.dim)
    assert prod.element_action(group.identity) == Matrix.identity(
        alg5.field_order, prod.dim)
    for k, gen in enumerate(group.generators):
        assert group.words[gen] == (k,)
        assert prod.element_action(gen) is prod.gen_actions[k]
        assert prod.element_action(gen) == words[gen]

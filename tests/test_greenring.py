"""Green ring and Grothendieck ring arithmetic, power bases, presentations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import Rational
from hopfore.errors import (
    InternalInconsistency, InvalidParameter, RingMismatch, UnsupportedLabel,
)
from hopfore import greenring
from hopfore.greenring import (
    GREEN, GROTH, MAX_EXPONENT, RingElement, eval_expr,
    f_poly, format_element, g_poly, green_basis,
    groth_basis, groth_to_x2_basis, groth_to_x_basis, ring_mul, to_groth,
    unit, verify_presentation, _evaluate, _unimodular, _x1_basis, _x2_basis,
)
from hopfore.grid import grid_labels
from hopfore.groups import algebra_from_descriptor
from hopfore.syntax import format_terms
from hopfore.labels import EIG, NIL, IndecLabel, label_dim, multiset_dim

from conftest import binomial_power_decomposition


def x1_to_groth(alg, pairs):
    """Evaluate (name, integer) pairs over X_1 in the Grothendieck ring."""
    return _evaluate(alg, dict(_x1_basis(alg)), pairs)


def ev(alg, src, ring=GREEN):
    return eval_expr(alg, src, ring)


def test_element_arithmetic(alg3):
    x = green_basis(alg3, IndecLabel(NIL, 1, 1))
    y = green_basis(alg3, IndecLabel(NIL, 2, "eps"))
    assert x + y - x == y
    assert (x - x) == RingElement(GREEN, alg3, {})
    assert not (x - x)
    assert x.scale(3) == x + x + x
    assert unit(alg3, GREEN) * x == x


def test_green_products_frozen(alg3):
    x = ev(alg3, "x")
    y = ev(alg3, "y")
    z = ev(alg3, "z")
    assert format_element(x * x) == "V[1](eps) + V[1](lam) + V[1](2)"
    assert format_element(to_groth(x) * to_groth(x)) == "1 + lam + V[1](2)"
    assert format_element(y * y) == "V[2](eps) + V[2](chi)"
    assert format_element(y * z) == "V[4](eps) + V[2](chi)"
    chi = ev(alg3, "chi")
    v4 = ev(alg3, "V[4](eps)")
    assert y * z - chi * y == v4


def test_green_w_relations(alg3):
    w1 = ev(alg3, "w[1]")
    wm1 = ev(alg3, "w[-1]")
    w2 = ev(alg3, "w[2]")
    y = ev(alg3, "y")
    chi = ev(alg3, "chi")
    assert w1 * w1 == w2.scale(2)
    assert w1 * wm1 == (unit(alg3, GREEN) + chi) * y
    assert y * w1 == w1.scale(2)


def test_groth_zero_identity(alg3):
    assert not ev(alg3, "x^3 - 3*x - (1+lam)*chi", GROTH)


def test_eval_expr_arithmetic(alg3):
    assert not ev(alg3, "2*x - x - x")
    lhs = ev(alg3, "(x+y)^2")
    x, y = ev(alg3, "x"), ev(alg3, "y")
    assert lhs == x * x + x * y + y * x + y * y
    assert ev(alg3, "-x + x") == RingElement(GREEN, alg3, {})


def test_powers_by_squaring(alg3):
    x = ev(alg3, "x", GROTH)
    p = unit(alg3, GROTH)
    for e in range(12):
        assert x ** e == p
        p = p * x
    y = ev(alg3, "y")
    assert y ** 5 == y * y * y * y * y


def test_exponent_limit(alg3, monkeypatch):
    x = ev(alg3, "x")
    # no product is taken before the exponent is refused
    monkeypatch.setattr(greenring, "ring_mul", None)
    for src in (f"x^{MAX_EXPONENT + 1}", "x^10000000"):
        with pytest.raises(InvalidParameter, match="limit"):
            ev(alg3, src)
    with pytest.raises(InvalidParameter, match="limit"):
        x ** (MAX_EXPONENT + 1)


def test_ring_product_limits(alg3, monkeypatch):
    calls = []
    monkeypatch.setattr(greenring, "tensor_labels",
                        lambda alg, a, b: calls.append((a, b)) or {})

    def strings(n, coeff=1):
        return RingElement(GREEN, alg3, {IndecLabel(NIL, t, "eps"): coeff
                                          for t in range(1, n + 1)})

    # the pair count is checked before any label pair is tensored
    side = int(greenring.MAX_RING_PAIRS ** 0.5)
    assert side * side == greenring.MAX_RING_PAIRS
    ring_mul(strings(side), strings(side))
    assert len(calls) == greenring.MAX_RING_PAIRS
    calls.clear()
    for a, b in ((strings(side + 1), strings(side)), (strings(side), strings(side + 1))):
        with pytest.raises(InvalidParameter, match="label pairs"):
            ring_mul(a, b)
    assert not calls
    # `*` also bounds the coefficients' bits, which nested powers double
    half = greenring.MAX_SCALAR_BITS // 2
    strings(1, 2 ** (half - 1)) * strings(1, -(2 ** (half - 1)))
    with pytest.raises(InvalidParameter, match="bits"):
        strings(1, 2 ** half) * strings(1, 2 ** (half - 1))
    with pytest.raises(InvalidParameter, match="bits"):
        strings(1, 2 ** half) ** 2
    assert len(calls) == 1


def test_unknown_ring_rejected(alg3):
    for call in (lambda: unit(alg3, "bogus"),
                 lambda: eval_expr(alg3, "x*x + 2", "bogus"),
                 lambda: eval_expr(alg3, "x", "bogus")):
        with pytest.raises(InvalidParameter, match="unknown ring"):
            call()


def test_ring_and_algebra_mismatch(alg3, alg5):
    from hopfore.errors import AlgebraMismatch

    with pytest.raises(RingMismatch):
        ev(alg3, "x") * ev(alg3, "x", GROTH)
    with pytest.raises(AlgebraMismatch):
        ring_mul(ev(alg3, "x"), ev(alg5, "x"))


def test_to_groth_is_composition_series(alg3):
    v = to_groth(ev(alg3, "V[3](eps)"))
    assert v.coeffs == {IndecLabel(NIL, 1, "eps"): 2,
                        IndecLabel(NIL, 1, "chi"): 1}


def test_unit_is_the_trivial_simple(c4_reordered):
    # the trivial simple c0 is listed second; the unit and the text "1" are
    # found by its character, not by its position
    alg = algebra_from_descriptor(c4_reordered)
    assert alg.labels[:2] == ("c1", "c0")
    assert unit(alg, GROTH).coeffs == {IndecLabel(NIL, 1, "c0"): 1}
    assert unit(alg, GREEN).coeffs == {IndecLabel(NIL, 1, "c0"): 1}
    c2 = ev(alg, "V[1](c2)", GROTH)
    assert ev(alg, "2*V[1](c2)", GROTH) == c2.scale(2)
    assert ev(alg, "1*V[1](c2)", GROTH) == c2
    assert ev(alg, "V[1](c2)", GROTH) ** 0 == unit(alg, GROTH)
    assert format_element(ev(alg, "V[1](c1) + 3 + V[2](c1)", GROTH)) == "2*c1 + 3 + c2"


def test_groth_basis_takes_a_length_1_label(alg3):
    assert groth_basis(alg3, IndecLabel(NIL, 1, "chi")) == ev(alg3, "chi", GROTH)
    # an Eig simple on a non-representative is put on its orbit representative
    assert groth_basis(alg3, IndecLabel(EIG, 1, "chi", 2)) == ev(alg3, "y[2]", GROTH)
    # V[1](eps;0) is the nilpotent V[2](eps), which is not simple
    for label in (IndecLabel(NIL, 2, "eps"), IndecLabel(EIG, 1, "eps", 0)):
        with pytest.raises(UnsupportedLabel, match="V\\[2\\]\\(eps\\) is not simple"):
            groth_basis(alg3, label)


@pytest.mark.parametrize("name", ("c4", "s3c4", "a4c3"))
def test_groth_products_of_group_simples_follow_the_fusion_rule(name, request):
    # x acts as x (x) a + 1 (x) x = 0 on V_1(i) (x) V_1(j), so the product is
    # the group algebra's, read from alg.fusion and not from the string rules
    alg = request.getfixturevalue(name)
    assert alg.s > 2
    for i in alg.labels:
        for j in alg.labels:
            got = ring_mul(groth_basis(alg, IndecLabel(NIL, 1, i)),
                           groth_basis(alg, IndecLabel(NIL, 1, j)))
            want = {IndecLabel(NIL, 1, l): n for l, n in alg.fusion[(i, j)].items()}
            assert got == RingElement(GROTH, alg, want), (i, j)


@pytest.mark.parametrize("name", ("alg3", "c4", "c8", "s3c4", "a4c3"))
def test_groth_products_of_simples_keep_dimension(name, request):
    alg = request.getfixturevalue(name)
    simples = grid_labels(alg, 1, 1, (1, -1, 2))
    for a in simples:
        for b in simples:
            prod = ring_mul(groth_basis(alg, a), groth_basis(alg, b))
            assert all(lab.t == 1 and c > 0 for lab, c in prod.coeffs.items())
            assert multiset_dim(alg, prod.coeffs) == \
                label_dim(alg, a) * label_dim(alg, b), (a, b)


def test_x_basis_frozen(alg5):
    def x1(i):
        return format_terms(groth_to_x_basis(groth_basis(alg5, IndecLabel(NIL, 1, i))))

    assert x1(3) == "x^3 - 3*x"
    assert x1(4) == "x^4 - 4*x^2 + 1 + lam"
    assert x1("chi") == "chi"


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_x_basis_of_binomial_powers(m):
    # the closed multiset form of x^l, l <= m-1, has the single coordinate x^l
    from hopfore.groups import dihedral_algebra

    alg = dihedral_algebra(m)
    for l in range(1, m):
        coords = groth_to_x_basis(binomial_power_decomposition(alg, l))
        assert [(n, c) for n, c in coords if c] == [("x" if l == 1 else f"x^{l}", 1)]
    assert [n for n, _ in coords] == [f"x^{l}" for l in range(m - 1, 1, -1)] + [
        "x", "1", "lam", "chi", "lamchi"]


def test_f_g_frozen(alg3):
    assert format_terms(f_poly(alg3)) == "x^2 - 1 - lam"
    assert format_terms(g_poly(alg3)) == "3*x + chi + lamchi"


def test_f_g_are_images(alg3, alg5):
    for alg in (alg3, alg5):
        x = ev(alg, "x", GROTH)
        chi = ev(alg, "chi", GROTH)
        m = alg.group.size // 4
        assert x1_to_groth(alg, f_poly(alg)) == chi * x
        assert x1_to_groth(alg, g_poly(alg)) == x ** m


@pytest.mark.parametrize("m", [3, 5])
def test_binomial_powers(m):
    from hopfore.groups import dihedral_algebra

    alg = dihedral_algebra(m)
    x = ev(alg, "x", GROTH)
    for l in range(1, m):
        assert x ** l == binomial_power_decomposition(alg, l)


def test_x_basis_round_trips(alg5):
    x = ev(alg5, "x", GROTH)
    for elt in (x ** 3, x ** 7, ev(alg5, "chi*x^2 - 4*V[1](3)", GROTH)):
        assert x1_to_groth(alg5, groth_to_x_basis(elt)) == elt


def test_x_basis_solve_failures(alg5, monkeypatch):
    from hopfore import greenring

    with pytest.raises(InvalidParameter):
        x1_to_groth(alg5, [("x^5", 1)])
    # doubling the element named x makes the coordinate of x one half
    real = greenring._x1_basis
    monkeypatch.setattr(greenring, "_x1_basis", lambda alg, powers=None: [
        (n, e.scale(2) if n == "x" else e) for n, e in real(alg, powers)])
    with pytest.raises(InternalInconsistency, match="non-integer"):
        groth_to_x_basis(ev(alg5, "x", GROTH))
    assert groth_to_x_basis(ev(alg5, "2*x", GROTH))[3] == ("x", 1)
    with pytest.raises(InternalInconsistency, match="non-integer"):
        verify_presentation(alg5, which="groth_kDn")


def test_x_basis_rejects_free_part(alg3):
    elt = to_groth(ev(alg3, "w[1]"))
    with pytest.raises(UnsupportedLabel):
        groth_to_x_basis(elt)
    with pytest.raises(UnsupportedLabel):
        groth_to_x2_basis(elt)


def test_x2_coordinates_frozen(alg3):
    coords = groth_to_x2_basis(ev(alg3, "x^2", GROTH))
    assert [(n, c) for n, c in coords if c] == [("1", 1), ("lam", 1), ("chi*x", 1)]
    assert format_terms(coords) == "1 + lam + chi*x"
    assert format_terms([("x", 0)]) == "0"
    assert format_terms([("1", -2), ("x", 3)]) == "-2 + 3*x"
    assert format_terms([("x", 1), ("1", 1), ("1", -3), ("1", 4)]) == "x + 1 - 3 + 4"
    assert format_terms([("lam", -1), ("x", 1), ("chi", -1)]) == "-lam + x - chi"
    assert format_terms([("x^2", -5), ("lam", 2)]) == "-5*x^2 + 2*lam"
    assert format_terms([("1", -1), ("x", 0), ("chi", 0)]) == "-1"
    assert format_terms([("x", 0), ("chi", -2), ("lam", 0)]) == "-2*chi"
    assert format_terms([]) == "0"


def test_x2_round_trip(alg5):
    basis = _x2_basis(alg5)
    for _, vec in basis:
        coords = groth_to_x2_basis(vec)
        total = RingElement(GROTH, alg5, {})
        for (_, c), (_, bvec) in zip(coords, basis):
            total = total + bvec.scale(c)
        assert total == vec


def test_presentation_suites_pass(alg3):
    betas = [1, -1, 2, -2, Rational(1, 2)]
    combined = verify_presentation(alg3, betas=betas, t_max=5)
    assert combined["ok"]
    assert combined["failed"] == 0
    assert combined["checks"] > 40
    for which in ("groth_kDn", "groth_H", "green_R", "green_H"):
        rep = verify_presentation(alg3, which=which, betas=betas, t_max=4)
        assert rep["ok"], rep


_greens = st.sampled_from(["x", "y", "z", "chi", "lam", "V[2](1)", "V[4](lam)",
                           "w[1]", "w[-1]", "y[2]", "V[2](eps;1)"])


@settings(max_examples=40, deadline=None)
@given(a=_greens, b=_greens)
def test_green_commutative_and_groth_compatible(alg3, a, b):
    ea, eb = ev(alg3, a), ev(alg3, b)
    prod = ea * eb
    assert prod == eb * ea
    assert to_groth(prod) == to_groth(ea) * to_groth(eb)


def test_unimodular_known():
    assert _unimodular([{"a": 2, "b": 3}, {"a": 1, "b": 2}])          # det +1
    assert _unimodular([{"a": 1, "b": 2}, {"a": 3, "b": 5}])          # det -1
    assert _unimodular([{1: 0, 2: 1}, {1: 1}, {3: 1}])                # a swap: det -1
    assert not _unimodular([{"a": 1, "b": 2}, {"a": 3, "b": 4}])      # det -2
    assert not _unimodular([{"a": 1, "b": 2}, {"a": 2, "b": 4}])      # singular
    assert not _unimodular([{"a": 1}, {"b": 1}, {"a": 1, "b": 1}])    # 3 rows, 2 keys
    assert not _unimodular([{"a": 2}])

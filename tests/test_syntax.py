"""Little expression language: labels, scalars, ring expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfore.cyclotomic import Cyclotomic, Rational
from hopfore.errors import ExprSyntaxError, InvalidParameter, UnknownLabel
from hopfore.labels import EIG, NIL, IndecLabel, canonicalize
from hopfore.greenring import GREEN, GROTH, eval_expr, green_basis, to_groth, unit
from hopfore.syntax import (
    MAX_DIGITS, MAX_EXPONENT, MAX_LABEL_DIM, MAX_SCALAR_BITS, format_label,
    format_multiset, parse_cyclotomic, parse_label,
)


def test_cyclotomic_literals():
    assert parse_cyclotomic(6, "1/2") == Cyclotomic.rational(6, Rational(1, 2))
    assert parse_cyclotomic(6, "-3*w + 1/2") == (
        Cyclotomic.zeta(6) * -3 + Cyclotomic.rational(6, Rational(1, 2)))
    assert parse_cyclotomic(8, "(1+w)^2 - 2*w") == Cyclotomic.zeta(8) ** 2 + 1
    assert parse_cyclotomic(4, "0") == Cyclotomic.zero(4)


def test_cyclotomic_literal_errors():
    with pytest.raises(ExprSyntaxError):
        parse_cyclotomic(6, "1/0")
    with pytest.raises(ExprSyntaxError):
        parse_cyclotomic(6, "w +")
    with pytest.raises(ExprSyntaxError):
        parse_cyclotomic(6, "q")


def test_literal_limits():
    # the longest integer token and the largest exponent are read
    assert parse_cyclotomic(6, "9" * MAX_DIGITS) == int("9" * MAX_DIGITS)
    assert parse_cyclotomic(6, f"1^{MAX_EXPONENT}") == 1
    with pytest.raises(ExprSyntaxError, match="digits"):
        parse_cyclotomic(6, "1 + " + "9" * (MAX_DIGITS + 1))
    with pytest.raises(InvalidParameter, match="exponent"):
        parse_cyclotomic(6, f"1^{MAX_EXPONENT + 1}")
    # sizes are bounded before the operation runs, at every accepted size
    # the value prints, and nesting cannot multiply exponents past the bound
    assert MAX_SCALAR_BITS == 8192
    big = parse_cyclotomic(6, "(2^1000)^8")
    assert big == 2 ** 8000
    assert parse_cyclotomic(6, big.to_literal()) == big
    for src in ("(2^1000)^9", "((10^999)^999)^999", "(2^1000)^4 * (2^1000)^5",
                " + ".join(f"1/{10 ** 999 + k}" for k in range(1, 5))):
        with pytest.raises(InvalidParameter, match="bits"):
            parse_cyclotomic(6, src)


def test_label_dimension_limit(alg3):
    # V[t](i) has dimension t dim V_i, V[t](i;b) t s dim V_i (s = 2 here)
    assert MAX_LABEL_DIM == 256
    for ok, over in (("V[256](eps)", "V[257](eps)"), ("V[128](1)", "V[129](1)"),
                     ("V[64](2;3)", "V[65](2;3)"), ("V[128](eps;-1)", "V[129](eps;-1)")):
        parse_label(ok, alg3)
        with pytest.raises(InvalidParameter, match="above the limit 256"):
            parse_label(over, alg3)
    with pytest.raises(InvalidParameter, match="dimension 99999999999"):
        parse_label("(V[99999999999](eps))", alg3)


def test_parse_label_basic(alg3):
    assert parse_label("V[3](1)", alg3) == IndecLabel(NIL, 3, 1)
    assert parse_label("V[2](lamchi)", alg3) == IndecLabel(NIL, 2, "lamchi")
    lab = parse_label("V[2](eps;1)", alg3)
    assert lab == canonicalize(alg3, EIG, 2, "eps", 1)


def test_parse_label_canonicalizes_orbit(alg3):
    a = parse_label("V[2](2;w+1)", alg3)
    b = parse_label("V[2](1;w+1)", alg3)
    assert a == b
    assert a.i == 1


def test_zero_beta_label_message(alg3):
    with pytest.raises(ExprSyntaxError) as err:
        parse_label("V[2](eps;0)", alg3)
    assert "V[4](eps)" in str(err.value)


def test_unknown_simple(alg3):
    with pytest.raises(UnknownLabel):
        parse_label("V[2](7)", alg3)
    with pytest.raises(UnknownLabel):
        parse_label("V[2](zeta)", alg3)


def test_aliases(alg3):
    assert parse_label("x", alg3) == IndecLabel(NIL, 1, 1)
    assert parse_label("y", alg3) == IndecLabel(NIL, 2, "eps")
    assert parse_label("z", alg3) == IndecLabel(NIL, 3, "eps")
    assert parse_label("y[2]", alg3) == canonicalize(alg3, EIG, 1, "eps", 2)
    assert parse_label("w[1/2]", alg3) == canonicalize(
        alg3, EIG, 1, "eps", Rational(1, 2))


def test_bare_simple_names(alg3):
    assert parse_label("chi", alg3) == IndecLabel(NIL, 1, "chi")


def test_aliases_only_for_dihedral(c4):
    assert parse_label("c2", c4) == IndecLabel(NIL, 1, "c2")
    with pytest.raises(UnknownLabel):
        parse_label("x", c4)


def test_expression_precedence(alg3):
    x = to_groth(green_basis(alg3, IndecLabel(NIL, 1, 1)))
    assert eval_expr(alg3, "x^3 - 3*x", GROTH) == x * x * x - x.scale(3)
    assert eval_expr(alg3, "-x^2", GROTH) == -(x ** 2)
    assert eval_expr(alg3, "2*3", GREEN) == unit(alg3, GREEN).scale(6)


def test_expression_errors_have_positions(alg3):
    with pytest.raises(ExprSyntaxError) as err:
        eval_expr(alg3, "x + ", GREEN)
    assert "position" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        eval_expr(alg3, "x ^ -2", GREEN)
    with pytest.raises(ExprSyntaxError):
        eval_expr(alg3, "(x", GREEN)
    with pytest.raises(ExprSyntaxError):
        parse_label("x + y", alg3)


def test_parse_label_parentheses(alg3):
    assert parse_label("(x)", alg3) == IndecLabel(NIL, 1, 1)
    assert parse_label("((V[2](eps;1)))", alg3) == canonicalize(alg3, EIG, 2, "eps", 1)
    for src in ("3", "(3)", "(x+y)", "(x"):
        with pytest.raises(ExprSyntaxError):
            parse_label(src, alg3)


def test_format_label(alg3):
    assert format_label(IndecLabel(NIL, 4, "eps")) == "V[4](eps)"
    lab = canonicalize(alg3, EIG, 1, 1, Rational(1, 2))
    assert format_label(lab) == "V[1](1;1/2)"


def test_format_multiset_order_and_zero(alg3):
    counts = {IndecLabel(NIL, 2, "chi"): 1,
              IndecLabel(NIL, 1, "eps"): 2,
              canonicalize(alg3, EIG, 1, "eps", 1): 1}
    text = format_multiset(alg3, counts)
    assert text == "2*V[1](eps) + V[2](chi) + V[1](eps;1)"
    assert format_multiset(alg3, {}) == "0"


_labels = st.one_of(
    st.tuples(st.just(NIL), st.integers(1, 9),
              st.sampled_from(["eps", "lam", "chi", "lamchi", 1, 2])),
    st.tuples(st.just(EIG), st.integers(1, 4), st.sampled_from(["eps", "lam", 1]),
              st.sampled_from([1, -1, 2, -2, Rational(1, 2), Rational(-5, 3)])),
)


@settings(max_examples=80, deadline=None)
@given(parts=_labels)
def test_label_print_parse_round_trip(alg3, parts):
    if parts[0] == NIL:
        lab = canonicalize(alg3, NIL, parts[1], parts[2])
    else:
        lab = canonicalize(alg3, EIG, parts[1], parts[2], parts[3])
    assert parse_label(format_label(lab), alg3) == lab


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-9, 9), min_size=2, max_size=2),
       den=st.integers(1, 5))
def test_cyclotomic_print_parse_round_trip(coeffs, den):
    val = sum((Cyclotomic.zeta(6, k) * Rational(c, den)
               for k, c in enumerate(coeffs)), Cyclotomic.zero(6))
    assert parse_cyclotomic(6, val.to_literal()) == val


def test_readme_scalar_examples_parse(alg3):
    # every literal in the README's list of beta scalars is one, as a
    # literal and inside an eigen-type label
    from pathlib import Path
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Scalars in `beta` are exact cyclotomic literals"):]
    listed = re.search(r"\(((?:`[^`]+`(?:, )?)+)\)", paragraph[:paragraph.index("\n\n")])
    examples = re.findall(r"`([^`]+)`", listed.group(1))
    assert len(examples) == 5, examples
    order = alg3.field_order
    for text in examples:
        value = parse_cyclotomic(order, text)
        assert value
        assert parse_label(f"V[1](eps;{text})", alg3) == canonicalize(
            alg3, EIG, 1, "eps", value)

"""Text forms: cyclotomic literals, module labels, ring expressions.

Grammar (whitespace insignificant):

    expr   := ["-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" uint)?
    atom   := uint | name | label | "(" expr ")"
    label  := "V" "[" uint "]" "(" simple (";" cyclo)? ")"
    simple := name | uint
    cyclo  := ["-"] cterm (("+"|"-") cterm)*
    cterm  := cfactor ("*" cfactor)*
    cfactor:= catom ("^" uint)?
    catom  := uint ("/" uint)? | "w" | "(" cyclo ")"

Bare names are simple labels of the algebra, meaning V[1](name).  The
dihedral algebras additionally accept x, y, z, y[b], w[b] shorthands.
Labels are canonicalized while parsing, so printing is a left inverse
of parsing on canonical forms.
"""

from dataclasses import dataclass

from .cyclotomic import Cyclotomic, Rational
from .errors import ExprSyntaxError, UnknownLabel
from .labels import EIG, NIL, IndecLabel, canonicalize, label_sort_key

_PUNCT = set("+-*^/()[];")


@dataclass(frozen=True)
class Token:
    kind: str  # INT, NAME, one of _PUNCT, or END
    text: str
    pos: int


def _tokenize(src):
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("INT", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("NAME", src[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            out.append(Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(Token("END", "", n))
    return out


class _Cursor:
    def __init__(self, src):
        self.src = src
        self.toks = _tokenize(src)
        self.at = 0

    def peek(self):
        return self.toks[self.at]

    def next(self):
        tok = self.toks[self.at]
        self.at += 1
        return tok

    def eat(self, kind):
        if self.toks[self.at].kind == kind:
            self.at += 1
            return True
        return False

    def expect(self, kind, what=None):
        tok = self.toks[self.at]
        if tok.kind != kind:
            want = what or f"'{kind}'"
            got = tok.text or "end of input"
            raise ExprSyntaxError(f"expected {want}, got {got!r}", tok.pos)
        self.at += 1
        return tok

    def uint(self, what="a positive integer"):
        return int(self.expect("INT", what).text)


# -- cyclotomic literals ----------------------------------------------------

def _cyclo_atom(ts, order):
    tok = ts.peek()
    if tok.kind == "INT":
        ts.next()
        num = int(tok.text)
        if ts.eat("/"):
            den_tok = ts.expect("INT", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                raise ExprSyntaxError("zero denominator", den_tok.pos)
            return Cyclotomic.rational(order, Rational(num, den))
        return Cyclotomic.rational(order, num)
    if tok.kind == "NAME" and tok.text == "w":
        ts.next()
        return Cyclotomic.zeta(order)
    if ts.eat("("):
        v = _cyclo_sum(ts, order)
        ts.expect(")")
        return v
    raise ExprSyntaxError(
        f"expected a rational, 'w' or '(', got {tok.text or 'end of input'!r}",
        tok.pos)


def _cyclo_factor(ts, order):
    v = _cyclo_atom(ts, order)
    if ts.eat("^"):
        return v ** ts.uint("an exponent")
    return v


def _cyclo_term(ts, order):
    v = _cyclo_factor(ts, order)
    while ts.eat("*"):
        v = v * _cyclo_factor(ts, order)
    return v


def _cyclo_sum(ts, order):
    neg = ts.eat("-")
    v = _cyclo_term(ts, order)
    if neg:
        v = -v
    while True:
        if ts.eat("+"):
            v = v + _cyclo_term(ts, order)
        elif ts.eat("-"):
            v = v - _cyclo_term(ts, order)
        else:
            return v


def parse_cyclotomic(order, src) -> Cyclotomic:
    """Parse a field literal such as '2', '-1/3', 'w^2 - w + 1/2'."""
    ts = _Cursor(src)
    v = _cyclo_sum(ts, order)
    ts.expect("END", "end of literal")
    return v


# -- ring expressions ---------------------------------------------------------

@dataclass(frozen=True)
class IntNode:
    value: int


@dataclass(frozen=True)
class LabelNode:
    label: IndecLabel


@dataclass(frozen=True)
class NegNode:
    arg: object


@dataclass(frozen=True)
class BinNode:
    op: str  # +, -, *
    left: object
    right: object


@dataclass(frozen=True)
class PowNode:
    base: object
    power: int


def _parse_label_tail(ts, alg, vtok):
    # cursor sits just after the "V" name
    ts.expect("[")
    t = ts.uint("a module length")
    if t < 1:
        raise ExprSyntaxError("module length must be at least 1", vtok.pos)
    ts.expect("]")
    ts.expect("(")
    stok = ts.peek()
    if stok.kind == "INT":
        simple = ts.uint()
    elif stok.kind == "NAME":
        simple = ts.next().text
    else:
        raise ExprSyntaxError(
            f"expected a simple label, got {stok.text or 'end of input'!r}",
            stok.pos)
    if simple not in alg.label_index:
        raise UnknownLabel(f"no simple labelled {simple!r}")
    if ts.eat(";"):
        btok = ts.peek()
        beta = _cyclo_sum(ts, alg.field_order)
        ts.expect(")")
        if not beta:
            raise ExprSyntaxError(
                f"V[{t}]({simple};0) is the nilpotent module "
                f"V[{t * alg.s}]({simple}); write that label instead",
                btok.pos)
        return canonicalize(alg, EIG, t, simple, beta)
    ts.expect(")")
    return canonicalize(alg, NIL, t, simple)


def _alias_eigen(ts, alg):
    # y[b] / w[b] are V[1](eps;b)
    ts.expect("[")
    btok = ts.peek()
    beta = _cyclo_sum(ts, alg.field_order)
    ts.expect("]")
    if not beta:
        raise ExprSyntaxError("eigenvalue shorthand needs a nonzero value",
                              btok.pos)
    return canonicalize(alg, EIG, 1, "eps", beta)


def _atom(ts, alg):
    tok = ts.peek()
    if tok.kind == "INT":
        ts.next()
        return IntNode(int(tok.text))
    if ts.eat("("):
        node = _expr_sum(ts, alg)
        ts.expect(")")
        return node
    if tok.kind != "NAME":
        raise ExprSyntaxError(
            f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)
    ts.next()
    name = tok.text
    if name == "V" and ts.peek().kind == "[":
        return LabelNode(_parse_label_tail(ts, alg, tok))
    if alg.kind == "dihedral":
        if name in ("y", "w") and ts.peek().kind == "[":
            return LabelNode(_alias_eigen(ts, alg))
        if name == "x":
            return LabelNode(canonicalize(alg, NIL, 1, 1))
        if name == "y":
            return LabelNode(canonicalize(alg, NIL, 2, "eps"))
        if name == "z":
            return LabelNode(canonicalize(alg, NIL, 3, "eps"))
    if name in alg.label_index:
        return LabelNode(canonicalize(alg, NIL, 1, name))
    raise UnknownLabel(f"no simple labelled {name!r}")


def _factor(ts, alg):
    node = _atom(ts, alg)
    if ts.eat("^"):
        return PowNode(node, ts.uint("an exponent"))
    return node


def _term(ts, alg):
    node = _factor(ts, alg)
    while ts.eat("*"):
        node = BinNode("*", node, _factor(ts, alg))
    return node


def _expr_sum(ts, alg):
    neg = ts.eat("-")
    node = _term(ts, alg)
    if neg:
        node = NegNode(node)
    while True:
        if ts.eat("+"):
            node = BinNode("+", node, _term(ts, alg))
        elif ts.eat("-"):
            node = BinNode("-", node, _term(ts, alg))
        else:
            return node


def parse(src, alg):
    """Parse a ring expression over module labels; returns the syntax tree."""
    ts = _Cursor(src)
    node = _expr_sum(ts, alg)
    ts.expect("END", "end of expression")
    return node


def parse_label(src, alg) -> IndecLabel:
    """Parse exactly one module label (or shorthand)."""
    ts = _Cursor(src)
    node = _atom(ts, alg)
    ts.expect("END", "end of label")
    if not isinstance(node, LabelNode):
        raise ExprSyntaxError("expected a single module label", 0)
    return node.label


# -- printing -----------------------------------------------------------------

def format_label(label) -> str:
    if label.beta is None:
        return f"V[{label.t}]({label.i})"
    return f"V[{label.t}]({label.i};{label.beta.to_literal()})"


def format_signed_sum(terms) -> str:
    """'a - b + c' from (negative, text) pairs in order: the first term
    as 'a' or '-a', the rest as '+ t' or '- t'; '0' when there are none."""
    parts = []
    for negative, text in terms:
        if parts:
            parts.append(f"- {text}" if negative else f"+ {text}")
        else:
            parts.append(f"-{text}" if negative else text)
    return " ".join(parts) if parts else "0"


def format_multiset(alg, counts) -> str:
    """Deterministic rendering of a label multiset, e.g. '2*V[1](2) + V[2](eps)'."""
    parts = []
    for label in sorted(counts, key=lambda l: label_sort_key(alg, l)):
        k = counts[label]
        if k == 0:
            continue
        body = format_label(label)
        parts.append(body if k == 1 else f"{k}*{body}")
    return " + ".join(parts) if parts else "0"

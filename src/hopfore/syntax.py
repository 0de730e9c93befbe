"""Text forms: cyclotomic literals, module labels, ring expressions.

Grammar (whitespace insignificant).  Ring expressions and cyclotomic
literals share one precedence chain and differ only in their atoms:

    sum    := ["-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := ("(" sum ")" | atom) ("^" uint)?

    ring atom   := uint | name | label
    label       := "V" "[" uint "]" "(" simple (";" cyclo)? ")"
    simple      := name | uint
    cyclo       := sum over scalar atoms
    scalar atom := uint ("/" uint)? | "w"

A ring expression is read and evaluated in one pass: the caller maps
each ring atom to a ring value.  parse_label reads one ring atom inside
any number of parentheses.  Bare names are simple labels of the algebra,
meaning V[1](name).  The dihedral algebras additionally accept x, y, z,
y[b], w[b] shorthands.  Labels are canonicalized while parsing, so
printing is a left inverse of parsing on canonical forms.

Four limits keep reading cheap and every scalar printable: an integer
token has at most MAX_DIGITS digits, "^" takes exponents up to
MAX_EXPONENT, a scalar + - * or ^ whose result could pass
MAX_SCALAR_BITS is refused before it is computed, and a label's module
has dimension at most MAX_LABEL_DIM, since both routes spend work that
grows with a label's length.
"""

from collections import namedtuple
from operator import add, mul, sub

from .cyclotomic import Cyclotomic, Rational
from .errors import ExprSyntaxError, InvalidParameter, UnknownLabel
from .labels import EIG, NIL, IndecLabel, canonicalize, label_dim, sorted_items

_PUNCT = set("+-*^/()[];")

MAX_EXPONENT = 1000
# t * dim V_i for V[t](i), t * s * dim V_i for V[t](i;b)
MAX_LABEL_DIM = 256
# far below the 4300 decimal digits (14284 bits) that str() of an int allows
MAX_SCALAR_BITS = 8192
# enough for the printed integers of a scalar within MAX_SCALAR_BITS
MAX_DIGITS = 2500


# kind is INT, NAME, one of _PUNCT, or END
Token = namedtuple("Token", "kind text pos")


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
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"integer longer than {MAX_DIGITS} digits", i)
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


# -- the precedence chain, shared by both languages ---------------------------

def _check_bits(bits):
    if bits > MAX_SCALAR_BITS:
        raise InvalidParameter(
            f"a scalar of up to {bits} bits is above the limit {MAX_SCALAR_BITS}")


def _bits(v) -> int:
    """Bits of a scalar's widest numerator plus those of its denominator."""
    return max(abs(k).bit_length() for k in v.num) + v.den.bit_length() - 1


def _apply(op, v, w):
    # a scalar sum, difference or product has at most its operands' bits
    # together; ring values are bounded where they multiply
    if isinstance(v, Cyclotomic):
        _check_bits(_bits(v) + _bits(w))
    return op(v, w)


def _sum(ts, atom):
    neg = ts.eat("-")
    v = _term(ts, atom)
    if neg:
        v = -v
    while True:
        if ts.eat("+"):
            v = _apply(add, v, _term(ts, atom))
        elif ts.eat("-"):
            v = _apply(sub, v, _term(ts, atom))
        else:
            return v


def _term(ts, atom):
    v = _factor(ts, atom)
    while ts.eat("*"):
        v = _apply(mul, v, _factor(ts, atom))
    return v


def _factor(ts, atom):
    if ts.eat("("):
        v = _sum(ts, atom)
        ts.expect(")")
    else:
        v = atom(ts)
    if ts.eat("^"):
        e = ts.uint("an exponent")
        if e > MAX_EXPONENT:
            raise InvalidParameter(f"exponent {e} is above the limit {MAX_EXPONENT}")
        if isinstance(v, Cyclotomic):
            _check_bits(_bits(v) * e)
        return v ** e
    return v


# -- cyclotomic literals ----------------------------------------------------

def _scalar_atom(ts, order):
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
    raise ExprSyntaxError(
        f"expected a rational, 'w' or '(', got {tok.text or 'end of input'!r}",
        tok.pos)


def _scalar(ts, order):
    return _sum(ts, lambda t: _scalar_atom(t, order))


def parse_cyclotomic(order, src) -> Cyclotomic:
    """Parse a field literal such as '2', '-1/3', 'w^2 - w + 1/2'."""
    ts = _Cursor(src)
    v = _scalar(ts, order)
    ts.expect("END", "end of literal")
    return v


# -- ring expressions ---------------------------------------------------------

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
    beta = None
    if ts.eat(";"):
        btok = ts.peek()
        beta = _scalar(ts, alg.field_order)
        ts.expect(")")
        if not beta:
            raise ExprSyntaxError(
                f"V[{t}]({simple};0) is the nilpotent module "
                f"V[{t * alg.s}]({simple}); write that label instead",
                btok.pos)
    else:
        ts.expect(")")
    kind = EIG if beta else NIL
    dim = label_dim(alg, IndecLabel(kind, t, simple, beta))
    if dim > MAX_LABEL_DIM:
        raise InvalidParameter(
            f"a V[{t}] label on {simple!r} has dimension {dim}, "
            f"above the limit {MAX_LABEL_DIM}")
    return canonicalize(alg, kind, t, simple, beta)


def _alias_eigen(ts, alg):
    # y[b] / w[b] are V[1](eps;b)
    ts.expect("[")
    btok = ts.peek()
    beta = _scalar(ts, alg.field_order)
    ts.expect("]")
    if not beta:
        raise ExprSyntaxError("eigenvalue shorthand needs a nonzero value",
                              btok.pos)
    return canonicalize(alg, EIG, 1, "eps", beta)


def _ring_atom(ts, alg):
    """An int literal or a canonical module label."""
    tok = ts.peek()
    if tok.kind == "INT":
        ts.next()
        return int(tok.text)
    if tok.kind != "NAME":
        raise ExprSyntaxError(
            f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)
    ts.next()
    name = tok.text
    if name == "V" and ts.peek().kind == "[":
        return _parse_label_tail(ts, alg, tok)
    if alg.kind == "dihedral":
        if name in ("y", "w") and ts.peek().kind == "[":
            return _alias_eigen(ts, alg)
        if name == "x":
            return canonicalize(alg, NIL, 1, 1)
        if name == "y":
            return canonicalize(alg, NIL, 2, "eps")
        if name == "z":
            return canonicalize(alg, NIL, 3, "eps")
    if name in alg.label_index:
        return canonicalize(alg, NIL, 1, name)
    raise UnknownLabel(f"no simple labelled {name!r}")


def evaluate(src, alg, value):
    """Evaluate a ring expression while reading it: each atom (an int or a
    canonical label) becomes value(atom), combined with + - * and ^."""
    ts = _Cursor(src)
    v = _sum(ts, lambda t: value(_ring_atom(t, alg)))
    ts.expect("END", "end of expression")
    return v


def parse_label(src, alg) -> IndecLabel:
    """Parse exactly one module label (or shorthand), possibly in parentheses."""
    ts = _Cursor(src)
    depth = 0
    while ts.eat("("):
        depth += 1
    label = _ring_atom(ts, alg)
    for _ in range(depth):
        ts.expect(")")
    ts.expect("END", "end of label")
    if not isinstance(label, IndecLabel):
        raise ExprSyntaxError("expected a single module label", 0)
    return label


# -- printing -----------------------------------------------------------------

def format_label(label) -> str:
    if label.beta is None:
        return f"V[{label.t}]({label.i})"
    return f"V[{label.t}]({label.i};{label.beta.to_literal()})"


def format_terms(terms) -> str:
    """'a - 2*b + 3' from (text, integer) pairs in order, zeros dropped:
    k*'1' prints as k, +-1*a as a; the first term as 'a' or '-a', the rest
    as '+ a' or '- a'; '0' when no term is left."""
    parts = []
    for text, k in terms:
        if not k:
            continue
        mag = abs(k)
        body = str(mag) if text == "1" else text if mag == 1 else f"{mag}*{text}"
        if parts:
            parts.append(f"- {body}" if k < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if k < 0 else body)
    return " ".join(parts) if parts else "0"


def format_multiset(alg, counts) -> str:
    """Deterministic rendering of a label multiset, e.g. '2*V[1](2) + V[2](eps)'."""
    return format_terms((format_label(lab), k) for lab, k in sorted_items(alg, counts))

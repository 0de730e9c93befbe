"""Explicit matrix modules over one extension algebra.

A module is the group generators' actions plus the action of x, all over
the algebra's cyclotomic field.  The defining relation makes x skew-commute
with the group: x g = chi^{-1}(g) g x, and on tensor products x acts by
x (.) a + 1 (.) x while group elements act diagonally.

Both standard families are built on the basis x^r (x^s - beta)^l v of the
induced module on V_i modulo x^t (beta = 0) or (x^s - beta)^t: g acts on
stratum j = ls + r by chi(g)^j rho_i(g), and x shifts strata upward, adding
beta times stratum ls where it maps stratum ls + s - 1 to (l + 1)s.

Group elements act through their generator words: the action of g is the
product of the generator matrices along g's stored word.  A tensor product
remembers its two factors, and since the coproduct of g is g (.) g, its
action of g is the Kronecker product of the factors' actions of g, taken
from their caches instead of multiplying out the word again.  The
identity and the generators themselves act by the identity matrix and
gen_actions, which every module holds from the start.  validate()
still expands the words over the module's own generator matrices, so it
checks those matrices against the group table independently of the
Kronecker shortcut.

Each module carries a provenance set: field values that exhaust the
possible eigenvalues of x^s on it.  Constructors seed it and tensor
propagates it, so later decomposition knows where to look.
"""

from __future__ import annotations

import json

from .errors import (
    AlgebraMismatch,
    InvalidParameter,
    ZeroBeta,
)
from .groups import AlgebraData, element_matrices
from .linalg import Matrix


class ExplicitModule:
    """A finite-dimensional module given by explicit matrices."""

    __slots__ = ("alg", "dim", "gen_actions", "x_action", "provenance", "factors",
                 "_element_cache")

    def __init__(self, alg: AlgebraData, gen_actions, x_action: Matrix, provenance):
        gen_actions = tuple(gen_actions)
        if len(gen_actions) != len(alg.group.generators):
            raise InvalidParameter("need one action matrix per group generator")
        dim = x_action.nrows
        for m in gen_actions + (x_action,):
            if m.order != alg.field_order:
                raise InvalidParameter("action matrix over the wrong field")
            if m.nrows != dim or m.ncols != dim:
                raise InvalidParameter("action matrices must be square of equal size")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gen_actions", gen_actions)
        object.__setattr__(self, "x_action", x_action)
        object.__setattr__(self, "provenance", frozenset(alg.scalar(v) for v in provenance))
        # (m, n) when tensor(m, n) built this module, so that gen_actions are
        # the Kronecker products of theirs; None otherwise
        object.__setattr__(self, "factors", None)
        # the identity and the generators need no word product or Kronecker
        # product: their actions are the identity and gen_actions
        group = alg.group
        cache = {group.identity: Matrix.identity(alg.field_order, dim)}
        for g, word in enumerate(group.words):
            if len(word) == 1:
                cache[g] = gen_actions[word[0]]
        object.__setattr__(self, "_element_cache", cache)

    def __setattr__(self, name, value):
        raise AttributeError("ExplicitModule is immutable")

    def __eq__(self, other):
        if not isinstance(other, ExplicitModule):
            return NotImplemented
        return (self.alg == other.alg and self.gen_actions == other.gen_actions
                and self.x_action == other.x_action)

    def element_action(self, g: int) -> Matrix:
        """Action of group element g: A(g) (.) B(g) on a tensor product of
        A and B, else the product along g's generator word."""
        cached = self._element_cache.get(g)
        if cached is None:
            if self.factors is not None:
                a, b = self.factors
                cached = a.element_action(g).tensor_product(b.element_action(g))
            else:
                cached = Matrix.identity(self.alg.field_order, self.dim)
                for k in self.alg.group.words[g]:
                    cached = cached @ self.gen_actions[k]
            self._element_cache[g] = cached
        return cached

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "algebra": self.alg.descriptor,
            "dim": self.dim,
            "gen_actions": [m.to_literals() for m in self.gen_actions],
            "x_action": self.x_action.to_literals(),
            "provenance": sorted(v.to_literal() for v in self.provenance),
        }, indent=2)


def module_nilpotent(alg: AlgebraData, t: int, i) -> ExplicitModule:
    """The x-torsion indecomposable of exponent t on the simple i."""
    return _stratified(alg, i, t, alg.zero())


def module_eigen(alg: AlgebraData, t: int, i, beta) -> ExplicitModule:
    """The (x^s - beta)-torsion indecomposable of exponent t on the simple i."""
    b = alg.scalar(beta)
    if not b:
        raise ZeroBeta("beta must be nonzero; beta = 0 is the plain x-torsion family")
    return _stratified(alg, i, t, b)


def _stratified(alg: AlgebraData, i, t: int, beta) -> ExplicitModule:
    """Module with basis x^r (x^s - beta)^l v, r < s, over a basis v of the
    simple i: t strata when beta = 0, else t * s.

    g acts on stratum j by chi(g)^j rho_i(g); x maps stratum j to j + 1,
    plus beta times stratum j + 1 - s when s divides j + 1.
    """
    if not isinstance(t, int) or t < 1:
        raise InvalidParameter(f"t must be a positive integer, got {t!r}")
    alg.require_label(i)
    rep = alg.simple_by_label[i]
    s = alg.s
    strata = t * s if beta else t
    d = rep.dim
    dim = strata * d
    n = alg.field_order
    gen_actions = []
    for k, gen in enumerate(alg.group.generators):
        rho = rep.gen_mats[k].rows
        chig = alg.chi[gen]
        scale = alg.one()
        rows = []
        for j in range(strata):
            base = j * d
            rows.extend({base + c: scale * v for c, v in r.items()} for r in rho)
            scale = scale * chig
        gen_actions.append(Matrix.from_rows(n, rows, dim))

    one = alg.one()
    xrows = [{k - d: one} if k >= d else {} for k in range(dim)]
    if beta:
        for k in range(dim):
            if k // d % s == 0:
                xrows[k][k + (s - 1) * d] = beta
    x_action = Matrix.from_rows(n, xrows, dim)
    return ExplicitModule(alg, gen_actions, x_action, provenance=(beta,))


def tensor(m: ExplicitModule, n: ExplicitModule) -> ExplicitModule:
    """Tensor product; x acts as x (.) a + 1 (.) x."""
    if m.alg is not n.alg and m.alg != n.alg:
        raise AlgebraMismatch("modules live over different algebras")
    alg = m.alg
    gen_actions = [
        gm.tensor_product(gn) for gm, gn in zip(m.gen_actions, n.gen_actions)
    ]
    a_on_n = n.element_action(alg.central)
    x_action = (m.x_action.tensor_product(a_on_n)
                + Matrix.identity(alg.field_order, m.dim).tensor_product(n.x_action))
    # x^s acts as x^s (.) a^s + 1 (.) x^s with commuting terms, and a^s acts
    # on a composition factor V_i by omega_i^s (1 for the trivial simple)
    omegas = {alg.omega_s(l) for l in alg.labels}
    prov = {u * va + vb for va in m.provenance for vb in n.provenance for u in omegas}
    prod = ExplicitModule(alg, gen_actions, x_action, prov)
    object.__setattr__(prod, "factors", (m, n))
    return prod


def validate(m: ExplicitModule) -> list[str]:
    """Structural report; an empty list means the module is well-formed.

    Checks that the generator matrices extend to a representation of the
    whole group table and that x skew-commutes with every generator by
    chi^{-1}.  The element matrices are built here from the generator
    matrices (element_matrices), not taken from element_action, so the
    check does not rest on its Kronecker shortcut for tensor products.
    """
    findings = []
    alg = m.alg
    group = alg.group
    _, violations = element_matrices(group, m.gen_actions, alg.field_order, m.dim)
    for g, k in violations:
        findings.append(
            f"group-relation: element {group.names[g]} * generator {k} "
            "violates the multiplication table")
    for k, gen in enumerate(group.generators):
        g_mat = m.gen_actions[k]
        lhs = m.x_action @ g_mat
        rhs = (g_mat @ m.x_action).scale(alg.chi[group.inverse[gen]])
        if lhs != rhs:
            findings.append(
                f"skew-relation: x * g != chi^(-1)(g) g * x for generator {k}")
    return findings

"""Labels for indecomposable modules and for composition factors.

Two families of indecomposables exist over a fusion-ready algebra:

  Nil(t, i): quotient of the induced module on V_i by the image of x^t;
             dimension t * dim(V_i), x nilpotent of index t.
  Eig(t, [i], beta): quotient by the image of (x^s - beta)^t, beta != 0;
             dimension t * s * dim(V_i), determined by the sigma-orbit of i.

Eig labels always carry the orbit representative; an Eig label with beta = 0
is the same module as Nil(t*s, i) and canonicalize performs that rewrite
with the exact simple label (the identification is not orbit-invariant).
"""

from collections import namedtuple

from .errors import InvalidParameter, NotFusionReady, ZeroBeta
from .groups import AlgebraData

NIL = "nil"
EIG = "eig"
TORSION = "torsion"
FREE = "free"


class IndecLabel(namedtuple("IndecLabel", "kind t i beta", defaults=(None,))):
    """Isomorphism class of an indecomposable module: kind (NIL or EIG),
    length t, simple label i, and beta, a nonzero Cyclotomic for EIG and
    None for NIL.  A tuple, so it hashes as the tuple of its fields; it
    never equals a SimpleLabel, which has three."""

    __slots__ = ()


class SimpleLabel(namedtuple("SimpleLabel", "kind i beta", defaults=(None,))):
    """Isomorphism class of a simple module over the extended algebra:
    kind (TORSION or FREE), simple label i, and beta (None for TORSION)."""

    __slots__ = ()


def canonicalize(alg: AlgebraData, kind: str, t: int, i, beta=None) -> IndecLabel:
    """Validated canonical label; Eig uses orbit reps, beta=0 becomes Nil."""
    if not isinstance(t, int) or t < 1:
        raise InvalidParameter(f"t must be a positive integer, got {t!r}")
    alg.require_label(i)
    if kind == NIL:
        if beta is not None and beta != 0:
            raise InvalidParameter("Nil labels carry no eigenvalue")
        return IndecLabel(NIL, t, i, None)
    if kind != EIG:
        raise InvalidParameter(f"unknown label kind {kind!r}")
    b = alg.scalar(beta if beta is not None else 0)
    if not b:
        # (x^s - 0)-torsion of exponent t is plain x-torsion of exponent t*s;
        # the rewrite keeps the exact simple label.
        return IndecLabel(NIL, t * alg.s, i, None)
    if not alg.fusion_ready:
        raise NotFusionReady("eigenvalue labels need |q| = |chi|")
    return IndecLabel(EIG, t, alg.orbit_rep[i], b)


def canonical_simple(alg: AlgebraData, kind: str, i, beta=None) -> SimpleLabel:
    if kind == TORSION:
        alg.require_label(i)
        return SimpleLabel(TORSION, i, None)
    if kind != FREE:
        raise InvalidParameter(f"unknown simple label kind {kind!r}")
    alg.require_label(i)
    b = alg.scalar(beta if beta is not None else 0)
    if not b:
        raise ZeroBeta("free simple labels need beta != 0")
    if not alg.fusion_ready:
        raise NotFusionReady("eigenvalue labels need |q| = |chi|")
    return SimpleLabel(FREE, alg.orbit_rep[i], b)


def label_dim(alg: AlgebraData, label) -> int:
    if isinstance(label, IndecLabel):
        d = alg.simple_by_label[label.i].dim
        return label.t * d if label.kind == NIL else label.t * alg.s * d
    if isinstance(label, SimpleLabel):
        d = alg.simple_by_label[label.i].dim
        return d if label.kind == TORSION else alg.s * d
    raise InvalidParameter(f"not a label: {label!r}")


def label_sort_key(alg: AlgebraData, label):
    """Deterministic output order: kind, simple order, t, then eigenvalue."""
    if isinstance(label, IndecLabel):
        kind_rank = 0 if label.kind == NIL else 1
        beta_key = label.beta.sort_key() if label.beta is not None else ()
        return (kind_rank, alg.label_index[label.i], label.t, beta_key)
    kind_rank = 0 if label.kind == TORSION else 1
    beta_key = label.beta.sort_key() if label.beta is not None else ()
    return (kind_rank, alg.label_index[label.i], 1, beta_key)


def sorted_items(alg: AlgebraData, multiset) -> list:
    """(label, multiplicity) pairs in canonical order."""
    return sorted(multiset.items(), key=lambda kv: label_sort_key(alg, kv[0]))


def multiset_dim(alg: AlgebraData, multiset) -> int:
    return sum(label_dim(alg, lab) * mult for lab, mult in multiset.items())

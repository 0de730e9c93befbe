"""Labels for indecomposable modules.

Two families of indecomposables exist over a fusion-ready algebra:

  Nil(t, i): quotient of the induced module on V_i by the image of x^t;
             dimension t * dim(V_i), x nilpotent of index t.
  Eig(t, [i], beta): quotient by the image of (x^s - beta)^t, beta != 0;
             dimension t * s * dim(V_i), determined by the sigma-orbit of i.

The simple modules are the labels of length 1, V_1(i) and V_1([i], beta),
so one label type serves both rings: the Green ring is keyed by every
label and the Grothendieck ring by the length-1 ones.

Eig labels always carry the orbit representative; an Eig label with beta = 0
is the same module as Nil(t*s, i) and canonicalize performs that rewrite
with the exact simple label (the identification is not orbit-invariant).
"""

from collections import namedtuple

from .errors import InvalidParameter, NotFusionReady
from .groups import AlgebraData

NIL = "nil"
EIG = "eig"


class IndecLabel(namedtuple("IndecLabel", "kind t i beta", defaults=(None,))):
    """Isomorphism class of an indecomposable module: kind (NIL or EIG),
    length t, simple label i, and beta, a nonzero Cyclotomic for EIG and
    None for NIL.  A tuple, so it hashes as the tuple of its fields."""

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


def label_dim(alg: AlgebraData, label) -> int:
    if not isinstance(label, IndecLabel):
        raise InvalidParameter(f"not a label: {label!r}")
    d = label.t * alg.simple_by_label[label.i].dim
    return d if label.kind == NIL else alg.s * d


def label_sort_key(alg: AlgebraData, label):
    """Deterministic output order: kind, simple order, t, then eigenvalue."""
    beta_key = label.beta.sort_key() if label.beta is not None else ()
    return (label.kind != NIL, alg.label_index[label.i], label.t, beta_key)


def sorted_items(alg: AlgebraData, multiset) -> list:
    """(label, multiplicity) pairs in canonical order."""
    return sorted(multiset.items(), key=lambda kv: label_sort_key(alg, kv[0]))


def multiset_dim(alg: AlgebraData, multiset) -> int:
    return sum(label_dim(alg, lab) * mult for lab, mult in multiset.items())

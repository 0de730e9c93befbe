"""Differential verification grid: closed tensor rules versus the matrix oracle.

Builds a deterministic list of indecomposable labels, forms every ordered
pair, and checks that the closed-form decomposition of the tensor product
agrees with an explicit matrix decomposition of the actual module.  The two
routes share no code beyond the algebra tables, so agreement is meaningful.
"""

from .decompose import decompose
from .errors import InvalidParameter
from .fusion import tensor_labels
from .labels import EIG, NIL, canonicalize, label_dim
from .modules import module_eigen, module_nilpotent, tensor
from .syntax import format_label, format_multiset

__all__ = ["build_module", "grid_labels", "check_pair", "run_grid"]


def build_module(alg, label):
    """Explicit module for a canonical label."""
    if label.kind == NIL:
        return module_nilpotent(alg, label.t, label.i)
    return module_eigen(alg, label.t, label.i, label.beta)


def grid_labels(alg, nil_tmax=3, eig_tmax=2, betas=()):
    """Deterministic label grid: all Nil(t,i) with t <= nil_tmax and i in I,
    then all Eig(t,[j],beta) with t <= eig_tmax, [j] an orbit representative
    and beta drawn from `betas` (nonzero scalars of the algebra's field).
    A label listed twice, as by equal betas, is kept at its first place."""
    if nil_tmax < 0 or eig_tmax < 0:
        raise InvalidParameter("grid bounds must be nonnegative")
    betas = [alg.scalar(b) for b in betas]
    for b in betas:
        if not b:
            raise InvalidParameter(
                "beta=0 labels are nilpotent; list them via the Nil range instead")
    labels = []
    for t in range(1, nil_tmax + 1):
        for rep in alg.simples:
            labels.append(canonicalize(alg, NIL, t, rep.label))
    for t in range(1, eig_tmax + 1):
        for rep_label in alg.orbit_reps:
            for b in betas:
                labels.append(canonicalize(alg, EIG, t, rep_label, b))
    return list(dict.fromkeys(labels))


def check_pair(alg, left, right, cache):
    """None if the closed rules match the matrix oracle, else a report dict.
    cache maps labels to their modules and gains the ones it lacks."""
    closed = tensor_labels(alg, left, right)
    for lab in (left, right):
        if lab not in cache:
            cache[lab] = build_module(alg, lab)
    prod = tensor(cache[left], cache[right])
    oracle = decompose(prod).counter()
    if closed == oracle:
        return None
    return {
        "left": format_label(left),
        "right": format_label(right),
        "closed": format_multiset(alg, closed),
        "matrix": format_multiset(alg, oracle),
    }


def run_grid(alg, labels):
    """Check every ordered pair of grid labels, in order; the summary is
    deterministic, so it can be compared against golden files.  An empty
    label grid is rejected: it would check nothing and report ok."""
    if not labels:
        raise InvalidParameter("the label grid is empty, so nothing would be checked")
    cache = {lab: build_module(alg, lab) for lab in labels}
    pairs = [(l, r) for l in labels for r in labels]
    results = [check_pair(alg, left, right, cache) for left, right in pairs]
    mismatches = [r for r in results if r is not None]
    max_dim = max((label_dim(alg, lab) for lab in labels), default=0)
    return {
        "labels": len(labels),
        "pairs": len(pairs),
        "mismatches": mismatches,
        "ok": not mismatches,
        "max_tensor_dim": max_dim * max_dim,
    }

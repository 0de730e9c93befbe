"""End-to-end guarantees: every closed formula is checked against an
independent matrix oracle, every ring identity against exact arithmetic.

Each test here is one acceptance gate; together they cover the full label
grids at m = 3, 5 and 7 (the m = 7 grid is 70 labels, 4900 ordered
pairs), seeded samples of the m = 9 and m = 15 grids, seeded samples of
the m = 3 grid with long strings (Nil t up to 6 with Eig t up to 3, and
with Eig t up to 8), the full C_8 grid with the nontrivial eigenvalue
twist, seeded samples of the S_3 x C_4 and A_4 x C_3 grids, seeded samples
of the C_8, S_3 x C_4 and A_4 x C_3 grids with Eig t up to 3, a
hypothesis-drawn pair on a drawn fixture algebra, the power-basis
combinatorics, the ring presentations, the structural invariants of the
indecomposables, ring homomorphism compatibility, the one genuinely
ambiguous index range in the string-overlap formula, and commutativity.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfore.cyclotomic import Rational
from hopfore.decompose import decompose
from hopfore.fusion import tensor_labels
from hopfore.greenring import GROTH, green_basis, to_groth, unit, verify_presentation
from hopfore.grid import build_module, check_pair, grid_labels, run_grid
from hopfore.groups import dihedral_algebra
from hopfore.labels import IndecLabel, NIL, label_dim, multiset_dim
from hopfore.linalg import Matrix
from hopfore.modules import tensor

from conftest import binomial_power_decomposition, direct_sum, mat_power, rank

BETAS = (1, -1, 2, Rational(1, 2))


def nilpotency_index(mat, cap):
    """Smallest j with mat^j = 0, read off the ranks of the powers."""
    if rank(mat) == 0:
        return 1 if mat.nrows else 0
    power = mat
    j = 1
    while j <= cap:
        power = power @ mat
        j += 1
        if rank(power) == 0:
            return j
    raise AssertionError("matrix is not nilpotent within the given bound")


def radical_length(alg, label, module):
    """Loewy length read off the module matrices: the nilpotency index of x
    on Nil(t,i) is t, and of x^s - beta on Eig(r,[i],beta) is r."""
    if label.kind == NIL:
        return nilpotency_index(module.x_action, module.dim + 1)
    x_s = mat_power(module.x_action, alg.s)
    shifted = x_s + Matrix.scalar(x_s.order, x_s.nrows, -label.beta)
    return nilpotency_index(shifted, module.dim + 1)


@pytest.fixture(scope="module")
def grids(alg3, alg5, alg7):
    return {m: (alg, grid_labels(alg, 3, 2, BETAS))
            for m, alg in ((3, alg3), (5, alg5), (7, alg7))}


def test_differential_fusion_grid(grids):
    """Closed rules equal the matrix oracle on every ordered label pair of
    the m = 3, 5 and 7 grids."""
    assert len(grids[7][1]) == 70
    for m, (alg, labels) in grids.items():
        summary = run_grid(alg, labels)
        assert summary["pairs"] == len(labels) ** 2
        assert summary["mismatches"] == [], (m, summary["mismatches"][:3])


def _sample_mismatches(alg, labels, count, seed):
    rng = random.Random(seed)
    pairs = rng.sample([(l, r) for l in labels for r in labels], count)
    cache = {}
    return [rec for rec in (check_pair(alg, l, r, cache) for l, r in pairs)
            if rec is not None]


def test_differential_fusion_grid_m9_sample():
    """Closed rules equal the matrix oracle on 300 seeded ordered pairs of
    the m = 9 acceptance grid, over Q(zeta_18): Nil t up to 3, Eig t up to
    2, betas 1, -1, 2, 1/2."""
    alg = dihedral_algebra(9)
    mismatches = _sample_mismatches(alg, grid_labels(alg, 3, 2, BETAS), 300,
                                    20261024)
    assert mismatches == [], mismatches[:3]


def test_differential_fusion_grid_m15_sample(alg15):
    """Closed rules equal the matrix oracle on 300 seeded ordered pairs of
    the m = 15 grid, over Q(zeta_30): Nil t up to 2, Eig t 1, betas 1, -1."""
    labels = grid_labels(alg15, 2, 1, (1, -1))
    assert len(labels) == 2 * 18 + 2 * 9
    mismatches = _sample_mismatches(alg15, labels, 300, 20261025)
    assert mismatches == [], mismatches[:3]


def test_differential_fusion_grid_m3_long_strings(alg3):
    """Closed rules equal the matrix oracle on 300 seeded ordered pairs of
    the m = 3 grid with long strings: Nil t up to 2s + 2 = 6, Eig t up to 3."""
    labels = grid_labels(alg3, 2 * alg3.s + 2, 3, BETAS)
    assert max(lab.t for lab in labels) == 6
    mismatches = _sample_mismatches(alg3, labels, 300, 20261020)
    assert mismatches == [], mismatches[:3]


def test_differential_fusion_grid_m3_long_eigen_strings(alg3):
    """Closed rules equal the matrix oracle on 300 seeded ordered pairs of
    the m = 3 grid with long strings of both kinds: Nil t up to 6, Eig t up
    to 8, products of dimension up to 768."""
    labels = grid_labels(alg3, 6, 8, BETAS)
    assert len(labels) == 132
    mismatches = _sample_mismatches(alg3, labels, 300, 20261026)
    assert mismatches == [], mismatches[:3]


@pytest.mark.parametrize("fixture, seed", [
    ("c8", 20261027), ("s3c4", 20261028), ("a4c3", 20261029)])
def test_differential_fusion_grid_s_above_2_eigen_sample(fixture, seed, request):
    """Closed rules equal the matrix oracle on 300 seeded ordered pairs of
    each s > 2 fixture grid with Eig t up to 3 (Nil t up to 3, betas 1, -1,
    2)."""
    alg = request.getfixturevalue(fixture)
    labels = grid_labels(alg, 3, 3, (1, -1, 2))
    assert max(lab.t for lab in labels if lab.kind != NIL) == 3
    mismatches = _sample_mismatches(alg, labels, 300, seed)
    assert mismatches == [], mismatches[:3]


def test_differential_fusion_grid_c8_twist(c8):
    """Closed rules equal the matrix oracle on every ordered pair of the C_8
    grid with chi = zeta_8^2: s = 4, and omega_i^s = (-1)^i twists the
    eigenvalues."""
    labels = grid_labels(c8, 3, 1, (1, -1, 2))
    summary = run_grid(c8, labels)
    assert summary["pairs"] == 900
    assert summary["mismatches"] == [], summary["mismatches"][:3]


def test_differential_fusion_grid_s3_c4_sample(s3c4):
    """Closed rules equal the matrix oracle on 600 seeded ordered pairs of
    the S_3 x C_4 grid (s = 4, two-dimensional simples, Nil t up to 3,
    Eig t 1, betas 1, -1, 2)."""
    labels = grid_labels(s3c4, 3, 1, (1, -1, 2))
    assert len(labels) == 45
    mismatches = _sample_mismatches(s3c4, labels, 600, 20261021)
    assert mismatches == [], mismatches[:3]


def test_differential_fusion_grid_a4_c3_sample(a4c3):
    """Closed rules equal the matrix oracle on 600 seeded ordered pairs of
    the A_4 x C_3 grid (s = 3, three-dimensional simples, Nil t up to 3,
    Eig t 1, betas 1, -1, 2)."""
    labels = grid_labels(a4c3, 3, 1, (1, -1, 2))
    assert len(labels) == 48
    mismatches = _sample_mismatches(a4c3, labels, 600, 20261022)
    assert mismatches == [], mismatches[:3]


FIXTURE_GRIDS = {
    "alg3": (3, 2, BETAS), "alg5": (3, 2, BETAS), "alg7": (3, 2, BETAS),
    "c4": (3, 1, (1, -1, 2)), "c8": (3, 1, (1, -1, 2)),
    "s3c4": (3, 1, (1, -1, 2)), "a4c3": (3, 1, (1, -1, 2)),
}


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_differential_hypothesis(data, request):
    """Closed rules equal the matrix oracle on a drawn algebra of the
    fixture list and a drawn ordered pair of its grid."""
    name = data.draw(st.sampled_from(sorted(FIXTURE_GRIDS)), label="algebra")
    alg = request.getfixturevalue(name)
    labels = grid_labels(alg, *FIXTURE_GRIDS[name])
    left = data.draw(st.sampled_from(labels), label="left")
    right = data.draw(st.sampled_from(labels), label="right")
    oracle = decompose(tensor(build_module(alg, left), build_module(alg, right)))
    assert tensor_labels(alg, left, right) == oracle.counter()


def test_iterated_powers_match_binomial_decomposition():
    """Powers of the standard two-dimensional class have binomial coefficients."""
    for m in (3, 5, 7):
        alg = dihedral_algebra(m)
        x = to_groth(green_basis(alg, IndecLabel(NIL, 1, 1)))
        power = unit(alg, GROTH)
        for l in range(1, m):
            power = power * x
            assert power == binomial_power_decomposition(alg, l), (m, l)


def test_presentation_identities():
    """Generator relations and basis transitions hold exactly."""
    betas = [1, -1, 2, -2, Rational(1, 2)]
    for m in (3, 5, 7):
        report = verify_presentation(dihedral_algebra(m), betas=betas, t_max=6)
        bad = [e for e in report["entries"] if e["status"] != "pass"]
        assert report["ok"], (m, bad[:5])
        assert report["failed"] == 0


def test_structural_invariants(grids):
    """Dimensions add up, the oracle is additive, constructors round-trip,
    and radical lengths match the label parameters."""
    rng = random.Random(20240811)
    for m, (alg, labels) in grids.items():
        # dimension conservation over the full ordered grid
        for left in labels:
            want = label_dim(alg, left)
            for right in labels:
                res = tensor_labels(alg, left, right)
                assert multiset_dim(alg, res) == want * label_dim(alg, right)
        # constructor round trips and radical lengths
        for lab in labels:
            mod = build_module(alg, lab)
            assert decompose(mod).counter() == {lab: 1}, lab
            assert radical_length(alg, lab, mod) == lab.t, lab
        # oracle additivity on random direct sums
        for _ in range(10):
            picks = rng.sample(labels, rng.randint(2, 4))
            mods = [build_module(alg, lab) for lab in picks]
            total = mods[0]
            for p in mods[1:]:
                total = direct_sum(total, p)
            want = Counter(picks)
            assert decompose(total).counter() == want, picks


def test_grothendieck_compatibility(grids):
    """Passing to composition factors is a ring homomorphism."""
    alg, labels = grids[3]
    rng = random.Random(987123)
    for _ in range(50):
        a = green_basis(alg, rng.choice(labels))
        b = green_basis(alg, rng.choice(labels))
        prod = a * b
        assert to_groth(prod) == to_groth(a) * to_groth(b)


def test_string_overlap_tail_resolution(c4):
    """The tail of the fourth overlap block starts at max(p, p'): that choice
    survives the matrix oracle on a pinned instance with all four blocks."""
    left = IndecLabel(NIL, 10, "c1")
    right = IndecLabel(NIL, 7, "c2")
    closed = tensor_labels(c4, left, right)
    product_dim = label_dim(c4, left) * label_dim(c4, right)
    assert product_dim == 70
    assert multiset_dim(c4, closed) == 70
    oracle = decompose(tensor(build_module(c4, left), build_module(c4, right)))
    assert closed == oracle.counter()


def test_tensor_commutativity(grids):
    """Products of labels agree in both orders over the whole grid."""
    for m, (alg, labels) in grids.items():
        for idx, left in enumerate(labels):
            for right in labels[idx:]:
                assert tensor_labels(alg, left, right) == \
                    tensor_labels(alg, right, left), (left, right)

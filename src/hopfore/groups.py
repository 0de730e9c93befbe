"""Finite groups, their simple representations, and the extension data.

An AlgebraData bundles everything the rest of the package needs about one
algebra H = kG extended by a skew-primitive x: the group table, a central
group element a, a linear character chi with q = chi(a) != 1, the full list
of simple kG-modules with exact matrices, and derived tables (the twist
permutation sigma, central scalars omega, fusion coefficients).  All
scalars live in one cyclotomic field fixed per algebra.

Characters of representations are class functions, and
AlgebraData.multiplicities is the one inner product of a class function
with the simple characters, and the one place that insists the result be
a nonnegative integer.  Both routes read kG through it: the fusion
coefficients N_ij^l are the multiplicities of a product character, and
decompose counts strings from the multiplicities of its modules' images.
At build time every simple's own character must come out as exactly
itself, which certifies the simples and the method at once.

A class function reaches multiplicities as per-orbit, per-weight parts
over an orbit table: orbit o has an element g_o and members (k, e), and
its part {mu: t_mu} stands for the value sum over mu of mu^e t_mu at each
class k among the members (see central_orbits below).  Class-valued
callers (the build's self-certification, and decompose when a is not
diagonal) use AlgebraData.class_table, where every class is its own
orbit with e = 0 and the one weight 1.  The fusion table reads product
characters over central_orbits, as a acts on V_i (.) V_j by the scalar
omega_i omega_j.  The inner product is a fixed rational
linear form on the power-basis coordinates of the class values (Serre,
Linear Representations of Finite Groups, 2.3), stored once per algebra
as integers (AlgebraData.char_form over AlgebraData.char_den).  The form
is built only once every simple has been checked to be a homomorphism,
since only then are the simple characters class functions.  It is
evaluated for every simple and coordinate at once by Kronecker
substitution: each column of char_form, one entry per (simple,
coordinate), is packed into one integer P with W-bit slots.  Coordinate j
of t_mu at orbit o then meets the composite column sum over members (k, e)
and j' of [mu^e zeta^j]_j' P[k d + j'], an integer combination of packed
columns, since a root of unity has integer power-basis coordinates (a
weight that is none, which only a module that is no representation has,
puts its coefficients over one denominator).  The coefficients are found
once per (members, mu) and the combination once per width, so a class
function costs one big-integer product per nonzero numerator of its
parts, and the slots are read back as signed integers.
W is chosen from the inputs so that no slot can reach 2^(W-1), which
makes the read-back exact; see AlgebraData.multiplicities.

Since a is central, multiplying by its powers permutes the conjugacy
classes.  AlgebraData.central_orbits lists the orbits of that action, each
with one element g (the identity or a generator when the orbit holds one)
and, per class, an exponent e with g a^e in the class, so that decompose
takes the group's action at g alone and hands its traces over, per
weight of a, as parts over that table.

Element matrices come from one breadth-first pass over the group
(element_matrices): each element's matrix is its parent's times one
generator matrix, and every other (element, generator) product is compared
against the matrix already built, which checks the group table with
exactly |G| * #generators matrix products.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, compress
from math import lcm
from operator import mul

from .cyclotomic import Cyclotomic, Rational, field_degree
from .errors import (
    IncompleteSimpleList,
    InternalInconsistency,
    InvalidParameter,
    NonIntegerMultiplicity,
    NotCentral,
    NotIrreducible,
    ShapeMismatch,
    TrivialQ,
    UnknownLabel,
)
from .linalg import Matrix


class GroupData:
    """A finite group as a multiplication table plus chosen generators."""

    __slots__ = ("size", "mul", "identity", "inverse", "generators", "words", "names",
                 "classes", "class_of")

    def __init__(self, mul, generators, names=None):
        mul = tuple(tuple(row) for row in mul)
        size = len(mul)
        if size == 0 or any(len(row) != size for row in mul):
            raise InvalidParameter("multiplication table must be square and nonempty")
        if any(not (0 <= v < size) for row in mul for v in row):
            raise InvalidParameter("multiplication table entry out of range")
        identity = None
        for e in range(size):
            if all(mul[e][g] == g and mul[g][e] == g for g in range(size)):
                identity = e
                break
        if identity is None:
            raise InvalidParameter("no identity element")
        inverse = []
        for g in range(size):
            inv = next((h for h in range(size) if mul[g][h] == identity), None)
            if inv is None or mul[inv][g] != identity:
                raise InvalidParameter(f"element {g} has no inverse")
            inverse.append(inv)
        generators = tuple(generators)
        if not generators or any(not (0 <= g < size) for g in generators):
            raise InvalidParameter("bad generator list")
        # Breadth-first words over the generators; deterministic and shortest.
        words: dict[int, tuple[int, ...]] = {identity: ()}
        queue = [identity]
        while queue:
            e = queue.pop(0)
            for k, g in enumerate(generators):
                ne = mul[e][g]
                if ne not in words:
                    words[ne] = words[e] + (k,)
                    queue.append(ne)
        if len(words) != size:
            raise InvalidParameter("generators do not generate the group")
        # Light's test: the elements g with (x g) y = x (g y) for all x, y
        # are closed under products, so checking the generators suffices.
        for g in generators:
            for x in range(size):
                if mul[mul[x][g]] != tuple(map(mul[x].__getitem__, mul[g])):
                    raise InvalidParameter("multiplication table not associative")
        if names is None:
            names = tuple(f"g{i}" for i in range(size))
        else:
            names = tuple(names)
            if len(names) != size:
                raise InvalidParameter("names list has wrong length")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "words", tuple(words[e] for e in range(size)))
        object.__setattr__(self, "names", names)
        classes, class_of = _conjugacy_classes(mul, inverse)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_of", class_of)

    def __setattr__(self, name, value):
        raise AttributeError("GroupData is immutable")

    def is_central(self, g: int) -> bool:
        return all(self.mul[g][h] == self.mul[h][g] for h in range(self.size))


def _conjugacy_classes(mul, inverse):
    """(classes, class_of): (representative, size) per conjugacy class,
    ordered by representative, and the index in classes of each element's
    class.

    Scanning elements in index order, the first element not yet in a class
    is the smallest of its own class, so it is the representative; each
    class costs one pass over the group, O(n^2) in all.
    """
    size = len(mul)
    class_of = [None] * size
    classes = []
    for g in range(size):
        if class_of[g] is not None:
            continue
        members = {mul[mul[h][g]][inverse[h]] for h in range(size)}
        for c in members:
            class_of[c] = len(classes)
        classes.append((g, len(members)))
    return tuple(classes), tuple(class_of)


class SimpleRep:
    """One simple module: generator matrices, all element matrices, character.

    violations lists where the matrices break the group table (see
    element_matrices); AlgebraData refuses a simple with any.
    """

    __slots__ = ("label", "dim", "gen_mats", "element_mats", "char", "violations")

    def __init__(self, label, gen_mats, group: GroupData, field_order: int):
        gen_mats = tuple(
            m if isinstance(m, Matrix) else Matrix(field_order, m) for m in gen_mats)
        if len(gen_mats) != len(group.generators):
            raise InvalidParameter(f"simple {label!r}: need one matrix per generator")
        dim = gen_mats[0].nrows if gen_mats else 1
        for m in gen_mats:
            if m.nrows != m.ncols or m.nrows != dim:
                raise InvalidParameter(f"simple {label!r}: matrices must be square, same size")
        element_mats, violations = element_matrices(group, gen_mats, field_order, dim)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gen_mats", gen_mats)
        object.__setattr__(self, "element_mats", tuple(element_mats))
        object.__setattr__(self, "char", tuple(m.trace() for m in element_mats))
        object.__setattr__(self, "violations", tuple(violations))

    def __setattr__(self, name, value):
        raise AttributeError("SimpleRep is immutable")


def element_matrices(group: GroupData, gen_mats, field_order: int, dim: int):
    """(mats, violations): the matrix of every element, and the sorted
    (element, generator index) pairs (g, k) at which mats[g] times
    gen_mats[k] is not the matrix of g times the k-th generator.

    One breadth-first pass in GroupData's order: the product that first
    reaches an element is its matrix, the product along its stored word;
    every other product is compared with the matrix already there.  The
    list is empty exactly when the matrices represent the group table.
    """
    mats = {group.identity: Matrix.identity(field_order, dim)}
    queue = [group.identity]
    violations = []
    for g in queue:
        row = group.mul[g]
        for k, gen in enumerate(group.generators):
            prod = mats[g] @ gen_mats[k]
            target = row[gen]
            if target not in mats:
                mats[target] = prod
                queue.append(target)
            elif prod != mats[target]:
                violations.append((g, k))
    return [mats[g] for g in range(group.size)], sorted(violations)


def _combine(form, width: int, columns) -> tuple:
    """The columns of a composite form (AlgebraData._form) at slot width
    `width`: per column, its integer combination of the packed columns of
    char_form at that width, kept in the form."""
    out = form[3][width] = tuple(sum(c * columns[i] for i, c in column)
                                 for column in form[2])
    return out


def _central_orbits(group: GroupData, central: int):
    """The orbits of the conjugacy classes under multiplication by the
    powers of the central element a, as (g, ((class index, e), ...)) with
    g a^e in that class, e the least such exponent.

    g is the identity or a generator when the orbit holds one, since every
    module holds those actions from the start, and otherwise the smallest
    class representative in the orbit.  Orbits are listed by their
    smallest class representative.
    """
    mul, class_of = group.mul, group.class_of
    powers = [group.identity]
    while mul[powers[-1]][central] != group.identity:
        powers.append(mul[powers[-1]][central])
    held = (group.identity,) + group.generators
    orbits, placed = [], set()
    for k, (rep, _) in enumerate(group.classes):
        if k in placed:
            continue
        orbit = {class_of[mul[rep][p]] for p in powers}
        placed |= orbit
        g = next((h for h in held if class_of[h] in orbit), rep)
        members = {}
        for e, p in enumerate(powers):
            members.setdefault(class_of[mul[g][p]], e)
        orbits.append((g, tuple(sorted(members.items()))))
    return tuple(orbits)


class AlgebraData:
    """Validated extension data with derived sigma/omega/fusion tables."""

    __slots__ = (
        "group", "field_order", "central", "chi", "q", "s", "fusion_ready",
        "simples", "labels", "label_index", "simple_by_label", "sigma",
        "omega", "orbits", "orbit_rep", "orbit_reps", "fusion",
        "char_form", "char_den", "central_orbits", "class_table", "kind", "descriptor",
        "_omega_s", "_hash", "_form_bits", "_forms", "_packs",
    )

    def __init__(self, group, simples, central, chi, field_order, kind, descriptor):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field_order", field_order)
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "chi", tuple(chi))
        object.__setattr__(self, "simples", tuple(simples))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "descriptor", descriptor)
        labels = tuple(s.label for s in self.simples)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_index", {l: k for k, l in enumerate(labels)})
        object.__setattr__(self, "simple_by_label", {s.label: s for s in self.simples})
        object.__setattr__(self, "class_table", tuple(
            (g, ((k, 0),)) for k, (g, _) in enumerate(group.classes)))
        self._validate_core()
        q = self.chi[central]
        if q == 1:
            raise TrivialQ("chi at the central element is 1")
        object.__setattr__(self, "q", q)
        # chi is multiplicative (_validate_core), so its order is the lcm of
        # its orders at the generators
        s = lcm(*(self.chi[g].multiplicative_order() for g in group.generators))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "fusion_ready", q.multiplicative_order() == s)
        self._build_sigma_omega()
        object.__setattr__(self, "central_orbits", _central_orbits(group, central))
        self._build_fusion()
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraData is immutable")

    # -- validation ---------------------------------------------------------

    def _validate_core(self):
        group, chi = self.group, self.chi
        if len(set(self.labels)) != len(self.labels):
            raise InvalidParameter("duplicate simple labels")
        if not (0 <= self.central < group.size):
            raise InvalidParameter("central element index out of range")
        if not group.is_central(self.central):
            raise NotCentral(f"element {self.central} is not central")
        if len(chi) != group.size:
            raise InvalidParameter("chi needs one value per group element")
        if chi[group.identity] != 1:
            raise InvalidParameter("chi(identity) must be 1")
        # with chi(identity) = 1 and every element a word in the generators,
        # chi(g gen) = chi(g) chi(gen) for each generator makes chi multiplicative
        for g in range(group.size):
            for gen in group.generators:
                if chi[group.mul[g][gen]] != chi[g] * chi[gen]:
                    raise InvalidParameter("chi is not a homomorphism")
        total = sum(s.dim * s.dim for s in self.simples)
        if total != group.size:
            raise IncompleteSimpleList(
                f"sum of squared dimensions is {total}, group order is {group.size}")
        # Each simple must be a homomorphism, irreducible and distinct from
        # the others.  The class sums below are valid only once every simple
        # has passed the homomorphism check.
        for s in self.simples:
            if s.violations:
                raise InvalidParameter(
                    f"simple {s.label!r}: matrices violate the group table")
        self._build_char_form()
        # each simple's character must come out exactly as itself
        one = Cyclotomic.one(self.field_order)
        found = [self.multiplicities(self.class_table,
                                     [{one: s.char[g]} for g, _ in group.classes])
                 for s in self.simples]
        for s, mult in zip(self.simples, found):
            if mult.get(s.label) != 1:
                raise NotIrreducible(f"simple {s.label!r} has character norm != 1")
        for s, mult in zip(self.simples, found):
            other = next((l for l in mult if l != s.label), None)
            if other is not None:
                raise InvalidParameter(
                    f"simples {s.label!r} and {other!r} are not distinct")

    def _build_char_form(self):
        """The inner product with each simple as integer rows.

        With w = |C| chi_s(g_C^{-1}) / |G|, the value at a class function a
        is the sum over classes C and power-basis indices j of
        a(g_C)_j * (w zeta^j); coordinate r of that is an integer row,
        indexed by (C, j) as C * d + j, over the common denominator of all
        the products w zeta^j.
        """
        group, order = self.group, self.field_order
        powers = [Cyclotomic.zeta(order, j) for j in range(field_degree(order))]
        terms = []
        for s in self.simples:
            weights = [s.char[group.inverse[g]] * Rational(size, group.size)
                       for g, size in group.classes]
            terms.append([w * z for w in weights for z in powers])
        den = lcm(*(t.den for row in terms for t in row))
        form = tuple(tuple(tuple(t.num[r] * (den // t.den) for t in row)
                           for r in range(len(powers)))
                     for row in terms)
        object.__setattr__(self, "char_den", den)
        object.__setattr__(self, "char_form", form)
        object.__setattr__(self, "_form_bits", max(
            abs(v) for rows in form for row in rows for v in row).bit_length())
        object.__setattr__(self, "_forms", {})
        object.__setattr__(self, "_packs", {})

    def _form(self, members, mu):
        """(den, bits, columns, packed) for the weight mu on an orbit's
        members, found once per (members, mu) and kept in _forms.

        Column j lists (k * d + j', c) with c / den = [mu^e zeta^j]_j'
        for each member (k, e): the coefficients of the packed columns of
        char_form that coordinate j of t_mu meets.  den is 1 when mu is a
        root of unity.  bits bounds the l1 norm of every column by 2^bits.
        packed caches, per slot width, each column's combination of packed
        columns (_packed_columns).
        """
        order, d = self.field_order, len(self.char_form[0])
        if len(members) == 1 and members[0][1] == 0:
            # one class at e = 0, as in class_table: mu^0 = 1, so column j
            # is coordinate j of that class alone
            start = members[0][0] * d
            form = self._forms[members, mu.num, mu.den] = (
                1, 0, tuple(((start + j, 1),) for j in range(d)), {})
            return form
        powers = [Cyclotomic.one(order)]
        for _ in range(max(e for _, e in members)):
            powers.append(powers[-1] * mu)
        values = [[(k * d, powers[e] * Cyclotomic.zeta(order, j)) for k, e in members]
                  for j in range(d)]
        den = lcm(*[v.den for column in values for _, v in column])
        columns, l1 = [], 1
        for column in values:
            coefficients, norm = [], 0
            for start, v in column:
                f = den // v.den
                for i, a in enumerate(v.num):
                    if a:
                        coefficients.append((start + i, a * f))
                        norm += abs(a * f)
            columns.append(tuple(coefficients))
            l1 = max(l1, norm)
        form = self._forms[members, mu.num, mu.den] = (
            den, (l1 - 1).bit_length(), tuple(columns), {})
        return form

    def _packed_columns(self, width: int):
        """(columns, bias) for slots of `width` bits, cached per width.

        Slot i = s * d + r holds coordinate r of simple s: column k of
        char_form packs to the sum of char_form[s][r][k] * 2^(width i),
        and bias holds 2^(width - 1) in every slot.
        """
        packed = self._packs.get(width)
        if packed is None:
            slots = [row for rows in self.char_form for row in rows]
            columns = tuple(
                sum(v << (width * i) for i, v in enumerate(col) if v)
                for col in zip(*slots))
            bias = sum(1 << (width * i + width - 1) for i in range(len(slots)))
            packed = self._packs[width] = (columns, bias)
        return packed

    def multiplicities(self, table, parts) -> dict:
        """{label: <a, chi_label>} for the class function a given by
        per-orbit, per-weight parts over an orbit table (central_orbits or
        class_table): parts[o] = {mu: t_mu} at orbit o, whose members
        (k, e) have a = sum over mu of mu^e t_mu at class k.  Zeros are
        dropped.

        Each value is (1/|G|) sum over g of a(g) chi_label(g^{-1}): the
        parts are put over one denominator D, and their nonzero numerators
        are dotted with the composite columns of their (members, mu)
        (_form).  It is a nonnegative integer, coordinate 0 a multiple of
        D * char_den and every other coordinate 0, whenever a is the
        character of a representation; anything else raises
        NonIntegerMultiplicity.

        All the dot products are taken at once: the numerators multiply the
        packed composite columns, one big-integer product each, and the sum
        holds every dot product in its own slot.  A composite column's slot
        is at most 2^bits * max|form entry| in absolute value, so a dot
        product of n numerators is below n * max|numerator| * 2^bits *
        max|form entry| < 2^(width - 2), and with the bias every slot lies
        in [0, 2^width): the sum's base-2^width digits are the biased dot
        products, read back with no carry between slots.
        """
        forms = self._forms
        terms, nums = [], []
        den, bits = 1, 0
        for (_, members), by_weight in zip(table, parts):
            for mu, t in by_weight.items():
                form = forms.get((members, mu.num, mu.den)) or self._form(members, mu)
                terms.append((form, t))
                nums += t.num
                if t.den != 1 or form[0] != 1:
                    den = lcm(den, t.den * form[0])
                if form[1] > bits:
                    bits = form[1]
        if den != 1:
            nums = [a * (den // (t.den * form[0])) for form, t in terms for a in t.num]
        nonzero = list(compress(nums, nums))
        need = (max(map(abs, nonzero), default=0).bit_length() + self._form_bits
                + bits + len(nonzero).bit_length() + 2)
        width = 32
        while width < need:
            width *= 2
        columns, bias = self._packed_columns(width)
        packed = list(chain.from_iterable(
            [form[3].get(width) or _combine(form, width, columns) for form, _ in terms]))
        total = sum(map(mul, nonzero, compress(packed, nums)), bias)
        # the d slots of a simple: coordinate 0, then d - 1 that must be 0,
        # that is, hold the bias alone
        d = len(self.char_form[0])
        step, half = width // 8, 1 << (width - 1)
        block = step * d
        raw = total.to_bytes(block * len(self.simples), "little")
        zeros = half.to_bytes(step, "little") * (d - 1)
        full = den * self.char_den
        out = {}
        for start, s in zip(range(0, len(raw), block), self.simples):
            val = int.from_bytes(raw[start:start + step], "little") - half
            irrational = raw[start + step:start + block] != zeros
            if irrational or val < 0 or val % full:
                shown = None if irrational else Rational(val, full)
                raise NonIntegerMultiplicity(
                    f"isotypic multiplicity of {s.label!r} came out {shown}")
            if val:
                out[s.label] = val // full
        return out

    # -- derived tables -----------------------------------------------------

    def _build_sigma_omega(self):
        by_char = {s.char: s.label for s in self.simples}
        sigma = {}
        for s in self.simples:
            twisted = tuple(c * v for c, v in zip(self.chi, s.char))
            target = by_char.get(twisted)
            if target is None:
                raise IncompleteSimpleList(
                    f"chi-twist of simple {s.label!r} is missing from the list")
            sigma[s.label] = target
        if sorted(self.label_index[v] for v in sigma.values()) != list(range(len(sigma))):
            raise InternalInconsistency("sigma is not a permutation")
        omega = {}
        for s in self.simples:
            m = s.element_mats[self.central]
            w = m[0, 0]
            if m != Matrix.scalar(self.field_order, s.dim, w):
                raise NotIrreducible(
                    f"central element is not scalar on simple {s.label!r}")
            omega[s.label] = w
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "_omega_s", {l: w ** self.s for l, w in omega.items()})
        # sigma-orbits, each listed from its first label in algebra order.
        # The scan meets each orbit first at that label, its representative.
        orbits = []
        orbit_rep = {}
        for label in self.labels:
            if label in orbit_rep:
                continue
            orbit = [label]
            cur = sigma[label]
            while cur != label:
                orbit.append(cur)
                cur = sigma[cur]
            orbits.append(tuple(orbit))
            orbit_rep.update(dict.fromkeys(orbit, label))
        object.__setattr__(self, "orbits", tuple(orbits))
        object.__setattr__(self, "orbit_rep", orbit_rep)
        object.__setattr__(self, "orbit_reps", tuple(orbit[0] for orbit in orbits))

    def _build_fusion(self):
        """N_ij^l as the multiplicities of chi_i chi_j, read per orbit and
        weight: a acts on V_i (.) V_j by omega_i omega_j, so its parts over
        central_orbits are {omega_i omega_j: chi_i(g) chi_j(g)}."""
        table = {}
        at_reps = [(self.omega[s.label], [s.char[g] for g, _ in self.central_orbits])
                   for s in self.simples]
        for si, (wi, ai) in zip(self.simples, at_reps):
            for sj, (wj, aj) in zip(self.simples, at_reps):
                w = wi * wj
                out = Counter(self.multiplicities(
                    self.central_orbits, [{w: a * b} for a, b in zip(ai, aj)]))
                dim = sum(self.simple_by_label[l].dim * k for l, k in out.items())
                if dim != si.dim * sj.dim:
                    raise InternalInconsistency("fusion table loses dimension")
                table[(si.label, sj.label)] = out
        for si in self.simples:
            for sj in self.simples:
                if table[(si.label, sj.label)] != table[(sj.label, si.label)]:
                    raise InternalInconsistency("fusion table is not symmetric")
        object.__setattr__(self, "fusion", table)

    # -- query helpers ------------------------------------------------------

    def require_label(self, label):
        if label not in self.label_index:
            raise UnknownLabel(f"no simple labelled {label!r}")
        return label

    def simple(self, label) -> SimpleRep:
        return self.simple_by_label[self.require_label(label)]

    def sigma_power(self, label, k: int):
        k %= self.s
        for _ in range(k):
            label = self.sigma[label]
        return label

    def omega_s(self, label) -> Cyclotomic:
        """omega_i^s, stored when the algebra is built; constant on
        sigma-orbits."""
        return self._omega_s[label]

    def zero(self) -> Cyclotomic:
        return Cyclotomic.zero(self.field_order)

    def one(self) -> Cyclotomic:
        return Cyclotomic.one(self.field_order)

    def scalar(self, v) -> Cyclotomic:
        if isinstance(v, Cyclotomic):
            if v.order != self.field_order:
                raise InvalidParameter(
                    f"scalar of order {v.order} in an order-{self.field_order} algebra")
            return v
        return Cyclotomic.rational(self.field_order, v)

    # -- identity -----------------------------------------------------------

    def _content_key(self):
        return (
            self.group.mul, self.group.generators, self.central, self.chi,
            self.field_order,
            tuple((s.label, s.dim, s.gen_mats) for s in self.simples),
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraData):
            return NotImplemented
        return self is other or self._content_key() == other._content_key()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._content_key())
            object.__setattr__(self, "_hash", h)
        return h


# A cold dihedral build grows about as m^4.5: 0.4 s at m = 21, 2.6 s at
# m = 31, 50 s and 300 MB at m = 61 (2 CPUs, Python 3.11).
MAX_DIHEDRAL_M = 31


@lru_cache(maxsize=None)
def dihedral_algebra(m: int) -> AlgebraData:
    """The standard example: D_n with n = 2m, m > 1 odd, a^m central.

    Simples are the four linear characters eps, lam, chi, lamchi and the
    two-dimensional rho_l for l = 1..m-1; the extension uses chi and a^m,
    giving q = -1 and s = 2.  All scalars live in Q(zeta_n).  An m above
    MAX_DIHEDRAL_M is refused before any table is built.
    """
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise InvalidParameter(f"m must be an odd integer >= 3, got {m!r}")
    if m > MAX_DIHEDRAL_M:
        raise InvalidParameter(f"m = {m} is above the limit {MAX_DIHEDRAL_M}")
    n = 2 * m
    size = 2 * n
    # indices: 0..n-1 are a^k, n..2n-1 are a^k b
    mul = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            mul[i][j] = (i + j) % n
            mul[i][n + j] = n + (i + j) % n
            mul[n + i][j] = n + (i - j) % n
            mul[n + i][n + j] = (i - j) % n
    names = [_rot_name(k) for k in range(n)] + [_ref_name(k) for k in range(n)]
    group = GroupData(mul, generators=(1, n), names=names)

    one = Cyclotomic.one(n)

    def lin(va: int, vb: int) -> list[Matrix]:
        return [Matrix.scalar(n, 1, va * one), Matrix.scalar(n, 1, vb * one)]

    z = Cyclotomic.zero(n)
    simples = [
        SimpleRep("eps", lin(1, 1), group, n),
        SimpleRep("lam", lin(1, -1), group, n),
        SimpleRep("chi", lin(-1, 1), group, n),
        SimpleRep("lamchi", lin(-1, -1), group, n),
    ]
    for l in range(1, m):
        rot = Matrix(n, [[Cyclotomic.zeta(n, l), z], [z, Cyclotomic.zeta(n, -l)]])
        flip = Matrix(n, [[z, one], [one, z]])
        simples.append(SimpleRep(l, [rot, flip], group, n))

    chi_values = [(-Cyclotomic.one(n)) ** (k % 2) for k in range(n)] * 2
    return AlgebraData(
        group, simples, central=m, chi=chi_values, field_order=n,
        kind="dihedral", descriptor={"kind": "dihedral", "m": m})


def _rot_name(k: int) -> str:
    if k == 0:
        return "e"
    return "a" if k == 1 else f"a^{k}"


def _ref_name(k: int) -> str:
    if k == 0:
        return "b"
    return "a*b" if k == 1 else f"a^{k}*b"


def custom_algebra(group: GroupData, simples, central: int, chi,
                   field_order: int) -> AlgebraData:
    """Build AlgebraData from user-supplied tables.

    simples: list of (label, [one matrix per group generator]); matrices may
    be Matrix instances or nested lists of field scalars.  chi: one field
    value per group element.  Everything is validated: central really
    central, chi a homomorphism with chi(central) != 1, simples pairwise
    distinct irreducibles exhausting the group order.
    """
    reps = []
    for item in simples:
        if isinstance(item, SimpleRep):
            reps.append(item)
        else:
            label, mats = item
            reps.append(SimpleRep(label, mats, group, field_order))
    chi = tuple(
        v if isinstance(v, Cyclotomic) else Cyclotomic.rational(field_order, v)
        for v in chi)
    descriptor = {
        "kind": "custom",
        "field_order": field_order,
        "mul_table": [list(row) for row in group.mul],
        "generators": list(group.generators),
        "names": list(group.names),
        "central": central,
        "chi": [v.to_literal() for v in chi],
        "simples": [
            {"label": r.label, "matrices": [m.to_literals() for m in r.gen_mats]}
            for r in reps
        ],
    }
    return AlgebraData(group, reps, central, chi, field_order,
                       kind="custom", descriptor=descriptor)


def algebra_from_descriptor(desc: dict) -> AlgebraData:
    """Rebuild an algebra from the JSON descriptor emitted with modules.

    A descriptor of the wrong shape (not an object, a missing key, a value
    of the wrong type, ragged matrices) raises InvalidParameter.
    """
    try:
        return _algebra_from_descriptor(desc)
    except KeyError as e:
        raise InvalidParameter(f"algebra descriptor lacks the key {e}") from e
    except (AttributeError, TypeError, ValueError, ShapeMismatch) as e:
        raise InvalidParameter(f"malformed algebra descriptor: {e}") from e


def _algebra_from_descriptor(desc: dict) -> AlgebraData:
    if not isinstance(desc, dict):
        raise InvalidParameter("algebra descriptor must be a JSON object")
    if desc.get("kind") == "dihedral":
        return dihedral_algebra(desc["m"])
    if desc.get("kind") != "custom":
        raise InvalidParameter(f"unknown algebra kind {desc.get('kind')!r}")
    from .syntax import parse_cyclotomic

    field_order = _descriptor_int(desc, "field_order")
    group = GroupData(desc["mul_table"], tuple(desc["generators"]),
                      names=desc.get("names"))
    chi = [parse_cyclotomic(field_order, v) for v in desc["chi"]]
    simples = [
        (s["label"],
         [Matrix.from_literals(field_order, m) for m in s["matrices"]])
        for s in desc["simples"]
    ]
    return custom_algebra(group, simples, _descriptor_int(desc, "central"), chi, field_order)


def _descriptor_int(desc: dict, key: str) -> int:
    value = desc[key]
    if type(value) is not int:
        raise InvalidParameter(f"descriptor {key} must be an integer, got {value!r}")
    return value

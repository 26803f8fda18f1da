"""Buchberger engine with matrix term orders and Gröbner fan enumeration.

Term orders are weight-row matrices refined by a fixed graded reverse
lexicographic tie-break (first variable largest), with one direction: the
smaller weight leads, so initial forms of tropical weight vectors (min) are
exactly the leading forms seen by the engine. Division, S-polynomials and
interreduction work on plain {exponent: coefficient} dicts, each Buchberger
run computing a monomial's key once; a Polynomial is built only for a
result. A run keeps its coefficients int while they are integral: inputs
with integral coefficients enter as ints, a lead of -1 is negated rather
than divided, and a sum that becomes integral goes back to int. Only a
lead other than 1 and -1 divides, into Fractions. Every Polynomial the
engine returns holds Fractions, as one built by parsing does.
On top of reduced bases sit saturation, monomial-freeness, dimension counts,
and the Gröbner fan walk, which runs Buchberger once per Gröbner cone: it
crosses a facet only while a single found cone bounds it. TermOrder and
GroebnerBasis are named tuples with nothing beside their fields.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, le, mul, neg, sub

from .errors import (
    DimMismatchError,
    NotZeroDimensionalError,
    RequiresHomogeneousError,
    UnitIdealError,
    ZeroPolynomialError,
)
from .fans import Cone, _cone_from_kernel, cone_key, facets_by_key
from .linalg import IntMatrix, clear_denominators, vec_neg
from .polynomials import IdealSpec, Polynomial, fresh_variable, initial_form


class TermOrder(namedtuple("TermOrder", "weight_rows")):
    """Weight rows compared lexicographically, then grevlex.

    The smaller weight leads. Each weight row is stored scaled by the lcm
    of its denominators: a positive factor changes no comparison, and keys
    become integer dot products.
    """

    __slots__ = ()

    def __new__(cls, weight_rows=()):
        return super().__new__(
            cls, tuple(tuple(clear_denominators(row)) for row in weight_rows))

    @classmethod
    def _make(cls, iterable):
        """Through the constructor, which namedtuple's _make and _replace
        skip."""
        return cls(*iterable)

    def key(self, exps):
        """The larger key leads."""
        return (*[-sum(map(mul, row, exps)) for row in self.weight_rows],
                sum(exps), *map(neg, reversed(exps)))


class GroebnerBasis(namedtuple("GroebnerBasis",
                               "order elements leading_exponents")):
    """A reduced basis: its order, elements and their leading exponents."""

    __slots__ = ()

    def variables(self):
        return self.elements[0].variables

    def marked_key(self):
        """Canonical key identifying the marked reduced basis (and hence the
        Gröbner cone)."""
        items = []
        for g, lead in zip(self.elements, self.leading_exponents):
            trailing = tuple(sorted(e for e in g.terms if e != lead))
            items.append((lead, trailing))
        return tuple(sorted(items))


# The engine works on {exponent: coefficient} term dicts, whose coefficients
# are int while integral and Fraction otherwise; an element of a basis under
# construction is a monic pair (lead, terms). Every Polynomial it returns
# holds Fractions (_fractions).

def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _integral(terms):
    """The terms with each integral Fraction made an int."""
    return {e: c.numerator if c.denominator == 1 else c
            for e, c in terms.items()}


def _fractions(terms):
    """The terms with each int made a Fraction, as a Polynomial holds them."""
    return {e: Fraction(c) if type(c) is int else c for e, c in terms.items()}


def _monic(terms, key):
    """(lead, terms scaled to leading coefficient 1): negated when the lead
    is -1, which keeps ints int, and divided only when it is not 1 either. A
    dict that already is monic is shared, not copied: the engine never
    mutates an element."""
    lead = max(terms, key=key)
    c = terms[lead]
    if c == -1:
        terms = {e: -v for e, v in terms.items()}
    elif c != 1:
        inv = Fraction(1, c)
        terms = {e: inv * v for e, v in terms.items()}
    return lead, terms


def _add_multiple(work, terms, shift, factor):
    """work += factor * x^shift * terms, in place, dropping cancelled terms;
    a sum that becomes integral goes back to int."""
    for e, c in terms.items():
        m = tuple(map(add, e, shift))
        v = work.get(m)
        if v is None:
            work[m] = factor * c
        else:
            v += factor * c
            if not v:
                del work[m]
            elif type(v) is int or v.denominator != 1:
                work[m] = v
            else:
                work[m] = v.numerator


def _reduce(terms, reducers, key):
    """Full remainder of a term dict on division by monic (lead, terms)
    pairs, the first divisor in list order taking each step."""
    work = dict(terms)
    remainder = {}
    while work:
        lt = max(work, key=key)
        for lead, g in reducers:
            if _divides(lead, lt):
                _add_multiple(work, g, tuple(map(sub, lt, lead)), -work[lt])
                break
        else:
            remainder[lt] = work.pop(lt)
    return remainder


def _s_terms(f, g):
    (lf, tf), (lg, tg) = f, g
    lcm = tuple(map(max, lf, lg))
    s = {}
    _add_multiple(s, tf, tuple(map(sub, lcm, lf)), 1)
    _add_multiple(s, tg, tuple(map(sub, lcm, lg)), -1)
    return s


def _check_order(order: TermOrder, variables):
    """A weight row that key zips with a shorter or longer exponent vector
    would be cut silently, so its length must match the ring's."""
    if any(len(row) != len(variables) for row in order.weight_rows):
        raise DimMismatchError("weight row length differs from the number "
                               "of variables")


def normal_form(p: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Full remainder of p on division by the basis list."""
    _check_order(order, p.variables)
    reducers = [_monic(g.terms, order.key) for g in basis if not g.is_zero()]
    return Polynomial._from_terms(
        p.variables, _fractions(_reduce(p.terms, reducers, order.key)))


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    _check_order(order, f.variables)
    return Polynomial._from_terms(
        f.variables, _fractions(_s_terms(_monic(f.terms, order.key),
                                         _monic(g.terms, order.key))))


def _check_termination(spec: IdealSpec, order: TermOrder):
    if all(x <= 0 for row in order.weight_rows for x in row):
        return
    if not all(g.is_homogeneous() for g in spec.generators):
        raise RequiresHomogeneousError(
            "this weight order only terminates on homogeneous input")


def reduced_groebner_basis(spec: IdealSpec, order: TermOrder) -> GroebnerBasis:
    """The unique reduced Gröbner basis of the ideal for the order. The run
    keeps integral coefficients as ints, which cost less than Fractions."""
    _check_order(order, spec.variables)
    _check_termination(spec, order)
    key = lru_cache(maxsize=None)(order.key)  # a table for this run only
    gens = [_monic(_integral(g.terms), key)
            for g in spec.generators if not g.is_zero()]
    if not gens:
        z = Polynomial.zero(spec.variables)
        return GroebnerBasis(order, (z,), ((0,) * len(spec.variables),))
    # one pass over the input: each generator is reduced by the reduced ones
    # before it and the untouched ones after it, so copies cannot annihilate
    # each other
    basis = []
    for i, (_, terms) in enumerate(gens):
        r = _reduce(terms, basis + gens[i + 1:], key)
        if r:
            basis.append(_monic(r, key))
    basis.sort(key=lambda g: key(g[0]))
    pairs = []
    counter = 0

    def push_pairs(i):
        nonlocal counter
        lf = basis[i][0]
        for j in range(i):
            lcm_deg = sum(map(max, lf, basis[j][0]))
            heapq.heappush(pairs, (lcm_deg, counter, i, j))
            counter += 1

    for i in range(1, len(basis)):
        push_pairs(i)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if not any(map(min, basis[i][0], basis[j][0])):
            continue  # coprime leading monomials: S-pair reduces to zero
        r = _reduce(_s_terms(basis[i], basis[j]), basis, key)
        if r:
            basis.append(_monic(r, key))
            push_pairs(len(basis) - 1)
    basis = _minimal_reduced(basis, key)
    return GroebnerBasis(
        order, tuple(Polynomial._from_terms(spec.variables, _fractions(t))
                     for _, t in basis),
        tuple(lead for lead, _ in basis))


def _minimal_reduced(basis, key):
    """The reduced basis, sorted by lead, from a Gröbner basis of monic
    pairs."""
    # a lead that divides another has the smaller degree, so a scan by degree
    # keeps one element per minimal generator of the lead ideal
    minimal = []
    for lead, terms in sorted(basis, key=lambda g: sum(g[0])):
        if not any(_divides(m, lead) for m, _ in minimal):
            minimal.append((lead, terms))
    minimal.sort(key=lambda g: key(g[0]))
    # the leads are final now, so one sweep reducing each tail suffices
    done = []
    for i, (lead, terms) in enumerate(minimal):
        tail = {e: c for e, c in terms.items() if e != lead}
        reduced = _reduce(tail, done + minimal[i + 1:], key)
        done.append((lead, {lead: terms[lead], **reduced}))
    return done


def is_unit_basis(gb: GroebnerBasis) -> bool:
    return any(not g.is_zero() and g.total_degree() == 0 for g in gb.elements)


def initial_ideal(gb: GroebnerBasis, w) -> IdealSpec:
    """The ideal of w-initial forms of the basis elements.

    Correct whenever w lies in the closure of the basis' Gröbner cone.
    """
    nvars = len(gb.variables())
    if len(w) != nvars:
        raise DimMismatchError("weight vector length mismatch")
    gens = tuple(initial_form(g, w) for g in gb.elements if not g.is_zero())
    if not gens:
        gens = (Polynomial.zero(gb.variables()),)
    return IdealSpec(gb.variables(), gens)


def saturate(spec: IdealSpec, f: Polynomial) -> IdealSpec:
    """(I : f^infinity) via the extended ring <I, t*f - 1> and elimination."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot saturate by the zero polynomial")
    tname = fresh_variable("t", spec.variables)
    new_vars = (tname,) + spec.variables
    lifted = [Polynomial._from_terms(new_vars,
                                     {(0,) + e: c for e, c in g.terms.items()})
              for g in spec.generators]
    tf_minus_one = {(1,) + e: c for e, c in f.terms.items()}
    tf_minus_one[(0,) * len(new_vars)] = Fraction(-1)
    gens = tuple(lifted) + (Polynomial._from_terms(new_vars, tf_minus_one),)
    # t leads: its weight -1 is the smallest of the row
    elim = TermOrder(((-1,) + (0,) * len(spec.variables),))
    gb = reduced_groebner_basis(IdealSpec(new_vars, gens), elim)
    kept = []
    for g in gb.elements:
        if g.is_zero():
            continue
        if all(e[0] == 0 for e in g.terms):
            kept.append(Polynomial._from_terms(
                spec.variables, {e[1:]: c for e, c in g.terms.items()}))
    if not kept:
        kept = [Polynomial.zero(spec.variables)]
    return IdealSpec(spec.variables, tuple(kept))


def product_of_variables(variables) -> Polynomial:
    return Polynomial(tuple(variables), {(1,) * len(tuple(variables)): Fraction(1)})


def is_monomial_free(spec: IdealSpec) -> bool:
    """True when saturating by the product of all variables stays proper,
    i.e. the ideal contains no monomial.

    A generator with one term is a monomial of the ideal, so no saturation
    runs then. Nor does it for an ideal <f> with one nonzero generator of
    several terms: a monomial in <f> would make f a divisor of a monomial,
    hence a monomial times a unit."""
    nonzero = [g for g in spec.generators if not g.is_zero()]
    if any(g.num_terms() == 1 for g in nonzero):
        return False
    if len(nonzero) <= 1:
        return True
    sat = saturate(spec, product_of_variables(spec.variables))
    return not any(not g.is_zero() and g.total_degree() == 0
                   for g in sat.generators)


def vector_space_dimension(spec: IdealSpec) -> int:
    """Count of standard monomials of the ideal (staircase complement)."""
    gb = reduced_groebner_basis(spec, TermOrder())
    if is_unit_basis(gb):
        return 0
    nvars = len(spec.variables)
    leads = [lead for g, lead in zip(gb.elements, gb.leading_exponents)
             if not g.is_zero()]
    bounds = []
    for i in range(nvars):
        pure = [lead[i] for lead in leads
                if all(e == 0 for j, e in enumerate(lead) if j != i) and lead[i] > 0]
        if not pure:
            raise NotZeroDimensionalError(
                f"no pure power of variable {spec.variables[i]!r} leads the ideal")
        bounds.append(min(pure))
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not any(_divides(lead, exps) for lead in leads):
            count += 1
    return count


def groebner_cone(gb: GroebnerBasis) -> Cone:
    """The closed cone of weight vectors selecting the basis' markings.

    The smaller weight leads: w.lead <= w.u for every trailing exponent u,
    encoded as rows (u - lead) with nonnegative pairing. The leads come
    from a term order, which some weight vector refines strictly on the
    basis' finitely many terms, so the cone has interior points: it is
    full-dimensional, its pass starts from the identity, and no rank is
    computed.
    """
    rows = []
    for g, lead in zip(gb.elements, gb.leading_exponents):
        for e in g.terms:
            if e != lead:
                rows.append(tuple(a - b for a, b in zip(e, lead)))
    n = len(gb.variables())
    return _cone_from_kernel(rows, IntMatrix.identity(n).columns(), n,
                             full=True)


def groebner_fan(spec: IdealSpec):
    """All maximal Gröbner cones of a homogeneous ideal with their reduced
    bases, enumerated by breadth-first facet crossing, one Buchberger run
    per cone.

    A cone's facets are keyed as soon as the cone is found, and each key
    counts the found cones it bounds. The fan of a homogeneous ideal is
    complete, so a facet borders exactly two cones: a facet that one found
    cone bounds leads to a cone not yet found, and one that two bound is
    not crossed. A crossing reruns Buchberger with weight rows (p, nu): p
    the sum of the facet's rays, a relative interior point, and nu the
    outward normal. Both come from the facet's key and inequality, so no
    facet is built.
    """
    if not all(g.is_homogeneous() for g in spec.generators):
        raise RequiresHomogeneousError("the Gröbner fan needs homogeneous input")
    if all(g.is_zero() for g in spec.generators):
        raise ZeroPolynomialError("zero ideal has no Gröbner fan")
    start = reduced_groebner_basis(spec, TermOrder())
    if is_unit_basis(start):
        raise UnitIdealError("unit ideal has no Gröbner fan")
    bounded = Counter()

    def found(gb):
        cone = groebner_cone(gb)
        facets = facets_by_key(cone)
        bounded.update(key for key, _, _ in facets)
        return gb, cone, facets

    queue = deque([found(start)])
    fan = []
    while queue:
        gb, cone, facets = queue.popleft()
        fan.append((gb, cone))
        for facet_key, inward, _ in facets:
            if bounded[facet_key] == 1:
                facet_rays, _ = facet_key
                p = tuple(sum(row) for row in facet_rays)
                queue.append(found(reduced_groebner_basis(
                    spec, TermOrder((p, vec_neg(inward))))))
    return sorted(fan, key=lambda gc: cone_key(gc[1]))

"""Direct computations that cross-check the library's routes to the same
answers. They are not part of the package: only the tests call them."""

import random
from fractions import Fraction
from math import prod

from tropfan.cycles import (
    span_lattice_basis,
    swap_convention,
    weighted_from_cones,
)
from tropfan.errors import (
    DimMismatchError,
    GenericityError,
    NotFullRankError,
    NotPureError,
    ZeroPolynomialError,
)
from tropfan.fans import (
    Cone,
    _v_description,
    cone_from_halfspaces,
    cone_key,
    facets_by_key,
    fan_cones,
    intersect,
    relative_interior_point,
)
from tropfan.groebner import (
    TermOrder,
    initial_ideal,
    is_monomial_free,
    product_of_variables,
    reduced_groebner_basis,
    saturate,
)
from tropfan.linalg import (
    IntMatrix,
    clear_denominators,
    dot,
    integer_kernel_basis,
    lattice_from_generators,
    lattice_index,
    primitive_vector,
    quotient_reps,
    rational_rank,
    saturate_lattice,
    smith_normal_form,
    vec_neg,
)
from tropfan.polynomials import edge_lattice_length
from tropfan.tropical import _multiplicity_from_initial


def optimum_attained_twice(f, w, convention="min") -> bool:
    """Direct membership test for the tropical hypersurface of f."""
    values = [sum(Fraction(wi) * ei for wi, ei in zip(w, e)) for e in f.terms]
    opt = min(values) if convention == "min" else max(values)
    return values.count(opt) >= 2


def leading_term(p, order):
    """(exponent, coefficient) of the leading term under the order."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    lead = max(p.terms, key=order.key)
    return lead, p.terms[lead]


def relint_contains(c, point) -> bool:
    """Is the point in the relative interior of the cone? Strict on every
    inequality of its H-description."""
    if len(point) != c.ambient_dim:
        raise DimMismatchError("point dimension mismatch")
    return (all(dot(r, point) == 0 for r in c.equations.entries)
            and all(dot(r, point) > 0 for r in c.inequalities.entries))


def multiplicity_at(spec_homogeneous, sigma) -> int:
    """Multiplicity of a maximal cell of the tropical variety of a
    homogeneous ideal, from the initial ideal at one interior point."""
    w = relative_interior_point(sigma)
    gb = reduced_groebner_basis(spec_homogeneous, TermOrder((w,)))
    return _multiplicity_from_initial(initial_ideal(gb, w), sigma)


def reference_newton_polytope(f):
    """Vertices of the Newton polytope, in descending graded lexicographic
    order, by one phase-1 simplex per support point: a point is a vertex
    when its homogenized point is not in the cone of the others (the
    earlier implementation)."""
    supp = f.support()
    n = len(f.variables)
    vertices = []
    for p in supp:
        others = [q + (1,) for q in supp if q != p]
        if not others or not reference_cone_feasible(
                IntMatrix.from_columns(others, n + 1),
                IntMatrix.from_columns([], n + 1), p + (1,)):
            vertices.append(p)
    return vertices


def reference_tropical_hypersurface(f, convention="min"):
    """The tropical hypersurface by one double description pass per vertex
    pair of reference_newton_polytope: the pair spans an edge when its
    normal cone is full-dimensional in the hyperplane of its one equation
    (the earlier implementation)."""
    n = len(f.variables)
    vertices = reference_newton_polytope(f)
    pairs = []
    for i, vi in enumerate(vertices):
        rows = [tuple(u[k] - vi[k] for k in range(n)) for u in vertices]
        for vj in vertices[i + 1:]:
            cone = cone_from_halfspaces(
                rows, [tuple(vi[k] - vj[k] for k in range(n))], n, full=True)
            if cone is not None:
                pairs.append((cone, edge_lattice_length(vi, vj)))
    cycle = weighted_from_cones(n, pairs, "min", merge_duplicates=False)
    return swap_convention(cycle) if convention == "max" else cycle


def reference_is_monomial_free(spec) -> bool:
    """Whether the ideal contains no monomial, by saturating it by the
    product of the variables, whatever its number of generators."""
    if all(g.is_zero() for g in spec.generators):
        return True
    sat = saturate(spec, product_of_variables(spec.variables))
    return not any(not g.is_zero() and g.total_degree() == 0
                   for g in sat.generators)


def reference_dd(ineq_rows, eq_rows, n):
    """Double description with adjacency decided by an exact rank test:
    (rays, lineality_vectors) of {x : E x = 0, A x >= 0}, the rays primitive
    and extreme modulo the lineality space. It keeps no incidences."""
    eq_matrix = IntMatrix.from_rows(list(eq_rows), n)
    lin = integer_kernel_basis(eq_matrix).columns()
    rays = []
    processed = []

    def adjacent(r1, r2, lin_dim):
        tight = list(eq_rows) + [h for h in processed
                                 if dot(h, r1) == 0 and dot(h, r2) == 0]
        if not tight:
            return n - lin_dim - 2 == 0
        return rational_rank(tight) == n - lin_dim - 2

    for a in ineq_rows:
        if all(x == 0 for x in a):
            continue
        pivot = None
        for l in lin:
            if dot(a, l) != 0:
                pivot = l
                break
        if pivot is not None:
            if dot(a, pivot) < 0:
                pivot = vec_neg(pivot)
            d0 = dot(a, pivot)
            new_lin = []
            for l in lin:
                if l is pivot or l == pivot or l == vec_neg(pivot):
                    continue
                s = dot(a, l)
                new_lin.append(l if s == 0 else
                               primitive_vector(tuple(d0 * x - s * y
                                                      for x, y in zip(l, pivot))))
            lin = new_lin
            rays = [r if dot(a, r) == 0 else
                    primitive_vector(tuple(d0 * x - dot(a, r) * y
                                           for x, y in zip(r, pivot)))
                    for r in rays]
            rays.append(pivot)
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            neg = [r for r in rays if dot(a, r) < 0]
            if neg:
                new_rays = pos + zero
                for rp in pos:
                    for rn in neg:
                        if adjacent(rp, rn, len(lin)):
                            combo = tuple(dot(a, rp) * x - dot(a, rn) * y
                                          for x, y in zip(rn, rp))
                            new_rays.append(primitive_vector(combo))
                rays = new_rays
        processed.append(tuple(a))
    return rays, lin


def _saturate(vecs, n):
    """The canonical basis of the saturated lattice the vectors span, by an
    explicit saturation whatever basis the vectors are."""
    return saturate_lattice(IntMatrix.from_columns([tuple(v) for v in vecs], n))


def _two_pass_cone(ray_vecs, lin_vecs, facet_vecs, eq_vecs, n):
    """The canonical cone from both descriptions of a two-pass reference.
    Its inequalities and equations are set from the reference's own facets
    and saturated equations, in the fields a cone caches them in, so that a
    comparison with the library's cone checks the library's derivation."""
    eq_basis = _saturate(eq_vecs, n)
    ineqs = sorted(set(quotient_reps(facet_vecs, eq_basis)))
    cone = Cone(n, *_v_description(ray_vecs, _saturate(lin_vecs, n), n),
                facet_rows=lambda: facet_vecs)
    vars(cone).update(inequalities=IntMatrix.from_rows(ineqs, n),
                      equations=eq_basis.transpose())
    return cone


def reference_cone_from_halfspaces(ineq_rows, eq_rows, n):
    """The canonical cone {x : eq_rows . x = 0, ineq_rows . x >= 0} by two
    passes: the primal one for the rays, then the dual one, from the rays,
    for the irredundant facets and the equations."""
    ray_vecs, lin_vecs = reference_dd([tuple(a) for a in ineq_rows],
                                      [tuple(e) for e in eq_rows], n)
    facet_vecs, eq_vecs = reference_dd(ray_vecs, lin_vecs, n)
    return _two_pass_cone(ray_vecs, lin_vecs, facet_vecs, eq_vecs, n)


def reference_cone_from_generators(ray_cols, lineality_cols, n):
    """The canonical cone cone(rays) + span(lineality) by two passes: the
    dual one for the facets and equations, then the primal one, from the
    facets, for the extreme rays and the lineality."""
    facet_vecs, eq_vecs = reference_dd([tuple(r) for r in ray_cols],
                                       [tuple(l) for l in lineality_cols], n)
    ray_vecs, lin_vecs = reference_dd(facet_vecs, eq_vecs, n)
    return _two_pass_cone(ray_vecs, lin_vecs, facet_vecs, eq_vecs, n)


def reference_negate_cone(c):
    """-c rebuilt from its negated generators by the two-pass reference."""
    return reference_cone_from_generators(
        [vec_neg(r) for r in c.rays.columns()], c.lineality.columns(),
        c.ambient_dim)


def reference_fan_cone(fan, index):
    """The maximal cone with the given index, rebuilt from the fan's shared
    rays and lineality by the two-pass reference."""
    cols = [fan.rays.column(j) for j in fan.maximal_cones[index]]
    return reference_cone_from_generators(cols, fan.lineality.columns(),
                                          fan.ambient_dim)


def reference_is_balanced(cycle) -> bool:
    """Balancing by scanning, for each distinct facet tau, every maximal cone
    (rebuilt from the fan) that contains tau and has one dimension more."""
    if not cycle.pure:
        raise NotPureError("balancing is defined for pure cycles only")
    fan = cycle.fan
    cones = [reference_fan_cone(fan, i) for i in range(fan.n_maximal())]
    facet_map = {}
    for c in cones:
        for key, _, build in sorted(facets_by_key(c), key=lambda t: t[0]):
            if key not in facet_map:
                facet_map[key] = build()
    for tau in facet_map.values():
        total = [0] * fan.ambient_dim
        for c, m in zip(cones, cycle.multiplicities):
            if c.contains_cone(tau) and c.dim == tau.dim + 1:
                v = quotient_normal_vector(c, tau)
                total = [t + m * x for t, x in zip(total, v)]
        if any(dot(row, total) != 0 for row in tau.equations.entries):
            return False
    return True


def quotient_normal_vector(sigma, tau):
    """The generator of the rank-one quotient
    (Z^n cap span sigma) / (Z^n cap span tau) that points into sigma, for a
    facet tau of sigma: the canonical representative, modulo span tau, of a
    ray of sigma off tau."""
    on_tau = set(tau.rays.columns())
    rays = sigma.rays.columns()
    if tau.lineality.entries != sigma.lineality.entries or not any(
            {r for r in rays if dot(a, r) == 0} == on_tau
            for a in sigma.inequalities.entries):
        raise DimMismatchError("tau is not a codimension-one face of sigma")
    off_tau = next(r for r in rays if r not in on_tau)
    return quotient_reps([off_tau], span_lattice_basis(tau))[0]


def displacement_difference(ca, cb):
    """The generators (rays, lineality) of ca - cb as IntMatrix columns, the
    cone the displacement must lie in for ca and cb to meet after the shift."""
    n = ca.ambient_dim
    rays = ca.rays.columns() + [vec_neg(r) for r in cb.rays.columns()]
    lin = ca.lineality.columns() + cb.lineality.columns()
    return IntMatrix.from_columns(rays, n), IntMatrix.from_columns(lin, n)


def reference_stable_intersection(a, b, seed=0):
    """The fan displacement rule with the exact simplex on every pair whose
    spans fill the space, and no separating-row test before it."""
    n = a.ambient_dim
    if a.fan.is_empty() or b.fan.is_empty():
        return weighted_from_cones(n, (), a.convention)
    cones_a = list(zip(fan_cones(a.fan), a.multiplicities))
    cones_b = list(zip(fan_cones(b.fan), b.multiplicities))
    expected_dim = (max(c.dim for c, _ in cones_a)
                    + max(c.dim for c, _ in cones_b) - n)
    if expected_dim < 0:
        return weighted_from_cones(n, (), a.convention)

    def span(cone):
        return [list(c) for c in cone.rays.columns() + cone.lineality.columns()]

    rng = random.Random(seed)
    deficient = []
    full = []
    for ca, ma in cones_a:
        for cb, mb in cones_b:
            eqs = ca.equations.entries + cb.equations.entries
            if rational_rank(eqs) == len(eqs):
                full.append((ca, ma, cb, mb))
            else:
                deficient.append(span(ca) + span(cb))
    v = None
    for _ in range(32):
        cand = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n))
        if all(x == 0 for x in cand):
            continue
        if all(rational_rank(s + [list(cand)]) > rational_rank(s)
               for s in deficient):
            v = cand
            break
    if v is None:
        raise GenericityError("no generic displacement vector found")
    pairs = []
    for ca, ma, cb, mb in full:
        if not reference_cone_feasible(*displacement_difference(ca, cb), v):
            continue
        piece = intersect(ca, cb)
        if piece.dim < expected_dim:
            continue
        weight = ma * mb * lattice_index(
            lattice_from_generators(n, span_lattice_basis(ca).columns()),
            lattice_from_generators(n, span_lattice_basis(cb).columns()))
        pairs.append((piece, weight))
    if not pairs:
        return weighted_from_cones(n, (), a.convention)
    return weighted_from_cones(n, pairs, a.convention, merge_duplicates=True)


def reference_kept_faces(fan_data):
    """The monomial-free faces of a Gröbner fan, given as (basis, cone)
    pairs, with no pruning: every face is built, by building each facet of
    each face met, and tested with the basis of the first Gröbner cone that
    reaches it. A list of (face, initial ideal) in walk order: the Gröbner
    cones in fan order, each one's new faces sorted by key."""
    kept = []
    seen = set()
    for gb, cone in fan_data:
        if cone_key(cone) in seen:
            continue
        seen.add(cone_key(cone))
        new = [cone]
        frontier = [cone]
        while frontier:
            below = []
            for c in frontier:
                for key, _, build in facets_by_key(c):
                    if key not in seen:
                        seen.add(key)
                        below.append(build())
            new += below
            frontier = below
        for face in sorted(new, key=cone_key):
            inw = initial_ideal(gb, relative_interior_point(face))
            if is_monomial_free(inw):
                kept.append((face, inw))
    return kept


def reference_hermite_normal_form(m):
    """Column Hermite normal form (H, U) with H = M U, the witness U kept
    apart from the columns and every column operation done entry by entry
    on both (the earlier implementation)."""
    cols = [list(c) for c in m.columns()]
    nc = m.ncols
    u = [[1 if i == j else 0 for i in range(nc)] for j in range(nc)]
    c = 0
    for r in range(m.nrows):
        if c >= nc:
            break
        while True:
            live = [j for j in range(c, nc) if cols[j][r] != 0]
            if not live:
                break
            j0 = min(live, key=lambda j: (abs(cols[j][r]), j))
            if j0 != c:
                cols[c], cols[j0] = cols[j0], cols[c]
                u[c], u[j0] = u[j0], u[c]
            done = True
            for j in range(c + 1, nc):
                if cols[j][r] != 0:
                    q = cols[j][r] // cols[c][r]
                    for i in range(m.nrows):
                        cols[j][i] -= q * cols[c][i]
                    for i in range(nc):
                        u[j][i] -= q * u[c][i]
                    if cols[j][r] != 0:
                        done = False
            if done:
                break
        if c < nc and cols[c][r] != 0:
            if cols[c][r] < 0:
                cols[c] = [-x for x in cols[c]]
                u[c] = [-x for x in u[c]]
            p = cols[c][r]
            for j in range(c):
                q = cols[j][r] // p
                if q:
                    for i in range(m.nrows):
                        cols[j][i] -= q * cols[c][i]
                    for i in range(nc):
                        u[j][i] -= q * u[c][i]
            c += 1
    return (IntMatrix.from_columns(cols, m.nrows),
            IntMatrix.from_columns(u, nc))


def reference_quotient_reps(vectors, basis):
    """Representatives v - (B Q)(P v)[:d] modulo the saturated lattice of
    the basis columns B, from a fresh Smith form P B Q and two
    matrix-vector products per vector (the earlier implementation)."""
    d = basis.ncols
    if d == 0:
        return [primitive_vector(v) for v in vectors]
    dmat, p, q = smith_normal_form(basis)
    if any(dmat.entries[i][i] != 1 for i in range(d)):
        raise NotFullRankError("basis does not generate a saturated lattice")
    bq = basis @ q
    return [primitive_vector(tuple(
        x - y for x, y in zip(v, bq.mul_vec(p.mul_vec(v)[:d]))))
        for v in vectors]


def invariant_factors(m) -> tuple:
    """The nonzero diagonal entries of the Smith form of m."""
    d, _, _ = smith_normal_form(m)
    facs = [d.entries[i][i] for i in range(min(m.nrows, m.ncols))]
    return tuple(f for f in facs if f != 0)


def reference_lattice_index(l1, l2):
    """[Z^n : L1 + L2] as the product of the invariant factors of the joint
    basis (the earlier implementation)."""
    n = l1.ambient_dim
    joint = IntMatrix.from_columns(l1.basis.columns() + l2.basis.columns(), n)
    facs = invariant_factors(joint)
    if len(facs) < n:
        raise NotFullRankError("lattices do not jointly span the ambient space")
    return prod(facs)


def reference_nonneg_solution_exists(a_rows, b) -> bool:
    """Phase-1 simplex with Bland's rule on an integer tableau with one
    shared denominator, the reduced costs recomputed from the artificial
    rows before every pivot (the earlier implementation)."""
    m = len(a_rows)
    if m == 0:
        return True
    n = len(a_rows[0])
    total = n + m
    scaled = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        scaled.append(clear_denominators([sign * x for x in a_rows[i]]
                                         + [1, sign * b[i]]))
    den = prod(r[n] for r in scaled)
    tab = [[den // r[n] * x for x in r[:n]]
           + [den if j == i else 0 for j in range(m)]
           + [den // r[n] * r[n + 1]]
           for i, r in enumerate(scaled)]
    basis = [n + i for i in range(m)]
    while True:
        art = [i for i in range(m) if basis[i] >= n]
        entering = None
        for j in range(total):
            if j in basis:
                continue
            red = (den if j >= n else 0) - sum(tab[i][j] for i in art)
            if red < 0:
                entering = j
                break
        if entering is None:
            return sum(tab[i][total] for i in art) == 0
        leaving = None
        for i in range(m):
            if tab[i][entering] > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = tab[i][total] * tab[leaving][entering]
                rhs = tab[leaving][total] * tab[i][entering]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise AssertionError("unbounded phase-1 simplex")
        prow = tab[leaving]
        pv = prow[entering]
        for i in range(m):
            if i != leaving:
                row = tab[i]
                f = row[entering]
                tab[i] = [(pv * x - f * y) // den for x, y in zip(row, prow)]
        den = pv
        basis[leaving] = entering


def reference_cone_feasible(rays, lineality, target) -> bool:
    """Whether target lies in cone(ray columns) + span(lineality), by the
    phase-1 simplex on [rays | lineality | -lineality] x = target, x >= 0
    (the earlier implementation of linalg.cone_feasible)."""
    n = rays.nrows if rays.ncols else lineality.nrows
    if rays.ncols and lineality.ncols and rays.nrows != lineality.nrows:
        raise DimMismatchError("rays and lineality ambient dimensions differ")
    if len(target) != n:
        raise DimMismatchError("target dimension mismatch")
    cols = rays.columns() + lineality.columns() \
        + [vec_neg(c) for c in lineality.columns()]
    if not cols:
        return all(x == 0 for x in target)
    a_rows = [tuple(c[i] for c in cols) for i in range(n)]
    return reference_nonneg_solution_exists(a_rows, target)


def validate_fan(fan) -> bool:
    """Desk-scale fan axiom check: pairwise intersections are faces of both
    cones."""
    cones = fan_cones(fan)
    for i, c1 in enumerate(cones):
        for c2 in cones[i + 1:]:
            meet = intersect(c1, c2)
            for c in (c1, c2):
                tight = [a for a in c.inequalities.entries
                         if all(dot(a, g) == 0 for g in meet.rays.columns())
                         and all(dot(a, g) == 0 for g in meet.lineality.columns())]
                face = cone_from_halfspaces(list(c.inequalities.entries),
                                            list(c.equations.entries) + tight,
                                            c.ambient_dim)
                if cone_key(face) != cone_key(meet):
                    return False
    return True

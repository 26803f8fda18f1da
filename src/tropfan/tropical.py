"""Tropical hypersurfaces, prevarieties, varieties, and stable intersection.

The variety pipeline is the exhaustive one: homogenize, enumerate the whole
Gröbner fan, keep every face whose initial ideal stays monomial-free under
saturation, slice the homogenizing coordinate back out, and compute one
multiplicity per maximal cell as the degree of the saturated initial ideal in
quotient coordinates. Stable intersections use the fan displacement rule with
an analytically eliminated perturbation and lattice-index weights.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

from .errors import (
    ConventionMismatchError,
    DimMismatchError,
    GenericityError,
    MonomialHypersurfaceError,
    UnitIdealError,
    ZeroIdealError,
    ZeroPolynomialError,
)
from .cycles import (
    TropicalCycle,
    check_convention,
    span_lattice_basis,
    swap_convention,
    weighted_from_cones,
)
from .fans import (
    Cone,
    Fan,
    all_faces,
    common_refinement,
    cone_key,
    fan_cones,
    halfspaces_by_key,
    intersection_by_key,
    relative_interior_point,
    slice_first_coordinate,
    support_contains,
)
from .groebner import (
    TermOrder,
    groebner_fan,
    initial_ideal,
    is_monomial_free,
    is_unit_basis,
    reduced_groebner_basis,
    saturate,
    vector_space_dimension,
    product_of_variables,
)
from .linalg import (
    IntMatrix,
    cone_feasible,
    hnf_completion,
    lattice_from_generators,
    lattice_index,
    rational_rank,
    vec_neg,
)
from .polynomials import (
    IdealSpec,
    Polynomial,
    edge_lattice_length,
    homogenize,
    newton_polytope,
)


def tropical_evaluate(f: Polynomial, w, convention: str = "min") -> Fraction:
    """Piecewise-linear value min (or max) of w.u over the support of f."""
    check_convention(convention)
    if f.is_zero():
        raise ZeroPolynomialError("cannot tropicalize the zero polynomial")
    if len(w) != len(f.variables):
        raise DimMismatchError("point dimension mismatch")
    values = [sum(Fraction(wi) * ei for wi, ei in zip(w, e)) for e in f.terms]
    return min(values) if convention == "min" else max(values)


def tropical_hypersurface(f: Polynomial, convention: str = "min") -> TropicalCycle:
    """The codimension-one skeleton of the Newton polytope's normal fan,
    weighted by lattice lengths of the dual edges."""
    check_convention(convention)
    if f.is_zero():
        raise ZeroPolynomialError("cannot tropicalize the zero polynomial")
    if f.num_terms() < 2:
        raise MonomialHypersurfaceError(
            "a monomial has an empty tropical hypersurface")
    n = len(f.variables)
    supp = f.support()
    vertices = newton_polytope(f)
    pairs = []
    for i, vi in enumerate(vertices):
        for vj in vertices[i + 1:]:
            rows = [tuple(u[k] - vi[k] for k in range(n)) for u in supp]
            _, dim, build = halfspaces_by_key(
                rows, [tuple(vi[k] - vj[k] for k in range(n))], n)
            if dim == n - 1:
                pairs.append((build(), edge_lattice_length(vi, vj)))
    cycle = weighted_from_cones(n, pairs, "min", merge_duplicates=False)
    if convention == "max":
        cycle = swap_convention(cycle)
    return cycle


def tropical_prevariety(polys, convention: str = "min") -> Fan:
    """Common refinement of the tropical hypersurfaces of the given
    polynomials; each of its cones lies in every hypersurface."""
    if not polys:
        raise ZeroIdealError("prevariety of an empty list")
    return reduce(common_refinement,
                  [tropical_hypersurface(f, convention).fan for f in polys])


def _multiplicity_from_initial(inw: IdealSpec, sigma: Cone) -> int:
    """Degree of the saturated initial ideal in coordinates adapted to the
    cell: quotient out the span lattice, drop those variables, saturate by
    the remaining ones, and count standard monomials."""
    n = sigma.ambient_dim
    basis = span_lattice_basis(sigma)
    d = basis.ncols
    v = hnf_completion(basis)
    vt = v.transpose()
    residual_vars = tuple(f"z{i}" for i in range(n - d))
    gens = []
    for g in inw.generators:
        if g.is_zero():
            continue
        imgs = {}
        firsts = None
        for e, c in g.terms.items():
            img = vt.mul_vec(e)
            if firsts is None:
                firsts = img[:d]
            elif img[:d] != firsts:
                raise DimMismatchError(
                    "cell is not a face of the initial ideal's Gröbner region")
            imgs[img[d:]] = c
        if not imgs:
            continue
        mins = [min(e[i] for e in imgs) for i in range(n - d)]
        shifted = {tuple(x - m for x, m in zip(e, mins)): c
                   for e, c in imgs.items()}
        gens.append(Polynomial(residual_vars, shifted))
    if not gens:
        gens = [Polynomial.zero(residual_vars)]
    residual = IdealSpec(residual_vars, tuple(gens))
    if n - d > 0:
        residual = saturate(residual, product_of_variables(residual_vars))
    return vector_space_dimension(residual)


def _validated(spec: IdealSpec):
    if all(g.is_zero() for g in spec.generators):
        raise ZeroIdealError("the zero ideal has no tropical variety")
    gb = reduced_groebner_basis(spec, TermOrder((), "max"))
    if is_unit_basis(gb):
        raise UnitIdealError("the unit ideal has an empty variety")


def _empty_cycle(n: int, convention: str) -> TropicalCycle:
    empty = IntMatrix.from_columns([], n)
    return TropicalCycle(Fan(n, empty, empty, ()), (), convention)


def tropical_variety(spec: IdealSpec, convention: str = "min",
                     strategy: str = "auto") -> TropicalCycle:
    """The tropical variety of the torus part of V(spec), with multiplicities.

    strategy "groebner" runs the exhaustive Gröbner fan pipeline, "newton"
    the Newton polytope route for principal ideals, "auto" picks for you.
    Both are correct for prime and non-prime input alike; a variety with
    components of different dimensions comes back as a cycle whose `pure`
    is false.
    """
    check_convention(convention)
    _validated(spec)
    n = len(spec.variables)
    if not is_monomial_free(spec):
        return _empty_cycle(n, convention)
    gens = [g for g in spec.generators if not g.is_zero()]
    if strategy == "auto":
        strategy = "newton" if len(gens) == 1 else "groebner"
    if strategy not in ("newton", "groebner"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "newton":
        if len(gens) != 1:
            raise DimMismatchError("the Newton strategy needs a principal ideal")
        return tropical_hypersurface(gens[0], convention)
    result = _groebner_variety(IdealSpec(spec.variables, tuple(gens)))
    if convention == "max":
        result = swap_convention(result)
    return result


def _kept_faces(fan_data):
    """The monomial-free faces of a Gröbner fan, given as (basis, cone)
    pairs: a map from face keys to (face, initial ideal). The face lattices
    are walked once for the whole fan; each face is tested with the basis of
    the first Gröbner cone that reaches it."""
    kept = {}
    seen = {}
    for gb, cone in fan_data:
        for face in all_faces(cone, seen):
            w = relative_interior_point(face)
            inw = initial_ideal(gb, w)
            if is_monomial_free(inw):
                kept[cone_key(face)] = (face, inw)
    return kept


def _groebner_variety(spec: IdealSpec):
    kept = _kept_faces(groebner_fan(homogenize(spec)))
    faces_list = [face for face, _ in kept.values()]
    maximal = []
    for i, (face, inw) in enumerate(kept.values()):
        if not any(other is not face and other.contains_cone(face)
                   for other in faces_list):
            maximal.append((face, inw))
    pairs = []
    for face, inw in maximal:
        mult = _multiplicity_from_initial(inw, face)
        pairs.append((slice_first_coordinate(face), mult))
    return weighted_from_cones(len(spec.variables), pairs, "min",
                               merge_duplicates=False)


def is_tropical_basis(polys) -> bool:
    """Do the hypersurfaces of these polynomials cut out the tropical
    variety of the ideal they generate?

    The prevariety always contains the variety; equality is decided exactly
    by refining each prevariety cone against the complete sliced Gröbner fan
    (so membership is constant on each piece) and testing one relative
    interior point per piece against the variety support.
    """
    if not polys:
        raise ZeroIdealError("empty generating set")
    variables = polys[0].variables
    spec = IdealSpec(variables, tuple(polys))
    variety = tropical_variety(spec, strategy="groebner")  # validates spec
    prevariety = tropical_prevariety(polys)
    if variety.fan.is_empty():
        return prevariety.is_empty()
    spec_h = homogenize(spec)
    sliced = [slice_first_coordinate(cone)
              for _, cone in groebner_fan(spec_h)]
    for sigma in fan_cones(prevariety):
        for gamma in sliced:
            (piece_rays, _), _, _ = intersection_by_key(sigma, gamma)
            # the sum of the piece's rays, as relative_interior_point gives it
            w = tuple(sum(row) for row in piece_rays)
            if not support_contains(variety.fan, w):
                return False
    return True


def _span_matrix(cone: Cone):
    return [list(c) for c in cone.rays.columns()] + \
        [list(c) for c in cone.lineality.columns()]


def stable_intersection(a: TropicalCycle, b: TropicalCycle,
                        seed: int = 0) -> TropicalCycle:
    """Fan displacement rule: keep pairs of maximal cones whose spans fill
    the ambient space and that still meet after a generic shift, weight them
    by lattice indices, and intersect."""
    if a.convention != b.convention:
        raise ConventionMismatchError("cycles use different conventions")
    if a.ambient_dim != b.ambient_dim:
        raise DimMismatchError("cycles live in different ambient spaces")
    n = a.ambient_dim
    if a.fan.is_empty() or b.fan.is_empty():
        return _empty_cycle(n, a.convention)
    cones_a = list(zip(fan_cones(a.fan), a.multiplicities))
    cones_b = list(zip(fan_cones(b.fan), b.multiplicities))
    da = max(c.dim for c, _ in cones_a)
    db = max(c.dim for c, _ in cones_b)
    expected_dim = da + db - n
    if expected_dim < 0:
        return _empty_cycle(n, a.convention)
    rng = random.Random(seed)
    deficient = []
    full = []
    for ca, ma in cones_a:
        for cb, mb in cones_b:
            span = _span_matrix(ca) + _span_matrix(cb)
            if rational_rank(span) == n:
                full.append((ca, ma, cb, mb))
            else:
                deficient.append(span)
    v = None
    for _ in range(32):
        cand = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n))
        if all(x == 0 for x in cand):
            continue
        if all(rational_rank(span + [list(cand)]) > rational_rank(span)
               for span in deficient):
            v = cand
            break
    if v is None:
        raise GenericityError("no generic displacement vector found")
    pairs = []
    built = {}
    for ca, ma, cb, mb in full:
        rays_cols = ca.rays.columns() + [vec_neg(r) for r in cb.rays.columns()]
        lin_cols = ca.lineality.columns() + cb.lineality.columns()
        difference_rays = IntMatrix.from_columns(rays_cols, n)
        difference_lin = IntMatrix.from_columns(lin_cols, n)
        if not cone_feasible(difference_rays, difference_lin, v):
            continue
        key, dim, build = intersection_by_key(ca, cb)
        if dim < expected_dim:
            # boundary scrap: it lies in faces of full-dimensional pieces and
            # carries no weight of its own
            continue
        if key not in built:
            built[key] = build()
        la = lattice_from_generators(n, span_lattice_basis(ca).columns())
        lb = lattice_from_generators(n, span_lattice_basis(cb).columns())
        weight = ma * mb * lattice_index(la, lb)
        pairs.append((built[key], weight))
    if not pairs:
        return _empty_cycle(n, a.convention)
    result = weighted_from_cones(n, pairs, a.convention, merge_duplicates=True)
    if any(c.dim != expected_dim for c in fan_cones(result.fan)):
        raise GenericityError("displacement produced cells of unexpected dimension")
    return result

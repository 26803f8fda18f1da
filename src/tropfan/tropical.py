"""Tropical hypersurfaces, prevarieties, varieties, and stable intersection.

A hypersurface is the codimension-one skeleton of the normal fan of the
Newton polytope, read off the one double description pass that finds the
polytope's vertices and facets: the edges come from the vertex-facet
incidences, and each edge's normal cone from the facets containing it, so
no other pass and no linear program runs.

The variety pipeline is the exhaustive one: homogenize, enumerate the whole
Gröbner fan, and walk its face lattice by ray masks, building no face. The
variety is a closed subfan of the Gröbner fan, so faces are decided by
ascending dimension, and only a face whose facets are all kept is tested: it
is kept when its initial ideal stays monomial-free under saturation. The
lineality face, whose initial ideal is the whole ideal, is not tested again:
the entry test has decided it. The maximal kept faces, those that are no
kept face's facet, are the only ones built; slice the homogenizing
coordinate back out of each, and compute one multiplicity per maximal cell
as the degree of the saturated initial ideal in quotient coordinates. Stable
intersections of pure cycles use the fan displacement rule with an
analytically eliminated perturbation and lattice-index weights. A pair of
cones is rejected first by rows: bit masks over the other fan's rays give,
per cone row, the pairs it separates by a Farkas certificate. Every other
pair takes one elimination of its joint equation rows per draw, which skips
it, finds the draw not generic, or splits the displacement between the two
spans; the last are intersected by a pass that stops at the first dimension
drop, and decided at an intersection of the expected dimension by the signs
of a few integer dot products. No linear program and no rank runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import (
    ConventionMismatchError,
    DimMismatchError,
    GenericityError,
    MonomialHypersurfaceError,
    NotPureError,
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
    common_refinement,
    cone_from_incidence,
    face_lattice,
    fan_cones,
    intersect,
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
    Lattice,
    _row_echelon,
    dot,
    hnf_completion,
    integer_kernel_basis,
    lattice_index,
    vec_neg,
)
from .polynomials import (
    IdealSpec,
    Polynomial,
    edge_lattice_length,
    homogenize,
    newton_cone,
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
    weighted by lattice lengths of the dual edges.

    One double description pass (newton_cone) gives the vertices and the
    facets, and nothing else runs one. Each vertex carries the bit mask of
    the facets it is tight on; two vertices span an edge when no third one
    is tight on every facet both are tight on (the combinatorial test of
    Fukuda and Prodon). The edge's normal cone is read off the pass: its
    rays are the first n coordinates of the facet rows containing the edge,
    its lineality is the integer kernel of the vertex differences, and its
    dimension is n - 1. Its facet rows are the rows u - v_i, whose
    incidences with those rays are the facets' vertex masks, and its facets
    are left underived."""
    check_convention(convention)
    if f.is_zero():
        raise ZeroPolynomialError("cannot tropicalize the zero polynomial")
    if f.num_terms() < 2:
        raise MonomialHypersurfaceError(
            "a monomial has an empty tropical hypersurface")
    n = len(f.variables)
    polytope = newton_cone(f)
    points = polytope.rays.columns()  # (v, 1) for each vertex v
    facets = polytope.facet_rows()
    vertices = [p[:n] for p in points]
    tight = [sum(1 << k for k, y in enumerate(facets) if not dot(y, p))
             for p in points]
    on_facet = [sum(1 << m for m, t in enumerate(tight) if t >> k & 1)
                for k in range(len(facets))]
    v0 = vertices[0]
    lineality = integer_kernel_basis(IntMatrix.from_rows(
        [tuple(a - b for a, b in zip(v, v0)) for v in vertices[1:]], n))
    pairs = []
    for i, vi in enumerate(vertices):
        rows = [tuple(a - b for a, b in zip(u, vi)) for u in vertices]
        for j in range(i + 1, len(vertices)):
            common = tight[i] & tight[j]
            if any(t & common == common for m, t in enumerate(tight)
                   if m != i and m != j):
                continue
            edge_facets = [k for k in range(len(facets)) if common >> k & 1]
            cone = cone_from_incidence(
                [facets[k][:n] for k in edge_facets], lineality, rows,
                [on_facet[k] for k in edge_facets], n - 1)
            pairs.append((cone, edge_lattice_length(vi, vertices[j])))
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
        gens.append(Polynomial._from_terms(residual_vars, shifted))
    if not gens:
        gens = [Polynomial.zero(residual_vars)]
    residual = IdealSpec(residual_vars, tuple(gens))
    if n - d > 0:
        residual = saturate(residual, product_of_variables(residual_vars))
    return vector_space_dimension(residual)


def _validated(spec: IdealSpec):
    if all(g.is_zero() for g in spec.generators):
        raise ZeroIdealError("the zero ideal has no tropical variety")
    gb = reduced_groebner_basis(spec, TermOrder())
    if is_unit_basis(gb):
        raise UnitIdealError("the unit ideal has an empty variety")


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
        return weighted_from_cones(n, (), convention)
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
    pairs: a list of (Face, initial ideal) in walk order (the Gröbner cones
    in fan order, each one's new faces sorted by key).

    The face lattices are walked once for the whole fan by ray masks
    (face_lattice), building no face. Trop(I) of a homogeneous ideal is a
    closed subfan of the Gröbner fan, so a face with a facet outside it lies
    outside it too. Membership is decided by ascending dimension: a face
    whose facets were all kept is tested, by saturating its initial ideal
    under the basis of the first Gröbner cone that reached it at the sum of
    its rays; any other face is rejected untested. The ideal is taken to be
    monomial-free, as tropical_variety decides at entry (I contains a
    monomial exactly when I^h does), so the lineality face, the one face
    with no facets, whose initial ideal is the ideal itself, is kept
    untested.
    """
    walked = []
    seen = {}
    for gb, cone in fan_data:
        walked.extend((face, gb) for face in face_lattice(cone, seen))
    kept = {}
    for face, gb in sorted(walked, key=lambda t: t[0].dim):
        if all(k in kept for k in face.facets):
            inw = initial_ideal(gb, face.point)
            if not face.facets or is_monomial_free(inw):
                kept[face.key] = inw
    return [(face, kept[face.key]) for face, _ in walked if face.key in kept]


def _groebner_variety(spec: IdealSpec):
    """The exhaustive pipeline on the kept faces. A kept face lies in a
    larger kept one exactly when it is a facet of a kept face (every face
    between them is in the closed subfan), so the maximal cells are the kept
    faces no kept face lists among its facets. Only they are built."""
    kept = _kept_faces(groebner_fan(homogenize(spec)))
    covered = {k for face, _ in kept for k in face.facets}
    pairs = []
    for face, inw in kept:
        if face.key not in covered:
            sigma = face.build()
            mult = _multiplicity_from_initial(inw, sigma)
            pairs.append((slice_first_coordinate(sigma), mult))
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
            w = relative_interior_point(intersect(sigma, gamma))
            if not support_contains(variety.fan, w):
                return False
    return True


def _separating_rows(fan: Fan, other: Fan, v, side: int) -> list:
    """For each maximal cone of fan, the distinct bit masks over other's
    rays of its rows y (facet rows, and equation rows of either sign) with
    side * y.v < 0 that vanish on other's lineality. Bit k is set when
    y.r > 0 for ray k of other."""
    rays = other.rays.columns()
    lin = other.lineality.columns()
    out = []
    for cone in fan_cones(fan):
        eqs = cone.equations.entries
        masks = set()
        for y in cone.inequalities.entries + eqs + tuple(map(vec_neg, eqs)):
            if side * dot(y, v) < 0 and not any(dot(y, l) for l in lin):
                masks.add(sum(1 << k for k, r in enumerate(rays)
                              if dot(y, r) > 0))
        out.append(masks)
    return out


def _separated_pairs(fa: Fan, fb: Fan, v):
    """A test separated(i, j), true only when v lies outside
    cone_i(fa) - cone_j(fb), decided by rows alone.

    A row y of cone i, nonnegative on it, with y.v < 0, zero on fb's
    lineality and y.r <= 0 on every ray r of cone j is a Farkas certificate:
    y is nonnegative on cone_i - cone_j and negative on v. So is -z for a row
    z of cone j with z.v > 0, zero on fa's lineality and z.r <= 0 on every
    ray of cone i. Each such row is kept as the mask of the other fan's rays
    it is positive on, and certifies the pairs whose ray sets miss the mask.
    """
    rows_a = _separating_rows(fa, fb, v, 1)
    rows_b = _separating_rows(fb, fa, v, -1)
    bits_a = [sum(1 << k for k in idx) for idx in fa.maximal_cones]
    bits_b = [sum(1 << k for k in idx) for idx in fb.maximal_cones]

    def separated(i, j):
        return (any(not m & bits_b[j] for m in rows_a[i])
                or any(not m & bits_a[i] for m in rows_b[j]))

    return separated


def _solve_shift(ca: Cone, cb: Cone, v):
    """Split v as x - y with x in span ca and y in span cb, by one reduced
    integer echelon form of [E_a | 0; E_b | E_b v]: False when v lies
    outside span ca + span cb (a pivot in the last column); None when it
    lies inside but the rows are dependent, so the spans do not fill Q^n
    and v is not generic; else (x, s), with s > 0 the lcm of the pivots,
    E_a x = 0 and E_b (x - s v) = 0."""
    n = ca.ambient_dim
    rows = [list(e) + [0] for e in ca.equations.entries] \
        + [list(e) + [dot(e, v)] for e in cb.equations.entries]
    pivots = _row_echelon(rows, reduced=True)
    if pivots and pivots[-1] == n:
        return False
    if len(pivots) < len(rows):
        return None
    scale = lcm(*(rows[r][j] for r, j in enumerate(pivots)))
    x = [0] * n
    for r, j in enumerate(pivots):
        x[j] = rows[r][n] * (scale // rows[r][j])
    return x, scale


def _displacement_verdict(ca: Cone, cb: Cone, tau: Cone, v, split):
    """Does v lie in ca - cb? True or False, or None when it lies on the
    boundary (a wall), for a pair whose spans fill Q^n and whose
    intersection tau has the expected dimension; split is _solve_shift's.

    The split v = x - y is unique modulo span tau, and v lies in ca - cb
    exactly when x lies in ca + span tau and y in cb + span tau, which the
    inequalities vanishing at the sum p of tau's rays cut out.
    """
    x, scale = split
    y = [xi - scale * vi for xi, vi in zip(x, v)]
    p = relative_interior_point(tau)
    values = [dot(a, x) for a in ca.inequalities.entries if not dot(a, p)] \
        + [dot(b, y) for b in cb.inequalities.entries if not dot(b, p)]
    if any(s < 0 for s in values):
        return False
    return None if 0 in values else True


def stable_intersection(a: TropicalCycle, b: TropicalCycle,
                        seed: int = 0) -> TropicalCycle:
    """Fan displacement rule: keep pairs of maximal cones whose spans fill
    the ambient space and that still meet after a generic shift, weight them
    by lattice indices, and intersect. Both cycles must be pure.

    A pair meets after the shift by v when v lies in cone_a - cone_b. Most
    pairs that do not are rejected by a separating row (_separated_pairs).
    Every other pair is split by _solve_shift, once per draw, and one whose
    spans fill the space is intersected once, whatever the number of draws,
    by a pass that stops as soon as the piece falls below the dimension of
    the joint span: only a piece of the expected dimension carries weight.
    It is decided by the local sign test of _displacement_verdict. A shift
    in the joint span of a pair whose spans do not fill the space, or on a
    wall, is not generic: the next one is drawn. The pieces are handed over
    with their facets underived."""
    if a.convention != b.convention:
        raise ConventionMismatchError("cycles use different conventions")
    if a.ambient_dim != b.ambient_dim:
        raise DimMismatchError("cycles live in different ambient spaces")
    if not (a.pure and b.pure):
        raise NotPureError("stable intersection needs pure cycles")
    n = a.ambient_dim
    if a.fan.is_empty() or b.fan.is_empty():
        return weighted_from_cones(n, (), a.convention)
    cones_a, cones_b = fan_cones(a.fan), fan_cones(b.fan)
    expected_dim = cones_a[0].dim + cones_b[0].dim - n
    if expected_dim < 0:
        return weighted_from_cones(n, (), a.convention)
    rng = random.Random(seed)
    pieces = {}

    def meeting_pairs(v):
        """The pairs that meet after the shift by v, or None when v is not
        generic."""
        separated = _separated_pairs(a.fan, b.fan, v)
        out = []
        for i, ca in enumerate(cones_a):
            for j, cb in enumerate(cones_b):
                if separated(i, j):
                    continue
                split = _solve_shift(ca, cb, v)
                if split is None:
                    return None
                if split is False:
                    continue
                if (i, j) not in pieces:
                    pieces[i, j] = intersect(ca, cb, full=True)
                if pieces[i, j] is None:
                    continue  # a lower-dimensional meeting carries no weight
                verdict = _displacement_verdict(ca, cb, pieces[i, j], v, split)
                if verdict is None:
                    return None
                if verdict:
                    out.append((i, j))
        return out

    met = None
    for _ in range(32):
        cand = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n))
        if n and not any(cand):
            continue  # in R^0 the empty shift is generic: every span fills it
        met = meeting_pairs(cand)
        if met is not None:
            break
    if met is None:
        raise GenericityError("no generic displacement vector found")
    lattices = {}

    def span_lattice(cone):
        if cone not in lattices:
            lattices[cone] = Lattice(n, span_lattice_basis(cone))
        return lattices[cone]

    pairs = []
    for i, j in met:
        weight = a.multiplicities[i] * b.multiplicities[j] * lattice_index(
            span_lattice(cones_a[i]), span_lattice(cones_b[j]))
        pairs.append((pieces[i, j], weight))
    result = weighted_from_cones(n, pairs, a.convention, merge_duplicates=True)
    if any(c.dim != expected_dim for c in fan_cones(result.fan)):
        raise GenericityError("displacement produced cells of unexpected dimension")
    return result

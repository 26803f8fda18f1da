"""Tropical hypersurfaces, prevarieties, varieties, and stable intersection.

A hypersurface is the codimension-one skeleton of the normal fan of the
Newton polytope, read off the one double description pass that finds the
polytope's vertices and facets: the edges come from the vertex-facet
incidences, and each edge's normal cone from the facets containing it, so
no other pass and no linear program runs.

The variety of a principal ideal is its hypersurface. Any other ideal takes
the exhaustive pipeline: homogenize, enumerate the whole Gröbner fan, and
walk its face lattice by ray masks, building no face. The variety is a
closed subfan of the Gröbner fan, so faces are decided by ascending
dimension, and only a face whose facets are all kept is tested: it is kept
when its initial ideal stays monomial-free under saturation. The lineality
face, whose initial ideal is the whole ideal, is not tested again: the
entry test has decided it. The maximal kept faces, those that are no kept
face's facet, are the only ones built; slice the homogenizing coordinate
back out of each, and compute one multiplicity per maximal cell as the
degree of the saturated initial ideal in coordinates read off the cell's
memoized Smith witness. A tropical-basis check reads supports only: it
lifts each prevariety cone into homogenized coordinates with x0 = 0, cuts
it by every Gröbner cone, builds only the pieces of full dimension, and
looks up the key of the face of the Gröbner cone holding each piece's
interior point (face_key_at) among the keys of the kept faces, building no
face and no cell. Stable intersections of pure cycles use the fan
displacement rule, displaced along the moment curve v(t) = (t, t^2, ...,
t^n) as t -> 0+, with lattice-index weights: the sign of a row y on v(t) is
that of y's first nonzero entry, so nothing is drawn and no pair is left
undecided; pieces that several pairs meet are summed by key. A pair of
cones is rejected first by rows: bit masks over the other fan's rays give,
per cone row, the pairs it separates by a Farkas certificate. Every other
pair takes one elimination of its joint equation rows, with one right-hand
side per power of t, which skips it or splits the displacement between the
two spans and starts the piece's pass from a basis of their intersection.
The pass stops at the first dimension drop, and a piece of the expected
dimension is decided by the leading signs of a few integer vectors. No
linear program and no rank runs.
"""

from __future__ import annotations

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
    swap_convention,
    weighted_from_cones,
)
from .fans import (
    Cone,
    Fan,
    _cone_from_kernel,
    common_refinement,
    cone_from_incidence,
    cone_key,
    face_key_at,
    face_lattice,
    relative_interior_point,
    slice_first_coordinate,
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
    _echelon_kernel,
    _kernel_off_echelon,
    _row_echelon,
    _unit_smith,
    dot,
    integer_kernel_basis,
    lattice_index,
    vec_neg,
)
from .polynomials import (
    IdealSpec,
    Polynomial,
    check_convention,
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
    cycle = weighted_from_cones(n, pairs, "min")
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
    """Degree of the saturated initial ideal in the cell's residual
    coordinates: a generator's terms, which must pair alike with the cell's
    rays and lineality, differ by vectors of its equation lattice, which the
    first rows of that lattice's memoized Smith witness map onto Z^k. Shift
    each image off the coordinate hyperplanes, saturate, and count standard
    monomials; another basis would only substitute unimodularly."""
    spanning = sigma.rays.columns() + sigma.lineality.columns()
    coords = _unit_smith(sigma._equation_basis)[1]
    k = len(coords)
    residual_vars = tuple(f"z{i}" for i in range(k))
    gens = []
    for g in inw.generators:
        if g.is_zero():
            continue
        if len({tuple(dot(e, r) for r in spanning) for e in g.terms}) > 1:
            raise DimMismatchError(
                "cell is not a face of the initial ideal's Gröbner region")
        imgs = {tuple(dot(row, e) for row in coords): c
                for e, c in g.terms.items()}
        mins = [min(e[i] for e in imgs) for i in range(k)]
        shifted = {tuple(x - m for x, m in zip(e, mins)): c
                   for e, c in imgs.items()}
        gens.append(Polynomial._from_terms(residual_vars, shifted))
    if not gens:
        gens = [Polynomial.zero(residual_vars)]
    residual = IdealSpec(residual_vars, tuple(gens))
    if k:
        residual = saturate(residual, product_of_variables(residual_vars))
    return vector_space_dimension(residual)


def _validated(spec: IdealSpec) -> bool:
    """Refuse the zero ideal and the unit ideal, and tell whether the ideal
    is monomial-free. A monomial-free ideal is proper, so the unit ideal is
    looked for only when the ideal holds a monomial: an ideal with one
    nonzero generator is the unit ideal exactly when that generator is a
    constant, so only an ideal with several runs Buchberger for it."""
    gens = [g for g in spec.generators if not g.is_zero()]
    if not gens:
        raise ZeroIdealError("the zero ideal has no tropical variety")
    free = is_monomial_free(spec)
    if not free:
        if len(gens) == 1:
            unit = gens[0].total_degree() == 0
        else:
            unit = is_unit_basis(reduced_groebner_basis(spec, TermOrder()))
        if unit:
            raise UnitIdealError("the unit ideal has an empty variety")
    return free


def tropical_variety(spec: IdealSpec,
                     convention: str = "min") -> TropicalCycle:
    """The tropical variety of the torus part of V(spec), with multiplicities.

    A principal ideal takes the Newton polytope route, any other the
    exhaustive Gröbner fan pipeline, prime or not; a variety with components
    of different dimensions comes back as a cycle whose `pure` is false.
    """
    check_convention(convention)
    if not _validated(spec):
        return weighted_from_cones(len(spec.variables), (), convention)
    gens = [g for g in spec.generators if not g.is_zero()]
    if len(gens) == 1:
        return tropical_hypersurface(gens[0], convention)
    result = _groebner_variety(IdealSpec(spec.variables, tuple(gens)))
    return swap_convention(result) if convention == "max" else result


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


def _maximal_kept_faces(spec: IdealSpec):
    """The maximal cells of Trop(I^h), unsliced: (Face, initial ideal) pairs
    of the kept faces (_kept_faces) of the Gröbner fan of I^h. A kept face
    lies in a larger kept one exactly when it is a facet of a kept face
    (every face between them is in the closed subfan), so the maximal cells
    are the kept faces no kept face lists among its facets. None is built."""
    kept = _kept_faces(groebner_fan(homogenize(spec)))
    covered = {k for face, _ in kept for k in face.facets}
    return [(face, inw) for face, inw in kept if face.key not in covered]


def _groebner_variety(spec: IdealSpec):
    """The exhaustive pipeline: each maximal kept face is built, weighted
    by its multiplicity and sliced."""
    pairs = []
    for face, inw in _maximal_kept_faces(spec):
        sigma = face.build()
        mult = _multiplicity_from_initial(inw, sigma)
        pairs.append((slice_first_coordinate(sigma), mult))
    return weighted_from_cones(len(spec.variables), pairs, "min")


def is_tropical_basis(polys) -> bool:
    """Do the hypersurfaces of these polynomials cut out the tropical
    variety of the ideal they generate? The answer reads supports only: no
    multiplicity is computed.

    The prevariety always contains the variety, and equality is decided
    exactly in homogenized coordinates. Each maximal prevariety cone sigma,
    lifted with x0 = 0, is cut by every cone gamma of the Gröbner fan of
    I^h, and only the pieces of sigma's dimension are built: their pass
    starts from a kernel basis of sigma's equations and stops at the first
    dimension drop. Those pieces cover sigma, since the lower-dimensional
    ones lie in their closures. A piece's relative interior lies in the
    relative interior of one face of gamma, on which membership in the
    closed subfan Trop(I^h) is constant, so a piece is decided by the key of
    that face, read at one relative interior point (face_key_at) and looked
    up among the keys of the kept faces (_kept_faces): no face and no cell
    is built, and no point is tested against a cone. One polynomial needs
    no fan, no prevariety and no hypersurface: its hypersurface is the
    variety of the ideal it generates, and it is empty exactly when that
    ideal holds a monomial, which _validated decides.
    """
    if not polys:
        raise ZeroIdealError("empty generating set")
    variables = polys[0].variables
    spec = IdealSpec(variables, tuple(polys))
    free = _validated(spec)
    if len(polys) == 1:
        if not free:
            raise MonomialHypersurfaceError(
                "a monomial has an empty tropical hypersurface")
        return True
    prevariety = tropical_prevariety(polys)
    if not free:
        return prevariety.is_empty()
    kept = {face.key
            for face, _ in _kept_faces(groebner_fan(homogenize(spec)))}
    gammas = [gamma for _, gamma in groebner_fan(homogenize(spec))]
    n = len(variables) + 1
    for sigma in prevariety.cones:
        rows = tuple((0,) + a for a in sigma.inequalities.entries)
        kernel = [(0,) + k for k in _echelon_kernel(sigma.equations)]
        for gamma in gammas:
            piece = _cone_from_kernel(rows + gamma.inequalities.entries,
                                      kernel, n, full=True)
            if piece is None:
                continue  # a lower-dimensional piece lies in a full one
            w = relative_interior_point(piece)
            if face_key_at(gamma, w) not in kept:
                return False
    return True


def _lead(values) -> int:
    """The sign of sum_k t^(k+1) values[k] as t -> 0+: that of the first
    nonzero value, or 0. The values may be a lazy iterable."""
    for c in values:
        if c:
            return 1 if c > 0 else -1
    return 0


def _separating_rows(fan: Fan, other: Fan, side: int) -> list:
    """For each maximal cone of fan, the distinct bit masks over other's
    rays of its rows y (facet rows, and equation rows of either sign) with
    side * y.v(t) < 0 that vanish on other's lineality. Bit k is set when
    y.r > 0 for ray k of other."""
    rays = other.rays.columns()
    lin = other.lineality.columns()
    out = []
    for cone in fan.cones:
        eqs = cone.equations.entries
        masks = set()
        for y in cone.inequalities.entries + eqs + tuple(map(vec_neg, eqs)):
            if side * _lead(y) < 0 and not any(dot(y, l) for l in lin):
                masks.add(sum(1 << k for k, r in enumerate(rays)
                              if dot(y, r) > 0))
        out.append(masks)
    return out


def _separated_pairs(fa: Fan, fb: Fan):
    """A test separated(i, j), true only when v(t) lies outside
    cone_i(fa) - cone_j(fb) for small t, decided by rows alone.

    A row y of cone i, nonnegative on it, with y.v(t) < 0, zero on fb's
    lineality and y.r <= 0 on every ray r of cone j is a Farkas certificate:
    y is nonnegative on cone_i - cone_j and negative on v(t). So is -z for a
    row z of cone j with z.v(t) > 0, zero on fa's lineality and z.r <= 0 on
    every ray of cone i. Each such row is kept as the mask of the other fan's
    rays it is positive on, and certifies the pairs whose ray sets miss the
    mask.
    """
    rows_a = _separating_rows(fa, fb, 1)
    rows_b = _separating_rows(fb, fa, -1)
    bits_a = [sum(1 << k for k in idx) for idx in fa.maximal_cones]
    bits_b = [sum(1 << k for k in idx) for idx in fb.maximal_cones]

    def separated(i, j):
        return (any(not m & bits_b[j] for m in rows_a[i])
                or any(not m & bits_a[i] for m in rows_b[j]))

    return separated


def _solve_shift(ca: Cone, cb: Cone):
    """Split v(t) as x(t) - y(t) with x(t) in span ca and y(t) in span cb,
    by one reduced integer echelon form of [E_a | 0; E_b | E_b], whose n
    right-hand sides split the unit vectors e_1, ..., e_n at once.

    False when the spans do not fill Q^n: the equation bases are
    independent, so a dependency among the rows leaves a zero left-hand row
    with a nonzero right-hand side, and v(t) leaves span ca + span cb. Else
    (kernel, (xs, s)). The left-hand block has the pivots of an echelon form
    of [E_a; E_b] alone, and positive multiples of its rows, so kernel is
    what _echelon_kernel gives for the joint rows. s > 0 is the lcm of the
    pivots, xs[k] lies in span ca and xs[k] - s e_(k+1) in span cb, and
    s x(t) = sum_k t^(k+1) xs[k]."""
    n = ca.ambient_dim
    rows = [list(e) + [0] * n for e in ca.equations.entries] \
        + [list(e) * 2 for e in cb.equations.entries]
    pivots = _row_echelon(rows, reduced=True)
    if pivots and pivots[-1] >= n:
        return False
    scale = lcm(*(rows[r][j] for r, j in enumerate(pivots)))
    x = [[0] * n for _ in range(n)]
    for r, j in enumerate(pivots):
        x[j] = [c * (scale // rows[r][j]) for c in rows[r][n:]]
    return _kernel_off_echelon(rows, pivots, n), (list(zip(*x)), scale)


def _displacement_verdict(ca: Cone, cb: Cone, tau: Cone, split) -> bool:
    """Does v(t) lie in ca - cb for small t > 0? For a pair whose spans fill
    Q^n and whose intersection tau has the expected dimension; split is
    the (xs, s) of _solve_shift.

    The split v(t) = x(t) - y(t) is unique modulo span tau, and v(t) lies in
    ca - cb exactly when x(t) lies in ca + span tau and y(t) in cb + span
    tau, which the inequalities vanishing at the sum p of tau's rays cut
    out. For such a row a of ca, s a.x(t) has the coefficients a.xs[k], read
    by _lead; likewise b.(xs[k] - s e_(k+1)) for a row b of cb. Those
    coefficients never all vanish: a vanishes on span tau but not on span
    ca, and the xs with span tau span span ca. So no v(t) lies on a wall.
    """
    xs, scale = split
    p = relative_interior_point(tau)
    return all(_lead(dot(a, x) for x in xs) > 0
               for a in ca.inequalities.entries if not dot(a, p)) \
        and all(_lead(dot(b, x) - scale * bk for x, bk in zip(xs, b)) > 0
                for b in cb.inequalities.entries if not dot(b, p))


def stable_intersection(a: TropicalCycle, b: TropicalCycle) -> TropicalCycle:
    """Fan displacement rule: keep pairs of maximal cones whose spans fill
    the ambient space and that still meet after a generic shift, weight them
    by lattice indices, and intersect. Both cycles must be pure.

    The shift is symbolic: the moment curve v(t) = (t, t^2, ..., t^n) as
    t -> 0+, whose sign on a row y is that of y's first nonzero entry (the
    simulation of simplicity of Edelsbrunner and Mücke). It leaves every
    proper subspace and every wall, so one pass decides each pair and
    nothing is drawn. A pair meets after the shift when v(t) lies in
    cone_a - cone_b. Most pairs that do not are rejected by a separating row
    (_separated_pairs). Every other pair is split by _solve_shift, which
    skips it when the spans do not fill the space. Otherwise the kernel it
    read off its elimination starts the piece's pass (_cone_from_kernel),
    which stops as soon as the piece falls below the dimension of the joint
    span, since only a piece of the expected dimension carries weight, and
    the pair is decided by the sign test of _displacement_verdict. The
    pieces are handed over with their facets underived."""
    if a.convention != b.convention:
        raise ConventionMismatchError("cycles use different conventions")
    if a.ambient_dim != b.ambient_dim:
        raise DimMismatchError("cycles live in different ambient spaces")
    if not (a.pure and b.pure):
        raise NotPureError("stable intersection needs pure cycles")
    n = a.ambient_dim
    if a.fan.is_empty() or b.fan.is_empty():
        return weighted_from_cones(n, (), a.convention)
    cones_a, cones_b = a.fan.cones, b.fan.cones
    expected_dim = cones_a[0].dim + cones_b[0].dim - n
    if expected_dim < 0:
        return weighted_from_cones(n, (), a.convention)
    separated = _separated_pairs(a.fan, b.fan)
    cells = {}
    for i, ca in enumerate(cones_a):
        for j, cb in enumerate(cones_b):
            if separated(i, j):
                continue
            shift = _solve_shift(ca, cb)
            if shift is False:
                continue
            kernel, split = shift
            rows = ca.inequalities.entries + cb.inequalities.entries
            tau = _cone_from_kernel(rows, kernel, n, full=True)
            if tau is None:
                continue  # a lower-dimensional meeting carries no weight
            if _displacement_verdict(ca, cb, tau, split):
                weight = a.multiplicities[i] * b.multiplicities[j] \
                    * lattice_index(ca.span_lattice, cb.span_lattice)
                tau, total = cells.get(cone_key(tau), (tau, 0))
                cells[cone_key(tau)] = (tau, total + weight)
    result = weighted_from_cones(n, cells.values(), a.convention)
    if any(c.dim != expected_dim for c in result.fan.cones):
        raise GenericityError("displacement produced cells of unexpected dimension")
    return result

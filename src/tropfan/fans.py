"""Rational polyhedral cones and fans.

Cones carry both descriptions: extreme rays plus a lineality basis, and facet
inequalities plus equations. A cone built from halfspaces or from generators
gets the other description from an exact double description pass in each
direction; its faces come by incidence, from which rays each facet inequality
is tight on, with no further pass. Every stored field is canonical so that
structural equality is cone equality, and the (rays, lineality) key alone
tells cones apart. facets_by_key gives each facet's key from the incidences
and builds the facet only on demand, so the Gröbner walk, the face walks and
balancing build no facet they discard. Intersections are keyed the same way:
intersection_by_key runs the primal pass alone, which fixes the key and the
dimension, and builds the cone on demand, so callers skip the dual pass for
pieces they discard or have built already. Fans share one ray matrix and one
lineality space; maximal cones are index sets into the shared rays, and a fan
keeps the canonical cones it was assembled from, so none is built again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import BadCodimError, DimMismatchError
from .linalg import (
    IntMatrix,
    dot,
    integer_kernel_basis,
    primitive_vector,
    quotient_reps,
    rational_rank,
    saturate_lattice,
    vec_neg,
)


def _dd(ineq_rows, eq_rows, n):
    """Double description: minimal V-representation of
    {x : E x = 0, A x >= 0}.

    Returns (rays, lineality_vectors); the rays are primitive and extreme
    modulo the lineality space. Inequalities are inserted incrementally; ray
    adjacency is decided by an exact rank test over the constraints processed
    so far.
    """
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


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone with canonical dual descriptions.

    rays and lineality hold generator columns; inequalities (rows a with
    a.x >= 0) and equations (rows with a.x = 0) cut out the same set.
    """

    ambient_dim: int
    rays: IntMatrix
    lineality: IntMatrix
    inequalities: IntMatrix
    equations: IntMatrix
    dim: int

    def contains(self, point) -> bool:
        if len(point) != self.ambient_dim:
            raise DimMismatchError("point dimension mismatch")
        return (all(dot(r, point) == 0 for r in self.equations.entries)
                and all(dot(r, point) >= 0 for r in self.inequalities.entries))

    def relint_contains(self, point) -> bool:
        if len(point) != self.ambient_dim:
            raise DimMismatchError("point dimension mismatch")
        return (all(dot(r, point) == 0 for r in self.equations.entries)
                and all(dot(r, point) > 0 for r in self.inequalities.entries))

    def generators(self):
        """Ray columns followed by lineality basis columns."""
        return self.rays.columns(), self.lineality.columns()

    def contains_cone(self, other: "Cone") -> bool:
        rays, lin = other.generators()
        for r in rays:
            if not self.contains(r):
                return False
        for l in lin:
            if not (self.contains(l) and self.contains(vec_neg(l))):
                return False
        return True


def _v_description(ray_vecs, lin_vecs, n):
    """The canonical rays (modulo the saturated lineality), the lineality and
    the dimension of cone(rays) + span(lineality)."""
    lineality = saturate_lattice(
        IntMatrix.from_columns([tuple(v) for v in lin_vecs], n))
    rays = sorted(quotient_reps(ray_vecs, lineality))
    dim = rational_rank(list(rays) + [list(c) for c in lineality.columns()]) \
        if (rays or lineality.ncols) else 0
    return IntMatrix.from_columns(rays, n), lineality, dim


def _assemble(rays, lineality, dim, ineq_vecs, eq_vecs, n) -> Cone:
    eq_basis = saturate_lattice(
        IntMatrix.from_columns([tuple(v) for v in eq_vecs], n))
    ineqs = sorted(quotient_reps(ineq_vecs, eq_basis))
    return Cone(
        ambient_dim=n,
        rays=rays,
        lineality=lineality,
        inequalities=IntMatrix.from_rows(ineqs, n),
        equations=eq_basis.transpose(),
        dim=dim,
    )


def halfspaces_by_key(ineq_rows, eq_rows, ambient_dim: int):
    """(key, dim, build) for the cone {x : eq_rows . x = 0, ineq_rows . x >= 0}.

    One double description pass gives the canonical rays and lineality, so
    the cone_key and the dimension; build() adds the dual pass for the facets
    and equations and returns the canonical cone. A caller that discards the
    cone by its key or dimension skips the dual pass.
    """
    n = ambient_dim
    ray_vecs, lin_vecs = _dd(list(ineq_rows), list(eq_rows), n)
    rays, lineality, dim = _v_description(ray_vecs, lin_vecs, n)

    def build():
        # the dual pass gives the irredundant facets and the full equations
        facet_vecs, eq_basis = _dd([tuple(r) for r in ray_vecs],
                                   [tuple(l) for l in lin_vecs], n)
        return _assemble(rays, lineality, dim, facet_vecs, eq_basis, n)

    return (rays.entries, lineality.entries), dim, build


def cone_from_halfspaces(ineq_rows, eq_rows, ambient_dim: int) -> Cone:
    """Build the canonical cone {x : eq_rows . x = 0, ineq_rows . x >= 0}."""
    return halfspaces_by_key(ineq_rows, eq_rows, ambient_dim)[2]()


def cone_from_generators(ray_cols, lineality_cols, ambient_dim: int) -> Cone:
    """Build the canonical cone cone(rays) + span(lineality)."""
    n = ambient_dim
    facet_vecs, eq_basis = _dd([tuple(r) for r in ray_cols],
                               [tuple(l) for l in lineality_cols], n)
    ray_vecs, lin_vecs = _dd([tuple(r) for r in facet_vecs],
                             [tuple(e) for e in eq_basis], n)
    return _assemble(*_v_description(ray_vecs, lin_vecs, n),
                     facet_vecs, eq_basis, n)


def intersection_by_key(c1: Cone, c2: Cone):
    """(key, dim, build) of the intersection of two cones, as
    halfspaces_by_key gives them."""
    if c1.ambient_dim != c2.ambient_dim:
        raise DimMismatchError("cones live in different ambient spaces")
    return halfspaces_by_key(
        list(c1.inequalities.entries) + list(c2.inequalities.entries),
        list(c1.equations.entries) + list(c2.equations.entries),
        c1.ambient_dim)


def intersect(c1: Cone, c2: Cone) -> Cone:
    return intersection_by_key(c1, c2)[2]()


def negate_cone(c: Cone) -> Cone:
    return cone_from_generators([vec_neg(r) for r in c.rays.columns()],
                                c.lineality.columns(), c.ambient_dim)


def facets_by_key(c: Cone):
    """Triples (key, inward_normal, build) for every facet of the cone, one
    per inequality a, in order.

    A facet of a canonical cone is fixed by its ray-facet incidences, so its
    key costs no lattice work: the rays tight on a (still canonical and
    sorted, since the lineality is unchanged) and the cone's lineality, in
    the cone_key form. build() derives the whole canonical facet, with no
    double description: a joins the equations, and its own facets are the
    ridges, the inequalities b whose rays tight on both a and b span, with
    the lineality, a space of dimension dim - 2.
    """
    n = c.ambient_dim
    rays = c.rays.columns()
    lin = c.lineality.columns()
    ineqs = c.inequalities.entries
    tight = [tuple(j for j, r in enumerate(rays) if dot(a, r) == 0)
             for a in ineqs]
    rank_of = {}

    def is_ridge(on_both):
        if on_both not in rank_of:
            rank_of[on_both] = rational_rank([rays[j] for j in on_both] + lin)
        return rank_of[on_both] == c.dim - 2

    def build(i, facet_rays):
        on_a = set(tight[i])
        ridges = [b for k, b in enumerate(ineqs) if k != i
                  and is_ridge(tuple(j for j in tight[k] if j in on_a))]
        eq_basis = saturate_lattice(
            IntMatrix.from_columns(list(c.equations.entries) + [ineqs[i]], n))
        return Cone(
            ambient_dim=n,
            rays=facet_rays,
            lineality=c.lineality,
            inequalities=IntMatrix.from_rows(
                sorted(set(quotient_reps(ridges, eq_basis))), n),
            equations=eq_basis.transpose(),
            dim=c.dim - 1,
        )

    out = []
    for i, a in enumerate(ineqs):
        facet_rays = IntMatrix.from_columns([rays[j] for j in tight[i]], n)
        out.append(((facet_rays.entries, c.lineality.entries), a,
                    partial(build, i, facet_rays)))
    return out


def facets_with_normals(c: Cone):
    """Pairs (facet, inward_normal) for every facet of the cone."""
    return [(build(), a) for _, a, build in facets_by_key(c)]


def faces(c: Cone, codim: int) -> list:
    """All faces of the given codimension, canonically deduplicated."""
    if codim < 0 or codim > c.dim:
        raise BadCodimError(f"codimension {codim} out of range for a "
                            f"{c.dim}-dimensional cone")
    return [f for f in all_faces(c) if f.dim == c.dim - codim]


def all_faces(c: Cone, seen=None) -> list:
    """Every face of the cone, all codimensions, deduplicated and sorted.

    A `seen` map (face key -> face) shared across calls walks the face
    lattices of many cones once: a face already in it, and with it all of its
    faces, is neither derived again nor returned. Each facet's key is looked
    up before the facet is built, so a face is built once however many faces
    cover it.
    """
    if seen is None:
        seen = {}
    key = cone_key(c)
    if key in seen:
        return []
    seen[key] = c
    new = [c]
    frontier = [c]
    while frontier:
        nxt = []
        for cone in frontier:
            for k, _, build in facets_by_key(cone):
                if k not in seen:
                    seen[k] = f = build()
                    nxt.append(f)
        new.extend(nxt)
        frontier = nxt
    return sorted(new, key=cone_key)


def cone_key(c: Cone):
    """The canonical (rays, lineality) entries: equal keys, equal cones."""
    return (c.rays.entries, c.lineality.entries)


def relative_interior_point(c: Cone):
    """The sum of the ray columns; the zero vector for a rayless cone."""
    return tuple(sum(row) for row in c.rays.entries)


@dataclass(frozen=True)
class Fan:
    """A fan as shared primitive ray columns, one lineality space, and
    maximal cones given as tuples of ray indices.

    cones holds the canonical maximal cones themselves, in maximal_cones
    order, as fan_from_cones received them. They are fixed by the other
    fields, so they take no part in equality or hashing.
    """

    ambient_dim: int
    rays: IntMatrix
    lineality: IntMatrix
    maximal_cones: tuple
    cones: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.cones) != len(self.maximal_cones):
            raise ValueError("a fan keeps one cone per maximal cone")

    def n_maximal(self) -> int:
        return len(self.maximal_cones)

    def is_empty(self) -> bool:
        return not self.maximal_cones


@lru_cache(maxsize=8192)
def fan_cone(fan: Fan, index: int) -> Cone:
    """The maximal cone with the given index, as the fan keeps it.

    Fans keep their cones, so the cache saves no work. It stays because the
    benchmark's tracer (perfbench/tracer.py) reports fan_cone.cache_info().
    """
    return fan.cones[index]


def fan_cones(fan: Fan) -> list:
    return list(fan.cones)


def fan_from_cones(ambient_dim: int, cones, drop_contained: bool = True):
    """Assemble a fan from cones sharing one lineality space.

    Returns (fan, kept_cone_indices) where the indices point into the input
    list (after deduplication, in input order) so callers can carry per-cone
    data such as multiplicities through the canonicalization. The fan keeps
    the kept cones themselves.
    """
    uniq = []
    keys = {}
    for i, c in enumerate(cones):
        if c.ambient_dim != ambient_dim:
            raise DimMismatchError("cone ambient dimension mismatch")
        k = cone_key(c)
        if k not in keys:
            keys[k] = len(uniq)
            uniq.append((c, i))
    kept = []
    for j, (c, src) in enumerate(uniq):
        contained = False
        if drop_contained:
            for j2, (c2, _) in enumerate(uniq):
                if j2 != j and c2.contains_cone(c) and not c.contains_cone(c2):
                    contained = True
                    break
        if not contained:
            kept.append((c, src))
    if not kept:
        empty = IntMatrix.from_columns([], ambient_dim)
        return Fan(ambient_dim, empty, empty, ()), []
    lin = kept[0][0].lineality
    for c, _ in kept:
        if c.lineality.entries != lin.entries:
            raise DimMismatchError("cones do not share a lineality space")
    ray_set = {}
    for c, _ in kept:
        for r in c.rays.columns():
            ray_set[r] = True
    rays = sorted(ray_set)
    ray_index = {r: i for i, r in enumerate(rays)}
    entries = []
    for c, src in kept:
        idx = tuple(sorted(ray_index[r] for r in c.rays.columns()))
        entries.append((idx, src, c))
    entries.sort(key=lambda t: t[0])
    fan = Fan(ambient_dim,
              IntMatrix.from_columns(rays, ambient_dim),
              lin,
              tuple(idx for idx, _, _ in entries),
              tuple(c for _, _, c in entries))
    return fan, [src for _, src, _ in entries]


def common_refinement(f1: Fan, f2: Fan) -> Fan:
    """The fan of inclusion-maximal pairwise intersections. Each distinct
    intersection is built once, however many pairs of cones meet in it."""
    if f1.ambient_dim != f2.ambient_dim:
        raise DimMismatchError("fans live in different ambient spaces")
    pieces = {}
    for c1 in fan_cones(f1):
        for c2 in fan_cones(f2):
            key, _, build = intersection_by_key(c1, c2)
            if key not in pieces:
                pieces[key] = build()
    fan, _ = fan_from_cones(f1.ambient_dim, list(pieces.values()),
                            drop_contained=True)
    return fan


def support_contains(fan: Fan, point) -> bool:
    """Exact test: does the point lie in some cone of the fan?"""
    if len(point) != fan.ambient_dim:
        raise DimMismatchError("point dimension mismatch")
    return any(c.contains(point) for c in fan_cones(fan))


def fan_dim(fan: Fan) -> int:
    if fan.is_empty():
        return -1
    return max(c.dim for c in fan_cones(fan))


def is_pure(fan: Fan) -> bool:
    if fan.is_empty():
        return True
    dims = {c.dim for c in fan_cones(fan)}
    return len(dims) == 1


def slice_first_coordinate(c: Cone) -> Cone:
    """Intersect with {x0 = 0} and drop coordinate 0."""
    ineqs = [r[1:] for r in c.inequalities.entries]
    eqs = [r[1:] for r in c.equations.entries]
    return cone_from_halfspaces(ineqs, eqs, c.ambient_dim - 1)


def validate_fan(fan: Fan) -> bool:
    """Desk-scale fan axiom check: pairwise intersections are faces."""
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

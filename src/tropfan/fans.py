"""Rational polyhedral cones and fans.

A cone is fixed by its canonical V-description: extreme rays plus a
lineality basis, and its dimension. Its H-description, facet inequalities
plus equations, is derived on first read and cached, so a cone that no
caller asks for facets costs no lattice work beyond its rays. The equations
are the canonical basis of the integer kernel of the generators (a kernel is
saturated, so it needs no saturation), and the inequalities are the facet
rows that built the cone, reduced modulo the equations. Every field is
canonical, so equality, hashing and the (rays, lineality) key all use the
V-description alone.

A cone built from halfspaces or from generators takes one exact double
description pass, started from a rational basis of the equations' kernel
read off one reduced integer echelon form, which tracks for every output
ray the input rows it is tight on. The facets (from halfspaces) or the
extreme rays (from generators) are the input rows whose incidence sets are
proper and maximal, and the remaining space, lineality or equations, is an
integer kernel; no second pass runs. A caller that knows a cone's rays,
lineality and their incidences with rows cutting it out, as a pass leaves
them, builds it with no pass (cone_from_incidence): a hypersurface's edge
cones come so from the pass over its Newton polytope. A stable
intersection keeps a piece only when it is full-dimensional in the kernel
of the pair's joint equations, which its own elimination reads; it hands
that kernel to _cone_from_kernel, whose pass then stops, and returns None,
at the first row that drops the dimension, and a cone that reaches the end
has the kernel's dimension, with no rank computed.

A cone's faces come by incidence, from the tight-ray masks it caches (the
rays each inequality is tight on). face_lattice is the one walk of a face
lattice: a face is the bit mask of the cone's rays it contains, its facets
are the maximal proper sets among that mask and the tight-ray masks, and its
key is read off the mask, so the walk builds nothing; faces and all_faces
build what it meets, facets_by_key gives one level of it, and face_key_at
keys the face whose relative interior holds a point, the meet of the masks
of the inequalities tight on it. A face is built from its rays with no
double description, and its inequalities are the rows of the cone cutting
out its facets.
Fans share one ray matrix and one lineality space; maximal cones are index
sets into the shared rays. fan_from_cones takes the cones it is given as the
maximal ones, once each by key, and keeps them, in maximal_cones order, as
the fan's attribute cones, so none is built again; common_refinement keeps
a piece only when no larger piece's face lattice has met its key.
Cone, Face and Fan are named tuples: a value also equals the plain tuple of
its fields and iterates over them, which no code relies on. A Cone or a Fan
keeps state beyond its fields, so namedtuple's _make and _replace, which
would drop it, are refused.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache, partial

from .errors import BadCodimError, DimMismatchError
from .linalg import (
    IntMatrix,
    _echelon_kernel,
    dot,
    integer_kernel_basis,
    primitive_vector,
    quotient_reps,
    rational_rank,
    saturate_lattice,
    vec_neg,
)


def _dd(ineq_rows, lin, full=False):
    """Double description: minimal V-representation of
    {x in span(lin) : A x >= 0}, with its incidences.

    lin is a basis over Q of the kernel of the equations, not canonical. The
    result is (rays, lineality_vectors, masks): the rays are primitive and
    extreme modulo the lineality space, and bit j of masks[i] is set when
    rays[i] is tight on ineq_rows[j]. Inequalities are inserted
    incrementally, and each ray carries the mask of the rows inserted so far
    that it is tight on. Two rays are adjacent when no third ray is tight on
    every row both are tight on (the combinatorial test of Fukuda and Prodon,
    "Double description method revisited", 1996), so no rank is computed.

    The dimension drops at a row a, zero on the current lineality, that is
    <= 0 on every current ray and < 0 on one: the cone then lies in the
    hyperplane a.x = 0 and the cone before it did not. With full, the pass
    returns None there, so it finishes only on a cone of dimension len(lin).
    """
    rays = []
    masks = []
    done = 0
    for j, a in enumerate(ineq_rows):
        bit = 1 << j
        k = next((i for i, l in enumerate(lin) if dot(a, l) != 0), None)
        if k is not None:
            # the lineality leaves the hyperplane: a pivot direction becomes
            # a ray, tight on every row before a, and the rest is projected
            # into the hyperplane
            pivot = lin[k]
            d0 = dot(a, pivot)
            if d0 < 0:
                pivot, d0 = vec_neg(pivot), -d0

            def project(v):
                s = dot(a, v)
                return v if s == 0 else primitive_vector(
                    tuple(d0 * x - s * y for x, y in zip(v, pivot)))

            lin = [project(l) for l in lin[:k] + lin[k + 1:]]
            rays = [project(r) for r in rays]
            masks = [m | bit for m in masks]
            rays.append(pivot)
            masks.append(done)
        else:
            dots = [dot(a, r) for r in rays]
            pos = [i for i, s in enumerate(dots) if s > 0]
            neg = [i for i, s in enumerate(dots) if s < 0]
            if full and neg and not pos:
                return None
            new_rays = [r for r, s in zip(rays, dots) if s >= 0]
            new_masks = [m | bit if s == 0 else m
                         for m, s in zip(masks, dots) if s >= 0]
            for p in pos:
                for q in neg:
                    common = masks[p] & masks[q]
                    if any(m & common == common for i, m in enumerate(masks)
                           if i != p and i != q):
                        continue
                    new_rays.append(primitive_vector(tuple(
                        dots[p] * x - dots[q] * y
                        for x, y in zip(rays[q], rays[p]))))
                    new_masks.append(common | bit)
            rays, masks = new_rays, new_masks
        done |= bit
    return rays, lin, masks


def _maximal_proper(rows, masks):
    """The rows inserted by a double description pass whose incidence sets
    {i : bit j of masks[i]} (row j) are proper and maximal under inclusion.

    For the rays and masks of a cone's pass these are the input inequalities
    that define its facets; for the facets and masks of the dual pass, the
    input generators that are extreme rays. Equal sets are all kept: they
    name the same face.
    """
    full = (1 << len(masks)) - 1
    sets = [sum(1 << i for i, m in enumerate(masks) if m >> j & 1)
            for j in range(len(rows))]
    proper = {s for s in sets if s != full}
    top = {s for s in proper if not any(t != s and t & s == s for t in proper)}
    return [r for r, s in zip(rows, sets) if s in top]


class Cone(namedtuple("Cone", "ambient_dim rays lineality dim")):
    """A rational polyhedral cone, fixed by its canonical V-description.

    rays and lineality hold generator columns; with ambient_dim and dim they
    are the fields, which alone decide equality, hashing and the repr.
    inequalities (rows a with a.x >= 0) and equations (rows with a.x = 0)
    cut out the same set; they are derived on first read and cached, as are
    span_lattice, the saturated lattice of the cone's span, and tight_masks,
    the rays each inequality is tight on. The attribute facet_rows() gives
    rows, from the construction, that cut out the facets modulo the
    equations.
    """

    def __new__(cls, ambient_dim, rays, lineality, dim, facet_rows):
        self = super().__new__(cls, ambient_dim, rays, lineality, dim)
        self.facet_rows = facet_rows
        return self

    @classmethod
    def _make(cls, iterable):
        """Refused, and with it _replace: the facet rows are not fields."""
        raise TypeError("a Cone is built by a constructor, not from its "
                        "fields alone")

    def __getnewargs__(self):
        """For copy and pickle, which then restore the cached attributes."""
        return (*self, self.facet_rows)

    @cached_property
    def _equation_basis(self) -> IntMatrix:
        """The canonical basis (columns) of the integer kernel of the
        generators: saturated already. A full-dimensional cone has none,
        with no elimination."""
        if self.dim == self.ambient_dim:
            return IntMatrix.from_columns([], self.ambient_dim)
        gens = self.rays.columns() + self.lineality.columns()
        return integer_kernel_basis(
            IntMatrix(len(gens), self.ambient_dim, tuple(gens)))

    @cached_property
    def equations(self) -> IntMatrix:
        return self._equation_basis.transpose()

    @cached_property
    def span_lattice(self) -> IntMatrix:
        """Canonical basis (columns) of span(cone) intersected with Z^n."""
        return integer_kernel_basis(self.equations)

    @cached_property
    def inequalities(self) -> IntMatrix:
        rows = sorted(set(quotient_reps(self.facet_rows(),
                                        self._equation_basis)))
        return IntMatrix(len(rows), self.ambient_dim, tuple(rows))

    @cached_property
    def tight_masks(self) -> tuple:
        """For each inequality, the bit mask of the rays (bit j for ray
        column j) that it is tight on."""
        rays = self.rays.columns()
        return tuple(sum(1 << j for j, r in enumerate(rays) if dot(a, r) == 0)
                     for a in self.inequalities.entries)

    def contains(self, point) -> bool:
        if len(point) != self.ambient_dim:
            raise DimMismatchError("point dimension mismatch")
        return (all(dot(r, point) == 0 for r in self.equations.entries)
                and all(dot(r, point) >= 0 for r in self.inequalities.entries))

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


def _v_description(ray_vecs, lineality: IntMatrix, n, dim=None):
    """The canonical rays (modulo the lineality, given by its canonical
    basis), the lineality and the dimension of cone(rays) + span(lineality);
    a known dimension is taken as it is."""
    rays = sorted(set(quotient_reps(ray_vecs, lineality)))
    if dim is None:
        dim = rational_rank(list(rays) + [list(c) for c in lineality.columns()]) \
            if (rays or lineality.ncols) else 0
    return IntMatrix.from_columns(rays, n), lineality, dim


def cone_from_halfspaces(ineq_rows, eq_rows, ambient_dim: int) -> Cone:
    """The canonical cone {x : eq_rows . x = 0, ineq_rows . x >= 0}: the
    pass of _cone_from_kernel, from _echelon_kernel of eq_rows."""
    kernel = _echelon_kernel(IntMatrix.from_rows(list(eq_rows), ambient_dim))
    return _cone_from_kernel(list(ineq_rows), kernel, ambient_dim)


def _cone_from_kernel(ineq_rows, kernel, ambient_dim: int, full=False):
    """The canonical cone {x in span(kernel) : ineq_rows . x >= 0}, kernel a
    basis over Q of the subspace, by one double description pass; the
    facets, read on first use, are the inequalities whose sets of tight rays
    are proper and maximal. With full, the pass returns None at the first
    dimension drop, and a finished cone has dimension len(kernel); otherwise
    the dimension is a rank."""
    passed = _dd(ineq_rows, kernel, full=full)
    if passed is None:
        return None
    ray_vecs, lin_vecs, masks = passed
    lineality = saturate_lattice(IntMatrix.from_columns(lin_vecs, ambient_dim))
    return cone_from_incidence(ray_vecs, lineality, ineq_rows, masks,
                               len(kernel) if full else None)


def cone_from_incidence(ray_vecs, lineality: IntMatrix, rows, masks,
                        dim=None) -> Cone:
    """The canonical cone(ray_vecs) + span(lineality), given the canonical
    lineality basis and, as a double description pass leaves them, the
    rays' incidences with rows that cut out the cone: bit j of masks[i] is
    set when ray i is tight on rows[j]. No pass runs. The facets, read on
    first use, are the rows whose sets of tight rays are proper and
    maximal; a known dimension is taken as it is."""
    n = lineality.nrows
    return Cone(n, *_v_description(ray_vecs, lineality, n, dim),
                facet_rows=partial(_maximal_proper, rows, masks))


def cone_from_generators(ray_cols, lineality_cols, ambient_dim: int) -> Cone:
    """Build the canonical cone cone(rays) + span(lineality).

    One double description pass of the dual gives the facets and the
    equations, and the generator-facet incidences. The extreme rays are the
    generators whose sets of tight facets are proper and maximal, and the
    lineality is the canonical basis of the integer kernel of the facets and
    the equations, which is saturated already. The equations found are a
    basis over Q, so the dimension is n less their number. The facets found
    are the cone's facet rows.
    """
    n = ambient_dim
    gens = [tuple(r) for r in ray_cols]
    facet_vecs, eq_vecs, masks = _dd(
        gens, _echelon_kernel(IntMatrix.from_rows(list(lineality_cols), n)))
    lineality = integer_kernel_basis(
        IntMatrix.from_rows(facet_vecs + eq_vecs, n))
    return Cone(n, *_v_description(_maximal_proper(gens, masks), lineality, n,
                                   n - len(eq_vecs)),
                facet_rows=partial(list, facet_vecs))


def intersect(c1: Cone, c2: Cone) -> Cone:
    """The intersection of two cones, built from their joint rows."""
    if c1.ambient_dim != c2.ambient_dim:
        raise DimMismatchError("cones live in different ambient spaces")
    return cone_from_halfspaces(
        c1.inequalities.entries + c2.inequalities.entries,
        c1.equations.entries + c2.equations.entries, c1.ambient_dim)


def _negated_rows(c: Cone) -> list:
    return [vec_neg(a) for a in c.facet_rows()]


def negate_cone(c: Cone) -> Cone:
    """The canonical cone -c with no double description: the negated rays
    are canonical (quotient_reps is linear, primitive_vector keeps the
    sign), and the negated facet rows cut out the negated facets."""
    rays = sorted(vec_neg(r) for r in c.rays.columns())
    return Cone(c.ambient_dim, IntMatrix.from_columns(rays, c.ambient_dim),
                c.lineality, c.dim,
                facet_rows=partial(_negated_rows, c))


def _facets_of(mask, tight) -> dict:
    """The facets of the face whose tight rays are mask, as a map from each
    facet's ray mask to the index of an inequality cutting it out.

    Every proper face of the face lies on some inequality not tight on the
    whole face, so the facets are the maximal proper sets among the
    mask & tight[i], each a face as an intersection of faces.
    """
    cuts = {}
    for i, t in enumerate(tight):
        m = mask & t
        if m != mask:
            cuts.setdefault(m, i)
    return {m: i for m, i in cuts.items()
            if not any(o != m and o & m == m for o in cuts)}


def _in_mask(rays, mask) -> list:
    """The rays whose bits are set in mask, in order."""
    return [r for j, r in enumerate(rays) if mask >> j & 1]


def _face_key(c: Cone, face_rays):
    """The cone_key of the face of c with these rays, a subset of c's: they
    stay canonical and sorted, and the lineality is c's."""
    return (tuple(zip(*face_rays)) if face_rays else ((),) * c.ambient_dim,
            c.lineality.entries)


def _face_cone(c: Cone, face_rays, facet_rows, dim: int) -> Cone:
    """The canonical face of c with these rays, given one inequality of c
    cutting out each of its facets. No double description runs: the face's
    equations are the integer kernel of its rays and the lineality, and each
    facet row, reduced modulo them, is the face's inequality for that
    facet."""
    return Cone(c.ambient_dim, IntMatrix.from_columns(face_rays, c.ambient_dim),
                c.lineality, dim, facet_rows=partial(list, facet_rows))


def facets_by_key(c: Cone):
    """Triples (key, inward_normal, build) for every facet of the cone, one
    per inequality a, in order.

    A facet of a canonical cone is fixed by its ray-facet incidences, so its
    key costs no lattice work: the rays tight on a and the cone's lineality,
    in the cone_key form. build() derives the whole canonical facet by
    incidence (_face_cone), with no double description: its own facets, the
    ridges, are the maximal sets of rays tight on a and on one more
    inequality b.
    """
    rays = c.rays.columns()
    ineqs = c.inequalities.entries
    tight = c.tight_masks

    def build(t):
        rows = [ineqs[i] for i in _facets_of(t, tight).values()]
        return _face_cone(c, _in_mask(rays, t), rows, c.dim - 1)

    return [(_face_key(c, _in_mask(rays, t)), a, partial(build, t))
            for a, t in zip(ineqs, tight)]


def facets_with_normals(c: Cone):
    """Pairs (facet, inward_normal) for every facet of the cone."""
    return [(build(), a) for _, a, build in facets_by_key(c)]


class Face(namedtuple("Face", "key dim facets build")):
    """A face met by face_lattice: its cone_key, its dimension, the keys of
    its facets, and build(), which makes the canonical face on demand."""

    __slots__ = ()

    @property
    def point(self):
        """The sum of the rays, as relative_interior_point gives it."""
        return tuple(sum(row) for row in self.key[0])


def face_lattice(c: Cone, seen=None) -> list:
    """Every face of the cone, all codimensions, as Face records sorted by
    key, with nothing built.

    A face is the set of rays it contains, kept as a bit mask over c's rays;
    its facets are the maximal proper sets among its mask and the tight-ray
    mask of each inequality of c (_facets_of), one dimension lower. The walk
    goes down from the whole cone one dimension at a time. A `seen` map
    (face key -> Face) shared across calls walks the face lattices of many
    cones once: a face already in it, and with it all of its faces, is
    neither met again nor returned.
    """
    if seen is None:
        seen = {}
    if cone_key(c) in seen:
        return []
    rays = c.rays.columns()
    ineqs = c.inequalities.entries
    tight = c.tight_masks
    top = (1 << len(rays)) - 1
    keys = {top: cone_key(c)}

    def whole():
        return c

    level = [top]
    dim = c.dim
    new = []
    while level:
        below = []
        for mask in level:
            facets = _facets_of(mask, tight)
            for m in facets:
                if m not in keys:
                    keys[m] = _face_key(c, _in_mask(rays, m))
                    if keys[m] not in seen:
                        below.append(m)
            if mask == top:
                build = whole
            else:
                build = partial(_face_cone, c, _in_mask(rays, mask),
                                [ineqs[i] for i in facets.values()], dim)
            face = Face(keys[mask], dim, tuple(keys[m] for m in facets), build)
            seen[face.key] = face
            new.append(face)
        level = below
        dim -= 1
    return sorted(new, key=lambda f: f.key)


def face_key_at(c: Cone, point):
    """The cone_key of the face of c whose relative interior holds the
    point, a point of c, with no face built: its rays are those tight on
    every inequality of c that the point is tight on."""
    rays = c.rays.columns()
    mask = (1 << len(rays)) - 1
    for a, t in zip(c.inequalities.entries, c.tight_masks):
        if not dot(a, point):
            mask &= t
    return _face_key(c, _in_mask(rays, mask))


def faces(c: Cone, codim: int) -> list:
    """All faces of the given codimension, canonically deduplicated."""
    if codim < 0 or codim > c.dim:
        raise BadCodimError(f"codimension {codim} out of range for a "
                            f"{c.dim}-dimensional cone")
    return [f.build() for f in face_lattice(c) if f.dim == c.dim - codim]


def all_faces(c: Cone, seen=None) -> list:
    """Every face of the cone, all codimensions, built, deduplicated and
    sorted; `seen` is face_lattice's."""
    return [f.build() for f in face_lattice(c, seen)]


def cone_key(c: Cone):
    """The canonical (rays, lineality) entries: equal keys, equal cones."""
    return (c.rays.entries, c.lineality.entries)


def relative_interior_point(c: Cone):
    """The sum of the ray columns; the zero vector for a rayless cone."""
    return tuple(sum(row) for row in c.rays.entries)


class Fan(namedtuple("Fan", "ambient_dim rays lineality maximal_cones")):
    """A fan as shared primitive ray columns, one lineality space, and
    maximal cones given as tuples of ray indices.

    The attribute cones holds the canonical maximal cones themselves, in
    maximal_cones order, as fan_from_cones received them. They are fixed by
    the fields, so they take no part in equality, hashing or the repr.
    """

    def __new__(cls, ambient_dim, rays, lineality, maximal_cones, cones=()):
        if len(cones) != len(maximal_cones):
            raise ValueError("a fan keeps one cone per maximal cone")
        self = super().__new__(cls, ambient_dim, rays, lineality,
                               maximal_cones)
        self.cones = cones
        return self

    @classmethod
    def _make(cls, iterable):
        """Refused, and with it _replace: the cones are not fields."""
        raise TypeError("a Fan is built by fan_from_cones, not from its "
                        "fields alone")

    def __getnewargs__(self):
        """For copy and pickle."""
        return (*self, self.cones)

    def is_empty(self) -> bool:
        return not self.maximal_cones


@lru_cache(maxsize=8192)
def fan_cone(fan: Fan, index: int) -> Cone:
    """The maximal cone with the given index, as the fan keeps it.

    Fans keep their cones, so the cache saves no work. It stays because the
    benchmark's tracer (perfbench/tracer.py) reports fan_cone.cache_info().
    """
    return fan.cones[index]


def fan_from_cones(ambient_dim: int, cones):
    """Assemble a fan from cones sharing one lineality space, taken as its
    maximal cones: a cone listed twice is kept once, by its key, and none
    is tested for lying in another. Returns (fan, indices): the input index
    of each kept cone, in maximal_cones order, so that callers can carry
    per-cone data such as multiplicities; the fan keeps the cones."""
    kept = {}
    for i, c in enumerate(cones):
        if c.ambient_dim != ambient_dim:
            raise DimMismatchError("cone ambient dimension mismatch")
        kept.setdefault(cone_key(c), (c, i))
    kept = list(kept.values())
    if not kept:
        empty = IntMatrix.from_columns([], ambient_dim)
        return Fan(ambient_dim, empty, empty, ()), []
    lin = kept[0][0].lineality
    if any(c.lineality.entries != lin.entries for c, _ in kept):
        raise DimMismatchError("cones do not share a lineality space")
    rays = sorted({r for c, _ in kept for r in c.rays.columns()})
    ray_index = {r: i for i, r in enumerate(rays)}
    entries = sorted(((tuple(sorted(ray_index[r] for r in c.rays.columns())),
                       src, c) for c, src in kept), key=lambda t: t[0])
    fan = Fan(ambient_dim,
              IntMatrix.from_columns(rays, ambient_dim),
              lin,
              tuple(idx for idx, _, _ in entries),
              tuple(c for _, _, c in entries))
    return fan, [src for _, src, _ in entries]


def common_refinement(f1: Fan, f2: Fan) -> Fan:
    """The fan of inclusion-maximal pairwise intersections. Each pair takes
    one double description pass; a piece met by several pairs is kept once,
    by its key. The pieces of two fans meet in common faces, so a piece
    inside another is a face of it: walked by descending dimension through
    one shared face_lattice map, a piece is maximal exactly when no larger
    piece has met its key."""
    if f1.ambient_dim != f2.ambient_dim:
        raise DimMismatchError("fans live in different ambient spaces")
    pieces = {}
    for c1 in f1.cones:
        for c2 in f2.cones:
            piece = intersect(c1, c2)
            pieces.setdefault(cone_key(piece), piece)
    seen = {}
    maximal = []
    for key, piece in sorted(pieces.items(), key=lambda kp: -kp[1].dim):
        if key not in seen:
            maximal.append(piece)
            face_lattice(piece, seen)
    fan, _ = fan_from_cones(f1.ambient_dim, maximal)
    return fan


def support_contains(fan: Fan, point) -> bool:
    """Exact test: does the point lie in some cone of the fan?"""
    if len(point) != fan.ambient_dim:
        raise DimMismatchError("point dimension mismatch")
    return any(c.contains(point) for c in fan.cones)


def fan_dim(fan: Fan) -> int:
    if fan.is_empty():
        return -1
    return max(c.dim for c in fan.cones)


def is_pure(fan: Fan) -> bool:
    if fan.is_empty():
        return True
    dims = {c.dim for c in fan.cones}
    return len(dims) == 1


def slice_first_coordinate(c: Cone) -> Cone:
    """Intersect with {x0 = 0} and drop coordinate 0. The slice's own
    H-description is left to first use."""
    ineqs = [r[1:] for r in c.inequalities.entries]
    eqs = [r[1:] for r in c.equations.entries]
    return cone_from_halfspaces(ineqs, eqs, c.ambient_dim - 1)


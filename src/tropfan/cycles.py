"""Weighted fans and tropical cycles.

A TropicalCycle is a weighted fan tagged with the min or max convention. It
may be non-pure (a variety with components of different dimensions); its
`pure` property says so, and the operations that need purity check it.
Construction never checks balancing; is_balanced is the separate verifier.
It walks facet keys, not built facets, and reads each lattice normal off the
image of a ray under one integer kernel per facet, with no quotient lattice.
The JSON schema here is the on-disk interchange format of the CLI.
TropicalCycle is a named tuple: a value also equals the plain tuple of its
fields.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    CycleSchemaError,
    MultiplicityMismatchError,
    NotPureError,
)
from .fans import (
    Fan,
    cone_from_generators,
    cone_key,
    facets_by_key,
    fan_cones,
    fan_dim,
    fan_from_cones,
    is_pure,
    negate_cone,
)
from .linalg import (
    IntMatrix,
    _kernel_columns,
    dot,
    integer_kernel_basis,
    primitive_vector,
)


def check_convention(convention) -> None:
    if convention not in ("min", "max"):
        raise ValueError("convention must be 'min' or 'max'")


class TropicalCycle(namedtuple("TropicalCycle",
                               "fan multiplicities convention")):
    """A weighted fan, one weight per maximal cone, with a convention tag."""

    __slots__ = ()

    def __new__(cls, fan, multiplicities, convention):
        check_convention(convention)
        if len(multiplicities) != fan.n_maximal():
            raise MultiplicityMismatchError(
                f"{fan.n_maximal()} maximal cones but "
                f"{len(multiplicities)} multiplicities")
        return super().__new__(cls, fan, multiplicities, convention)

    @classmethod
    def _make(cls, iterable):
        """Through the constructor, which namedtuple's _make and _replace
        skip."""
        return cls(*iterable)

    @property
    def ambient_dim(self) -> int:
        return self.fan.ambient_dim

    @property
    def pure(self) -> bool:
        """Do all maximal cones have the same dimension?"""
        return is_pure(self.fan)


def weighted_from_cones(ambient_dim, weighted_cones, convention,
                        merge_duplicates=False) -> TropicalCycle:
    """Assemble a cycle, pure or not, from (cone, weight) pairs; zero-weight
    cones are dropped, duplicates summed when merging."""
    groups = {}
    order = []
    for cone, weight in weighted_cones:
        key = cone_key(cone)
        if key in groups:
            if not merge_duplicates:
                raise MultiplicityMismatchError("duplicate maximal cone")
            prev_cone, prev_w = groups[key]
            groups[key] = (prev_cone, prev_w + weight)
        else:
            groups[key] = (cone, weight)
            order.append(key)
    kept = [(c, w) for key in order for c, w in [groups[key]] if w != 0]
    for _, w in kept:
        if w < 0:
            raise MultiplicityMismatchError("multiplicities must be positive")
    fan, sources = fan_from_cones(ambient_dim, [c for c, _ in kept],
                                  drop_contained=False)
    return TropicalCycle(fan, tuple(kept[i][1] for i in sources), convention)


def make_cycle(fan: Fan, multiplicities, convention: str = "min") -> TropicalCycle:
    """Attach weights to the maximal cones of a pure fan.

    Balancing is deliberately not checked here; use is_balanced. The
    weights must be ints, as in a cycle's JSON form: a float or a string is
    refused, not cast. TropicalCycle checks their number and
    weighted_from_cones their sign.
    """
    mults = tuple(multiplicities)
    if not all(map(_is_int, mults)):
        raise MultiplicityMismatchError("multiplicities must be integers")
    cycle = TropicalCycle(fan, mults, convention)
    if not cycle.pure:
        raise NotPureError("fan is not pure")
    if all(m > 0 for m in mults):
        return cycle
    cycle = weighted_from_cones(fan.ambient_dim, zip(fan_cones(fan), mults),
                                convention)
    if not cycle.pure:
        raise NotPureError("fan is not pure after dropping zero weights")
    return cycle


def swap_convention(cycle):
    """Negate the fan pointwise and flip the convention tag (an involution)."""
    fan = cycle.fan
    flipped = "max" if cycle.convention == "min" else "min"
    if fan.is_empty():
        return TropicalCycle(fan, cycle.multiplicities, flipped)
    pairs = [(negate_cone(c), m)
             for c, m in zip(fan_cones(fan), cycle.multiplicities)]
    return weighted_from_cones(fan.ambient_dim, pairs, flipped)


def rays(cycle) -> IntMatrix:
    return cycle.fan.rays


def lineality_space(cycle) -> IntMatrix:
    return cycle.fan.lineality


def max_cones(cycle) -> list:
    return [list(c) for c in cycle.fan.maximal_cones]


def multiplicities(cycle) -> list:
    return list(cycle.multiplicities)


def cycle_dim(cycle) -> int:
    return fan_dim(cycle.fan)


def span_lattice_basis(cone) -> IntMatrix:
    """Saturated basis (columns) of span(cone) intersected with Z^n."""
    return integer_kernel_basis(cone.equations)


def is_balanced(cycle) -> bool:
    """Check the balancing condition at every codimension-one face.

    The maximal cones of a fan meet in common faces, so the cones around a
    facet tau are those that list tau among their facets: each cone's facet
    keys give its incidences, and the first ray of the cone off tau spans
    its image in Z^n / L_tau, for L_tau the lattice of span tau. The rows of
    one integer kernel E of tau's rays and the lineality map Z^n / L_tau
    isomorphically onto Z^k (they span a saturated lattice), so the normal
    vector of a cone is the primitive E . r of its off-facet ray r, and tau
    is balanced when the weighted sum of those is zero. No facet is built.
    """
    if not cycle.pure:
        raise NotPureError("balancing is defined for pure cycles only")
    fan = cycle.fan
    sums = {}       # facet key -> (E, weighted sum of the normal vectors)
    for c, m in zip(fan_cones(fan), cycle.multiplicities):
        rays, lin = c.generators()
        for key, a, _ in facets_by_key(c):
            if key not in sums:
                tight = [r for r in rays if not dot(a, r)]
                e = _kernel_columns(IntMatrix(len(tight) + len(lin),
                                              fan.ambient_dim,
                                              tuple(tight + lin)))
                sums[key] = (e, [0] * len(e))
            e, total = sums[key]
            off = next(r for r in rays if dot(a, r))
            normal = primitive_vector([dot(row, off) for row in e])
            total[:] = [t + m * x for t, x in zip(total, normal)]
    return not any(any(total) for _, total in sums.values())


def cycle_to_dict(cycle) -> dict:
    """The JSON-serializable form of a cycle."""
    fan = cycle.fan
    return {
        "convention": cycle.convention,
        "ambient_dim": fan.ambient_dim,
        "rays": [list(c) for c in fan.rays.columns()],
        "lineality": [list(c) for c in fan.lineality.columns()],
        "maximal_cones": [list(c) for c in fan.maximal_cones],
        "multiplicities": list(cycle.multiplicities),
        "dim": fan_dim(fan),
        "pure": cycle.pure,
    }


def fan_to_dict(fan: Fan, convention: str) -> dict:
    d = cycle_to_dict(TropicalCycle(fan, (1,) * fan.n_maximal(), convention))
    del d["multiplicities"]
    return d


def _is_int(value) -> bool:
    """JSON integers only: true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(data, field, kind):
    if field not in data:
        raise CycleSchemaError("missing field", field)
    value = data[field]
    if kind is list and not isinstance(value, list):
        raise CycleSchemaError("expected a list", field)
    if kind is int and not _is_int(value):
        raise CycleSchemaError("expected an integer", field)
    return value


def _int_columns(value, ambient, field):
    cols = []
    for col in value:
        if not isinstance(col, list) or len(col) != ambient \
                or not all(_is_int(x) for x in col):
            raise CycleSchemaError(
                f"expected integer columns of length {ambient}", field)
        cols.append(tuple(col))
    return cols


def cycle_from_dict(data, require_weights: bool = True):
    """Rebuild a cycle (pure or not) from its JSON form, or a bare fan when
    the multiplicities are absent and not required."""
    if not isinstance(data, dict):
        raise CycleSchemaError("expected a JSON object", "$")
    convention = _require(data, "convention", None)
    if convention not in ("min", "max"):
        raise CycleSchemaError("convention must be 'min' or 'max'", "convention")
    ambient = _require(data, "ambient_dim", int)
    if ambient < 0:
        raise CycleSchemaError("ambient_dim must be nonnegative", "ambient_dim")
    ray_cols = _int_columns(_require(data, "rays", list), ambient, "rays")
    if any(not any(col) for col in ray_cols):
        raise CycleSchemaError("a ray must be nonzero", "rays")
    lin_cols = _int_columns(_require(data, "lineality", list), ambient, "lineality")
    mc = _require(data, "maximal_cones", list)
    cones = []
    for cone_idx in mc:
        if not isinstance(cone_idx, list) or \
                not all(_is_int(i) and 0 <= i < len(ray_cols)
                        for i in cone_idx):
            raise CycleSchemaError("bad ray index set", "maximal_cones")
        cone = cone_from_generators([ray_cols[i] for i in cone_idx],
                                    lin_cols, ambient)
        # the commands that read cycle files read the facets of every cone
        # (balancing, a stable intersection's separating rows), so they are
        # derived here, as part of reading the file
        cone.inequalities
        cones.append(cone)
    weights = None
    if "multiplicities" in data and data["multiplicities"] is not None:
        weights = data["multiplicities"]
        if not isinstance(weights, list) or \
                not all(_is_int(m) for m in weights):
            raise CycleSchemaError("expected a list of integers", "multiplicities")
        if len(weights) != len(cones):
            raise CycleSchemaError(
                f"{len(cones)} maximal cones but {len(weights)} multiplicities",
                "multiplicities")
        if any(m < 0 for m in weights):
            raise CycleSchemaError("negative multiplicity", "multiplicities")
    elif require_weights:
        raise CycleSchemaError("missing field", "multiplicities")
    if weights is None:
        fan, _ = fan_from_cones(ambient, cones, drop_contained=True)
        return fan
    return weighted_from_cones(ambient, list(zip(cones, weights)), convention,
                               merge_duplicates=False)

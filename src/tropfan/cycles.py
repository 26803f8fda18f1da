"""Weighted fans and tropical cycles.

A TropicalCycle is a weighted fan tagged with the min or max convention. It
may be non-pure (a variety with components of different dimensions); its
`pure` property says so, and the operations that need purity check it.
Construction never checks balancing; is_balanced is the separate verifier.
The JSON schema here is the on-disk interchange format of the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .linalg import IntMatrix, dot, integer_kernel_basis, quotient_reps


def check_convention(convention) -> None:
    if convention not in ("min", "max"):
        raise ValueError("convention must be 'min' or 'max'")


@dataclass(frozen=True)
class TropicalCycle:
    """A weighted fan, one weight per maximal cone, with a convention tag."""

    fan: Fan
    multiplicities: tuple
    convention: str

    def __post_init__(self):
        check_convention(self.convention)
        if len(self.multiplicities) != self.fan.n_maximal():
            raise MultiplicityMismatchError(
                f"{self.fan.n_maximal()} maximal cones but "
                f"{len(self.multiplicities)} multiplicities")

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

    Balancing is deliberately not checked here; use is_balanced.
    """
    mults = tuple(int(m) for m in multiplicities)
    if len(mults) != fan.n_maximal():
        raise MultiplicityMismatchError(
            f"{fan.n_maximal()} maximal cones but {len(mults)} multiplicities")
    if any(m < 0 for m in mults):
        raise MultiplicityMismatchError("multiplicities must be positive")
    if not is_pure(fan):
        raise NotPureError("fan is not pure")
    if any(m == 0 for m in mults):
        cones = fan_cones(fan)
        pairs = [(c, m) for c, m in zip(cones, mults) if m != 0]
        out = weighted_from_cones(fan.ambient_dim, pairs, convention)
        if not out.pure:
            raise NotPureError("fan is not pure after dropping zero weights")
        return out
    return TropicalCycle(fan, mults, convention)


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
    keys give its incidences, and the first ray of the cone off tau gives
    its normal vector modulo span tau. Each tau is built once.
    """
    if not cycle.pure:
        raise NotPureError("balancing is defined for pure cycles only")
    fan = cycle.fan
    around = {}     # facet key -> (build, [(weight, ray off the facet)])
    for c, m in zip(fan_cones(fan), cycle.multiplicities):
        rays = c.rays.columns()
        for key, a, build in facets_by_key(c):
            off = next(r for r in rays if dot(a, r) != 0)
            around.setdefault(key, (build, []))[1].append((m, off))
    for build, incident in around.values():
        tau = build()
        normals = quotient_reps([r for _, r in incident],
                                span_lattice_basis(tau))
        total = [sum(m * v[k] for (m, _), v in zip(incident, normals))
                 for k in range(fan.ambient_dim)]
        if any(dot(row, total) != 0 for row in tau.equations.entries):
            return False
    return True


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
        cones.append(cone_from_generators([ray_cols[i] for i in cone_idx],
                                          lin_cols, ambient))
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

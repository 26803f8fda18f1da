"""Direct computations that cross-check the library's routes to the same
answers. They are not part of the package: only the tests call them."""

from fractions import Fraction

from tropfan.cycles import span_lattice_basis
from tropfan.errors import DimMismatchError, NotPureError
from tropfan.fans import (
    cone_from_generators,
    facets_by_key,
    relative_interior_point,
)
from tropfan.groebner import TermOrder, initial_ideal, reduced_groebner_basis
from tropfan.linalg import dot, quotient_reps
from tropfan.tropical import _multiplicity_from_initial


def optimum_attained_twice(f, w, convention="min") -> bool:
    """Direct membership test for the tropical hypersurface of f."""
    values = [sum(Fraction(wi) * ei for wi, ei in zip(w, e)) for e in f.terms]
    opt = min(values) if convention == "min" else max(values)
    return values.count(opt) >= 2


def multiplicity_at(spec_homogeneous, sigma) -> int:
    """Multiplicity of a maximal cell of the tropical variety of a
    homogeneous ideal, from the initial ideal at one interior point."""
    w = relative_interior_point(sigma)
    gb = reduced_groebner_basis(spec_homogeneous, TermOrder((w,), "min"))
    return _multiplicity_from_initial(initial_ideal(gb, w), sigma)


def reference_fan_cone(fan, index):
    """The maximal cone with the given index, rebuilt from the fan's shared
    rays and lineality by two double description passes."""
    cols = [fan.rays.column(j) for j in fan.maximal_cones[index]]
    return cone_from_generators(cols, fan.lineality.columns(), fan.ambient_dim)


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

"""Direct computations that cross-check the library's routes to the same
answers. They are not part of the package: only the tests call them."""

from fractions import Fraction

from tropfan.fans import relative_interior_point
from tropfan.groebner import TermOrder, initial_ideal, reduced_groebner_basis
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

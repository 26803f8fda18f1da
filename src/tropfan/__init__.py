"""Exact tropical geometry over Q with trivial valuation.

Computes tropical hypersurfaces, prevarieties, tropical varieties with
multiplicities, balancing and tropical-basis checks, and stable intersections,
all in exact rational and lattice arithmetic with no external algebra system.
"""

from .errors import (
    BadCodimError,
    ConventionMismatchError,
    CycleSchemaError,
    DimMismatchError,
    DomainError,
    GenericityError,
    IdealFileError,
    InputError,
    MonomialHypersurfaceError,
    MultiplicityMismatchError,
    NotFullRankError,
    NotPureError,
    NotZeroDimensionalError,
    PolynomialParseError,
    RequiresHomogeneousError,
    TropfanError,
    UnitIdealError,
    ZeroIdealError,
    ZeroPolynomialError,
)
from .linalg import (
    IntMatrix,
    cone_feasible,
    hermite_normal_form,
    lattice_index,
    primitive_vector,
    smith_normal_form,
    solve_rational,
)
from .polynomials import (
    IdealSpec,
    Polynomial,
    homogenize,
    ideal,
    initial_form,
    newton_polytope,
    parse_polynomial,
)
from .groebner import (
    GroebnerBasis,
    TermOrder,
    groebner_fan,
    initial_ideal,
    is_monomial_free,
    reduced_groebner_basis,
    saturate,
    vector_space_dimension,
)
from .fans import (
    Cone,
    Fan,
    common_refinement,
    cone_from_generators,
    cone_from_halfspaces,
    faces,
    fan_dim,
    fan_from_cones,
    relative_interior_point,
    support_contains,
)
from .cycles import (
    TropicalCycle,
    cycle_from_dict,
    cycle_to_dict,
    is_balanced,
    make_cycle,
    swap_convention,
)
from .tropical import (
    is_tropical_basis,
    stable_intersection,
    tropical_evaluate,
    tropical_hypersurface,
    tropical_prevariety,
    tropical_variety,
)

__version__ = "0.1.0"

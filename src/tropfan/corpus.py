"""Shared desk-scale example ideals used by the property suites and scripts.

The prime corpus spans linear ideals, binomials, and principal cubics in at
most four variables, all of degree at most three.
"""

from __future__ import annotations

from collections import namedtuple

from .polynomials import IdealSpec, parse_polynomial


class CorpusEntry(namedtuple("CorpusEntry", "name variables generators")):
    """A named ideal, a named tuple: variables and generators as text."""

    __slots__ = ()

    def ideal(self) -> IdealSpec:
        gens = tuple(parse_polynomial(g, self.variables)
                     for g in self.generators)
        return IdealSpec(self.variables, gens)


PRIME_CORPUS = (
    CorpusEntry("line2", ("x", "y"), ("x+y+1",)),
    CorpusEntry("plane3", ("x", "y", "z"), ("x+y+z",)),
    CorpusEntry("linear_pair4", ("x", "y", "z", "w"),
                ("x+y+z+w", "x+2*y+3*w")),
    CorpusEntry("hyperbola", ("x", "y"), ("x*y-1",)),
    CorpusEntry("quadric_cone", ("x", "y", "z"), ("x*y-z^2",)),
    CorpusEntry("toric_cubic", ("x", "y", "z"), ("x^2*y-z^3",)),
    CorpusEntry("fermat_cubic", ("x", "y"), ("x^3+y^3+1",)),
    CorpusEntry("elliptic", ("x", "y"), ("y^2-x^3+x",)),
    CorpusEntry("plane_in_3", ("x", "y", "z"), ("x+y+z+1",)),
    # smooth hyperplane section of the Segre quadric: a conic in 3-space
    CorpusEntry("space_conic", ("x", "y", "z", "w"),
                ("x+2*y+3*z+5*w", "x*y-z*w")),
)

# single polynomials for the hypersurface membership oracle
ORACLE_POLYNOMIALS = (
    (("x", "y"), "x+y+1"),
    (("x", "y", "z"), "x+y+z"),
    (("x", "y"), "x*y-1"),
    (("x", "y"), "x^3+y^3+1"),
    (("x", "y"), "y^2-x^3+x"),
    (("x", "y", "z"), "x^2+y^2+z^2"),
    (("x", "y", "z"), "x+y+z+1"),
    (("x", "y", "z"), "x^2*y-z^3"),
    (("x", "y", "z", "w"), "x*y*z*w-1"),
    (("x", "y"), "2*x+3*y"),
)

# principal ideals for the Newton / Groebner consistency check
PRINCIPAL_POLYNOMIALS = (
    (("x", "y"), "x+y+1"),
    (("x", "y", "z"), "x+y+z"),
    (("x", "y"), "x*y-1"),
    (("x", "y", "z"), "x^2+y^2+z^2"),
    (("x", "y"), "x^3+y^3+1"),
    (("x", "y"), "y^2-x^3+x"),
    (("x", "y", "z"), "x^2*y-z^3"),
    (("x", "y", "z"), "x+y+z+1"),
    (("x", "y", "z"), "x*y*z-1"),
    (("x", "y"), "x^2+x*y+y^2"),
)

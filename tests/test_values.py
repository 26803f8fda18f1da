"""The contract of tropfan's value classes, which are named tuples: equal
values hash equal, fields cannot be reassigned, the constructors check
their input, and what a Cone or a Fan keeps beside its fields (facet rows,
derived H-description, cones) takes no part in equality, hashing or the
repr, and survives copy and pickle. A TermOrder keeps nothing beside its
fields. namedtuple's _make and _replace go through the constructor, or, for
Cone and Fan, whose state is not all in their fields, are refused."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from tropfan.corpus import PRIME_CORPUS, CorpusEntry
from tropfan.cli import dumps_canonical
from tropfan.cycles import (
    TropicalCycle,
    cycle_from_dict,
    cycle_to_dict,
    make_cycle,
)
from tropfan.errors import DimMismatchError, MultiplicityMismatchError
from tropfan.fans import (
    Cone,
    Face,
    Fan,
    cone_from_generators,
    cone_from_halfspaces,
    cone_key,
    fan_from_cones,
    negate_cone,
)
from tropfan.groebner import TermOrder, reduced_groebner_basis
from tropfan.linalg import IntMatrix, hermite_basis
from tropfan.polynomials import IdealSpec, parse_polynomial
from tropfan.tropical import tropical_hypersurface


def quadrant():
    return cone_from_generators([(1, 0), (0, 1)], [], 2)


def line_fan():
    fan, _ = fan_from_cones(2, [cone_from_generators([r], [], 2)
                                for r in [(-1, -1), (1, 0), (0, 1)]])
    return fan


def values():
    """Pairs of equal values of every class, each built on its own."""
    spec = PRIME_CORPUS[3].ideal()
    return [
        (IntMatrix.from_rows([(1, 2)]), IntMatrix(1, 2, ((1, 2),))),
        (hermite_basis(IntMatrix.from_columns([(2, 0), (0, 3)], 2)),
         hermite_basis(IntMatrix.from_columns([(0, 3), (2, 0)], 2))),
        (spec, PRIME_CORPUS[3].ideal()),
        (TermOrder(((1, 2),)), TermOrder(((1, 2),))),
        (reduced_groebner_basis(spec, TermOrder()),
         reduced_groebner_basis(spec, TermOrder())),
        (quadrant(), cone_from_halfspaces([(1, 0), (0, 1)], [], 2)),
        (line_fan(), line_fan()),
        (make_cycle(line_fan(), [1, 1, 1]), make_cycle(line_fan(), [1, 1, 1])),
        (PRIME_CORPUS[0], CorpusEntry("line2", ("x", "y"), ("x+y+1",))),
        (Face(cone_key(quadrant()), 2, (), quadrant),
         Face(cone_key(quadrant()), 2, (), quadrant)),
    ]


def test_equal_values_hash_equal():
    for a, b in values():
        assert a is not b
        assert a == b and hash(a) == hash(b), type(a).__name__


def test_fields_cannot_be_reassigned():
    for value, _ in values():
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)


def test_replace_with_the_same_fields_gives_an_equal_value():
    for value, _ in values():
        if isinstance(value, (Cone, Fan)):
            continue
        copy = value._replace()
        assert copy == value and type(copy) is type(value)


def test_values_equal_the_tuple_of_their_fields():
    # documented, and relied on by no library code
    m = IntMatrix(1, 1, ((1,),))
    assert m == (1, 1, ((1,),))
    assert tuple(m) == (m.nrows, m.ncols, m.entries)


class TestCone:
    def test_equality_ignores_facet_rows_and_the_derived_description(self):
        a = quadrant()
        b = cone_from_halfspaces([(1, 0), (0, 1), (1, 1)], [], 2)
        a.inequalities  # derived on a only
        assert "inequalities" in vars(a) and "inequalities" not in vars(b)
        bare = Cone(a.ambient_dim, a.rays, a.lineality, a.dim,
                    facet_rows=list)
        assert a == b == bare
        assert hash(a) == hash(b) == hash(bare)
        assert {a: 1}[bare] == 1

    def test_make_and_replace_are_refused(self):
        c = quadrant()
        with pytest.raises(TypeError):
            Cone._make(tuple(c))
        with pytest.raises(TypeError):
            c._replace(dim=1)

    def test_repr_omits_the_facet_rows(self):
        c = quadrant()
        assert repr(c) == (f"Cone(ambient_dim=2, rays={c.rays!r}, "
                           f"lineality={c.lineality!r}, dim=2)")


class TestFan:
    def test_equality_ignores_the_cones(self):
        fan = line_fan()
        other = Fan(fan.ambient_dim, fan.rays, fan.lineality,
                    fan.maximal_cones, (None,) * len(fan.maximal_cones))
        assert other == fan and hash(other) == hash(fan)

    def test_repr_omits_the_cones(self):
        fan = line_fan()
        assert repr(fan) == (
            f"Fan(ambient_dim=2, rays={fan.rays!r}, "
            f"lineality={fan.lineality!r}, "
            f"maximal_cones={fan.maximal_cones!r})")

    def test_make_and_replace_are_refused(self):
        fan = line_fan()
        with pytest.raises(TypeError):
            Fan._make(tuple(fan))
        with pytest.raises(TypeError):
            fan._replace(maximal_cones=())

    def test_one_cone_per_maximal_cone(self):
        fan = line_fan()
        with pytest.raises(ValueError):
            Fan(fan.ambient_dim, fan.rays, fan.lineality, fan.maximal_cones)
        with pytest.raises(ValueError):
            Fan(fan.ambient_dim, fan.rays, fan.lineality, fan.maximal_cones,
                fan.cones[:2])


class TestTermOrder:
    def test_defaults(self):
        assert TermOrder() == TermOrder(()) == ((),)

    def test_clears_denominators(self):
        order = TermOrder(((Fraction(1, 2), Fraction(1, 3)),))
        assert order.weight_rows == ((3, 2),)
        assert order == TermOrder(weight_rows=((3, 2),))

    def test_keeps_no_state_beside_its_fields(self):
        order = TermOrder(((1, 2),))
        order.key((1, 0))
        assert not hasattr(order, "__dict__")
        assert TermOrder.__slots__ == ()
        assert repr(order) == "TermOrder(weight_rows=((1, 2),))"

    def test_takes_no_convention(self):
        # one direction: a max order is the min order of the negated rows
        with pytest.raises(TypeError):
            TermOrder((), "max")

    def test_elimination_order_ranks_t_first(self):
        # the order saturate eliminates its variable t (coordinate 0) with
        n = 2
        order = TermOrder(((-1,) + (0,) * n,))
        monomials = [(a, b, c) for a in range(3) for b in range(3)
                     for c in range(3)]
        with_t = [order.key(e) for e in monomials if e[0]]
        without_t = [order.key(e) for e in monomials if not e[0]]
        assert min(with_t) > max(without_t)

    def test_replace_goes_through_the_constructor(self):
        order = TermOrder(((1, 2),))
        assert order._replace(
            weight_rows=((Fraction(1, 2), 1),)).weight_rows == ((1, 2),)
        assert TermOrder._make((((Fraction(1, 3), 1),),)) \
            == TermOrder(((1, 3),))


A5 = "a*b+c*d+e*a+b*c+d*e+a^2+e^2+1"


def assert_round_trips(value):
    """copy, deepcopy and pickle give an equal value of the same class, with
    the state beside the fields: a cone's facet rows and derived
    H-description, a fan's cones."""
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert again == value and type(again) is type(value)
        if isinstance(value, Cone):
            assert again.inequalities == value.inequalities
            assert again.equations == value.equations
            assert again.facet_rows() == value.facet_rows()
        if isinstance(value, Fan):
            assert again.cones == value.cones
            for a, b in zip(again.cones, value.cones):
                assert a.inequalities == b.inequalities


class TestCopyAndPickle:
    def test_cones(self):
        halfspace = cone_from_halfspaces([(1, 0, 0), (0, 1, 0)],
                                         [(0, 0, 1)], 3)
        generated = cone_from_generators([(1, 0, 1), (0, 1, 1)],
                                         [(1, 1, 0)], 3)
        generated.inequalities  # derived before the copy
        for c in (halfspace, generated, negate_cone(generated)):
            assert_round_trips(c)

    def test_fans_and_a_cycle_read_from_json(self):
        assert_round_trips(line_fan())
        hypersurface = tropical_hypersurface(
            parse_polynomial(A5, tuple("abcde")))
        cycle = cycle_from_dict(json.loads(dumps_canonical(
            cycle_to_dict(hypersurface))))
        assert_round_trips(cycle.fan)
        for again in (copy.deepcopy(cycle), pickle.loads(pickle.dumps(cycle))):
            assert cycle_to_dict(again) == cycle_to_dict(cycle)


class TestChecks:
    def test_tropical_cycle(self):
        fan = line_fan()
        with pytest.raises(MultiplicityMismatchError):
            TropicalCycle(fan, (1, 1), "min")
        with pytest.raises(ValueError):
            TropicalCycle(fan, (1, 1, 1), "median")

    def test_tropical_cycle_make_and_replace(self):
        cycle = make_cycle(line_fan(), [1, 1, 1])
        with pytest.raises(MultiplicityMismatchError):
            cycle._replace(multiplicities=(1, 1))
        with pytest.raises(ValueError):
            TropicalCycle._make((line_fan(), (1, 1, 1), "median"))

    def test_ideal_spec(self):
        with pytest.raises(ValueError):
            IdealSpec(("x", "y"), ())
        with pytest.raises(DimMismatchError):
            IdealSpec(("x", "y"), (parse_polynomial("x+z", ("x", "z")),))

    def test_ideal_spec_make_and_replace(self):
        with pytest.raises(ValueError):
            IdealSpec._make((("x",), ()))
        spec = PRIME_CORPUS[3].ideal()
        with pytest.raises(DimMismatchError):
            spec._replace(variables=("x",))

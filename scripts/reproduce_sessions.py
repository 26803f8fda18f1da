#!/usr/bin/env python3
"""Run the four headline computations end to end and print session-style
output: the tropical line, a hand-built cycle with its balancing check, the
prevariety/variety comparison for a line-conic pair, and a tropical Bezout
count via stable intersection."""

import time

from tropfan.cli import format_session
from tropfan.cycles import is_balanced, make_cycle
from tropfan.fans import cone_from_generators, fan_from_cones, fan_dim
from tropfan.polynomials import ideal, parse_polynomial
from tropfan.tropical import (
    is_tropical_basis,
    stable_intersection,
    tropical_prevariety,
    tropical_variety,
)


def heading(text):
    print(f"\n==== {text} ====")


def timed(label, thunk):
    t0 = time.monotonic()
    result = thunk()
    print(f"-- {time.monotonic() - t0:.6f} seconds elapsed ({label})")
    return result


def session_1_tropical_line():
    heading("tropical variety of <x+y+1>")
    vs = ("x", "y")
    spec = ideal(vs, (parse_polynomial("x+y+1", vs),))
    cycle = timed("tropicalVariety", lambda: tropical_variety(spec))
    print(format_session(cycle), end="")


def session_2_manual_cycle():
    heading("manual cycle and balancing")
    cones = [cone_from_generators([r], [], 2)
             for r in [(1, 0), (0, 1), (-1, -1)]]
    fan, _ = fan_from_cones(2, cones)
    cycle = make_cycle(fan, [1, 1, 1], "min")
    print("weights {1,1,1} balanced:", is_balanced(cycle))
    print("weights {2,1,1} balanced:",
          is_balanced(make_cycle(fan, [2, 1, 1], "min")))


def session_3_prevariety_vs_variety():
    heading("prevariety vs variety for {x+y+z, x^2+y^2+z^2}")
    vs = ("x", "y", "z")
    f = parse_polynomial("x+y+z", vs)
    g = parse_polynomial("x^2+y^2+z^2", vs)
    pre = timed("tropicalPrevariety", lambda: tropical_prevariety([f, g]))
    var = timed("tropicalVariety",
                lambda: tropical_variety(ideal(vs, (f, g))))
    basis = timed("isTropicalBasis", lambda: is_tropical_basis([f, g]))
    print("isTropicalBasis:", basis)
    print("dim prevariety:", fan_dim(pre))
    print("dim variety:", fan_dim(var.fan))
    print(format_session(var), end="")


def session_4_bezout():
    heading("stable intersection of a line and a conic")
    vs = ("x", "y", "z")
    deg1 = tropical_variety(ideal(vs, (parse_polynomial("x+2*y+3*z", vs),)))
    deg2 = tropical_variety(ideal(vs, (parse_polynomial("x^2+5*y^2+7*z^2", vs),)))
    got = timed("stableIntersection", lambda: stable_intersection(deg1, deg2))
    print(format_session(got), end="")
    print("total multiplicity:", sum(got.multiplicities))


if __name__ == "__main__":
    session_1_tropical_line()
    session_2_manual_cycle()
    session_3_prevariety_vs_variety()
    session_4_bezout()

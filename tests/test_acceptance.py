"""Acceptance suite.

One test per criterion, each asserting the exact expected values at the
stated tolerance (everything here is exact arithmetic) and its runtime
budget, and printing a PASS line for the session log.
"""

import json
import random
import time
from fractions import Fraction

from tropfan.cli import main
from tropfan.corpus import ORACLE_POLYNOMIALS, PRIME_CORPUS, PRINCIPAL_POLYNOMIALS
from tropfan.cycles import cycle_to_dict, is_balanced, make_cycle
from tropfan.fans import (
    cone_from_generators,
    cone_from_halfspaces,
    fan_from_cones,
    fan_dim,
    support_contains,
)
from tropfan.groebner import groebner_fan
from tropfan.polynomials import (
    edge_lattice_length,
    homogenize,
    ideal,
    newton_polytope,
    parse_polynomial,
)
from tropfan.tropical import (
    is_tropical_basis,
    stable_intersection,
    tropical_prevariety,
    tropical_variety,
)

from oracles import groebner_route_variety, optimum_attained_twice


def P(text, vs):
    return parse_polynomial(text, vs)


def report(n, label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s): {label}")


def test_criterion_1_tropical_line_reproduction():
    started = time.monotonic()
    spec = ideal(("x", "y"), (P("x+y+1", ("x", "y")),))
    cycle = groebner_route_variety(spec)
    assert set(cycle.fan.rays.columns()) == {(-1, -1), (1, 0), (0, 1)}
    assert cycle.fan.lineality.ncols == 0
    assert sorted(len(c) for c in cycle.fan.maximal_cones) == [1, 1, 1]
    assert cycle.multiplicities == (1, 1, 1)
    assert fan_dim(cycle.fan) == 1
    report(1, "variety of <x+y+1> is the standard tropical line", started, 5.0)


def test_criterion_2_manual_cycle_balancing():
    started = time.monotonic()
    cones = [cone_from_generators([r], [], 2)
             for r in [(1, 0), (0, 1), (-1, -1)]]
    fan, _ = fan_from_cones(2, cones)
    cycle = make_cycle(fan, [1, 1, 1], "min")
    assert is_balanced(cycle)
    perturbed = make_cycle(fan, [2, 1, 1], "min")
    assert not is_balanced(perturbed)
    report(2, "manual tropical line balanced; perturbed weights unbalanced",
           started, 1.0)


def test_criterion_3_prevariety_vs_variety():
    started = time.monotonic()
    vs = ("x", "y", "z")
    f = P("x+y+z", vs)
    g = P("x^2+y^2+z^2", vs)
    pre = tropical_prevariety([f, g])
    assert fan_dim(pre) == 2
    variety = tropical_variety(ideal(vs, (f, g)))
    assert fan_dim(variety.fan) == 1
    assert not is_tropical_basis([f, g])
    assert variety.fan.maximal_cones == ((),)
    assert variety.fan.rays.ncols == 0
    assert variety.fan.lineality.columns() == [(1, 1, 1)]
    assert variety.multiplicities == (2,)
    report(3, "prevariety dim 2, variety dim 1 with cell span(1,1,1) "
              "of multiplicity 2, not a tropical basis", started, 60.0)


def test_criterion_4_tropical_bezout():
    started = time.monotonic()
    vs = ("x", "y", "z")
    deg1 = groebner_route_variety(ideal(vs, (P("x+2*y+3*z", vs),)))
    deg2 = groebner_route_variety(ideal(vs, (P("x^2+5*y^2+7*z^2", vs),)))
    got = stable_intersection(deg1, deg2)
    assert got.fan.rays.ncols == 0
    assert got.fan.maximal_cones == ((),)
    assert got.fan.lineality.columns() == [(1, 1, 1)]
    assert got.multiplicities == (2,)
    line = tropical_variety(ideal(("x", "y"), (P("x+y+1", ("x", "y")),)))
    self_int = stable_intersection(line, line)
    assert self_int.fan.maximal_cones == ((),)
    assert self_int.fan.rays.ncols == 0
    assert self_int.fan.lineality.ncols == 0
    assert self_int.multiplicities == (1,)
    report(4, "line x conic stably meet in the origin with multiplicity 2; "
              "line self-intersection has multiplicity 1", started, 30.0)


def test_criterion_5_balancing_over_prime_corpus():
    started = time.monotonic()
    assert len(PRIME_CORPUS) >= 8
    for entry in PRIME_CORPUS:
        cycle = groebner_route_variety(entry.ideal())
        assert is_balanced(cycle), entry.name
    report(5, f"all {len(PRIME_CORPUS)} prime-corpus varieties balanced",
           started, 600.0)


def test_criterion_6_hypersurface_membership_oracle():
    started = time.monotonic()
    assert len(ORACLE_POLYNOMIALS) == 10
    rng = random.Random(2024)
    checked = 0
    for vs, text in ORACLE_POLYNOMIALS:
        f = P(text, vs)
        fan = tropical_variety(ideal(vs, (f,))).fan
        for _ in range(1000):
            w = tuple(Fraction(rng.randint(-10 ** 4, 10 ** 4),
                               rng.randint(1, 8)) for _ in vs)
            assert support_contains(fan, w) == optimum_attained_twice(f, w), \
                (text, w)
            checked += 1
    assert checked == 10000
    report(6, "fan membership agrees with the twice-attained-optimum test "
              "on 10 polynomials x 1000 points", started, 600.0)


def test_criterion_7_principal_ideal_consistency():
    started = time.monotonic()
    assert len(PRINCIPAL_POLYNOMIALS) == 10
    for vs, text in PRINCIPAL_POLYNOMIALS:
        f = P(text, vs)
        spec = ideal(vs, (f,))
        via_groebner = groebner_route_variety(spec)
        via_newton = tropical_variety(spec)
        assert via_groebner == via_newton, text
        # multiplicities match the lattice lengths of the dual Newton edges
        n = len(vs)
        supp = f.support()
        verts = newton_polytope(f)
        edge_weights = {}
        for i, vi in enumerate(verts):
            for vj in verts[i + 1:]:
                rows = [tuple(u[k] - vi[k] for k in range(n)) for u in supp]
                cone = cone_from_halfspaces(
                    rows, [tuple(vi[k] - vj[k] for k in range(n))], n)
                if cone.dim == n - 1:
                    key = (cone.rays.entries, cone.lineality.entries)
                    edge_weights[key] = edge_lattice_length(vi, vj)
        got = {}
        for cone, m in zip(via_groebner.fan.cones,
                           via_groebner.multiplicities):
            got[(cone.rays.entries, cone.lineality.entries)] = m
        assert got == edge_weights, text
    report(7, "Groebner pipeline and Newton fast path agree on 10 principal "
              "ideals, weights = edge lattice lengths", started, 600.0)


def test_criterion_8_groebner_fan_tiling():
    started = time.monotonic()
    rng = random.Random(777)
    for entry in PRIME_CORPUS:
        spec_h = homogenize(entry.ideal())
        cones = [c for _, c in groebner_fan(spec_h)]
        n = len(spec_h.variables)
        rows_per_cone = [list(c.inequalities.entries) for c in cones]
        assert all(c.equations.nrows == 0 for c in cones)
        for _ in range(10 ** 4):
            w = tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(n))
            closures = 0
            interiors = 0
            for rows in rows_per_cone:
                inside = True
                strict = True
                for a in rows:
                    s = sum(x * y for x, y in zip(a, w))
                    if s < 0:
                        inside = strict = False
                        break
                    if s == 0:
                        strict = False
                if inside:
                    closures += 1
                    if strict:
                        interiors += 1
            assert closures >= 1, (entry.name, w)
            assert interiors == 1, (entry.name, w)
    report(8, "10^4 seeded points per corpus ideal each interior to exactly "
              "one maximal Groebner cone", started, 600.0)


def test_criterion_9_seeded_determinism(tmp_path, capsys):
    started = time.monotonic()
    outputs = {}
    for round_no in range(2):
        for entry in PRIME_CORPUS:
            path = tmp_path / f"{entry.name}.ideal"
            path.write_text("vars: " + ",".join(entry.variables) + "\n"
                            + "\n".join(entry.generators) + "\n")
            for command in (["variety", str(path), "--format", "json",
                             "--seed", "0"],
                            ["prevariety", str(path), "--format", "json",
                             "--seed", "0"],
                            ["is-tropical-basis", str(path), "--format",
                             "json", "--seed", "0"]):
                assert main(command) == 0
                out = capsys.readouterr().out
                key = (entry.name, command[0])
                if round_no == 0:
                    outputs[key] = out
                else:
                    assert outputs[key] == out, key
        line = tmp_path / "line.json"
        conic = tmp_path / "conic.json"
        li = tmp_path / "li.ideal"
        co = tmp_path / "co.ideal"
        li.write_text("vars: x,y,z\nx+y+z\n")
        co.write_text("vars: x,y,z\nx^2+y^2+z^2\n")
        assert main(["variety", str(li), "--format", "json",
                     "--out", str(line)]) == 0
        assert main(["variety", str(co), "--format", "json",
                     "--out", str(conic)]) == 0
        capsys.readouterr()
        assert main(["stable-intersection", str(line), str(conic),
                     "--seed", "0", "--format", "json"]) == 0
        out = capsys.readouterr().out
        key = ("bezout", "stable-intersection")
        if round_no == 0:
            outputs[key] = out
            assert json.loads(out)["multiplicities"] == [2]
        else:
            assert outputs[key] == out
    report(9, "byte-identical JSON across repeated seeded runs of every "
              "corpus command", started, 600.0)

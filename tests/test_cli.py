import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from tropfan.cli import COMMANDS, build_parser, main, read_ideal_file
from tropfan.cycles import cycle_to_dict, make_cycle
from tropfan.errors import IdealFileError
from tropfan.fans import cone_from_generators, fan_from_cones


@pytest.fixture
def line_ideal(tmp_path):
    path = tmp_path / "line.ideal"
    path.write_text("# the standard tropical line\nvars: x,y\nx+y+1\n")
    return str(path)


@pytest.fixture
def example3_ideal(tmp_path):
    path = tmp_path / "e3.ideal"
    path.write_text("vars: x,y,z\nx+y+z\nx^2+y^2+z^2\n")
    return str(path)


@pytest.fixture
def non_pure_ideal(tmp_path):
    # a plane union a line: components of dimensions 2 and 1
    path = tmp_path / "non_pure.ideal"
    path.write_text("vars: x,y,z\n(x+y+z+1)*(x-2)\n(x+y+z+1)*(y-3)\n")
    return str(path)


def line_cycle_dict(mults=(1, 1, 1)):
    cones = [cone_from_generators([r], [], 2)
             for r in [(1, 0), (0, 1), (-1, -1)]]
    fan, _ = fan_from_cones(2, cones)
    return cycle_to_dict(make_cycle(fan, mults, "min"))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVarietyCommand:
    def test_text_output(self, capsys, line_ideal):
        code, out, _ = run(capsys, ["variety", line_ideal])
        assert code == 0
        assert "| -1 0 1 |" in out
        assert "| -1 1 0 |" in out
        assert "maxCones: {{0}, {1}, {2}}" in out
        assert "multiplicities: {1, 1, 1}" in out
        assert "dim: 1" in out
        assert "balanced: true" in out

    def test_json_round_trip(self, capsys, line_ideal, tmp_path):
        out_path = tmp_path / "line.json"
        code, _, _ = run(capsys, ["variety", line_ideal, "--format", "json",
                                  "--out", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["rays"] == [[-1, -1], [0, 1], [1, 0]]
        assert data["multiplicities"] == [1, 1, 1]
        assert data["dim"] == 1
        assert data["pure"] is True

    def test_not_prime_flag_is_a_usage_error(self, capsys, example3_ideal):
        with pytest.raises(SystemExit) as e:
            main(["variety", example3_ideal, "--not-prime"])
        assert e.value.code == 2
        assert "--not-prime" in capsys.readouterr().err
        # the non-prime example is computed without any flag
        code, out, _ = run(capsys, ["variety", example3_ideal,
                                    "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["lineality"] == [[1, 1, 1]]
        assert data["maximal_cones"] == [[]]
        assert data["multiplicities"] == [2]
        assert data["dim"] == 1

    # sha256 of the whole output, recorded while non-pure results were a
    # separate class
    @pytest.mark.parametrize("fmt,digest", [
        ("text", "a9250576ed6581996eec14e2f19b54820d272387b35190b18f46ac7a11be4f21"),
        ("json", "92ecbf84b0469e84f24898b8d6b2f9a54ff3e20b0edd7a26dec5f5e5db4ee3fb"),
    ])
    def test_non_pure_output_is_pinned(self, capsys, non_pure_ideal, fmt,
                                       digest):
        code, out, _ = run(capsys, ["variety", non_pure_ideal,
                                    "--format", fmt])
        assert code == 0
        if fmt == "text":
            assert out.endswith("dim: 2\npure: false\nbalanced: n/a\n")
        else:
            assert json.loads(out)["pure"] is False
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unit_ideal_exits_one(self, capsys, tmp_path):
        path = tmp_path / "unit.ideal"
        path.write_text("vars: x,y\n1\n")
        code, _, err = run(capsys, ["variety", str(path)])
        assert code == 1
        assert "error" in err


class TestPrevarietyCommand:
    def test_example3(self, capsys, example3_ideal):
        code, out, _ = run(capsys, ["prevariety", example3_ideal,
                                    "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 2
        assert "multiplicities" not in data

    def test_basis_command(self, capsys, example3_ideal, line_ideal):
        # --max is accepted and does not change the answer
        for flags in ([], ["--max"]):
            code, out, _ = run(capsys, ["is-tropical-basis", example3_ideal]
                               + flags)
            assert code == 0
            assert out == "false\n"
            code, out, _ = run(capsys, ["is-tropical-basis", line_ideal] + flags)
            assert code == 0
            assert out == "true\n"


class TestBalanceCommand:
    def test_balanced_cycle(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(line_cycle_dict()))
        code, out, _ = run(capsys, ["is-balanced", str(path)])
        assert code == 0
        assert out == "true\n"

    def test_unbalanced_cycle(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(line_cycle_dict((2, 1, 1))))
        code, out, _ = run(capsys, ["is-balanced", str(path)])
        assert code == 0
        assert out == "false\n"

    def test_schema_error_exit_two(self, capsys, tmp_path):
        bad = line_cycle_dict()
        bad["multiplicities"] = [1, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, ["is-balanced", str(path)])
        assert code == 2
        assert "multiplicities" in err

    def test_non_pure_request_exit_one(self, capsys, tmp_path):
        non_pure = {
            "convention": "min",
            "ambient_dim": 2,
            "rays": [[-1, -1], [0, 1], [1, 0]],
            "lineality": [],
            "maximal_cones": [[0], [1, 2]],
            "multiplicities": [1, 1],
            "dim": 2,
            "pure": False,
        }
        path = tmp_path / "np.json"
        path.write_text(json.dumps(non_pure))
        code, _, err = run(capsys, ["is-balanced", str(path)])
        assert code == 1
        assert "pure" in err

    def test_convention_mismatch_exit_one(self, capsys, tmp_path):
        d = line_cycle_dict()
        d["convention"] = "max"
        path = tmp_path / "maxcycle.json"
        path.write_text(json.dumps(d))
        code, _, err = run(capsys, ["is-balanced", str(path)])
        assert code == 1
        assert "convention" in err
        code, out, _ = run(capsys, ["is-balanced", str(path), "--max"])
        assert code == 0


# Balanced cycles, each with one JSON boolean where the schema wants an
# integer; read as 1 and 0 they would pass for valid cycles.
BOOLEAN_ENTRY_CYCLES = {
    "ambient_dim": {"ambient_dim": True, "rays": [[1], [-1]],
                    "lineality": [], "maximal_cones": [[0], [1]],
                    "multiplicities": [1, 1]},
    "rays": {"ambient_dim": 2, "rays": [[True, 0], [-1, 0]],
             "lineality": [[0, 1]], "maximal_cones": [[0], [1]],
             "multiplicities": [1, 1]},
    "lineality": {"ambient_dim": 2, "rays": [[1, 0], [-1, 0]],
                  "lineality": [[0, True]], "maximal_cones": [[0], [1]],
                  "multiplicities": [1, 1]},
    "maximal_cones": {"ambient_dim": 2, "rays": [[1, 0], [-1, 0]],
                      "lineality": [[0, 1]],
                      "maximal_cones": [[False], [1]],
                      "multiplicities": [1, 1]},
    "multiplicities": {"ambient_dim": 2, "rays": [[1, 0], [-1, 0]],
                       "lineality": [[0, 1]], "maximal_cones": [[0], [1]],
                       "multiplicities": [True, 1]},
}


class TestCycleFileValidation:
    @pytest.mark.parametrize("field", sorted(BOOLEAN_ENTRY_CYCLES))
    def test_json_boolean_is_not_an_integer(self, capsys, tmp_path, field):
        data = dict(BOOLEAN_ENTRY_CYCLES[field], convention="min")
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["is-balanced", str(path)])
        assert code == 2
        assert out == ""
        assert field in err

    def test_zero_ray_exit_two(self, capsys, tmp_path):
        data = {"convention": "min", "ambient_dim": 2,
                "rays": [[1, 0], [-1, 0], [0, 0]], "lineality": [[0, 1]],
                "maximal_cones": [[0, 2], [1]], "multiplicities": [1, 1]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["is-balanced", str(path)])
        assert code == 2
        assert out == ""
        assert "rays" in err


class TestStableIntersectionCommand:
    def test_bezout_session(self, capsys, tmp_path):
        line_ideal = tmp_path / "deg1.ideal"
        line_ideal.write_text("vars: x,y,z\nx+y+z\n")
        conic_ideal = tmp_path / "deg2.ideal"
        conic_ideal.write_text("vars: x,y,z\nx^2+y^2+z^2\n")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["variety", str(line_ideal), "--format", "json",
                     "--out", str(a)]) == 0
        assert main(["variety", str(conic_ideal), "--format", "json",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["stable-intersection", str(a), str(b),
                                    "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["rays"] == []
        assert data["maximal_cones"] == [[]]
        assert data["multiplicities"] == [2]
        assert data["lineality"] == [[1, 1, 1]]

    def test_seed_determinism(self, capsys, tmp_path):
        # --seed is still parsed and has no effect: nothing is drawn
        path = tmp_path / "line.json"
        path.write_text(json.dumps(line_cycle_dict()))
        outputs = set()
        for seed in ("5", "990257"):
            code, out, _ = run(capsys, ["stable-intersection", str(path),
                                        str(path), "--seed", seed,
                                        "--format", "json"])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_displacement_on_a_wall_is_redrawn(self, capsys, tmp_path):
        # seed 990257 drew (-928225, -928225) first when the displacement
        # was random, on the ray (-1, -1) of the first line: a wall, which
        # was redrawn. The moment curve lies on no wall, and the weight is
        # the Bezout number 2 whatever --seed says
        paths = []
        for label, poly in (("L1", "x+y+1"), ("L2", "x*y+x+1")):
            paths.append(str(tmp_path / f"{label}.json"))
            assert main(["hypersurface", poly, "--vars", "x,y", "--format",
                         "json", "--out", paths[-1]]) == 0
        outputs = []
        for seed in ("990257", "0"):
            code, out, _ = run(capsys, ["stable-intersection", *paths,
                                        "--format", "json", "--seed", seed])
            assert code == 0
            outputs.append(out)
        assert json.loads(outputs[0])["multiplicities"] == [2]
        assert outputs[0] == outputs[1]

    def test_non_pure_cycle_exits_one(self, capsys, tmp_path):
        # the variety of <(x-1)(y-1), (x-1)(z-1)>, the plane x = 1 and the
        # line y = z = 1, has cells of dimensions 1 and 2; the x-axis
        # component's contribution was once dropped without a word
        ideal_path = tmp_path / "mixed.ideal"
        ideal_path.write_text("vars: x,y,z\n(x-1)*(y-1)\n(x-1)*(z-1)\n")
        mixed, plane = str(tmp_path / "mixed.json"), str(tmp_path / "h.json")
        assert main(["variety", str(ideal_path), "--format", "json",
                     "--out", mixed]) == 0
        assert main(["hypersurface", "x+y+z+1", "--vars", "x,y,z",
                     "--format", "json", "--out", plane]) == 0
        capsys.readouterr()
        for paths in ((mixed, plane), (plane, mixed)):
            code, out, err = run(capsys, ["stable-intersection", *paths])
            assert code == 1
            assert out == ""
            assert "pure" in err

    def test_points_of_the_zero_dimensional_space(self, capsys, tmp_path):
        # in R^0 the only shift is the zero vector, and every span fills R^0
        paths = []
        for weight in (2, 3):
            paths.append(tmp_path / f"point{weight}.json")
            paths[-1].write_text(json.dumps({
                "convention": "min", "ambient_dim": 0, "rays": [],
                "lineality": [], "maximal_cones": [[]],
                "multiplicities": [weight]}))
        code, out, err = run(capsys, ["stable-intersection", *map(str, paths),
                                      "--format", "json"])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["ambient_dim"] == 0
        assert data["maximal_cones"] == [[]]
        assert data["multiplicities"] == [6]

    def test_env_seed(self, capsys, tmp_path, monkeypatch):
        # TROP_SEED is no longer read: an unparsable value, which once
        # exited 2, changes nothing
        path = tmp_path / "line.json"
        path.write_text(json.dumps(line_cycle_dict()))
        code, out_plain, _ = run(capsys, ["stable-intersection", str(path),
                                          str(path), "--format", "json"])
        assert code == 0
        monkeypatch.setenv("TROP_SEED", "not-a-number")
        code, out_env, err = run(capsys, ["stable-intersection", str(path),
                                          str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert out_env == out_plain


class TestEvalCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, ["eval", "x+y+1", "--vars", "x,y",
                                    "--point", "2,3"])
        assert code == 0
        assert out == "0\n"
        code, out, _ = run(capsys, ["eval", "x+y+1", "--vars", "x,y",
                                    "--point=-1,-4"])
        assert out == "-4\n"
        code, out, _ = run(capsys, ["eval", "x+y+1", "--vars", "x,y",
                                    "--point", "1/2,3", "--format", "json"])
        assert json.loads(out) == {"value": "0"}

    def test_max_convention(self, capsys):
        code, out, _ = run(capsys, ["eval", "x+y+1", "--vars", "x,y",
                                    "--point", "2,3", "--max"])
        assert out == "3\n"

    def test_point_of_the_wrong_length_exits_two(self, capsys):
        # a malformed point, not a domain error
        for point in ("--point=1", "--point=1,2,3"):
            code, out, err = run(capsys, ["eval", "x+y", "--vars", "x,y",
                                          point])
            assert code == 2
            assert out == ""
            assert "point" in err


class TestHypersurfaceCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, ["hypersurface", "x^2+y^2+z^2",
                                    "--vars", "x,y,z", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["multiplicities"] == [2, 2, 2]
        assert data["lineality"] == [[1, 1, 1]]

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, ["hypersurface", "x+q", "--vars", "x,y"])
        assert code == 2
        assert "unknown variable" in err

    def test_monomial_exit_one(self, capsys):
        code, _, err = run(capsys, ["hypersurface", "x^2", "--vars", "x,y"])
        assert code == 1

    def test_oversized_expansion_exits_two_at_once(self, capsys):
        # the expansion would not end; the parser refuses its first product
        # past the bound, at the '^'
        start = time.perf_counter()
        code, out, err = run(capsys, ["hypersurface", "(x+1)^99999999",
                                      "--vars", "x"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "too large to expand" in err and "position 6" in err

    def test_large_power_of_a_monomial(self, capsys):
        code, out, _ = run(capsys, ["hypersurface", "x^99999999+1",
                                    "--vars", "x", "--format", "json"])
        assert code == 0
        assert json.loads(out)["multiplicities"] == [99999999]

    def test_max_swaps_rays(self, capsys):
        code, out_min, _ = run(capsys, ["hypersurface", "x+y+1",
                                        "--vars", "x,y", "--format", "json"])
        code, out_max, _ = run(capsys, ["hypersurface", "x+y+1",
                                        "--vars", "x,y", "--format", "json",
                                        "--max"])
        rays_min = json.loads(out_min)["rays"]
        rays_max = json.loads(out_max)["rays"]
        assert sorted(rays_max) == sorted([[-r[0], -r[1]] for r in rays_min])


class TestJsonRoundTrips:
    def test_every_cycle_subcommand_round_trips(self, capsys, tmp_path,
                                                line_ideal, example3_ideal):
        from tropfan.cli import read_cycle
        from tropfan.cycles import cycle_from_dict
        from tropfan.polynomials import ideal as mk_ideal, parse_polynomial
        from tropfan.tropical import (
            tropical_hypersurface,
            tropical_prevariety,
            tropical_variety,
        )
        from tropfan.cli import read_ideal_file

        line_spec = read_ideal_file(line_ideal)
        e3_spec = read_ideal_file(example3_ideal)

        cases = [
            (["hypersurface", "x^2+y^2+z^2", "--vars", "x,y,z"],
             tropical_hypersurface(
                 parse_polynomial("x^2+y^2+z^2", ("x", "y", "z")))),
            (["variety", line_ideal], tropical_variety(line_spec)),
            (["variety", example3_ideal], tropical_variety(e3_spec)),
        ]
        for argv, expected in cases:
            out_path = tmp_path / "out.json"
            assert main(argv + ["--format", "json", "--out", str(out_path)]) == 0
            assert read_cycle(str(out_path)) == expected
        # prevariety serializes without weights and reads back as a fan
        out_path = tmp_path / "pre.json"
        assert main(["prevariety", example3_ideal, "--format", "json",
                     "--out", str(out_path)]) == 0
        fan = cycle_from_dict(json.loads(out_path.read_text()),
                              require_weights=False)
        assert fan == tropical_prevariety(list(e3_spec.generators))


class TestIdealFiles:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.ideal"
        path.write_text("\n# header\nvars: x , y\n\nx+y+1  # trailing\n")
        spec = read_ideal_file(str(path))
        assert spec.variables == ("x", "y")
        assert len(spec.generators) == 1

    def test_missing_header(self, tmp_path):
        path = tmp_path / "c.ideal"
        path.write_text("x+y+1\n")
        with pytest.raises(IdealFileError):
            read_ideal_file(str(path))

    def test_no_generators(self, tmp_path):
        path = tmp_path / "c.ideal"
        path.write_text("vars: x,y\n")
        with pytest.raises(IdealFileError):
            read_ideal_file(str(path))

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, ["variety", "/nonexistent.ideal"])
        assert code == 2

    @pytest.mark.parametrize("target", ["missing/out.txt", "."],
                             ids=["missing_directory", "directory"])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, monkeypatch,
                                     target):
        # a directory that does not exist, and a path that is a directory
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["hypersurface", "x+y+1", "--vars",
                                      "x,y", "--out", target])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_time_flag_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "line.ideal"
        path.write_text("vars: x,y\nx+y+1\n")
        code, out, err = run(capsys, ["variety", str(path), "--time"])
        assert code == 0
        assert "seconds elapsed" in err
        assert "seconds elapsed" not in out


class TestStartup:
    def test_cli_imports_no_dataclasses_inspect_or_typing(self):
        # -S: site preloads nothing, so every module found was imported by
        # tropfan.cli itself
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        code = ("import sys, tropfan.cli; print(sorted({'dataclasses', "
                "'inspect', 'typing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"


# one argv per subcommand, with shared and own options
REPRESENTATIVE_ARGVS = (
    ["hypersurface", "x^2+y^2+z^2", "--vars", "x,y,z", "--max"],
    ["variety", "line.ideal", "--format", "json", "--out", "o.json", "--time"],
    ["prevariety", "sys.ideal", "--seed", "3"],
    ["is-tropical-basis", "--max", "sys.ideal"],
    ["is-balanced", "cycle.json", "--format", "text"],
    ["stable-intersection", "a.json", "b.json", "--seed", "7"],
    ["eval", "x+y+1", "--vars", "x,y", "--point=-1,-4"],
)

USAGE_ERRORS = (
    ["varietyy", "line.ideal"],                  # an unknown subcommand
    ["--max", "variety", "line.ideal"],          # a leading option
    ["variety", "line.ideal", "--bogus"],        # a bad option
    ["variety", "line.ideal", "extra"],          # refused by the top parser
    ["variety", "line.ideal", "--format", "xml"],
    ["variety"],
    ["hypersurface"],
    ["hypersurface", "x+y"],
    ["eval", "x+y"],
    ["eval", "x+y", "--vars", "x,y", "--point"],
    [],
)


def exits(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


class TestLeanParser:
    """main builds only the subparser of the command it runs, and it parses,
    helps and refuses as the parser of all seven subcommands does."""

    def test_the_full_parser_has_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMANDS) == [
            argv[0] for argv in REPRESENTATIVE_ARGVS]

    @pytest.mark.parametrize("argv", REPRESENTATIVE_ARGVS,
                             ids=[argv[0] for argv in REPRESENTATIVE_ARGVS])
    def test_same_namespace(self, argv):
        assert build_parser(argv[0]).parse_args(argv) \
            == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [name, "--help"] for name in COMMANDS])
    def test_same_help(self, capsys, argv):
        got = exits(capsys, main, argv)
        assert got == exits(capsys, build_parser().parse_args, argv)
        assert got[0] == 0 and got[1].startswith("usage: tropfan ")

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_same_usage_errors(self, capsys, argv):
        got = exits(capsys, main, argv)
        assert got == exits(capsys, build_parser().parse_args, argv)
        assert got[0] == 2 and got[1] == "" and "error: " in got[2]

    def test_required_arguments_in_declaration_order(self, capsys):
        # a command's positionals come before its own options
        code, _, err = exits(capsys, main, ["eval"])
        assert code == 2
        assert err.endswith("tropfan eval: error: the following arguments "
                            "are required: poly, --vars, --point\n")

    def test_a_command_builds_one_subparser(self, capsys, monkeypatch):
        # tripwire: the full parser builds seven
        built = []
        original = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kw: built.append(name)
                            or original(self, name, **kw))
        monkeypatch.setattr(sys, "argv", ["tropfan", "eval", "x+y+1",
                                          "--vars", "x,y", "--point=-1,-4"])
        assert main() == 0
        assert capsys.readouterr().out == "-4\n"
        assert built == ["eval"]
        build_parser()
        assert built == ["eval"] + list(COMMANDS)

"""Command-line front end.

Subcommands mirror the library surface: hypersurface, variety, prevariety,
is-tropical-basis, is-balanced, stable-intersection, and eval. Text output
echoes the session accessor layout (rays as columns, brace lists); JSON output
is the canonical cycle schema with sorted keys and no whitespace variance.
Exit codes: 0 success, 1 domain error, 2 parse or usage error. A command
builds only its own subparser; --help, an unknown command or a leading option
gets the parser of all seven, with the same usage and errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import (
    ConventionMismatchError,
    DomainError,
    IdealFileError,
    InputError,
)
from .cycles import (
    TropicalCycle,
    cycle_from_dict,
    cycle_to_dict,
    fan_to_dict,
    is_balanced,
)
from .fans import Fan, fan_dim, is_pure
from .linalg import IntMatrix
from .polynomials import IdealSpec, parse_polynomial
from .tropical import (
    is_tropical_basis,
    stable_intersection,
    tropical_evaluate,
    tropical_hypersurface,
    tropical_prevariety,
    tropical_variety,
)


def read_ideal_file(path: str) -> IdealSpec:
    """Parse an ideal file: a `vars:` header line, then one generator per
    line; `#` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise IdealFileError(f"cannot read {path}: {e}") from e
    lines = []
    for line in raw.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise IdealFileError(f"{path}: empty ideal file")
    header = lines[0]
    if not header.lower().startswith("vars:"):
        raise IdealFileError(f"{path}: first line must be 'vars: x,y,...'")
    names = [v.strip() for v in header.split(":", 1)[1].split(",") if v.strip()]
    if not names:
        raise IdealFileError(f"{path}: no variables declared")
    gens = []
    for line in lines[1:]:
        gens.append(parse_polynomial(line, names))
    if not gens:
        raise IdealFileError(f"{path}: no generators")
    return IdealSpec(tuple(names), tuple(gens))


def _matrix_block(m: IntMatrix) -> str:
    if m.ncols == 0 or m.nrows == 0:
        return "(none)"
    return "\n".join("| " + " ".join(str(x) for x in row) + " |"
                     for row in m.entries)


def _brace_list(items) -> str:
    return "{" + ", ".join(items) + "}"


def format_session(obj) -> str:
    """Human-readable block mirroring the rays/maxCones accessor layout."""
    fan = obj if isinstance(obj, Fan) else obj.fan
    lines = ["rays:", _matrix_block(fan.rays),
             "lineality:", _matrix_block(fan.lineality),
             "maxCones: " + _brace_list(
                 _brace_list(str(i) for i in cone) for cone in fan.maximal_cones)]
    if not isinstance(obj, Fan):
        lines.append("multiplicities: " + _brace_list(
            str(m) for m in obj.multiplicities))
    lines.append(f"dim: {fan_dim(fan)}")
    lines.append(f"pure: {'true' if is_pure(fan) else 'false'}")
    if isinstance(obj, TropicalCycle):
        if not obj.pure:
            lines.append("balanced: n/a")
        else:
            lines.append(f"balanced: {'true' if is_balanced(obj) else 'false'}")
    return "\n".join(lines) + "\n"


def dumps_canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def format_output(obj, fmt: str, convention: str) -> str:
    if fmt == "json":
        if isinstance(obj, Fan):
            return dumps_canonical(fan_to_dict(obj, convention))
        if isinstance(obj, TropicalCycle):
            return dumps_canonical(cycle_to_dict(obj))
        if isinstance(obj, bool):
            return dumps_canonical({"value": obj})
        if isinstance(obj, Fraction):
            return dumps_canonical({"value": str(obj)})
        raise TypeError(f"cannot format {type(obj)!r}")
    if isinstance(obj, (Fan, TropicalCycle)):
        return format_session(obj)
    if isinstance(obj, bool):
        return ("true" if obj else "false") + "\n"
    if isinstance(obj, Fraction):
        return str(obj) + "\n"
    raise TypeError(f"cannot format {type(obj)!r}")


def read_cycle(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise IdealFileError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise IdealFileError(f"{path}: invalid JSON: {e}") from e
    return cycle_from_dict(data)


def _check_convention(obj, convention: str) -> None:
    if obj.convention != convention:
        raise ConventionMismatchError(
            f"input uses the {obj.convention} convention but the session "
            f"is {convention} (use --max to switch)")


def _parse_point(text: str):
    coords = []
    for part in text.split(","):
        try:
            coords.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise IdealFileError(f"bad rational coordinate {part.strip()!r}")
    return tuple(coords)


def _parse_vars(text: str):
    return tuple(v.strip() for v in text.split(",") if v.strip())


# name: (help, positionals, required options as (flag, help)), each taking
# the shared options of build_parser before its own
COMMANDS = {
    "hypersurface": ("tropical hypersurface of one polynomial", ("poly",),
                     (("--vars", "comma-separated names"),)),
    "variety": ("tropical variety of an ideal file", ("ideal_file",), ()),
    "prevariety": ("tropical prevariety of an ideal file", ("ideal_file",),
                   ()),
    "is-tropical-basis": ("do the generators cut out the tropical variety?",
                          ("ideal_file",), ()),
    "is-balanced": ("check the balancing condition of a cycle file",
                    ("cycle_file",), ()),
    "stable-intersection": ("stable intersection of two cycle files",
                            ("cycle_a", "cycle_b"), ()),
    "eval": ("evaluate the tropicalization at a point", ("poly",),
             (("--vars", None),
              ("--point", "comma-separated rational coordinates; use "
                          "--point=-1,-4 for a leading minus"))),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone, which parses
    its argv and prints its help and errors as the full one does. The
    subparsers copy the shared options from a parent: argparse builds a
    help formatter per add_argument call, so adding them to each costs more."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max", action="store_true",
                        help="use the max convention (default: min)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH",
                        help="write the result to a file instead of stdout")
    common.add_argument("--seed", type=int, default=None,
                        help="no effect: stable intersection draws nothing")
    common.add_argument("--time", action="store_true",
                        help="report elapsed wall time on stderr")
    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="Exact tropical geometry over Q with trivial valuation.")
    # the lean usage lists every subcommand; the full parser keeps the
    # default, which its invalid-choice error names `command`
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, positionals, options = COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        for dest in positionals:
            p.add_argument(dest)
        for flag, option_help in options:
            p.add_argument(flag, required=True, help=option_help)
    return parser


def dispatch(args) -> str:
    convention = "max" if args.max else "min"
    if args.command == "hypersurface":
        f = parse_polynomial(args.poly, _parse_vars(args.vars))
        return format_output(tropical_hypersurface(f, convention),
                             args.format, convention)
    if args.command == "variety":
        spec = read_ideal_file(args.ideal_file)
        cycle = tropical_variety(spec, convention=convention)
        return format_output(cycle, args.format, convention)
    if args.command == "prevariety":
        spec = read_ideal_file(args.ideal_file)
        fan = tropical_prevariety(list(spec.generators), convention)
        return format_output(fan, args.format, convention)
    if args.command == "is-tropical-basis":
        spec = read_ideal_file(args.ideal_file)
        return format_output(is_tropical_basis(list(spec.generators)),
                             args.format, convention)
    if args.command == "is-balanced":
        cycle = read_cycle(args.cycle_file)
        _check_convention(cycle, convention)
        return format_output(is_balanced(cycle), args.format, convention)
    if args.command == "stable-intersection":
        a = read_cycle(args.cycle_a)
        b = read_cycle(args.cycle_b)
        _check_convention(a, convention)
        _check_convention(b, convention)
        return format_output(stable_intersection(a, b),
                             args.format, convention)
    if args.command == "eval":
        f = parse_polynomial(args.poly, _parse_vars(args.vars))
        point = _parse_point(args.point)
        if len(point) != len(f.variables):
            raise IdealFileError("point dimension mismatch")
        value = tropical_evaluate(f, point, convention)
        return format_output(value, args.format, convention)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    started = time.monotonic()
    try:
        output = dispatch(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if getattr(args, "time", False):
            elapsed = time.monotonic() - started
            print(f"-- {elapsed:.6f} seconds elapsed", file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

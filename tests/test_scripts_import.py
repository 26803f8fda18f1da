"""The scripts under scripts/ import the library by name but are not part
of the package, so this imports each one without running its main: a
rename or deletion in the library fails the fast suite instead of breaking
a script. The sessions script is also run in process, and the lines that
read the prevariety, the tropical-basis check and the stable intersection
are checked."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["corpus_report", "reproduce_sessions"])
def test_script_imports(name):
    load(name)


def test_reproduce_sessions_runs(capsys):
    sessions = load("reproduce_sessions")
    sessions.session_1_tropical_line()
    sessions.session_2_manual_cycle()
    sessions.session_3_prevariety_vs_variety()
    sessions.session_4_bezout()
    lines = capsys.readouterr().out.splitlines()
    for line in ("weights {1,1,1} balanced: True",
                 "weights {2,1,1} balanced: False",
                 "isTropicalBasis: False", "dim prevariety: 2",
                 "dim variety: 1", "total multiplicity: 2"):
        assert line in lines

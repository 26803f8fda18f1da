"""The scripts under scripts/ import the library by name but no test runs
them, so this imports each one without running its main: a rename or
deletion in the library fails the fast suite instead of breaking a script."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["corpus_report", "reproduce_sessions"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

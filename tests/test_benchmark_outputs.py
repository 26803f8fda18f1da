"""Every command of the benchmark's three workloads, run in this process
through the CLI and checked against the benchmark's stored references.

The workloads give each ideal file and --vars list a permuted variable
order, drawn from a seed, and map each output back before comparing it, so
this pins the hypersurface, stable-intersection, is-balanced and prevariety
outputs, which no golden covers, under a permutation of the variables. The
benchmark's run.py is loaded as it is, without writing bytecode next to it;
it imports its sibling tracer.py, so its directory goes on sys.path.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tropfan.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
# not the identity order: the benchmark's references come from seed None
SEED = 3


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look the defining module up in sys.modules
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("workload", ["variety", "basis", "intersect"])
def test_workload_outputs_match_the_references(bench, workload, tmp_path,
                                               monkeypatch):
    references = json.loads(bench.REFERENCES.read_text(encoding="utf-8"))
    ops, files = bench.build_ops(workload, SEED)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    problems = {}
    for op in ops:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(op.argv) == 0, op.name
        if op.save_as is not None:
            (tmp_path / op.save_as).write_text(out.getvalue(),
                                               encoding="utf-8")
        problem = bench.check_output(op, out.getvalue(),
                                     references[workload][op.name])
        if problem is not None:
            problems[op.name] = problem
    assert problems == {}

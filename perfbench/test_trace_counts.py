"""Repeatability of the traced per-layer counts, and today's pinned counts.

Run from the root of a checkout: python3 -m pytest perfbench -q
It takes a few minutes: two traced `basis` runs and one traced command.
The pinned counts are baselines that later changes are expected to move on
purpose (computing the Gröbner fan once in is_tropical_basis, the tropical
traversal); such a change updates them here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def traced_run(workload: str, seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def calls(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls")}


def test_calls_repeat_and_match_the_benchmark_spec():
    first = traced_run("basis", 1, hash_seed=1)
    second = traced_run("basis", 1, hash_seed=2)
    assert first["correct"] and second["correct"]
    assert calls(first) == calls(second)
    # is_tropical_basis computes the Gröbner fan twice per command
    assert first["metrics"]["groebner.groebner_fan.calls"]["value"] == 8

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {k: v["unit"] for k, v in first["metrics"].items()}
    assert declared == reported
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END.items())


def test_space_conic_walks_16_groebner_cones(tmp_path):
    ops, files = run.build_ops("variety", None)
    op = next(o for o in ops if o.name == "space_conic")
    (tmp_path / "space_conic.ideal").write_text(files["space_conic.ideal"])
    record, problem = run.run_child(op, tmp_path, True, None, 170)
    assert problem is None and record["rc"] == 0, record
    assert record["layers"]["groebner.groebner_fan.calls"] == 1
    assert record["layers"]["groebner.groebner_fan.cones"] == 16

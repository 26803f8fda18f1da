#!/usr/bin/env python3
"""Write references.json: every command's output at the identity variable
order (and displacement seed 0), re-canonicalized as run.py compares it.

Usage, from the root of a checkout: python3 perfbench/make_references.py
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    references = {}
    workdir = run.WORK / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            ops, files = run.build_ops(workload, None)
            for name, text in files.items():
                (workdir / name).write_text(text, encoding="utf-8")
            outputs = {}
            for op in ops:
                record, problem = run.run_child(op, workdir, False, None, 600)
                if record is None or record["rc"] != 0:
                    print(f"{workload}/{op.name} failed: "
                          f"{problem or record['stderr']}", file=sys.stderr)
                    return 1
                if op.save_as is not None:
                    (workdir / op.save_as).write_text(record["stdout"],
                                                      encoding="utf-8")
                outputs[op.name] = run.canonical(op, record["stdout"])
                if outputs[op.name] != record["stdout"]:
                    print(f"note: {workload}/{op.name} output was not "
                          "canonical", file=sys.stderr)
            references[workload] = outputs
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one tropfan CLI command in this fresh interpreter and report on it.

Usage: python3 child.py '<json spec>'  (spec keys: argv, trace, spans)

The last line of stdout is a JSON record: setup_s (import tropfan.cli and
build the parser), op_s (time inside cli.main), rc, the command's stdout and
stderr, ru_maxrss and, when traced, the raw per-layer totals. The tropfan
package is found through PYTHONPATH, which the benchmark points at src/.
"""

import io
import json
import resource
import sys
import time
import traceback


def main() -> None:
    spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    from tropfan import cli
    cli.build_parser()
    setup_s = time.perf_counter() - started

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    real_stdout, real_stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as e:
        rc = e.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    finally:
        op_s = time.perf_counter() - started
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = real_stdout, real_stderr

    record = {
        "setup_s": setup_s,
        "op_s": op_s,
        "rc": rc,
        "stdout": out,
        "stderr": err,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        if spec["spans"]:
            tracer.write_spans(spec["spans"])
    print(json.dumps(record))


if __name__ == "__main__":
    main()

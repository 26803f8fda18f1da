"""The benchmark's tracer wraps library functions by name. It lives outside
the package, under perfbench/, and its own tests are slow, so this checks
here that every name it lists still resolves: a rename or deletion in the
library fails the fast suite instead of breaking a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = load_tracer()
    missing = []
    for qualified in tracer.function_names():
        layer, name = qualified.split(".")
        module = importlib.import_module(f"tropfan.{layer}")
        if not callable(getattr(module, name, None)):
            missing.append(qualified)
    assert missing == []
    owners = {owner for owner, _ in tracer.RESULT_COUNTERS.values()}
    assert owners <= set(tracer.function_names())


def test_fan_cone_cache_is_inspectable():
    fans = importlib.import_module("tropfan.fans")
    info = fans.fan_cone.cache_info()
    assert info.hits >= 0 and info.misses >= 0

"""Tripwire against library code nothing calls. A module-level function or
class of src/tropfan must be referenced by some library module, exported
by tropfan/__init__.py, or read by the benchmark's tracer
(perfbench/tracer.py); code that only the tests reach belongs in
tests/oracles.py. Everything is read with ast, so nothing is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropfan"
TRACER = ROOT / "perfbench" / "tracer.py"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def library_modules():
    return {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def names_used(tree, skip=None):
    """The names a module reads, outside the definition skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def imported(tree):
    """(module, name, local name) for each `from .module import name` of a
    module, wherever it stands."""
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def referenced(modules):
    """(module, name) pairs that some library module reads: by name in its
    own module, or through an import whose local name another one uses."""
    out = set()
    for stem, tree in modules.items():
        for node in definitions(tree):
            if node.name in names_used(tree, skip=node):
                out.add((stem, node.name))
        used = names_used(tree)
        for module, name, local in imported(tree):
            if local in used:
                out.add((module, name))
    return out


def exported(modules):
    return {(module, name) for module, name, _ in imported(modules["__init__"])}


def traced():
    """The names the tracer reads: the TRACED table, and every attribute it
    takes off a sys.modules["tropfan.<module>"] entry."""
    tree = parse(TRACER)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            for layer, names in ast.literal_eval(node.value).items():
                out.update((layer, name) for name in names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Subscript) \
                and isinstance(node.value.slice, ast.Constant) \
                and str(node.value.slice.value).startswith("tropfan."):
            out.add((node.value.slice.value.split(".", 1)[1], node.attr))
    return out


def test_every_library_definition_is_reached():
    modules = library_modules()
    reached = referenced(modules) | exported(modules) | traced()
    assert [f"{stem}.{node.name}" for stem, tree in modules.items()
            for node in definitions(tree)
            if (stem, node.name) not in reached] == []


def test_a_definition_only_tests_call_is_flagged():
    tree = ast.parse("def used():\n    pass\n\n\n"
                     "def unused():\n    return used()\n\n\n"
                     "def recursive():\n    return recursive()\n")
    modules = {"__init__": ast.parse("from .m import used\n"), "m": tree}
    reached = referenced(modules) | exported(modules)
    assert [n.name for n in definitions(tree)
            if ("m", n.name) not in reached] == ["unused", "recursive"]

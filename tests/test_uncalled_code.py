"""Tripwire against library code nothing calls. A module-level function or
class of src/tropfan must be referenced by some library module, exported
by tropfan/__init__.py, or read by the benchmark's tracer
(perfbench/tracer.py); code that only the tests reach belongs in
tests/oracles.py. A name tropfan/__init__.py exports must in turn be read
by another library module or the tracer, or be written in backticks in
README.md: an export that none of them names is a second name nobody
documents. The definitions that no export and no cli.main reach are kept
by the tracer's list alone; they are pinned, and each waits on the delete
list of the ROADMAP's benchmark item. Everything is read with ast, so
nothing is imported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropfan"
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
ROADMAP = ROOT / "ROADMAP.md"

# library definitions that only the tracer's list keeps
TRACER_ONLY = {
    "fans.all_faces", "fans.facets_with_normals", "fans.fan_cone",
    "groebner.normal_form", "groebner.s_polynomial",
    "linalg.det", "linalg.hnf_completion", "linalg.int_inverse",
}


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


def read_by_importers(modules):
    """(module, name) pairs that a library module imports and reads."""
    out = set()
    for tree in modules.values():
        used = names_used(tree)
        for module, name, local in imported(tree):
            if local in used:
                out.add((module, name))
    return out


def referenced(modules):
    """(module, name) pairs that some library module reads: by name in its
    own module, or through an import whose local name another one uses."""
    out = read_by_importers(modules)
    for stem, tree in modules.items():
        for node in definitions(tree):
            if node.name in names_used(tree, skip=node):
                out.add((stem, node.name))
    return out


def exported(modules):
    return {(module, name) for module, name, _ in imported(modules["__init__"])}


def reachable(modules):
    """(module, name) of the definitions that an export or cli.main reaches
    by name: a definition reaches those its body reads, in its own module or
    through its module's imports, and a module's statements outside its
    definitions, which run on import, reach what they read."""
    defs = {(stem, node.name): node for stem, tree in modules.items()
            for node in definitions(tree)}
    aliases = {stem: {local: (module, name)
                      for module, name, local in imported(tree)}
               for stem, tree in modules.items()}

    def reads(stem, node):
        return [(stem, name) if (stem, name) in defs else aliases[stem][name]
                for name in names_used(node)
                if (stem, name) in defs or name in aliases[stem]]

    todo = [*exported(modules), ("cli", "main")]
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo.extend(reads(stem, node))
    seen = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in seen:
            seen.add(key)
            todo.extend(reads(key[0], defs[key]))
    return seen


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


def documented():
    """The identifiers written in backticks in the README: in inline code,
    and in fenced code blocks, which a run of three backticks closes."""
    spans = re.findall(r"(`+)(.+?)\1", README.read_text(), re.S)
    return {name for _, span in spans
            for name in re.findall(r"[A-Za-z_]\w*", span)}


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


def test_every_export_is_read_or_documented():
    modules = library_modules()
    reached = read_by_importers(modules) | traced()
    readme = documented()
    assert sorted(name for module, name in exported(modules)
                  if (module, name) not in reached
                  and name not in readme) == []


def test_tracer_only_definitions_are_pinned_and_listed_for_deletion():
    modules = library_modules()
    reached = reachable(modules)
    only = {f"{stem}.{node.name}" for stem, tree in modules.items()
            for node in definitions(tree) if (stem, node.name) not in reached}
    assert only == TRACER_ONLY
    # the tracer lists each one but det, which hnf_completion calls
    assert only - {f"{m}.{n}" for m, n in traced()} == {"linalg.det"}
    text = ROADMAP.read_text()
    start = text.index("**Then delete.**")
    delete_list = text[start:text.index("\n8. ", start)]
    assert sorted(name for name in only
                  if f"`{name}`" not in delete_list) == []

"""Every function and class in the library has a caller outside the tests.

A reference route that only tests use, such as a closed form or a
canonical form that checks the library by an independent way, lives
under tests/ next to its checks, not in src/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a name, an attribute, an import, or
    a string (the benchmark's tracer wraps functions by name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_library_name_has_a_caller_outside_the_tests():
    modules = sorted((ROOT / "src" / "melonclass").glob("*.py"))
    callers = modules + sorted((ROOT / "benchmarks").rglob("*.py"))
    used = set().union(*(_names_used(ast.parse(path.read_text()))
                         for path in callers))
    defined = {(path.name, node.name)
               for path in modules
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined
    assert sorted(d for d in defined if d[1] not in used) == []


def test_melonic_imports_nothing_from_families():
    # the families are an independent route to the banana triples that
    # class_of builds from the single edge, so melonic must not read
    # them; and the necklace closed forms are checked against the fold,
    # so families must not read melonic either
    for module, other in (("melonic", "families"), ("families", "melonic")):
        tree = ast.parse((ROOT / "src" / "melonclass" / f"{module}.py")
                         .read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert imported and not [n for n in imported if other in n], module


def test_only_poly_decides_the_ring():
    # poly.ring picks the ring of every class route, its k and its
    # read-back; no other module names the threshold, the k rule or the
    # read-back
    ring_names = {"INT_FOLD_EDGES", "int_ring_bits", "from_value"}
    modules = sorted((ROOT / "src" / "melonclass").glob("*.py"))
    named = {path.name: _names_used(ast.parse(path.read_text())) & ring_names
             for path in modules}
    assert named.pop("poly.py") == ring_names
    assert {name: used for name, used in named.items() if used} == {}

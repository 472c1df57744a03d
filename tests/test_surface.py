"""The package carries no public surface that nothing reaches."""

import ast
import importlib
from pathlib import Path

import qx2src

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qx2src"


def _top_level_nodes(directory):
    """(file name, top-level statement) for every module in directory."""
    for path in sorted(directory.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            yield path.name, node


def _mentions(node):
    """Identifiers a statement uses: names, attributes, imports and strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value     # quoted annotations, the benchmark's LAYERS


def _attributes(node):
    """Attribute names a statement reads, and its strings (getattr's names)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_public_definition_is_reached():
    """Each public module-level function and class has a use in src/ or
    perfbench/ outside its own definition, or is declared in qx2src.__all__."""
    assert [name for name in qx2src.__all__ if not hasattr(qx2src, name)] == []
    package = list(_top_level_nodes(PACKAGE))
    mentions = [(node, set(_mentions(node)))
                for _, node in package + list(_top_level_nodes(ROOT / "perfbench"))]
    unreached = [
        f"{filename}:{node.name}" for filename, node in package
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in qx2src.__all__
        and not any(node.name in used for other, used in mentions if other is not node)]
    assert unreached == []


def test_every_public_method_is_reached():
    """Each public method of a package class is read as an attribute in src/
    or perfbench/ outside its own definition, or overrides a method of a
    base class."""
    package = list(_top_level_nodes(PACKAGE))
    nodes = [node for _, node in package + list(_top_level_nodes(ROOT / "perfbench"))]
    unreached = []
    for filename, cls in package:
        if not isinstance(cls, ast.ClassDef):
            continue
        module = importlib.import_module(f"qx2src.{Path(filename).stem}")
        bases = getattr(module, cls.name).__mro__[1:]
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("_") \
                    or any(method.name in vars(base) for base in bases):
                continue
            others = [node for node in nodes + cls.body if node not in (cls, method)]
            if not any(method.name in set(_attributes(node)) for node in others):
                unreached.append(f"{filename}:{cls.name}.{method.name}")
    assert unreached == []

"""Every public name in the package has a caller in the program itself.

A public top-level function or class of ``src/``, or a public method or
property of a public class, must be referenced somewhere in the code of
``src/`` or ``bench/`` outside its own definition.  References
from the tests do not count: a closed form or view that only a test reads
belongs in ``tests/oracles.py``, not in the package.

A private top-level function or class of ``src/`` must likewise be used
somewhere in ``src/`` outside its own definition, so that no helper outlives
its last caller.

A reference is a use of the name (``name`` or ``obj.name``); an import alone
is not one.  Names are matched without types, so a method shares a reference
with any attribute of the same name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conformal_v2v"
CALLER_DIRS = (ROOT / "src", ROOT / "bench")


def _definitions(tree: ast.Module, module: str, private: bool = False):
    """(qualified name, bare name, node) of each public definition, or with
    ``private`` of each private top-level function and class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") != private:
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef) and not private:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _uses(tree: ast.AST) -> Counter:
    """How often each name is used in ``tree``, as ``name`` or ``obj.name``."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def unreferenced(
    modules: dict[str, ast.Module], callers: list[ast.Module], private: bool = False
) -> list[str]:
    """Public (or with ``private``, private) definitions of ``modules`` that no
    code in ``callers`` uses, counting no use inside the definition itself."""
    used = sum((_uses(tree) for tree in callers), Counter())
    return [
        qualname
        for module, tree in modules.items()
        for qualname, name, node in _definitions(tree, module, private)
        if used[name] == _uses(node)[name]
    ]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = package_modules()
    callers = [
        parse(path)
        for folder in CALLER_DIRS
        for path in sorted(folder.rglob("*.py"))
        if path.parent != PACKAGE
    ]
    assert unreferenced(modules, [*modules.values(), *callers]) == []


def test_every_private_helper_has_a_caller_in_the_package():
    modules = package_modules()
    assert unreferenced(modules, list(modules.values()), private=True) == []


def test_a_name_used_only_by_its_own_definition_is_flagged():
    tree = ast.parse(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Box:\n"
        "    def read(self):\n        return self.read\n\n"
        "    def unused(self):\n        return None\n\n"
        "    def _private(self):\n        return None\n\n"
        "def _helper():\n    return _Kept()\n\n"
        "class _Kept:\n    pass\n\n"
        "def _orphan(n):\n    return _orphan(n - 1)\n"
    )
    other = ast.parse("from m import Box, _orphan\n")
    assert unreferenced({"m": tree}, [tree, other]) == [
        "m.used", "m.recursive", "m.Box", "m.Box.read", "m.Box.unused"
    ]
    assert unreferenced({"m": tree}, [tree, other], private=True) == [
        "m._helper", "m._orphan"
    ]

"""Dead-code guards: every module-level function or class in the package is
either public API (listed in ``__all__``) or used somewhere in the package
outside its own definition, and every module-level import outside
``__init__.py`` is used by its module. Methods are out of scope, and so are
module-level dunders such as a PEP 562 ``__getattr__``, which the
interpreter calls."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "majorbit"


def dead_names(package: Path) -> list[str]:
    """``module.name`` for each unreferenced module-level def or class."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    exported = set()
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))

    def references(tree, skip) -> set[str]:
        found, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
        return found

    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            if not any(node.name in references(other, node) for other in trees.values()):
                dead.append(f"{module}.{node.name}")
    return dead


def unused_imports(package: Path) -> list[str]:
    """``module.name`` for each module-level import (outside ``__init__``)
    that its module never references."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in used:
                        unused.append(f"{path.stem}.{name}")
    return unused


def test_no_unreferenced_module_level_names():
    assert dead_names(PACKAGE) == []


HELPERS = (
    "def api():\n    return used()\n\n"
    "def used():\n    return 1\n\n"
    "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
    "class Unused:\n    def method(self):\n        return Unused\n"
)


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "__init__.py").write_text('from .a import api\n__all__ = ["api"]\n')
    (tmp_path / "a.py").write_text(HELPERS)
    assert dead_names(tmp_path) == ["a.recursive", "a.Unused"]


def test_guard_skips_a_module_getattr(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .a import api\n__all__ = ["api"]\n\n'
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    (tmp_path / "a.py").write_text(HELPERS)
    assert dead_names(tmp_path) == ["a.recursive", "a.Unused"]


def test_no_unused_imports():
    assert unused_imports(PACKAGE) == []


def test_import_guard_flags_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import api\n")
    (tmp_path / "a.py").write_text(
        "import json\nimport os.path\nimport numpy as np\n"
        "from math import ceil, floor\n\n"
        "def api(x):\n    import sys\n    return os.path.join(str(floor(x)), sys.argv[0])\n"
    )
    assert unused_imports(tmp_path) == ["a.json", "a.np", "a.ceil"]

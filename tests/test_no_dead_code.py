"""Dead-code guards: every module-level function or class in the package is
either public API (listed in the ``_LAZY`` table of ``__init__.py`` or in a
literal ``__all__``) or used somewhere in the package outside its own
definition, every module-level import outside ``__init__.py``, in the
package and in ``tests/``, is used by its module, and every default-valued
parameter is passed by some call in ``src/`` or ``tests/``, and every
parameter of a private function or method is read by its body. The first
guard leaves out methods, and module-level dunders such as a PEP 562
``__getattr__``, which the interpreter calls."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "majorbit"


def dead_names(package: Path) -> list[str]:
    """``module.name`` for each unreferenced module-level def or class."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    exported = set()
    for node in trees["__init__"].body:
        targets = {target.id for target in getattr(node, "targets", ())
                   if isinstance(target, ast.Name)}
        if "_LAZY" in targets:  # module -> the names it exports
            exported.update(*ast.literal_eval(node.value).values())
        elif "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
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


def test_guard_reads_a_lazy_table(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '_LAZY = {"a": ("api",)}\n\n'
        "__all__ = [name for names in _LAZY.values() for name in names]\n"
    )
    (tmp_path / "a.py").write_text(HELPERS)
    assert dead_names(tmp_path) == ["a.recursive", "a.Unused"]


def test_no_unused_imports():
    assert unused_imports(PACKAGE) == []
    assert unused_imports(ROOT / "tests") == []


def test_import_guard_flags_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import api\n")
    (tmp_path / "a.py").write_text(
        "import json\nimport os.path\nimport numpy as np\n"
        "from math import ceil, floor\n\n"
        "def api(x):\n    import sys\n    return os.path.join(str(floor(x)), sys.argv[0])\n"
    )
    assert unused_imports(tmp_path) == ["a.json", "a.np", "a.ceil"]


def _callee(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def unused_knobs(package: Path, callers: list[Path]) -> list[str]:
    """``module.function.parameter`` for each default-valued parameter of a
    function in the package that no call in ``callers`` passes, by keyword
    or by position. Calls are matched by name (a class name for
    ``__init__``), so same-named functions share their calls, and a call
    with ``*args`` or ``**kwargs`` passes everything. A function whose name
    is also used other than as a callee (a table entry, a callback) is
    skipped: its calls cannot be read off the source."""
    calls: dict[str, list[ast.Call]] = {}
    other_uses = set()
    for path in callers:
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        # a callee, or the namespace of an attribute, is not a use as a value
        not_values = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        not_values |= {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
        for node in nodes:
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node.func), []).append(node)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in not_values:
                other_uses.add(_callee(node))

    def passes(call: ast.Call, name: str, index: int | None) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        if index is not None and index < len(call.args):
            return True
        return any(keyword.arg in (name, None) for keyword in call.keywords)

    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner[id(node)] if node.name == "__init__" else node.name
            if name in other_uses:
                continue
            static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
            offset = 1 if id(node) in owner and not static else 0
            params = node.args.posonlyargs + node.args.args
            first = len(params) - len(node.args.defaults)
            knobs = [(p.arg, i - offset) for i, p in enumerate(params) if i >= first]
            knobs += [(p.arg, None) for p, default in
                      zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
            for param, index in knobs:
                if not any(passes(call, param, index) for call in calls.get(name, [])):
                    unused.append(f"{path.stem}.{node.name}.{param}")
    return unused


def test_every_default_valued_parameter_is_passed():
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert unused_knobs(PACKAGE, callers) == []


def test_knob_guard_flags_a_never_passed_parameter(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "a.py").write_text(
        "def api(x, used=1, spare=2, *, flag=False):\n    return helper(x, 3)\n\n"
        "def helper(x, step=1, spare=None):\n    return x + step\n\n"
        "def spread(x, a=1, b=2):\n    return x\n\n"
        "def tabled(x, option=0):\n    return x\n\n"
        "TABLE = [tabled]\n\n"
        "class Thing:\n"
        "    def __init__(self, size=1, mode=None):\n        self.size = size\n\n"
        "    def grow(self, by=1):\n        return Thing(by)\n\n"
        "    @staticmethod\n    def make(size=2):\n        return spread(**{'x': size})\n"
    )
    caller = tmp_path / "test_a.py"
    caller.write_text("from a import api\n\napi(1, used=2)\nThing.make(3)\n")
    callers = [tmp_path / "a.py", caller]
    assert unused_knobs(tmp_path, callers) == [
        "a.api.spare", "a.api.flag", "a.helper.spare", "a.__init__.mode", "a.grow.by"
    ]


def unread_parameters(package: Path) -> list[str]:
    """``module.function.parameter`` for each parameter that the body of a
    private function or method (one leading underscore, not a dunder) never
    loads. A method's ``self`` or ``cls`` is left out, and so is a parameter
    whose own name starts with an underscore."""
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            if id(node) in methods and not any(_callee(d) == "staticmethod"
                                               for d in node.decorator_list):
                params = params[1:]
            params += args.kwonlyargs + [p for p in (args.vararg, args.kwarg) if p]
            loaded = {name.id for statement in node.body for name in ast.walk(statement)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}.{p.arg}" for p in params
                       if p.arg not in loaded and not p.arg.startswith("_")]
    return unread


def test_every_parameter_of_a_private_function_is_read():
    assert unread_parameters(PACKAGE) == []


def test_parameter_guard_flags_an_unread_parameter(tmp_path):
    (tmp_path / "a.py").write_text(
        "def api(x, spare):\n    return _helper(x, 1)\n\n"
        "def _helper(x, step, spare, *rest, _ignored=None, **options):\n"
        "    def inner():\n        return step\n    return x + inner()\n\n"
        "def __getattr__(name):\n    raise AttributeError\n\n"
        "class Thing:\n"
        "    def __init__(self, size):\n        pass\n\n"
        "    def _grow(self, by):\n        return Thing(1)\n\n"
        "    @classmethod\n    def _make(cls, size):\n        return cls(size)\n\n"
        "    @staticmethod\n    def _scaled(size, factor):\n        return size\n"
    )
    assert unread_parameters(tmp_path) == [
        "a._helper.spare", "a._helper.rest", "a._helper.options", "a._grow.by",
        "a._scaled.factor",
    ]

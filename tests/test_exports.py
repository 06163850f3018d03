"""Every exported name exists, so a deletion cannot leave a stale ``__all__``
entry; every imported name is used or exported, so a move cannot leave
a stale import behind; and every ``raise`` names a class from ``errors.py``,
each of which is raised somewhere, so bad input fails with a typed error."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blockfactor

MODULES = ["blockfactor"] + [
    f"blockfactor.{info.name}" for info in pkgutil.iter_modules(blockfactor.__path__) if info.name != "__main__"
]
PACKAGE = Path(blockfactor.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ERROR_CLASSES = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}
# (file, function, raised name) that may raise something else: _field catches
# _unit_interval's ValueError and raises BlockfactorError naming the CSV row
RAISE_ALLOWED = {("bench.py", "_unit_interval", "ValueError")}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` that no expression
    reads and ``__all__`` does not list.  An import statement with
    ``# noqa: F401`` on one of its lines binds a name kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["os (line 1)"]),
    ("from a import b, c as d\nd()\n", ["b (line 1)"]),
    ("import a.b\na.b.c()\n", []),
    ('from a import b\n__all__ = ["b"]\n', []),
    ("from a import b  # noqa: F401\n", []),
    ("def f():\n    from a import b\n    return 1\n", ["b (line 2)"]),
], ids=["module", "from", "dotted", "exported", "noqa", "in a function"])
def test_unused_imports_finds_each_kind(source, expected):
    assert unused_imports(source) == expected


def raises(source: str) -> list[tuple[str, str]]:
    """``(function, name)`` for each ``raise`` in ``source``: the innermost
    enclosing function ("" at module level) and the raised expression's
    class or name as written, or "raise" for a bare re-raise."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((function, "raise" if exc is None else ast.unparse(exc)))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_raise_names_a_package_error(path):
    stray = [
        (function, name)
        for function, name in raises(path.read_text())
        if name not in ERROR_CLASSES and (path.name, function, name) not in RAISE_ALLOWED
    ]
    assert stray == []


def test_every_package_error_is_raised():
    raised = {name for path in SOURCES for _, name in raises(path.read_text())}
    assert sorted(ERROR_CLASSES - raised) == []


@pytest.mark.parametrize("source, expected", [
    ("raise ValueError\n", [("", "ValueError")]),
    ("def f():\n    raise E('x') from None\n", [("f", "E")]),
    ("class C:\n    def g(self):\n        raise errors.E()\n", [("g", "errors.E")]),
    ("def f():\n    def g():\n        raise E\n    raise exc\n", [("f", "exc"), ("g", "E")]),
    ("try:\n    pass\nexcept E:\n    raise\n", [("", "raise")]),
], ids=["module", "call from", "attribute in a method", "nested", "bare"])
def test_raises_finds_each_kind(source, expected):
    assert sorted(raises(source)) == expected

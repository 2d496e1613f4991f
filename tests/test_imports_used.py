"""Every import and every private function of the library is used.

No linter runs on the package, so a refactor that leaves a name imported
and unused, or a private helper without a caller, goes unnoticed.  A name
imported in ``src/lobpcg_kit`` must be read in its module, listed in the
module's ``__all__``, or imported on a line marked ``# noqa: F401``
(``test_tracer_names.py`` checks that the tracer looks those up).  A
private module-level function or private method must be read somewhere in
the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lobpcg_kit"


def unused_imports(path: Path) -> list:
    """Names imported in the module at ``path`` that it neither reads,
    exports in ``__all__`` nor marks ``# noqa: F401``."""
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
                      "__all__ = ['tau']\nprint(pi)\n")
    assert unused_imports(module) == ["os"]


def unread_private_functions(paths: list) -> list:
    """``module.name`` of every private module-level function and private
    method (one leading underscore) of the modules at ``paths`` whose name
    none of them reads, as a name or as an attribute."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith("_") and not node.name.startswith("__")
                        and node.name not in read):
                    unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_private_function_is_read():
    assert unread_private_functions(sorted(PACKAGE.glob("*.py"))) == []


def test_an_unread_private_function_is_found(tmp_path):
    module, other = tmp_path / "module.py", tmp_path / "other.py"
    module.write_text("def _called():\n    pass\n\n\ndef _unread():\n    pass\n\n\n"
                      "class Thing:\n    def __init__(self):\n        self._used()\n\n"
                      "    def _used(self):\n        pass\n\n"
                      "    def _unused(self):\n        pass\n\n\n"
                      "def public():\n    return _called\n\n\n"
                      "def _read_elsewhere():\n    pass\n")
    other.write_text("from module import _read_elsewhere\n\n_read_elsewhere()\n")
    assert unread_private_functions([module, other]) == ["module._unread", "module._unused"]
    assert "module._read_elsewhere" in unread_private_functions([module])

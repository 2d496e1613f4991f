"""Every import of the library is used.

No linter runs on the package, so a refactor that leaves a name imported
and unused goes unnoticed.  A name imported in ``src/lobpcg_kit`` must be
read in its module, listed in the module's ``__all__``, or imported on a
line marked ``# noqa: F401`` (``test_tracer_names.py`` checks that the
tracer looks those up).
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

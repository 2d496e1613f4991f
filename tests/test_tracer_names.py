"""The benchmark tracer's name tables still match the library.

``perfbench/tracer.py`` records per-layer spans by replacing names that the
library's callers look up in a module or class.  A refactor that unbinds
one of them would otherwise only fail in the benchmark's smoke test or in a
traced run.  Conversely, an import the library keeps only for the tracer
(marked ``# noqa: F401``) must still be one the tracer looks up.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from lobpcg_kit import blocks, operators, solver, solver2

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lobpcg_kit"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()

#: every (owner, attr) the tracer's tables name, once each
LOOKED_UP = list(dict.fromkeys(
    [pair for pairs in tracer.LAYER_NAMES.values() for pair in pairs]
    + tracer.SOLVER_NAMES + list(tracer.READER_NAMES.values())
))


@pytest.mark.parametrize("owner,attr", LOOKED_UP,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in LOOKED_UP])
def test_looked_up_name_is_bound(owner, attr):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is no longer bound"


def test_install_and_restore_round_trip():
    # install also replaces names outside the tables (the identity metric,
    # the partition set-up); it raises KeyError when one is unbound
    before = [vars(owner)[attr] for owner, attr in LOOKED_UP]
    traced = tracer.Tracer()
    try:
        traced.install()
    finally:
        traced.restore()
    assert [vars(owner)[attr] for owner, attr in LOOKED_UP] == before


def imports_marked_unused():
    """``(module, name)`` of every name imported on a line of the package
    marked ``# noqa: F401``, inside parenthesized imports as well."""
    marked = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                marked += [(f"lobpcg_kit.{path.stem}", alias.asname or alias.name)
                           for alias in node.names
                           if "# noqa: F401" in lines[alias.lineno - 1]]
    return marked


def test_imports_kept_for_the_tracer_are_looked_up():
    looked_up = {(owner.__name__, attr) for owner, attr in LOOKED_UP}
    assert [pair for pair in imports_marked_unused() if pair not in looked_up] == []


def test_solver2_only_rebinds_names_of_other_modules():
    # solver2 stays a module of bindings that the tracer looks up until the
    # tracer reads in-library figures, so no logic may grow back into it
    homes = [vars(module) for module in (solver, blocks, operators)]
    own = {name: value for name, value in vars(solver2).items() if not name.startswith("__")}
    assert [name for name, value in own.items()
            if not any(home.get(name) is value for home in homes)] == []


#: LAPACK factorizations that the tracer's ``dense.chol`` and ``dense.eig``
#: layers see only when they are called as ``blocks.cholesky`` or
#: ``blocks.sym_eig`` (``solver.sym_eig``)
FACTORIZATIONS = {"cholesky", "eigh", "eigvalsh"}


def direct_factorizations(path: Path) -> list:
    """``(line, name)`` of every ``numpy.linalg`` factorization that the
    module at ``path`` names directly, by attribute or by import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS:
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or (
                    isinstance(owner, ast.Name) and owner.id == "linalg"):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in FACTORIZATIONS]
    return sorted(found)


@pytest.mark.parametrize("module", ["blocks", "solver"])
def test_factorizations_go_through_the_traced_names(module):
    assert direct_factorizations(PACKAGE / f"{module}.py") == []


def test_direct_factorizations_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import numpy as np\nfrom numpy import linalg\n"
                      "from numpy.linalg import eigh, solve\n"
                      "np.linalg.cholesky(g)\nlinalg.eigvalsh(g)\nnp.linalg.solve(g, g)\n")
    assert direct_factorizations(source) == [(3, "eigh"), (4, "cholesky"), (5, "eigvalsh")]

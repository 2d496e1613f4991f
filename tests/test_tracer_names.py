"""The benchmark tracer's name tables still match the library.

``perfbench/tracer.py`` records per-layer spans by replacing names that the
library's callers look up in a module or class.  A refactor that unbinds
one of them would otherwise only fail in the benchmark's smoke test or in a
traced run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

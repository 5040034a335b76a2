"""Every entry point ``perfbench/tracing.py`` wraps still exists.

The tracer patches each ``(module, attribute path)`` of its
``ENTRY_POINTS`` by name and records a missing one instead of failing,
so a renamed or moved method would otherwise surface only in
``perfbench/selftest.py``.  The lookup mirrors ``Tracer.install``: the
attribute must be defined on its owner itself (a class method inherited
from a base class would not be patched where it runs).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize(
    "module_name, attr_path",
    sorted({(module, attr) for _, module, attr in entry_points()}),
)
def test_entry_point_resolves_to_a_callable(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = attr_path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"{module_name}.{attr_path}"

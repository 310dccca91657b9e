"""The benchmark's span tracer must find every entry point it wraps.

``perfbench/tracer.py`` replaces each target through ``owner.__dict__[name]``,
so a method moved to a base class, renamed or deleted would crash a traced
benchmark run (``--trace 1``).  This check makes such a refactor fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (layer, target)
        for layer, targets in module.ENTRY_POINTS.items()
        for target in targets
    ]


@pytest.mark.parametrize("layer,target", _entry_points())
def test_entry_point_is_defined_on_its_owner(layer, target):
    mod_name, _, attr = target.partition(":")
    owner = importlib.import_module(mod_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert name in owner.__dict__, f"{layer}: {target} is not defined on {owner!r}"
    assert callable(getattr(owner, name))

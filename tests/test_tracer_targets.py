"""Every name the benchmark's tracer wraps still exists where it looks.

``perfbench/tracer.py`` is loaded by file path and left as it is; for each
entry of its ``TARGETS`` the owner (the module, or the class named before
the dot) must hold the attribute in its own ``__dict__``, which is how
``Tracer.install`` finds it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TARGETS = [
    (module_name, dotted)
    for _, module_name, names in _load_tracer().TARGETS
    for dotted in names
]


@pytest.mark.parametrize("module_name, dotted", TARGETS)
def test_tracer_target_resolves(module_name, dotted):
    owner_name, _, attr = dotted.rpartition(".")
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{module_name}.{dotted} is gone"

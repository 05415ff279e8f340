"""Every name the benchmark's tracer wraps still exists where it looks.

``perfbench/tracer.py`` is loaded by file path and left as it is; for each
entry of its ``TARGETS`` the owner (the module, or the class named before
the dot) must hold the attribute in its own ``__dict__``, which is how
``Tracer.install`` finds it, and building each multiview value and a
``Multidegree`` from JSON runs the ``__post_init__`` that the tracer wraps.
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


# One JSON input per value class the tracer wraps by ``__post_init__``, with
# the module that defines the class.
FROM_JSON = {
    "CameraConfiguration": (
        "multiview", {"cameras": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]}
    ),
    "LinearSpaceTuple": ("multiview", [[[1, 2, 3], ["1/2", 0, 1]], [[0, 1, -1]]]),
    "MultifocalTensor": (
        "multiview", {"beta": [2, 2], "entries": [{"index": [1, 2], "value": "-3/4"}]}
    ),
    "Multidegree": (
        "multidegree",
        {
            "n": [2, 2],
            "r": 3,
            "coefficients": [{"gamma": [0, 1], "a": 1}, {"gamma": [1, 0], "a": 1}],
        },
    ),
}


@pytest.mark.parametrize(
    "module_name, name, obj",
    [(module_name, name, obj) for name, (module_name, obj) in sorted(FROM_JSON.items())],
    ids=sorted(FROM_JSON),
)
def test_building_from_json_runs_the_traced_post_init(module_name, name, obj):
    module = importlib.import_module(f"multichow.{module_name}")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        getattr(module, name).from_json(obj)
    finally:
        tracer.uninstall()
    roots = [span[0] for span in tracer.spans if span[3] == -1]
    assert roots == [f"{module_name}.{name}.__post_init__"]

"""Every function the benchmark's tracer wraps exists in the library.

``perfbench/tracing.py`` wraps library functions by name, and a target
that no longer resolves makes its metrics read ``null``, which only a
traced benchmark run would otherwise show.  The tracer is read from
its file, and each ``(module, attribute)`` of its ``TARGETS``
is looked up in the ``qmave`` package under ``src/``.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_targets():
    """``TARGETS`` of the tracer, executed from its source text so that
    nothing is written under ``perfbench/``."""
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    sys.modules[module.__name__] = module  # its dataclass looks its module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("label", sorted(TARGETS))
def test_target_resolves_to_a_library_function(label):
    module_name, attribute, _ = TARGETS[label]
    obj = getattr(importlib.import_module(module_name), attribute, None)
    assert callable(obj), f"{module_name}.{attribute} is missing or not callable"
    assert Path(inspect.getfile(obj)).resolve().parent == ROOT / "src" / "qmave"

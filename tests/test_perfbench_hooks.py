"""The benchmark tracer's layers name functions and methods that exist.

``perfbench/tracer.py`` wraps ksib names listed in its ``LAYERS``; a rename
in ksib breaks only the traced benchmark run, so this test resolves each
name the way ``Tracer.patch`` does.  It reads the tracer and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # the tracer imports neither numpy nor ksib, so loading it runs nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, modname, attr", load_tracer().LAYERS)
def test_layer_resolves(layer, modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # a method is patched on the class that defines it
        assert callable(vars(getattr(owner, cls_name)).get(meth)), layer
    else:
        assert callable(getattr(owner, attr, None)), layer

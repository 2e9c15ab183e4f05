"""The benchmark tracer wraps some methods on their classes, looked up in
each class's own namespace; a method that moves to a base class or away
from its class would break every traced benchmark run.  This test loads
`bench/tracer.py` without installing it and checks that its targets exist
where it looks for them."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("noethkit_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()


@pytest.mark.parametrize("target", sorted({**_T.METHODS, **_T.COUNTED}),
                         ids=lambda t: "%s.%s" % t)
def test_wrapped_methods_are_defined_on_their_class(target):
    module, cls_name = target
    cls = getattr(importlib.import_module("noethkit." + module), cls_name)
    names = _T.METHODS.get(target, ()) + _T.COUNTED.get(target, ())
    assert set(names) <= set(vars(cls)), (cls_name, names)

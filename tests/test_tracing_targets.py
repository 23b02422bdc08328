"""The benchmark's tracer patches tworank functions by name.  A rename
must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, module, path", tracing.SPANS + tracing.LEAVES)
def test_trace_target_resolves(name, module, path):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr, None)), f"{module}.{path} is gone"

"""The names the perfbench harness looks up in ringsynth still resolve.

``perfbench/tracing.py`` wraps functions at the module attribute their
callers look them up by, so a rename or a moved import would break the
traced (``--trace 1``) benchmark run without any other test noticing.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from ringsynth.targets import TargetPattern

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    tracing = importlib.import_module("tracing")
    return bench, tracing


def test_every_wrapped_name_resolves(harness):
    _, tracing = harness
    for module, attr, span, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


@pytest.mark.parametrize("method", ["amplitude", "sample_value"])
def test_counted_target_methods_take_self_and_u(harness, method):
    params = list(inspect.signature(getattr(TargetPattern, method)).parameters)
    assert params == ["self", "u"]

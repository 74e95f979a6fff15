"""The names and result fields the perfbench harness reads still exist.

``perfbench/tracing.py`` wraps functions at the module attribute their
callers look them up by and reads fields of their results, so a rename, a
moved import or a dropped field would break the traced (``--trace 1``)
benchmark run without any other test noticing.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from ringsynth.cli import main
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


def test_extractors_read_a_real_run(harness, tmp_path):
    _, tracing = harness
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job("example-a-flattop", 0)
        argv = ["run", "example-a-flattop", "--out", str(tmp_path), "--surface", "--quiet"]
        assert tracer.call("cli.main", main, (argv,), {}) == 0
    finally:
        tracer.uninstall()
    extracted = {s[tracing.NAME] for s in tracer.spans if s[tracing.ATTRS]}
    for _, _, span, extract in tracing.WRAPPED:
        if extract is not None:
            assert span in extracted, span
    metrics = tracing.pass_metrics(tracer.spans, tracer.counters)
    assert metrics["solver.passes"] == 1
    # the seed's QR must stay inside the span perfbench times as the batch stage
    assert metrics["solver.batch_s"] > 0
    for name in ("sampling.samples", "solver.design_cells", "specialfn.j0_evals",
                 "runner.bytes_written"):
        assert metrics[name] > 0, name

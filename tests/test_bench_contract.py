"""The names, result fields and file columns the perfbench harness reads still exist.

``perfbench/tracing.py`` wraps functions at the module attribute their
callers look them up by and reads fields of their results, and
``perfbench/bench.py`` parses ``weights.csv`` for its correctness gate, so a
rename, a moved import, a dropped field or a dropped column would break the
benchmark run without any other test noticing.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from ringsynth import cli
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


def test_read_weights_parses_a_real_run(harness, tmp_path, monkeypatch):
    # bench.read_weights takes re and im from fields 3 and 4 of weights.csv;
    # without the im column it would read the magnitude as the imaginary part
    bench, _ = harness
    reports, write_outputs = [], cli.write_outputs

    def capture(report, out_dir):
        reports.append(report)
        return write_outputs(report, out_dir)

    monkeypatch.setattr(cli, "write_outputs", capture)
    assert main(["run", "example-d-nulls", "--out", str(tmp_path), "--quiet"]) == 0
    weights = reports[0].weights
    want = np.array(weights.rings + (weights.center,))
    got = bench.read_weights(tmp_path)
    assert got.shape == want.shape
    assert np.array_equal(got.imag, np.zeros_like(want))
    np.testing.assert_allclose(got.real, want, rtol=1e-12, atol=0)

"""The traced benchmark can still find every layer it times."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
RUN, WORKER = BENCH / "run.py", BENCH / "worker.py"
WORKLOADS = ("adversary-wide", "adversary-deep", "check-deep", "simulate-scatter")


def _load(monkeypatch, name: str, path: Path):
    """A bench script as a module, registered in sys.modules while the test
    runs (a dataclass looks up its module there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_bench_span_target_resolves(monkeypatch):
    # Tracer() raises MissingSpan when a public name in TARGETS is gone, so a
    # refactor that renames or moves a traced function fails here, not only
    # in a traced bench run.
    worker = _load(monkeypatch, "bench_worker", WORKER)
    tracer = worker.Tracer()
    assert len(tracer._targets) == len(worker.TARGETS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_records_every_layer_it_times(tmp_path, monkeypatch, name):
    # A traced bench run fails when a workload's call records no span for
    # one of its layers (a refactor that stops calling a wrapped name through
    # the module the bench patches).  The same call, at n = 3 and horizon 3.
    run = _load(monkeypatch, "bench_run", RUN)
    worker = _load(monkeypatch, "bench_worker", WORKER)
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)
    monkeypatch.setattr(run, "WORK", tmp_path)
    w = dataclasses.replace(run.WORKLOADS[name], n=3, horizon=3)
    if name == "check-deep":  # its input is the adversary-deep trace
        source = tmp_path / "check-deep-input.jsonl"
        assert run.quiet_main(run.adversary_argv("convex:1/3", w) + ["--out", str(source)])[0] == 0
        argv = ["check", str(source), "--property", "kfair:1"]
    else:
        argv = run.prepare(w, 1, {}).argv
    tracer = worker.Tracer()
    with tracer.installed():
        rc, _ = run.quiet_main(argv)
    assert rc == 0
    recorded = {span[0] for span in tracer.spans}
    assert [layer for layer in w.layers if layer not in recorded] == []

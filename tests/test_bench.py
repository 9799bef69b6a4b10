"""The traced benchmark can still find every layer it times."""

from __future__ import annotations

import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_every_bench_span_target_resolves():
    # Tracer() raises MissingSpan when a public name in TARGETS is gone, so a
    # refactor that renames or moves a traced function fails here, not only
    # in a traced bench run.
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    tracer = worker.Tracer()
    assert len(tracer._targets) == len(worker.TARGETS)

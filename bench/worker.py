"""One workload process: repeated in-process calls of `lcmsim.cli.main`.

`run.py` starts this file in a fresh interpreter with the checkout's `src`
on PYTHONPATH and the job as a JSON argument.  It prints one JSON line with
a record per call.  Without tracing every call is plain.  With tracing,
calls alternate plain and traced, so the tracing overhead is measured
against neighbouring plain calls.  A traced call runs with a wrapper around
each layer's public functions (TARGETS).  Its spans stay in memory and are
written to the job's spans file once, at the end.  A fixed reference
workload is timed before the first call and after every call.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import sys
from fractions import Fraction
from time import perf_counter

ROOT = "cli.main"
STEP = "execution.round_step"
DEMON = "demons.action"

# (span, owner, attribute).  The owner is "module" or "module:Class".  A
# function bound with `from X import f` is looked up in the importing module
# at call time, so it is patched there, once for each module that calls it.
TARGETS = (
    ("adversary.run_impossibility", "lcmsim.cli", "run_impossibility"),
    ("execution.execute_prefix", "lcmsim.cli", "execute_prefix"),
    ("execution.execute_prefix", "lcmsim.adversary", "execute_prefix"),
    (STEP, "lcmsim.execution", "round_step"),
    (DEMON, "lcmsim.demons:Demon", "action"),
    ("core.look", "lcmsim.core:Similarity", "map_position"),
    ("robograms.compute", "lcmsim.execution", "evaluate"),
    ("demons.kfair", "lcmsim.adversary", "check_kfair"),
    ("demons.kfair", "lcmsim.cli", "check_kfair"),
    ("properties.split", "lcmsim.adversary", "check_always_split"),
    ("properties.split", "lcmsim.cli", "check_always_split"),
    ("properties.gather", "lcmsim.adversary", "check_will_gather"),
    ("properties.gather", "lcmsim.cli", "check_will_gather"),
    ("robograms.invariance", "lcmsim.adversary", "check_invariance"),
    ("execution.write", "lcmsim.cli", "write_trace_file"),
    ("execution.parse", "lcmsim.cli", "read_trace_file"),
    ("execution.replay", "lcmsim.cli", "replay"),
)

# A traced run needs enough rounds for a p90 with ten rounds beyond it, and
# at least two traced calls for the exact counters to be compared.
MIN_TRACED_ROUNDS = 100
MIN_TRACED_CALLS = 2


class MissingSpan(LookupError):
    """A wrapped public name no longer exists, so its layer cannot be timed."""


class Tracer:
    """Records spans as [name, start, end, parent index] while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.steps: list[tuple] = []  # (action, post) of each round_step call
        self._stack: list[int] = []
        self._targets = []
        missing = []
        for name, owner_path, attr in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and class_name:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{name} ({owner_path}.{attr})")
                continue
            wrapped = self._step(fn) if name == STEP else self.wrap(name, fn)
            self._targets.append((owner, attr, fn, wrapped))
        if missing:
            raise MissingSpan("cannot trace, missing: " + ", ".join(missing))

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _step(self, fn):
        traced, steps = self.wrap(STEP, fn), self.steps

        def step(robogram, action, position):
            post = traced(robogram, action, position)
            steps.append((action, post))
            return post

        return step

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapped in self._targets:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, fn, _ in self._targets:
                setattr(owner, attr, fn)


def layer_split(spans: list[list], first: int) -> tuple[dict, list[float]]:
    """Per span name [calls, inclusive s, self s] and per-round ms (demon +
    step) over spans[first:].  Self time is the duration minus the time the
    span's children cover."""
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            covered[parent] += dur[i]
    layers: dict[str, list] = {}
    rounds_ms: list[float] = []
    last_child: dict[int, int] = {}
    for i in range(first, len(spans)):
        name, parent = spans[i][0], spans[i][3]
        entry = layers.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur[i]
        entry[2] += dur[i] - covered[i]
        if name == STEP:
            before = last_child.get(parent)
            demon = dur[before] if before is not None and spans[before][0] == DEMON else 0.0
            rounds_ms.append((demon + dur[i]) * 1e3)
        last_child[parent] = i
    return layers, rounds_ms


def reference() -> int:
    """Fixed work that does not use lcmsim: exact rationals with growing
    denominators, hashed into a dict, as in lcmsim's round loop.  Its wall
    time, taken right before and after each call, measures how fast the host
    runs Python at that moment.  Changing it moves every `wall_ref` and
    `setup_s`."""
    total = 0
    for block in range(24):
        acc, seen = Fraction(block), {}
        for i in range(1, 300):
            acc = acc / 2 + Fraction(i, 7 + i % 13)
            seen[acc] = i
        total += len(seen)
    return total


def reference_s() -> float:
    gc.collect()
    start = perf_counter()
    reference()
    return perf_counter() - start


def file_facts(path: str) -> dict:
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"bytes": size, "sha256": digest.hexdigest()}


def one_call(main, argv: list[str], out: str | None, tracer: Tracer | None) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    first = len(tracer.spans) if tracer else 0
    call = tracer.wrap(ROOT, main) if tracer else main
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if tracer:
            with tracer.installed():
                start = perf_counter()
                rc = call(argv)
                wall = perf_counter() - start
        else:
            start = perf_counter()
            rc = call(argv)
            wall = perf_counter() - start
    record = {
        "wall_s": wall,
        "rc": rc,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue()[-2000:],
        "traced": tracer is not None,
    }
    if out:
        record.update(file_facts(out))
    if tracer:
        record["layers"], record["rounds_ms"] = layer_split(tracer.spans, first)
        record["active_robot_rounds"] = sum(len(a.active_robots()) for a, _ in tracer.steps)
        record["max_den_bits"] = max(
            (x.denominator.bit_length() for _, post in tracer.steps for x in post.locations()),
            default=0,
        )
        tracer.steps.clear()
    return record


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.  `ru_maxrss` is not
    used: Linux carries the parent's peak across fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.loads(sys.argv[1])
    from lcmsim import cli

    try:
        tracer = Tracer() if job["trace"] else None
    except MissingSpan as exc:
        print(f"bench worker: {exc}", file=sys.stderr)
        return 3
    calls: list[dict] = []
    traced_rounds = 0
    start = perf_counter()
    ref_before = reference_s()
    while (
        not calls
        or perf_counter() - start < job["seconds"]
        or (tracer and (
            len(calls) % 2
            or len(calls) < 2 * MIN_TRACED_CALLS
            or traced_rounds < MIN_TRACED_ROUNDS
        ))
    ):
        traced = tracer if len(calls) % 2 else None
        calls.append(one_call(cli.main, job["argv"], job["out"], traced))
        ref_after = reference_s()
        calls[-1]["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        traced_rounds += len(calls[-1].get("rounds_ms", ()))
    if tracer:
        with open(job["spans_out"], "w", encoding="utf-8") as fp:
            json.dump({"argv": job["argv"], "spans": tracer.spans}, fp)
    print(json.dumps({
        "lcmsim": cli.__file__,
        "peak_rss_mb": peak_rss_mb(),
        "calls": calls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

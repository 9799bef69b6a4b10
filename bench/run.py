"""lcmsim benchmark: the CLI paths on four workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload adversary-wide --seed 1 --seconds 18 --trace 0

`--trace 0` times plain calls of `lcmsim.cli.main` in a fresh process and
reports the end-to-end metrics: `wall_ref` (each call's wall time over a
fixed reference timed around it), `peak_rss_mb` and `setup_s`.  `--trace 1`
alternates plain and traced calls and reports the per-layer metrics.  `--workload all` runs every
workload in turn.  Every call's exit code, stdout verdict and trace content
are checked against goldens.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md for
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 16  # half before the timed calls, half after
SETUP_TIMEOUT_S = 60
# The worker stops starting calls after --seconds; this much more is allowed
# for its last call and the reference timings.
WORKER_GRACE_S = 150
# Each set-up process also times worker.reference() after the import.
# setup_s is the import time over that reference, in seconds on a host where
# the reference takes REFERENCE_NOMINAL_S (this host took 0.07-0.10 s).
REFERENCE_NOMINAL_S = 0.1
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import lcmsim.cli\n"
    "lcmsim.cli.build_parser()\n"
    "setup = time.perf_counter() - start\n"
    "import worker\n"
    "print(setup / worker.reference_s())\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    horizon: int
    layers: tuple[str, ...]  # spans a traced call must record


_ROUND = ("execution.round_step", "core.look", "robograms.compute")
_ADVERSARY = _ROUND + (
    "adversary.run_impossibility",
    "execution.execute_prefix",
    "demons.action",
    "demons.kfair",
    "properties.split",
    "properties.gather",
    "robograms.invariance",
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("adversary-wide", 128, 40, _ADVERSARY),
        Workload("adversary-deep", 8, 1000, _ADVERSARY + ("execution.write",)),
        Workload(
            "check-deep", 8, 1000,
            _ROUND + ("execution.parse", "execution.replay", "demons.kfair"),
        ),
        Workload(
            "simulate-scatter", 32, 25,
            _ROUND + ("execution.execute_prefix", "demons.action", "execution.write"),
        ),
    )
}

# Counters that must repeat exactly across the traced calls of a run.
EXACT_LAYER_COUNTERS = (
    "demons.action_calls",
    "core.look_calls",
    "robograms.compute_calls",
    "execution.max_den_bits",
    "execution.trace_bytes",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, crashed worker,
    untraceable layer)."""


def exact(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def trace_digest(trace) -> str:
    """sha256 over a trace's content as exact num/den values: header, p0,
    then every round's frames and post position in robot order.  It does
    not depend on how the file lays the content out."""
    digest = hashlib.sha256()
    robots = trace.universe.robots

    def put(*fields: str) -> None:
        digest.update(("|".join(fields) + "\n").encode())

    put(trace.robogram_name, trace.demon_name, str(len(robots)))
    put(*(exact(trace.p0[r]) for r in robots))
    for rd in trace.rounds:
        put(str(rd.index), *(exact(rd.action.factor(r)) for r in robots))
        put(*(exact(rd.post[r]) for r in robots))
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    from lcmsim.execution import read_trace_file

    return trace_digest(read_trace_file(str(path)))


def quiet_main(argv: list[str]) -> tuple[int, str]:
    from lcmsim import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, stdout.getvalue()


def scatter_init(seed: int, n: int) -> dict[str, str]:
    """2n distinct rationals drawn from the seed, one per robot, sorted."""
    from lcmsim.core import RobotUniverse

    rng = random.Random(seed)
    points: set[Fraction] = set()
    while len(points) < 2 * n:
        points.add(Fraction(rng.randint(-1000, 1000), rng.randint(1, 9)))
    robots = RobotUniverse(n).robots
    return {str(r): exact(x) for r, x in zip(robots, sorted(points))}


def adversary_argv(robogram: str, w: Workload) -> list[str]:
    return ["adversary", "--robogram", robogram, "--n", str(w.n), "--horizon", str(w.horizon)]


@dataclass
class Job:
    argv: list[str]
    out: Path | None  # trace the call writes
    read: Path | None = None  # trace the call reads
    init: dict | None = None


def prepare(w: Workload, seed: int, goldens: dict) -> Job:
    """Build the workload's inputs from the seed.  This is not timed."""
    if w.name == "adversary-wide":
        return Job(adversary_argv("center-of-mass", w), None)
    if w.name == "adversary-deep":
        out = WORK / "adversary-deep.jsonl"
        return Job(adversary_argv("convex:1/3", w) + ["--out", str(out)], out)
    if w.name == "check-deep":
        source = WORK / "check-deep-input.jsonl"
        rc, _ = quiet_main(adversary_argv("convex:1/3", WORKLOADS["adversary-deep"])
                           + ["--out", str(source)])
        if rc != 0 or file_digest(source) != goldens["adversary-deep"]["trace"]:
            raise BenchError("check-deep input: adversary-deep trace differs from its golden")
        return Job(["check", str(source), "--property", "kfair:1"], None, read=source)
    out = WORK / "simulate-scatter.jsonl"
    init = scatter_init(seed, w.n)
    argv = [
        "simulate", "--robogram", "convex:1/2", "--demon", f"random-kfair:1:{seed}",
        "--n", str(w.n), "--horizon", str(w.horizon), "--init", json.dumps(init),
        "--out", str(out),
    ]
    return Job(argv, out, init=init)


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    env["LCM_SEED"] = str(seed)
    env["PYTHONHASHSEED"] = "0"
    # A warm bytecode cache, kept inside the work directory, whatever the
    # caller's environment says: an installed CLI starts from compiled files.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> str:
    try:
        done = subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process exceeded {timeout:g} s") from exc
    if done.returncode != 0:
        raise BenchError(f"child process exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def setup_samples(seed: int, count: int) -> list[float]:
    """Import lcmsim and build the CLI parser in `count` fresh processes;
    each sample is in seconds at the nominal reference speed."""
    env = child_env(seed)
    return [float(run_child(["-c", SETUP_CODE], env, SETUP_TIMEOUT_S)) * REFERENCE_NOMINAL_S
            for _ in range(count)]


def run_worker(job: Job, seed: int, seconds: float, trace: bool, spans_out: Path) -> dict:
    spec = {
        "argv": job.argv,
        "out": str(job.out) if job.out else None,
        "seconds": seconds,
        "trace": trace,
        "spans_out": str(spans_out),
    }
    args = [str(BENCH / "worker.py"), json.dumps(spec)]
    lines = run_child(args, child_env(seed), seconds + WORKER_GRACE_S).splitlines()
    result = json.loads(lines[-1])
    if not Path(result["lcmsim"]).resolve().is_relative_to(SRC):
        raise BenchError(f"lcmsim was imported from {result['lcmsim']}, not from {SRC}")
    return result


def stdout_matches(text: str, expect: dict | None) -> bool:
    """Empty stdout when no verdict is expected; else a JSON object holding
    every expected key with the expected value."""
    if expect is None:
        return text == ""
    try:
        got = json.loads(text)
    except ValueError:
        return False
    return isinstance(got, dict) and all(got.get(k) == v for k, v in expect.items())


def self_certify(job: Job, w: Workload, seed: int) -> str | None:
    """For a seed without a golden digest: the trace has the requested
    header, replays through `check`, and shows no kfair:1 violation."""
    from lcmsim.execution import read_trace_file

    trace = read_trace_file(str(job.out))
    header = (trace.robogram_name, trace.demon_name, trace.universe.pile_size, trace.horizon)
    if header != ("convex:1/2", f"random-kfair:1:{seed}", w.n, w.horizon):
        return f"trace header {header} is not the requested run"
    if {str(r): exact(x) for r, x in trace.p0.items()} != job.init:
        return "trace p0 is not the requested init"
    rc, out = quiet_main(["check", str(job.out), "--property", "kfair:1"])
    expect = {"property": "kfair:1", "verdict": "no-violation-up-to", "horizon": w.horizon}
    if rc != 0 or not stdout_matches(out, expect):
        return f"check kfair:1 on the trace gave exit {rc}: {out.strip()}"
    return None


def gate(w: Workload, job: Job, seed: int, calls: list[dict], golden: dict) -> list[str]:
    """Mark each call ok or not and return one message per kind of failure."""
    problems = []
    content_error = None
    if job.out is not None:
        expected = golden.get("trace") or golden.get("trace_by_seed", {}).get(str(seed))
        if expected is not None:
            if file_digest(job.out) != expected:
                content_error = "trace content digest differs from the golden"
        else:
            content_error = self_certify(job, w, seed)
        if content_error:
            problems.append(content_error)
    for call in calls:
        ok = call["rc"] == golden["exit"] and stdout_matches(call["stdout"], golden["stdout"])
        if job.out is not None:
            # The last file was checked for content; earlier calls must have
            # written the same bytes.
            ok = ok and content_error is None and call["sha256"] == calls[-1]["sha256"]
        call["ok"] = ok
    bad = [c for c in calls if not c["ok"]]
    if bad:
        c = bad[0]
        problems.append(
            f"{len(bad)} of {len(calls)} calls differ from the golden; first: exit {c['rc']},"
            f" stdout {c['stdout'].strip()[:300]!r}, stderr {c['stderr'].strip()[-300:]!r}"
        )
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float], pct: int) -> float | None:
    """The pct-th percentile, only if at least ten values lie beyond it."""
    if len(values) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


def trace_bytes(job: Job, call: dict) -> int:
    if job.read is not None:
        return job.read.stat().st_size
    return call.get("bytes", 0)


def layer_metrics(w: Workload, job: Job, calls: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics, medians over the traced calls of the run; also
    returns the problems and notes."""
    traced = [c for c in calls if c["traced"]]
    plain = [c["wall_s"] for c in calls if not c["traced"]]
    problems = []
    per_call = []
    rounds_ms: list[float] = []
    for c in traced:
        layers = c["layers"]
        for name in w.layers:
            if name not in layers:
                raise BenchError(f"traced call recorded no {name} span; its layer would read 0 s")

        def self_s(name: str) -> float:
            return layers.get(name, [0, 0.0, 0.0])[2]

        def count(name: str) -> int:
            return layers.get(name, [0, 0.0, 0.0])[0]

        size = trace_bytes(job, c)
        write_s, parse_s = self_s("execution.write"), self_s("execution.parse")
        per_call.append({
            "demons.action_s": (self_s("demons.action"), "s"),
            "demons.action_calls": (count("demons.action"), "count"),
            "demons.kfair_s": (self_s("demons.kfair"), "s"),
            "core.look_s": (self_s("core.look"), "s"),
            "core.look_calls": (count("core.look"), "count"),
            "robograms.compute_s": (self_s("robograms.compute"), "s"),
            "robograms.compute_calls": (count("robograms.compute"), "count"),
            "execution.move_s": (self_s("execution.round_step"), "s"),
            "execution.loop_s": (self_s("execution.execute_prefix") + self_s("execution.replay"), "s"),
            "execution.memo_hit_ratio": (
                1 - count("robograms.compute") / c["active_robot_rounds"], "ratio"),
            "execution.write_s": (write_s, "s"),
            "execution.write_mb_per_s": (size / 1e6 / write_s if write_s else 0.0, "MB/s"),
            "execution.parse_s": (parse_s, "s"),
            "execution.parse_mb_per_s": (size / 1e6 / parse_s if parse_s else 0.0, "MB/s"),
            "execution.replay_s": (layers.get("execution.replay", [0, 0.0, 0.0])[1], "s"),
            "execution.max_den_bits": (c["max_den_bits"], "bits"),
            "execution.trace_bytes": (size, "bytes"),
            "properties.split_s": (self_s("properties.split"), "s"),
            "properties.gather_s": (self_s("properties.gather"), "s"),
            "robograms.invariance_s": (self_s("robograms.invariance"), "s"),
            "adversary.certify_other_s": (self_s("adversary.run_impossibility"), "s"),
            "cli.other_s": (self_s("cli.main"), "s"),
        })
        rounds_ms.extend(c["rounds_ms"])
    for name in EXACT_LAYER_COUNTERS:
        seen = {m[name][0] for m in per_call}
        if len(seen) > 1:
            problems.append(f"{name} differs across repeats: {sorted(seen)}")
            for c, m in zip(traced, per_call):
                if m[name][0] != per_call[0][name][0]:
                    c["ok"] = False
    metrics = {
        name: {"value": statistics.median(m[name][0] for m in per_call), "unit": unit}
        for name, (_, unit) in per_call[0].items()
    }
    metrics["execution.round_p50_ms"] = {"value": statistics.median(rounds_ms), "unit": "ms"}
    p90 = tail(rounds_ms, 90)
    if p90 is None:
        raise BenchError(f"only {len(rounds_ms)} rounds traced, too few for a p90")
    metrics["execution.round_p90_ms"] = {"value": p90, "unit": "ms"}
    metrics["bench.wall_s"] = {"value": statistics.median(plain), "unit": "s"}
    metrics["bench.ref_s"] = {
        "value": statistics.median(c["ref_s"] for c in calls if not c["traced"]), "unit": "s"}
    metrics["bench.tracing_overhead"] = {
        "value": statistics.median(c["wall_s"] for c in traced) / statistics.median(plain) - 1,
        "unit": "ratio",
    }
    p99 = tail(rounds_ms, 99)
    notes = [f"rounds timed: {len(rounds_ms)}; traced calls: {len(traced)}"]
    notes.append(f"execution.round_p99_ms: {p99:.4f} ms" if p99 is not None
                 else "execution.round_p99_ms: omitted, fewer than 10 rounds beyond it")
    return metrics, problems, notes


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, goldens: dict) -> dict:
    job = prepare(w, seed, goldens)
    setup_samples(seed, 1)  # untimed: fills the bytecode cache
    setup = [] if trace else setup_samples(seed, SETUP_SAMPLES // 2)
    spans_out = WORK / f"spans-{w.name}.json"
    result = run_worker(job, seed, seconds, trace, spans_out)
    if not trace:
        setup += setup_samples(seed, SETUP_SAMPLES - len(setup))
    calls = result["calls"]
    problems = gate(w, job, seed, calls, goldens[w.name])
    sizes = {trace_bytes(job, c) for c in calls}
    if len(sizes) > 1:
        problems.append(f"trace bytes differ across repeats: {sorted(sizes)}")
        for c in calls:
            c["ok"] = False
    notes = []
    if trace:
        metrics, layer_problems, notes = layer_metrics(w, job, calls)
        problems += layer_problems
        notes.append(f"spans written to {spans_out.relative_to(ROOT)}")
    else:
        walls = [c["wall_s"] for c in calls]
        q1, wall, q3 = quartiles(walls)
        metrics = {
            "wall_ref": {"value": statistics.median(c["wall_s"] / c["ref_s"] for c in calls),
                         "unit": "ratio"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        notes.append(f"wall_ref: median of {len(walls)} calls, each over the reference"
                     f" timed around it (median {statistics.median(c['ref_s'] for c in calls):.5f} s)")
        notes.append(f"wall_s: {wall:.6g} s, median of {len(walls)} calls,"
                     f" quartiles {q1:.4f} .. {q3:.4f} s")
        notes.append(f"robot_rounds_per_s: {2 * w.n * w.horizon / wall:.6g} robot-rounds/s")
        notes.append(f"setup_s: median of {len(setup)} fresh processes, each scaled to a"
                     f" {REFERENCE_NOMINAL_S} s reference")
    failed = sum(1 for c in calls if not c["ok"])
    notes.append(f"trace_mb: {max(sizes) / 1e6:.6f} MB"
                 f" ({'read' if job.read else 'written' if job.out else 'no trace file'})")
    notes.append(f"failed_frac: {failed / len(calls):.4f} ({failed} of {len(calls)} calls)")
    return {
        "workload": w.name,
        "seed": seed,
        "correct": not problems and failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "notes": notes,
    }


def report(r: dict) -> None:
    print(f"== {r['workload']} seed={r['seed']}")
    for name, m in r["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for note in r["notes"]:
        print(f"  {note}")
    for problem in r["problems"]:
        print(f"FAIL {r['workload']}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lcmsim" / "__init__.py").is_file():
        print(f"bench: no lcmsim source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    goldens = json.loads((BENCH / "goldens.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        results = [
            run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), goldens)
            for name in names
        ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        for trace_file in WORK.glob("*.jsonl"):
            trace_file.unlink()
    for r in results:
        report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

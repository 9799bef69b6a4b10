"""End-to-end acceptance battery for the simulator and the adversary engine.

Each criterion is one test that prints a single `[acceptance] criterion N`
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to watch
them).  Traces generated along the way are accumulated so the round-trip
criterion re-certifies every emitted trace.
"""

from __future__ import annotations

import io
import random
import time
from fractions import Fraction

import pytest

from lcmsim.adversary import make_alternating_demon, run_impossibility
from lcmsim.core import Position, RobotUniverse, spectrum
from lcmsim.demons import (
    NO_VIOLATION,
    Verdict,
    check_kfair,
    make_random_kfair,
)
from lcmsim.execution import execute_prefix, read_trace, replay, write_trace
from lcmsim.properties import (
    check_always_split,
    check_will_gather,
    gathered_location,
    split,
)
from lcmsim.robograms import broken_id_leak, check_invariance, resolve_robogram
from lcmsim.sampling import random_permutation, random_position, random_scalar

from helpers import make_scripted, random_nonzero_scalar

ROBOGRAM_NAMES = (
    "stay",
    "center-of-mass",
    "to-other-occupied",
    "to-max",
    "to-min",
    "convex:1/3",
)
PILE_SIZES = (1, 3, 8)
BATTERY_HORIZON = 1000


def _report(number: int, label: str, ok: bool, note: str = "") -> None:
    suffix = f" [{note}]" if note else ""
    print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="session")
def emitted():
    """(label, robogram, trace) for every trace produced during the session."""
    return []


@pytest.fixture(scope="session")
def battery(emitted):
    reports = {}
    for name in ROBOGRAM_NAMES:
        robogram = resolve_robogram(name)
        for n in PILE_SIZES:
            started = time.perf_counter()
            report = run_impossibility(robogram, n, BATTERY_HORIZON)
            elapsed = time.perf_counter() - started
            reports[(name, n)] = (report, elapsed)
            emitted.append((f"battery {name} n={n}", robogram, report.trace))
    return reports


@pytest.fixture(scope="session")
def fair_traces(emitted):
    rng = random.Random(2)
    traces = []
    for i in range(100):
        universe = RobotUniverse(rng.randint(1, 3))
        demon = make_random_kfair(universe, rng.randint(0, 3), 1, seed=rng.randint(0, 10**6))
        robogram = resolve_robogram(rng.choice(ROBOGRAM_NAMES))
        p0 = random_position(universe, rng, max_abs=3, max_den=3)
        trace = execute_prefix(robogram, demon, p0, 40)
        traces.append(trace)
        emitted.append((f"fair {i}", robogram, trace))
    return traces


@pytest.fixture(scope="session")
def random_scheduler_traces(emitted):
    rng = random.Random(5)
    traces = []
    for i in range(200):
        universe = RobotUniverse(rng.randint(1, 3))
        demon = make_random_kfair(universe, rng.randint(0, 2), 1, seed=rng.randint(0, 10**6))
        robogram = resolve_robogram(rng.choice(ROBOGRAM_NAMES))
        p0 = random_position(universe, rng, max_abs=2, max_den=2)
        trace = execute_prefix(robogram, demon, p0, 30)
        traces.append(trace)
        emitted.append((f"random-scheduler {i}", robogram, trace))
    return traces


def test_criterion_1_impossibility_battery(battery):
    failures = []
    slowest = 0.0
    for (name, n), (report, elapsed) in battery.items():
        slowest = max(slowest, elapsed)
        expected_split = Verdict.no_violation_up_to(BATTERY_HORIZON)
        if report.split != expected_split:
            failures.append(f"{name} n={n}: split {report.split}")
        if report.gather.ok or report.gather.horizon != BATTERY_HORIZON:
            failures.append(f"{name} n={n}: gather {report.gather}")
        if report.fairness[1] != expected_split:
            failures.append(f"{name} n={n}: 1-fairness {report.fairness[1]}")
        if not report.bivalence_complete:
            failures.append(f"{name} n={n}: bivalence {report.bivalence_failures[:3]}")
        if not report.certified:
            failures.append(f"{name} n={n}: not certified")
    ok = not failures
    _report(1, "impossibility battery", ok,
            f"{len(battery)} scenarios, slowest {slowest:.2f}s")
    assert ok, failures


def test_criterion_2_fairness_calculus(battery, fair_traces):
    failures = []
    alternating = battery[("center-of-mass", 3)][0].trace
    acts = alternating.actions()
    if check_kfair(acts, 0) != Verdict.violated(0):
        failures.append(f"alternating k=0: {check_kfair(acts, 0)}")
    for k in (1, 2):
        if check_kfair(acts, k) != Verdict.no_violation_up_to(BATTERY_HORIZON):
            failures.append(f"alternating k={k}: {check_kfair(acts, k)}")
    swap_acts = battery[("to-other-occupied", 3)][0].trace.actions()
    if check_kfair(swap_acts, 0) != Verdict.no_violation_up_to(BATTERY_HORIZON):
        failures.append(f"swap k=0: {check_kfair(swap_acts, 0)}")

    for i, trace in enumerate(fair_traces):
        clean_at = None
        for k in range(5):
            verdict = check_kfair(trace.actions(), k)
            if verdict.kind == NO_VIOLATION:
                clean_at = k if clean_at is None else clean_at
            elif clean_at is not None:
                failures.append(f"trace {i}: clean at k={clean_at}, violated at k={k}")
    ok = not failures
    _report(2, "fairness calculus", ok, "100 random-scheduler monotonicity checks")
    assert ok, failures


def test_criterion_3_exactness_witness(battery):
    report = battery[("center-of-mass", 1)][0]
    positions = report.trace.positions()
    l0, r0 = report.trace.universe.robots
    failures = []
    for index, position in enumerate(positions):
        if abs(position[l0] - position[r0]) != Fraction(1, 2**index):
            failures.append(f"distance at {index} is not 2^-{index}")
            break
    if abs(positions[200][l0] - positions[200][r0]) != Fraction(1, 2**200):
        failures.append("distance at 200 is wrong")
    if not split(positions[200]):
        failures.append("piles not split at 200")

    # non-gating note: the same recurrence in doubles collapses the piles
    u, v = 0.0, 1.0
    collapse = None
    for index in range(120):
        if index % 2 == 0:
            u = u + (v - u) * 0.5
        else:
            v = v + (u - v) * 0.5
        if u == v:
            collapse = index + 1
            break
    ok = not failures
    _report(3, "exactness witness", ok,
            f"exact to round 1000; doubles collapse by round {collapse}")
    assert ok, failures


def test_criterion_4_demon_choice_necessity(emitted):
    universe = RobotUniverse(1)
    robogram = resolve_robogram("to-other-occupied")
    trace = execute_prefix(
        robogram, make_alternating_demon(universe), Position.from_piles(universe, 0, 1), 10
    )
    emitted.append(("wrong-branch to-other-occupied", robogram, trace))
    verdict = check_will_gather(trace)
    ok = verdict.ok and verdict.round == 1 and verdict.point is not None
    _report(4, "demon-choice necessity", ok, f"wrong branch gathers: {verdict.kind}")
    assert ok, verdict


def test_criterion_5_mutual_exclusion(battery, emitted, random_scheduler_traces):
    failures = []
    for label, _, trace in emitted:
        split_clean = check_always_split(trace).ok
        gathered = check_will_gather(trace).ok
        if split_clean and gathered:
            failures.append(f"{label}: split-clean and gathered")

    rng = random.Random(55)
    for _ in range(10_000):
        universe = RobotUniverse(rng.randint(1, 4))
        position = random_position(universe, rng, max_abs=2, max_den=2)
        if split(position) and gathered_location(position) is not None:
            failures.append(f"pointwise: {position}")
            break
    ok = not failures
    _report(5, "mutual exclusion", ok,
            f"{len(emitted)} traces, 10000 pointwise samples")
    assert ok, failures


def test_criterion_6_invariance():
    failures = []
    rng = random.Random(6)
    for name in ROBOGRAM_NAMES:
        robogram = resolve_robogram(name)
        for _ in range(1000):
            universe = RobotUniverse(rng.randint(1, 4))
            position = random_position(universe, rng)
            sigma = random_permutation(universe, rng)
            if not check_invariance(robogram, position, sigma):
                failures.append(f"{name}: {position} under {sigma}")
                break

    counterexample = None
    for _ in range(1000):
        universe = RobotUniverse(rng.randint(2, 4))
        position = random_position(universe, rng)
        sigma = random_permutation(universe, rng)
        if not check_invariance(broken_id_leak, position, sigma):
            counterexample = (position, sigma)
            break
    if counterexample is None:
        failures.append("broken-id-leak survived 1000 samples")
    else:
        print(f"[acceptance]   broken-id-leak counterexample: {counterexample[0]} "
              f"under {counterexample[1]}")
    ok = not failures
    _report(6, "permutation invariance", ok, "1000 samples per robogram")
    assert ok, failures


def test_criterion_7_execution_equivariance():
    failures = []
    rng = random.Random(7)
    for i in range(100):
        universe = RobotUniverse(rng.randint(1, 3))
        robogram = resolve_robogram(rng.choice(ROBOGRAM_NAMES))
        schedule = [
            {
                r: random_nonzero_scalar(rng) if rng.random() < 0.6 else Fraction(0)
                for r in universe.robots
            }
            for _ in range(6)
        ]
        p0 = random_position(universe, rng)
        c = random_scalar(rng)
        s = random_nonzero_scalar(rng)
        base = execute_prefix(robogram, make_scripted(universe, schedule), p0, 6)

        moved = execute_prefix(
            robogram, make_scripted(universe, schedule),
            p0.map_locations(lambda x: x + c), 6,
        )
        if any(
            pm != pb.map_locations(lambda x: x + c)
            for pb, pm in zip(base.positions(), moved.positions())
        ):
            failures.append(f"instance {i}: translation by {c} broke {robogram.name}")

        scaled_schedule = [
            {r: f / s if f else Fraction(0) for r, f in frames.items()}
            for frames in schedule
        ]
        scaled = execute_prefix(
            robogram, make_scripted(universe, scaled_schedule),
            p0.map_locations(lambda x: s * x), 6,
        )
        if any(
            ps != pb.map_locations(lambda x: s * x)
            for pb, ps in zip(base.positions(), scaled.positions())
        ):
            failures.append(f"instance {i}: scaling by {s} broke {robogram.name}")
    ok = not failures
    _report(7, "execution equivariance", ok, "100 instances, exact equality")
    assert ok, failures


def test_criterion_8_round_trip(battery, emitted):
    failures = []
    for label, robogram, trace in emitted:
        buffer = io.StringIO()
        write_trace(trace, buffer)
        again = read_trace(buffer.getvalue().splitlines())
        if again != trace:
            failures.append(f"{label}: parse round-trip changed the trace")
            continue
        try:
            replay(again, robogram)
        except Exception as exc:
            failures.append(f"{label}: replay failed: {exc}")
            continue
        if check_always_split(again) != check_always_split(trace):
            failures.append(f"{label}: split verdict changed")
        if check_will_gather(again) != check_will_gather(trace):
            failures.append(f"{label}: gather verdict changed")
        if again.horizon and check_kfair(again.actions(), 1) != check_kfair(trace.actions(), 1):
            failures.append(f"{label}: fairness verdict changed")
    ok = not failures
    _report(8, "trace round-trip", ok, f"{len(emitted)} traces re-certified")
    assert ok, failures

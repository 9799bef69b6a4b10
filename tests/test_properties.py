from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim.core import EmptyUniverse, Position, RobotId, RobotUniverse, Side
from lcmsim.demons import DemonicAction, Verdict, make_random_kfair
from lcmsim.execution import Trace, TraceRound, execute_prefix
from lcmsim.properties import (
    check_always_split,
    check_will_gather,
    gathered_location,
    split,
)
from lcmsim.robograms import center_of_mass, resolve_robogram
from lcmsim.sampling import random_position


def _fabricated_trace(universe, positions):
    """A trace whose positions are given directly; frames are all-active 1."""
    action = DemonicAction(universe, {r: 1 for r in universe.robots})
    rounds = tuple(
        TraceRound(i, action, post) for i, post in enumerate(positions[1:])
    )
    return Trace("fabricated", "fabricated", positions[0], rounds)


def _gather_oracle(trace):
    positions = trace.positions()
    for i in range(len(positions)):
        points = {gathered_location(q) for q in positions[i:]}
        if len(points) == 1 and None not in points:
            return i, points.pop()
    return None


def test_gathered_location_basics():
    u = RobotUniverse(2)
    assert gathered_location(Position.from_piles(u, 3, 3)) == Fraction(3)
    assert gathered_location(Position.from_piles(u, 0, 1)) is None
    with pytest.raises(EmptyUniverse):
        gathered_location(Position(RobotUniverse(0), {}))


def test_split_is_about_cross_pile_collisions_only():
    u = RobotUniverse(2)
    assert split(Position.from_piles(u, 0, 1))
    assert not split(Position.from_piles(u, 1, 1))
    # a collision inside one pile does not break the split
    p = Position(
        u,
        {
            RobotId(Side.LEFT, 0): 0,
            RobotId(Side.LEFT, 1): 0,
            RobotId(Side.RIGHT, 0): 1,
            RobotId(Side.RIGHT, 1): 2,
        },
    )
    assert split(p)
    # one shared location across piles breaks it
    q = Position(
        u,
        {
            RobotId(Side.LEFT, 0): 0,
            RobotId(Side.LEFT, 1): 5,
            RobotId(Side.RIGHT, 0): 1,
            RobotId(Side.RIGHT, 1): 5,
        },
    )
    assert not split(q)


def test_split_excludes_gathering_pointwise():
    rng = random.Random(19)
    for _ in range(500):
        u = RobotUniverse(rng.randint(1, 4))
        p = random_position(u, rng, max_abs=2, max_den=2)
        if split(p):
            assert gathered_location(p) is None


def test_will_gather_anchors_at_the_stable_suffix():
    u = RobotUniverse(1)
    apart = Position.from_piles(u, 0, 1)
    here = Position.from_piles(u, 1, 1)
    trace = _fabricated_trace(u, [apart, apart, here, here])
    verdict = check_will_gather(trace)
    assert verdict == Verdict.tentatively_gathered(2, Fraction(1), 3)
    assert verdict.ok


def test_will_gather_from_the_start():
    u = RobotUniverse(2)
    here = Position.from_piles(u, "1/2", "1/2")
    trace = _fabricated_trace(u, [here, here, here])
    assert check_will_gather(trace) == Verdict.tentatively_gathered(
        0, Fraction(1, 2), 2
    )


def test_will_gather_requires_staying_gathered():
    u = RobotUniverse(1)
    apart = Position.from_piles(u, 0, 1)
    here = Position.from_piles(u, 1, 1)
    trace = _fabricated_trace(u, [apart, here, apart])
    assert check_will_gather(trace) == Verdict.not_within_horizon(2)


def test_will_gather_distinguishes_late_regathering():
    u = RobotUniverse(1)
    at1 = Position.from_piles(u, 1, 1)
    at2 = Position.from_piles(u, 2, 2)
    trace = _fabricated_trace(u, [at1, at2, at2])
    assert check_will_gather(trace) == Verdict.tentatively_gathered(1, Fraction(2), 2)


def test_will_gather_on_zero_round_trace():
    u = RobotUniverse(1)
    here = Position.from_piles(u, 0, 0)
    assert check_will_gather(_fabricated_trace(u, [here])) == (
        Verdict.tentatively_gathered(0, Fraction(0), 0)
    )
    apart = Position.from_piles(u, 0, 1)
    assert check_will_gather(_fabricated_trace(u, [apart])) == (
        Verdict.not_within_horizon(0)
    )


def test_will_gather_matches_oracle_on_random_traces():
    rng = random.Random(90)
    for _ in range(200):
        u = RobotUniverse(rng.randint(1, 2))
        length = rng.randint(1, 7)
        positions = [random_position(u, rng, max_abs=1, max_den=1) for _ in range(length)]
        trace = _fabricated_trace(u, positions)
        verdict = check_will_gather(trace)
        expected = _gather_oracle(trace)
        if expected is None:
            assert verdict == Verdict.not_within_horizon(trace.horizon)
        else:
            assert verdict == Verdict.tentatively_gathered(
                expected[0], expected[1], trace.horizon
            )


_SPOTS = tuple(map(Fraction, range(-2, 4)))  # more spots than robots on one pile


@st.composite
def _traces_ending_split(draw):
    """A trace of any positions over a few spots, the last one split: the
    right pile stands only on spots no left robot takes."""
    u = RobotUniverse(draw(st.integers(1, 4)))
    spots = st.sampled_from(_SPOTS)
    positions = [
        Position(u, {r: draw(spots) for r in u.robots}) for _ in range(draw(st.integers(0, 5)))
    ]
    left = {r: draw(spots) for r in u.side_robots(Side.LEFT)}
    free = st.sampled_from([x for x in _SPOTS if x not in left.values()])
    right = {r: draw(free) for r in u.side_robots(Side.RIGHT)}
    positions.append(Position(u, {**left, **right}))
    return _fabricated_trace(u, positions)


@settings(max_examples=200, deadline=None)
@given(_traces_ending_split())
def test_will_gather_answers_not_within_horizon_when_the_last_position_is_split(trace):
    # What lets `ImpossibilityReport.certified` rest on `split` alone: a
    # split last position has a robot of each pile on distinct points.
    assert split(trace.positions()[-1])
    assert check_will_gather(trace) == Verdict.not_within_horizon(trace.horizon)


def test_always_split_counts_the_initial_position():
    u = RobotUniverse(1)
    apart = Position.from_piles(u, 0, 1)
    together = Position.from_piles(u, 1, 1)
    assert check_always_split(_fabricated_trace(u, [together, apart])) == Verdict.violated(0)
    assert check_always_split(_fabricated_trace(u, [apart, together])) == Verdict.violated(1)
    assert check_always_split(_fabricated_trace(u, [apart, apart, apart])) == (
        Verdict.no_violation_up_to(2)
    )


def test_trace_level_mutual_exclusion_on_executions():
    rng = random.Random(44)
    robograms = [center_of_mass, resolve_robogram("to-max"), resolve_robogram("stay")]
    for _ in range(50):
        u = RobotUniverse(rng.randint(1, 3))
        demon = make_random_kfair(u, rng.randint(0, 2), 1, seed=rng.randint(0, 999))
        p0 = random_position(u, rng, max_abs=3, max_den=3)
        trace = execute_prefix(rng.choice(robograms), demon, p0, rng.randint(1, 15))
        split_clean = check_always_split(trace).ok
        gathered = check_will_gather(trace).ok
        assert not (split_clean and gathered)


def test_gather_verdict_json_shapes():
    v = Verdict.tentatively_gathered(2, Fraction(1, 3), 9)
    assert v.to_json_dict() == {
        "verdict": "tentatively-gathered",
        "horizon": 9,
        "round": 2,
        "point": "1/3",
    }
    assert Verdict.not_within_horizon(4).to_json_dict() == {
        "verdict": "not-within-horizon",
        "horizon": 4,
    }

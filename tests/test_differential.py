"""The round engine against a frozen reference.

`reference_round_step` is the recurrence as it stood before the engine
learnt to work per distinct value: every active robot's view is the whole
position mapped robot by robot, and the memo is keyed by Fractions.  The
engine must agree with it exactly, or raise the same error, on positions
with shared and scattered locations, with equal locations held by one object
or by several, and on spectrum and raw robograms alike.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim.core import Position, RobotUniverse, Similarity, spectrum, value_set
from lcmsim.demons import DemonicAction
from lcmsim.execution import round_step
from lcmsim.robograms import (
    broken_id_leak,
    center_of_mass,
    convex,
    evaluate,
    raw_robogram,
    spectrum_robogram,
    stay,
    to_max,
    to_min,
    to_other_occupied,
)


def reference_round_step(robogram, action, position):
    memo = {}
    new = {}
    for r in position.universe.robots:
        f = action.factor(r)
        here = position[r]
        if f == 0:
            new[r] = here
            continue
        key = (f, here)
        if key not in memo:
            frame = Similarity(f, here)
            destination = evaluate(robogram, frame.map_position(position))
            memo[key] = frame.inverse().apply(destination)
        new[r] = memo[key]
    return Position(position.universe, new)


ROBOGRAMS = (
    center_of_mass,
    convex("1/3"),
    convex("-5/2"),
    to_other_occupied,
    to_max,
    to_min,
    stay,
    broken_id_leak,
    # robograms that fail on some views, so both engines must raise alike
    spectrum_robogram("float-off-bivalent", lambda v: Fraction(1) if len(v) <= 2 else 0.5),
    raw_robogram("float-off-origin", lambda p: 0.25 if p.locations()[0] != 0 else Fraction(0)),
)

_POOL = (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2), Fraction(7, 9))


@st.composite
def _scalar(draw, pool):
    """A value from a small pool, so robots often share it: either the pool's
    own object or a fresh equal one, so equal values are not always one
    object."""
    x = draw(st.sampled_from(pool))
    return x if draw(st.booleans()) else Fraction(x.numerator, x.denominator)


@st.composite
def _position(draw, universe):
    scattered = draw(st.booleans())
    if scattered:
        locations = draw(
            st.lists(
                st.fractions(min_value=-50, max_value=50, max_denominator=12),
                min_size=universe.m,
                max_size=universe.m,
            )
        )
    else:
        locations = [draw(_scalar(_POOL)) for _ in range(universe.m)]
    return Position(universe, dict(zip(universe.robots, locations)))


@st.composite
def _action(draw, universe):
    factors = (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2, 7))
    return DemonicAction(universe, {r: draw(_scalar(factors)) for r in universe.robots})


@st.composite
def _cases(draw):
    universe = RobotUniverse(draw(st.integers(1, 4)))
    robogram = draw(st.sampled_from(ROBOGRAMS))
    actions = draw(st.lists(_action(universe), min_size=1, max_size=3))
    return robogram, draw(_position(universe)), actions


def _outcome(step, robogram, action, position):
    try:
        return step(robogram, action, position), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_round_step_agrees_with_the_reference(case):
    robogram, position, actions = case
    for action in actions:
        ours, our_error = _outcome(round_step, robogram, action, position)
        theirs, their_error = _outcome(reference_round_step, robogram, action, position)
        assert our_error == their_error
        if our_error is not None:
            return
        assert ours == theirs
        assert [x for _, x in ours.items()] == [x for _, x in theirs.items()]
        position = ours


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _position(RobotUniverse(n))))
def test_spectrum_and_value_set_count_values_not_objects(position):
    counted = Counter(position.locations())
    assert list(spectrum(position).items()) == list(counted.items())
    assert value_set(position.locations()) == set(counted)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: _position(RobotUniverse(n))),
    st.sampled_from((Fraction(1), Fraction(-3, 2), Fraction(2, 7))),
)
def test_a_mapped_spectrum_is_the_spectrum_of_the_mapped_position(position, factor):
    frame = Similarity(factor, position.locations()[0])
    mapped = frame.map_position(spectrum(position))
    assert list(mapped.items()) == list(spectrum(frame.map_position(position)).items())

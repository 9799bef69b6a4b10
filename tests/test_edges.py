"""Robot-ordered state built inside the package against the checked edges.

Rounds, demons and the trace parser build positions and actions as
occupancy tables in `universe.robots` order, and do not check them again.
Each such object must equal what the public constructors build from its
id-keyed map, each table must be the canonical one, and a robot of another
universe must raise KeyError instead of landing on another robot's place.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim.adversary import make_alternating_demon, make_swap_fsync_demon
from lcmsim.core import (
    Position,
    RobotUniverse,
    Similarity,
    permute_position,
)
from lcmsim.demons import (
    DemonicAction,
    make_fsync,
    make_random_kfair,
    make_round_robin,
)
from lcmsim.execution import execute_prefix, read_trace, round_step, write_trace
from lcmsim.robograms import (
    broken_id_leak,
    center_of_mass,
    convex,
    stay,
    to_max,
    to_other_occupied,
)
from lcmsim.sampling import random_permutation, random_position

from helpers import make_scripted

ROBOGRAMS = (center_of_mass, convex("1/3"), to_max, stay, to_other_occupied, broken_id_leak)

DEMONS = {
    "fsync": lambda u, seed: make_fsync(u),
    "round-robin": lambda u, seed: make_round_robin(u, "1/2"),
    "scripted": lambda u, seed: make_scripted(
        u, [{r: i % 2 for i, r in enumerate(u.robots)}, dict.fromkeys(u.robots, "-2/3")]
    ),
    "random-kfair": lambda u, seed: make_random_kfair(u, seed % 3, "3/2", seed),
    "swap-fsync": lambda u, seed: make_swap_fsync_demon(),
    "alternating": lambda u, seed: make_alternating_demon(),
}


def _lines(trace):
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue().splitlines()


def _assert_canonical_table(t):
    """Points pairwise distinct by value and numbered in order of their first
    robot, one in-range slot per robot: the table `_of` builds from the
    per-robot values, so equal positions (or actions) have equal tables."""
    u = t.universe
    assert len(t.slots) == u.m
    assert all(0 <= s < len(t.points) for s in t.slots)
    assert len(set(t.points)) == len(t.points)
    assert list(dict.fromkeys(t.slots)) == list(range(len(t.points)))
    rebuilt = type(t)._of(u, tuple(map(t.points.__getitem__, t.slots)))
    assert rebuilt == t
    assert (rebuilt.points, rebuilt.slots) == (t.points, t.slots)


def _assert_matches_checked_position(p):
    u = p.universe
    _assert_canonical_table(p)
    assert len(p.locations()) == u.m
    assert all(type(x) is Fraction for x in p.locations())
    assert Position(u, dict(p.items())) == p


def _assert_matches_checked_action(a):
    u = a.universe
    _assert_canonical_table(a)
    assert len(a.frames) == u.m
    assert all(type(f) is Fraction for f in a.frames)
    assert DemonicAction(u, dict(zip(u.robots, a.frames))) == a


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.sampled_from(ROBOGRAMS),
    st.sampled_from(sorted(DEMONS)),
    st.booleans(),
)
def test_built_positions_and_actions_equal_the_checked_ones(n, seed, robogram, demon, scattered):
    u = RobotUniverse(n)
    p0 = random_position(u, random.Random(seed)) if scattered else Position.from_piles(u, 0, 1)
    trace = execute_prefix(robogram, DEMONS[demon](u, seed), p0, 6)
    parsed = read_trace(_lines(trace))
    for t in (trace, parsed):
        for p in t.positions():
            _assert_matches_checked_position(p)
        for a in t.actions():
            _assert_matches_checked_action(a)
    assert parsed == trace
    for rd in trace.rounds:
        pre = trace.positions()[rd.index]
        _assert_matches_checked_position(round_step(robogram, rd.action, pre))
    sigma = random_permutation(u, random.Random(seed))
    _assert_matches_checked_position(permute_position(p0, sigma))
    frame = Similarity(Fraction(-3, 2), p0.locations()[-1])
    for p in (trace.positions()[-1], p0):
        _assert_matches_checked_position(frame.map_position(p))
    _assert_matches_checked_position(Position.from_piles(u, "1/2", "2/4"))
    _assert_matches_checked_position(random_position(u, random.Random(seed + 1)))


@pytest.mark.parametrize("n", [1, 3])
def test_a_robot_of_another_universe_raises_key_error(n):
    u = RobotUniverse(n)
    p = random_position(u, random.Random(n))
    trace = execute_prefix(center_of_mass, make_round_robin(u, 1), p, 2)
    again = read_trace(_lines(trace))
    # a robot past the piles, and names that only look like "L0"
    for foreign in (f"L{n}", f"R{n}", "L00", " L0", "l0", 0):
        for q in (p, trace.rounds[-1].post, again.rounds[-1].post):
            with pytest.raises(KeyError):
                q[foreign]
        for a in (trace.rounds[0].action, again.rounds[0].action):
            with pytest.raises(KeyError):
                a.factor(foreign)
            with pytest.raises(KeyError):
                a.is_active(foreign)


def test_state_of_another_universe_is_refused():
    small, large = RobotUniverse(1), RobotUniverse(2)
    p = Position.from_piles(small, 0, 1)
    action = make_round_robin(large, 1).action(0, Position.from_piles(large, 0, 1))
    with pytest.raises(ValueError, match="different universes"):
        round_step(center_of_mass, action, p)
    with pytest.raises(ValueError, match="different universes"):
        permute_position(p, tuple(range(large.m)))

"""The facts a slot pattern carries (`core._Slots`) against oracles that
recompute them robot by robot.

A pattern is shared by every table built like another with equal slots,
so one tuple serves many rounds, actions and runs.  What it keeps must
depend on the slots alone, or be keyed on everything else it depends on:
the other pattern of a pair and the grouping of the round's values.  Each
test here sets up a way for a fact to go stale and compares the result
with a recomputation that keeps nothing.
"""

from __future__ import annotations

import io
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim import core
from lcmsim.adversary import (
    ALTERNATING,
    SWAP_FSYNC,
    _balanced_bivalent,
    build_adversary_demon,
    run_impossibility,
)
from lcmsim.core import Position, RobotUniverse, permute_position
from lcmsim.demons import DemonicAction, check_kfair, make_fsync, make_round_robin
from lcmsim.execution import _rounds, read_trace, replay, round_step, write_trace
from lcmsim.robograms import center_of_mass, convex, resolve_robogram, stay, to_other_occupied

from test_demons import _kfair_oracle
from test_differential import reference_round_step

F = Fraction


def test_a_shared_pair_of_patterns_is_regrouped_by_each_rounds_destinations():
    # The same position and action objects in every call: the destinations
    # stay apart under center-of-mass and collide under to-other-occupied,
    # so a grouping kept from the call before would be stale.
    u = RobotUniverse(2)
    p = Position.from_piles(u, 0, 1)
    left_moves = DemonicAction._table(u, (F(1), F(0)), p.slots)
    for robogram in (center_of_mass, to_other_occupied, center_of_mass, to_other_occupied):
        post = round_step(robogram, left_moves, p)
        assert post == reference_round_step(robogram, left_moves, p)
    assert len(round_step(to_other_occupied, left_moves, p).points) == 1

    # One position pattern paired with two action patterns whose joints
    # differ but group alike, (0, 1, 2): the slots kept for one action do
    # not serve the other.
    p = Position._of(u, (F(0), F(0), F(0), F(1)))
    first_moves = DemonicAction._table(u, (F(1), F(0)), (0, 1, 1, 1))
    two_move = DemonicAction._table(u, (F(1), F(0)), (0, 0, 1, 1))
    for action in (first_moves, two_move, first_moves, two_move):
        assert round_step(center_of_mass, action, p) == reference_round_step(
            center_of_mass, action, p
        )


def test_one_action_pattern_with_its_idle_slot_moving_between_rounds():
    # The adversary's alternating schedule: one slot tuple, whose factor 0
    # is slot 1 on even rounds (points (f, 0)) and slot 0 on odd ones
    # (points (0, f)).  Which slot is idle depends on the round's factors,
    # not on the pattern.
    rng = random.Random(18)
    for n in (1, 2, 3):
        u = RobotUniverse(n)
        sides = u.sides
        lopsided = core._Slots((0,) * (n + 1) + (1,) * (n - 1))
        for _ in range(40):
            f = F(rng.choice((1, -2, 3)), rng.choice((1, 5)))
            tables = [
                DemonicAction._table(u, rng.choice(((f, F(0)), (F(0), f))), rng.choice((sides, lopsided)))
                for _ in range(rng.randint(1, 10))
            ]
            for k in (0, 1, 2):
                assert check_kfair(tables, k) == _kfair_oracle(tables, k)
            for a in tables:
                assert a.active_robots() == tuple(r for r in u.robots if a.factor(r) != 0)
                p = Position._table(u, a.points, a.slots)
                assert _balanced_bivalent(p, n) == (list(Counter(p.locations()).values()) == [n, n])


def _run(robogram, demon, p0, horizon):
    return _rounds(robogram, demon.action, p0, horizon)


def _runs():
    """Pairs of runs: different robograms on different universes, and on
    one universe, whose `sides` pattern both runs then share."""
    small, large, shared = RobotUniverse(2), RobotUniverse(3), RobotUniverse(2)

    def adversary(robogram, universe):
        demon = build_adversary_demon(robogram, universe, 0, 1)
        return robogram, demon, Position.from_piles(universe, 0, 1)

    return [
        (adversary(center_of_mass, large), adversary(convex("1/3"), small)),
        (
            adversary(center_of_mass, large),
            (convex("1/3"), make_round_robin(small, 2), Position.from_piles(small, 0, 1)),
        ),
        (
            adversary(center_of_mass, shared),
            (center_of_mass, make_fsync(shared), Position.from_piles(shared, 0, 1)),
        ),
        (
            adversary(to_other_occupied, shared),
            (stay, make_round_robin(shared, "1/2"), Position.from_piles(shared, 5, 7)),
        ),
    ]


@pytest.mark.parametrize("case", range(4))
def test_two_runs_advanced_alternately_each_give_their_own_trace(case):
    # Each round is also checked against the reference step, which keeps
    # nothing, so a memo shared between runs is caught even when it makes
    # both the lone and the interleaved runs wrong alike.
    alone = [list(_run(*run, 12)) for run in _runs()[case]]
    runs = _runs()[case]
    interleaved = ([], [])
    for rounds in zip_longest(*(_run(*run, 12) for run in runs)):
        for (robogram, _, p0), done, rd in zip(runs, interleaved, rounds):
            pre = done[-1].post if done else p0
            assert rd.post == reference_round_step(robogram, rd.action, pre)
            done.append(rd)
    assert list(interleaved) == alone


def _count_robot_passes(monkeypatch, m):
    """Count every pass over the robots of an m-robot slot pattern: a new
    pattern built, scanned (`__new__`) or with its facts given (`_known`),
    an iteration of one (Counter, zip, map, set and dict all start there)
    and a slice of one.  Patterns over the few distinct values of a round
    (its grouping) are not per robot."""
    passes = Counter()
    build, build_known = core._Slots.__new__, core._Slots._known

    def new(cls, iterable=()):
        pattern = build(cls, iterable)
        passes["new"] += len(pattern) == m
        return pattern

    def known(slots, **facts):
        pattern = build_known(slots, **facts)
        passes["new"] += len(pattern) == m
        return pattern

    def iterate(self):
        passes["iter"] += len(self) == m
        return tuple.__iter__(self)

    def item(self, i):
        passes["slice"] += isinstance(i, slice) and len(self) == m
        return tuple.__getitem__(self, i)

    monkeypatch.setattr(core._Slots, "__new__", new)
    monkeypatch.setattr(core._Slots, "_known", staticmethod(known))
    monkeypatch.setattr(core._Slots, "__iter__", iterate)
    monkeypatch.setattr(core._Slots, "__getitem__", item)
    return passes


def test_a_certification_makes_as_many_passes_over_its_patterns_at_any_horizon(monkeypatch):
    # While the piles stay stacked a round does no work per robot, so the
    # per-robot passes of run_impossibility (building p0, the invariance
    # screen, the facts of its one pattern) do not grow with the horizon.
    passes = _count_robot_passes(monkeypatch, 40000)
    counts = []
    for horizon in (20, 200):
        passes.clear()
        report = run_impossibility(center_of_mass, 20000, horizon)
        assert report.certified and report.fairness[1].ok
        counts.append(dict(passes))
    assert counts[0] == counts[1]
    assert 0 < sum(counts[0].values()) < 40


def _calls_in_a_stacked_round(selector, n):
    """The Python-level calls of one adversary round on stacked piles:
    `"call"` events under `sys.setprofile` (a generator's resumption is
    one) over one step of `_rounds`, after six warm-up rounds have filled
    the pattern's facts."""
    robogram = resolve_robogram(selector)
    u = RobotUniverse(n)
    demon = build_adversary_demon(robogram, u, 0, 1)
    rounds = _rounds(robogram, demon.action, Position.from_piles(u, 0, 1), 8)
    for _ in range(6):
        next(rounds)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        rd = next(rounds)
    finally:
        sys.setprofile(None)
    assert rd.post.slots is u.sides
    return calls


@pytest.mark.parametrize(
    "selector, n, most",
    [("center-of-mass", 128, 45), ("convex:1/3", 8, 45), ("to-max", 8, 100)],
)
def test_a_stacked_round_makes_a_bounded_number_of_python_calls(selector, n, most):
    # A round is a few exact operations on two piles; what else it does is
    # dispatch: the demon's factors, look, compute, move and the two
    # tables are one loop each over the distinct pairs, with no callback
    # or generator per value.  `center-of-mass` and `convex` take the
    # alternating branch, `to-max` the swap branch, where both piles look
    # and `max` compares two Fractions.
    assert _calls_in_a_stacked_round(selector, n) <= most


@pytest.mark.parametrize("n", [1, 3])
def test_the_screens_reversal_renames_stacked_piles_as_the_pile_swap(n):
    # run_impossibility screens with the reversal of the places (L<i> <->
    # R<n-1-i>): on two stacked piles it gives the position that the pile
    # swap (n, ..., 2n-1, 0, ..., n-1) gives, each pile on the other's point.
    u = RobotUniverse(n)
    p = Position.from_piles(u, 0, 1)
    swap = tuple(range(n, 2 * n)) + tuple(range(n))
    reversal = range(2 * n - 1, -1, -1)
    swapped = Position.from_piles(u, 1, 0)
    assert permute_position(p, reversal) == permute_position(p, swap) == swapped


@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_reversal_is_one_slice_and_equals_the_generic_renaming(n):
    # `permute_position` applies range(m - 1, -1, -1) as `slots[::-1]`; the
    # same places as a tuple take the loop that scatters each robot's slot.
    rng = random.Random(n)
    u = RobotUniverse(n)
    scattered = Position(u, {r: Fraction(i * 7 % (2 * n + 1), 3) for i, r in enumerate(u.robots)})
    merged = Position(u, {r: Fraction(rng.randint(0, 2)) for r in u.robots})
    for p in (Position.from_piles(u, 0, 1), Position.from_piles(u, 2, 2), scattered, merged):
        reversal = range(u.m - 1, -1, -1)
        fast, loop = permute_position(p, reversal), permute_position(p, tuple(reversal))
        assert fast == loop
        assert fast.points == loop.points and fast.slots == loop.slots
        assert fast._per_robot() == p._per_robot()[::-1]


@pytest.mark.parametrize("n", [1, 2, 3, 128])
def test_the_reversal_of_stacked_piles_swaps_their_points_on_the_sides_pattern(n, monkeypatch):
    # On the universe's `sides` pattern the reversal returns the two points
    # swapped on that same tuple, without grouping keys; a position that is
    # not on it, even one with equal slots, still groups its reversed slots.
    u = RobotUniverse(n)
    calls = []
    tabulate_keys = core.tabulate_keys
    monkeypatch.setattr(core, "tabulate_keys", lambda *a: calls.append(a) or tabulate_keys(*a))
    reversal = range(u.m - 1, -1, -1)
    stacked = Position.from_piles(u, F(-3, 7), 2)
    assert stacked.slots is u.sides
    swapped = permute_position(stacked, reversal)
    assert not calls
    assert swapped.slots is u.sides and swapped.points == (F(2), F(-3, 7))
    assert swapped == permute_position(stacked, tuple(reversal)) == Position.from_piles(u, 2, F(-3, 7))
    calls.clear()
    equal_slots = Position._table(u, stacked.points, core._Slots(u.sides))
    assert permute_position(equal_slots, reversal) == swapped and not calls
    met = Position.from_piles(u, 5, 5)
    scattered = Position._of(u, [F(i * 7 % u.m, 3) for i in range(u.m)])
    for p in (met, scattered) if n > 1 else (met,):  # with n = 1 two points are the sides pattern
        calls.clear()
        general = permute_position(p, reversal)
        assert len(calls) == 1
        assert general == permute_position(p, tuple(reversal))
        assert general._per_robot() == p._per_robot()[::-1]


def _tabulated(pattern, values, like):
    """The grouping that tabulates every round's values: `tabulate`, then
    the pattern kept while the values are distinct."""
    points, index = core.tabulate(values)
    if len(points) == len(index):
        return points, pattern
    return points, core._like(tuple(map(index.__getitem__, pattern)), like)


_VALUES = (F(0), F(1), F(-1, 2), F(3, 7), F(10**30 + 1, 3**40))


@st.composite
def _patterns_and_values(draw):
    """A slot pattern, one value per slot (some equal, as fresh objects or
    one shared one, when `merge` is drawn) and a `like` for the grouping."""
    raw = draw(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    index = {slot: i for i, slot in enumerate(dict.fromkeys(raw))}
    pattern = core._Slots(index[slot] for slot in raw)
    width = len(pattern.counts)
    if draw(st.booleans()):  # merge: values drawn with repetition
        picks = draw(st.lists(st.sampled_from(_VALUES), min_size=width, max_size=width))
    else:  # distinct, possibly beyond the pool
        picks = [*_VALUES, *(F(i, 11) for i in range(1, 12))][:width]
        picks = draw(st.permutations(picks))
    values = [x if draw(st.booleans()) else F(x.numerator, x.denominator) for x in picks]
    merged = _tabulated(pattern, values, ())[1]
    like = draw(st.sampled_from(((), pattern, core._Slots(merged))))
    return pattern, values, like


@settings(max_examples=300, deadline=None)
@given(_patterns_and_values())
def test_grouped_equals_tabulating_the_values(case):
    # `_grouped` tests the values' (numerator, denominator) pairs and calls
    # `tabulate` only when two merge; the table it gives must be the one
    # that tabulating every time gives: the same point objects, the same
    # slots, and the same tuple where that keeps one.
    pattern, values, like = case
    points, slots = core._grouped(pattern, iter(values), like)
    expected_points, expected_slots = _tabulated(pattern, values, like)
    assert points == expected_points and slots == expected_slots
    assert all(a is b for a, b in zip(points, expected_points, strict=True))
    assert (slots is pattern) is (expected_slots is pattern)
    assert (slots is like) is (expected_slots is like)
    if len({x.as_integer_ratio() for x in values}) == len(values):
        assert slots is pattern


@pytest.mark.parametrize(
    "selector, branch",
    [("center-of-mass", ALTERNATING), ("convex:1/3", ALTERNATING), ("to-max", SWAP_FSYNC)],
)
def test_a_stacked_run_and_its_replay_call_tabulate_never(monkeypatch, selector, branch):
    # While the piles stay stacked every round's factors and destinations
    # are distinct, so no round, no screen, no read and no replay groups
    # values with `tabulate`.
    calls = []
    tabulate = core.tabulate
    monkeypatch.setattr(core, "tabulate", lambda values: calls.append(1) or tabulate(values))
    robogram = resolve_robogram(selector)
    report = run_impossibility(robogram, 8, 50)
    assert report.certified and report.probe.branch == branch
    assert len(calls) == 0, "run_impossibility"
    out = io.StringIO()
    write_trace(report.trace, out)
    trace = read_trace(io.StringIO(out.getvalue()))
    assert trace == report.trace
    assert len(calls) == 0, "read_trace"
    replay(trace, robogram)
    assert len(calls) == 0, "replay"


_FACTS = ("counts", "piles", "split", "self_pairs")


@pytest.mark.parametrize("n", range(1, 9))
def test_the_sides_patterns_stored_facts_equal_a_scan_of_an_equal_pattern(n):
    # `RobotUniverse.sides` stores its facts as it is built; a pattern with
    # the same slots built through `_Slots(...)` computes them by scanning.
    u = RobotUniverse(n)
    stored = {fact: u.sides.__dict__[fact] for fact in _FACTS}
    scanned = core._Slots(tuple(u.sides))
    assert scanned == u.sides and scanned is not u.sides
    assert stored == {fact: getattr(scanned, fact) for fact in _FACTS}


def test_check_kfair_looks_at_robots_only_when_a_new_pattern_refines_its_classes(monkeypatch):
    # With one slot pattern in the prefix the classes are its slots, so no
    # robot is looked at, however long the prefix.  A second pattern
    # refines the classes with one joint, whether the prefix repeats the
    # two patterns once or ten times.
    u = RobotUniverse(3)
    passes = _count_robot_passes(monkeypatch, u.m)

    def fresh():  # new tuples, so no joint is kept from an earlier call
        return core._Slots((0,) * 4 + (1,) * 2), core._Slots((0, 1, 2, 0, 1, 2))

    lopsided, three = fresh()
    cases = ((u.sides, (F(1), F(0))), (lopsided, (F(0), F(2))), (three, (F(1), F(0), F(3))))
    for pattern, points in cases:  # rotated each round, so the idle slot moves
        rounds = [DemonicAction._table(u, points[i % 2:] + points[:i % 2], pattern)
                  for i in range(7)]
        for k in (0, 1, 2):
            passes.clear()
            verdict = check_kfair(rounds, k)
            assert not passes
            assert verdict == _kfair_oracle(rounds, k)
    counts = []
    for repeats in (1, 10):
        lopsided, three = fresh()
        rounds = [DemonicAction._table(u, points, pattern)
                  for _ in range(repeats)
                  for pattern, points in ((lopsided, (F(1), F(0))), (three, (F(0), F(1), F(3))))]
        passes.clear()
        verdict = check_kfair(rounds, 1)
        counts.append(sum(passes.values()))
        assert verdict == _kfair_oracle(rounds, 1)
    assert counts[0] == counts[1] > 0


def test_building_the_sides_pattern_counts_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Counter was built")

    monkeypatch.setattr(core, "Counter", refuse)
    u = RobotUniverse(10**5)
    assert u.sides.counts == (10**5, 10**5) and len(u.sides) == 2 * 10**5
    with pytest.raises(AssertionError, match="Counter"):  # the patch is live
        core._Slots((0, 1))

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim.adversary import (
    ALTERNATING,
    SWAP_FSYNC,
    DegenerateInitial,
    ImpossibilityReport,
    _balanced_bivalent,
    _canonical_action,
    build_adversary_demon,
    canonical_view,
    make_alternating_demon,
    make_swap_fsync_demon,
    probe_first_move,
    run_impossibility,
)
from lcmsim.core import (
    EmptyUniverse,
    Position,
    RobotId,
    RobotUniverse,
    Side,
    Similarity,
    spectrum,
)
from lcmsim.demons import DemonicAction, Verdict, check_kfair
from lcmsim.execution import execute_prefix, read_trace_file, write_trace_file
from lcmsim.properties import check_will_gather
from lcmsim.robograms import (
    BUILTIN_SELECTORS,
    broken_id_leak,
    center_of_mass,
    check_invariance,
    convex,
    raw_robogram,
    resolve_robogram,
    spectrum_robogram,
    stay,
    to_max,
    to_min,
    to_other_occupied,
)


def _canonical_factor_by_definition(position, robot):
    """Per-robot definition: 1/(v - u) when the opposite pile is stacked at
    v != u, else 1."""
    opposite = {position[r] for r in position.universe.side_robots(robot.side.other)}
    u = position[robot]
    if len(opposite) == 1 and next(iter(opposite)) != u:
        return 1 / (next(iter(opposite)) - u)
    return Fraction(1)


@st.composite
def _pile_positions(draw):
    """Piles either stacked or scattered over a few shared locations, so that
    scattered piles and robots on top of the opposite pile are common.  Three
    locations have 1000 to 2000 bits, as `adversary-deep`'s do, and
    denominators that share powers of 2 and 3, as two piles' do, so the
    demon's integer factor meets a nontrivial gcd."""
    u = RobotUniverse(draw(st.integers(1, 4)))
    spots = st.sampled_from((
        Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2),
        Fraction(7, 6**400), Fraction(5, 2**300 * 3), Fraction(-(2**2000 - 1), 6**7),
    ))
    locations = {}
    for side in Side:
        robots = u.side_robots(side)
        if draw(st.booleans()):
            locations.update(dict.fromkeys(robots, draw(spots)))
        else:
            locations.update((r, draw(spots)) for r in robots)
    return Position(u, locations)


@settings(max_examples=300, deadline=None)
@given(_pile_positions(), st.sampled_from(((), (Side.LEFT,), (Side.RIGHT,), tuple(Side))))
def test_canonical_factors_match_the_per_robot_definition(position, sides):
    u = position.universe
    expected = {
        r: _canonical_factor_by_definition(position, r) if r.side in sides else Fraction(0)
        for r in u.robots
    }
    action = _canonical_action(position, (Side.LEFT in sides, Side.RIGHT in sides))
    assert action.frames == tuple(expected.values())
    assert action == DemonicAction(u, expected)


def test_canonical_view_shape():
    view = canonical_view(RobotUniverse(3))
    assert view.pile_location(Side.LEFT) == Fraction(0)
    assert view.pile_location(Side.RIGHT) == Fraction(1)
    with pytest.raises(EmptyUniverse):
        canonical_view(RobotUniverse(0))


@pytest.mark.parametrize(
    "robogram,delta,branch",
    [
        (stay, Fraction(0), ALTERNATING),
        (center_of_mass, Fraction(1, 2), ALTERNATING),
        (to_other_occupied, Fraction(1), SWAP_FSYNC),
        (to_max, Fraction(1), SWAP_FSYNC),
        (to_min, Fraction(0), ALTERNATING),
        (convex("1/3"), Fraction(1, 6), ALTERNATING),
        (broken_id_leak, Fraction(0), ALTERNATING),
    ],
)
def test_probe_values_and_branches(robogram, delta, branch):
    for n in (1, 3):
        probe = probe_first_move(robogram, RobotUniverse(n))
        assert probe.delta == delta
        assert probe.branch == branch
        assert probe.to_json_dict()["branch"] == branch


def test_swap_branch_trades_the_piles_every_round():
    u = RobotUniverse(1)
    trace = execute_prefix(
        to_other_occupied, make_swap_fsync_demon(u), Position.from_piles(u, 0, 1), 4
    )
    expected = [(0, 1), (1, 0), (0, 1), (1, 0), (0, 1)]
    for position, (left, right) in zip(trace.positions(), expected):
        assert position == Position.from_piles(u, left, right)


def test_alternating_branch_halves_the_distance_for_center_of_mass():
    u = RobotUniverse(1)
    trace = execute_prefix(
        center_of_mass, make_alternating_demon(u), Position.from_piles(u, 0, 1), 2
    )
    positions = trace.positions()
    assert positions[1] == Position.from_piles(u, "1/2", 1)
    assert positions[2] == Position.from_piles(u, "1/2", "3/4")
    # left pile active on even rounds, right on odd
    assert {str(r) for r in trace.rounds[0].action.active_robots()} == {"L0"}
    assert {str(r) for r in trace.rounds[1].action.active_robots()} == {"R0"}


def test_activated_robots_always_see_the_canonical_view():
    # the frame renormalizes whatever the piles did: every activated robot
    # observes its own pile at 0 and the other at 1
    for robogram, make_demon in (
        (center_of_mass, make_alternating_demon),
        (convex("1/3"), make_alternating_demon),
        (to_other_occupied, make_swap_fsync_demon),
        (to_max, make_swap_fsync_demon),
    ):
        u = RobotUniverse(2)
        trace = execute_prefix(robogram, make_demon(u), Position.from_piles(u, 0, 1), 12)
        pre = trace.p0
        for rd in trace.rounds:
            for robot in rd.action.active_robots():
                frame = Similarity(rd.action.factor(robot), pre[robot])
                view = frame.map_position(pre)
                assert spectrum(view) == {Fraction(0): u.pile_size, Fraction(1): u.pile_size}
            pre = rd.post


def test_alternating_demon_survives_degenerate_positions():
    # once the piles coincide the canonical factor is undefined; the demon
    # falls back to factor 1 and keeps producing total actions
    u = RobotUniverse(1)
    trace = execute_prefix(
        to_other_occupied, make_alternating_demon(u), Position.from_piles(u, 0, 1), 6
    )
    assert check_will_gather(trace).ok
    assert all(rd.action.active_robots() for rd in trace.rounds)


def test_build_adversary_demon_picks_the_probe_branch():
    u = RobotUniverse(2)
    assert build_adversary_demon(to_max, u, 0, 1).name == "adversary-swap-fsync"
    assert build_adversary_demon(center_of_mass, u, 0, 1).name == "adversary-alternating"
    with pytest.raises(DegenerateInitial):
        build_adversary_demon(center_of_mass, u, "1/2", "2/4")


def test_wrong_branch_would_gather():
    # delta = 1 robograms gather in one fully synchronous canonical round;
    # delta != 1 robograms gather under the swap demon when delta = 1/2.
    u = RobotUniverse(1)
    alt = execute_prefix(
        to_other_occupied, make_alternating_demon(u), Position.from_piles(u, 0, 1), 5
    )
    verdict = check_will_gather(alt)
    assert verdict.ok and verdict.round == 1 and verdict.point == Fraction(1)

    swap = execute_prefix(
        center_of_mass, make_swap_fsync_demon(u), Position.from_piles(u, 0, 1), 5
    )
    assert check_will_gather(swap).ok


def test_run_impossibility_certifies_builtins():
    for robogram in (center_of_mass, to_other_occupied):
        report = run_impossibility(robogram, 2, 40)
        assert report.certified
        assert report.invariance_ok
        assert report.split.ok
        assert not report.gather.ok
        assert report.fairness[1].ok
        assert report.bivalence_complete
        assert report.trace.horizon == 40


def test_alternating_branch_is_exactly_one_fair():
    report = run_impossibility(center_of_mass, 2, 40)
    assert report.fairness[0].kind == "violated"
    assert report.fairness[1].kind == "no-violation-up-to"


def test_swap_branch_is_zero_fair():
    report = run_impossibility(to_max, 2, 40)
    assert report.probe.branch == SWAP_FSYNC
    assert report.fairness[0].kind == "no-violation-up-to"


def test_run_impossibility_flags_identity_leaks():
    report = run_impossibility(broken_id_leak, 2, 40)
    assert not report.invariance_ok
    assert not report.certified
    payload = report.to_json_dict()
    assert payload["invariance_ok"] is False
    assert payload["certified"] is False


FIRST_KEY = spectrum_robogram("first-key", lambda view: next(iter(view)))

_LEFT0, _RIGHT0 = RobotId(Side.LEFT, 0), RobotId(Side.RIGHT, 0)
# Reads names: L0 and R0 answer differently (1/2 and 1/3).
L0_BEFORE_R0 = raw_robogram(
    "l0-before-r0", lambda p: Fraction(1, 2) if p[_LEFT0] <= p[_RIGHT0] else Fraction(1, 3)
)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_the_invariance_screen_passes_every_builtin_but_the_leak(n):
    # FIRST_KEY reads key order, so like broken-id-leak it sees L0's pile.
    selectors = [s for s in BUILTIN_SELECTORS if "<" not in s]
    selectors += ["convex:1/3", "convex:2/1", "convex:-1/2"]
    for robogram in [resolve_robogram(s) for s in selectors] + [FIRST_KEY]:
        report = run_impossibility(robogram, n, 0)
        assert report.invariance_ok == (robogram not in (broken_id_leak, FIRST_KEY)), robogram


@pytest.mark.parametrize("n", [2, 3, 8])
def test_a_raw_robogram_that_passes_the_pile_swap_is_still_sampled(n):
    # L0 and L1 share a pile in the canonical view and after the swap, so
    # only a renaming that splits them shows the leak.
    gap = raw_robogram(
        "gap", lambda p: p[RobotId(Side.LEFT, 0)] - p[RobotId(Side.LEFT, 1)]
    )
    p0 = canonical_view(RobotUniverse(n))
    assert check_invariance(gap, p0, tuple(range(n, 2 * n)) + tuple(range(n)))
    assert not run_impossibility(gap, n, 0).invariance_ok


def test_the_invariance_screen_evaluates_the_unrenamed_view_once():
    calls = []

    def counted(view):
        calls.append(view)
        return center_of_mass.algo(view)

    run_impossibility(spectrum_robogram("counted", counted), 2, 0)
    # The probe evaluates the canonical view; the screen only its pile swap,
    # which decides it for a spectrum robogram.
    assert len(calls) == 1 + 1


def test_the_invariance_screen_stops_at_the_first_failing_renaming():
    calls = []

    def counted(position):
        calls.append(position)
        return broken_id_leak.algo(position)

    report = run_impossibility(raw_robogram("counted-leak", counted), 2, 0)
    assert not report.invariance_ok
    # The pile swap, the first renaming, moves L0 onto the other pile, so
    # the screen fails there and draws no sample.
    assert len(calls) == 1 + 1


@pytest.mark.parametrize("n", [1, 3])
def test_a_spectrum_robogram_that_reads_key_order_is_screened_and_not_certified(n):
    # A spectrum lists its locations in order of their first robot, so the
    # first key is L0's point: reading it leaks a name, and the screen runs
    # for spectrum robograms too.
    payload = run_impossibility(FIRST_KEY, n, 6).to_json_dict()
    assert payload["invariance_ok"] is False
    assert payload["split"] == {"verdict": "violated", "round": 2}
    assert payload["gather"] == {
        "verdict": "tentatively-gathered", "horizon": 6, "round": 2, "point": "0/1"
    }
    assert payload["bivalence"] == {"complete": False, "failures": [2, 3, 4, 5, 6]}
    assert payload["certified"] is False


def test_report_json_shape():
    report = run_impossibility(center_of_mass, 1, 10)
    payload = report.to_json_dict()
    assert payload["robogram"] == "center-of-mass"
    assert payload["n"] == 1
    assert payload["horizon"] == 10
    assert payload["probe"] == {"delta": "1/2", "branch": "alternating"}
    assert set(payload["fairness"]) == {"0", "1"}
    assert payload["bivalence"] == {"complete": True, "failures": []}
    assert payload["certified"] is True


def test_run_impossibility_shares_one_universe():
    # One universe per run: the demon's actions and every position hold the
    # run's own universe object, so their tuples share one robot order.
    for robogram in (center_of_mass, to_max):
        report = run_impossibility(robogram, 3, 6)
        universe = report.trace.universe
        for rd in report.trace.rounds:
            assert rd.action.universe is universe and rd.post.universe is universe
            assert len(rd.action.frames) == len(rd.post.locations()) == universe.m
    u = RobotUniverse(2)
    assert canonical_view(u).universe is u
    demon = build_adversary_demon(center_of_mass, u, 0, 1)
    assert demon.action(0, Position.from_piles(u, 0, 1)).universe is u


def test_an_adversary_trace_holds_one_slot_tuple(tmp_path):
    # While the piles stay stacked, every position and every action has the
    # pattern (0,)*n + (1,)*n, and each is built like the position before
    # it, so the whole trace holds p0's slot tuple, executed or read back.
    trace = run_impossibility(center_of_mass, 3, 50).trace
    path = str(tmp_path / "t.jsonl")
    write_trace_file(trace, path)
    for t in (trace, read_trace_file(path)):
        tables = t.positions() + t.actions()
        assert len(tables) == 101
        assert len({id(table.slots) for table in tables}) == 1
        assert t.p0.slots == (0, 0, 0, 1, 1, 1)


@pytest.mark.parametrize("robogram,branch", [(center_of_mass, ALTERNATING), (to_max, SWAP_FSYNC)])
def test_an_adversary_demon_keeps_no_state(robogram, branch):
    # A demon that has run answers every (round, position) as a fresh one
    # does, in any order, on stacked and on scattered positions.
    u = RobotUniverse(2)
    used = build_adversary_demon(robogram, u, 0, 1)
    trace = execute_prefix(robogram, used, canonical_view(u), 12)
    assert trace.demon_name == f"adversary-{branch}"
    scattered = Position(u, dict(zip(u.robots, map(Fraction, (0, 2, 1, 5)))))
    asked = list(enumerate(trace.positions()[:-1])) + [(3, scattered), (4, scattered)]
    for i, p in reversed(asked):
        fresh = build_adversary_demon(robogram, u, 0, 1)
        assert used.action(i, p) == fresh.action(i, p)
    assert [used.action(i, p) for i, p in asked[:-2]] == list(trace.actions())


@pytest.mark.parametrize("robogram,branch", [(center_of_mass, ALTERNATING), (to_max, SWAP_FSYNC)])
def test_report_fairness_equals_check_kfair(robogram, branch):
    report = run_impossibility(robogram, 3, 30)
    assert report.probe.branch == branch
    # fresh copies through the checked constructor, so nothing the run's
    # own actions kept can leak into the expected verdicts
    u = report.trace.universe
    actions = [DemonicAction(u, dict(zip(u.robots, a.frames))) for a in report.trace.actions()]
    expected = {k: check_kfair(actions, k) for k in (0, 1)}
    assert report.fairness == expected
    assert report.to_json_dict()["fairness"] == {
        str(k): v.to_json_dict() for k, v in expected.items()
    }


def _failing_premises(report):
    """The fields of `report` whose premise of `certified` fails."""
    premises = {
        "split": report.split.ok,
        "fairness": report.fairness[1].ok,
        "invariance_ok": report.invariance_ok,
        "bivalence_failures": report.bivalence_complete,
    }
    return [name for name, held in premises.items() if not held]


@pytest.mark.parametrize(
    "field,failed",
    [
        (None, None),
        ("split", lambda old: Verdict.violated(3)),
        ("fairness", lambda old: {**old, 1: Verdict.violated(2)}),
        ("invariance_ok", lambda old: False),
        ("bivalence_failures", lambda old: (3,)),
    ],
    ids=["none", "split", "fairness1", "invariance_ok", "bivalence_failures"],
)
def test_certified_fails_when_exactly_one_premise_fails(field, failed):
    # A certified report, rebuilt with one verdict replaced by a failing one.
    report = run_impossibility(center_of_mass, 2, 40)
    fields = dict(zip(ImpossibilityReport.__slots__, report._values(report)))
    if field is not None:
        fields[field] = failed(fields[field])
    rebuilt = ImpossibilityReport(**fields)
    assert _failing_premises(rebuilt) == ([field] if field else [])
    assert rebuilt.certified == (field is None)
    assert rebuilt.to_json_dict()["certified"] == (field is None)


@pytest.mark.parametrize("n", [1, 3])
def test_a_name_reading_robogram_fails_only_the_invariance_screen(n):
    # Under the adversary the piles stay apart and balanced: only the
    # screen refuses it.
    report = run_impossibility(L0_BEFORE_R0, n, 40)
    assert _failing_premises(report) == ["invariance_ok"]
    assert not report.certified


_REPORTED = (
    [resolve_robogram(s) for s in BUILTIN_SELECTORS if "<" not in s]
    + [convex("1/3"), convex("2/1"), convex("-1/2"), FIRST_KEY, L0_BEFORE_R0]
)


@pytest.mark.parametrize("horizon", [0, 1, 40])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_a_split_run_is_never_gathered(n, horizon):
    # Why `certified` has no premise `not gather.ok`: a split position has
    # a robot of each pile (n >= 1), on distinct points, so it is not
    # stacked, and `split` covers the last position, where
    # `check_will_gather` looks first.
    kinds = set()
    for robogram in _REPORTED:
        report = run_impossibility(robogram, n, horizon)
        if report.split.ok:
            assert report.gather == Verdict.not_within_horizon(horizon), robogram
        kinds.add((report.split.ok, report.gather.ok))
        assert report.certified == (
            report.split.ok and not report.gather.ok and report.fairness[1].ok
            and report.invariance_ok and report.bivalence_complete
        ), robogram
    # both sides of the implication are reached: `first-key` and
    # `broken-id-leak` gather at round 2
    assert kinds == ({(True, False), (False, True)} if horizon == 40 else {(True, False)})


def test_run_impossibility_zero_horizon():
    report = run_impossibility(stay, 1, 0)
    assert report.certified
    assert report.gather == check_will_gather(report.trace)
    assert report.fairness[1].kind == "no-violation-up-to"


def test_balanced_bivalent_predicate():
    u = RobotUniverse(2)
    assert _balanced_bivalent(Position.from_piles(u, 0, 1), 2)
    assert not _balanced_bivalent(Position.from_piles(u, 1, 1), 2)
    lopsided = Position(
        u,
        {r: 0 if str(r) != "R1" else 1 for r in u.robots},
    )
    assert not _balanced_bivalent(lopsided, 2)


def test_balanced_bivalent_counts_robots_per_point_not_per_pile():
    u = RobotUniverse(4)
    left, right = u.side_robots(Side.LEFT), u.side_robots(Side.RIGHT)
    # 3 + 5: two points, unbalanced
    unbalanced = Position(u, {r: 1 if r in right or r is left[0] else 0 for r in u.robots})
    assert not _balanced_bivalent(unbalanced, 4)
    # 4 + 4 with robots from both piles on each point, each point's value
    # held by several equal objects
    on_zero = set(left[:2] + right[2:])
    mixed = Position(
        u, {r: Fraction(0) if r in on_zero else Fraction(3, 2) for r in u.robots}
    )
    assert _balanced_bivalent(mixed, 4)
    assert not _balanced_bivalent(mixed, 3)
    three_points = Position(u, {r: r.index % 3 for r in u.robots})
    assert not _balanced_bivalent(three_points, 4)


_BIVALENCE_POOL = (Fraction(0), Fraction(1), Fraction(-2, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_balanced_bivalent_agrees_with_the_spectrum(data):
    n = data.draw(st.integers(1, 4))
    u = RobotUniverse(n)
    values = [data.draw(st.sampled_from(_BIVALENCE_POOL)) for _ in u.robots]
    # equal values held by one object or by several
    values = [x if data.draw(st.booleans()) else Fraction(x.numerator, x.denominator)
              for x in values]
    position = Position(u, dict(zip(u.robots, values)))
    counts = spectrum(position)
    expected = len(counts) == 2 and all(c == n for c in counts.values())
    assert _balanced_bivalent(position, n) == expected


def test_run_impossibility_rejects_empty_universe():
    with pytest.raises(EmptyUniverse):
        run_impossibility(stay, 0, 5)

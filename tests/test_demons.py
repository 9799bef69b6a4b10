from __future__ import annotations

import json
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim import demons
from lcmsim.adversary import make_alternating_demon
from lcmsim.core import EmptyUniverse, Position, RobotId, RobotUniverse, Side
from lcmsim.demons import (
    NO_VIOLATION,
    PROVEN,
    UNKNOWN,
    VIOLATED,
    DemonicAction,
    Verdict,
    check_between,
    check_kfair,
    make_fsync,
    make_random_kfair,
    make_round_robin,
)
from lcmsim.execution import execute_prefix
from lcmsim.robograms import stay

from helpers import make_scripted


def _action(universe, active, factor=1):
    return DemonicAction(
        universe, {r: factor if r in active else 0 for r in universe.robots}
    )


def _random_actions(rng, universe, length, allow_empty=True):
    actions = []
    for _ in range(length):
        active = {r for r in universe.robots if rng.random() < 0.4}
        if not active and not allow_empty:
            active = {rng.choice(universe.robots)}
        actions.append(_action(universe, active))
    return actions


def _kfair_oracle(actions, k):
    """Literal reading: scan every suffix and every ordered pair, counting
    h-activations before g's first activation in that suffix."""
    robots = actions[0].universe.robots
    for start in range(len(actions)):
        for g in robots:
            for h in robots:
                if g == h:
                    continue
                seen = 0
                for action in actions[start:]:
                    if action.is_active(g):
                        break
                    if action.is_active(h):
                        seen += 1
                        if seen > k:
                            return Verdict.violated(start)
    return Verdict.no_violation_up_to(len(actions))


def test_demonic_action_totality_and_queries():
    u = RobotUniverse(1)
    l0, r0 = u.robots
    a = DemonicAction(u, {l0: "1/2", r0: 0})
    assert a.factor(l0) == Fraction(1, 2)
    assert a.is_active(l0) and not a.is_active(r0)
    assert a.active_robots() == (l0,)
    with pytest.raises(ValueError):
        DemonicAction(u, {l0: 1})
    with pytest.raises(TypeError):
        DemonicAction(u, {l0: 0.5, r0: 1})


def test_demonic_action_totality_ignores_key_order_and_id_identity():
    u = RobotUniverse(2)
    l0, l1, r0, r1 = u.robots
    a = DemonicAction(u, {r1: 1, l0: "1/2", r0: 0, l1: 0})
    b = DemonicAction(u, {RobotId(r.side, r.index): a.factor(r) for r in u.robots})
    assert a == b
    assert a.active_robots() == (l0, r1)
    with pytest.raises(ValueError, match="every robot"):
        DemonicAction(u, {l0: 1, l1: 1, r0: 1, RobotId(Side.RIGHT, 2): 1})


def test_all_zero_action_is_legal():
    u = RobotUniverse(1)
    a = _action(u, set())
    assert a.active_robots() == ()


def test_fsync_constant_policy_activates_everyone():
    u = RobotUniverse(2)
    demon = make_fsync(u)
    assert demon.name == "fsync"
    p = Position.from_piles(u, 0, 1)
    first = demon.action(0, p)
    assert first == DemonicAction(u, dict.fromkeys(u.robots, 1))
    for i in range(5):
        action = demon.action(i, p.map_locations(lambda x: x + i))
        # one action, built once, whatever the round and the position
        assert action is first
        assert action.active_robots() == u.robots
        assert all(action.factor(r) == 1 for r in u.robots)


@pytest.mark.parametrize(
    "factory",
    [
        make_fsync,
        lambda u: make_round_robin(u, 1),
        lambda u: make_random_kfair(u, 1, 1, 0),
    ],
    ids=["fsync", "round-robin", "random-kfair"],
)
def test_demon_factories_refuse_an_empty_universe(factory):
    with pytest.raises(EmptyUniverse):
        factory(RobotUniverse(0))


def test_round_robin_cycles_left_pile_then_right():
    u = RobotUniverse(1)
    demon = make_round_robin(u, 1)
    p = Position.from_piles(u, 0, 1)
    order = [demon.action(i, p).active_robots() for i in range(4)]
    l0, r0 = u.robots
    assert order == [(l0,), (r0,), (l0,), (r0,)]
    assert demon.name == "round-robin:1/1"
    with pytest.raises(ValueError):
        make_round_robin(u, 0)


def test_scripted_demon_replays_and_cycles():
    u = RobotUniverse(1)
    l0, r0 = u.robots
    demon = make_scripted(u, [{l0: 1, r0: 0}, {l0: 0, r0: "2/3"}])
    p = Position.from_piles(u, 0, 1)
    assert demon.action(0, p).active_robots() == (l0,)
    assert demon.action(1, p).factor(r0) == Fraction(2, 3)
    assert demon.action(2, p).active_robots() == (l0,)
    with pytest.raises(ValueError):
        make_scripted(u, [])


def test_check_between_rule_by_rule():
    u = RobotUniverse(1)
    g, h = u.robots
    # g activated right away: proven for any budget
    assert check_between([_action(u, {g})], g, h, 0).kind == PROVEN
    # one budget unit spent, then g closes
    acts = [_action(u, {h}), _action(u, {g})]
    assert check_between(acts, g, h, 1).kind == PROVEN
    # budget exhausted by the second h-activation
    acts = [_action(u, {h}), _action(u, {h})]
    assert check_between(acts, g, h, 1) == Verdict.violated(1)
    # nothing ever happens: the derivation never closes
    acts = [_action(u, set())] * 4
    assert check_between(acts, g, h, 3) == Verdict.unknown(4)


def test_check_between_validates_inputs():
    u = RobotUniverse(1)
    g, h = u.robots
    with pytest.raises(ValueError):
        check_between([], g, h, 1)
    with pytest.raises(ValueError):
        check_between([_action(u, {g})], g, h, -1)


def test_check_between_monotone_in_budget():
    rng = random.Random(23)
    u = RobotUniverse(2)
    for _ in range(200):
        actions = _random_actions(rng, u, rng.randint(1, 10))
        g, h = rng.sample(u.robots, 2)
        verdicts = [check_between(actions, g, h, k) for k in range(5)]
        for k in range(4):
            if verdicts[k].kind == PROVEN:
                assert verdicts[k + 1].kind == PROVEN
            if verdicts[k + 1].kind == VIOLATED:
                assert verdicts[k].kind == VIOLATED


def test_check_kfair_on_fsync_prefix_is_clean_at_zero():
    u = RobotUniverse(2)
    demon = make_fsync(u)
    trace = execute_prefix(stay, demon, Position.from_piles(u, 0, 1), 20)
    assert check_kfair(trace.actions(), 0) == Verdict.no_violation_up_to(20)
    for g in u.robots:
        for h in u.robots:
            if g != h:
                assert check_between(trace.actions(), g, h, 0).kind == PROVEN


def test_check_kfair_round_robin_bounds():
    u = RobotUniverse(1)
    demon = make_round_robin(u, 1)
    m = u.m
    trace = execute_prefix(stay, demon, Position.from_piles(u, 0, 1), 4 * m)
    actions = trace.actions()
    assert check_kfair(actions, 0) == Verdict.violated(0)
    assert check_kfair(actions, m - 1) == Verdict.no_violation_up_to(4 * m)


def test_check_kfair_reports_earliest_violating_suffix():
    u = RobotUniverse(1)
    g, h = u.robots
    # g closes round 0, then h runs twice unanswered: suffix 1 violates at k=1
    actions = [_action(u, {g}), _action(u, {h}), _action(u, {h}), _action(u, {h})]
    assert check_kfair(actions, 1) == Verdict.violated(1)
    assert check_kfair(actions, 2) == Verdict.violated(1)
    assert check_kfair(actions, 3) == Verdict.no_violation_up_to(4)


def test_check_kfair_never_proven_and_validates_inputs():
    u = RobotUniverse(1)
    # an empty prefix refutes nothing, but a negative budget is refused first
    assert check_kfair([], 0) == Verdict.no_violation_up_to(0)
    assert check_kfair((), 3) == Verdict.no_violation_up_to(0)
    with pytest.raises(ValueError):
        check_kfair([], -1)
    with pytest.raises(ValueError):
        check_kfair([_action(u, set(u.robots))], -1)
    v = check_kfair([_action(u, set(u.robots))] * 3, 0)
    assert v.kind == NO_VIOLATION


def test_check_kfair_matches_brute_force_oracle():
    rng = random.Random(77)
    for _ in range(300):
        u = RobotUniverse(rng.choice((1, 2)))
        actions = _random_actions(rng, u, rng.randint(1, 12))
        k = rng.randint(0, 3)
        assert check_kfair(actions, k) == _kfair_oracle(actions, k)


def test_check_kfair_stops_at_the_first_refuting_round(monkeypatch):
    # The alternating adversary leaves the right pile idle in round 0, so
    # k = 0 is refuted there and the pass ends after one round; k = 1 holds
    # and the pass reads every round once.
    u = RobotUniverse(2)
    demon = make_alternating_demon(u)
    actions = execute_prefix(stay, demon, Position.from_piles(u, 0, 1), 1000).actions()
    rounds = []
    rule = demons._kfair_cutoff

    def counted(active, k, round_index):
        rounds.append(round_index)
        return rule(active, k, round_index)

    monkeypatch.setattr(demons, "_kfair_cutoff", counted)
    assert check_kfair(actions, 0) == Verdict.violated(0)
    assert rounds == [0]
    rounds.clear()
    assert check_kfair(actions, 1) == Verdict.no_violation_up_to(1000)
    assert rounds == list(range(1000))


class _CountedReads(Sequence):
    """A sequence of actions that counts how many items are read."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


def test_check_kfair_reads_no_action_past_the_refuting_round():
    # A fold that never looks ahead: k = 0 is refuted in round 0 of an
    # alternating prefix after reading that one action; k = 1 reads each
    # action once (and one more index, where iteration ends).
    u = RobotUniverse(2)
    demon = make_alternating_demon(u)
    actions = execute_prefix(stay, demon, Position.from_piles(u, 0, 1), 40).actions()
    prefix = _CountedReads(actions)
    assert check_kfair(prefix, 0) == Verdict.violated(0)
    assert prefix.reads == 1
    prefix.reads = 0
    assert check_kfair(prefix, 1) == Verdict.no_violation_up_to(40)
    assert prefix.reads == 41


@st.composite
def _actions_from_column_patterns(draw):
    """Up to 4 robots a pile, each following one of at most 3 activation
    columns, so that robots sharing a column are the common case."""
    u = RobotUniverse(draw(st.integers(1, 4)))
    horizon = draw(st.integers(1, 12))
    column = st.lists(st.booleans(), min_size=horizon, max_size=horizon)
    patterns = draw(st.lists(column, min_size=1, max_size=3))
    owner = {r: draw(st.sampled_from(patterns)) for r in u.robots}
    return [_action(u, {r for r in u.robots if owner[r][i]}) for i in range(horizon)]


@settings(max_examples=300, deadline=None)
@given(_actions_from_column_patterns(), st.sampled_from((0, 1, 2, 3)))
def test_check_kfair_matches_oracle_on_shared_columns(actions, k):
    assert check_kfair(actions, k) == _kfair_oracle(actions, k)


def test_check_kfair_monotone_in_budget():
    rng = random.Random(31)
    u = RobotUniverse(2)
    for _ in range(100):
        actions = _random_actions(rng, u, rng.randint(1, 15))
        clean_from = None
        for k in range(5):
            v = check_kfair(actions, k)
            if v.kind == NO_VIOLATION:
                clean_from = k if clean_from is None else clean_from
            elif clean_from is not None:
                pytest.fail(f"violated at k={k} after clean at k={clean_from}")


def test_random_kfair_is_deterministic_per_seed():
    u = RobotUniverse(2)
    p = Position.from_piles(u, 0, 1)
    one = [make_random_kfair(u, 2, 1, seed=5).action(i, p) for i in range(30)]
    two = [make_random_kfair(u, 2, 1, seed=5).action(i, p) for i in range(30)]
    other = [make_random_kfair(u, 2, 1, seed=6).action(i, p) for i in range(30)]
    assert one == two
    assert one != other


def test_random_kfair_zero_budget_degenerates_to_all_active():
    u = RobotUniverse(2)
    demon = make_random_kfair(u, 0, 1, seed=9)
    p = Position.from_piles(u, 0, 1)
    for i in range(10):
        assert demon.action(i, p).active_robots() == u.robots


def test_random_kfair_honors_its_own_bound():
    for seed in range(10):
        k = seed % 3
        u = RobotUniverse(1 + seed % 3)
        demon = make_random_kfair(u, k, 1, seed=seed)
        trace = execute_prefix(stay, demon, Position.from_piles(u, 0, 1), 200)
        actions = trace.actions()
        assert all(a.active_robots() for a in actions)
        assert check_kfair(actions, k).kind == NO_VIOLATION


def test_fair_demons_reactivate_within_the_shadow_bound():
    # if no k-violation is found, any activated robot comes back before
    # the others accumulate more than k*(m-1) activation events
    for seed in (0, 1, 2):
        k = 1 + seed
        u = RobotUniverse(2)
        demon = make_random_kfair(u, k, 1, seed=seed)
        trace = execute_prefix(stay, demon, Position.from_piles(u, 0, 1), 300)
        actions = trace.actions()
        assert check_kfair(actions, k).kind == NO_VIOLATION
        bound = k * (u.m - 1)
        for g in u.robots:
            others = 0
            for action in actions:
                if action.is_active(g):
                    others = 0
                else:
                    others += sum(1 for h in u.robots if h != g and action.is_active(h))
                assert others <= bound


def test_verdict_json_shapes():
    # Dict equality ignores key order, so the text is pinned: the kind, then
    # horizon, round and point, each when it is set.
    cases = [
        (Verdict.proven(), '{"verdict": "proven"}'),
        (Verdict.violated(4), '{"verdict": "violated", "round": 4}'),
        (Verdict.no_violation_up_to(9), '{"verdict": "no-violation-up-to", "horizon": 9}'),
        (Verdict.unknown(9), '{"verdict": "unknown", "horizon": 9}'),
        (
            Verdict.tentatively_gathered(2, Fraction(1, 3), 9),
            '{"verdict": "tentatively-gathered", "horizon": 9, "round": 2, "point": "1/3"}',
        ),
        (Verdict.not_within_horizon(4), '{"verdict": "not-within-horizon", "horizon": 4}'),
    ]
    for verdict, text in cases:
        assert json.dumps(verdict.to_json_dict()) == text
    assert [v.ok for v, _ in cases] == [True, False, True, False, True, False]
    assert Verdict.unknown(9).kind == UNKNOWN

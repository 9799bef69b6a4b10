from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest

from lcmsim.core import EmptyUniverse, Position, RobotUniverse, parse_scalar
from lcmsim.demons import Demon, DemonicAction, make_fsync, make_random_kfair
from lcmsim.execution import (
    ExecutionError,
    ReplayMismatchError,
    TraceFormatError,
    execute_prefix,
    read_trace,
    read_trace_file,
    replay,
    round_step,
    write_trace,
    write_trace_file,
)
from lcmsim.robograms import (
    center_of_mass,
    evaluate,
    raw_robogram,
    resolve_robogram,
    spectrum_robogram,
    stay,
)
from lcmsim.sampling import random_position, random_scalar

from helpers import make_scripted, random_nonzero_scalar


def _random_schedule(rng, universe, length):
    schedule = []
    for _ in range(length):
        frames = {
            r: random_nonzero_scalar(rng) if rng.random() < 0.6 else 0
            for r in universe.robots
        }
        schedule.append(frames)
    return schedule


def test_round_step_center_of_mass_fsync():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)
    action = DemonicAction(u, {r: 1 for r in u.robots})
    assert round_step(center_of_mass, action, p) == Position.from_piles(u, "1/2", "1/2")


def test_round_step_leaves_inactive_robots_alone():
    u = RobotUniverse(1)
    l0, r0 = u.robots
    p = Position.from_piles(u, 0, 1)
    out = round_step(center_of_mass, DemonicAction(u, {l0: 1, r0: 0}), p)
    assert out == Position.from_piles(u, "1/2", 1)
    # a different frame scale reaches the same global destination
    out2 = round_step(center_of_mass, DemonicAction(u, {l0: 2, r0: 0}), p)
    assert out2 == out


def test_round_step_matches_direct_formula():
    # active robot at u with factor f lands on u + answer/f, where the answer
    # is the robogram run on the view f*(. - u)
    rng = random.Random(40)
    for _ in range(150):
        universe = RobotUniverse(rng.randint(1, 3))
        p = random_position(universe, rng)
        frames = {
            r: random_nonzero_scalar(rng) if rng.random() < 0.7 else Fraction(0)
            for r in universe.robots
        }
        out = round_step(center_of_mass, DemonicAction(universe, frames), p)
        for r in universe.robots:
            f = frames[r]
            if f == 0:
                assert out[r] == p[r]
            else:
                view = p.map_locations(lambda x: f * (x - p[r]))
                assert out[r] == p[r] + evaluate(center_of_mass, view) / f


def test_execute_prefix_validates_inputs():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)
    with pytest.raises(ValueError):
        execute_prefix(stay, make_fsync(u), p, -1)
    empty = Position(RobotUniverse(0), {})
    with pytest.raises(EmptyUniverse):
        execute_prefix(stay, make_fsync(u), empty, 1)
    trace = execute_prefix(stay, make_fsync(u), p, 0)
    assert trace.horizon == 0
    assert trace.positions() == (p,)


def test_execution_error_carries_round_index():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)

    def step(i: int, position: Position) -> DemonicAction:
        if i == 3:
            raise RuntimeError("demon gave up")
        return DemonicAction(u, {r: 1 for r in u.robots})

    with pytest.raises(ExecutionError) as err:
        execute_prefix(stay, Demon("flaky", step), p, 10)
    assert err.value.round_index == 3

    bad = raw_robogram("bad-float", lambda view: 0.5)
    with pytest.raises(ExecutionError) as err:
        execute_prefix(bad, make_fsync(u), p, 5)
    assert err.value.round_index == 0


def test_translation_equivariance():
    rng = random.Random(71)
    for _ in range(60):
        universe = RobotUniverse(rng.randint(1, 3))
        schedule = _random_schedule(rng, universe, 6)
        demon = lambda: make_scripted(universe, schedule)
        p0 = random_position(universe, rng)
        c = random_scalar(rng)
        base = execute_prefix(center_of_mass, demon(), p0, 6)
        moved = execute_prefix(
            center_of_mass, demon(), p0.map_locations(lambda x: x + c), 6
        )
        for pb, pm in zip(base.positions(), moved.positions()):
            assert pm == pb.map_locations(lambda x: x + c)


def test_scale_covariance():
    rng = random.Random(72)
    for _ in range(60):
        universe = RobotUniverse(rng.randint(1, 3))
        schedule = _random_schedule(rng, universe, 6)
        p0 = random_position(universe, rng)
        s = random_nonzero_scalar(rng)
        base = execute_prefix(center_of_mass, make_scripted(universe, schedule), p0, 6)
        scaled_schedule = [
            {r: Fraction(f) / s for r, f in frames.items()} for frames in schedule
        ]
        scaled = execute_prefix(
            center_of_mass,
            make_scripted(universe, scaled_schedule),
            p0.map_locations(lambda x: s * x),
            6,
        )
        for pb, ps in zip(base.positions(), scaled.positions()):
            assert ps == pb.map_locations(lambda x: s * x)


def test_trace_round_trip_through_text():
    rng = random.Random(55)
    for _ in range(20):
        universe = RobotUniverse(rng.randint(1, 3))
        demon = make_random_kfair(universe, rng.randint(0, 2), 1, seed=rng.randint(0, 99))
        p0 = random_position(universe, rng)
        trace = execute_prefix(center_of_mass, demon, p0, rng.randint(0, 8))
        buffer = io.StringIO()
        write_trace(trace, buffer)
        again = read_trace(buffer.getvalue().splitlines())
        assert again == trace


def test_trace_file_round_trip(tmp_path):
    u = RobotUniverse(2)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 4)
    path = tmp_path / "trace.jsonl"
    write_trace_file(trace, str(path))
    assert read_trace_file(str(path)) == trace
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    header = json.loads(lines[0])
    assert header["robogram"] == "center-of-mass"
    assert header["n"] == 2
    assert header["p0"]["L0"] == "0/1"
    first = json.loads(lines[1])
    assert first["round"] == 0
    assert first["post"]["R1"] == "1/2"


def test_read_trace_shares_one_universe():
    u = RobotUniverse(3)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 3)
    buffer = io.StringIO()
    write_trace(trace, buffer)
    again = read_trace(buffer.getvalue().splitlines())
    assert again == trace
    assert again.p0.universe is again.universe
    for rd in again.rounds:
        assert rd.action.universe is again.universe and rd.post.universe is again.universe


def test_read_trace_parses_repeated_and_non_canonical_strings_each_on_its_own():
    # A row is parsed once per distinct string; each robot must still get
    # the value its own string denotes.
    strings = {"L0": "2/4", "L1": "1/2", "L2": "-0/3", "R0": "2/4", "R1": "-0/3", "R2": "7"}
    header = {"robogram": "stay", "demon": "fsync", "n": 3, "p0": strings}
    row = {"round": 0, "frames": strings, "post": strings}
    trace = read_trace([json.dumps(header), json.dumps(row)])
    u = trace.universe
    expected = {r: parse_scalar(strings[str(r)]) for r in u.robots}
    assert trace.p0 == Position(u, expected)
    assert trace.rounds[0].post == Position(u, expected)
    assert trace.rounds[0].action == DemonicAction(u, expected)
    assert trace.p0[u.robots[0]] == Fraction(1, 2) and trace.p0[u.robots[2]] == 0
    # "2/4" and "1/2" share one point, and "-0/3" is 0
    assert trace.rounds[0].action.points == (Fraction(1, 2), 0, 7)
    # written back, every value is in lowest terms
    buffer = io.StringIO()
    write_trace(trace, buffer)
    assert json.loads(buffer.getvalue().splitlines()[0])["p0"] == {
        "L0": "1/2", "L1": "1/2", "L2": "0/1", "R0": "1/2", "R1": "0/1", "R2": "7/1",
    }


def test_read_trace_rejects_a_short_map_before_building_robot_ids(monkeypatch):
    def refuse(universe):
        raise AssertionError("robot ids built for a map that cannot cover them")

    monkeypatch.setattr(RobotUniverse, "robots", property(refuse))
    header = {"robogram": "stay", "demon": "fsync", "n": 10**9, "p0": {"L0": "0/1"}}
    with pytest.raises(TraceFormatError, match="does not cover"):
        read_trace([json.dumps(header)])


def test_read_trace_skips_blank_lines():
    u = RobotUniverse(1)
    trace = execute_prefix(stay, make_fsync(u), Position.from_piles(u, 0, 1), 2)
    buffer = io.StringIO()
    write_trace(trace, buffer)
    lines = buffer.getvalue().splitlines()
    lines.insert(1, "")
    assert read_trace(lines) == trace


def _valid_lines():
    u = RobotUniverse(1)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 2)
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue().splitlines()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda lines: [],
        lambda lines: ["not json"] + lines[1:],
        lambda lines: ["[]"] + lines[1:],
        lambda lines: [json.dumps({"robogram": "stay"})] + lines[1:],
        lambda lines: [lines[0].replace('"n": 1', '"n": -1')] + lines[1:],
        lambda lines: [lines[0].replace('"n": 1', '"n": 1.0')] + lines[1:],
        lambda lines: [lines[0].replace("0/1", "0.5")] + lines[1:],
        lambda lines: [lines[0].replace('"L0"', '"L9"')] + lines[1:],
        lambda lines: [lines[0].replace('"L0"', '"L00"')] + lines[1:],
        lambda lines: lines[:1] + [lines[1].replace('"L0"', '" L0 "', 1)],
        lambda lines: lines[:1] + ["not json"],
        lambda lines: lines[:1] + ['"scalar"'],
        lambda lines: lines[:1] + [lines[1].replace('"round": 0', '"round": 1')],
        lambda lines: lines[:1] + [lines[1].replace('"frames": ', '"f": ')],
        lambda lines: lines[:1] + [lines[1].replace('"L0": "1/1"', '"L0": "1/1", "R7": "1/1"')],
        lambda lines: [lines[0].replace('"n": 1', '"n": true')] + lines[1:],
        lambda lines: lines[:1] + [lines[1].replace('"round": 0', '"round": false')],
        lambda lines: lines[:1] + [lines[1].replace('"round": 0', '"round": 0.0')],
        lambda lines: [json.dumps({"robogram": "stay", "demon": "fsync", "n": 0, "p0": {}})],
    ],
)
def test_read_trace_rejects_malformed_input(mangle):
    with pytest.raises(TraceFormatError):
        read_trace(mangle(_valid_lines()))


def test_replay_certifies_and_detects_tampering():
    u = RobotUniverse(1)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 3)
    replay(trace, center_of_mass)

    buffer = io.StringIO()
    write_trace(trace, buffer)
    lines = buffer.getvalue().splitlines()
    lines[2] = lines[2].replace('"L0": "1/2"', '"L0": "1/3"')
    tampered = read_trace(lines)
    with pytest.raises(ReplayMismatchError) as err:
        replay(tampered, center_of_mass)
    assert err.value.round_index == 1

    # replaying under the wrong robogram also fails
    with pytest.raises(ReplayMismatchError):
        replay(trace, resolve_robogram("to-max"))


def _mean_until_gathered():
    """center-of-mass, except that it fails on a view with a single point."""

    def algo(view):
        if len(view) == 1:
            raise ZeroDivisionError("one point left")
        return center_of_mass.algo(view)

    return spectrum_robogram("center-of-mass", algo)


def test_replay_wraps_robogram_failures_like_execute_prefix():
    # Under fsync the two robots meet after round 0, so round 1 fails.
    u = RobotUniverse(1)
    p0 = Position.from_piles(u, 0, 1)
    trace = execute_prefix(center_of_mass, make_fsync(u), p0, 3)
    for run in (
        lambda: replay(trace, _mean_until_gathered()),
        lambda: execute_prefix(_mean_until_gathered(), make_fsync(u), p0, 3),
    ):
        with pytest.raises(ExecutionError) as err:
            run()
        assert err.value.round_index == 1
        assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_a_robogram_that_mutates_its_view_fails_the_run():
    def grows(view):
        view[Fraction(0)] += 1
        return Fraction(0)

    p0 = Position.from_piles(RobotUniverse(1), 0, 1)
    with pytest.raises(ExecutionError) as err:
        execute_prefix(spectrum_robogram("grows", grows), make_fsync(p0.universe), p0, 2)
    assert err.value.round_index == 0
    assert isinstance(err.value.__cause__, TypeError)

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest

from lcmsim import core, execution
from lcmsim.adversary import run_impossibility
from lcmsim.cli import main
from lcmsim.core import EmptyUniverse, Position, RobotUniverse, format_scalar, parse_scalar
from lcmsim.demons import (
    Demon,
    DemonicAction,
    check_kfair,
    make_fsync,
    make_random_kfair,
    make_round_robin,
)
from lcmsim.execution import (
    ExecutionError,
    ReplayMismatchError,
    Trace,
    TraceFormatError,
    TraceRound,
    execute_prefix,
    read_trace,
    read_trace_file,
    replay,
    round_step,
    write_trace,
    write_trace_file,
)
from lcmsim.properties import check_always_split, check_will_gather
from lcmsim.robograms import (
    broken_id_leak,
    center_of_mass,
    convex,
    evaluate,
    raw_robogram,
    resolve_robogram,
    spectrum_robogram,
    stay,
    to_other_occupied,
)
from lcmsim.sampling import random_position, random_scalar

from helpers import dumps_trace_v2, make_scripted, random_nonzero_scalar


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
    with pytest.raises(EmptyUniverse):  # no empty p0 can be built to run from
        Position(RobotUniverse(0), {})
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
    assert (header["format"], header["robogram"], header["n"]) == (2, "center-of-mass", 2)
    assert header["p0"] == {"points": ["0/1", "1/1"], "slots": [0, 0, 1, 1]}
    first = json.loads(lines[1])
    assert first["round"] == 0
    assert first["post"] == {"points": ["1/2"], "slots": [0, 0, 0, 0]}


def test_read_trace_keeps_one_slot_tuple_per_distinct_pattern(tmp_path, capsys):
    # A random k-fair schedule repeats its slot patterns, though not round
    # after round.  Read back, each distinct pattern is one tuple, and
    # `check` judges the trace as it judges a copy whose every table has a
    # tuple of its own.
    argv = ["--robogram", "convex:1", "--demon", "random-kfair:1:7", "--n", "8"]
    assert main(["simulate", *argv, "--horizon", "400"]) == 0
    text = capsys.readouterr().out
    read = read_trace(text.splitlines())
    tables = [read.p0, *(t for rd in read.rounds for t in (rd.action, rd.post))]
    assert len(tables) == 801
    assert len({id(t.slots) for t in tables}) == len({t.slots for t in tables}) == 395

    def unshared(t):
        return type(t)._table(t.universe, t.points, core._Slots(tuple(t.slots)))

    copy = Trace(read.robogram_name, read.demon_name, unshared(read.p0), tuple(
        TraceRound(rd.index, unshared(rd.action), unshared(rd.post)) for rd in read.rounds))
    judges = {f"kfair:{k}": lambda t, k=k: check_kfair(t.actions(), k) for k in (0, 1, 2, 3)}
    judges.update({"always-split": check_always_split, "will-gather": check_will_gather})
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    for name, judge in judges.items():
        verdict = judge(copy)
        code = main(["check", str(path), "--property", name])
        report = json.loads(capsys.readouterr().out)
        assert code == (0 if verdict.ok else 1)
        assert report == {"property": name, "horizon": 400, **verdict.to_json_dict()}


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


def test_init_parses_repeated_and_non_canonical_strings_each_on_its_own(capsys, monkeypatch):
    # A `--init` map is parsed once per distinct string; each robot must
    # still get the value its own string denotes.
    strings = {"L0": "2/4", "L1": "1/2", "L2": "-0/3", "R0": "2/4", "R1": "-0/3", "R2": "7"}
    u = RobotUniverse(3)
    parsed = []
    monkeypatch.setattr(execution, "parse_scalar", lambda text: parsed.append(text) or parse_scalar(text))
    p0 = execution._parse_init_map(u, strings)
    assert parsed == ["2/4", "1/2", "-0/3", "7"]
    assert p0 == Position(u, {r: parse_scalar(strings[r]) for r in u.robots})
    assert p0[u.robots[0]] == Fraction(1, 2) and p0[u.robots[2]] == 0
    # "2/4" and "1/2" share one point, and "-0/3" is 0
    assert p0.points == (Fraction(1, 2), 0, 7)
    # written as a trace's p0, every value is in lowest terms, and equal values are one point
    argv = ["--robogram", "stay", "--demon", "fsync", "--n", "3", "--horizon", "1"]
    assert main(["simulate", *argv, "--init", json.dumps(strings)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["p0"] == {
        "points": ["1/2", "0/1", "7/1"], "slots": [0, 0, 1, 0, 1, 2],
    }


def _scattered_init_trace(tmp_path) -> Trace:
    """`simulate --init` with every robot on its own point, as written by the CLI."""
    rng = random.Random(17)
    u = RobotUniverse(4)
    points = {r: format_scalar(Fraction(rng.randint(-99, 99), rng.randint(1, 50)) + i)
              for i, r in enumerate(u.robots)}
    path = tmp_path / "scattered.jsonl"
    code = main(["simulate", "--robogram", "convex:1/2", "--demon", "random-kfair:1:5", "--n", "4",
                 "--horizon", "12", "--init", json.dumps(points), "--out", str(path)])
    assert code == 0
    trace = read_trace_file(str(path))
    assert len(trace.p0.points) == u.m
    return trace


def _oracle_traces(tmp_path) -> dict[str, Trace]:
    u = RobotUniverse(3)
    piles = Position.from_piles(u, 0, 1)
    # 3**9500 has 4533 decimal digits, past CPython's default int <-> str
    # limit, which hex text does not have; round-robin moves one robot per
    # round, so each row formats new huge points and takes the rest from
    # the row before.
    huge = Position.from_piles(u, 0, Fraction(1, 3**9500))
    deep = execute_prefix(center_of_mass, make_round_robin(u, 1), huge, 8)
    assert max(x.denominator for x in deep.rounds[-1].post.points) > 10**4300
    alternating = run_impossibility(center_of_mass, 3, 40).trace
    swap = run_impossibility(to_other_occupied, 3, 40).trace
    assert (alternating.demon_name, swap.demon_name) == ("adversary-alternating", "adversary-swap-fsync")
    return {
        "adversary-alternating": alternating,
        "adversary-swap": swap,
        "broken-id-leak": run_impossibility(broken_id_leak, 3, 10).trace,
        "random-kfair": execute_prefix(convex("1/3"), make_random_kfair(u, 1, 1, seed=7), piles, 30),
        "round-robin": execute_prefix(convex("1/3"), make_round_robin(u, "1/2"), piles, 30),
        "fsync": execute_prefix(center_of_mass, make_fsync(u), piles, 5),
        "scattered-init": _scattered_init_trace(tmp_path),
        "past-int-str-limit": deep,
        "names-json-escapes": Trace(
            'odd "name" \\ é', "dé\tmon", alternating.p0, alternating.rounds
        ),
    }


def test_write_trace_matches_json_dumps_byte_for_byte(tmp_path):
    for name, trace in _oracle_traces(tmp_path).items():
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue() == dumps_trace_v2(trace), name
        assert read_trace(buffer.getvalue().splitlines()) == trace, name


@pytest.mark.parametrize("horizon", [1, 2, 50])
def test_write_trace_converts_only_the_points_a_row_does_not_carry_over(horizon, monkeypatch):
    # The alternating adversary: p0 converts both piles; the first row its
    # factor 0 and its factor, then the moved pile; every later row one
    # factor and one pile, as factor 0 and the idle pile are the row
    # before's objects.
    trace = run_impossibility(convex("1/3"), 2, horizon).trace
    expected = dumps_trace_v2(trace)
    converted = []
    hex_text = execution._hex_text
    monkeypatch.setattr(execution, "_hex_text", lambda x: converted.append(x) or hex_text(x))
    buffer = io.StringIO()
    write_trace(trace, buffer)
    assert buffer.getvalue() == expected
    assert len(converted) == 2 + 3 + 2 * (horizon - 1)


def test_read_trace_writes_back_only_a_refused_text(monkeypatch):
    # A text is proven canonical from the integers it parsed: a valid trace
    # converts no value back to text, and a refused text converts once, to
    # name the text it should have been.  A text that does not parse as hex
    # is refused before that.
    trace = run_impossibility(convex("1/3"), 2, 50).trace
    lines = dumps_trace_v2(trace).splitlines()
    hex_text = execution._hex_text
    moved = next(x for x in trace.rounds[-1].post.points if x not in trace.rounds[-2].post.points)
    text = hex_text(moved)
    converted = []
    monkeypatch.setattr(execution, "_hex_text", lambda x: converted.append(x) or hex_text(x))
    assert read_trace(lines) == trace
    assert converted == []
    n, d = moved.as_integer_ratio()
    for bad in (text.upper(), "0" + text, "+" + text, f"{3 * n:x}/{3 * d:x}", text + " "):
        assert bad != text
        tampered = lines[:-1] + [lines[-1].replace(f'"{text}"', f'"{bad}"')]
        with pytest.raises(TraceFormatError, match=f"this value is written '{text[:8]}"):
            read_trace(tampered)
        assert converted == [moved]
        converted.clear()
    tampered = lines[:-1] + [lines[-1].replace(f'"{text}"', '"g/1"')]
    with pytest.raises(TraceFormatError, match="expected lowercase hex"):
        read_trace(tampered)
    assert converted == []


# The tables of two rows from p0's piles 1/3 and 5/7, one value per robot:
# each row holds the texts of the row before, under other robots.
_ROWS = (
    ("5/7", "1/3", "0/1", "1/3"),
    ("5/7", "1/3", "1/3", "5/7"),
    ("1/3", "5/7", "5/7", "0/1"),
    ("1/3", "1/3", "5/7", "5/7"),
)


@pytest.mark.parametrize("rows", [pytest.param(_ROWS, id="texts-under-other-robots")])
def test_read_trace_memo_gives_each_row_its_own_texts(rows):
    u = RobotUniverse(2)
    p0 = Position.from_piles(u, Fraction(1, 3), Fraction(5, 7))
    tables = [cls._of(u, map(Fraction, row)) for cls, row in zip((DemonicAction, Position) * 2, rows)]
    trace = Trace("stay", "scripted", p0, (
        TraceRound(0, tables[0], tables[1]), TraceRound(1, tables[2], tables[3])))
    read = read_trace(dumps_trace_v2(trace).splitlines())
    assert read == trace
    for rd, expected in zip(read.rounds, trace.rounds):
        assert rd.action.points == expected.action.points and rd.post.points == expected.post.points


def _row(frames: object, post: object, index: int = 0) -> str:
    return json.dumps({"round": index, "frames": frames, "post": post})


@pytest.mark.parametrize("field", ["frames", "post"])
@pytest.mark.parametrize("bad", ["1/2x", "٣/٤", "１/2", "5/0"])
def test_read_trace_memo_keeps_the_error_of_the_only_new_text(field, bad):
    # Line 3 reuses every text of line 2 but one, and that one is malformed.
    p0 = {"points": ["1/3", "5/7"], "slots": [0, 0, 1, 1]}
    row0 = {"points": ["5/7", "1/3", "0/1"], "slots": [0, 1, 2, 1]}
    row1 = {"points": ["0/1", "5/7", bad, "1/3"], "slots": [0, 1, 2, 3]}
    header = {"format": 2, "lcmsim": "0", "robogram": "stay", "demon": "scripted", "n": 2, "p0": p0}
    tables = {"frames": row0["points"], "post": row0["points"]} | {field: row1}
    lines = [json.dumps(header), _row(row0, row0, 0), _row(tables["frames"], tables["post"], 1)]
    with pytest.raises(ValueError) as alone:
        execution._hex_point(bad)
    with pytest.raises(TraceFormatError) as err:
        read_trace(lines)
    assert str(err.value) == f"line 3: {field}: point 2: {alone.value}"


def test_read_trace_rejects_a_short_map_before_building_robot_ids(monkeypatch, capsys):
    # A trace's slot list and a `--init` map, each short under a huge n.
    def refuse(universe):
        raise AssertionError("robot ids built for a map that cannot cover them")

    monkeypatch.setattr(RobotUniverse, "robots", property(refuse))
    header = {"format": 2, "lcmsim": "0", "robogram": "stay", "demon": "fsync", "n": 10**9,
              "p0": {"points": ["0/1"], "slots": [0]}}
    with pytest.raises(TraceFormatError, match="1 slots for 2000000000 robots"):
        read_trace([json.dumps(header)])
    argv = ["--robogram", "stay", "--demon", "fsync", "--n", str(10**9), "--horizon", "1"]
    assert main(["simulate", *argv, "--init", '{"L0": "0/1"}']) == 2
    assert capsys.readouterr().err == (
        "error: bad initial position: --init does not cover the universe exactly\n"
    )


def test_read_trace_skips_blank_lines():
    u = RobotUniverse(1)
    trace = execute_prefix(stay, make_fsync(u), Position.from_piles(u, 0, 1), 2)
    buffer = io.StringIO()
    write_trace(trace, buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    lines[2:2] = ["", "\n", " \t\r\n", "\x0c\u2028\u3000"]  # blank as str.strip sees it
    assert read_trace(lines) == trace


def _valid_lines():
    """A short trace: p0 and round 0 write their slots, round 1 does not."""
    u = RobotUniverse(1)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 2)
    return dumps_trace_v2(trace).splitlines()


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
        lambda lines: [lines[0].replace('"slots": [0, 1]', '"slots": [0, 2]')] + lines[1:],
        lambda lines: [lines[0].replace('"slots": [0, 1]', '"slots": [0, 1, 1]')] + lines[1:],
        lambda lines: lines[:1] + [lines[1].replace('"points": ["1/1"]', '"points": "1/1"')],
        lambda lines: lines[:1] + ["not json"],
        lambda lines: lines[:1] + ['"scalar"'],
        lambda lines: lines[:1] + [lines[1].replace('"round": 0', '"round": 1')],
        lambda lines: lines[:1] + [lines[1].replace('"frames": ', '"f": ')],
        lambda lines: lines[:1] + [lines[1].replace('"slots": [0, 0]}', '"slots": [0, 0], "R7": [1]}', 1)],
        lambda lines: [lines[0].replace('"n": 1', '"n": true')] + lines[1:],
        lambda lines: lines[:1] + [lines[1].replace('"round": 0', '"round": false')],
        lambda lines: lines[:1] + [lines[1].replace('"round": 0', '"round": 0.0')],
        lambda lines: [lines[0].replace('"n": 1', '"n": 0')] + lines[1:],
    ],
)
def test_read_trace_rejects_malformed_input(mangle):
    lines = _valid_lines()
    mangled = mangle(lines)
    assert mangled != lines
    with pytest.raises(TraceFormatError):
        read_trace(mangled)


def test_replay_certifies_and_detects_tampering():
    u = RobotUniverse(1)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 3)
    replay(trace, center_of_mass)

    # Round 1 (line 3) stores the gathered point 1/2.
    lines = dumps_trace_v2(trace).splitlines()
    assert '"post": ["1/2"]' in lines[2]
    lines[2] = lines[2].replace('"post": ["1/2"]', '"post": ["1/3"]')
    with pytest.raises(ReplayMismatchError) as err:
        replay(read_trace(lines), center_of_mass)
    assert err.value.round_index == 1

    # replaying under the wrong robogram also fails
    with pytest.raises(ReplayMismatchError):
        replay(trace, resolve_robogram("to-max"))


_DEEP_ROBOGRAM = convex("1/3")
_DEEP = run_impossibility(_DEEP_ROBOGRAM, 2, 200).trace


def _tampered_post(trace: Trace, r: int, kind: str) -> Position:
    """Round r's post with one change: the pile that moved in round r, or
    the pile that stayed, shifted by 1/7; or, for "slots", its two points
    kept in order with L1 and R0 exchanged, so only the slot pattern
    differs."""
    pre, post = trace.positions()[r], trace.rounds[r].post
    u = trace.universe
    left, right = post.pile_locations()
    moved = [a != b for a, b in zip((left, right), pre.pile_locations())]
    assert moved.count(True) == 1
    if kind == "slots":
        return Position(u, dict(zip(u.robots, (left, right, left, right))))
    shift_left = moved[0] if kind == "moved" else moved[1]
    if shift_left:
        left += Fraction(1, 7)
    else:
        right += Fraction(1, 7)
    assert left != right
    return Position.from_piles(u, left, right)


@pytest.mark.parametrize("kind", ["moved", "stayed", "slots"])
@pytest.mark.parametrize("r", [0, _DEEP.horizon - 1])
@pytest.mark.parametrize("dumps", [dumps_trace_v2], ids=["format2"])
def test_replay_refuses_a_tampered_post_at_its_round(dumps, r, kind, tmp_path, capsys):
    # The replay comparison looks at the slot pattern and at every point:
    # each change alone is refused at the round that stores it, by `replay`
    # and by `check`.
    rounds = list(_DEEP.rounds)
    rounds[r] = TraceRound(r, rounds[r].action, _tampered_post(_DEEP, r, kind))
    tampered = Trace(_DEEP.robogram_name, _DEEP.demon_name, _DEEP.p0, tuple(rounds))
    assert tampered != _DEEP
    text = dumps(tampered)
    with pytest.raises(ReplayMismatchError) as err:
        replay(read_trace(text.splitlines()), _DEEP_ROBOGRAM)
    assert err.value.round_index == r
    path = tmp_path / "tampered.jsonl"
    path.write_text(text)
    assert main(["check", str(path), "--property", "kfair:1"]) == 3
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text == f"corrupt trace: replay mismatch at round {r}\n"


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


# `check` reads each post without its lowest-terms proof and lets replay's
# comparison with the recomputed post give it (`_DeferredPosts`).


def _texts(table) -> list[str]:
    return [execution._hex_text(x) for x in table.points]


def _proven_texts(monkeypatch) -> list[str]:
    """The texts that reach the lowest-terms proof from now on."""
    proven, hex_point = [], execution._hex_point

    def recorded(text, lowest=True):
        if lowest:
            proven.append(text)
        return hex_point(text, lowest)

    monkeypatch.setattr(execution, "_hex_point", recorded)
    return proven


def test_check_proves_lowest_terms_only_for_p0_and_frames(tmp_path, capsys, monkeypatch):
    trace = run_impossibility(convex("1/3"), 2, 50).trace
    path = tmp_path / "t.jsonl"
    write_trace_file(trace, str(path))
    frames = set(_texts(trace.p0)).union(*(_texts(rd.action) for rd in trace.rounds))
    posts = set().union(*(_texts(rd.post) for rd in trace.rounds))
    assert len(posts - frames) == 50  # the moved points, which only posts hold
    proven = _proven_texts(monkeypatch)
    assert main(["check", str(path), "--property", "kfair:1"]) == 0
    assert set(proven) == frames
    # The library reader still proves every text.
    proven.clear()
    assert read_trace(path.read_text().splitlines()) == trace
    assert set(proven) == frames | posts


def test_a_deferred_post_keeps_its_parsed_integers():
    # `Fraction(r)` takes a `numbers.Rational`'s integers as they are; a
    # Python that normalized them there would make replay's comparison
    # prove nothing, and this fails first.
    point = execution._hex_point("6/c", lowest=False)
    assert type(point) is Fraction and point.as_integer_ratio() == (6, 12)
    with pytest.raises(ValueError, match="this value is written '1/2'"):
        execution._hex_point("6/c")


def _thrice(line: str, text: str) -> str:
    n, d = (int(part, 16) for part in text.split("/"))
    assert line.count(f'"{text}"') == 1
    return line.replace(f'"{text}"', f'"{3 * n:x}/{3 * d:x}"')


def test_a_deferred_read_refuses_a_non_lowest_frame_even_when_a_post_had_it():
    # Row 10's post holds its moved point as 3n/3d, and row 11 uses that
    # text as a factor: frames never take a point from the deferred posts,
    # so the read is refused, at the post's line, as the library reads it.
    trace = run_impossibility(convex("1/3"), 2, 40).trace
    lines = dumps_trace_v2(trace).splitlines()
    moved = _texts(trace.rounds[10].post)[0]
    factor = _texts(trace.rounds[11].action)[1]
    lines[11] = _thrice(lines[11], moved)
    lines[12] = lines[12].replace(f'"{factor}"', f'"{json.loads(lines[11])["post"][0]}"')
    with pytest.raises(TraceFormatError) as library:
        read_trace(lines)
    assert str(library.value).startswith("line 12: post: point 0: ")
    with pytest.raises(TraceFormatError) as deferred:
        read_trace(lines, deferred=execution._DeferredPosts())
    assert str(deferred.value) == str(library.value)


@pytest.mark.parametrize("blank", [0, 3])
def test_proving_deferred_posts_refuses_as_the_library_reader(blank):
    # A wrong post at round 5 stops replay there; of the rounds replay did
    # not compare, the first post out of lowest terms is refused, on its
    # own line, blank lines counted.
    trace = run_impossibility(convex("1/3"), 2, 40).trace
    lines = dumps_trace_v2(trace).splitlines()
    for r in (30, 20):
        lines[r + 1] = _thrice(lines[r + 1], _texts(trace.rounds[r].post)[0])
    lines[6] = lines[6].replace(f'"{_texts(trace.rounds[5].post)[1]}"', '"1/7"')
    lines[3:3] = [""] * blank
    with pytest.raises(TraceFormatError) as library:
        read_trace(lines)
    assert str(library.value).startswith(f"line {22 + blank}: post: point 0: ")
    posts = execution._DeferredPosts()
    read = read_trace(lines, deferred=posts)
    assert posts.lines == [i + 1 for i, line in enumerate(lines) if i and line]
    with pytest.raises(ReplayMismatchError) as mismatch:
        replay(read, convex("1/3"))
    assert mismatch.value.round_index == 5
    posts.prove(31)  # rounds 20 and 30 are before the rounds asked for
    with pytest.raises(TraceFormatError) as proof:
        posts.prove(mismatch.value.round_index)
    assert str(proof.value) == str(library.value)

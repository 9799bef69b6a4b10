from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest

from lcmsim import core, execution
from lcmsim.adversary import run_impossibility
from lcmsim.cli import main
from lcmsim.core import EmptyUniverse, Position, RobotUniverse, Side, format_scalar, parse_scalar
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

from helpers import dumps_trace_v1, dumps_trace_v2, make_scripted, random_nonzero_scalar


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
    # after round.  Read back in either format, each distinct pattern is
    # one tuple, and `check` judges the trace as it judges a copy whose
    # every table has a tuple of its own.
    argv = ["--robogram", "convex:1", "--demon", "random-kfair:1:7", "--n", "8"]
    assert main(["simulate", *argv, "--horizon", "400"]) == 0
    text = capsys.readouterr().out
    read = read_trace(text.splitlines())
    path = tmp_path / "v1.jsonl"
    path.write_text(dumps_trace_v1(read))
    for trace in (read, read_trace_file(str(path))):
        tables = [trace.p0, *(t for rd in trace.rounds for t in (rd.action, rd.post))]
        assert len(tables) == 801
        assert len({id(t.slots) for t in tables}) == len({t.slots for t in tables}) == 395

    def unshared(t):
        return type(t)._table(t.universe, t.points, core._Slots(tuple(t.slots)))

    copy = Trace(read.robogram_name, read.demon_name, unshared(read.p0), tuple(
        TraceRound(rd.index, unshared(rd.action), unshared(rd.post)) for rd in read.rounds))
    judges = {f"kfair:{k}": lambda t, k=k: check_kfair(t.actions(), k) for k in (0, 1, 2, 3)}
    judges.update({"always-split": check_always_split, "will-gather": check_will_gather})
    for source in (text, dumps_trace_v1(read)):
        path.write_text(source)
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
    # written back, every value is in lowest terms, and equal values are one point
    buffer = io.StringIO()
    write_trace(trace, buffer)
    assert json.loads(buffer.getvalue().splitlines()[0])["p0"] == {
        "points": ["1/2", "0/1", "7/1"], "slots": [0, 0, 1, 0, 1, 2],
    }


def _scattered_init_trace(tmp_path) -> Trace:
    """`simulate --init` with every robot on its own point, as written by the CLI."""
    rng = random.Random(17)
    u = RobotUniverse(4)
    points = {str(r): format_scalar(Fraction(rng.randint(-99, 99), rng.randint(1, 50)) + i)
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
    # 3**9500 has 4533 digits, past CPython's default int <-> str limit, so
    # format_scalar converts it piecewise; round-robin moves one robot per
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
        # format 1 still reads to the same trace
        assert read_trace(dumps_trace_v1(trace).splitlines()) == trace, name


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


def _expected_tables(lines: list[str]):
    """Each row's frames and post, built per robot from its own text."""
    rows = [json.loads(line) for line in lines]
    u = RobotUniverse(rows[0]["n"])
    def parsed(raw):
        return {r: parse_scalar(raw[str(r)]) for r in u.robots}
    return [(DemonicAction(u, parsed(row["frames"])), Position(u, parsed(row["post"])))
            for row in rows[1:]]


def _row(frames: dict, post: dict, index: int = 0) -> str:
    return json.dumps({"round": index, "frames": frames, "post": post})


_P0 = {"L0": "1/3", "L1": "1/3", "R0": "5/7", "R1": "5/7"}


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(  # the previous row's texts, under other robots
            [{"L0": "5/7", "L1": "1/3", "R0": "0/1", "R1": "1/3"},
             {"L0": "5/7", "L1": "1/3", "R0": "1/3", "R1": "5/7"},
             {"L0": "1/3", "L1": "5/7", "R0": "5/7", "R1": "0/1"},
             {"L0": "1/3", "L1": "1/3", "R0": "5/7", "R1": "5/7"}],
            id="texts-under-other-robots",
        ),
        pytest.param(  # equal in value, not in text
            [{"L0": "1/2", "L1": "1/2", "R0": "1/2", "R1": "0/1"},
             {"L0": "1/2", "L1": "1/2", "R0": "1/2", "R1": "1/2"},
             {"L0": "2/4", "L1": "0/1", "R0": "2/4", "R1": "0/1"},
             {"L0": "2/4", "L1": "1/2", "R0": "2/4", "R1": "1/2"}],
            id="one-half-then-two-quarters",
        ),
    ],
)
def test_read_trace_memo_gives_each_row_its_own_texts(rows):
    header = json.dumps({"robogram": "stay", "demon": "scripted", "n": 2, "p0": _P0})
    lines = [header, _row(rows[0], rows[1], 0), _row(rows[2], rows[3], 1)]
    trace = read_trace(lines)
    expected = _expected_tables(lines)
    for rd, (action, post) in zip(trace.rounds, expected):
        assert (rd.action, rd.post) == (action, post)
        assert rd.action.points == action.points and rd.post.points == post.points


@pytest.mark.parametrize("field", ["frames", "post"])
@pytest.mark.parametrize("bad", ["1/2x", "٣/٤", "１/2", "5/0"])
def test_read_trace_memo_keeps_the_error_of_the_only_new_text(field, bad):
    # Line 3 reuses every text of line 2 but one, and that one is malformed.
    row0 = {"L0": "5/7", "L1": "1/3", "R0": "0/1", "R1": "1/3"}
    row1 = {"L0": "0/1", "L1": "5/7", "R0": bad, "R1": "1/3"}
    header = json.dumps({"robogram": "stay", "demon": "scripted", "n": 2, "p0": _P0})
    tables = {"frames": row0, "post": row0} | {field: row1}
    lines = [header, _row(row0, row0, 0), _row(tables["frames"], tables["post"], 1)]
    with pytest.raises(ValueError) as alone:
        parse_scalar(bad)
    with pytest.raises(TraceFormatError) as err:
        read_trace(lines)
    assert str(err.value) == f"line 3: bad {field}: R0 has {alone.value}"


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
    lines = buffer.getvalue().splitlines(keepends=True)
    lines[2:2] = ["", "\n", " \t\r\n", "\x0c\u2028\u3000"]  # blank as str.strip sees it
    assert read_trace(lines) == trace


def _valid_lines():
    """A short trace in format 1 and in format 2."""
    u = RobotUniverse(1)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 2)
    return dumps_trace_v1(trace).splitlines(), dumps_trace_v2(trace).splitlines()


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
    # Each mangle applies to format 1.  It is tried on format 2 too where it
    # leaves more than a prefix of the lines, a shorter valid trace (format 2
    # has no robot ids to mangle, for one).
    v1, v2 = _valid_lines()
    mangled = mangle(v2)
    for lines in (v1, v2) if mangled != v2[:len(mangled)] else (v1,):
        with pytest.raises(TraceFormatError):
            read_trace(mangle(lines))


def test_replay_certifies_and_detects_tampering():
    u = RobotUniverse(1)
    trace = execute_prefix(center_of_mass, make_fsync(u), Position.from_piles(u, 0, 1), 3)
    replay(trace, center_of_mass)

    # Round 1 (line 3) stores the gathered point: 1/2 in both formats.
    v1, v2 = dumps_trace_v1(trace).splitlines(), dumps_trace_v2(trace).splitlines()
    for lines, stored in ((v1, '"L0": "1/2"'), (v2, '"post": ["1/2"]')):
        assert stored in lines[2]
        lines[2] = lines[2].replace(stored, stored.replace("1/2", "1/3"))
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
    left, right = post.pile_location(Side.LEFT), post.pile_location(Side.RIGHT)
    moved = [left != pre.pile_location(Side.LEFT), right != pre.pile_location(Side.RIGHT)]
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
@pytest.mark.parametrize("dumps", [dumps_trace_v1, dumps_trace_v2], ids=["format1", "format2"])
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

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import lcmsim
from lcmsim import cli, execution
from lcmsim.cli import main
from lcmsim.core import MAX_SCALAR_DIGITS
from lcmsim.execution import read_trace_file
from lcmsim.robograms import BUILTIN_SELECTORS, center_of_mass, spectrum_robogram

from helpers import dumps_trace_v1


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_trace_to_stdout(capsys):
    code, out, err = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync",
        "--n", "1", "--horizon", "10",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    header = json.loads(lines[0])
    assert header == {
        "format": 2,
        "lcmsim": lcmsim.__version__,
        "robogram": "stay",
        "demon": "fsync",
        "n": 1,
        "p0": {"points": ["0/1", "1/1"], "slots": [0, 1]},
    }


def test_simulate_writes_trace_file(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, out, _ = _run(
        capsys, "simulate", "--robogram", "center-of-mass", "--demon", "fsync",
        "--n", "2", "--horizon", "3", "--out", str(out_path),
    )
    assert code == 0
    trace = read_trace_file(str(out_path))
    assert trace.horizon == 3
    assert trace.robogram_name == "center-of-mass"


def test_simulate_round_robin_gathers_known_case(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, *_ = _run(
        capsys, "simulate", "--robogram", "to-other-occupied",
        "--demon", "round-robin:1/1", "--n", "1",
        "--init", "bivalent:0/1:1/1", "--horizon", "5", "--out", str(out_path),
    )
    assert code == 0
    code, out, _ = _run(capsys, "check", str(out_path), "--property", "will-gather")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "tentatively-gathered"
    assert verdict["round"] == 1


def test_simulate_accepts_json_init(capsys):
    code, out, _ = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync",
        "--n", "1", "--horizon", "1",
        "--init", '{"L0": "2/3", "R0": "-1/3"}',
    )
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["p0"] == {"points": ["2/3", "-1/3"], "slots": [0, 1]}


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "0", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1", "--horizon", "-1"),
        ("simulate", "--robogram", "warp", "--demon", "fsync", "--n", "1", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "chaos", "--n", "1", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "round-robin:0/1", "--n", "1", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "random-kfair:x:1", "--n", "1", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1", "--horizon", "1", "--init", "bivalent:0.5:1"),
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "adversary", "--n", "1", "--horizon", "1", "--init", '{"L0": "0/1", "R0": "0/1"}'),
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "true", "--horizon", "1"),
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1", "--horizon", "true"),
        ("simulate", "--robogram", "stay", "--n", "1", "--horizon", "1"),
    ],
)
def test_simulate_usage_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "demon,init,message",
    [
        ("random-kfair:1", None, "random-kfair selector must be random-kfair:<k>:<seed>"),
        ("random-kfair:-1:2", None, "random-kfair budget k must be >= 0"),
        ("adversary", '{"L0": "0/1", "L1": "1/1", "R0": "2/1", "R1": "2/1"}',
         "the adversary demon needs an initial position with each pile stacked"),
    ],
)
def test_simulate_demon_usage_errors_name_the_fault(capsys, demon, init, message):
    argv = ["simulate", "--robogram", "stay", "--demon", demon, "--n", "2", "--horizon", "1"]
    code, out, err = _run(capsys, *argv, *(["--init", init] if init else []))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_simulate_adversary_demon_selector(capsys):
    code, out, _ = _run(
        capsys, "simulate", "--robogram", "center-of-mass", "--demon", "adversary",
        "--n", "1", "--horizon", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["demon"] == "adversary-alternating"
    last = json.loads(lines[-1])
    assert last["post"] == ["1/2", "3/4"]  # one robot per point, as before the round


def test_adversary_certifies_and_writes_trace(tmp_path, capsys):
    out_path = tmp_path / "adv.jsonl"
    code, out, _ = _run(
        capsys, "adversary", "--robogram", "center-of-mass", "--n", "3",
        "--horizon", "30", "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["probe"]["branch"] == "alternating"
    trace = read_trace_file(str(out_path))
    assert trace.horizon == 30

    code, out, _ = _run(capsys, "check", str(out_path), "--property", "kfair:1")
    assert code == 0
    code, out, _ = _run(capsys, "check", str(out_path), "--property", "kfair:0")
    assert code == 1
    code, out, _ = _run(capsys, "check", str(out_path), "--property", "always-split")
    assert code == 0
    code, out, _ = _run(capsys, "check", str(out_path), "--property", "will-gather")
    assert code == 1


def test_adversary_rejects_leaky_robogram(capsys):
    code, out, _ = _run(
        capsys, "adversary", "--robogram", "broken-id-leak", "--n", "2", "--horizon", "20",
    )
    assert code == 1
    report = json.loads(out)
    assert report["invariance_ok"] is False
    assert report["certified"] is False


def test_adversary_usage_errors(capsys):
    code, *_ = _run(capsys, "adversary", "--robogram", "stay", "--n", "0", "--horizon", "5")
    assert code == 2
    code, *_ = _run(capsys, "adversary", "--robogram", "stay", "--horizon", "5")
    assert code == 2  # argparse: --n is required


@pytest.mark.parametrize(
    "argv",
    [
        ("adversary", "--robogram", "stay"),
        ("simulate", "--robogram", "stay", "--demon", "fsync"),
    ],
)
def test_an_n_whose_robots_cannot_be_indexed_exits_2(capsys, argv):
    # 2 * 10**19 robots do not fit in a tuple's index range: refused as
    # usage before any table is built, not an OverflowError with exit 1.
    code, out, err = _run(capsys, *argv, "--n", str(10**19), "--horizon", "1")
    assert code == 2 and out == ""
    assert _one_line(err) and err.startswith("error: n must be at most ")


@pytest.mark.parametrize(
    "target, argv",
    [
        ("run_impossibility", ("adversary", "--robogram", "stay")),
        ("execute_prefix", ("simulate", "--robogram", "stay", "--demon", "fsync")),
    ],
)
def test_running_out_of_memory_exits_3(capsys, monkeypatch, target, argv):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = _run(capsys, *argv, "--n", "1", "--horizon", "1")
    assert code == 3 and out == ""
    assert _one_line(err) and err == "runtime error: out of memory\n"


def test_check_verdict_json_contract(tmp_path, capsys):
    # Dict equality ignores key order, so the lines are pinned: the verdict's
    # own fields first, then the trace's horizon when the verdict lacks one.
    gathers, stays = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
    _run(
        capsys, "simulate", "--robogram", "center-of-mass", "--demon", "fsync",
        "--n", "1", "--horizon", "4", "--out", str(gathers),
    )
    _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "round-robin:1",
        "--n", "1", "--horizon", "3", "--out", str(stays),
    )
    expected = [
        (gathers, "will-gather", 0, '{"property": "will-gather", "verdict":'
         ' "tentatively-gathered", "horizon": 4, "round": 1, "point": "1/2"}'),
        (stays, "will-gather", 1, '{"property": "will-gather", "verdict":'
         ' "not-within-horizon", "horizon": 3}'),
        (gathers, "always-split", 1, '{"property": "always-split", "verdict":'
         ' "violated", "round": 1, "horizon": 4}'),
        (gathers, "kfair:0", 0, '{"property": "kfair:0", "verdict":'
         ' "no-violation-up-to", "horizon": 4}'),
        (stays, "kfair:0", 1, '{"property": "kfair:0", "verdict": "violated",'
         ' "round": 0, "horizon": 3}'),
    ]
    for path, prop, code, line in expected:
        assert _run(capsys, "check", str(path), "--property", prop) == (code, line + "\n", "")


def test_check_rejects_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    code, *_ = _run(capsys, "check", missing, "--property", "will-gather")
    assert code == 2

    garbled = tmp_path / "bad.jsonl"
    garbled.write_text("not json\n")
    code, *_ = _run(capsys, "check", str(garbled), "--property", "will-gather")
    assert code == 2

    out_path = tmp_path / "t.jsonl"
    _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync",
        "--n", "1", "--horizon", "2", "--out", str(out_path),
    )
    code, *_ = _run(capsys, "check", str(out_path), "--property", "warmth")
    assert code == 2
    code, *_ = _run(capsys, "check", str(out_path), "--property", "kfair:-1")
    assert code == 2
    code, *_ = _run(capsys, "check", str(out_path), "--property", "kfair:x")
    assert code == 2

    # header naming a robogram outside the registry cannot be replayed
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text(
        out_path.read_text().replace('"robogram": "stay"', '"robogram": "custom"')
    )
    code, *_ = _run(capsys, "check", str(foreign), "--property", "will-gather")
    assert code == 2

    # a scalar past the documented digit bound is a malformed trace
    huge = tmp_path / "huge.jsonl"
    header = {"robogram": "stay", "demon": "fsync", "n": 1,
              "p0": {"L0": "0/1", "R0": "1" * (MAX_SCALAR_DIGITS + 1)}}
    huge.write_text(json.dumps(header) + "\n")
    code, out, err = _run(capsys, "check", str(huge), "--property", "always-split")
    assert code == 2 and out == ""
    assert _one_line(err) and f"more than {MAX_SCALAR_DIGITS} digits" in err


def test_check_detects_corrupt_trace(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    _run(
        capsys, "simulate", "--robogram", "center-of-mass", "--demon", "fsync",
        "--n", "1", "--horizon", "3", "--out", str(out_path),
    )
    # Round 1 (line 3) stores the gathered point 1/2, in either format.
    v2 = out_path.read_text()
    v1 = dumps_trace_v1(read_trace_file(str(out_path)))
    for text, stored in ((v1, '"L0": "1/2"'), (v2, '"post": ["1/2"]')):
        lines = text.splitlines()
        assert stored in lines[2]
        lines[2] = lines[2].replace(stored, stored.replace("1/2", "1/3"))
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n")
        code, _, err = _run(capsys, "check", str(corrupt), "--property", "will-gather")
        assert code == 3
        assert "round 1" in err


def test_check_exits_3_when_the_robogram_fails_in_replay(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "t.jsonl"
    _run(
        capsys, "simulate", "--robogram", "center-of-mass", "--demon", "fsync",
        "--n", "1", "--horizon", "3", "--out", str(out_path),
    )

    def fails_once_gathered(view):
        if len(view) == 1:
            raise ZeroDivisionError("one point left")
        return center_of_mass.algo(view)

    robogram = spectrum_robogram("center-of-mass", fails_once_gathered)
    monkeypatch.setattr(cli, "resolve_robogram", lambda name: robogram)
    code, out, err = _run(capsys, "check", str(out_path), "--property", "will-gather")
    assert code == 3 and out == ""
    assert _one_line(err) and err.startswith("runtime error: round 1: one point left")


def test_simulate_exits_3_when_the_robogram_mutates_its_view(capsys, monkeypatch):
    def grows(view):
        view[Fraction(0)] += 1
        return Fraction(0)

    monkeypatch.setattr(cli, "resolve_robogram", lambda name: spectrum_robogram(name, grows))
    code, out, err = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1", "--horizon", "2"
    )
    assert code == 3 and out == ""
    assert _one_line(err) and err.startswith("runtime error: round 0: ")
    assert "does not support item assignment" in err


def test_check_kfair_on_zero_round_trace_answers_as_adversary_does(tmp_path, capsys):
    # An empty prefix refutes nothing: the verdict the adversary's report
    # gives for horizon 0, exit 0.
    out_path = tmp_path / "t.jsonl"
    _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync",
        "--n", "1", "--horizon", "0", "--out", str(out_path),
    )
    _, report, _ = _run(capsys, "adversary", "--robogram", "stay", "--n", "1", "--horizon", "0")
    for k in (0, 1):
        code, out, err = _run(capsys, "check", str(out_path), "--property", f"kfair:{k}")
        assert code == 0 and not err
        verdict = json.loads(out)
        assert verdict.pop("property") == f"kfair:{k}"
        assert verdict == json.loads(report)["fairness"][str(k)]
        assert verdict == {"verdict": "no-violation-up-to", "horizon": 0}


@pytest.mark.parametrize("k", [2**63 - 1, 2**63, 10**30])
def test_a_budget_past_a_machine_int_refutes_nothing(k, tmp_path, capsys):
    # A budget at or above the horizon refutes nothing, however large.  The
    # demon with such a budget forces no robot into a round, so it writes
    # the rows of the demon whose budget is the horizon.
    horizon = 6
    paths = {budget: tmp_path / f"{budget}.jsonl" for budget in (k, horizon)}
    for budget, path in paths.items():
        code, out, err = _run(
            capsys, "simulate", "--robogram", "center-of-mass",
            "--demon", f"random-kfair:{budget}:1",
            "--n", "2", "--horizon", str(horizon), "--out", str(path),
        )
        assert code == 0 and not out and not err
    rows = {budget: path.read_text().splitlines()[1:] for budget, path in paths.items()}
    assert rows[k] == rows[horizon]
    code, out, err = _run(capsys, "check", str(paths[k]), "--property", f"kfair:{k}")
    assert code == 0 and not err
    assert json.loads(out) == {
        "property": f"kfair:{k}", "verdict": "no-violation-up-to", "horizon": horizon
    }


NON_CANONICAL_INTS = (" 1", "1 ", "+1", "01", "1_0", "-0", "", "x")


@pytest.mark.parametrize("text", NON_CANONICAL_INTS)
def test_kfair_budget_must_be_canonical_decimal(tmp_path, capsys, text):
    out_path = tmp_path / "t.jsonl"
    _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync",
        "--n", "1", "--horizon", "2", "--out", str(out_path),
    )
    code, out, err = _run(capsys, "check", str(out_path), "--property", f"kfair:{text}")
    assert code == 2 and not out
    assert _one_line(err) and f"bad kfair budget {text!r}" in err


# The demon selector is stripped as a whole, as a robogram selector is, so
# a space after the seed is outside the field; every other text is inside.
@pytest.mark.parametrize(
    "field, text",
    [("budget k", t) for t in NON_CANONICAL_INTS]
    + [("seed", t) for t in NON_CANONICAL_INTS if not t.endswith(" ")],
)
def test_random_kfair_integers_must_be_canonical_decimal(capsys, field, text):
    k, seed = (text, "3") if field == "budget k" else ("1", text)
    code, out, err = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", f"random-kfair:{k}:{seed}",
        "--n", "1", "--horizon", "1",
    )
    assert code == 2 and not out
    assert _one_line(err) and f"bad random-kfair {field} {text!r}" in err


def test_canonical_selector_integers_are_echoed_as_typed(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, *_ = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "random-kfair:10:-3",
        "--n", "1", "--horizon", "3", "--out", str(out_path),
    )
    assert code == 0
    assert read_trace_file(str(out_path)).demon_name == "random-kfair:10:-3"
    code, out, _ = _run(capsys, "check", str(out_path), "--property", "kfair:10")
    assert code == 0 and json.loads(out)["property"] == "kfair:10"


def test_closed_stdout_exits_3_without_traceback():
    # The trace is far larger than a pipe's buffer, so the writer is still
    # writing when the reader closes the pipe after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "lcmsim.cli", "simulate", "--robogram", "stay",
         "--demon", "fsync", "--n", "1", "--horizon", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert json.loads(proc.stdout.readline())["robogram"] == "stay"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 3
    assert _one_line(err) and err.startswith("error: stdout was closed")


def _one_line(err):
    return len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1", "--horizon", "3"),
        ("adversary", "--robogram", "stay", "--n", "1", "--horizon", "3"),
        ("check", "{trace}", "--property", "always-split"),
        ("invariance", "--robogram", "stay", "--samples", "2"),
        ("--help",),
        ("adversary", "--help"),
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv) if "--help" in argv else argv[0],
)
def test_unwritable_stdout_exits_3_without_traceback(tmp_path, argv):
    # Every write to /dev/full fails with ENOSPC, as on a full disk.  Help
    # text too: argparse would swallow the error and exit 0.
    trace = tmp_path / "t.jsonl"
    assert main(["simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1",
                 "--horizon", "3", "--out", str(trace)]) == 0
    argv = [arg.format(trace=trace) for arg in argv]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "lcmsim", *argv], stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 3
    assert _one_line(proc.stderr) and proc.stderr.startswith("error: cannot write stdout")


def test_main_leaves_no_parser_for_the_cycle_collector(capsys):
    # argparse ties a parser into reference cycles; one built per call
    # outlived the call as garbage until the next cyclic collection.
    argv = ("adversary", "--robogram", "stay", "--n", "1", "--horizon", "1")
    assert _run(capsys, *argv)[0] == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds, to look at it
    try:
        assert _run(capsys, *argv)[0] == 0
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert parsers == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--init", '{"L0": 1, "R0": 2}'), "bad initial position"),
        (("--demon", "round-robin:abc"), "bad round-robin selector"),
        (("--init", ""), "bad initial position"),
        (("--init", '{"L0": null, "R0": "1/1"}'), "bad initial position"),
        # a falsy init is refused, not replaced by the default piles
        (("--init", "{}"), "bad initial position"),
        (("--init", "0"), "initial position must be"),
        (("--init", "false"), "initial position must be"),
        (("--init", "[]"), "initial position must be"),
        (("--init", '""'), "initial position must be"),
        # JSON nested past the recursion limit, and an integer past the digit limit
        (("--init", "[" * 5000 + "]" * 5000), "bad initial position"),
        (("--init", '{"L0": ' + "1" * 5000 + ', "R0": "1/1"}'), "bad initial position"),
        # an off-format id is refused by name, not read as the robot it parses to
        (("--init", '{"L01": "0", "R0": "1"}'), "bad initial position: --init has unknown robot id 'L01'"),
        (("--init", '{" L0 ": "0", "R0": "1"}'), "bad initial position: --init has unknown robot id ' L0 '"),
        # a value that is not a string is refused by robot, whatever its JSON type
        (("--init", '{"L0": [1], "R0": "1/1"}'), "bad --init: L0 has [1]: expected a 'num/den'"),
        (("--init", '{"L0": "0/1", "R0": {}}'), "bad --init: R0 has {}: expected a 'num/den'"),
        (("--init", '{"L0": 1, "R0": "1/1"}'), "bad --init: L0 has 1: expected a 'num/den'"),
        (("--init", '{"L0": true, "R0": "1/1"}'), "bad --init: L0 has true: expected a 'num/den'"),
        # a repeated id is refused by name, not read as its last value
        (("--init", '{"L0": "0/1", "R0": "1/1", "L0": "1/1"}'), "bad initial position: repeated key 'L0'"),
    ],
)
def test_simulate_rejects_malformed_flags(capsys, flags, message):
    argv = ["simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1", "--horizon", "1"]
    code, out, err = _run(capsys, *argv, *flags)
    assert code == 2 and not out
    assert _one_line(err) and message in err


def test_check_rejects_json_booleans_in_trace(tmp_path, capsys):
    # Format 1, which the reader still reads with its own rules.
    out_path = tmp_path / "t.jsonl"
    _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "fsync",
        "--n", "1", "--horizon", "2", "--out", str(out_path),
    )
    text = dumps_trace_v1(read_trace_file(str(out_path)))
    assert _run(capsys, "check", _written(tmp_path, text), "--property", "kfair:1")[0] == 0
    lines = text.splitlines(keepends=True)
    head, row = "".join(lines[:2]), lines[2]  # row: round 1, on line 3
    deep, long = "[" * 200000 + "]" * 200000, "1" * 5000
    for mangled, needle in (
        (text.replace('"n": 1', '"n": true'), "header n"),
        (text.replace('"round": 0', '"round": false'), "round must be an integer"),
        (text.replace('"n": 1', f'"n": {deep}'), "header is not JSON"),
        (text.replace('"n": 1', f'"n": {long}'), "header is not JSON"),
        (text.replace('"round": 0', f'"round": {deep}'), "line 2 is not JSON"),
        (text.replace('"round": 0', f'"round": {long}'), "line 2 is not JSON"),
        # only canonical robot ids are read, and the refusal names the key
        (text.replace('"L0"', '"L00"', 1), "line 1: p0 has unknown robot id 'L00'"),
        (text.replace('"frames": {"L0"', '"frames": {" L0 "'), "line 2: frames has unknown robot id ' L0 '"),
        # a bad value is refused with its line and the robot that holds it
        (head + row.replace('"R0": "1/1"', '"R0": "x"', 1), "line 3: bad frames: R0 has invalid scalar 'x'"),
        (head + row.replace('"L0": "0/1"', '"L0": [1]', 1), "line 3: bad post: L0 has [1]"),
        (text.replace('"R0": "1/1"', '"R0": "1/0"', 1), "line 1: bad p0: R0 has invalid scalar '1/0'"),
        (text.replace('"L0": "0/1"', '"L0": null', 1), "line 1: bad p0: L0 has null"),
        (text.replace('"p0": {', '"p0": {"L1": "0/1", ', 1), "line 1: p0 does not cover"),
        # json.loads keeps a repeated key's last value; the reader names the key
        (text.replace('"p0": {', '"p0": {"R0": "0/0", ', 1), "header: repeated key 'R0'"),
        (head + row.replace('"frames": {', '"frames": {"R0": [1, 2], '), "line 3: repeated key 'R0'"),
        (head + row.replace('"post": {', '"post": {"L0": "banana", '), "line 3: repeated key 'L0'"),
        (head + row.replace('{"round": 1', '{"round": "x", "round": 1'), "line 3: repeated key 'round'"),
        # the reader's one decoder refuses what json.loads refuses, as it does
        ("\ufeff" + text, "header is not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (head + "\ufeff" + row, "line 3 is not JSON: Unexpected UTF-8 BOM"),
        (head + row.replace("}}", "}} {}", 1), "line 3 is not JSON: Extra data"),
    ):
        code, out, err = _run(capsys, "check", _written(tmp_path, mangled), "--property", "kfair:1")
        assert code == 2 and not out
        assert _one_line(err) and needle in err


@pytest.mark.parametrize("n", [1, 3, 8])
def test_a_v1_rendering_checks_as_its_v2_file(tmp_path, capsys, n):
    # An adversary run (list tables) and a random 1-fair run (mostly tables
    # of points and slots) of every built-in selector.
    selectors = [s for s in BUILTIN_SELECTORS if "<" not in s] + ["convex:1/3", "convex:-1/2", "convex:2"]
    v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    for selector in selectors:
        for run in (("adversary",), ("simulate", "--demon", f"random-kfair:1:{n}")):
            _run(capsys, *run, "--robogram", selector, "--n", str(n), "--horizon", "12", "--out", str(v2))
            v1.write_text(dumps_trace_v1(read_trace_file(str(v2))))
            for prop in ("kfair:0", "kfair:1", "always-split", "will-gather"):
                checked = [_run(capsys, "check", str(path), "--property", prop) for path in (v1, v2)]
                assert checked[0] == checked[1], (selector, run, prop)
                assert checked[0][0] in (0, 1) and checked[0][1], (selector, run, prop)


def _written(tmp_path, text: str) -> str:
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    return str(path)


# `simulate` of stay under round-robin:1 with n=2 from four points: p0 has
# four slots, each round's frames activate one robot (an object of points
# and slots), and each post is p0 again (a list of points).
_V2_HEAD = (
    '{"format": 2, "lcmsim": "%s", "robogram": "stay", "demon": "round-robin:1/1", "n": 2,'
    ' "p0": {"points": ["0/1", "1/3", "2/1", "-a/7"], "slots": [0, 1, 2, 3]}}\n'
)
_V2_ROW = '{"round": 0, "frames": {"points": ["1/1", "0/1"], "slots": [0, 1, 1, 1]}, "post": ["0/1", "1/3", "2/1", "-a/7"]}\n'


@pytest.mark.parametrize(
    "old, new, needle",
    [
        # one accepted text per value: lowest terms, lowercase, no leading zero, prefix or sign of zero
        ('"1/3"', '"2/6"', "line 1: p0: point 1: invalid scalar '2/6': this value is written '1/3'"),
        ('"2/1"', '"2/4"', "line 1: p0: point 2: invalid scalar '2/4': this value is written '1/2'"),
        ('"-a/7"', '"-A/7"', "line 1: p0: point 3: invalid scalar '-A/7': this value is written '-a/7'"),
        ('"2/1"', '"02/1"', "invalid scalar '02/1': this value is written '2/1'"),
        ('"2/1"', '"0x2/1"', "invalid scalar '0x2/1': this value is written '2/1'"),
        ('"2/1"', '"+2/1"', "invalid scalar '+2/1'"),
        ('"2/1"', '"2_0/1"', "invalid scalar '2_0/1'"),
        ('"2/1"', '" 2/1"', "invalid scalar ' 2/1'"),
        ('"0/1"', '"-0/1"', "invalid scalar '-0/1': this value is written '0/1'"),
        ('"2/1"', '"2"', "invalid scalar '2': expected lowercase hex 'num/den'"),
        ('"2/1"', '"2/0"', "invalid scalar '2/0': expected lowercase hex"),
        ('"2/1"', '"2/-1"', "invalid scalar '2/-1'"),
        ('"2/1"', '"2/1/1"', "invalid scalar '2/1/1'"),
        ('"2/1"', '"1.5/1"', "invalid scalar '1.5/1'"),
        ('"2/1"', "2", "line 1: p0: point 2 is 2: expected a hex 'num/den' string"),
        ('"2/1"', '"0/1"', "line 1: p0: points must be distinct"),
        # slots: non-bool ints in range, numbered in order of first robot, using every point
        ("[0, 1, 2, 3]", "[0, 1, 2, true]", "line 1: p0: slot true is not an integer"),
        ("[0, 1, 2, 3]", "[0, 1, 2, 3.0]", "line 1: p0: slot 3.0 is not an integer"),
        ("[0, 1, 2, 3]", "[0, 1, 2, 4]", "line 1: p0: slots must be numbered 0, 1, ... in order of first robot"),
        ("[0, 1, 2, 3]", "[0, 1, 2, -1]", "slots must be numbered"),
        ("[0, 1, 2, 3]", "[1, 0, 2, 3]", "slots must be numbered"),
        ("[0, 1, 2, 3]", "[0, 1, 2, 2]", "line 1: p0: 4 points for 3 slots"),
        ("[0, 1, 2, 3]", "[0, 1, 2]", "line 1: p0: 3 slots for 4 robots"),
        ("[0, 1, 2, 3]", '"0123"', "line 1: p0: slots must be a list"),
        ('["0/1", "1/3", "2/1", "-a/7"], "slots"', '"0/1", "slots"', "line 1: p0: points must be a list"),
        # a list table has one point per slot of the pre-position, and p0 has none
        ('"post": ["0/1", "1/3", "2/1", "-a/7"]', '"post": ["0/1", "1/3", "2/1"]', "line 2: post: 3 points for 4 slots"),
        ('"p0": {"points": ["0/1", "1/3", "2/1", "-a/7"], "slots": [0, 1, 2, 3]}',
         '"p0": ["0/1", "1/3", "2/1", "-a/7"]', "line 1: p0: expected an object of exactly points and slots"),
        ('"post": ["0/1", "1/3", "2/1", "-a/7"]',
         '"post": {"points": ["0/1", "1/3", "2/1", "-a/7"], "slots": [0, 1, 2, 3]}',
         "line 2: post: its slots are the pre-position's, so only its points are written"),
        ('"post": ["0/1", "1/3", "2/1", "-a/7"]', '"post": {"L0": "0/1"}', "line 2: post: expected a list of points or an object"),
        ('"slots": [0, 1, 1, 1]}', '"slots": [0, 1, 1, 1], "extra": 0}', "line 2: frames: expected a list of points or an object"),
        # the header and the rows have exactly the members the writer writes
        ('"format": 2', '"format": 3', "header format 3 is not supported"),
        ('"format": 2', '"format": 1', "header format 1 is not supported"),
        ('"format": 2', '"format": true', "header format true is not supported"),
        # without a format key the header is format 1, whose reader refuses the tables
        ('"format": 2, ', "", "line 1: p0 does not cover the universe exactly"),
        ('"lcmsim": "%s"' % lcmsim.__version__, '"lcmsim": 1', "header lcmsim, robogram and demon must be strings"),
        ('"robogram": "stay"', '"robogram": null', "header lcmsim, robogram and demon must be strings"),
        ('"n": 2,', '"n": 2, "seed": 1,', "header has unexpected key 'seed'"),
        ('"n": 2,', "", "header is missing 'n'"),
        ('{"round": 0, ', '{"round": 0, "note": "x", ', "line 2 has unexpected key 'note'"),
        ('"round": 0', '"round": false', "line 2: round must be an integer"),
        # a repeated key is refused, whatever object it is in
        ('"format": 2', '"format": 2, "format": 2', "header: repeated key 'format'"),
        ('"slots": [0, 1, 2, 3]', '"slots": [0, 1, 2, 3], "slots": [0, 1, 2, 3]', "header: repeated key 'slots'"),
        ('"frames": {"points"', '"frames": {"slots": [0], "points"', "line 2: repeated key 'slots'"),
        ('{"round": 0, ', '{"round": 0, "round": 0, ', "line 2: repeated key 'round'"),
    ],
)
def test_check_rejects_malformed_v2_traces(tmp_path, capsys, old, new, needle):
    text = _V2_HEAD % lcmsim.__version__ + _V2_ROW
    # the unmangled text is a valid trace, and each mangle changes it
    assert _run(capsys, "check", _written(tmp_path, text), "--property", "kfair:1")[0] == 0
    assert old in text
    code, out, err = _run(capsys, "check", _written(tmp_path, text.replace(old, new, 1)), "--property", "kfair:1")
    assert code == 2 and not out
    assert _one_line(err) and err.startswith("malformed trace: ") and needle in err


def test_check_refuses_a_v2_scalar_past_the_digit_bound(tmp_path, capsys):
    # The hex bound has the magnitude of MAX_SCALAR_DIGITS decimal digits.
    bound = execution._MAX_HEX_DIGITS
    assert 16 ** (bound - 1) < 10**MAX_SCALAR_DIGITS < 16**bound
    text = _V2_HEAD % lcmsim.__version__ + _V2_ROW
    # p0's point 2 becomes 16**(digits-1) or its inverse: within the bound it
    # is read, and replay then finds post's "2/1" (exit 3); past it, exit 2.
    for digits, expected in ((bound, 3), (bound + 1, 2)):
        big = "1" + "0" * (digits - 1)
        for scalar in (f"{big}/1", f"1/{big}"):
            mangled = text.replace('"2/1"', f'"{scalar}"', 1)
            code, out, err = _run(capsys, "check", _written(tmp_path, mangled), "--property", "kfair:1")
            assert (code, out) == (expected, "") and _one_line(err)
            assert (f"more than {bound} hex digits" in err) == (expected == 2)


def test_check_rejects_non_utf8_trace(tmp_path, capsys):
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes('{"robogram": "caf\u00e9"}\n'.encode("latin-1"))
    code, out, err = _run(capsys, "check", str(bad), "--property", "kfair:1")
    assert code == 2 and not out
    assert _one_line(err) and "not UTF-8" in err


def test_bad_lcm_seed_is_ignored(capsys, monkeypatch):
    # The adversary's screen draws from a fixed seed, so no environment
    # variable reaches its report, and a non-integer LCM_SEED is no error.
    runs = (
        ("adversary", "--robogram", "broken-id-leak", "--n", "3", "--horizon", "4"),
        ("adversary", "--robogram", "center-of-mass", "--n", "3", "--horizon", "4"),
        ("invariance", "--robogram", "stay", "--samples", "2"),
    )
    monkeypatch.delenv("LCM_SEED", raising=False)
    unset = [_run(capsys, *argv)[:2] for argv in runs]
    for value in ("7", "seven"):
        monkeypatch.setenv("LCM_SEED", value)
        assert [_run(capsys, *argv)[:2] for argv in runs] == unset, value


def test_out_in_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started although --out cannot be written")

    monkeypatch.setattr(cli, "run_impossibility", never)
    monkeypatch.setattr(cli, "execute_prefix", never)
    missing = str(tmp_path / "no-such-dir" / "t.jsonl")
    for argv in (
        ("adversary", "--robogram", "stay", "--n", "1", "--horizon", "2", "--out", missing),
        ("simulate", "--robogram", "stay", "--demon", "fsync", "--n", "1",
         "--horizon", "2", "--out", missing),
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 2
        assert _one_line(err) and "cannot write trace" in err


def test_out_probe_leaves_no_file_behind(tmp_path, capsys):
    # The writability probe runs before the run; a run that then fails must
    # not leave an empty trace file, and an existing file is not truncated.
    fresh = tmp_path / "fresh.jsonl"
    code, _, _ = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "nope", "--n", "1",
        "--horizon", "2", "--out", str(fresh),
    )
    assert code == 2 and not fresh.exists()
    kept = tmp_path / "kept.jsonl"
    kept.write_text("old\n")
    code, _, _ = _run(
        capsys, "simulate", "--robogram", "stay", "--demon", "nope", "--n", "1",
        "--horizon", "2", "--out", str(kept),
    )
    assert code == 2 and kept.read_text() == "old\n"


def test_invariance_passes_for_spectrum_robograms(capsys):
    code, out, _ = _run(
        capsys, "invariance", "--robogram", "center-of-mass", "--samples", "300",
    )
    assert code == 0
    assert json.loads(out) == {"robogram": "center-of-mass", "samples": 300, "ok": True}


def test_invariance_prints_counterexample(capsys):
    code, out, _ = _run(
        capsys, "invariance", "--robogram", "broken-id-leak", "--samples", "300",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["robogram"] == "broken-id-leak"
    assert set(payload["counterexample"]) == {"n", "position", "permutation"}


def test_invariance_is_seed_deterministic(capsys):
    one = _run(capsys, "invariance", "--robogram", "broken-id-leak",
               "--samples", "50", "--seed", "3")
    two = _run(capsys, "invariance", "--robogram", "broken-id-leak",
               "--samples", "50", "--seed", "3")
    assert one == two


def test_invariance_ignores_lcm_seed_env(capsys, monkeypatch):
    # `invariance --seed` defaults to 0 whatever LCM_SEED holds.
    argv = ("invariance", "--robogram", "broken-id-leak", "--samples", "50")
    monkeypatch.setenv("LCM_SEED", "7")
    from_env = _run(capsys, *argv)
    monkeypatch.delenv("LCM_SEED")
    assert from_env == _run(capsys, *argv, "--seed", "0") == _run(capsys, *argv)


def test_invariance_usage_errors(capsys):
    code, *_ = _run(capsys, "invariance", "--robogram", "center-of-mass", "--samples", "0")
    assert code == 2
    code, *_ = _run(capsys, "invariance", "--samples", "5")
    assert code == 2


def test_argparse_failures_map_to_exit_2(capsys):
    assert main([]) == 2
    assert main(["warp-drive"]) == 2
    assert main(["simulate", "--bogus"]) == 2
    capsys.readouterr()


def test_simulate_takes_exactly_six_flags(capsys):
    assert main(["simulate", "--help"]) == 0
    flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert flags == {"--help", "--robogram", "--demon", "--n", "--init", "--horizon", "--out"}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_console_script_entry_point():
    proc = subprocess.run(
        ["lcmsim", "simulate", "--robogram", "stay", "--demon", "fsync",
         "--n", "1", "--horizon", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 11


def _modules_left_after_startup(modules: tuple[str, ...]) -> str:
    """Which of `modules` a fresh process holds after importing the CLI and
    building its parser, as the printed sorted list."""
    code = (
        "import sys, lcmsim.cli\n"
        "lcmsim.cli.build_parser()\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_leaves_the_process_pool_out():
    # No command runs a process pool, so importing the CLI must not pull in
    # concurrent.futures or multiprocessing: every invocation pays for its
    # module imports.
    assert _modules_left_after_startup(("concurrent.futures", "multiprocessing")) == "[]"


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # The value classes are written out by hand: `dataclasses` would load
    # `inspect`, `ast`, `dis` and `tokenize`, about half of the start-up.
    assert _modules_left_after_startup(("dataclasses", "inspect", "ast")) == "[]"


def test_module_invocation_matches_script():
    # `python -m lcmsim` runs without an installed script, and its usage
    # names the program as the script does.
    for module in ("lcmsim.cli", "lcmsim"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "adversary", "--robogram", "to-max",
             "--n", "1", "--horizon", "8"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, module
        assert json.loads(proc.stdout)["probe"]["branch"] == "swap-fsync"
        usage = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True)
        assert usage.returncode == 2 and usage.stderr.startswith("usage: lcmsim "), module

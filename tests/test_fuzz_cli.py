"""Fuzz the flags of `simulate`, `adversary`, `invariance` and `check`:
every argv must end in a documented exit code, never in an exception that
escapes `main`; exit 1 ("a property failed") only where a property is
judged, and nothing on stdout with exit 2.  Only pile sizes up to 3 can be
accepted, so no input builds a large universe, and `check` reads small
traces that the test writes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcmsim.adversary import run_impossibility
from lcmsim.cli import main
from lcmsim.core import Position, RobotUniverse
from lcmsim.demons import make_fsync, make_random_kfair
from lcmsim.execution import execute_prefix
from lcmsim.robograms import center_of_mass, to_other_occupied

from helpers import dumps_trace_v2

garbage = st.text(max_size=12)


def mostly(valid: list[str], *others: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """A valid value three times in four, so that most argv get past the
    first refused flag; otherwise a near miss or garbage."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(valid) if i else st.one_of(*others))


robograms = mostly(
    ["stay", "center-of-mass", "to-other-occupied", "to-max", "to-min", "broken-id-leak",
     "convex:1/3", "convex:-2/4", "convex:0"],
    st.sampled_from(["center_of_mass", " stay ", "convex:", "convex:1/0", "convex:0.5",
                     "convex:1/3/4", "convex:x", "CONVEX:1/2", "to-max:1"]),
    garbage,
)
demons = mostly(
    ["fsync", "round-robin:1/2", "round-robin:-3", "random-kfair:1:7", "random-kfair:0:-1",
     "random-kfair:9223372036854775807:7", "adversary"],
    st.sampled_from(["round-robin:0/1", "round-robin:", "round-robin:1/0", "random-kfair:1",
                     "random-kfair:-1:2", "random-kfair:01:2", "random-kfair:1:x",
                     "random-kfair:1:2:3", "fsync ", "adversary:1", "Fsync"]),
    garbage,
)
sizes = mostly(["1", "2", "3"], st.sampled_from(["-1", "0", str(10**19), "x", "1.5", "", "0x2"]))
horizons = st.sampled_from(["-1", "0", "1", "5"])

bivalent = st.sampled_from([
    "bivalent:0/1:1/1", "bivalent:-1/2:3", "bivalent:1/2:1/2", "bivalent:0:1",
    "bivalent:0.5:1", "bivalent:1/0:1", "bivalent:x:y", "bivalent:1:2:3", "bivalent:",
])
ids = st.sampled_from(["L0", "L1", "L2", "R0", "R1", "R2", "L3", "X0", "l0", "L01", " R0", ""])
# Map values as JSON text: canonical scalars, near misses, other JSON types
# and nesting past the recursion limit.
values = st.sampled_from([
    '"1/2"', '"-3/1"', '"0/1"', '"2/4"', '"01/1"', '"1"', '"+1/2"', '"1/-2"', '"0.5"',
    '"1/0"', '"1f/24"', "1", "1.5", "null", "true", "[]", "{}",
    "[" * 5 + "]" * 5, "[" * 20000 + "]" * 20000,
])


@st.composite
def json_maps(draw, n: int) -> str:
    """A map from robot ids to scalars, as raw text, so ids may repeat:
    complete for pile size `n`, and in half the draws perturbed."""
    pairs = [(f"{side}{i}", '"%d/1"' % draw(st.integers(-3, 3))) for side in "LR" for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        kind = draw(st.sampled_from(["drop", "add", "repeat", "value"]))
        if kind == "drop" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif kind == "add":
            pairs.append((draw(ids), draw(values)))
        elif kind == "repeat" and pairs:
            pairs.append((draw(st.sampled_from(pairs))[0], draw(values)))
        elif kind == "value" and pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i] = (pairs[i][0], draw(values))
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["simulate", "adversary", "invariance"]))
    argv = [command, "--robogram", draw(robograms)]
    if command == "invariance":
        argv += ["--samples", draw(mostly(["1", "3"], st.sampled_from(["-1", "0", "x"])))]
        argv += ["--seed", draw(st.sampled_from(["0", "-7", "1.5"]))]
    else:
        n = draw(sizes)
        argv += ["--n", n, "--horizon", draw(horizons)]
    if command == "simulate":
        argv += ["--demon", draw(demons)]
        if draw(st.booleans()):
            maps = json_maps(int(n) if n in ("1", "2", "3") else 1)
            argv += ["--init", draw(st.one_of(bivalent, maps, maps, values | garbage))]
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    """`main(argv)` with its exit code and what it printed, which must be a
    documented exit code with no traceback, and nothing on stdout with
    exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_flags_keep_the_exit_code_contract(argv):
    code, out, _ = _run(argv)
    if code == 1:
        # only a judged property fails: an uncertified run or a counterexample
        assert argv[0] in ("adversary", "invariance")
        assert json.loads(out)


# Small valid traces, one per kind of demon: the adversary's, fsync's (a
# run that gathers) and a random k-fair demon's.
_TWO = RobotUniverse(2)
_P0 = Position.from_piles(_TWO, 0, 1)
TRACES = tuple(map(dumps_trace_v2, (
    run_impossibility(center_of_mass, 2, 5).trace,
    execute_prefix(center_of_mass, make_fsync(_TWO), _P0, 3),
    execute_prefix(to_other_occupied, make_random_kfair(_TWO, 1, 1, 7), _P0, 6),
)))
HUGE_BUDGETS = (f"kfair:{2**63 - 1}", f"kfair:{2**63}", f"kfair:{10**30}")
properties = mostly(
    ["kfair:0", "kfair:1", "kfair:2", "always-split", "will-gather"],
    st.sampled_from(["kfair:-1", "kfair:01", "kfair: 1", "will_gather", "kfair:", "kfair",
                     "KFAIR:1", "kfair:1.0", "always-split "]),
    st.sampled_from(HUGE_BUDGETS),
    garbage,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TRACES), properties)
def test_check_keeps_the_exit_code_contract(text, prop):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        code, out, _ = _run(["check", path, "--property", prop])
    assert code != 3  # every trace here is valid
    if code in (0, 1):
        verdict = json.loads(out)
        assert verdict["property"] == prop and "verdict" in verdict
    if prop in HUGE_BUDGETS:  # a budget at or above the horizon refutes nothing
        assert code == 0 and verdict["verdict"] == "no-violation-up-to"

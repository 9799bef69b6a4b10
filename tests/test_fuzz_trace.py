"""Fuzz the trace contract of `check`: a trace with one mutated line, or
with one post out of lowest terms and maybe one more mutated line, must end
in a documented exit code, never in an exception or a traceback, and exit 1
("the property failed") only with a verdict on stdout.  Whenever the
library's `read_trace_file` refuses the file, `check` reports exactly that
refusal."""

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
from lcmsim.demons import make_fsync
from lcmsim.execution import TraceFormatError, execute_prefix, read_trace_file, write_trace
from lcmsim.robograms import center_of_mass, to_max

from helpers import dumps_trace_v1


def _text(trace) -> str:
    out = io.StringIO()
    write_trace(trace, out)
    return out.getvalue()


# Both adversary branches and a gathering run, so every verdict kind occurs,
# each as written (format 2) and as format 1, which is still read.
_ONE = RobotUniverse(1)
_TRACES = (
    run_impossibility(center_of_mass, 2, 4).trace,
    run_impossibility(to_max, 1, 3).trace,
    execute_prefix(center_of_mass, make_fsync(_ONE), Position.from_piles(_ONE, 0, 1), 3),
)
BASES = tuple(_text(t) for t in _TRACES) + tuple(dumps_trace_v1(t) for t in _TRACES)
PROPERTIES = ("kfair:1", "always-split", "will-gather")
HOLE = "@@fuzz@@"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Raw JSON texts, some of which json.dumps cannot produce: nesting past the
# recursion limit, integers past the digit limit, and near-miss scalars.
raw_json = st.one_of(
    json_values.map(json.dumps),
    st.sampled_from([10, 1500, 200000]).map(lambda k: "[" * k + "]" * k),
    st.sampled_from([4300, 4301, 5000]).map(lambda k: "1" * k),
    st.sampled_from(["1/0", "0/1", "-1/2", "1/-2", "0.5", "1e9", "2/4", "1" * 3000 + "/1"]).map(json.dumps),
    st.sampled_from(["A/1", "01/1", "0x1/1", "-0/1", "1f/24", "f" * 3000 + "/1"]).map(json.dumps),
)


def _times(k: int, text: str, base: int) -> str:
    """`text`, a "num/den" in `base` 16 or 10, as k*num/k*den."""
    n, d = (int(part, base) for part in text.split("/"))
    return f"{k * n:x}/{k * d:x}" if base == 16 else f"{k * n}/{k * d}"


def _scale_one_post(draw, lines: list[str]) -> None:
    """Write one post text of a row out of lowest terms, as k*num/k*den for
    some k >= 2: a value the writer never writes, which `check` refuses
    only once replay has compared that post."""
    i = draw(st.integers(1, len(lines) - 1))
    row = json.loads(lines[i])
    post, k = row["post"], draw(st.integers(2, 2**70))
    if isinstance(post, list) or "points" in post:  # format 2
        points = post if isinstance(post, list) else post["points"]
        j = draw(st.integers(0, len(points) - 1))
        points[j] = _times(k, points[j], 16)
    else:
        robot = draw(st.sampled_from(sorted(post)))
        post[robot] = _times(k, post[robot], 10)
    lines[i] = json.dumps(row) + "\n"


@st.composite
def mutated_traces(draw) -> bytes:
    lines = draw(st.sampled_from(BASES)).splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "splice", "value", "round", "lowest"]))
    if kind == "lowest":  # and maybe one more defect, before or after it
        _scale_one_post(draw, lines)
        kind = draw(st.sampled_from(["truncate", "splice", "value", "round", "none"]))
        if kind == "none":
            return "".join(lines).encode()
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "truncate":
        cut = draw(st.integers(0, len(line)))
        return "".join(lines[:i] + [line[:cut]]).encode()
    if kind == "splice":
        raw = line.encode()
        start = draw(st.integers(0, len(raw)))
        end = draw(st.integers(start, min(len(raw), start + 8)))
        head, tail = "".join(lines[:i]).encode(), "".join(lines[i + 1:]).encode()
        return head + raw[:start] + draw(st.binary(max_size=8)) + raw[end:] + tail
    row = json.loads(line)
    if kind == "round":
        lines[i] = json.dumps({**row, "round": draw(st.integers(-2, 8))}) + "\n"
        return "".join(lines).encode()
    # Replace one value: a top-level field, or an entry of a map or list
    # nested in it at any depth.
    container, key = row, draw(st.sampled_from(sorted(row)))
    while isinstance(container[key], (dict, list)) and container[key] and draw(st.booleans()):
        container = container[key]
        keys = sorted(container) if isinstance(container, dict) else range(len(container))
        key = draw(st.sampled_from(keys))
    container[key] = HOLE
    lines[i] = json.dumps(row).replace(json.dumps(HOLE), draw(raw_json)) + "\n"
    return "".join(lines).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_traces(), prop=st.sampled_from(PROPERTIES))
def test_check_of_a_mutated_trace_keeps_the_exit_code_contract(data, prop):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "wb") as fp:
            fp.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path, "--property", prop])
        try:
            read_trace_file(path)
        except TraceFormatError as exc:
            # `check` reports the reader's refusal, whatever else is wrong
            assert (code, err.getvalue()) == (2, f"malformed trace: {exc}\n")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        verdict = json.loads(out.getvalue())
        assert verdict["property"] == prop and "verdict" in verdict

"""Test-only builders: a demon that replays a fixed schedule, a random
nonzero scalar for frame factors, `convex` computed as it was before
framed views were built on demand, and reference renderings of a trace in
format 2, the one `write_trace` writes and `read_trace` reads, and in the
old format 1, one `json.dumps` per line."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

import lcmsim
from lcmsim.core import Position, RobotUniverse, ScalarLike, as_scalar, format_scalar
from lcmsim.demons import Demon, DemonicAction
from lcmsim.execution import Trace
from lcmsim.robograms import Robogram, spectrum_robogram
from lcmsim.sampling import random_scalar


def make_scripted(
    universe: RobotUniverse,
    schedule: Sequence[Mapping[str, ScalarLike]],
    name: str = "scripted",
) -> Demon:
    """Replay a fixed, position-independent frame schedule, cycling past the
    end so the demon stays total."""
    if not schedule:
        raise ValueError("scripted demon needs a nonempty schedule")
    actions = [DemonicAction(universe, dict(frames)) for frames in schedule]

    def step(round_index: int, position: Position) -> DemonicAction:
        return actions[round_index % len(actions)]

    return Demon(name, step)


def random_nonzero_scalar(rng: random.Random, max_abs: int = 8, max_den: int = 6) -> Fraction:
    while True:
        q = random_scalar(rng, max_abs, max_den)
        if q != 0:
            return q


def iterated_convex(coefficient: ScalarLike) -> Robogram:
    """`convex:<coefficient>` under the same name, computed the old way: it
    iterates the view, so a framed view builds the image of every location,
    and sums their numerators over the lcm of their denominators."""
    lam = as_scalar(coefficient)

    def mean(view: Mapping[Fraction, int]) -> Fraction:
        ratios = [x.as_integer_ratio() for x in view]
        den = lcm(*(d for _, d in ratios))
        num = sum(p * (den // d) * count for (p, d), count in zip(ratios, view.values()))
        return lam * Fraction(num, den * sum(view.values()))

    return spectrum_robogram(f"convex:{format_scalar(lam)}", mean)


def _lines(dicts) -> str:
    return "".join(json.dumps(d) + "\n" for d in dicts)


def dumps_trace_v1(trace: Trace) -> str:
    """Format 1, as `write_trace` wrote it before format 2: no version keys,
    each table a name -> decimal "num/den" map.  `read_trace` no longer
    reads it; it is kept only to render the content digests that
    `test_parity.py` recorded in it."""

    def table(t):
        text = [format_scalar(x) for x in t.points]
        return dict(zip(t.universe.robots, map(text.__getitem__, t.slots)))

    header = {
        "robogram": trace.robogram_name,
        "demon": trace.demon_name,
        "n": trace.universe.pile_size,
        "p0": table(trace.p0),
    }
    rows = ({"round": rd.index, "frames": table(rd.action), "post": table(rd.post)}
            for rd in trace.rounds)
    return _lines([header, *rows])


def hex_scalar(x: Fraction) -> str:
    """A point's format 2 text, built with `hex` rather than `format`."""
    return "/".join(hex(part).replace("0x", "", 1) for part in x.as_integer_ratio())


def dumps_trace_v2(trace: Trace) -> str:
    """Format 2: each table a list of hex points when its slots equal the
    pre-position's (p0's for the first row, then the row before's post),
    otherwise an object of points and slots.  `write_trace` must match it
    byte for byte."""

    def table(t, like):
        points = [hex_scalar(x) for x in t.points]
        if like is not None and tuple(t.slots) == tuple(like):
            return points
        return {"points": points, "slots": list(t.slots)}

    header = {
        "format": 2,
        "lcmsim": lcmsim.__version__,
        "robogram": trace.robogram_name,
        "demon": trace.demon_name,
        "n": trace.universe.pile_size,
        "p0": table(trace.p0, None),
    }
    rows, like = [], trace.p0.slots
    for rd in trace.rounds:
        rows.append({"round": rd.index, "frames": table(rd.action, like), "post": table(rd.post, like)})
        like = rd.post.slots
    return _lines([header, *rows])

"""Test-only builders: a demon that replays a fixed schedule, and a random
nonzero scalar for frame factors."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from lcmsim.core import Position, RobotId, RobotUniverse, ScalarLike
from lcmsim.demons import Demon, DemonicAction
from lcmsim.sampling import random_scalar


def make_scripted(
    universe: RobotUniverse,
    schedule: Sequence[Mapping[RobotId, ScalarLike]],
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

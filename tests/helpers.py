"""Test-only builders: a demon that replays a fixed schedule, a random
nonzero scalar for frame factors, and `convex` computed as it was before
framed views were built on demand."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from lcmsim.core import Position, RobotId, RobotUniverse, ScalarLike, as_scalar, format_scalar
from lcmsim.demons import Demon, DemonicAction
from lcmsim.robograms import Robogram, spectrum_robogram
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

"""Seeded random generators for positions, scalars and robot renamings.

Used by the CLI's `invariance` command, the test suite, and the adversary's
screen of a raw robogram that passes the pile swap; the screen of a spectrum
robogram is exact and draws nothing.  Everything is driven by an explicit
`random.Random`, so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Position, RobotUniverse

__all__ = [
    "random_permutation",
    "random_position",
    "random_scalar",
]


def random_scalar(rng: random.Random, max_abs: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))


def random_position(
    universe: RobotUniverse, rng: random.Random, max_abs: int = 8, max_den: int = 6
) -> Position:
    return Position._of(
        universe, tuple(random_scalar(rng, max_abs, max_den) for _ in universe.robots)
    )


def random_permutation(universe: RobotUniverse, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random renaming of the robots: a tuple of robot places,
    `sigma[i]` being the place robot i is renamed to (see
    `core.permute_position`).  Shuffling places draws from `rng` exactly as
    shuffling the robots would."""
    targets = list(range(universe.m))
    rng.shuffle(targets)
    return tuple(targets)

"""Bounded checkers for the success and failure predicates of gathering.

Gathering is a forever-property (stacked at one point at every later step),
so a finite trace can only ever support a *tentative* positive: stacked from
some round through the horizon.  Its structural opposite, keeping the two
piles apart at every step, is likewise only refutable on a prefix.  The two
are mutually exclusive pointwise: a position that is split cannot be
gathered, since a gathering point would be shared across the piles.

Both checkers answer with the bounded `demons.Verdict` the fairness checker
uses, and all checkers are pure over immutable traces.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Position
from .demons import Verdict
from .execution import Trace

__all__ = [
    "check_always_split",
    "check_will_gather",
    "gathered_location",
    "split",
]


def gathered_location(p: Position) -> Fraction | None:
    """The single point all robots stand on, or None if they do not."""
    return p.points[0] if len(p.points) == 1 else None


def split(p: Position) -> bool:
    """True iff no left-pile robot shares a location with any right-pile robot.
    Collisions within one pile are allowed."""
    return p.slots.split


def check_will_gather(trace: Trace) -> Verdict:
    """Scan for the least position index from which the trace is stacked at
    one common point all the way to the horizon."""
    positions = trace.positions()
    point = gathered_location(positions[-1])
    if point is None:
        return Verdict.not_within_horizon(trace.horizon)
    first = len(positions) - 1
    while first > 0 and gathered_location(positions[first - 1]) == point:
        first -= 1
    return Verdict.tentatively_gathered(first, point, trace.horizon)


def check_always_split(trace: Trace) -> Verdict:
    """Refutation check for "the piles stay apart at every step".  The initial
    position is entry 0; round r's outcome is entry r + 1."""
    for index, position in enumerate(trace.positions()):
        if not split(position):
            return Verdict.violated(index)
    return Verdict.no_violation_up_to(trace.horizon)

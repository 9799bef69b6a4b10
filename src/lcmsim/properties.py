"""Bounded checkers for the success and failure predicates of gathering.

Gathering is a forever-property (stacked at one point at every later step),
so a finite trace can only ever support a *tentative* positive: stacked from
some round through the horizon.  Its structural opposite, keeping the two
piles apart at every step, is likewise only refutable on a prefix.  The two
are mutually exclusive pointwise: an inhabited position that is split cannot
be gathered, since a gathering point would be shared across the piles.

All checkers are pure over immutable traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Position, format_scalar
from .demons import Verdict
from .execution import Trace

__all__ = [
    "GATHERED",
    "NOT_WITHIN_HORIZON",
    "GatherVerdict",
    "check_always_split",
    "check_will_gather",
    "gathered_location",
    "split",
]

GATHERED = "tentatively-gathered"
NOT_WITHIN_HORIZON = "not-within-horizon"


@dataclass(frozen=True)
class GatherVerdict:
    """Bounded answer for "will the robots gather and stay gathered".

    tentatively-gathered(round, point): stacked at `point` from position index
    `round` through the end of the trace -- a prefix cannot promise more.
    not-within-horizon(horizon): no such suffix exists in the trace.
    """

    kind: str
    round: int | None = None
    point: Fraction | None = None
    horizon: int = 0

    @classmethod
    def tentatively_gathered(cls, round_index: int, point: Fraction, horizon: int) -> GatherVerdict:
        return cls(GATHERED, round=round_index, point=point, horizon=horizon)

    @classmethod
    def not_within_horizon(cls, horizon: int) -> GatherVerdict:
        return cls(NOT_WITHIN_HORIZON, horizon=horizon)

    @property
    def gathered(self) -> bool:
        return self.kind == GATHERED

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.kind, "horizon": self.horizon}
        if self.round is not None:
            out["round"] = self.round
        if self.point is not None:
            out["point"] = format_scalar(self.point)
        return out


def gathered_location(p: Position) -> Fraction | None:
    """The single point all robots stand on, or None if they do not."""
    p.universe.require_inhabited()
    return p.points[0] if len(p.points) == 1 else None


def split(p: Position) -> bool:
    """True iff no left-pile robot shares a location with any right-pile robot.
    Collisions within one pile are allowed."""
    n = p.universe.pile_size
    return set(p.slots[:n]).isdisjoint(p.slots[n:])


def check_will_gather(trace: Trace) -> GatherVerdict:
    """Scan for the least position index from which the trace is stacked at
    one common point all the way to the horizon."""
    positions = trace.positions()
    point = gathered_location(positions[-1])
    if point is None:
        return GatherVerdict.not_within_horizon(trace.horizon)
    first = len(positions) - 1
    while first > 0 and gathered_location(positions[first - 1]) == point:
        first -= 1
    return GatherVerdict.tentatively_gathered(first, point, trace.horizon)


def check_always_split(trace: Trace) -> Verdict:
    """Refutation check for "the piles stay apart at every step".  The initial
    position is entry 0; round r's outcome is entry r + 1."""
    for index, position in enumerate(trace.positions()):
        if not split(position):
            return Verdict.violated(index)
    return Verdict.no_violation_up_to(trace.horizon)

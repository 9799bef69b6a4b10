"""Adversarial schedulers ("demons") and bounded fairness checking.

A demonic action assigns every robot a frame factor for one round: 0 means
"not activated", anything else activates the robot with that scale factor.
It is the occupancy table a position is, of factors, so activation is read
per distinct factor.  A demon produces one action per round, forever; here
demons are stateful producers driven by the round index and the current
position, so a demon instance must be owned by a single run.  Checkers, by
contrast, are pure functions over recorded action prefixes and can be run
in parallel freely.

Every bounded checker, here and in `properties`, answers with one `Verdict`
type, and no verdict claims more than a finite prefix supports.  The
per-pair waiting property can be *proven* on a prefix (the watched robot
was activated in time), but k-fairness of a whole demon is a property of
all suffixes of an infinite stream: a prefix can only refute it or fail to
refute it, so checkers answer "violated" or "no violation up to the
horizon", never "proven".  Gathering is likewise only *tentative*: stacked
from some round through the horizon.

The k-fairness rule is stated once (`_kfair_cutoff`): the random k-fair
demon forces robots into a round by it, and `check_kfair` refutes by it.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    Position,
    RobotId,
    RobotUniverse,
    ScalarLike,
    _Slots,
    _Table,
    _Value,
    as_scalar,
    format_scalar,
    tabulate_keys,
)

__all__ = [
    "Demon",
    "DemonicAction",
    "GATHERED",
    "NOT_WITHIN_HORIZON",
    "NO_VIOLATION",
    "PROVEN",
    "UNKNOWN",
    "VIOLATED",
    "Verdict",
    "check_between",
    "check_kfair",
    "make_fsync",
    "make_random_kfair",
    "make_round_robin",
]

PROVEN = "proven"
VIOLATED = "violated"
NO_VIOLATION = "no-violation-up-to"
UNKNOWN = "unknown"
GATHERED = "tentatively-gathered"
NOT_WITHIN_HORIZON = "not-within-horizon"


class DemonicAction(_Table):
    """One round of scheduling: a frame factor for every robot of the
    universe, stored as the occupancy table a Position is: `points`, the
    distinct factors in order of their first robot, and `slots`, one index
    into them per robot.  The constructor takes a total id -> factor map."""

    __slots__ = ()
    _partial = "demonic action must assign a factor to every robot"

    @property
    def frames(self) -> tuple[Fraction, ...]:
        """One factor per robot, in robot order."""
        return self._per_robot()

    def factor(self, robot: RobotId) -> Fraction:
        return self[robot]

    def is_active(self, robot: RobotId) -> bool:
        return self[robot] != 0

    def active_robots(self) -> tuple[RobotId, ...]:
        idle = self._idle_slot()
        return tuple(r for r, s in zip(self.universe.robots, self.slots) if s != idle)

    def _idle_slot(self) -> int:
        """The slot of factor 0, or -1 when every robot is activated: one
        pass over the factors' numerators, no `Fraction.__eq__`."""
        slot = 0
        for f in self.points:
            if not f.numerator:
                return slot
            slot += 1
        return -1


class Demon:
    """A named producer of demonic actions, one per round."""

    __slots__ = ("name", "_step")

    def __init__(self, name: str, step: Callable[[int, Position], DemonicAction]):
        self.name = name
        self._step = step

    def action(self, round_index: int, position: Position) -> DemonicAction:
        return self._step(round_index, position)

    def __repr__(self) -> str:
        return f"Demon({self.name!r})"


class Verdict(_Value):
    """Outcome of a bounded check.

    - proven: an inductive property closed within the prefix.
    - violated(round): refuted; `round` is the earliest offending index.
    - no-violation-up-to(horizon): nothing refuted the property on the prefix
      (the strongest claim a finite prefix supports for a coinductive one).
    - unknown(horizon): the prefix ended before the property could close.
    - tentatively-gathered(round, point, horizon): stacked at `point` from
      position index `round` through the horizon; a prefix cannot promise more.
    - not-within-horizon(horizon): no such suffix exists in the prefix.

    `ok` says the property held as far as the prefix shows.
    """

    __slots__ = ("kind", "round", "horizon", "point")

    def __init__(
        self, kind: str, round: int | None = None, horizon: int | None = None,
        point: Fraction | None = None,
    ) -> None:
        self._fill(kind, round, horizon, point)

    @classmethod
    def proven(cls) -> Verdict:
        return cls(PROVEN)

    @classmethod
    def violated(cls, round_index: int) -> Verdict:
        return cls(VIOLATED, round=round_index)

    @classmethod
    def no_violation_up_to(cls, horizon: int) -> Verdict:
        return cls(NO_VIOLATION, horizon=horizon)

    @classmethod
    def unknown(cls, horizon: int) -> Verdict:
        return cls(UNKNOWN, horizon=horizon)

    @classmethod
    def tentatively_gathered(cls, round_index: int, point: Fraction, horizon: int) -> Verdict:
        return cls(GATHERED, round=round_index, horizon=horizon, point=point)

    @classmethod
    def not_within_horizon(cls, horizon: int) -> Verdict:
        return cls(NOT_WITHIN_HORIZON, horizon=horizon)

    @property
    def ok(self) -> bool:
        return self.kind in (PROVEN, NO_VIOLATION, GATHERED)

    def to_json_dict(self) -> dict:
        """The kind, then each field that is set; only a gathering verdict
        has more than one."""
        out: dict = {"verdict": self.kind}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.round is not None:
            out["round"] = self.round
        if self.point is not None:
            out["point"] = format_scalar(self.point)
        return out


def make_fsync(universe: RobotUniverse) -> Demon:
    """Fully synchronous demon: every robot is activated every round with
    factor 1, by one action built once."""
    action = DemonicAction._table(universe, (Fraction(1),), (0,) * universe.m)

    def step(round_index: int, position: Position) -> DemonicAction:
        return action

    return Demon("fsync", step)


def make_round_robin(universe: RobotUniverse, factor: ScalarLike) -> Demon:
    """Activate exactly one robot per round, cycling left pile then right pile."""
    f = as_scalar(factor)
    if f == 0:
        raise ValueError("round-robin factor must be nonzero")
    by_flag = (Fraction(0), f).__getitem__

    def step(round_index: int, position: Position) -> DemonicAction:
        active = [False] * universe.m
        active[round_index % universe.m] = True
        return DemonicAction._table(universe, *tabulate_keys(active, by_flag))

    return Demon(f"round-robin:{format_scalar(f)}", step)


def make_random_kfair(
    universe: RobotUniverse, k: int, factor: ScalarLike, seed: int
) -> Demon:
    """Random SSYNC demon that never lets any robot be activated more than k
    times between consecutive activations of any other robot.

    Each round starts from a random nonempty subset; any robot whose waiting
    budget against an activated robot is already exhausted is forced into the
    round (`_kfair_cutoff`; for k = 0 that makes every round all-active).
    Deterministic for a given seed.
    """
    if k < 0:
        raise ValueError("fairness budget k must be >= 0")
    f = as_scalar(factor)
    if f == 0:
        raise ValueError("factor must be nonzero")
    m = universe.m
    by_flag = (Fraction(0), f).__getitem__
    rng = random.Random(seed)
    recent = [_history(k) for _ in range(m)]

    def step(round_index: int, position: Position) -> DemonicAction:
        # One draw per robot in robot order, then one choice if none was
        # drawn: the seed's action sequence depends on this exact order.
        # Choosing from range(m) draws as choosing from the robots would.
        active = [rng.random() < 0.5 for _ in range(m)]
        if not any(active):
            active[rng.choice(range(m))] = True
        # Force in every robot that has waited k activations of a drawn
        # robot.  A forced robot was itself last activated before the
        # cutoff, so every robot it keeps waiting is forced already: one
        # pass closes the round.
        cutoff = _kfair_cutoff([t for a, t in zip(active, recent) if a], k, round_index)
        active = [a or t[-1] < cutoff for a, t in zip(active, recent)]
        for a, t in zip(active, recent):
            if a:
                t.append(round_index)
        return DemonicAction._table(universe, *tabulate_keys(active, by_flag))

    return Demon(f"random-kfair:{k}:{seed}", step)


def _history(k: int) -> deque[int]:
    """One robot's or class's history for the k-fairness rule: up to its
    k + 1 latest activation rounds, oldest first, after a -1 for "never".
    It is not filled with k + 1 -1s, which would cost O(k) per robot before
    the first round (a budget of 10**9 is a valid demon).  A bound past
    `sys.maxsize`, which `deque` cannot take, is dropped: no run lasts long
    enough to fill such a history."""
    return deque((-1,), maxlen=k + 1 if k < sys.maxsize else None)


def _kfair_cutoff(active: list[deque[int]], k: int, round_index: int) -> int:
    """The one k-fairness rule, for robots or for classes of robots that are
    activated together.  `active` holds the history (`_history`) of each
    one activated this round, up to the round before.  An idle one has
    waited more than k activations of an active one iff its last
    activation came before the cutoff: the latest k-th latest activation
    of an active one, or with k = 0 this round once anything is active;
    -1 when nothing is.  A history shorter than k has no k-th latest."""
    if k == 0:
        return round_index if active else -1
    cutoff = -1
    for t in active:  # a loop, not max() over a generator: most rounds have one or two
        if len(t) >= k and t[-k] > cutoff:
            cutoff = t[-k]
    return cutoff


def check_between(
    actions: Sequence[DemonicAction], g: RobotId, h: RobotId, k: int
) -> Verdict:
    """Was `g` activated within `k` activations of `h`, from the start of the
    prefix?

    Rule by rule: a round activating g closes the property immediately; a
    round activating h but not g consumes one unit of budget (a violation if
    the budget is already 0); a round activating neither defers.  If the
    prefix ends with the property still open, the answer is unknown.
    """
    if not actions:
        raise ValueError("check_between needs a nonempty action prefix")
    if k < 0:
        raise ValueError("fairness budget k must be >= 0")
    budget = k
    for i, action in enumerate(actions):
        if action.is_active(g):
            return Verdict.proven()
        if action.is_active(h):
            if budget == 0:
                return Verdict.violated(i)
            budget -= 1
    return Verdict.unknown(len(actions))


def check_kfair(actions: Sequence[DemonicAction], k: int) -> Verdict:
    """Refutation check for k-fairness over every suffix of the prefix.

    Violated(i) means some ordered robot pair (g, h) has its waiting property
    refuted on the suffix that starts at round i, with i minimal.  A clean
    prefix yields no-violation-up-to(horizon); "proven" is never an answer
    because k-fairness constrains all suffixes of an infinite stream.

    A fold over the rounds that never looks ahead: it reads each action
    once, in order, and stops at the first round that refutes.  Robots
    with one slot in each slot pattern seen so far have been activated
    together in every round so far, so they never wait on each other:
    they form a class, and the classes are the joint pattern of the
    patterns seen so far (`_Slots.joint`).  The first pattern's slots are
    the classes.  Each new (pattern, idle slot) since the last refinement
    goes through `joint`, which gives the pattern's slot of each class,
    and refines the classes when the pattern splits one.  Each new class
    starts from a copy of its parent class's history, which is exact
    because the parent's robots were activated together in every earlier
    round.  In an adversary trace, and any trace with one pattern, the
    classes are that pattern's slots and no robot is looked at.  A class
    is active when its slot is not the round's idle one (the round's
    factors, not the pattern, decide which that is), so each new
    (pattern, idle slot) splits the classes' histories into active and
    idle once, until the next refinement.  Each round applies the random
    k-fair demon's rule (`_kfair_cutoff`) to the classes.  A suffix
    refuted there starts one round after a class idle past the cutoff was
    last activated, and an idle class's last activation only grows, so
    the least of them, plus one, is the minimal start.  The cost is O(m)
    int work per new (pattern, idle slot) between refinements and O(c) a
    round for c classes, instead of O(m^2*H).  An empty prefix refutes
    nothing: no-violation-up-to(0).
    """
    if k < 0:
        raise ValueError("fairness budget k must be >= 0")
    classes: _Slots | None = None
    recent: list[deque[int]] = []  # each class's history
    # per (pattern, idle slot) since the classes were last refined: the
    # pattern, held so no tuple takes its id, and the active and idle histories
    parts: dict[tuple[int, int], tuple[_Slots, list[deque[int]], list[deque[int]]]] = {}
    i = -1
    for i, action in enumerate(actions):
        pattern = action.slots
        key = id(pattern), action._idle_slot()
        part = parts.get(key)
        if part is None:
            if classes is None:  # the first pattern: its slots are the classes
                classes, recent = pattern, [_history(k) for _ in pattern.counts]
            pairs, joint = classes.joint(pattern)  # (its slot, parent class) per class
            if joint is not classes:
                recent = [recent[c].copy() for _, c in pairs]
                classes, parts = joint, {}
            idle_slot = key[1]
            part = parts[key] = (
                pattern,
                [t for t, (s, _) in zip(recent, pairs) if s != idle_slot],
                [t for t, (s, _) in zip(recent, pairs) if s == idle_slot],
            )
        _, active, idle = part
        cutoff = _kfair_cutoff(active, k, i)
        for t in idle:
            if t[-1] < cutoff:  # then so is the least last activation of the idle
                return Verdict.violated(min(u[-1] for u in idle) + 1)
        for t in active:
            t.append(i)
    return Verdict.no_violation_up_to(i + 1)

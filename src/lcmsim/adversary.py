"""The gathering-defeating scheduler construction and its certification.

Start the two piles at 0 and 1 and ask the robogram where it would move in
the canonical bivalent view (own pile at the origin, the other pile at 1,
n robots each).  Call that answer delta.

- delta = 1: the robogram walks onto the other pile.  Scheduling everyone at
  once ("swap" branch, fully synchronous) makes the piles trade places: the
  position after the round is the mirror of the one before, forever.
- delta != 1: activate one pile per round, left on even rounds, right on odd
  ("alternating" branch, 1-fair).  Each activated robot's frame is scaled so
  its view is again the canonical one, so the robogram keeps answering delta
  and the moved pile lands at u + delta*(v - u), which differs from the other
  pile exactly because delta != 1.

Either way every position stays bivalent and the piles never meet, so no
deterministic, permutation-invariant robogram can gather an even number of
oblivious robots against 1-fair schedulers.  `run_impossibility` executes the
construction and certifies the trace with the bounded checkers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .core import (
    Position,
    RobotUniverse,
    _Value,
    _grouped,
    format_scalar,
)
from .demons import Demon, DemonicAction, Verdict, check_kfair
from .execution import Trace, execute_prefix
from .properties import check_always_split, check_will_gather
from .robograms import SPECTRUM_BASED, Robogram, check_invariance, evaluate
from .sampling import random_permutation

__all__ = [
    "ALTERNATING",
    "SWAP_FSYNC",
    "FirstMoveProbe",
    "ImpossibilityReport",
    "build_adversary_demon",
    "canonical_view",
    "make_alternating_demon",
    "make_swap_fsync_demon",
    "probe_first_move",
    "run_impossibility",
]

SWAP_FSYNC = "swap-fsync"
ALTERNATING = "alternating"

INVARIANCE_PRECHECK_SAMPLES = 32

_ZERO, _ONE = Fraction(0), Fraction(1)


class FirstMoveProbe(_Value):
    """The robogram's answer in the canonical bivalent view, and the demon
    branch that answer selects."""

    __slots__ = ("delta",)

    def __init__(self, delta: Fraction) -> None:
        self._fill(delta)

    @property
    def branch(self) -> str:
        return SWAP_FSYNC if self.delta == 1 else ALTERNATING

    def to_json_dict(self) -> dict:
        return {"delta": format_scalar(self.delta), "branch": self.branch}


def canonical_view(universe: RobotUniverse) -> Position:
    """n robots on the observer's pile at 0 and n on the other pile at 1."""
    return Position.from_piles(universe, 0, 1)


def probe_first_move(robogram: Robogram, universe: RobotUniverse) -> FirstMoveProbe:
    return FirstMoveProbe(evaluate(robogram, canonical_view(universe)))


def _canonical_action(position: Position, active: tuple[bool, bool]) -> DemonicAction:
    """One round's action: robots of each pile that `active` flags, left
    then right, get the factor 1/(v - u) that shows the opposite pile
    (stacked at v) at 1 in their local view, every other robot gets 0.
    The factor falls back to 1 (an arbitrary nonzero factor) when the
    opposite pile is scattered or on top of the robot, keeping the demon
    total.

    Both piles' slots are read once, from the position's slot pattern
    (`_Slots.piles`), and each factor is computed once per (side, point
    slot) pair, in one loop over the pairs.  Which robots share a pair is
    a fact of the position's slot pattern and the universe's `sides`
    pattern, kept with the pattern (`_Slots.joint`), so while the piles
    stay stacked a round costs O(points), not O(robots).  Built like the
    position (`_grouped`), the action then keeps its slot tuple: both are
    `(0,)*n + (1,)*n`.  A factor is built from integers over lcm(ud, vd),
    for u = un/ud and v = vn/vd, and normalized once, as `core._image`
    builds an image, instead of a `Fraction` subtraction and a division.
    """
    universe, points, slots = position.universe, position.points, position.slots
    opposite = slots.piles[::-1]  # left pile, then right: the opposite pile's slot
    pairs, joint = slots.joint(universe.sides)
    factors = []
    for side, slot in pairs:
        v = opposite[side]  # points are distinct, so equal slots mean equal locations
        if not active[side]:
            factors.append(_ZERO)
        elif v is None or v == slot:
            factors.append(_ONE)
        else:
            un, ud = points[slot].as_integer_ratio()
            vn, vd = points[v].as_integer_ratio()
            g = gcd(ud, vd)
            factors.append(Fraction(ud * (vd // g), vn * (ud // g) - un * (vd // g)))
    return DemonicAction._table(universe, *_grouped(joint, factors, slots))


def make_swap_fsync_demon() -> Demon:
    """Every round activates every robot with the canonical-view factor."""
    return Demon(f"adversary-{SWAP_FSYNC}", lambda i, p: _canonical_action(p, (True, True)))


def make_alternating_demon() -> Demon:
    """Even rounds activate exactly the left pile, odd rounds exactly the
    right pile, activated robots getting the canonical-view factor."""
    turns = ((True, False), (False, True))
    return Demon(f"adversary-{ALTERNATING}", lambda i, p: _canonical_action(p, turns[i % 2]))


def build_adversary_demon(probe: FirstMoveProbe) -> Demon:
    """The branch that the robogram's first move, `probe`, calls for."""
    if probe.branch == SWAP_FSYNC:
        return make_swap_fsync_demon()
    return make_alternating_demon()


class ImpossibilityReport(_Value):
    """Everything a certification run produces: the probe, the bounded
    verdicts, the bivalence certificate over every position, and the result
    of the invariance pre-check (a robogram that leaks identities voids the
    certificate, so it is screened up front).  The run's robogram, pile size
    and horizon are read from its `trace`."""

    __slots__ = ("probe", "invariance_ok", "split", "gather", "fairness", "bivalence_failures",
                 "trace")

    def __init__(
        self, probe: FirstMoveProbe, invariance_ok: bool, split: Verdict, gather: Verdict,
        fairness: dict[int, Verdict], bivalence_failures: tuple[int, ...], trace: Trace,
    ) -> None:
        self._fill(probe, invariance_ok, split, gather, fairness, bivalence_failures, trace)

    @property
    def bivalence_complete(self) -> bool:
        return not self.bivalence_failures

    @property
    def certified(self) -> bool:
        return (
            self.split.ok
            and self.fairness[1].ok
            and self.invariance_ok
            and self.bivalence_complete
        )

    def to_json_dict(self) -> dict:
        return {
            "robogram": self.trace.robogram_name,
            "n": self.trace.universe.pile_size,
            "horizon": self.trace.horizon,
            "probe": self.probe.to_json_dict(),
            "invariance_ok": self.invariance_ok,
            "split": self.split.to_json_dict(),
            "gather": self.gather.to_json_dict(),
            "fairness": {str(k): v.to_json_dict() for k, v in sorted(self.fairness.items())},
            "bivalence": {
                "complete": self.bivalence_complete,
                "failures": list(self.bivalence_failures),
            },
            "certified": self.certified,
        }


def _balanced_bivalent(position: Position, n: int) -> bool:
    """Exactly two occupied points with n robots each."""
    return position.slots.counts == (n, n)


def run_impossibility(robogram: Robogram, n: int, horizon: int) -> ImpossibilityReport:
    """Execute the adversary against `robogram` from piles at 0 and 1 (the
    canonical view) and certify the resulting trace.  The invariance screen
    renames p0, which the probe saw unrenamed: under any renaming a spectrum
    robogram sees keys (0, 1) or (1, 0), so the pile swap decides it: the
    reversal of the places, L<i> <-> R<n-1-i>, a `range` that holds no int
    per robot.  No finite set of renamings decides a raw robogram; one that
    passes the swap is also screened with fixed samples."""
    universe = RobotUniverse(n)
    p0 = canonical_view(universe)
    probe = probe_first_move(robogram, universe)
    trace = execute_prefix(robogram, build_adversary_demon(probe), p0, horizon)

    invariance_ok = check_invariance(robogram, p0, range(2 * n - 1, -1, -1), probe.delta)
    if invariance_ok and robogram.kind != SPECTRUM_BASED:
        rng = random.Random(0)
        invariance_ok = all(
            check_invariance(robogram, p0, random_permutation(universe, rng), probe.delta)
            for _ in range(INVARIANCE_PRECHECK_SAMPLES)
        )

    actions = trace.actions()
    fairness = {k: check_kfair(actions, k) for k in (0, 1)}
    failures = tuple(  # a list comprehension: a generator would resume per position
        [i for i, p in enumerate(trace.positions()) if not _balanced_bivalent(p, n)]
    )
    return ImpossibilityReport(
        probe=probe,
        invariance_ok=invariance_ok,
        split=check_always_split(trace),
        gather=check_will_gather(trace),
        fairness=fairness,
        bivalence_failures=failures,
        trace=trace,
    )

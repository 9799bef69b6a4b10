"""Schedulers and the bounded fairness calculus.

A demon decides, round by round, who gets to move.  k-fairness bounds the
unfairness: between two consecutive activations of any robot, every other
robot is activated at most k times.  On a finite prefix that property can
only be refuted or survive, never proven, and the checkers say exactly that.
"""

from lcmsim import (
    Position,
    RobotUniverse,
    check_between,
    check_kfair,
    execute_prefix,
    make_random_kfair,
    make_round_robin,
    stay,
)

universe = RobotUniverse(1)
l0, r0 = universe.robots
p0 = Position.from_piles(universe, 0, 1)

# Round-robin wakes one robot at a time, left pile first.
robin = make_round_robin(universe, 1)
trace = execute_prefix(stay, robin, p0, 8)
print("round-robin activations:")
for rd in trace.rounds:
    print(f"  round {rd.index}: {list(rd.action.active_robots())}")

# Per-pair questions: was L0 activated before R0 used up the budget?
actions = trace.actions()
print("\nBetween L0 and R0:")
for k in (0, 1):
    print(f"  budget k={k}: {check_between(actions, l0, r0, k)}")
print("Between R0 and L0 (R0 waits through round 0):")
for k in (0, 1):
    print(f"  budget k={k}: {check_between(actions, r0, l0, k)}")

# Whole-demon fairness quantifies over every pair and every suffix.
print("\nround-robin fairness:")
for k in (0, 1, 2):
    print(f"  k={k}: {check_kfair(actions, k)}")

# The random k-fair demon activates arbitrary subsets but force-adds any
# robot whose waiting budget is exhausted, so its own bound always survives
# the checker.
print("\nrandom 2-fair demon, 200 rounds, universe of 6 robots:")
big = RobotUniverse(3)
demon = make_random_kfair(big, 2, 1, seed=42)
trace = execute_prefix(stay, demon, Position.from_piles(big, 0, 1), 200)
for k in (0, 1, 2, 3):
    print(f"  k={k}: {check_kfair(trace.actions(), k)}")
print("once the verdict is clean it stays clean for every larger k")

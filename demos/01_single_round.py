"""One round of Look-Compute-Move, up close.

Two piles of robots sit on the rational line.  The scheduler hands some of
them a frame factor; each activated robot observes the world through its own
frame (itself at the origin, everything scaled), runs its robogram on that
view, and the answer is carried back to the global frame.  Everything is an
exact fraction; nothing is ever rounded.
"""

from fractions import Fraction

from lcmsim import (
    DemonicAction,
    Position,
    RobotUniverse,
    Similarity,
    center_of_mass,
    evaluate,
    execute_prefix,
    format_scalar,
    make_fsync,
    round_step,
)

universe = RobotUniverse(2)  # L0, L1 on the left pile; R0, R1 on the right
p0 = Position.from_piles(universe, Fraction(1, 3), 2)

print("initial position:")
for robot, where in p0.items():
    print(f"  {robot} at {format_scalar(where)}")

# The demon activates L0 with factor 3 and R1 with factor 1/2; the others
# sit this round out (factor 0 means not activated).
l0, l1, r0, r1 = universe.robots
action = DemonicAction(universe, {l0: 3, l1: 0, r0: 0, r1: "1/2"})
print("\nframe factors:", {r: format_scalar(action.factor(r)) for r in universe.robots})

# What L0 actually sees: its own frame places it at the origin and stretches
# space by its factor.
frame = Similarity(action.factor(l0), p0[l0])
view = frame.map_position(p0)
print("\nL0's local view:")
for robot, where in view.items():
    print(f"  {robot} appears at {format_scalar(where)}")

answer = evaluate(center_of_mass, view)
print(f"center-of-mass answers {format_scalar(answer)} in L0's frame")
print(f"which is {format_scalar(frame.inverse().apply(answer))} in the global frame")

# round_step does the same for every activated robot at once.
p1 = round_step(center_of_mass, action, p0)
print("\nafter the round:")
for robot, where in p1.items():
    moved = "" if where == p0[robot] else "  (moved)"
    print(f"  {robot} at {format_scalar(where)}{moved}")

# Under a fully synchronous scheduler, center-of-mass gathers immediately:
# every robot computes the same global point.
fsync = make_fsync(universe)
trace = execute_prefix(center_of_mass, fsync, p0, 3)
print("\nfully synchronous run from the same start:")
for index, position in enumerate(trace.positions()):
    locations = sorted({format_scalar(x) for _, x in position.items()})
    print(f"  step {index}: occupied locations {locations}")

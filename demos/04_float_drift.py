"""Why the engine computes with exact rationals and not floats.

The alternating schedule against center-of-mass halves the pile distance
every activation: after r rounds the piles are exactly 2^-r apart, forever
positive, forever split.  The same recurrence in double precision runs out
of bits: once the distance drops below the spacing of doubles around the
piles, the moved pile lands exactly on the other one and the piles merge.
A simulator built on floats would "demonstrate" gathering here, which is
precisely the wrong answer.
"""

from fractions import Fraction

from lcmsim import resolve_robogram, run_impossibility, split

# Exact run: distance after round r is exactly 2^-r.
report = run_impossibility(resolve_robogram("center-of-mass"), 1, 300)
positions = report.trace.positions()
l0, r0 = report.trace.universe.robots
print("exact rational run (n=1, alternating schedule):")
for index in (1, 10, 53, 55, 100, 200, 300):
    d = abs(positions[index][l0] - positions[index][r0])
    assert d == Fraction(1, 2**index)
    print(f"  round {index:>3}: distance = 2^-{index}  (denominator has "
          f"{len(str(d.denominator))} digits), split={split(positions[index])}")

# Float mirror of the same recurrence: u moves to u + (v-u)/2 on even
# rounds, v moves on odd rounds.
u, v = 0.0, 1.0
collapse = None
history = {}
for r in range(1, 301):
    if r % 2 == 1:
        u = u + (v - u) * 0.5
    else:
        v = v + (u - v) * 0.5
    history[r] = abs(v - u)
    if u == v and collapse is None:
        collapse = r

print("\nthe same recurrence in double precision:")
for index in (1, 10, 50, 52, 53, 54, 55, 56):
    print(f"  round {index:>3}: distance = {history[index]!r}")
print(f"\nfloats collapse the piles at round {collapse}: the simulated robots")
print("gather, contradicting what the schedule actually guarantees.")
print(f"the exact engine still reports split={split(positions[300])} at round 300.")

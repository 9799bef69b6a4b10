"""The gathering-defeating scheduler, run against every built-in robogram.

The construction needs one number: delta, the robogram's answer when it sees
its own pile at 0 and the other pile at 1.  If delta is 1 the robots walk
onto each other's piles, so scheduling everyone at once just swaps the piles
forever.  For any other delta, activating one pile at a time with a frame
that recreates the canonical view makes the moved pile land beside the other
pile, never on it.  Both branches keep the position bivalent at every step,
so gathering never happens even though the schedule is 1-fair.
"""

import json
import tempfile
from pathlib import Path

from lcmsim import (
    Position,
    RobotUniverse,
    check_will_gather,
    execute_prefix,
    format_scalar,
    make_alternating_demon,
    make_swap_fsync_demon,
    probe_first_move,
    resolve_robogram,
    run_impossibility,
    write_trace_file,
)
from lcmsim.cli import main as lcmsim_cli

BUILTINS = ("stay", "center-of-mass", "to-other-occupied", "to-max", "to-min", "convex:1/3")

print("first-move probes (piles at 0 and 1, n=3):")
for name in BUILTINS:
    probe = probe_first_move(resolve_robogram(name), RobotUniverse(3))
    print(f"  {name:<18} delta={format_scalar(probe.delta):>5}  branch={probe.branch}")

print("\ncertification runs, horizon 300:")
for name in BUILTINS:
    report = run_impossibility(resolve_robogram(name), 3, 300)
    print(
        f"  {name:<18} split={report.split.kind:<19} gather={report.gather.kind:<18}"
        f" 1-fair={report.fairness[1].kind:<19} certified={report.certified}"
    )

# The branch choice is load-bearing.  Give a delta=1 robogram the gentle
# alternating schedule instead and it gathers in one move.
print("\nto-other-occupied under the wrong (alternating) schedule:")
universe = RobotUniverse(1)
wrong = execute_prefix(
    resolve_robogram("to-other-occupied"),
    make_alternating_demon(),
    Position.from_piles(universe, 0, 1),
    6,
)
print(f"  {check_will_gather(wrong)}")
print("and center-of-mass under the swap schedule meets in the middle:")
wrong2 = execute_prefix(
    resolve_robogram("center-of-mass"),
    make_swap_fsync_demon(),
    Position.from_piles(universe, 0, 1),
    6,
)
print(f"  {check_will_gather(wrong2)}")

# The same runs are available from the command line; the trace file a run
# leaves behind is independently re-checkable.
with tempfile.TemporaryDirectory() as tmp:
    trace_path = str(Path(tmp) / "adversary.jsonl")
    report = run_impossibility(resolve_robogram("center-of-mass"), 2, 100)
    write_trace_file(report.trace, trace_path)
    print("\nre-checking the written trace via the CLI:")
    print(json.dumps(report.to_json_dict()["probe"]))
    for prop in ("always-split", "will-gather", "kfair:1"):
        print(f"  lcmsim check trace.jsonl --property {prop}")
        code = lcmsim_cli(["check", trace_path, "--property", prop])
        print(f"  exit code {code}")

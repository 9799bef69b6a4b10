"""Record the benchmark's baseline: two sets of seeded runs and one traced run.

Run from the repository root:

    python3 bench/baseline.py --out bench/baseline.json

For every workload in BENCHMARK.json it makes RUNS plain runs of
`run_seconds` each, seeds 1 to RUNS, and one traced run with seed 1.  It
then makes a second set of the plain runs.  For each end-to-end metric and
set it records the median of the runs, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median.  Each spread is compared
with a third of the metric's bound, and the second set's median with the
first's, which may be worse by at most the bound.  The exit code is 1 if a
run fails, a spread other than set-up time's reaches a third of its bound,
or the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2
# run.py bounds each child it starts; this covers its own work around them.
RUN_GRACE_S = 600


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + RUN_GRACE_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs: list[dict], bounds: dict[str, float], label: str) -> tuple[dict, bool]:
    """Median, quartiles and spread of each end-to-end metric over one set."""
    out, steady = {}, True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread >= bound / 3:
            # The benchmark contract does not gate the spread of set-up time.
            flag = "  UNSTEADY (not gated)" if name == "setup_s" else "  UNSTEADY"
            steady &= name == "setup_s"
        out[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "unit": runs[0]["metrics"][name]["unit"], "values": values,
        }
        print(f"{label} {name:14s} median {median:.6g}  spread {spread:.4f}"
              f"  (bound/3 {bound / 3:.4f}){flag}", flush=True)
    return out, steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    summary: dict = {
        "host": f"{os.cpu_count()} CPUs, {platform.python_implementation()} {platform.python_version()}",
        "runs": RUNS,
        "seeds": list(range(1, RUNS + 1)),
        "traced_seed": 1,
        "seconds": seconds,
        "workloads": {w: {"sets": [], "failed": 0} for w in workloads},
    }
    ok = True
    for number in range(1, SETS + 1):
        for workload in workloads:
            entry = summary["workloads"][workload]
            runs = [one_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
            figures, steady = summarize(runs, bounds, f"set {number} {workload:17s}")
            ok &= steady
            entry["sets"].append(figures)
            entry["failed"] += sum(r["failed"] for r in runs)
            if number == 1:
                traced = one_run(workload, 1, seconds, 1)
                entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
                entry["failed"] += traced["failed"]
    for workload in workloads:
        entry = summary["workloads"][workload]
        entry["agreement"] = {}
        for name, bound in bounds.items():
            first, second = (s[name]["median"] for s in entry["sets"])
            change = second / first - 1
            worse = change if better[name] == "lower" else -change
            entry["agreement"][name] = change
            flag = "" if worse <= bound else "  DISAGREE"
            ok &= not flag
            print(f"agreement {workload:17s} {name:14s} second/first - 1 = {change:+.4f}"
                  f"  (bound {bound}){flag}", flush=True)
        ok &= entry["failed"] == 0
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

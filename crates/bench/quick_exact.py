"""Hold one `--quick --trace 0` run of the layered benchmark to quick_exact.json.

    benchmark --workload W --seed 42 --quick --trace 0 | python3 quick_exact.py W

Echoes the run, then compares the metrics in its final JSON line with the
values pinned for workload W. These three repeat to the last digit per seed,
so a difference is a behaviour change: a declared one regenerates
quick_exact.json in the same commit, anything else is a bug.
"""

import json
import math
import os
import sys

workload = sys.argv[1]
lines = sys.stdin.read().splitlines()
print("\n".join(lines))
got = json.loads(lines[-1])["metrics"]
with open(os.path.join(os.path.dirname(__file__), "quick_exact.json")) as pinned:
    want = json.load(pinned)["workloads"][workload]

# Bytes and counts divide exactly; imbalance_reduction passes through libm.
differs = [
    f"{name}: pinned {value!r}, this run {got[name]['value']!r}"
    for name, value in want.items()
    if not math.isclose(
        got[name]["value"],
        value,
        rel_tol=1e-12 if name == "imbalance_reduction" else 0.0,
        abs_tol=0.0,
    )
]
if differs:
    sys.exit(f"quick_exact: {workload} moved -- " + "; ".join(differs))

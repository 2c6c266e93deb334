"""Hold one `--quick` run of the layered benchmark to what must not move.

    benchmark --workload W --seed 42 --quick --trace 0 | python3 quick_exact.py W
    benchmark --workload W --seed 42 --quick --trace 1 | python3 quick_exact.py W

Echoes the run, then checks the metrics in its final JSON line. An untraced
run must match the values pinned for workload W in quick_exact.json. These
repeat to the last digit per seed, so a difference is a behaviour change: a
declared one regenerates quick_exact.json in the same commit, anything else
is a bug. A traced run prints only per-layer rows; it must report
`trace.signature_match` 1, i.e. the traced pump planned exactly what the
region driver planned, and match the per-layer values pinned for W under
"traced" (the WAL's `wal.bytes_per_event`, so a change to the persisted
bytes is declared like any other).
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
    pinned = json.load(pinned)

signature = got.get("trace.signature_match")
if signature is not None:
    differs = [] if signature["value"] == 1 else [f"trace.signature_match is {signature['value']!r}"]
    differs += [
        f"{name}: pinned {value!r}, this run {got[name]['value']!r}"
        for name, value in pinned["traced"].get(workload, {}).items()
        if got[name]["value"] != value
    ]
else:
    want = pinned["workloads"][workload]
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

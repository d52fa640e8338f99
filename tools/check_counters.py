#!/usr/bin/env python3
"""Gate a traced benchmark run on its deterministic work counters.

    python3 tools/check_counters.py bench/counters_bigladder-envelope.json

Run from the repository root. The expected file names a workload, a
seed and the exact counter values a traced run of it must report:

    {"workload": "...", "seed": 0, "counters": {"mna.fills": 84, ...}}

The script runs

    python3 perfbench/run.py --workload W --seed S --seconds 5 --trace 1

and reads the JSON result line that run prints last. It fails (exit 1)
when the run reports "correct": false, when a counter is missing, or
when any counter differs from its expected value; a failed benchmark
build or run exits 2. The counters are deterministic — the same on any
machine and at any worker count — so the comparison is exact.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_counters.py EXPECTED.json", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        expected = json.load(f)
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", expected["workload"],
        "--seed", str(expected["seed"]),
        "--seconds", "5",
        "--trace", "1",
    ]
    print("running: " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in run.stdout.splitlines() if l.startswith("{")]
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("check_counters: benchmark run failed", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    failures = []
    if result.get("correct") is not True:
        failures.append('the run reports "correct": %s' % json.dumps(result.get("correct")))
    metrics = result.get("metrics", {})
    for name, want in sorted(expected["counters"].items()):
        got = metrics.get(name, {}).get("value")
        status = "ok" if got == want else "DRIFT"
        print("%-32s expected %-12s got %-12s %s" % (name, want, got, status))
        if got is None:
            failures.append("%s missing from the result" % name)
        elif got != want:
            failures.append("%s: expected %s, got %s" % (name, want, got))
    for f in failures:
        print("check_counters: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

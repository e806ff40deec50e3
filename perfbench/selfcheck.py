"""Self-check of the benchmark at the small input size (about a minute).

    python3 perfbench/selfcheck.py

For every workload it makes one untraced and one traced run and confirms
that each result line names exactly the metrics ``BENCHMARK.json`` lists,
each with its unit and a finite value, and that every output passed its
checks.  It then runs with one output deliberately corrupted and confirms
that the run reports the failure (``failed`` > 0, ``correct`` false).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--size", "small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(wl, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{wl} trace {trace}: non-finite values {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{wl} trace {trace}: outputs failed their checks")
        corrupted = run(wl, 0, "--corrupt")
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{wl}: a corrupted output was not reported as failed")
        print(f"{wl}: checked ({corrupted['failed']}/{corrupted['attempted']} "
              "outputs failed with one corrupted)")
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

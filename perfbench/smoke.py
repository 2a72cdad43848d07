"""Smoke test of the benchmark itself: every workload once, on reduced inputs.

    python3 perfbench/smoke.py

Run from the root of a source checkout. For each workload it runs
`run.py --smoke` untraced on two seeds and traced twice on the first seed,
then checks that:

- each result line is correct and names exactly the metrics BENCHMARK.json
  lists (end_to_end untraced, per_layer traced), each with its unit;
- the traced and untraced runs of one seed report the same verdicts;
- the exact counts solver.nodes and matching.calls agree between the two
  traced runs.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = ("solver.nodes", "matching.calls")
SEEDS = (1, 2)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if "verdict digest" in line)
    return json.loads(lines[-1]), digest


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {(seed, 0): bench(workload, seed, 0) for seed in SEEDS}
        traced = [bench(workload, SEEDS[0], 1) for _ in range(2)]
        for (seed, trace), (result, _) in [*runs.items(), ((SEEDS[0], 1), traced[0])]:
            where = f"{workload} seed {seed} trace {trace}"
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics {units} differ from BENCHMARK.json")
        if traced[0][1] != runs[SEEDS[0], 0][1]:
            problems.append(f"{workload}: traced and untraced verdicts differ")
        for key in EXACT_COUNTS:
            values = [result["metrics"][key]["value"] for result, _ in traced]
            if values[0] != values[1]:
                problems.append(f"{workload}: exact count {key} differs between runs: {values}")
        print(f"{workload}: checked seeds {SEEDS} untraced and two traced runs", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of factorkit: one workload per run, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; factorkit is imported from its
`src/` directory. NAME is one of the workloads in workloads.py, or `all`,
which runs each of them in its own process. The run prints each metric with
its unit, then, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the run repeats passes over the workload's operation list
for S seconds; after each pass it sets the workload up afresh (`setup_s`)
and runs its CLI pipeline as subprocesses (`cli_pipeline_s`). Every time is
the best of its repeats: other tenants of a shared machine slow the process
by up to twofold for tens of seconds, and the best repeat is the least
disturbed one. `solve_s` is the sum of the operations' best latencies;
`op_p50_ms` and `op_tail_ms` are percentiles over them.
With `--trace 1` it spends half of S on untraced passes and half on traced
ones, and reports per-layer metrics from the traced passes (see README.md).

Exit code 0 on success; 1 when an answer is wrong or a pass disagrees with
another; 2 when factorkit's sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import tracing
import workloads
from workloads import DECIDED, FAILED, UNDECIDED, WrongAnswer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

PIPELINE_TIMEOUT_S = 120
MIN_PASSES = 3


class Nondeterminism(Exception):
    """Two passes over the same operations gave different answers or counts."""


def import_factorkit():
    """A fresh import of factorkit from the checkout's sources."""
    for name in [m for m in sys.modules if m == "factorkit" or m.startswith("factorkit.")]:
        del sys.modules[name]
    fk = importlib.import_module("factorkit")
    for sub in ("cli", "generators", "io"):
        importlib.import_module("factorkit." + sub)
    if not os.path.abspath(fk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"factorkit was imported from {fk.__file__}, not from {SRC}")
    return fk


def set_up(workload, seed: int, workdir: str, smoke: bool):
    started = time.perf_counter()
    fk = import_factorkit()
    inputs = workload.build(fk, seed, workdir, smoke)
    return fk, inputs, time.perf_counter() - started


class Pass:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.outcomes: list[tuple[str, str, str]] = []
        self.nodes = 0


def run_pass(ops, tracer=None) -> Pass:
    """Time each operation, then check its answer outside the timed region."""
    result_pass = Pass()
    for index, op in enumerate(ops):
        started = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception:  # an operation that raises counts as failed
            result_pass.latencies.append(time.perf_counter() - started)
            traceback.print_exc()
            result_pass.outcomes.append((op.label, FAILED, "exception"))
            continue
        result_pass.latencies.append(time.perf_counter() - started)
        status, verdict, nodes = op.check(result)
        result_pass.outcomes.append((op.label, status, verdict))
        result_pass.nodes += nodes
    return result_pass


def run_passes(ops, seconds: float, min_passes: int, tracer=None, on_pass=None) -> list[Pass]:
    passes: list[Pass] = []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.spans, tracer.counts = [], defaultdict(float)
        passes.append(run_pass(ops, tracer))
        if on_pass is not None:
            on_pass()
        first, last = passes[0], passes[-1]
        if last.outcomes != first.outcomes or last.nodes != first.nodes:
            raise Nondeterminism(
                f"pass {len(passes)} differs from pass 1: nodes {last.nodes} vs {first.nodes}"
            )
    return passes


def run_pipeline(pipeline, workdir: str) -> tuple[float, str, bool]:
    """Run the stages as one shell-style pipeline; returns (wall seconds,
    last stage's stdout, whether every exit code was the expected one)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    procs: list[subprocess.Popen] = []
    started = time.perf_counter()
    try:
        stdin = subprocess.DEVNULL
        for stage in pipeline.stages:
            proc = subprocess.Popen(
                [sys.executable, "-m", "factorkit", *stage],
                stdin=stdin, stdout=subprocess.PIPE, cwd=workdir, env=env,
            )
            if procs:
                procs[-1].stdout.close()  # the next stage owns the read end now
            procs.append(proc)
            stdin = proc.stdout
        out, _ = procs[-1].communicate(timeout=PIPELINE_TIMEOUT_S)
        for proc in procs[:-1]:
            proc.wait(timeout=PIPELINE_TIMEOUT_S)
        elapsed = time.perf_counter() - started
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    text = out.decode("ascii")
    codes_ok = all(p.returncode == 0 for p in procs[:-1])
    codes_ok = codes_ok and procs[-1].returncode == pipeline.expected_code(text)
    return elapsed, text, codes_ok


def best_latencies(passes: list[Pass]) -> list[float]:
    """Per operation, its lowest latency over the passes."""
    return [min(column) for column in zip(*(p.latencies for p in passes))]


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Value at the percentile (nearest-rank method) and the number of
    samples above it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def src_lines() -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(SRC, "factorkit")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def count_outcomes(passes: list[Pass]) -> dict[str, int]:
    counts = {DECIDED: 0, UNDECIDED: 0, FAILED: 0}
    for p in passes:
        for _, status, _ in p.outcomes:
            counts[status] += 1
    return counts


def measure(name: str, seed: int, seconds: float, smoke: bool, workdir: str):
    workload = workloads.WORKLOADS[name]
    fk, inputs, setup_s = set_up(workload, seed, workdir, smoke)
    setup_times = [setup_s]
    oracle = workload.oracle(fk, inputs)
    ops = workload.operations(fk, inputs, oracle)
    random.Random(seed).shuffle(ops)
    pipeline = workload.pipeline(fk, inputs, oracle, workdir)
    pipeline_times, pipeline_ok = [], 0

    def after_pass() -> None:
        # One set-up and one pipeline run after each pass, so that set-ups,
        # pipelines and passes meet the same fast and slow spells of a shared
        # machine. The operations keep the inputs of the first set-up.
        nonlocal pipeline_ok
        setup_times.append(set_up(workload, seed, workdir, smoke)[2])
        elapsed, _, codes_ok = run_pipeline(pipeline, workdir)
        pipeline_times.append(elapsed)
        pipeline_ok += codes_ok

    passes = run_passes(ops, seconds, MIN_PASSES, on_pass=after_pass)
    counts = count_outcomes(passes)
    decided = sum(status == DECIDED for _, status, _ in passes[0].outcomes)
    pipeline_decided = pipeline_ok == len(pipeline_times)
    latencies = sorted(best_latencies(passes))
    tail, beyond = nearest_rank(latencies, workload.tail_percentile)
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "solve_s": (sum(latencies), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "decided_ratio": ((decided + pipeline_decided) / (len(ops) + 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_pipeline_s": (min(pipeline_times), "s"),
    }
    notes = [
        f"{len(passes)} passes of {len(ops)} operations, {len(setup_times)} set-ups, "
        f"{len(pipeline_times)} pipeline runs",
        f"op_tail_ms is p{workload.tail_percentile:g} of {len(latencies)} operations' best "
        f"latencies, {beyond} beyond it",
        f"operation runs: {counts[DECIDED]} decided, {counts[UNDECIDED]} inconclusive under "
        f"their own budget, {counts[FAILED]} failed",
        "cli_pipeline_s: " + " | ".join("factorkit " + " ".join(s) for s in pipeline.stages),
        f"exact count: solver nodes per pass {passes[0].nodes}",
    ]
    attempted = sum(counts.values()) + len(pipeline_times)
    failed = counts[FAILED] + len(pipeline_times) - pipeline_ok
    return metrics, attempted, failed, notes, passes


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    own = tracing.self_times(spans)
    matching_calls = counts["matching.calls"]
    solver_time = tracing.outermost_time(spans, "solver")
    return {
        "matching.busy_s": own["matching"],
        "matching.calls": int(matching_calls),
        "matching.vertices": int(counts["matching.vertices"]),
        "matching.arcs": int(counts["matching.arcs"]),
        "matching.perfect_ratio": counts["matching.perfect"] / matching_calls if matching_calls else 0.0,
        "solver.self_s": own["solver"],
        "solver.decide_calls": int(counts["solver.decide_calls"]),
        "solver.nodes": int(counts["solver.nodes"]),
        "solver.nodes_per_s": counts["solver.nodes"] / solver_time if solver_time else 0.0,
        "graph.induced_s": own["graph.induced"],
        "graph.induced_calls": int(counts["graph.induced.calls"]),
        "graph.articulation_s": own["graph.articulation"],
        "graph.articulation_calls": int(counts["graph.articulation.calls"]),
        "graph.components_s": own["graph.components"],
        "graph.edge_connectivity_s": own["graph.edge_connectivity"],
        "graph.edge_connectivity_calls": int(counts["graph.edge_connectivity.calls"]),
        "graph.construct_s": own["graph.construct"],
        "graph.construct_calls": int(counts["graph.construct.calls"]),
        "io.decode_s": own["io.decode"],
        "io.encode_s": own["io.encode"],
        "cli.self_s": own["cli"],
        "constructions.build_s": own["constructions"],
        "theorems.certificate_s": own["theorems.certificate"],
        "theorems.gallai_s": own["theorems.gallai"],
    }


EXACT_COUNTS = ("solver.nodes", "matching.calls")


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_traced(name: str, seed: int, seconds: float, smoke: bool, workdir: str):
    """Per-layer metrics: each is the median over traced passes of one traced
    set-up plus one pass."""
    workload = workloads.WORKLOADS[name]
    fk, inputs, _ = set_up(workload, seed, workdir, smoke)
    oracle = workload.oracle(fk, inputs)
    ops = workload.operations(fk, inputs, oracle)
    random.Random(seed).shuffle(ops)
    plain = run_passes(ops, seconds / 2, 1)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.run_op(-1, lambda: workload.build(fk, seed, workdir, smoke))
    setup_spans, setup_counts = tracer.spans, tracer.counts
    per_pass: list[dict[str, float]] = []
    last_spans: list[list] = []

    def on_pass() -> None:
        nonlocal last_spans
        counts = defaultdict(float, setup_counts)
        for key, value in tracer.counts.items():
            counts[key] += value
        offset = len(setup_spans)
        last_spans = setup_spans + [
            [n, s, e, p + offset if p >= 0 else p, o] for n, s, e, p, o in tracer.spans
        ]
        per_pass.append(layer_metrics(last_spans, counts))

    traced = run_passes(ops, seconds / 2, 2, tracer, on_pass)
    if traced[0].outcomes != plain[0].outcomes:
        raise Nondeterminism("traced and untraced passes gave different answers")
    for key in EXACT_COUNTS:
        if len({m[key] for m in per_pass}) != 1:
            raise Nondeterminism(f"exact count {key} differs between traced passes")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    tracing.write_spans(spans_path, last_spans)

    metrics = {
        key: (statistics.median(m[key] for m in per_pass), unit_of(key)) for key in per_pass[0]
    }
    for key in per_pass[0]:
        if unit_of(key) == "count":
            metrics[key] = (per_pass[0][key], "count")
    metrics["trace.overhead_ratio"] = (
        sum(best_latencies(traced)) / sum(best_latencies(plain)), "ratio"
    )
    metrics["src_lines"] = (src_lines(), "count")
    counts = count_outcomes(plain + traced)
    notes = [
        f"{len(plain)} untraced and {len(traced)} traced passes of {len(ops)} operations",
        f"spans of the traced set-up and last traced pass: {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, sum(counts.values()), counts[FAILED], notes, traced


def verdict_digest(passes: list[Pass]) -> str:
    text = "\n".join(f"{label}\t{verdict}" for label, _, verdict in sorted(passes[0].outcomes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced operation lists, few repeats")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "factorkit", "__init__.py")):
        print(f"error: no factorkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, attempted, failed, notes, passes = measure_fn(
            args.workload, args.seed, args.seconds, args.smoke, workdir
        )
    except (WrongAnswer, Nondeterminism) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print("  " + note)
    print(f"  verdict digest {verdict_digest(passes)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<30} {value:<14.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

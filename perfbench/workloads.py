"""The benchmark's four workloads: their inputs, operations and answer checks.

Each workload's `build(fk, seed, workdir, smoke)` makes the inputs from the
seed alone (timed as set-up), `oracle(fk, inputs)` computes the reference
answers used by the checks (not timed), and `operations(fk, inputs, oracle)`
returns the operation list of one pass. Every operation's `check` runs
outside the timed region and returns (status, verdict, nodes):

- status DECIDED: a conclusive answer that the check confirmed;
- status UNDECIDED: an `inconclusive` verdict under the operation's own
  small node budget, which is the expected outcome of a budgeted probe;
- status FAILED: an `inconclusive` verdict without such a budget, or a wrong
  CLI exit code.

A wrong answer raises WrongAnswer, which aborts the run. `nodes` is the
decision's `nodes_explored`, summed per pass as an exact count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"


class WrongAnswer(Exception):
    """factorkit returned an answer that the benchmark's checks refute."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str, int]]


@dataclass
class Pipeline:
    """A CLI pipeline run as subprocesses: each stage is a factorkit argv,
    stdout of one stage feeding stdin of the next."""

    stages: list[list[str]]
    expected_code: Callable[[str], int]  # raises WrongAnswer on a wrong output


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def _write_graph6(fk, path: str, graphs) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(fk.io.write_graph(g, "graph6") for g in graphs))


def _check_factor(fk, g, decision, spec, label: str) -> tuple[str, str, int]:
    """Status of an `exists` or `inconclusive` decision; a negative must be
    checked by the caller first."""
    if decision.verdict == "inconclusive":
        return FAILED, decision.verdict, decision.nodes_explored
    _require(decision.verdict == "exists", f"{label}: unexpected verdict {decision.verdict}")
    try:
        valid = fk.verify_factor(g, decision.certificate, spec)
    except ValueError as exc:
        raise WrongAnswer(f"{label}: certificate is not a subgraph: {exc}") from exc
    _require(valid, f"{label}: certificate has a degree outside {spec.allowed}")
    return DECIDED, decision.verdict, decision.nodes_explored


def _degrees(n: int, edges) -> list[int]:
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


# ---------------------------------------------------------------------------
# families: the paper's G1/G2 instances


def build_families(fk, seed: int, workdir: str, smoke: bool):
    g1_degrees, g2_degrees = ((6, 10), (8,)) if smoke else ((6, 10, 14, 18), (8, 12))
    return {"members": [fk.build_g1(r) for r in g1_degrees] + [fk.build_g2(r) for r in g2_degrees]}


def _certificate_concludes(fk, g, hubs, spec) -> bool:
    cert = fk.hub_parity_analysis(g, hubs, spec)
    return cert is not None and cert.conclusion and fk.check_certificate(g, cert)


def operations_families(fk, inputs, oracle) -> list[Op]:
    ops = []
    for member in inputs["members"]:
        g, r, name = member.graph, member.r, f"{member.family}(r={member.r})"
        for k in range(1, r // 2 + 1, 2):
            spec = fk.FactorSpec.complementary(k, r)
            label = f"{name} decide {{{k},{r - k}}}"

            def check_decide(d, g=g, spec=spec, hubs=member.hubs, label=label):
                if d.verdict == "not-exists":
                    _require(
                        _certificate_concludes(fk, g, hubs, spec),
                        f"{label}: negative answer without a hub-parity certificate",
                    )
                    return DECIDED, d.verdict, d.nodes_explored
                return _check_factor(fk, g, d, spec, label)

            ops.append(Op(label, lambda g=g, spec=spec: fk.h_factor_decide(g, spec), check_decide))
            if fk.classify_case(r, k).value == member.family.lower():

                def certify(g=g, hubs=member.hubs, spec=spec):
                    cert = fk.hub_parity_analysis(g, hubs, spec)
                    return cert, fk.check_certificate(g, cert)

                def check_cert(result, label=label):
                    cert, valid = result
                    _require(cert.conclusion and valid, f"{label}: certificate does not conclude")
                    return DECIDED, "certified", 0

                ops.append(Op(f"{name} certificate {{{k},{r - k}}}", certify, check_cert))
        if member.family == "G1":

            def check_thm2(holds, label=f"{name} theorem 2"):
                _require(holds is True, f"{label}: theorem 2 reported violated")
                return DECIDED, "holds", 0

            ops.append(Op(f"{name} theorem 2", lambda g=g: fk.verify_theorem2(g), check_thm2))
    return ops


def pipeline_families(fk, inputs, oracle, workdir: str) -> Pipeline:
    def expected_code(out: str) -> int:
        verdict = json.loads(out)["result"]["decision"]["verdict"]
        _require(verdict == "not-exists", f"pipeline: G1(r=14) verdict {verdict}")
        return 1

    return Pipeline(
        [["gen", "g1", "--r", "14"], ["factor", "check", "--kr", "1", "--json"]], expected_code
    )


# ---------------------------------------------------------------------------
# biconnected: two hubs, eight odd components, no cut vertex

TWO_HUB_COMPONENTS = 8
PROBE_TRIANGLES = 8
PROBE_BUDGET = 1000


def two_hub(triangles: int):
    """Hubs u, v and eight odd components: `triangles` triangles, each with
    one corner joined to u and another to v, and single vertices joined to
    both hubs. The hubs take the two highest ids. Returns (n, edges, (u, v))."""
    edges, attach, n = [], [], 0
    for c in range(TWO_HUB_COMPONENTS):
        if c < triangles:
            edges += [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
            attach += [(0, n), (1, n + 1)]
            n += 3
        else:
            attach += [(0, n), (1, n)]
            n += 1
    hubs = (n, n + 1)
    edges += [(hubs[h], w) for h, w in attach]
    return n + 2, edges, hubs


def _odd_components_beyond_hubs(n: int, edges, hubs, spec) -> bool:
    """The benchmark's own proof that no factor exists: every component of
    G - hubs has odd order, so with only odd degrees allowed each sends an
    odd number (at least one) of factor edges to the hubs, and there are
    more such components than the hubs can take."""
    if any(a % 2 == 0 for a in spec.allowed):
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    for h in hubs:
        seen[h] = True
    odd = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        size, queue = 0, deque([start])
        while queue:
            x = queue.popleft()
            size += 1
            for w in adj[x]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if size % 2 == 0:
            return False
        odd += 1
    return odd > len(hubs) * max(spec.allowed)


# The instances are fixed: the matching time of one instance varies by up to
# twofold between vertex labelings, so seeded labels would make the time
# depend on the seed more than on the code. The seed orders the operations.
def build_biconnected(fk, seed: int, workdir: str, smoke: bool):
    instances = []
    for triangles in ((2, 3) if smoke else (2, 3, 4, 5)) + (PROBE_TRIANGLES,):
        n, edges, hubs = two_hub(triangles)
        instances.append((triangles, fk.from_edges(n, edges), hubs))
    _write_graph6(fk, os.path.join(workdir, "two_hub_3.g6"), [instances[1][1]])
    return {
        "instances": instances,
        "spec": fk.FactorSpec.of(1, 3),
        "probe_budget": PROBE_BUDGET // 10 if smoke else PROBE_BUDGET,
    }


def operations_biconnected(fk, inputs, oracle) -> list[Op]:
    spec = inputs["spec"]
    ops = []
    for triangles, g, hubs in inputs["instances"]:
        probe = triangles == PROBE_TRIANGLES
        label = f"two_hub({triangles} triangles) {{1,3}}" + (" budgeted" if probe else "")

        def check(d, g=g, hubs=hubs, probe=probe, label=label):
            _require(d.verdict != "exists", f"{label}: factor reported where none exists")
            if d.verdict == "inconclusive":
                return (UNDECIDED if probe else FAILED), d.verdict, d.nodes_explored
            _require(
                _odd_components_beyond_hubs(g.n, g.edges, hubs, spec),
                f"{label}: odd-component count does not confirm the negative",
            )
            return DECIDED, d.verdict, d.nodes_explored

        if probe:
            run = lambda g=g: fk.h_factor_decide(g, spec, budget=inputs["probe_budget"])
        else:
            run = lambda g=g: fk.h_factor_decide(g, spec)
        ops.append(Op(label, run, check))
    return ops


def pipeline_biconnected(fk, inputs, oracle, workdir: str) -> Pipeline:
    path = "two_hub_3.g6"  # the pipeline runs in workdir

    def expected_code(out: str) -> int:
        verdict = json.loads(out)["result"]["decision"]["verdict"]
        _require(verdict == "not-exists", f"pipeline: two_hub(3 triangles) verdict {verdict}")
        return 1

    return Pipeline([["factor", "check", "--spec", "1,3", "--in", path, "--json"]], expected_code)


# ---------------------------------------------------------------------------
# census: many tiny CLI queries on random small graphs

CENSUS_SPECS = ("1", "2", "1,2", "1,3", "0,2")
CENSUS_GRAPHS = 480
CENSUS_BATCH = 4
CENSUS_MAX_EDGES = 16


def build_census(fk, seed: int, workdir: str, smoke: bool):
    rng = random.Random(seed)
    graphs = []
    for _ in range(12 if smoke else CENSUS_GRAPHS):
        n = rng.randint(5, 9)
        m = rng.randint(n - 1, min(CENSUS_MAX_EDGES, n * (n - 1) // 2))
        graphs.append(fk.generators.random_graph(n, m, rng))
    batches = []
    for i in range(0, len(graphs), CENSUS_BATCH):
        path = os.path.join(workdir, f"census_{i // CENSUS_BATCH:03d}.g6")
        _write_graph6(fk, path, graphs[i:i + CENSUS_BATCH])
        batches.append((path, graphs[i:i + CENSUS_BATCH]))
    return {"batches": batches}


def oracle_census(fk, inputs):
    """Brute-force existence per (graph, spec); not timed."""
    answers = {}
    for _, graphs in inputs["batches"]:
        for g in graphs:
            for text in CENSUS_SPECS:
                spec = fk.FactorSpec(tuple(int(a) for a in text.split(",")))
                answers[id(g), text] = fk.brute_force_h_factor(g, spec).exists
    return answers


def _check_census_output(fk, graphs, text, code, out, oracle, label) -> tuple[str, str, int]:
    spec = fk.FactorSpec(tuple(int(a) for a in text.split(",")))
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    _require(len(reports) == len(graphs), f"{label}: {len(reports)} reports for {len(graphs)} graphs")
    verdicts, nodes, expected_code, status = [], 0, 0, DECIDED
    for g, report in zip(graphs, reports):
        decision = report["result"]["decision"]
        verdict = decision["verdict"]
        verdicts.append(verdict)
        nodes += decision["nodes_explored"]
        exists = oracle[id(g), text]
        expected_code = max(expected_code, 0 if exists else 1)
        if verdict == "inconclusive":
            status = FAILED
            continue
        _require((verdict == "exists") == exists, f"{label}: verdict {verdict} disagrees with brute force")
        if exists:
            certificate = [tuple(e) for e in decision["certificate"]]
            _require(fk.verify_factor(g, certificate, spec), f"{label}: invalid certificate")
    if code != (3 if status == FAILED else expected_code):
        status = FAILED
    return status, f"{','.join(verdicts)} exit {code}", nodes


def operations_census(fk, inputs, oracle) -> list[Op]:
    ops = []
    for path, graphs in inputs["batches"]:
        for text in CENSUS_SPECS:
            argv = ["factor", "find", "--spec", text, "--in", path, "--json"]
            label = f"{os.path.basename(path)} find {{{text}}}"

            def run(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = fk.cli.run(argv)
                return code, out.getvalue()

            def check(result, graphs=graphs, text=text, label=label):
                return _check_census_output(fk, graphs, text, *result, oracle, label)

            ops.append(Op(label, run, check))
    return ops


def pipeline_census(fk, inputs, oracle, workdir: str) -> Pipeline:
    path, graphs = inputs["batches"][0]

    def expected_code(out: str) -> int:
        _check_census_output(fk, graphs, "1,3", 0, out, oracle, "pipeline")
        return max(0 if oracle[id(g), "1,3"] else 1 for g in graphs)

    argv = ["factor", "find", "--spec", "1,3", "--in", os.path.basename(path), "--json"]
    return Pipeline([argv], expected_code)  # the pipeline runs in workdir


# ---------------------------------------------------------------------------
# regular_large: big circulants, a few huge matchings

# Fixed offset sets: matching time varies up to twofold between offset sets
# of one (n, r), so drawing them from the seed would make the workload's time
# depend on the seed more than on the code. The seed orders the operations.
CIRCULANTS = (
    (120, (1, 11, 37)),
    (200, (1, 9, 43, 77)),
    (300, (1, 13, 47, 89, 121)),
)


def build_regular_large(fk, seed: int, workdir: str, smoke: bool):
    graphs = [fk.generators.circulant_graph(n, offsets) for n, offsets in CIRCULANTS[: 1 if smoke else 3]]
    _write_graph6(fk, os.path.join(workdir, "circulant_120.g6"), graphs[:1])
    return {"graphs": graphs}


def _check_two_factors(g, factors, label):
    _require(len(factors) == g.degree(0) // 2, f"{label}: {len(factors)} factors")
    union = set()
    for factor in factors:
        _require(all(d == 2 for d in _degrees(g.n, factor)), f"{label}: a factor is not 2-regular")
        _require(not union & set(factor), f"{label}: factors overlap")
        union |= set(factor)
    _require(union == set(g.edges), f"{label}: factors do not cover every edge")
    return DECIDED, "decomposed", 0


def operations_regular_large(fk, inputs, oracle) -> list[Op]:
    ops = []
    for g in inputs["graphs"]:
        r = g.degree(0)
        name = f"circulant(n={g.n}, r={r})"
        for spec in (fk.FactorSpec.of(r // 2), fk.FactorSpec.of(1, r - 1)):
            # Both factors exist: a {r/2}-factor by Petersen's 2-factor
            # theorem (r/2 even) or the Gallai bound (r/2 odd, even order),
            # a {1}-factor because connected vertex-transitive graphs of even
            # order have perfect matchings.
            label = f"{name} decide {set(spec.allowed)}"
            ops.append(Op(
                label,
                lambda g=g, spec=spec: fk.h_factor_decide(g, spec),
                lambda d, g=g, spec=spec, label=label: _check_factor(fk, g, d, spec, label),
            ))
        ops.append(Op(
            f"{name} decompose_two_factors",
            lambda g=g: fk.decompose_two_factors(g),
            lambda f, g=g, label=f"{name} 2-factors": _check_two_factors(g, f, label),
        ))
        k = 2 * (r // 4)

        def check_even(edges, g=g, k=k, label=f"{name} even_k_factor({k})"):
            _require(set(edges) <= set(g.edges), f"{label}: edge outside the graph")
            _require(all(d == k for d in _degrees(g.n, edges)), f"{label}: not {k}-regular")
            return DECIDED, "factor", 0

        ops.append(Op(f"{name} even_k_factor({k})", lambda g=g, k=k: fk.even_k_factor(g, k), check_even))
        k = r // 2 if (r // 2) % 2 else r // 2 - 1

        def check_gallai(report, g=g, r=r, label=f"{name} gallai_check({k})"):
            # Mader: a connected vertex-transitive graph is r-edge-connected.
            _require(report.r == r and report.m == r, f"{label}: r={report.r}, m={report.m}")
            _require(report.applicable, f"{label}: not applicable ({report.reason})")
            return DECIDED, "applicable", 0

        ops.append(Op(f"{name} gallai_check({k})", lambda g=g, k=k: fk.gallai_check(g, k), check_gallai))
    return ops


def pipeline_regular_large(fk, inputs, oracle, workdir: str) -> Pipeline:
    path = "circulant_120.g6"  # the pipeline runs in workdir

    def expected_code(out: str) -> int:
        result = json.loads(out)["result"]
        _require(result["report"]["applicable"], "pipeline: Gallai bound not applicable")
        _require(result["factor_exists"] is True, "pipeline: no 3-factor under the Gallai bound")
        return 0

    return Pipeline([["verify", "gallai", "--k", "3", "--in", path, "--json"]], expected_code)


def _no_oracle(fk, inputs):
    return None


@dataclass(frozen=True)
class Workload:
    build: Callable
    oracle: Callable
    operations: Callable
    pipeline: Callable
    tail_percentile: float


# tail_percentile: the highest percentile with at least ten of the workload's
# operations beyond it; the maximum where it has too few operations for that.
WORKLOADS = {
    "families": Workload(build_families, _no_oracle, operations_families, pipeline_families, 70.0),
    "biconnected": Workload(build_biconnected, _no_oracle, operations_biconnected, pipeline_biconnected, 100.0),
    "census": Workload(build_census, oracle_census, operations_census, pipeline_census, 98.0),
    "regular_large": Workload(build_regular_large, _no_oracle, operations_regular_large, pipeline_regular_large, 100.0),
}

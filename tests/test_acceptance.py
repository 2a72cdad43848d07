"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with `pytest -v -s tests/test_acceptance.py`)."""

import random
import time

from factorkit.constructions import build_g1, build_g2
from factorkit.generators import circulant_graph, random_graph
from factorkit.graph import is_connected, regularity
from factorkit.io import decode_graph6, encode_graph6
from factorkit.solver import (
    FactorSpec,
    brute_force_h_factor,
    decompose_two_factors,
    even_k_factor,
    h_factor_decide,
    verify_factor,
)
from factorkit.theorems import check_certificate, gallai_check, hub_parity_analysis, verify_theorem2
from factorkit.cli import run

from oracles import all_connected_graphs, complete_bipartite_graph, complete_graph, random_regular_graph


def _passed(criterion: str, detail: str, started: float) -> None:
    print(f"[criterion {criterion}] PASS {detail} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_construction_fidelity():
    started = time.perf_counter()
    g1 = build_g1(6).graph
    assert g1.n == 22
    assert regularity(g1) == 6
    assert is_connected(g1)
    g2 = build_g2(8).graph
    assert g2.n == 74
    assert regularity(g2) == 8
    assert is_connected(g2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed("1", "G1(6): n=22 6-regular connected; G2(8): n=74 8-regular connected", started)


def test_criterion_2_g1_parity_certificates():
    started = time.perf_counter()
    for r, k in [(6, 1), (10, 1), (10, 3)]:
        t0 = time.perf_counter()
        out = build_g1(r)
        cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.complementary(k, r))
        assert cert is not None
        assert cert.achievable_hub_degrees == ((r // 2,),), (r, k)
        assert cert.conclusion, (r, k)
        assert check_certificate(out.graph, cert)
        assert time.perf_counter() - t0 < 1.0
    _passed("2", "G1(r) hub degree pinned to {r/2} for (6,1),(10,1),(10,3)", started)


def test_criterion_3_g2_parity_certificates():
    started = time.perf_counter()
    for r, k in [(8, 1), (12, 1), (12, 3)]:
        t0 = time.perf_counter()
        out = build_g2(r)
        cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.complementary(k, r))
        assert cert is not None
        half = r // 2
        assert cert.achievable_hub_degrees[0] == (half - 1, half, half + 1), (r, k)
        assert cert.conclusion, (r, k)
        assert check_certificate(out.graph, cert)
        assert time.perf_counter() - t0 < 1.0
    _passed("3", "G2(r) hub degree pinned to {r/2-1, r/2, r/2+1} for (8,1),(12,1),(12,3)", started)


def test_criterion_4_exhaustive_search_confirms_g1():
    started = time.perf_counter()
    g1 = build_g1(6).graph
    decision = h_factor_decide(g1, FactorSpec.of(1, 5))
    elapsed = time.perf_counter() - started
    assert decision.verdict == "not-exists"
    assert decision.method == "exhausted-assignments"
    assert elapsed < 600.0
    _passed(
        "4",
        f"h_factor_decide(G1(6), {{1,5}}) = not-exists after {decision.nodes_explored} nodes",
        started,
    )


def test_criterion_5_theorem2_both_directions():
    started = time.perf_counter()
    assert verify_theorem2(complete_graph(7))
    assert verify_theorem2(circulant_graph(8, (1, 2, 3)))
    g1 = build_g1(6).graph
    decision = h_factor_decide(g1, FactorSpec.of(3))
    assert decision.exists
    assert verify_factor(g1, decision.certificate, FactorSpec.of(3))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed("5", "K7 (odd, no 3-factor), C8(1,2,3) and G1(6) (even, certificates)", started)


def test_criterion_6_two_factorization():
    started = time.perf_counter()
    rng = random.Random(1891)
    successes = 0
    for _ in range(50):
        n = rng.randint(8, 14)
        g = random_regular_graph(n, 4, rng)
        cert = even_k_factor(g, 2)
        assert verify_factor(g, cert, FactorSpec.of(2))
        factors = decompose_two_factors(g)
        assert len(factors) == 2
        assert set(factors[0]).isdisjoint(factors[1])
        assert set(factors[0]) | set(factors[1]) == set(g.edges)
        for f in factors:
            assert verify_factor(g, f, FactorSpec.of(2))
        successes += 1
    elapsed = time.perf_counter() - started
    assert successes == 50
    assert elapsed < 60.0
    _passed("6", "50/50 random connected 4-regular graphs 2-factorized", started)


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    specs = [FactorSpec.of(1), FactorSpec.of(2), FactorSpec.of(1, 3), FactorSpec.of(1, 2)]
    corpus = list(all_connected_graphs(5))  # every labeled connected graph, n <= 5
    rng = random.Random(271828)
    added = 0
    while added < 60:  # connected 6..8-vertex samples, <= 14 edges
        n = rng.randint(6, 8)
        g = random_graph(n, rng.randint(n - 1, min(14, n * (n - 1) // 2)), rng)
        if is_connected(g):
            corpus.append(g)
            added += 1
    random_corpus = []
    while len(random_corpus) < 200:  # any-shape graphs, <= 10 vertices
        n = rng.randint(1, 10)
        random_corpus.append(random_graph(n, rng.randint(0, min(14, n * (n - 1) // 2)), rng))
    assert all(g.n <= 8 and g.m <= 14 for g in corpus)
    disagreements = 0
    compared = 0
    for g in corpus + random_corpus:
        for spec in specs:
            fast = h_factor_decide(g, spec)
            slow = brute_force_h_factor(g, spec)
            assert fast.verdict != "inconclusive"
            compared += 1
            if fast.exists != slow.exists:
                disagreements += 1
    assert disagreements == 0
    _passed("7", f"{compared} solver/brute-force comparisons, 0 disagreements", started)


def test_criterion_8_gallai_crosscheck():
    started = time.perf_counter()
    corpus = []
    for n in (4, 6, 8, 10, 12):
        corpus.append(circulant_graph(n, (1,)))
    for n in (6, 8, 10, 12, 14):
        corpus.append(circulant_graph(n, (1, 2)))
    for n in (8, 10, 12, 14):
        corpus.append(circulant_graph(n, (1, 2, 3)))
    for n in (10, 12, 14):
        corpus.append(circulant_graph(n, (1, 2, 3, 4)))
    corpus.append(complete_bipartite_graph(4, 4))
    corpus.append(complete_bipartite_graph(6, 6))
    corpus.append(build_g1(6).graph)
    rng = random.Random(5050)
    corpus += [random_regular_graph(rng.choice((8, 10, 12)), 4, rng) for _ in range(4)]
    assert len(corpus) >= 20
    for g in corpus:
        assert g.n % 2 == 0 and is_connected(g)
        r = regularity(g)
        assert r is not None and r % 2 == 0
    applicable = violations = 0
    for g in corpus:
        r = regularity(g)
        for k in range(1, r, 2):
            report = gallai_check(g, k)
            if report.applicable:
                applicable += 1
                if not h_factor_decide(g, FactorSpec.of(k)).exists:
                    violations += 1
    assert applicable > 0
    assert violations == 0
    _passed(
        "8",
        f"{len(corpus)} graphs, {applicable} applicable (graph, k) pairs, 0 violations",
        started,
    )


def test_criterion_9_format_roundtrip_and_byte_stability(tmp_path):
    started = time.perf_counter()
    rng = random.Random(63)
    for _ in range(1000):
        n = rng.randint(0, 30)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        assert decode_graph6(encode_graph6(g)) == g
    for family, r in (("block", 6), ("g1", 6), ("g2", 8)):
        a = tmp_path / f"{family}_a"
        b = tmp_path / f"{family}_b"
        assert run(["gen", family, "--r", str(r), "--out", str(a)]) == 0
        assert run(["gen", family, "--r", str(r), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    _passed("9", "1000 graph6 round trips; gen outputs byte-identical across runs", started)

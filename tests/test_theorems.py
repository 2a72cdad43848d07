import dataclasses
import json

import pytest

from factorkit import theorems
from factorkit.constructions import build_g1, build_g2
from factorkit.generators import circulant_graph, complete_graph, cycle_graph, path_graph
from factorkit.graph import Graph
from factorkit.solver import INCONCLUSIVE, METHOD_BUDGET, Decision, FactorSpec, h_factor_decide
from factorkit.theorems import (
    GallaiReport,
    check_certificate,
    gallai_check,
    hub_parity_analysis,
    verify_theorem2,
)


def test_gallai_odd_order_not_applicable():
    report = gallai_check(complete_graph(7), 3)
    assert report.r == 6 and report.m == 6
    assert not report.n_even
    assert not report.applicable
    assert "odd" in report.reason


def test_gallai_circulant_applicable():
    report = gallai_check(circulant_graph(8, (1, 2, 3)), 3)
    assert report.applicable
    assert report.m == 6 and report.bounds_ok
    # bounds: r/m = 1 <= 3 <= r(1 - 1/m) = 5


def test_gallai_bounds_tight_at_connectivity_two():
    # 6-regular, edge connectivity 2: the bound collapses to k = 3 exactly
    g = build_g1(6).graph
    assert gallai_check(g, 3).applicable
    assert not gallai_check(g, 1).bounds_ok
    assert not gallai_check(g, 5).bounds_ok


def test_gallai_non_regular_and_disconnected():
    report = gallai_check(Graph(3, ((0, 1),)), 1)
    assert report.r is None and not report.applicable
    two_c4 = Graph(8, tuple((i, (i + 1) % 4) for i in range(4))
                   + tuple((4 + i, 4 + (i + 1) % 4) for i in range(4)))
    report = gallai_check(two_c4, 1)
    assert report.m == 0 and not report.applicable


def test_gallai_even_k_not_applicable():
    report = gallai_check(circulant_graph(8, (1, 2, 3)), 2)
    assert not report.applicable and "even" in report.reason
    report = gallai_check(complete_graph(6), 1)  # 5-regular
    assert not report.applicable and report.reason == "degree r is odd"
    with pytest.raises(TypeError):
        gallai_check(cycle_graph(8), 1.0)


def test_gallai_negative_k_is_an_error(monkeypatch):
    # Rejected before any hypothesis is checked: edge connectivity never runs.
    monkeypatch.setattr(theorems, "edge_connectivity", None)
    for g in (cycle_graph(8), complete_graph(6), path_graph(4)):
        with pytest.raises(ValueError, match="need k >= 0, got k=-1"):
            gallai_check(g, -1)


def test_gallai_crosscheck_on_applicable_instances():
    graphs = [circulant_graph(8, (1, 2, 3)), circulant_graph(10, (1, 2)),
              circulant_graph(12, (1, 2, 3)), build_g1(6).graph]
    for g in graphs:
        r = len(g.neighbors(0))
        for k in range(1, r, 2):
            if gallai_check(g, k).applicable:
                decision = h_factor_decide(g, FactorSpec.of(k))
                assert decision.exists, (g.n, r, k)


def test_theorem2_both_directions():
    assert verify_theorem2(complete_graph(7)) is True  # odd order, no 3-factor
    assert verify_theorem2(circulant_graph(8, (1, 2, 3))) is True  # even order, certificate


def test_theorem2_inconclusive_search_is_none(monkeypatch):
    # A spent node budget is no verdict: neither "holds" nor a counterexample.
    def inconclusive(g, spec, budget=None):
        return Decision(INCONCLUSIVE, METHOD_BUDGET, None, 0)

    monkeypatch.setattr("factorkit.theorems.h_factor_decide", inconclusive)
    assert verify_theorem2(complete_graph(7)) is None
    assert verify_theorem2(circulant_graph(8, (1, 2, 3))) is None


def test_theorem2_rejects_preconditions():
    with pytest.raises(ValueError, match="r/2 odd"):
        verify_theorem2(complete_graph(13))  # 12-regular, r/2 = 6 even
    with pytest.raises(ValueError, match="regular"):
        verify_theorem2(Graph(3, ((0, 1),)))
    # disconnectivity check needs a graph that survives the degree checks:
    # two copies of the 6-regular circulant
    g6 = circulant_graph(8, (1, 2, 3))
    edges = list(g6.edges) + [(u + 8, v + 8) for u, v in g6.edges]
    with pytest.raises(ValueError, match="connected"):
        verify_theorem2(Graph(16, tuple(edges)))


def test_theorem2_on_generated_family():
    # G1(6) is 6-regular and connected with 22 vertices: factor must exist
    assert verify_theorem2(build_g1(6).graph)


def test_hub_parity_g1():
    out = build_g1(6)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(1, 5))
    assert cert is not None
    assert cert.achievable_hub_degrees == ((3,),)
    assert cert.conclusion
    assert len(cert.components) == 3
    assert all(row == (2,) for row in cert.cross_edges)


def test_hub_parity_g1_all_covered_k():
    for r in (6, 10):
        out = build_g1(r)
        for k in range(1, r // 2 - 1, 2):
            cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.complementary(k, r))
            assert cert.achievable_hub_degrees == ((r // 2,),)
            assert cert.conclusion, (r, k)
            assert check_certificate(out.graph, cert)


def test_hub_parity_g2():
    out = build_g2(8)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(1, 7))
    assert cert is not None
    expected = (3, 4, 5)
    assert cert.achievable_hub_degrees == (expected, expected)
    assert cert.conclusion
    assert check_certificate(out.graph, cert)


def test_hub_parity_g2_all_covered_k():
    for r in (8, 12):
        out = build_g2(r)
        half = r // 2
        for k in range(1, half - 2, 2):
            cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.complementary(k, r))
            assert cert.achievable_hub_degrees[0] == (half - 1, half, half + 1)
            assert cert.conclusion, (r, k)
            assert check_certificate(out.graph, cert)


def test_hub_parity_g2_joint_degrees_sum_to_r():
    # Joint enumeration over the per-component splits: whatever the factor
    # does, the two hub degrees always add up to exactly r.
    for r in (8, 12):
        out = build_g2(r)
        cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.complementary(1, r))
        joint = {(0, 0)}
        for cu, cv in cert.cross_edges:
            options = [
                (tu, tv)
                for tu in range(cu + 1)
                for tv in range(cv + 1)
                if (tu + tv) % 2 == 1
            ]
            joint = {(du + tu, dv + tv) for du, dv in joint for tu, tv in options}
        assert joint, "no legal joint distribution"
        assert all(du + dv == r for du, dv in joint)
        assert {du for du, _ in joint} == set(cert.achievable_hub_degrees[0])


def test_hub_parity_inconclusive_spec_is_consistent():
    # {3} meets the achievable set {3}: certificate proves nothing, and
    # indeed a {3}-factor exists (22 vertices, even order).
    out = build_g1(6)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(3))
    assert cert is not None and not cert.conclusion
    assert check_certificate(out.graph, cert)
    assert h_factor_decide(out.graph, FactorSpec.of(3)).exists


def test_hub_parity_agrees_with_full_search():
    out = build_g1(6)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(1, 5))
    decision = h_factor_decide(out.graph, FactorSpec.of(1, 5))
    assert cert.conclusion and decision.verdict == "not-exists"


def test_hub_parity_agrees_with_full_search_two_hub_family():
    # The cut decomposition peels the two-hub family block by block, so even
    # these larger members are searchable end to end; the exhaustive verdict
    # must match the counting argument.
    for r in (8, 12):
        out = build_g2(r)
        for k in range(1, r // 2 - 2, 2):
            spec = FactorSpec.complementary(k, r)
            cert = hub_parity_analysis(out.graph, out.hubs, spec)
            decision = h_factor_decide(out.graph, spec)
            assert cert.conclusion and decision.verdict == "not-exists", (r, k)


def test_hub_parity_not_applicable():
    out = build_g1(6)
    # even allowed degree breaks the hypotheses
    assert hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(2, 4)) is None
    # even-order component: C5 minus one hub leaves a 4-path
    c5 = cycle_graph(5)
    assert hub_parity_analysis(c5, [0], FactorSpec.of(1)) is None
    with pytest.raises(ValueError):
        hub_parity_analysis(c5, [], FactorSpec.of(1))
    with pytest.raises(ValueError):
        hub_parity_analysis(c5, [9], FactorSpec.of(1))
    with pytest.raises(TypeError):
        hub_parity_analysis(out.graph, [21.4], FactorSpec.of(1, 5))


def test_hub_parity_component_without_hub_edges():
    # an odd component with no edges into the hubs pins that hub set to
    # nothing: the certificate concludes no factor for any all-odd spec
    g = Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
    cert = hub_parity_analysis(g, [3], FactorSpec.of(1))
    assert cert is not None and cert.conclusion


def test_check_certificate_rejects_tampering():
    out = build_g1(6)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(1, 5))
    assert check_certificate(out.graph, cert)

    tampered_spec = dataclasses.replace(cert, spec=FactorSpec.of(3))
    assert not check_certificate(out.graph, tampered_spec)

    merged = cert.components[0] + cert.components[1]
    broken_decomp = dataclasses.replace(
        cert,
        components=(merged,) + cert.components[2:],
        cross_edges=((4,),) + cert.cross_edges[2:],
    )
    assert not check_certificate(out.graph, broken_decomp)

    wrong_achievable = dataclasses.replace(cert, achievable_hub_degrees=((1,),))
    assert not check_certificate(out.graph, wrong_achievable)

    wrong_conclusion = dataclasses.replace(cert, conclusion=False)
    assert not check_certificate(out.graph, wrong_conclusion)

    wrong_counts = dataclasses.replace(cert, cross_edges=((1,), (2,), (2,)))
    assert not check_certificate(out.graph, wrong_counts)

    bad_hubs = dataclasses.replace(cert, hubs=(99,))
    assert not check_certificate(out.graph, bad_hubs)


def test_check_certificate_rejects_malformed_hubs_and_spec():
    out = build_g2(8)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(1, 7))
    assert cert.hubs == (72, 73) and check_certificate(out.graph, cert)
    for hubs in ((73, 72), (72, 72, 73), ()):
        assert not check_certificate(out.graph, dataclasses.replace(cert, hubs=hubs)), hubs
    assert not check_certificate(out.graph, dataclasses.replace(cert, spec=FactorSpec.of(1, 2)))


def test_certificate_json_roundtrip():
    out = build_g2(8)
    cert = hub_parity_analysis(out.graph, out.hubs, FactorSpec.of(1, 7))
    payload = cert.to_json_dict()
    assert set(payload) == {
        "hubs", "components", "cross_edges", "spec", "achievable", "conclusion",
    }
    assert json.loads(json.dumps(payload)) == payload


def test_gallai_report_json():
    report = gallai_check(circulant_graph(8, (1, 2, 3)), 3)
    payload = report.to_json_dict()
    assert payload["applicable"] is True and payload["m"] == 6
    assert GallaiReport(**payload) == report

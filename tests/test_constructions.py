import pytest

from factorkit.constructions import (
    CaseLabel,
    build_g1,
    build_g2,
    classify_case,
    near_complete_block,
)
from factorkit.graph import connected_components, induced_subgraph, is_connected, regularity
from factorkit.io import encode_graph6


def test_block_r2_is_a_path():
    block = near_complete_block(2)
    assert block.graph.n == 3 and block.graph.m == 2
    assert sorted(block.graph.degrees()) == [1, 1, 2]
    assert block.unsaturated == (0, 1)
    assert 1 not in block.graph.neighbors(0)


@pytest.mark.parametrize("r,n,m", [(4, 5, 9), (6, 7, 20), (8, 9, 35)])
def test_block_counts(r, n, m):
    block = near_complete_block(r)
    assert block.graph.n == n and block.graph.m == m
    degs = block.graph.degrees()
    assert degs[0] == degs[1] == r - 1
    assert all(degs[v] == r for v in range(2, n))
    assert 1 not in block.graph.neighbors(0)


def test_block_rejects_bad_degree():
    with pytest.raises(ValueError):
        near_complete_block(3)
    with pytest.raises(ValueError):
        near_complete_block(0)


def test_classify_case_examples():
    assert classify_case(6, 1) is CaseLabel.G1
    assert classify_case(8, 1) is CaseLabel.G2
    assert classify_case(8, 3) is CaseLabel.EXTERNAL
    assert classify_case(6, 3) is CaseLabel.GALLAI_HALF
    assert classify_case(10, 5) is CaseLabel.GALLAI_HALF
    assert classify_case(12, 3) is CaseLabel.G2
    assert classify_case(12, 5) is CaseLabel.EXTERNAL


def test_classify_case_invalid_inputs():
    assert classify_case(5, 1) is CaseLabel.INVALID  # r odd
    assert classify_case(6, 2) is CaseLabel.INVALID  # k even
    assert classify_case(6, 5) is CaseLabel.INVALID  # k > r/2
    assert classify_case(6, 0) is CaseLabel.INVALID
    assert classify_case(6, -1) is CaseLabel.INVALID
    assert classify_case(0, 1) is CaseLabel.INVALID


def test_classify_case_total_and_consistent():
    for r in range(2, 41, 2):
        half = r // 2
        for k in range(1, half + 1, 2):
            label = classify_case(r, k)
            assert label is not CaseLabel.INVALID
            if label is CaseLabel.G1:
                assert half % 2 == 1 and k <= half - 2 and r >= 6
                build_g1(r)  # precondition must hold
            elif label is CaseLabel.G2:
                assert half % 2 == 0 and k <= half - 3 and r >= 8
                build_g2(r)
            elif label is CaseLabel.EXTERNAL:
                assert half % 2 == 0 and k == half - 1
            else:
                assert label is CaseLabel.GALLAI_HALF and k == half


def test_g1_structure():
    out = build_g1(6)
    g = out.graph
    assert g.n == 22 and g.m == 66
    assert regularity(g) == 6
    assert is_connected(g)
    hub = out.hubs[0]
    assert hub == 21
    unsaturated = [v for first, last, pair in out.block_ranges for v in pair]
    assert sorted(g.neighbors(hub)) == sorted(unsaturated)
    assert len(unsaturated) == 6


def test_g1_hub_deletion_leaves_blocks():
    out = build_g1(6)
    keep = [v for v in range(out.graph.n) if v not in out.hubs]
    sub = induced_subgraph(out.graph, keep)
    comps = connected_components(sub)
    assert len(comps) == 3
    for comp in comps:
        csub = induced_subgraph(sub, comp)
        assert csub.n == 7 and csub.m == 20


def test_g1_blocks_are_identity_labeled_copies():
    out = build_g1(6)
    block = near_complete_block(6)
    for first, last, (u, v) in out.block_ranges:
        assert (u, v) == (first, first + 1)
        assert last - first + 1 == block.graph.n
        assert induced_subgraph(out.graph, range(first, last + 1)) == block.graph


def test_g1_larger():
    out = build_g1(10)
    assert out.graph.n == 56
    assert regularity(out.graph) == 10
    assert is_connected(out.graph)


def test_g1_rejects_bad_degree():
    for bad in (2, 4, 5, 8, 12):
        with pytest.raises(ValueError):
            build_g1(bad)


def test_g2_structure():
    out = build_g2(8)
    g = out.graph
    assert g.n == 74 and g.m == 296
    assert regularity(g) == 8
    assert is_connected(g)
    u, v = out.hubs
    assert (u, v) == (72, 73)
    assert v not in g.neighbors(u)
    # u: both unsaturated vertices of blocks 1..r/2-1, one vertex in each of
    # the last two blocks; v symmetric.
    ranges = out.block_ranges
    for b, (first, last, pair) in enumerate(ranges):
        u_edges = sum(1 for w in g.neighbors(u) if first <= w <= last)
        v_edges = sum(1 for w in g.neighbors(v) if first <= w <= last)
        if b <= 2:
            assert (u_edges, v_edges) == (2, 0)
        elif b <= 5:
            assert (u_edges, v_edges) == (0, 2)
        else:
            assert (u_edges, v_edges) == (1, 1)


def test_g2_hub_deletion_leaves_blocks():
    out = build_g2(8)
    keep = [x for x in range(out.graph.n) if x not in out.hubs]
    sub = induced_subgraph(out.graph, keep)
    comps = connected_components(sub)
    assert len(comps) == 8
    for comp in comps:
        csub = induced_subgraph(sub, comp)
        assert csub.n == 9 and csub.m == 35


def test_g2_larger():
    out = build_g2(12)
    assert out.graph.n == 158
    assert regularity(out.graph) == 12
    assert is_connected(out.graph)


def test_g2_rejects_bad_degree():
    for bad in (4, 6, 7, 10):
        with pytest.raises(ValueError):
            build_g2(bad)


def test_block_ranges_partition_non_hub_vertices():
    for out in (build_g1(6), build_g2(8)):
        covered = []
        for first, last, _ in out.block_ranges:
            covered.extend(range(first, last + 1))
        expected = [v for v in range(out.graph.n) if v not in out.hubs]
        assert sorted(covered) == expected


def test_generation_is_deterministic():
    assert encode_graph6(build_g1(6).graph) == encode_graph6(build_g1(6).graph)
    assert encode_graph6(build_g2(8).graph) == encode_graph6(build_g2(8).graph)
    a = build_g1(10)
    b = build_g1(10)
    assert a.graph == b.graph and a.block_ranges == b.block_ranges


def test_descriptor_shape():
    out = build_g1(6)
    desc = out.to_descriptor()
    assert desc["r"] == 6 and desc["family"] == "G1"
    assert desc["hubs"] == [21]
    assert desc["blocks"][0] == {"range": [0, 6], "unsaturated": [0, 1]}
    assert len(desc["blocks"]) == 3

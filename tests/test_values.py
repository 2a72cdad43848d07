"""The public value types keep the same value semantics: equality, hashing,
repr, immutability and pickling, with reprs pinned as the strings they print."""

import json
import pickle

import pytest

from factorkit import (
    Block,
    ConstructionOutput,
    Decision,
    FactorSpec,
    GallaiReport,
    Graph,
    NoFactorCertificate,
    build_g1,
    gallai_check,
    h_factor_decide,
    hub_parity_analysis,
    near_complete_block,
)
from factorkit.generators import circulant_graph

# (type, a builder called twice, one field name, the pinned repr)
VALUES = [
    (Graph, lambda: Graph(3, [(1, 0), (1, 2)]), "edges", "Graph(n=3, edges=((0, 1), (1, 2)))"),
    (FactorSpec, lambda: FactorSpec((3, 1, 3)), "allowed", "FactorSpec(allowed=(1, 3))"),
    (
        Decision,
        lambda: h_factor_decide(Graph(3, [(0, 1), (1, 2)]), FactorSpec.of(1, 2)),
        "verdict",
        "Decision(verdict='exists', method='search', certificate=((0, 1), (1, 2)), nodes_explored=5)",
    ),
    (
        GallaiReport,
        lambda: gallai_check(circulant_graph(8, (1, 2)), 1),
        "m",
        "GallaiReport(r=4, m=4, k=1, n_even=True, bounds_ok=True, applicable=True, reason=None)",
    ),
    (
        NoFactorCertificate,
        lambda: hub_parity_analysis(build_g1(6).graph, (21,), FactorSpec.of(1, 5)),
        "conclusion",
        "NoFactorCertificate(hubs=(21,), components=((0, 1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11, 12, 13), "
        "(14, 15, 16, 17, 18, 19, 20)), cross_edges=((2,), (2,), (2,)), spec=FactorSpec(allowed=(1, 5)), "
        "achievable_hub_degrees=((3,),), conclusion=True)",
    ),
    (
        Block,
        lambda: near_complete_block(2),
        "unsaturated",
        "Block(graph=Graph(n=3, edges=((0, 2), (1, 2))), unsaturated=(0, 1))",
    ),
    (
        ConstructionOutput,
        lambda: ConstructionOutput(Graph(4, [(0, 1), (1, 2), (2, 3)]), (3,), ((0, 2, (0, 2)),), "g1", 2),
        "hubs",
        "ConstructionOutput(graph=Graph(n=4, edges=((0, 1), (1, 2), (2, 3))), hubs=(3,), "
        "block_ranges=((0, 2, (0, 2)),), family='g1', r=2)",
    ),
]


@pytest.mark.parametrize("cls, build, field, expected", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_public_value_semantics(cls, build, field, expected):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == expected
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and repr(a) == expected
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(a, protocol))
        assert type(restored) is cls and restored == a and hash(restored) == hash(a)
        assert repr(restored) == expected


@pytest.mark.parametrize(
    "value, fields", [(Graph(2, [(0, 1)]), (2, ((0, 1),))), (FactorSpec((1,)), ((1,),))], ids=repr
)
def test_graph_and_spec_are_not_tuples(value, fields):
    # Only the records are tuples; a graph or a spec neither sizes nor
    # iterates, and equals no value of another class.
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        iter(value)
    assert value.__eq__(object()) is NotImplemented
    assert value != fields and fields != value


def test_spec_canonicalizes_and_gallai_json_is_stable():
    assert FactorSpec((3, 1, 3)).allowed == (1, 3)
    report = gallai_check(circulant_graph(120, (1, 11, 37)), 3)
    assert json.dumps(report.to_json_dict(), sort_keys=True) == (
        '{"applicable": true, "bounds_ok": true, "k": 3, "m": 6, "n_even": true, "r": 6, "reason": null}'
    )
    assert list(report.to_json_dict()) == ["r", "m", "k", "n_even", "bounds_ok", "applicable", "reason"]

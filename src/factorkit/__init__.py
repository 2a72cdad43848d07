"""factorkit: exact degree-set factor decisions on simple graphs, generators
for the hub-and-blocks regular families, and machine-checked parity
certificates for factor nonexistence."""

from .constructions import (
    Block,
    CaseLabel,
    ConstructionOutput,
    build_g1,
    build_g2,
    classify_case,
    near_complete_block,
)
from .graph import (
    Graph,
    articulation_points,
    biconnected_blocks,
    connected_components,
    edge_connectivity,
    from_edges,
    induced_subgraph,
    is_connected,
    regularity,
)
from .io import (
    decode_graph6,
    encode_graph6,
    from_dimacs,
    from_edge_list,
    to_dimacs,
    to_edge_list,
)
from .solver import (
    Decision,
    FactorSpec,
    brute_force_h_factor,
    decompose_two_factors,
    even_k_factor,
    f_factor_decide,
    h_factor_decide,
    verify_factor,
)
from .theorems import (
    GallaiReport,
    NoFactorCertificate,
    check_certificate,
    gallai_check,
    hub_parity_analysis,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CaseLabel",
    "ConstructionOutput",
    "Decision",
    "FactorSpec",
    "GallaiReport",
    "Graph",
    "NoFactorCertificate",
    "articulation_points",
    "biconnected_blocks",
    "brute_force_h_factor",
    "build_g1",
    "build_g2",
    "check_certificate",
    "classify_case",
    "connected_components",
    "decode_graph6",
    "decompose_two_factors",
    "edge_connectivity",
    "encode_graph6",
    "even_k_factor",
    "f_factor_decide",
    "from_dimacs",
    "from_edge_list",
    "from_edges",
    "gallai_check",
    "h_factor_decide",
    "hub_parity_analysis",
    "induced_subgraph",
    "is_connected",
    "near_complete_block",
    "regularity",
    "to_dimacs",
    "to_edge_list",
    "verify_factor",
    "verify_theorem2",
]

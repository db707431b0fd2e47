"""Exact counting of colorings, homomorphisms and independent sets of small
regular graphs, with exact verdicts for the complete-bipartite extremal
bounds and the explicit container-certificate machinery behind them."""

__version__ = "0.1.0"

from .certificates import (
    Certificate,
    CertificateReport,
    DProfile,
    LemmaBound,
    build_certificate,
    compatible_count,
    container_size_cap,
    d_profile,
    explicit_weak_bound,
    lemma_opt_bound,
    phi,
    refined_bound,
    verify_certificate,
)
from .counting import (
    chromatic_polynomial,
    count_colorings,
    count_homomorphisms,
    count_independent_sets,
    evaluate_polynomial,
    greedy_maximal_matching,
    independence_number,
    maximum_independent_set,
)
from .errors import CapExceededError, Graph6ParseError, InvalidParameterError, UnsupportedSizeError
from .graphs import (
    Classification,
    Graph,
    TargetGraph,
    canonical_key,
    classify,
    complete,
    complete_bipartite,
    complete_target,
    cycle,
    disjoint_copies,
    disjoint_union,
    enumerate_regular,
    from_edges,
    h_ind,
    induced_subgraph,
    looped_vertex,
    mask_of,
    parse_graph6,
    relabel,
    target_from_edges,
    vertices_of,
    write_graph6,
)
from .kdd import (
    ColorPairCensus,
    GapReport,
    PairClass,
    asymptotic_gap,
    count_colorings_kdd,
    eta,
    m_count,
    pair_census,
    surjections,
)
from .verdicts import (
    PowerComparison,
    ReferenceBound,
    ScanResult,
    ScanRow,
    Verdict,
    alon_kahn_verdict,
    conjecture_verdict,
    constrained_scan,
    hom_conjecture_verdict,
    reference_bound,
)

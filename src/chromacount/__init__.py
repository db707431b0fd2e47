"""Exact counting of colorings, homomorphisms and independent sets of small
regular graphs, with exact verdicts for the complete-bipartite extremal
bounds and the explicit container-certificate machinery behind them.

The public names resolve on first use (PEP 562): `import chromacount` loads
no submodule, and each name imports only the submodule that defines it."""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Certificate", "CertificateReport", "DProfile", "LemmaBound", "build_certificate", "container_size_cap",
            "d_profile", "explicit_weak_bound", "lemma_opt_bound", "phi", "refined_bound", "threshold", "verify_certificate",
        ),
        "certificates",
    ),
    **dict.fromkeys(
        (
            "chromatic_polynomial", "count_colorings", "count_homomorphisms", "count_independent_sets",
            "evaluate_polynomial", "greedy_maximal_matching", "independence_number", "maximum_independent_set",
        ),
        "counting",
    ),
    **dict.fromkeys(
        ("CapExceededError", "Graph6ParseError", "InvalidParameterError", "NotRegularError", "UnsupportedSizeError"),
        "errors",
    ),
    **dict.fromkeys(
        (
            "Classification", "Graph", "TargetGraph", "canonical_key", "classify", "complete", "complete_bipartite",
            "complete_target", "components", "cycle", "disjoint_copies", "disjoint_union", "enumerate_regular",
            "from_edges", "h_ind", "induced_subgraph", "looped_vertex", "mask_of", "parse_graph6", "regular_degree",
            "relabel", "target_from_edges", "vertices_of", "write_graph6",
        ),
        "graphs",
    ),
    **dict.fromkeys(("GapReport", "asymptotic_gap", "count_colorings_kdd", "eta", "m_count", "surjections"), "kdd"),
    **dict.fromkeys(
        (
            "PowerComparison", "ScanResult", "ScanRow", "Verdict", "alon_kahn_verdict", "conjecture_verdict",
            "constrained_scan", "hom_conjecture_verdict",
        ),
        "verdicts",
    ),
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

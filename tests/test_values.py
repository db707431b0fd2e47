"""The value types are named tuples: immutable, slot-less, equal and hashed by
their fields within a type, and Graph and TargetGraph check their fields
however they are built."""
import copy
import pickle

import pytest

from chromacount import (
    Graph,
    InvalidParameterError,
    TargetGraph,
    asymptotic_gap,
    build_certificate,
    classify,
    complete,
    complete_bipartite,
    conjecture_verdict,
    constrained_scan,
    cycle,
    d_profile,
    h_ind,
    lemma_opt_bound,
    threshold,
    verify_certificate,
)

from helpers import petersen


def _one_of_each():
    g = complete_bipartite(3, 3)
    cert = build_certificate(g, 0b000111, threshold(3, 3))
    report = verify_certificate(g, cert)
    verdict = conjecture_verdict(g, 3)
    scan = constrained_scan([g], 3, 0)
    return [
        g,
        h_ind(),
        classify(g),
        asymptotic_gap(3, 3),
        verdict,
        verdict.comparisons[0],
        scan,
        scan.rows[0],
        cert,
        report,
        report.checks[0],
        d_profile(g, [1, 1, 1, 2, 2, 2], 3, threshold(3, 3)),
        lemma_opt_bound([1, 3], 2, 1),
    ]


def test_every_value_type_is_covered():
    names = sorted(type(v).__name__ for v in _one_of_each())
    assert names == sorted([
        "Graph", "TargetGraph", "Classification", "GapReport", "Verdict", "PowerComparison", "ScanResult",
        "ScanRow", "Certificate", "CertificateReport", "CheckResult", "DProfile", "LemmaBound",
    ])


@pytest.mark.parametrize("value", _one_of_each(), ids=lambda v: type(v).__name__)
def test_value_types_are_immutable_and_have_no_dict(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", _one_of_each(), ids=lambda v: type(v).__name__)
def test_equality_and_hash_by_fields_within_a_type(value):
    twin = type(value)(*value)
    assert twin == value and hash(twin) == hash(value)
    assert twin is not value
    assert copy.deepcopy(value) == value


def test_graph_equality_and_hash():
    a, b = cycle(5), cycle(5)
    assert a == b and hash(a) == hash(b)
    assert a != complete(5)
    assert len({a, b, complete(5), petersen(), petersen()}) == 3
    assert Graph(n=3, rows=(6, 5, 3)) == complete(3)


def test_graph_repr():
    assert repr(complete(3)) == "Graph(n=3, rows=(6, 5, 3))"
    assert repr(Graph(0, ())) == "Graph(n=0, rows=())"
    assert repr(h_ind()) == "TargetGraph(k=2, rows=(2, 3))"


def test_replace_and_iteration():
    g = cycle(4)
    n, rows = g
    assert (n, rows) == (4, g.rows)
    v = conjecture_verdict(g, 3)
    failed = v._replace(holds=False, equality=False)
    assert type(failed) is type(v)
    assert (failed.holds, failed.equality) == (False, False)
    assert failed.comparisons == v.comparisons


@pytest.mark.parametrize("value", [petersen(), h_ind(), TargetGraph(3, (0b110, 0b101, 0b111))], ids=repr)
def test_graphs_survive_a_pickle_round_trip(value):
    # verify --jobs 2 --target hom: pickles the target into its workers
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value


@pytest.mark.parametrize("make", [Graph, TargetGraph])
def test_unpickling_and_replace_rerun_the_checks(make):
    # built past __new__, as a corrupt pickle would hold it
    bad = tuple.__new__(make, (2, (0b10, 0b00)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(bad, protocol)
        with pytest.raises(InvalidParameterError, match=r"^adjacency not symmetric at \(0,1\)$"):
            pickle.loads(data)
    good = make(2, (0b10, 0b01))
    with pytest.raises(InvalidParameterError, match=r"^adjacency not symmetric at \(0,1\)$"):
        good._replace(rows=(0b10, 0b00))
    with pytest.raises(InvalidParameterError, match=r"^adjacency row count must equal"):
        good._replace(rows=(0b10,))
    assert good._replace(rows=(0, 0)).rows == (0, 0)


GRAPH_ERRORS = [
    ((-1, ()), "vertex count must be non-negative"),
    ((2, (0b10,)), "adjacency row count must equal n"),
    ((1, (0b10,)), "adjacency bits of vertex 0 out of range"),
    ((2, (0b10, 0b01 | 0b100)), "adjacency bits of vertex 1 out of range"),
    ((2, (0b11, 0b01)), "loop at vertex 0 not allowed"),
    # the range check of a vertex comes before its loop check, both before symmetry
    ((1, (0b11,)), "adjacency bits of vertex 0 out of range"),
    ((3, (0b010, 0b000, 0b100)), "loop at vertex 2 not allowed"),
    ((3, (0b010, 0b000, 0b000)), "adjacency not symmetric at (0,1)"),
]

TARGET_ERRORS = [
    ((-1, ()), "vertex count must be non-negative"),
    ((2, (0b10,)), "adjacency row count must equal k"),
    ((1, (0b10,)), "adjacency bits of vertex 0 out of range"),
    ((0, (0b1,)), "adjacency row count must equal k"),
    ((2, (0b11, 0b100)), "adjacency bits of vertex 1 out of range"),
    ((3, (0b010, 0b000, 0b100)), "adjacency not symmetric at (0,1)"),
]


@pytest.mark.parametrize("make, args, message", [(Graph, *case) for case in GRAPH_ERRORS] + [(TargetGraph, *case) for case in TARGET_ERRORS])
def test_graph_error_messages(make, args, message):
    with pytest.raises(InvalidParameterError) as exc:
        make(*args)
    assert str(exc.value) == message
    with pytest.raises(InvalidParameterError) as exc:
        make(**dict(zip(make._fields, args)))
    assert str(exc.value) == message

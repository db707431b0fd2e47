"""What each subcommand loads: the package namespace resolves its names on
first use, and a subcommand imports only the modules it runs."""
import json
import os
import re
import subprocess
import sys

import pytest

import chromacount
from chromacount import certificates, counting, errors, graphs, kdd, verdicts

from helpers import petersen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every public name, by the submodule that defines it
EXPORTS = {
    certificates: [
        "Certificate", "CertificateReport", "DProfile", "LemmaBound", "build_certificate", "container_size_cap",
        "d_profile", "explicit_weak_bound", "lemma_opt_bound", "phi", "refined_bound", "threshold", "verify_certificate",
    ],
    counting: [
        "chromatic_polynomial", "count_colorings", "count_homomorphisms", "count_independent_sets",
        "evaluate_polynomial", "greedy_maximal_matching", "independence_number", "maximum_independent_set",
    ],
    errors: ["CapExceededError", "Graph6ParseError", "InvalidParameterError", "NotRegularError", "UnsupportedSizeError"],
    graphs: [
        "Classification", "Graph", "TargetGraph", "canonical_key", "classify", "complete", "complete_bipartite",
        "complete_target", "components", "cycle", "disjoint_copies", "disjoint_union", "enumerate_regular",
        "from_edges", "h_ind", "induced_subgraph", "looped_vertex", "mask_of", "parse_graph6", "regular_degree",
        "relabel", "target_from_edges", "vertices_of", "write_graph6",
    ],
    kdd: ["GapReport", "asymptotic_gap", "count_colorings_kdd", "eta", "m_count", "surjections"],
    verdicts: [
        "PowerComparison", "ScanResult", "ScanRow", "Verdict", "alon_kahn_verdict", "conjecture_verdict",
        "constrained_scan", "hom_conjecture_verdict",
    ],
}

# run the CLI as `python -m chromacount.cli` does, then print what it loaded
PROBE = """
import json, runpy, sys
sys.argv = ["chromacount", *sys.argv[1:]]
try:
    runpy.run_module("chromacount.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

HEAVY = {"chromacount.certificates", "chromacount.records", "fractions", "decimal"}
# the value types are named tuples: neither dataclasses (which loads inspect)
# nor typing.NamedTuple is on the path of the batch subcommands
STARTUP = {"dataclasses", "inspect", "typing"}


def _loaded(argv, tmp_path):
    # -S: no site module, which would load modules of its own
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv, "--out", str(tmp_path / "report")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(modules)


@pytest.fixture
def petersen_g6(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(graphs.write_graph6(petersen()) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--q", "3", "--graphs"],
        ["verify", "--target", "indsets", "--graphs"],
        ["verify", "--target", "hom:{target}", "--graphs"],
        ["count", "--q", "3", "--method", "both", "--graph"],
    ],
    ids=["verify-colorings", "verify-indsets", "verify-hom", "count"],
)
def test_counting_commands_load_no_certificates_records_or_fractions(tmp_path, petersen_g6, argv):
    target = tmp_path / "h.json"
    target.write_text(json.dumps({"k": 3, "edges": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]]}))
    loaded = _loaded([arg.format(target=target) for arg in argv] + [petersen_g6], tmp_path)
    assert not loaded & HEAVY
    assert not loaded & STARTUP


def test_scan_loads_records_but_not_certificates(tmp_path):
    loaded = _loaded(["scan", "--n", "6", "--d", "3", "--q", "3", "--records", str(tmp_path / "best.json")], tmp_path)
    assert "chromacount.records" in loaded
    assert "chromacount.certificates" not in loaded
    assert not loaded & STARTUP


@pytest.mark.parametrize("argv", [["certificate", "--q", "3", "--graph"], ["bounds", "--n", "10", "--d", "3", "--q", "3", "--graphs"]], ids=["certificate", "bounds"])
def test_certificate_commands_load_certificates(tmp_path, petersen_g6, argv):
    assert "chromacount.certificates" in _loaded(argv + [petersen_g6], tmp_path)


def test_package_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, chromacount; print(sorted(m for m in sys.modules if m.startswith('chromacount.')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert sorted(chromacount.__all__) == sorted(names)
    listed = dir(chromacount)
    for module, module_names in EXPORTS.items():
        for name in module_names:
            namespace = {}
            exec(f"from chromacount import {name}", namespace)
            assert namespace[name] is getattr(chromacount, name) is getattr(module, name), name
            assert name in listed, name
    assert "__version__" in listed
    # README's library table promises each name in its contents column
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        rows = [line.split("|")[2] for line in f if line.startswith("| `chromacount.")]
    promised = {name for row in rows for name in re.findall(r"`([^`]*)`", row) if name.isidentifier()} - {"None"}
    assert promised and promised <= set(chromacount.__all__), sorted(promised - set(chromacount.__all__))
    # and every exception of chromacount.errors
    raised = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == errors.__name__
    }
    assert raised <= set(chromacount.__all__), sorted(raised - set(chromacount.__all__))


def test_python_floor_has_int_max_str_digits():
    # sys.get_int_max_str_digits, which every scan's eps parse calls, came in 3.10.7
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'^requires-python = ">=([\d.]+)"$', fh.read(), re.M)[1]
    assert tuple(map(int, floor.split("."))) >= (3, 10, 7)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        chromacount.no_such_name
    with pytest.raises(ImportError):
        exec("from chromacount import no_such_name", {})

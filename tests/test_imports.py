"""Every name a library module imports is used in that module, every
private name it defines is used somewhere in the library, each module
imports only its layers, and each entry point loads only what it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unilie
from unilie import serialize
from unilie.algebra import from_graph
from unilie.families import quaternionic

MODULES = sorted(p for p in Path(unilie.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    assert {p.stem for p in MODULES} >= {"algebra", "cli", "enumeration",
                                         "exact", "graphs"}
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


# module -> the library modules it imports at its top level; the census
# (enumeration) stays on the graph layer, only `factorize` reads
# factorizations, only `analyze` reads analysis, and only classification
# reaches every layer at once.  cli imports what a verb uses when the verb
# runs, fileverbs included.
LAYERS = {
    "record": set(),
    "graphs": {"record"},
    "enumeration": {"graphs"},
    "factorizations": {"enumeration", "graphs", "record"},
    "exact": {"record"},
    "gf2": set(),
    "algebra": {"gf2", "graphs", "record"},
    "analysis": {"algebra", "exact", "graphs", "record"},
    "families": {"graphs"},
    "constructions": {"families", "graphs", "record"},
    "serialize": {"algebra", "exact", "graphs"},
    "classification": {"algebra", "enumeration", "exact", "families", "graphs",
                       "record"},
    "cli": set(),
    "fileverbs": {"cli"},
}


def top_level_edges(source: str) -> set[str]:
    """The sibling modules that `from .x import` or `from . import x`
    statements at module level name."""
    edges = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            edges |= ({node.module} if node.module else {a.name for a in node.names})
    return edges


def test_modules_import_only_their_layers():
    found = {p.stem: top_level_edges(p.read_text()) for p in MODULES}
    assert found == LAYERS


def test_top_level_edges_are_found():
    source = """
from . import exact
from .graphs import ColoredDigraph
import itertools

def late():
    from .algebra import from_graph
"""
    assert top_level_edges(source) == {"exact", "graphs"}
    assert top_level_edges("from .algebra import from_graph\n") == {"algebra"}


def test_cli_import_skips_code_generation_modules():
    """A fresh interpreter importing the CLI loads neither `dataclasses` nor
    `inspect`, which together cost tens of milliseconds per invocation."""
    src = str(Path(unilie.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; before = set(sys.modules); import unilie.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def fresh_value(code: str, expr: str):
    """Run code in a fresh interpreter with `src` on the path and return the
    value of the literal expression expr at its end."""
    src = str(Path(unilie.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code += f"\nimport sys; print({expr})"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def fresh_modules(code: str) -> list[str]:
    """The modules loaded at the end of code in a fresh interpreter, sorted."""
    return fresh_value(code, "sorted(sys.modules)")


def fresh_unilie_modules(code: str) -> list[str]:
    """The unilie modules loaded at the end of code in a fresh interpreter."""
    return [m for m in fresh_modules(code) if m.split(".")[0] == "unilie"]


def run_cli(argv: list[str], code: int = 0) -> str:
    """Source that runs the CLI on argv with stdout muted and checks its
    exit code."""
    return ("import contextlib, io, unilie.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert unilie.cli.main({argv!r}) == {code}")


def test_package_import_loads_no_submodule():
    assert fresh_unilie_modules("import unilie") == ["unilie"]


@pytest.mark.parametrize("argv", [
    ["--help"], ["classify", "--help"], ["summon"], ["classify", "--qmax", "0"],
    ["factorize"], ["family"]])
def test_parser_exits_load_only_the_cli(argv):
    code = ("import contextlib, io, unilie.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert unilie.cli.main({argv!r}) in (0, 2)")
    assert fresh_unilie_modules(code) == ["unilie", "unilie.cli"]


UNUSED_BY_VERBS = {"unilie.classification", "unilie.constructions", "unilie.enumeration",
                   "unilie.factorizations", "unilie.families"}
# the structure dossier: only `analyze` loads it
UNUSED_OUTSIDE_ANALYZE = UNUSED_BY_VERBS | {"unilie.analysis"}


@pytest.mark.parametrize("verb,absent", [
    ("verify", UNUSED_OUTSIDE_ANALYZE),
    ("analyze", UNUSED_BY_VERBS),
    ("export", UNUSED_OUTSIDE_ANALYZE),
    # two graphs: coloring equivalence, with no certificate chain
    ("iso", UNUSED_OUTSIDE_ANALYZE),
])
def test_verbs_skip_modules_they_do_not_use(tmp_path, verb, absent):
    path = tmp_path / "quat.graph"
    path.write_text(serialize.write_text(quaternionic()))
    argv = [verb] + ["--input", str(path)] * (2 if verb == "iso" else 1)
    loaded = set(fresh_unilie_modules(run_cli(argv)))
    assert {"unilie.fileverbs", "unilie.serialize"} <= loaded
    assert not loaded & absent


def test_census_loads_only_the_graph_layer():
    loaded = fresh_modules("from unilie import regular_graphs, uniform_colorings\n"
                           "assert len(uniform_colorings(regular_graphs(4)[-1])) == 2")
    assert [m for m in loaded if m.split(".")[0] == "unilie"] == [
        "unilie", "unilie.enumeration", "unilie.graphs", "unilie.record"]
    assert "fractions" not in loaded


def test_sign_classes_skip_the_census_and_classification():
    # the quaternionic support: the three perfect matchings of K4.  Sign
    # classes, their witness checks and the signed-permutation search stay
    # on GF(2) and the maps: no rational arithmetic is loaded
    code = ("from unilie import (ColoredDigraph, check_witness, sign_class_report,\n"
            "                    signed_perm_isomorphic)\n"
            "g = ColoredDigraph.from_arcs(4, 3, [(1, 2, 1), (3, 4, 1), (1, 3, 2),"
            " (2, 4, 2), (1, 4, 3), (2, 3, 3)])\n"
            "report = sign_class_report(g)\n"
            "assert len(report.classes) == 2\n"
            "reps = report.orbit_representatives\n"
            "witnesses = [(a, b, w) for c in report.classes for a, b, w in c.witnesses]\n"
            "assert witnesses\n"
            "assert all(check_witness(reps[a], reps[b], w).ok for a, b, w in witnesses)\n"
            "first, second = report.classes\n"
            "assert signed_perm_isomorphic(reps[0], reps[first.members[-1]])\n"
            "assert signed_perm_isomorphic(reps[0], second.representative) is None")
    loaded = set(fresh_modules(code))
    assert "unilie.algebra" in loaded
    assert not loaded & UNUSED_OUTSIDE_ANALYZE
    assert "unilie.fileverbs" not in loaded
    assert not loaded & {"unilie.exact", "fractions"}


def test_orbit_skips_the_census_and_classification(tmp_path):
    path = tmp_path / "quat.graph"
    path.write_text(serialize.write_text(quaternionic()))
    loaded = set(fresh_unilie_modules(run_cli(["orbit", "--input", str(path)])))
    assert "unilie.algebra" in loaded
    assert not loaded & UNUSED_OUTSIDE_ANALYZE


def test_factorize_skips_families_and_classification():
    # the census and the factorizations: no parser, no file verbs, no
    # algebra and no exact arithmetic
    loaded = fresh_modules(run_cli(["factorize", "6"]))
    assert [m for m in loaded if m.split(".")[0] == "unilie"] == [
        "unilie", "unilie.cli", "unilie.enumeration", "unilie.factorizations",
        "unilie.graphs", "unilie.record"]
    assert "fractions" not in loaded


def test_classify_loads_classification():
    # every layer but the parsers, the file verbs, the group constructions,
    # the factorizations and the structure dossier
    loaded = fresh_unilie_modules(run_cli(["classify", "--qmax", "3"]))
    assert loaded == ["unilie", "unilie.algebra", "unilie.classification",
                      "unilie.cli", "unilie.enumeration", "unilie.exact",
                      "unilie.families", "unilie.gf2", "unilie.graphs",
                      "unilie.record"]


@pytest.mark.parametrize("qmax,code", [("5", 0), ("6", 4)])
def test_classify_loads_no_rational_arithmetic(qmax, code):
    # every rank, witness check and inverse on classify's path is integral,
    # the inverse of the signed permutation in the ring(2, primed) merge too
    loaded = set(fresh_modules(run_cli(["classify", "--qmax", qmax], code=code)))
    assert "unilie.exact" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_integral_inverse_loads_no_fractions():
    code = ("from unilie.exact import IntMatrix, inverse\n"
            "inv = inverse(IntMatrix.from_rows([[2, 1], [1, 1]]))\n"
            "assert inv.rows == ((1, -1), (-1, 2))\n"
            "assert all(type(x) is int for row in inv.rows for x in row)")
    assert "fractions" not in fresh_modules(code)


def test_iso_on_two_tensors_loads_classification(tmp_path):
    # distinct algebras on one support: no signed-permutation witness, so
    # the verdict comes from refine()
    paths = []
    for n, t in enumerate((quaternionic(), quaternionic(True))):
        paths += ["--input", str(tmp_path / f"{n}.alg")]
        (tmp_path / f"{n}.alg").write_text(serialize.write_text(from_graph(t)))
    loaded = fresh_unilie_modules(run_cli(["iso", *paths], code=1))
    assert "unilie.classification" in loaded


def test_family_skips_enumeration():
    loaded = fresh_unilie_modules(run_cli(["family", "kneser", "5", "2"]))
    assert "unilie.families" in loaded and "unilie.enumeration" not in loaded


@pytest.mark.parametrize("argv,constructions", [
    (["family", "heisenberg", "2"], False),
    (["family", "dihedral-bipartite", "3"], True)])
def test_family_loads_constructions_only_for_their_builders(argv, constructions):
    loaded = fresh_unilie_modules(run_cli(argv))
    assert {"unilie.families", "unilie.fileverbs"} <= set(loaded)
    assert ("unilie.constructions" in loaded) == constructions


def uncalled_functions(code: str, modules: list[str]) -> dict[str, list[str]]:
    """The module-level functions of each module that code never calls, run
    in a fresh interpreter under sys.setprofile with stdout muted."""
    script = ("import contextlib, io, sys\n"
              "called = set()\n"
              "def profile(frame, event, arg):\n"
              "    if event == 'call':\n"
              "        called.add(frame.f_code)\n"
              "sys.setprofile(profile)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "sys.setprofile(None)\nimport inspect")
    return fresh_value(script, f"{{m: sorted(n for n, f in vars(sys.modules[m]).items() "
                               f"if inspect.isfunction(f) and f.__module__ == m "
                               f"and f.__code__ not in called) for m in {modules!r}}}")


def test_classify_compiles_only_what_it_calls():
    # each function left uncalled is compiled for nothing on every run
    code = ("import unilie.cli\n"
            "assert unilie.cli.main(['classify', '--qmax', '5']) == 0")
    assert uncalled_functions(code, ["unilie.cli", "unilie.families"]) == {
        "unilie.cli": ["factorize"],
        "unilie.families": ["_colex_rank", "kneser", "vertex_count"]}


def test_census_compiles_only_what_it_calls():
    code = ("from unilie import regular_graphs, uniform_colorings\n"
            "for g in regular_graphs(7):\n"
            "    if g.q <= 6:\n"
            "        uniform_colorings(g)")
    assert uncalled_functions(code, ["unilie.enumeration"]) == {"unilie.enumeration": []}


def test_analyze_calls_every_dossier_function(tmp_path):
    # a dossier function that `analyze` no longer reports fails here
    path = tmp_path / "quat.graph"
    path.write_text(serialize.write_text(quaternionic()))
    code = ("import unilie.cli\n"
            f"assert unilie.cli.main(['analyze', '--input', {str(path)!r}]) == 0")
    assert uncalled_functions(code, ["unilie.analysis"]) == {"unilie.analysis": []}


def test_dossier_loads_no_rational_arithmetic():
    # every dimension is read off an integral rank
    code = ("from unilie.algebra import derivation_dim, from_graph, j_map\n"
            "from unilie.analysis import (ad_rank, center_dim, commutator_dim,\n"
            "    is_heisenberg_type, j_gram, totally_geodesic)\n"
            "from unilie.families import kneser\n"
            "t = from_graph(kneser(5, 2))\n"
            "assert center_dim(t) == commutator_dim(t) == 5\n"
            "assert {ad_rank(t, i) for i in range(1, 11)} == {3}\n"
            "assert {j_map(t, [int(c == k) for c in range(5)]).rank()\n"
            "        for k in range(5)} == {6}\n"
            "assert j_gram(t).rows[0] == (6, 0, 0, 0, 0)\n"
            "assert not is_heisenberg_type(t)\n"
            "# [v1, v6] = z5, and no other pair of color 5 touches v1 or v6\n"
            "assert totally_geodesic(t, [1, 6], [5]).is_totally_geodesic\n"
            "assert derivation_dim(t) == 57")
    loaded = set(fresh_modules(code))
    assert "unilie.analysis" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_sign_classes_call_every_gf2_routine():
    # a GF(2) routine the sign path no longer needs fails here instead of
    # lingering
    code = ("from unilie import regular_graphs, sign_class_report, uniform_colorings\n"
            "for g in regular_graphs(5):\n"
            "    for c in uniform_colorings(g):\n"
            "        sign_class_report(c)")
    assert uncalled_functions(code, ["unilie.gf2"]) == {"unilie.gf2": []}


def test_name_table_resolves_every_entry():
    modules = set(unilie._EXPORTS)
    assert modules == {p.stem for p in MODULES}
    for name, module in unilie._MODULE_OF.items():
        mod = importlib.import_module(f"unilie.{module}")
        expected = mod if name == module else getattr(mod, name)
        assert getattr(unilie, name) is expected, name
        # every export is a class or function defined where the table says,
        # not a re-export left behind in another module
        if name != module:
            assert expected.__module__ == f"unilie.{module}", name
    assert sorted(unilie.__all__) == sorted(unilie._MODULE_OF)
    assert set(unilie.__all__) <= set(dir(unilie))


def test_star_import_binds_every_name():
    scope = {}
    exec("from unilie import *", scope)
    assert set(unilie.__all__) <= set(scope)
    assert scope["ColoredDigraph"] is unilie.graphs.ColoredDigraph


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'canonical_coloring'"):
        unilie.canonical_coloring
    with pytest.raises(ImportError):
        exec("from unilie import sign_orbit_canonical", {})
    assert not hasattr(unilie, "_missing")


def _is_record(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that nothing else in the
    sources references, and fields of private records that no attribute
    access reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    loaded_attrs = {n.attr for n in nodes
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            used = any(id(n) not in inside and (
                (isinstance(n, ast.Name) and n.id == node.name)
                or (isinstance(n, ast.Attribute) and n.attr == node.name)
                or (isinstance(n, ast.alias) and n.name == node.name))
                for n in nodes)
            if not used:
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef) and _is_record(node):
                out += [f"{module}.{node.name}.{f.target.id}" for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                        and f.target.id not in loaded_attrs]
    return out


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text()
               for p in Path(unilie.__file__).parent.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_names_are_found():
    source = '''
from .record import Record

class _Row(Record):
    kept: int
    dropped: int

def _helper(x):
    return _helper(x - 1) if x else 0

def _used():
    return _Row(1, 2).kept
'''
    assert unread_private_names({"m": source, "n": "from m import _used\n"}) == [
        "m._Row.dropped", "m._helper"]

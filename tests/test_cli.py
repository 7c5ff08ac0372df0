"""Command line interface: verbs, exit codes, output contracts."""

import importlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilie import cli, exact, families
from unilie.algebra import GeneralLinearWitness, from_graph
from unilie.cli import main
from unilie.exact import IntMatrix
from unilie.fileverbs import FAMILY_MAX_VERTICES
from unilie.families import free_two_step, heisenberg, kneser, quaternionic, ring_algebra
from unilie.graphs import DEFAULT_SEARCH_BUDGET, ColoredDigraph
from unilie.serialize import MAX_SIZE, parse_any, to_json, write_text
from unilie.algebra import SignedPermWitness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def spawn(*argv, **kwargs):
    """`python -m unilie.cli *argv` in a fresh interpreter on this tree's src."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "unilie.cli", *argv], env=env,
                          capture_output=True, **kwargs)


def machine_payload(out):
    assert "```machine" in out
    body = out.split("```machine", 1)[1].split("```", 1)[0]
    return json.loads(body)


@pytest.fixture
def quat_file(tmp_path):
    path = tmp_path / "quat.graph"
    path.write_text(write_text(quaternionic()))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    g = ColoredDigraph.from_arcs(3, 1, [(1, 2, 1), (2, 3, 1)])
    path = tmp_path / "path.graph"
    path.write_text(write_text(g))
    return str(path)


class TestVerify:
    def test_uniform_exits_zero(self, capsys, quat_file):
        code, out = run(capsys, "verify", "--input", quat_file)
        assert code == 0
        assert "uniform" in out
        payload = machine_payload(out)
        assert payload["is_uniform"] is True
        assert (payload["p"], payload["q"], payload["r"]) == (3, 4, 2)

    def test_violations_exit_one(self, capsys, bad_file):
        code, out = run(capsys, "verify", "--input", bad_file)
        assert code == 1
        payload = machine_payload(out)
        assert payload["is_uniform"] is False
        kinds = {v["kind"] for v in payload["violations"]}
        assert "non-proper" in kinds

    def test_missing_input_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify")
        assert code == 2

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        code, _ = run(capsys, "verify", "--input", str(tmp_path / "nope.graph"))
        assert code == 2

    def test_garbage_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.graph"
        path.write_text("not a header\n")
        code, _ = run(capsys, "verify", "--input", str(path))
        assert code == 2


class TestFamily:
    @pytest.mark.parametrize(
        "args",
        [
            ("heisenberg", "3"),
            ("free", "4"),
            ("ring", "3"),
            ("ring", "2", "--variant", "primed"),
            ("quaternionic",),
            ("quaternionic", "--variant", "associate"),
            ("cyclic", "5"),
            ("kneser", "5", "2"),
            ("dihedral-bipartite", "3"),
        ],
    )
    def test_families_build_and_verify(self, capsys, args):
        code, out = run(capsys, "family", *args)
        assert code == 0
        assert machine_payload(out)["kind"] == "graph"

    def test_output_file_round_trips(self, capsys, tmp_path):
        dest = tmp_path / "ring.graph"
        code, _ = run(capsys, "family", "ring", "2", "--output", str(dest))
        assert code == 0
        g = parse_any(dest.read_text())
        assert g == ring_algebra(2)

    def test_largest_family_reads_back(self, capsys, tmp_path):
        # free(200) has p = C(200, 2) = 19,900 colors, the most of anything
        # unilie writes, so an input at that size must still be read
        dest = tmp_path / "free.graph"
        assert run(capsys, "family", "free", "200", "--output", str(dest))[0] == 0
        assert run(capsys, "verify", "--input", str(dest))[0] == 0

    def test_unknown_family_is_usage_error(self, capsys):
        code, _ = run(capsys, "family", "octonion")
        assert code == 2

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _ = run(capsys, "family", "kneser", "5")
        assert code == 2

    @pytest.mark.parametrize("args,count", [
        (("heisenberg", "99999999999999999999"), "99999999999999999999"),
        (("heisenberg", "9" * 4300), "9" * 4300),
        (("kneser", "41", "20"), "269128937220"),
        (("kneser", "9" * 4300, "9" * 4000), "9" * 4300),
        (("kneser", "15", "7"), "6435"),
        (("heisenberg", "101"), "202"),
        (("ring", "101"), "202"),
        (("free", "201"), "201"),
        (("cyclic", "201"), "201"),
        (("dihedral-bipartite", "101"), "202"),
    ])
    def test_oversized_family_is_refused_before_building(self, capsys, args, count):
        code = main(["family", *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert count in captured.err
        assert f"limit is {FAMILY_MAX_VERTICES}" in captured.err

    @pytest.mark.parametrize("args,message", [
        (("kneser", "20", "15"), "need 1 <= m and n >= 2m + 1"),
        (("kneser", "5", "300"), "need 1 <= m and n >= 2m + 1"),
        (("kneser", "9" * 4000, "9" * 4300), "need 1 <= m and n >= 2m + 1"),
        (("dihedral-bipartite", "1000"), "need odd p >= 3"),
        (("heisenberg", "-9" + "9" * 4000), "need n >= 1"),
    ])
    def test_invalid_parameters_are_named_before_the_size(self, capsys, args, message):
        code = main(["family", *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err and "vertices" not in captured.err

    @pytest.mark.parametrize("args,q", [
        (("heisenberg", "100"), 200), (("cyclic", "200"), 200),
        (("kneser", "10", "3"), 120)])
    def test_family_at_the_vertex_limit_builds(self, capsys, args, q):
        code, out = run(capsys, "family", *args)
        assert code == 0 and machine_payload(out)["q"] == q

    def test_bad_variant_is_usage_error(self, capsys):
        for args in (("heisenberg", "2", "--variant", "primed"),
                     ("quaternionic", "--variant", "primed"),
                     ("ring", "2", "--variant", "associate"),
                     ("ring", "2", "--variant", "bogus")):
            code, _ = run(capsys, "family", *args)
            assert code == 2, args


class TestAnalyze:
    def test_full_dossier(self, capsys, quat_file):
        code, out = run(capsys, "analyze", "--input", quat_file)
        assert code == 0
        assert "[v1, v2] = z1" in out
        payload = machine_payload(out)
        assert payload["derivation_dim"] == 19
        assert payload["center_dim"] == 3
        assert payload["j_ranks"] == [4, 4, 4]
        assert payload["heisenberg_type"] is True

    def test_non_uniform_still_reports(self, capsys, bad_file):
        code, out = run(capsys, "analyze", "--input", bad_file)
        assert code == 1
        payload = machine_payload(out)
        assert payload["uniform"]["is_uniform"] is False
        assert "center_dim" in payload

    def test_radical_counts_in_the_center(self, capsys, tmp_path):
        # v3 brackets with nothing, so the center is z1, z2 and v3, while
        # [n, n] is z1 alone
        path = tmp_path / "radical.alg"
        path.write_text("unilie-algebra v1 q=3 p=2\n1 2 1 +1\n")
        code, out = run(capsys, "analyze", "--input", str(path))
        assert code == 1
        payload = machine_payload(out)
        assert (payload["center_dim"], payload["commutator_dim"]) == (3, 1)
        assert "center dimension 3; commutator dimension 1" in out

    @pytest.mark.parametrize("graph", [quaternionic(), kneser(5, 2)])
    def test_two_exact_ranks(self, capsys, tmp_path, monkeypatch, graph):
        # center_dim and derivation_dim take one rank each; the ad and J
        # ranks are counts, so no dense map is ranked
        calls = []
        rank = exact.rank

        def counted(rows):
            calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(exact, "rank", counted)
        path = tmp_path / "family.graph"
        path.write_text(write_text(graph))
        code, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0 and len(calls) == 2

    @pytest.mark.parametrize("graph,dim", [(kneser(5, 2), 57), (free_two_step(6), 126)])
    def test_derivation_dim_of_larger_families(self, capsys, tmp_path, graph, dim):
        path = tmp_path / "family.graph"
        path.write_text(write_text(graph))
        code, out = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert machine_payload(out)["derivation_dim"] == dim

    def test_derivation_cells_capped(self, capsys, tmp_path):
        # within the vertex limit of `family`, but the derivation rows would
        # hold 795,960,000 cells
        path = tmp_path / "h.graph"
        assert main(["family", "heisenberg", "100", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: visited 795960000 nodes with budget 1000000\n"

    def test_tensor_input_accepted(self, capsys, tmp_path):
        path = tmp_path / "quat.alg"
        path.write_text(write_text(from_graph(quaternionic())))
        code, out = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert machine_payload(out)["heisenberg_type"] is True


class TestIso:
    def test_equivalent_graphs(self, capsys, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        a.write_text(write_text(ring_algebra(2)))
        b.write_text(write_text(ring_algebra(2, primed=True)))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 0
        assert machine_payload(out)["equivalent"] is True

    def test_strict_orientation_distinguishes(self, capsys, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        a.write_text(write_text(ring_algebra(2)))
        b.write_text(write_text(ring_algebra(2, primed=True)))
        code, out = run(
            capsys,
            "iso",
            "--input",
            str(a),
            "--input",
            str(b),
            "--strict-equivalence",
        )
        assert code == 1
        assert machine_payload(out)["equivalent"] is False

    def test_tensor_pair_with_certificate(self, capsys, tmp_path):
        a, b = tmp_path / "a.alg", tmp_path / "b.alg"
        a.write_text(write_text(from_graph(quaternionic())))
        b.write_text(write_text(from_graph(quaternionic(associate=True))))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 1
        payload = machine_payload(out)
        assert payload["isomorphic"] is False
        assert payload["certificate"]["kind"] == "nonsingular"
        assert payload["certificate"]["values"] == [True, False]
        assert "distinct, inputs 1 | 2 by nonsingular True | False" in out

    def test_tensor_pair_isomorphic(self, capsys, tmp_path):
        from unilie.algebra import apply_signs

        a, b = tmp_path / "a.alg", tmp_path / "b.alg"
        t = from_graph(quaternionic())
        a.write_text(write_text(t))
        b.write_text(write_text(apply_signs(t, (-1, 1, 1, -1, 1, 1))))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 0
        payload = machine_payload(out)
        assert payload["isomorphic"] is True
        assert payload["witness"]["witness_kind"] == "signed-perm"

    def test_witness_check_passes(self, capsys, tmp_path):
        t = from_graph(heisenberg(1))
        a, b, w = tmp_path / "a.alg", tmp_path / "b.alg", tmp_path / "w.wit"
        a.write_text(write_text(t))
        b.write_text(write_text(t))
        w.write_text(
            write_text(SignedPermWitness((1, 2), (1,), (1, 1), (1,)))
        )
        code, out = run(
            capsys, "iso", "--input", str(a), "--input", str(b), "--input", str(w)
        )
        assert code == 0
        assert machine_payload(out)["ok"] is True

    def test_witness_check_fails(self, capsys, tmp_path):
        t = from_graph(heisenberg(1))
        a, b, w = tmp_path / "a.alg", tmp_path / "b.alg", tmp_path / "w.wit"
        a.write_text(write_text(t))
        b.write_text(write_text(t))
        w.write_text(
            write_text(SignedPermWitness((1, 2), (1,), (-1, 1), (1,)))
        )
        code, out = run(
            capsys, "iso", "--input", str(a), "--input", str(b), "--input", str(w)
        )
        assert code == 1
        payload = machine_payload(out)
        assert payload["ok"] is False
        assert payload["failures"]

    def test_singular_witness_is_usage_error(self, capsys, tmp_path):
        t = from_graph(heisenberg(1))
        a, w = tmp_path / "a.alg", tmp_path / "w.wit"
        a.write_text(write_text(t))
        # rows 1 and 2 agree: rank 2 of 3
        w.write_text(write_text(GeneralLinearWitness(IntMatrix.from_rows(
            [[1, 1, 0], [1, 1, 0], [0, 0, 1]]), 2, 1)))
        assert main(["iso", "--input", str(a), "--input", str(a),
                     "--input", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: witness matrix is singular\n"

    def test_witness_with_other_counts_is_usage_error(self, capsys, tmp_path):
        # q + p = 5 on both sides, but the witness maps 4 generators and
        # 1 center direction while the algebras have q = 3 and p = 2
        a, w = tmp_path / "a.alg", tmp_path / "w.wit"
        a.write_text("unilie-algebra v1 q=3 p=2\n1 2 1 +1\n")
        w.write_text("unilie-witness v1 kind=signed-perm q=4 p=1\n"
                     "vertex-images 1 2 3 4\ncolor-images 1\n")
        assert main(["iso", "--input", str(a), "--input", str(a),
                     "--input", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: witness header says q=4 p=1, but "
                                "the algebras have q=3 p=2\n")

    def test_general_linear_witness_with_other_counts_is_usage_error(
            self, capsys, tmp_path):
        # the 5 x 5 identity fits q + p = 5, but the header splits it into
        # 4 generators and 1 center direction, the algebras into 3 and 2
        a, w = tmp_path / "a.alg", tmp_path / "w.wit"
        a.write_text("unilie-algebra v1 q=3 p=2\n1 2 1 +1\n")
        w.write_text(write_text(GeneralLinearWitness(IntMatrix.identity(5), 4, 1)))
        assert main(["iso", "--input", str(a), "--input", str(a),
                     "--input", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: witness header says q=4 p=1, but "
                                "the algebras have q=3 p=2\n")
        w.write_text(write_text(GeneralLinearWitness(IntMatrix.identity(5), 3, 2)))
        assert run(capsys, "iso", "--input", str(a), "--input", str(a),
                   "--input", str(w))[0] == 0

    def test_empty_general_linear_witness_is_usage_error(self, capsys, tmp_path):
        # q + p = 0 rows pass the row count, but a witness matrix is nonempty
        a, w = tmp_path / "a.alg", tmp_path / "w.wit"
        a.write_text("unilie-algebra v1 q=3 p=2\n1 2 1 +1\n")
        w.write_text("unilie-witness v1 kind=general-linear q=0 p=0\n")
        assert main(["iso", "--input", str(a), "--input", str(a),
                     "--input", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: bad general-linear data: witness matrix "
                                "must be square and nonempty\n")

    @pytest.mark.parametrize("form", ["text", "data"])
    def test_negative_split_is_usage_error(self, capsys, tmp_path, form):
        # q + p = 2 fits the 2 x 2 identity, but no basis has -1 generators
        a, w = tmp_path / "a.alg", tmp_path / "w.wit"
        a.write_text("unilie-algebra v1 q=1 p=1\n")
        if form == "text":
            w.write_text("unilie-witness v1 kind=general-linear q=-1 p=3\n"
                         "row 1 0\nrow 0 1\n")
        else:
            w.write_text(json.dumps({"kind": "witness", "witness_kind": "general-linear",
                                     "q": -1, "p": 3, "matrix": [[1, 0], [0, 1]]}))
        assert main(["iso", "--input", str(a), "--input", str(a),
                     "--input", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.endswith("q and p must be nonnegative\n")

    def test_cross_support_certificate(self, capsys, tmp_path):
        # same dimensions, different supports: decided by the square-norm
        # identity against r = 1, where J(z_1) kills v3 and v4
        from unilie.algebra import concatenate

        t1 = from_graph(ring_algebra(2))
        h33 = concatenate(from_graph(heisenberg(1)), from_graph(heisenberg(1)))
        a, b = tmp_path / "a.alg", tmp_path / "b.alg"
        a.write_text(write_text(t1))
        b.write_text(write_text(h33))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 1
        payload = machine_payload(out)
        assert payload["isomorphic"] is False
        assert payload["certificate"]["kind"] == "nonsingular"

    def test_undetermined_pair(self, capsys, tmp_path):
        # three commuting blocks against a bipartite one-factorization
        # coloring: same shape, equal derivation dimensions, no certificate
        from unilie.algebra import StructureTensor, concatenate

        h3 = from_graph(heisenberg(1))
        h333 = concatenate(concatenate(h3, h3), h3)
        arcs = []
        for k in range(1, 4):
            for i in range(1, 4):
                arcs.append((i, 4 + (i + k - 2) % 3, k, 1))
        k33 = StructureTensor.from_entries(6, 3, arcs)
        a, b = tmp_path / "a.alg", tmp_path / "b.alg"
        a.write_text(write_text(h333))
        b.write_text(write_text(k33))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 4
        assert "undetermined" in out
        assert machine_payload(out)["isomorphic"] is None

    def test_non_uniform_pair_is_undetermined(self, capsys, tmp_path):
        # same shape and derivation dimension, no signed permutation; the
        # square-norm certificate is defined for uniform presentations only
        a, b = tmp_path / "a.alg", tmp_path / "b.alg"
        a.write_text("unilie-algebra v1 q=3 p=2\n1 2 2 +1\n1 3 2 -1\n2 3 1 +1\n")
        b.write_text("unilie-algebra v1 q=3 p=2\n1 2 1 +1\n2 3 2 +1\n")
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 4
        assert machine_payload(out)["isomorphic"] is None

    def test_budget_exit(self, capsys, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        a.write_text(write_text(ring_algebra(2)))
        b.write_text(write_text(ring_algebra(2, primed=True)))
        code, _ = run(
            capsys, "iso", "--input", str(a), "--input", str(b), "--budget", "1"
        )
        assert code == 3

    def test_refine_respects_the_derivation_cap(self, capsys, tmp_path):
        # equal (p, q) and no signed-permutation witness, so refine compares
        # derivation dimensions, whose rows would hold 795,960,000 cells
        a, b = tmp_path / "a.alg", tmp_path / "b.alg"
        a.write_text(write_text(from_graph(heisenberg(100))))
        b.write_text(write_text(from_graph(ColoredDigraph(200, 1, heisenberg(99).arcs))))
        assert main(["iso", "--input", str(a), "--input", str(b)]) == 3
        assert capsys.readouterr().out == ""

    def test_search_depth_exit(self, capsys, tmp_path):
        # 1,000 vertices, more than the interpreter's recursion limit, place
        # one by one in the mapping search; `family` refuses a graph this
        # large, so the file is written through the library
        path = tmp_path / "h.graph"
        path.write_text(write_text(heisenberg(500)))
        code, out = run(capsys, "iso", "--input", str(path), "--input", str(path))
        assert code == 0
        assert machine_payload(out)["vertex_images"] == list(range(1, 1001))


class TestOrbit:
    def test_quaternionic_support(self, capsys, quat_file):
        code, out = run(capsys, "orbit", "--input", quat_file)
        assert code == 0
        assert "4 diagonal sign orbit(s), 2 class(es)" in out
        payload = machine_payload(out)
        assert payload["orbit_count"] == 4
        assert len(payload["classes"]) == 2
        flags = sorted(c["heisenberg"] for c in payload["classes"])
        assert flags == [False, True]

    def test_non_uniform_rejected(self, capsys, bad_file):
        code, _ = run(capsys, "orbit", "--input", bad_file)
        assert code == 1

    def test_budget_bounds_the_sign_orbits(self, capsys, tmp_path):
        # kneser(6, 2) has 2^21 diagonal sign orbits
        path = tmp_path / "k.graph"
        path.write_text(write_text(kneser(6, 2)))
        assert main(["orbit", "--input", str(path), "--budget", "50"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: visited 2097152 nodes with budget 50\n"

    def test_search_depth_exit(self, capsys, tmp_path):
        path = tmp_path / "r.graph"
        path.write_text(write_text(ring_algebra(500)))
        code, out = run(capsys, "orbit", "--input", str(path))
        assert code == 0
        assert "2 diagonal sign orbit(s), 2 class(es)" in out


class TestClassify:
    def test_five_generator_table(self, capsys):
        code, out = run(capsys, "classify", "--qmax", "5")
        assert code == 0
        assert "12" in out
        payload = machine_payload(out)
        assert len(payload["classes"]) == 12
        families = {f for row in payload["classes"] for f in row["family"]}
        assert "quaternionic-associate" in families
        assert any(len(row["family"]) == 2 for row in payload["classes"])

    def test_certificates_listed(self, capsys):
        _, out = run(capsys, "classify", "--qmax", "5")
        assert "derivation-dimension" in out
        assert "4 | 5 by nonsingular False | True" in out
        assert "6 | 7 by nonsingular True | False" in out

    def test_byte_determinism(self, capsys):
        _, out1 = run(capsys, "classify", "--qmax", "5")
        _, out2 = run(capsys, "classify", "--qmax", "5")
        assert out1 == out2

    @pytest.mark.slow
    def test_six_generators_undetermined(self, capsys):
        code, out = run(capsys, "classify", "--qmax", "6")
        assert code == 4
        payload = machine_payload(out)
        assert len(payload["classes"]) == 92
        blocks = payload["open_blocks"]
        assert len(blocks) == 12
        assert sum(len(b["cases"]) * (len(b["cases"]) - 1) // 2 for b in blocks) == 417
        human = out.split("open blocks", 1)[1].split("```machine")[0]
        assert len(human.strip().splitlines()) == 1 + 12

    @pytest.mark.slow
    def test_every_split_rechecks_through_iso(self, capsys, tmp_path):
        # iso on the first cases of the first two parts of each split
        # certifies them distinct by the same invariant and values; each
        # representative is read from the machine block as it stands
        _, out = run(capsys, "classify", "--qmax", "6")
        payload = machine_payload(out)
        reps = {row["case"]: row["representative"] for row in payload["classes"]}
        assert len(payload["splits"]) == 8
        for split in payload["splits"]:
            paths = []
            for part in split["cases"][:2]:
                paths += ["--input", str(tmp_path / f"{part[0]}.json")]
                (tmp_path / f"{part[0]}.json").write_text(json.dumps(reps[part[0]]))
            code, iso_out = run(capsys, "iso", *paths)
            assert code == 1, split
            cert = machine_payload(iso_out)["certificate"]
            assert cert["kind"] == split["kind"]
            assert cert["values"] == split["values"][:2]

    @pytest.mark.parametrize("qmax,code", [("5", 0), ("6", 4)])
    def test_golden_output(self, qmax, code):
        # the stdout of a fresh `unilie classify`, byte for byte; an
        # intentional change of the report rewrites the file
        proc = spawn("classify", "--qmax", qmax, timeout=300)
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                               f"classify_qmax{qmax}.txt"), "rb") as fh:
            assert proc.stdout == fh.read()
        assert proc.returncode == code, proc.stderr

    def test_budget_exit(self, capsys):
        code, _ = run(capsys, "classify", "--qmax", "5", "--budget", "50")
        assert code == 3

    def test_qmax_beyond_census_is_usage_error(self, capsys):
        assert main(["classify", "--qmax", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q <= 8" in captured.err

    @pytest.mark.parametrize("qmax", ["-2", "0"])
    def test_qmax_below_one_is_usage_error(self, capsys, qmax):
        assert main(["classify", "--qmax", qmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be at least 1, got {qmax}" in captured.err


class TestFactorize:
    def test_even_counts(self, capsys):
        code, out = run(capsys, "factorize", "4")
        assert code == 0
        payload = machine_payload(out)
        assert payload["labeled_count"] == 1
        assert len(payload["classes"]) == 1

    def test_odd_counts(self, capsys):
        code, out = run(capsys, "factorize", "5")
        assert code == 0
        payload = machine_payload(out)
        assert payload["labeled_count"] == 6
        assert len(payload["classes"]) == 1

    def test_single_edge_case(self, capsys):
        code, out = run(capsys, "factorize", "2")
        assert code == 0
        assert machine_payload(out)["labeled_count"] == 1

    def test_out_of_range_is_usage_error(self, capsys):
        code, _ = run(capsys, "factorize", "9")
        assert code == 2
        code, _ = run(capsys, "factorize", "1")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-3", "1", "9"])
    def test_out_of_range_names_supported_range(self, capsys, n):
        assert main(["factorize", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: factorize supports n from 2 to 8, got {n}\n"

    def test_budget_exit(self, capsys):
        code, _ = run(capsys, "factorize", "6", "--budget", "20")
        assert code == 3


class TestExport:
    def test_dot_default(self, capsys, quat_file):
        code, out = run(capsys, "export", "--input", quat_file)
        assert code == 0
        assert "graph unilie {" in out
        assert 'dir=forward' in out

    def test_data_format(self, capsys, quat_file, tmp_path):
        dest = tmp_path / "quat.json"
        code, _ = run(
            capsys,
            "export",
            "--input",
            quat_file,
            "--format",
            "data",
            "--output",
            str(dest),
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["kind"] == "graph"

    def test_witness_data_keeps_the_header(self, capsys, tmp_path):
        # the header's q and p say how the basis splits into generators and
        # center, which a general-linear matrix alone does not
        from unilie.classification import ring_sum_witness
        _, _, gl = ring_sum_witness()
        sp = SignedPermWitness((2, 1, 3, 4), (3, 1, 2), (1, -1, 1, 1), (1, 1, -1))
        for w, q, p, kind in ((gl, 4, 2, "general-linear"), (sp, 4, 3, "signed-perm")):
            path = tmp_path / f"{kind}.wit"
            path.write_text(write_text(w))
            code, out = run(capsys, "export", "--input", str(path), "--format", "data")
            assert code == 0
            body = json.loads(out.split("```machine", 1)[0])
            assert body == machine_payload(out) == w.to_data()
            assert (body["q"], body["p"], body["witness_kind"]) == (q, p, kind)

    def test_text_format_round_trips(self, capsys, quat_file, tmp_path):
        dest = tmp_path / "copy.graph"
        code, _ = run(
            capsys,
            "export",
            "--input",
            quat_file,
            "--format",
            "text",
            "--output",
            str(dest),
        )
        assert code == 0
        assert parse_any(dest.read_text()) == quaternionic()


class TestDataInput:
    """`--input` reads the data form that `export --format data` writes."""

    OBJECTS = {
        "graph": quaternionic(),
        "algebra": from_graph(quaternionic()),
        "signed-perm": SignedPermWitness((2, 1, 3, 4), (3, 1, 2), (1, -1, 1, 1),
                                         (1, 1, -1)),
        "general-linear": GeneralLinearWitness(IntMatrix.identity(5), 3, 2),
    }

    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    def test_data_export_reads_back_as_the_same_object(self, capsys, tmp_path, kind):
        obj = self.OBJECTS[kind]
        data = tmp_path / "obj.json"
        data.write_text(to_json(obj))
        again = tmp_path / "again.json"
        code, _ = run(capsys, "export", "--input", str(data), "--format", "data",
                      "--output", str(again))
        assert code == 0
        assert again.read_text() == data.read_text()
        back = parse_any(again.read_text())
        assert back == obj
        assert (back.q, back.p) == (obj.q, obj.p)

    @pytest.mark.parametrize("kind", ["graph", "algebra"])
    def test_text_export_of_a_data_file_is_the_text_file(self, capsys, tmp_path, kind):
        obj = self.OBJECTS[kind]
        text = write_text(obj)
        src, data, back = (tmp_path / name for name in ("obj.txt", "obj.json", "back.txt"))
        src.write_text(text)
        assert run(capsys, "export", "--input", str(src), "--format", "data",
                   "--output", str(data))[0] == 0
        assert run(capsys, "export", "--input", str(data), "--format", "text",
                   "--output", str(back))[0] == 0
        assert back.read_bytes() == src.read_bytes()

    def test_iso_checks_data_files(self, capsys, tmp_path):
        from unilie.classification import ring_sum_witness

        paths = []
        for name, obj in zip(("a", "b", "w"), ring_sum_witness()):
            (tmp_path / f"{name}.json").write_text(to_json(obj))
            paths += ["--input", str(tmp_path / f"{name}.json")]
        code, out = run(capsys, "iso", *paths)
        assert code == 0
        assert machine_payload(out) == {"mode": "check-witness", "ok": True,
                                        "failures": []}

    def test_iso_witness_rechecks_from_its_machine_block(self, capsys, tmp_path):
        from unilie.algebra import apply_signs

        t = from_graph(quaternionic())
        a, b, w = tmp_path / "a.alg", tmp_path / "b.alg", tmp_path / "w.json"
        a.write_text(write_text(t))
        b.write_text(write_text(apply_signs(t, (-1, 1, 1, -1, 1, 1))))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b))
        assert code == 0
        witness = machine_payload(out)["witness"]
        assert (witness["q"], witness["p"]) == (4, 3)
        w.write_text(json.dumps(witness))
        code, out = run(capsys, "iso", "--input", str(a), "--input", str(b),
                        "--input", str(w))
        assert code == 0
        assert machine_payload(out)["ok"] is True

    def test_data_witness_with_other_counts_is_usage_error(self, capsys, tmp_path):
        a, w = tmp_path / "a.alg", tmp_path / "w.json"
        a.write_text("unilie-algebra v1 q=3 p=2\n1 2 1 +1\n")
        w.write_text(to_json(GeneralLinearWitness(IntMatrix.identity(5), 4, 1)))
        assert main(["iso", "--input", str(a), "--input", str(a),
                     "--input", str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: witness header says q=4 p=1, but "
                                "the algebras have q=3 p=2\n")

    # which malformed data each message names is pinned in test_serialize; here
    # one input per verb pins that a ParseError is exit 2 with one usage line
    @pytest.mark.parametrize("verb,text", [
        ("verify", '{"kind": ' + "[" * 100000),
        ("export", '{"kind": "witness", "witness_kind": "general-linear", "q": 1, '
                   '"p": 0, "matrix": [[NaN]]}'),
        ("iso", '{"kind": "witness", "witness_kind": "general-linear", "q": 2, '
                '"p": 1, "matrix": [[1, 0, 0], [0, 1], [0, 0, 1]]}'),
        ("iso", '{"kind": "witness", "witness_kind": "general-linear", "q": 2, '
                '"p": 1, "matrix": [[1, 0, 0], [0, 1, 0, 9], [0, 0, 1]]}'),
    ], ids=["deep-nesting", "nan-entry", "ragged-short", "ragged-long"])
    def test_bad_data_is_usage_error(self, capsys, tmp_path, quat_file, verb, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = [verb, "--input", str(bad)]
        if verb == "export":
            argv += ["--format", "data"]
        if verb == "iso":
            argv = [verb, "--input", quat_file, "--input", quat_file, "--input", str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestUsage:
    def test_unknown_verb(self, capsys):
        code, _ = run(capsys, "summon")
        assert code == 2

    @pytest.mark.parametrize("argv", [["factorize", "4"], ["classify", "--qmax", "3"]])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv, target):
        path = tmp_path / "missing" / "x" if target == "missing directory" else tmp_path
        assert main(argv + ["--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: cannot write {path}: ")
        assert captured.err.count("\n") == 1

    def test_no_verb(self, capsys):
        code, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_rejected(self, capsys, quat_file, budget):
        code, out = run(capsys, "orbit", "--input", quat_file, "--budget", budget)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("verb", ["verify", "analyze", "iso", "orbit", "export"])
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, verb):
        # _read_inputs turns the parse error into a usage error
        path = tmp_path / "bad.txt"
        path.write_text("unilie-graph v1 q=2 p=1\n1 2\n")
        argv = [verb] + ["--input", str(path)] * (2 if verb == "iso" else 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: arc line needs 3 fields: '1 2'\n"

    @pytest.mark.parametrize("verb", ["verify", "analyze", "iso", "orbit", "export"])
    def test_non_utf8_input_is_usage_error(self, capsys, tmp_path, verb):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xffunilie-graph v1 q=2 p=1\n1 2 1\n")
        argv = [verb] + ["--input", str(path)] * (2 if verb == "iso" else 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: cannot read {path}: "
                                "not UTF-8 text (byte 0 is 0xff)\n")

    @pytest.mark.parametrize("body", [
        "unilie-graph v1 q=2 p=1\n1 2 x\n",
        "unilie-algebra v1 q=2 p=1\n1 2 x +1\n",
    ])
    def test_non_integer_field_is_usage_error(self, capsys, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        assert main(["verify", "--input", str(path)]) == 2
        assert "non-integer" in capsys.readouterr().err

    @pytest.mark.parametrize("line,size,count", [
        ("vertex-images 1 2 3", "q=2", 3),
        ("color-images 1 2", "p=1", 2),
    ])
    def test_witness_image_count_names_header(self, capsys, tmp_path, line,
                                              size, count):
        g, w = tmp_path / "h.graph", tmp_path / "w.txt"
        g.write_text(write_text(heisenberg(1)))
        w.write_text(f"unilie-witness v1 kind=signed-perm q=2 p=1\n{line}\n")
        code = main(["iso", "--input", str(g), "--input", str(g),
                     "--input", str(w)])
        err = capsys.readouterr().err
        q, p = (count, 1) if size == "q=2" else (2, count)
        assert code == 2
        assert err == (f"usage error: bad signed-perm data: images give q={q} p={p}, "
                       "not q=2 p=1\n")
        assert "signs" not in err

    @pytest.mark.parametrize("body,message", [
        ("unilie-graph v1 q=3 p=1 q=4 bogus=x\n1 2 1\n", "repeated header field 'q'"),
        ("unilie-graph v1 q=2 p=1 bogus=x\n1 2 1\n", "unknown header field 'bogus'"),
        ("unilie-algebra v1 q=2 p=1 p=1\n1 2 1 +1\n", "repeated header field 'p'"),
        ("unilie-witness v1 kind=signed-perm q=4 p=1\nvertex-image 2 1 3 4\n",
         "unknown witness line 'vertex-image'"),
        ("unilie-witness v1 kind=signed-perm q=2 p=1\nvertex-images 2 1\n"
         "vertex-images 1 2\n", "repeated witness line 'vertex-images'"),
        ("unilie-witness v1 kind=signed-perm q=2 p=1\nvertex-images 2 1\n"
         "vertex-cycles (1 2)\n", "not both"),
    ], ids=["graph-repeated-q", "graph-unknown-field", "algebra-repeated-p",
             "witness-unknown-line", "witness-repeated-line",
             "witness-images-and-cycles"])
    def test_unknown_or_repeated_field_is_usage_error(self, capsys, tmp_path,
                                                      body, message):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        code = main(["export", "--input", str(path), "--format", "data"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_witness_exponent_is_refused_promptly(self, tmp_path):
        # Fraction("1e999999999") would build a billion-digit integer; the
        # timeout turns such a stall into a failure
        g, w = tmp_path / "h.graph", tmp_path / "w.txt"
        g.write_text(write_text(heisenberg(1)))
        w.write_text("unilie-witness v1 kind=general-linear q=2 p=1\n"
                     "row 1e999999999 0 0\nrow 0 1 0\nrow 0 0 1\n")
        proc = spawn("iso", "--input", str(g), "--input", str(g), "--input", str(w),
                     text=True, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("usage error: exponent notation is not accepted: "
                               "'1e999999999'\n")

    @pytest.mark.parametrize("form", ["text", "data"])
    @pytest.mark.parametrize("q,p", [(100_000_000, 1), (2, 100_000_000)])
    def test_size_above_the_limit_is_usage_error(self, tmp_path, form, q, p):
        # later steps build tables of q or p entries; the cap on the address
        # space turns an attempt to build them into a fast failure
        path = tmp_path / "big.graph"
        path.write_text(f"unilie-graph v1 q={q} p={p}\n1 2 1\n" if form == "text" else
                        json.dumps({"kind": "graph", "q": q, "p": p, "arcs": [[1, 2, 1]]}))
        cap = 1 << 30
        proc = spawn("verify", "--input", str(path), text=True, timeout=60,
                     preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"usage error: q and p may be at most {MAX_SIZE}, "
                               f"got q={q} p={p}\n")

    @pytest.mark.parametrize("entry", ["1/0", "abc"])
    def test_bad_witness_entry_is_usage_error(self, capsys, tmp_path, entry):
        g, w = tmp_path / "h.graph", tmp_path / "w.txt"
        g.write_text(write_text(heisenberg(1)))
        w.write_text("unilie-witness v1 kind=general-linear q=2 p=1\n"
                     f"row {entry} 0 0\nrow 0 1 0\nrow 0 0 1\n")
        code, _ = run(capsys, "iso", "--input", str(g), "--input", str(g),
                      "--input", str(w))
        assert code == 2


HELP_TEXT = """\
usage: unilie [-h]
              {verify,family,analyze,iso,orbit,classify,factorize,export} ...

uniformly colored digraphs and their nilpotent Lie algebras

positional arguments:
  {verify,family,analyze,iso,orbit,classify,factorize,export}
    verify              uniformity report
    family              emit a construction
    analyze             full structure dossier
    iso                 equivalence/isomorphism/witness check
    orbit               diagonal sign classes
    classify            small-q classification
    factorize           matching factorizations of K_n
    export              rewrite an object in a format

options:
  -h, --help            show this help message and exit
"""

CLASSIFY_HELP_TEXT = """\
usage: unilie classify [-h] [--output OUTPUT] [--budget BUDGET] [--qmax QMAX]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the report to this file
  --budget BUDGET  search node budget before aborting with exit 3
  --qmax QMAX
"""


class TestParserEdges:
    """What the parser decides before a verb runs: help text, usage exits and
    the budget default."""

    @pytest.mark.parametrize("argv,text", [
        (["--help"], HELP_TEXT), (["classify", "--help"], CLASSIFY_HELP_TEXT)])
    def test_help_text(self, capsys, monkeypatch, argv, text):
        monkeypatch.setenv("COLUMNS", "80")
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == text

    @pytest.mark.parametrize("argv", [
        ["summon"], ["classify", "--qmax", "0"], ["factorize"], ["family"]])
    def test_parser_rejections_exit_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("usage: unilie")

    @pytest.mark.parametrize("argv,budget", [
        (["classify"], DEFAULT_SEARCH_BUDGET),
        (["factorize", "4"], DEFAULT_SEARCH_BUDGET),
        (["orbit", "--input", "x"], DEFAULT_SEARCH_BUDGET),
        (["iso", "--input", "x", "--input", "y"], DEFAULT_SEARCH_BUDGET),
        (["iso", "--budget", "7"], 7),
        (["classify", "--budget", "1"], 1),
    ])
    def test_budget_default(self, monkeypatch, argv, budget):
        seen = []
        module = importlib.import_module(f"unilie.{cli._VERBS[argv[0]][1]}")
        monkeypatch.setattr(module, argv[0], lambda args: seen.append(args.budget) or 0)
        assert main(argv) == 0
        assert seen == [budget]

    @pytest.mark.parametrize("name", sorted(families._FAMILIES))
    def test_family_builders_resolve_by_name(self, name):
        module, builder, variant, accepts, _, _ = families._FAMILIES[name]
        fn = getattr(importlib.import_module(f"unilie.{module}"), builder)
        assert callable(fn) and fn.__name__ == builder
        params = {0: (), 1: (3,), 2: (5, 2)}[accepts.__code__.co_argcount]
        assert families.vertex_count(name, *params) == fn(*params).q
        if variant is not None:
            assert fn(*params, **{variant: True}).q == fn(*params).q


# every verb with arguments that succeed, and the flags the verb does not read
VERB_ARGS = {
    "verify": ["--input", "QUAT"],
    "family": ["heisenberg", "1"],
    "analyze": ["--input", "QUAT"],
    "iso": ["--input", "QUAT", "--input", "QUAT"],
    "orbit": ["--input", "QUAT"],
    "classify": ["--qmax", "3"],
    "factorize": ["4"],
    "export": ["--input", "QUAT"],
}
IGNORED_FLAGS = [
    ("verify", ["--format", "text"]), ("verify", ["--budget", "5"]),
    ("verify", ["--strict-equivalence"]),
    ("family", ["--input", "QUAT"]), ("family", ["--budget", "5"]),
    ("family", ["--strict-equivalence"]),
    ("analyze", ["--format", "text"]), ("analyze", ["--budget", "5"]),
    ("analyze", ["--strict-equivalence"]),
    ("iso", ["--format", "text"]),
    ("orbit", ["--format", "text"]), ("orbit", ["--strict-equivalence"]),
    ("classify", ["--input", "QUAT"]), ("classify", ["--format", "dot"]),
    ("classify", ["--strict-equivalence"]),
    ("factorize", ["--input", "QUAT"]), ("factorize", ["--format", "text"]),
    ("factorize", ["--strict-equivalence"]),
    ("export", ["--budget", "5"]), ("export", ["--strict-equivalence"]),
]


def fill(argv, files):
    return [files.get(a, a) for a in argv]


class TestPerVerbFlags:
    @pytest.mark.parametrize("verb,flag", IGNORED_FLAGS)
    def test_ignored_flag_is_usage_error(self, capsys, quat_file, verb, flag):
        files = {"QUAT": quat_file}
        assert run(capsys, verb, *fill(VERB_ARGS[verb], files))[0] == 0
        code, out = run(capsys, verb, *fill(VERB_ARGS[verb] + flag, files))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--input", "WIT"],
        ["analyze", "--input", "WIT"],
        ["orbit", "--input", "WIT"],
        ["export", "--input", "WIT"],
        ["export", "--input", "WIT", "--format", "text"],
        ["iso", "--input", "WIT", "--input", "QUAT"],
        ["iso", "--input", "QUAT", "--input", "WIT", "--input", "WIT"],
    ])
    def test_witness_is_not_a_graph_or_algebra(self, capsys, tmp_path,
                                               quat_file, argv):
        wit = tmp_path / "w.wit"
        wit.write_text(write_text(
            SignedPermWitness((1, 2, 3, 4), (1, 2, 3), (1, 1, 1, 1), (1, 1, 1))))
        code, out = run(capsys, *fill(argv, {"QUAT": quat_file, "WIT": str(wit)}))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--input", "ALG", "--input", "ALG"],
        ["--input", "QUAT", "--input", "ALG"],
        ["--input", "QUAT", "--input", "QUAT", "--input", "WIT"],
    ])
    def test_strict_equivalence_needs_two_graphs(self, capsys, tmp_path,
                                                 quat_file, argv):
        alg, wit = tmp_path / "quat.alg", tmp_path / "id.wit"
        alg.write_text(write_text(from_graph(quaternionic())))
        wit.write_text(write_text(
            SignedPermWitness((1, 2, 3, 4), (1, 2, 3), (1, 1, 1, 1), (1, 1, 1))))
        argv = ["iso"] + fill(argv, {"QUAT": quat_file, "ALG": str(alg),
                                     "WIT": str(wit)})
        assert run(capsys, *argv)[0] == 0
        assert main(argv + ["--strict-equivalence"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --strict-equivalence needs two graph files\n"


# ---------------------------------------------------------------------------
# exit-code contract under mutated input files

FUZZ_OBJECTS = {
    "graph": quaternionic(),
    "algebra": from_graph(quaternionic()),
    "signed-perm": SignedPermWitness((2, 1, 3, 4), (1, 3, 2), (1, -1, 1, 1), (1, 1, -1)),
    "general-linear": GeneralLinearWitness(IntMatrix.identity(7), 4, 3),
}
# each object in its text form and, under "<kind>-data", in its data form
FUZZ_FILES = {
    "graph": write_text(FUZZ_OBJECTS["graph"]),
    "algebra": write_text(FUZZ_OBJECTS["algebra"]),
    "signed-perm": write_text(FUZZ_OBJECTS["signed-perm"]),
    "general-linear": write_text(FUZZ_OBJECTS["general-linear"]),
    **{f"{kind}-data": to_json(obj) for kind, obj in FUZZ_OBJECTS.items()},
}
FUZZ_TOKENS = ["0", "1", "-1", "+1", "4", "x", "1/0", "1/2", "q=3", "p=0",
               "kind=general-linear", "kind=signed-perm", "vertex-images", "row",
               "(1 2)", "#", "{", "[", "]", "NaN", "1e400", "0.5", "null", '"x"']
MUTATION = st.tuples(
    st.sampled_from(["digit", "token", "delete", "duplicate", "append"]),
    st.integers(0, 63), st.integers(0, 63), st.sampled_from(FUZZ_TOKENS))


def mutate(text, ops):
    lines = text.splitlines()
    for op, i, j, token in ops:
        if not lines:
            break
        i %= len(lines)
        line, fields = lines[i], lines[i].split()
        if op == "digit":
            spots = [m for m, ch in enumerate(line) if ch.isdigit()]
            if spots:
                m = spots[j % len(spots)]
                lines[i] = line[:m] + str(j % 10) + line[m + 1:]
        elif op == "token" and fields:
            fields[j % len(fields)] = token
            lines[i] = " ".join(fields)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, line)
        elif op == "append":
            lines[i] = line + " " + token
    return "\n".join(lines) + "\n"


@settings(max_examples=160)
@given(kind=st.sampled_from(sorted(FUZZ_FILES)),
       ops=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_files_keep_exit_contract(kind, ops):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in FUZZ_FILES.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(mutate(text, ops) if name == kind else text)
        # iso reads the mutated file in the place of its kind
        iso_inputs = {"graph": paths["graph"], "algebra": paths["algebra"],
                      "witness": paths["signed-perm"]}
        base = kind.removesuffix("-data")
        iso_inputs[base if base in iso_inputs else "witness"] = paths[kind]
        runs = [[verb, "--input", paths[kind]]
                for verb in ("verify", "analyze", "orbit", "export")]
        runs.append(["iso", "--input", iso_inputs["graph"], "--input",
                     iso_inputs["algebra"], "--input", iso_inputs["witness"]])
        for argv in runs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3, 4), argv

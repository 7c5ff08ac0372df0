"""Text formats: round trips, comment handling, and parse failure modes."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilie.algebra import (
    SignedPermWitness,
    apply_signs,
    check_witness,
    from_graph,
    lift_automorphism,
)
from unilie.linear import GeneralLinearWitness
from unilie.classification import ring_sum_witness
from unilie.exact import IntMatrix
from unilie.families import heisenberg, quaternionic, ring_algebra
from unilie.graphs import ColoredDigraph, automorphisms
from unilie.serialize import (
    ParseError,
    bracket_table,
    from_data,
    parse_any,
    to_json,
    write_dot,
    write_text,
)

GRAPHS = [heisenberg(1), heisenberg(3), quaternionic(), ring_algebra(3, primed=True)]


class TestGraphFormat:
    @pytest.mark.parametrize("g", GRAPHS)
    def test_round_trip(self, g):
        assert parse_any(write_text(g)) == g

    def test_header_first_line(self):
        text = write_text(quaternionic())
        assert text.splitlines()[0] == "unilie-graph v1 q=4 p=3"

    def test_comments_and_blanks_ignored(self):
        text = "# a note\nunilie-graph v1 q=2 p=1\n\n# body\n1 2 1\n"
        assert parse_any(text) == heisenberg(1)

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_any("1 2 1\n")

    def test_rejects_bad_arity(self):
        with pytest.raises(ParseError):
            parse_any("unilie-graph v1 q=2 p=1\n1 2\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_any("unilie-graph v1 q=2 p=1\n1 3 1\n")

    def test_rejects_non_integer_field(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_any("unilie-graph v1 q=2 p=1\n1 2 x\n")


class TestTensorFormat:
    @pytest.mark.parametrize("g", GRAPHS)
    def test_round_trip(self, g):
        t = from_graph(g)
        assert parse_any(write_text(t)) == t

    def test_signs_in_text(self):
        t = from_graph(quaternionic())
        text = write_text(t)
        assert "2 4 2 -1" in text
        assert "1 2 1 +1" in text

    def test_bare_one_accepted_as_sign(self):
        text = "unilie-algebra v1 q=2 p=1\n1 2 1 1\n"
        assert parse_any(text) == from_graph(heisenberg(1))

    def test_rejects_zero_sign(self):
        with pytest.raises(ParseError):
            parse_any("unilie-algebra v1 q=2 p=1\n1 2 1 0\n")

    def test_rejects_non_integer_field(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_any("unilie-algebra v1 q=2 p=1\n1 x 1 +1\n")

    def test_bracket_table_content(self):
        table = bracket_table(from_graph(heisenberg(2)))
        assert table.splitlines() == ["[v1, v3] = z1", "[v2, v4] = z1"]
        quat_table = bracket_table(from_graph(quaternionic()))
        assert "[v2, v4] = -z2" in quat_table


class TestWitnessFormat:
    def test_signed_perm_round_trip(self):
        w = SignedPermWitness((2, 1, 3, 4), (1, 3, 2), (1, -1, 1, 1), (1, 1, -1))
        parsed = parse_any(write_text(w))
        assert (parsed.q, parsed.p) == (4, 3)
        assert parsed == w

    def test_general_linear_round_trip(self):
        _, _, w = ring_sum_witness()
        parsed = parse_any(write_text(w))
        assert (parsed.q, parsed.p) == (4, 2)
        assert parsed == w

    def test_fraction_entries_survive(self):
        m = IntMatrix.from_rows([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
        w = GeneralLinearWitness(m, 2, 1)
        parsed = parse_any(write_text(w))
        assert parsed.to_matrix()[0, 0] == Fraction(1, 2)

    def test_cycle_notation_accepted(self):
        text = (
            "unilie-witness v1 kind=signed-perm q=4 p=3\n"
            "vertex-cycles (1 2)(3 4)\n"
            "color-cycles (2 3)\n"
        )
        w = parse_any(text)
        assert w.vertex_images == (2, 1, 4, 3)
        assert w.color_images == (1, 3, 2)
        # omitted sign lines default to all plus
        assert w.vertex_signs == (1, 1, 1, 1)
        assert w.color_signs == (1, 1, 1)

    def test_bare_sign_tokens_accepted(self):
        text = (
            "unilie-witness v1 kind=signed-perm q=2 p=1\n"
            "vertex-images 1 2\n"
            "vertex-signs + -\n"
            "color-images 1\n"
            "color-signs -1\n"
        )
        w = parse_any(text)
        assert w.vertex_signs == (1, -1)
        assert w.color_signs == (-1,)

    def test_rejects_non_permutation(self):
        text = (
            "unilie-witness v1 kind=signed-perm q=2 p=1\n"
            "vertex-images 1 1\n"
            "color-images 1\n"
        )
        with pytest.raises(ParseError):
            parse_any(text)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_any("unilie-witness v1 kind=mystery q=2 p=1\n")

    @pytest.mark.parametrize("entry", ["1/0", "abc"])
    def test_rejects_bad_matrix_entry(self, entry):
        text = ("unilie-witness v1 kind=general-linear q=1 p=1\n"
                f"row {entry} 0\nrow 0 1\n")
        with pytest.raises(ParseError) as info:
            parse_any(text)
        assert str(info.value) == f"matrix entries must be rationals, got '{entry}'"

    @pytest.mark.parametrize("entry", ["1e9", "1E9", "-2.5e-3", "1e999999999"])
    def test_rejects_exponent_notation(self, entry):
        # Fraction(entry) costs time that grows with the exponent
        text = ("unilie-witness v1 kind=general-linear q=1 p=1\n"
                f"row {entry} 0\nrow 0 1\n")
        with pytest.raises(ParseError, match="exponent notation"):
            parse_any(text)
        payload = GeneralLinearWitness(IntMatrix.identity(2), 1, 1).to_data()
        payload["matrix"][0][0] = entry
        with pytest.raises(ParseError, match="exponent notation"):
            from_data(payload)

    @pytest.mark.parametrize("entry", ["3", "-3", "+3", "1/2", "-4/6", "0.5",
                                       ".5", "5.", "-0.125", "007"])
    def test_exponent_free_entries_accepted(self, entry):
        text = ("unilie-witness v1 kind=general-linear q=1 p=1\n"
                f"row {entry} 0\nrow 0 1\n")
        assert parse_any(text).to_matrix()[0, 0] == Fraction(entry)
        payload = GeneralLinearWitness(IntMatrix.identity(2), 1, 1).to_data()
        payload["matrix"][0][0] = entry
        assert from_data(payload).to_matrix()[0, 0] == Fraction(entry)

    def test_non_square_witness_is_refused(self):
        # a 2x3 matrix once wrote a file that the text reader refused
        with pytest.raises(ValueError, match="square"):
            GeneralLinearWitness(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), 1, 1)

    @pytest.mark.parametrize("q,p", [(2, 2), (1, 0), (0, 0), (5, 1)])
    def test_witness_size_must_be_q_plus_p(self, q, p):
        with pytest.raises(ValueError, match=f"^matrix must be {q + p}x{q + p}$"):
            GeneralLinearWitness(IntMatrix.identity(3), q, p)

    @pytest.mark.parametrize("matrix", [[["1", "0", "0"]], []])
    def test_data_form_refuses_non_square_and_empty_matrices(self, matrix):
        with pytest.raises(ParseError, match="square and nonempty"):
            from_data({"kind": "witness", "witness_kind": "general-linear",
                       "q": 2, "p": 1, "matrix": matrix})

    def test_empty_witness_text_is_a_parse_error(self):
        with pytest.raises(ParseError, match="square and nonempty"):
            parse_any("unilie-witness v1 kind=general-linear q=0 p=0\n")

    def test_data_form_refuses_booleans(self):
        with pytest.raises(ParseError, match="expected a rational, got True"):
            from_data({"kind": "witness", "witness_kind": "general-linear",
                       "q": 1, "p": 0, "matrix": [[True]]})

    def test_data_form_accepts_json_numbers(self):
        payload = GeneralLinearWitness(IntMatrix.identity(2), 1, 1).to_data()
        payload["matrix"][0] = [-3, 0.5]
        assert from_data(payload).to_matrix().rows[0] == (-3, Fraction(1, 2))
        # JSON reads 1e400 as an infinite float, which has no ratio
        payload["matrix"][0] = [json.loads("1e400"), 0]
        with pytest.raises(ParseError, match="Infinity"):
            from_data(payload)

    @pytest.mark.parametrize("line", ["vertex-images 1 y", "vertex-cycles (1 y)"])
    def test_rejects_non_integer_image(self, line):
        text = f"unilie-witness v1 kind=signed-perm q=2 p=1\n{line}\n"
        with pytest.raises(ParseError, match="non-integer"):
            parse_any(text)

    @pytest.mark.parametrize("line,size", [
        ("vertex-images 1 2 3", "q=2"),
        ("vertex-images 1", "q=2"),
        ("color-images 1 2", "p=1"),
    ])
    def test_rejects_image_count_against_header(self, line, size):
        text = f"unilie-witness v1 kind=signed-perm q=2 p=1\n{line}\n"
        count = len(line.split()) - 1
        q, p = (count, 1) if size == "q=2" else (2, count)
        with pytest.raises(ParseError) as info:
            parse_any(text)
        assert str(info.value) == (f"bad signed-perm data: images give q={q} p={p}, "
                                   "not q=2 p=1")

    @pytest.mark.parametrize("q,p", [(-1, 3), (3, -1)])
    def test_rejects_negative_general_linear_split(self, q, p):
        text = f"unilie-witness v1 kind=general-linear q={q} p={p}\nrow 1 0\nrow 0 1\n"
        with pytest.raises(ParseError, match="q and p must be nonnegative"):
            parse_any(text)

    def test_parsed_witness_still_checks(self):
        t = from_graph(quaternionic())
        for a in automorphisms(quaternionic(), strict=True):
            w = lift_automorphism(t, a)
            parsed = parse_any(write_text(w))
            assert check_witness(t, t, parsed).ok


class TestStrictFields:
    """Header fields and signed-perm witness lines are each known and given at
    most once; anything else is refused instead of silently read."""

    @pytest.mark.parametrize("header,message", [
        ("unilie-graph v1 q=3 p=1 q=4", "repeated header field 'q'"),
        ("unilie-graph v1 q=3 p=1 p=1", "repeated header field 'p'"),
        ("unilie-graph v1 q=3 p=1 bogus=x", "unknown header field 'bogus'"),
        ("unilie-graph v1 q=3 p=1 kind=signed-perm", "unknown header field 'kind'"),
    ])
    def test_graph_header(self, header, message):
        with pytest.raises(ParseError, match=message):
            parse_any(f"{header}\n1 2 1\n")

    @pytest.mark.parametrize("header,message", [
        ("unilie-algebra v1 q=2 p=1 q=2", "repeated header field 'q'"),
        ("unilie-algebra v1 q=2 p=1 r=1", "unknown header field 'r'"),
    ])
    def test_tensor_header(self, header, message):
        with pytest.raises(ParseError, match=message):
            parse_any(f"{header}\n1 2 1 +1\n")

    @pytest.mark.parametrize("header,message", [
        ("kind=signed-perm q=2 p=1 kind=general-linear", "repeated header field 'kind'"),
        ("kind=signed-perm q=2 p=1 q=2", "repeated header field 'q'"),
        ("kind=signed-perm q=2 p=1 sign=+1", "unknown header field 'sign'"),
        ("kind=general-linear q=2 p=1 p=1", "repeated header field 'p'"),
    ])
    def test_witness_header(self, header, message):
        with pytest.raises(ParseError, match=message):
            parse_any(f"unilie-witness v1 {header}\n")

    @pytest.mark.parametrize("body,message", [
        ("vertex-image 2 1\n", "unknown witness line 'vertex-image'"),
        ("colour-signs -1\n", "unknown witness line 'colour-signs'"),
        ("vertex-images 2 1\nvertex-images 1 2\n",
         "repeated witness line 'vertex-images'"),
        ("vertex-signs + -\nvertex-signs - +\n",
         "repeated witness line 'vertex-signs'"),
        ("vertex-cycles (1 2)\nvertex-cycles\n",
         "repeated witness line 'vertex-cycles'"),
        ("vertex-images 2 1\nvertex-cycles (1 2)\n",
         "vertex-images or vertex-cycles, not both"),
        ("color-cycles\ncolor-images 1\n", "color-images or color-cycles, not both"),
    ], ids=["unknown-vertex-image", "unknown-colour-signs",
             "repeated-vertex-images", "repeated-vertex-signs",
             "repeated-vertex-cycles", "vertex-images-and-cycles",
             "color-images-and-cycles"])
    def test_signed_perm_body(self, body, message):
        with pytest.raises(ParseError, match=message):
            parse_any(f"unilie-witness v1 kind=signed-perm q=2 p=1\n{body}")

    def test_fields_in_any_order(self):
        w = parse_any("unilie-witness v1 p=1 q=2 kind=signed-perm\n"
                          "color-signs -1\nvertex-cycles (1 2)\n")
        assert (w.q, w.p) == (2, 1)
        assert w == SignedPermWitness((2, 1), (1,), (1, 1), (-1,))
        assert parse_any("unilie-graph v1 p=1 q=2\n1 2 1\n") == heisenberg(1)


class TestDot:
    def test_dot_structure(self):
        text = write_dot(quaternionic())
        assert text.startswith("graph unilie {")
        assert text.rstrip().endswith("}")
        assert 'v1 -- v2 [label="z1", color="red", dir=forward];' in text
        assert text.count(" -- ") == 6

    def test_palette_cycles_when_colors_exceed_it(self):
        from unilie.families import free_two_step

        text = write_dot(free_two_step(6))  # 15 colors, palette has 12
        assert text.count(" -- ") == 15


class TestDataAndJson:
    @pytest.mark.parametrize("g", GRAPHS)
    def test_graph_data_round_trip(self, g):
        assert from_data(g.to_data()) == g

    def test_tensor_data_round_trip(self):
        t = from_graph(quaternionic())
        assert from_data(t.to_data()) == t

    def test_witness_data_round_trip(self):
        _, _, gl = ring_sum_witness()
        sp = SignedPermWitness((2, 1, 3, 4), (3, 1, 2), (1, -1, 1, 1), (1, 1, -1))
        for w, q, p in ((gl, 4, 2), (sp, 4, 3)):
            assert (w.to_data()["q"], w.to_data()["p"]) == (q, p)
            assert from_data(w.to_data()) == w

    def test_json_is_deterministic_and_loadable(self):
        t = from_graph(quaternionic())
        one, two = to_json(t), to_json(t)
        assert one == two
        payload = json.loads(one)
        assert payload["kind"] == "algebra"
        assert from_data(payload) == t

    @pytest.mark.parametrize("data,name", [([1], "list"), ("x", "str"), (None, "NoneType"),
                                           (3, "int")])
    def test_from_data_refuses_a_value_that_is_not_an_object(self, data, name):
        with pytest.raises(ParseError, match=f"expected a data object, got {name}$"):
            from_data(data)

    def test_from_data_rejects_unknown_kind(self):
        with pytest.raises(ParseError):
            from_data({"kind": "mystery"})

    def test_from_data_rejects_zero_denominator(self):
        _, _, w = ring_sum_witness()
        payload = w.to_data()
        payload["matrix"][0][0] = "1/0"
        with pytest.raises(ParseError):
            from_data(payload)

    @pytest.mark.parametrize("q", ["x", None])
    @pytest.mark.parametrize("kind", ["graph", "algebra"])
    def test_from_data_rejects_non_integer_q(self, kind, q):
        obj = quaternionic() if kind == "graph" else from_graph(quaternionic())
        payload = obj.to_data()
        payload["q"] = q
        with pytest.raises(ParseError):
            from_data(payload)

    @pytest.mark.parametrize("field, value", [
        ("q", 2.5), ("p", 1.0), ("q", True), ("arc", 1.0), ("arc", True)])
    def test_from_data_graph_needs_plain_ints(self, field, value):
        # a float q would build a graph whose text form `parse_any` refuses
        payload = {"kind": "graph", "q": 2, "p": 1, "arcs": [[1, 2, 1]]}
        assert from_data(payload) == ColoredDigraph.from_arcs(2, 1, [(1, 2, 1)])
        if field == "arc":
            payload["arcs"][0][2] = value
        else:
            payload[field] = value
        with pytest.raises(ParseError, match="expected integers"):
            from_data(payload)

    @pytest.mark.parametrize("index, value", [(3, 1.0), (3, True), (0, 1.0), (2, 3.0)])
    def test_from_data_entries_need_plain_ints(self, index, value):
        payload = from_graph(quaternionic()).to_data()
        payload["entries"][0][index] = value
        with pytest.raises(ParseError, match="expected integers"):
            from_data(payload)

    @pytest.mark.parametrize("key, value", [
        ("vertex_images", [1.0, 2]), ("color_images", [True]),
        ("vertex_signs", [1, 1.0]), ("color_signs", [True])])
    def test_from_data_signed_perm_needs_plain_ints(self, key, value):
        w = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        payload = w.to_data()
        assert from_data(payload) == w
        payload[key] = value
        with pytest.raises(ParseError, match="expected integers"):
            from_data(payload)

    @pytest.mark.parametrize("matrix", [
        ["10", "01"], [[1, 0], {"0": 1, "1": 1}], "10", {"0": [1, 0], "1": [0, 1]}],
        ids=["string-rows", "object-row", "string-matrix", "object-matrix"])
    def test_from_data_matrix_rows_must_be_lists(self, matrix):
        # a string or object was once read as its characters or keys, so
        # the first two became the 2x2 identity
        payload = GeneralLinearWitness(IntMatrix.identity(2), 1, 1).to_data()
        payload["matrix"] = matrix
        with pytest.raises(ParseError, match="must be lists"):
            from_data(payload)

    @pytest.mark.parametrize("key", ["q", "p"])
    @pytest.mark.parametrize("kind", ["signed-perm", "general-linear"])
    def test_from_data_witness_needs_q_and_p(self, kind, key):
        w = (SignedPermWitness((2, 1), (1,), (1, -1), (1,)) if kind == "signed-perm"
             else GeneralLinearWitness(IntMatrix.identity(3), 2, 1))
        payload = w.to_data()
        del payload[key]
        with pytest.raises(ParseError, match=f"bad {kind} data: '{key}'"):
            from_data(payload)
        payload[key] = 1.0
        with pytest.raises(ParseError, match="expected integers"):
            from_data(payload)

    @pytest.mark.parametrize("q,p", [(3, 1), (2, 2), (1, 1)])
    def test_from_data_signed_perm_sizes_must_match_q_and_p(self, q, p):
        payload = SignedPermWitness((2, 1), (1,), (1, -1), (1,)).to_data()
        payload.update(q=q, p=p)
        with pytest.raises(ParseError, match=f"images give q=2 p=1, not q={q} p={p}"):
            from_data(payload)

    def test_from_data_general_linear_split_is_kept(self):
        for q, p in ((2, 1), (1, 2), (3, 0)):
            w = from_data({**GeneralLinearWitness(IntMatrix.identity(3), 2, 1).to_data(),
                           "q": q, "p": p})
            assert (w.q, w.p) == (q, p)
        with pytest.raises(ParseError, match="matrix must be 4x4"):
            from_data({**GeneralLinearWitness(IntMatrix.identity(3), 2, 1).to_data(),
                       "q": 3, "p": 1})

    @pytest.mark.parametrize("q,p,matrix,message", [
        (2, 1, [[1, 0, 0], [0, 1], [0, 0, 1]], "ragged matrix"),
        (2, 1, [[1, 0, 0], [0, 1, 0, 9], [0, 0, 1]], "ragged matrix"),
        (-1, 3, [[1, 0], [0, 1]], "q and p must be nonnegative"),
        (3, -1, [[1, 0], [0, 1]], "q and p must be nonnegative"),
    ], ids=["ragged-short", "ragged-long", "negative-q", "negative-p"])
    def test_from_data_general_linear_shape_is_checked(self, q, p, matrix, message):
        payload = {"kind": "witness", "witness_kind": "general-linear",
                   "q": q, "p": p, "matrix": matrix}
        with pytest.raises(ParseError, match=f"bad general-linear data: {message}"):
            from_data(payload)
        with pytest.raises(ParseError, match=message):
            parse_any(json.dumps(payload))

    def test_from_data_names_unknown_witness_kind(self):
        with pytest.raises(ParseError, match="unrecognized witness kind 'bogus'"):
            from_data({"kind": "witness", "witness_kind": "bogus"})


class TestParseAny:
    def test_dispatch(self):
        g = quaternionic()
        t = from_graph(g)
        assert parse_any(write_text(g)) == g
        assert parse_any(write_text(t)) == t
        w = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        assert parse_any(write_text(w)) == w
        gl = GeneralLinearWitness(IntMatrix.identity(3), 2, 1)
        for obj in (g, t, w, gl):
            assert parse_any(to_json(obj)) == obj

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_any("once upon a time\n")

    def test_data_decimals_are_read_as_written(self):
        w = GeneralLinearWitness(IntMatrix.identity(2), 1, 1)
        text = to_json(w).replace('"1"', "0.1", 1)
        assert parse_any(text).to_matrix()[0, 0] == Fraction(1, 10)
        # a library caller's float is read as the float it is
        payload = w.to_data()
        payload["matrix"][0][0] = 0.1
        assert from_data(payload).to_matrix()[0, 0] == Fraction(0.1) != Fraction(1, 10)
        with pytest.raises(ParseError, match="exponent notation is not accepted: '1e400'"):
            parse_any(text.replace("0.1", "1e400"))
        # a decimal where an integer belongs is refused, not rounded
        with pytest.raises(ParseError, match="expected integers"):
            parse_any(to_json(heisenberg(1)).replace('"q": 2', '"q": 2.0'))

    @pytest.mark.parametrize("text,message", [
        ('{"kind": ' + "[" * 100000, "malformed data: maximum recursion depth"),
        ('{"kind": "graph", "q": ' + "9" * 5000 + ', "p": 1, "arcs": []}',
         "malformed data: Exceeds the limit"),
        ('{"kind": "graph", "q": 2, "p": 1, "arcs": [[1, 2, 1]]', "malformed data: Expecting"),
        ("{", "malformed data: Expecting"),
        ('{"kind": "witness", "witness_kind": "general-linear", "q": 1, "p": 0, '
         '"matrix": [[NaN]]}', "cannot convert NaN"),
        ('{"kind": "witness", "witness_kind": "general-linear", "q": 1, "p": 0, '
         '"matrix": [[-Infinity]]}', "cannot convert Infinity"),
        ('{"kind": "graph", "q": NaN, "p": 1, "arcs": []}', "expected integers"),
        ('  \n{"kind": "graph"} trailing', "malformed data: Extra data"),
        ('["not", "an", "object"]', "unrecognized header"),
    ], ids=["deep-nesting", "long-integer", "truncated", "brace-only", "nan-entry",
            "infinite-entry", "nan-q", "trailing-text", "array"])
    def test_malformed_data_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_any(text)

    @pytest.mark.parametrize("text,data,message", [
        ("unilie-graph v1 q=2 p=1\n1 1 1\n",
         {"kind": "graph", "q": 2, "p": 1, "arcs": [[1, 1, 1]]},
         "bad graph data: loop at vertex 1"),
        ("unilie-graph v1 q=2 p=1\n1 3 1\n",
         {"kind": "graph", "q": 2, "p": 1, "arcs": [[1, 3, 1]]},
         "bad graph data: vertex out of range in arc (1, 3, 1)"),
        ("unilie-graph v1 q=2 p=1\n1 2 1\n2 1 1\n",
         {"kind": "graph", "q": 2, "p": 1, "arcs": [[1, 2, 1], [2, 1, 1]]},
         "bad graph data: more than one arc on vertex pair (1, 2)"),
        ("unilie-witness v1 kind=signed-perm q=2 p=1\nvertex-images 1 1\n",
         {"kind": "witness", "witness_kind": "signed-perm", "q": 2, "p": 1,
          "vertex_images": [1, 1], "vertex_signs": [1, 1],
          "color_images": [1], "color_signs": [1]},
         "bad signed-perm data: vertex images are not a permutation"),
        ("unilie-witness v1 kind=signed-perm q=2 p=1\nvertex-images 1 2 3\n",
         {"kind": "witness", "witness_kind": "signed-perm", "q": 2, "p": 1,
          "vertex_images": [1, 2, 3], "vertex_signs": [1, 1, 1],
          "color_images": [1], "color_signs": [1]},
         "bad signed-perm data: images give q=3 p=1, not q=2 p=1"),
        ("unilie-witness v1 kind=signed-perm q=2 p=1\nvertex-signs +1 +1 -1\n",
         {"kind": "witness", "witness_kind": "signed-perm", "q": 2, "p": 1,
          "vertex_images": [1, 2], "vertex_signs": [1, 1, -1],
          "color_images": [1], "color_signs": [1]},
         "bad signed-perm data: bad vertex signs"),
        ("unilie-witness v1 kind=general-linear q=1 p=1\nrow 1 0 0\nrow 0 1 0\n",
         {"kind": "witness", "witness_kind": "general-linear", "q": 1, "p": 1,
          "matrix": [["1", "0", "0"], ["0", "1", "0"]]},
         "bad general-linear data: witness matrix must be square and nonempty"),
        ("unilie-witness v1 kind=general-linear q=2 p=1\nrow 1 0 0\nrow 0 1\nrow 0 0 1\n",
         {"kind": "witness", "witness_kind": "general-linear", "q": 2, "p": 1,
          "matrix": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]},
         "bad general-linear data: ragged matrix"),
        ("unilie-witness v1 kind=general-linear q=-1 p=3\nrow 1 0\nrow 0 1\n",
         {"kind": "witness", "witness_kind": "general-linear", "q": -1, "p": 3,
          "matrix": [["1", "0"], ["0", "1"]]},
         "bad general-linear data: q and p must be nonnegative"),
        ("unilie-witness v1 kind=general-linear q=1 p=1\nrow 1/0 0\nrow 0 1\n",
         {"kind": "witness", "witness_kind": "general-linear", "q": 1, "p": 1,
          "matrix": [["1/0", "0"], ["0", "1"]]},
         "matrix entries must be rationals, got '1/0'"),
        ("unilie-witness v1 kind=general-linear q=1 p=1\nrow 1e9 0\nrow 0 1\n",
         {"kind": "witness", "witness_kind": "general-linear", "q": 1, "p": 1,
          "matrix": [["1e9", "0"], ["0", "1"]]},
         "exponent notation is not accepted: '1e9'"),
        ("unilie-graph v1 q=2 p=100000000\n1 2 1\n",
         {"kind": "graph", "q": 2, "p": 100000000, "arcs": [[1, 2, 1]]},
         "q and p may be at most 20000, got q=2 p=100000000"),
    ], ids=["loop", "vertex-out-of-range", "two-arcs-on-a-pair", "not-a-permutation",
            "images-against-q", "sign-count", "non-square", "ragged", "negative-split",
            "zero-denominator", "exponent", "above-max-size"])
    def test_one_refusal_one_wording(self, text, data, message):
        # each malformed object, written in both forms, is refused by the one
        # check that from_data or a constructor makes, in one wording
        for form in (text, json.dumps(data)):
            with pytest.raises(ParseError) as info:
                parse_any(form)
            assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("", "empty input"),
        ("# only a comment\n\n", "empty input"),
        ("once upon a time\n", "unrecognized header 'once upon a time'"),
        ("unilie-graph v10 q=2 p=1\n",
         "expected header 'unilie-graph v1', got 'unilie-graph v10 q=2 p=1'"),
        ("unilie-algebra v1x q=2 p=1\n",
         "expected header 'unilie-algebra v1', got 'unilie-algebra v1x q=2 p=1'"),
        ("unilie-witness v12 kind=signed-perm q=2 p=1\n",
         "expected header 'unilie-witness v1', "
         "got 'unilie-witness v12 kind=signed-perm q=2 p=1'"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_any(text)
        assert str(info.value) == message


SIGNS = st.sampled_from((1, -1))


@given(st.data())
@settings(max_examples=120)
def test_random_graph_round_trip(data):
    # every kind reads back equal from its text form and from its data form
    q = data.draw(st.integers(min_value=2, max_value=6))
    raw = data.draw(st.lists(st.tuples(st.integers(min_value=1, max_value=q),
                                       st.integers(min_value=1, max_value=q),
                                       st.integers(min_value=1, max_value=4)),
                             max_size=6))
    seen, arcs = set(), []
    for i, j, k in raw:
        if i == j:
            continue
        pair = (min(i, j), max(i, j))
        if pair in seen:
            continue
        seen.add(pair)
        arcs.append((i, j, k))
    objects = []
    if arcs:
        g = ColoredDigraph.from_arcs(q, 4, arcs)
        signs = data.draw(st.lists(SIGNS, min_size=len(arcs), max_size=len(arcs)))
        objects += [g, apply_signs(from_graph(g), signs)]
    p = data.draw(st.integers(min_value=1, max_value=4))
    objects.append(SignedPermWitness(
        tuple(data.draw(st.permutations(range(1, q + 1)))),
        tuple(data.draw(st.permutations(range(1, p + 1)))),
        tuple(data.draw(st.lists(SIGNS, min_size=q, max_size=q))),
        tuple(data.draw(st.lists(SIGNS, min_size=p, max_size=p)))))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    row = st.lists(entry, min_size=q + p, max_size=q + p)
    objects.append(GeneralLinearWitness(IntMatrix.from_rows(
        data.draw(st.lists(row, min_size=q + p, max_size=q + p))), q, p))
    for x in objects:
        assert parse_any(write_text(x)) == x == parse_any(to_json(x))


def test_readme_examples_are_what_write_text_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\n(.*?)^```$", section, re.M | re.S)
    assert [b.split()[0] for b in blocks] == ["unilie-graph", "unilie-witness"]
    for block in blocks:
        assert write_text(parse_any(block)) == block

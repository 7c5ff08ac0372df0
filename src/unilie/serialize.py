"""Versioned text and DOT serialization, and the reading of the structured
data form that each object's `to_data()` writes.

One object per file, in either form; `parse_any` reads both.  Text headers
name the format and carry q and p; body lines hold one arc, entry, or witness
component each.  Blank lines and `#` comments are ignored everywhere.  All
indices are 1-based on disk.  A witness carries its own q and p, so a written
witness file always agrees with its header.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import (GeneralLinearWitness, IsoWitness, SignedPermWitness,
                      StructureTensor)
from .exact import IntMatrix, format_scalar
from .graphs import ColoredDigraph

GRAPH_HEADER = "unilie-graph v1"
TENSOR_HEADER = "unilie-algebra v1"
WITNESS_HEADER = "unilie-witness v1"


class ParseError(ValueError):
    pass


def _body_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _read(text: str, expected: str, allowed: tuple[str, ...] = ("q", "p")
          ) -> tuple[dict[str, str], int, int, list[str]]:
    """The header fields, q, p and body lines of a file whose header is
    `expected` with fields from `allowed`."""
    lines = _body_lines(text)
    if not lines:
        raise ParseError("empty input")
    parts = lines[0].split()
    if parts[:2] != expected.split():
        raise ParseError(f"expected header '{expected}', got '{lines[0]}'")
    fields = {}
    for tok in parts[2:]:
        if "=" not in tok:
            raise ParseError(f"malformed header field '{tok}'")
        key, val = tok.split("=", 1)
        if key not in allowed:
            raise ParseError(f"unknown header field '{key}'")
        if key in fields:
            raise ParseError(f"repeated header field '{key}'")
        fields[key] = val
    return fields, _header_int(fields, "q"), _header_int(fields, "p"), lines[1:]


def _build(make, *args):
    """make(*args), its ValueError raised as a ParseError."""
    try:
        return make(*args)
    except ValueError as e:
        raise ParseError(str(e)) from e


def _ints(parts: list[str], line: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise ParseError(f"non-integer field in '{line}'")


def _rational(x) -> Fraction:
    """Fraction(x) for an int, a float or an exponent-free decimal or ratio
    string.  A bool is refused, as _data_ints refuses it.  Exponent notation
    is refused: Fraction("1e999999999") builds a billion-digit integer before
    any budget applies."""
    if isinstance(x, bool):
        raise ParseError(f"expected a rational, got {x!r}")
    if isinstance(x, str) and "e" in x.lower():
        raise ParseError(f"exponent notation is not accepted: '{x}'")
    return Fraction(x)


def _data_ints(values) -> tuple[int, ...]:
    """values as a tuple of plain ints; a float, bool or string in structured
    data would build an object whose text form does not parse back."""
    values = tuple(values)
    if any(type(x) is not int for x in values):
        raise ParseError(f"expected integers, got {values}")
    return values


def _header_int(fields: dict[str, str], key: str) -> int:
    if key not in fields:
        raise ParseError(f"header is missing {key}=")
    try:
        return int(fields[key])
    except ValueError:
        raise ParseError(f"header field {key}={fields[key]} is not an integer")


# ---------------------------------------------------------------------------
# colored digraphs

def write_graph(g: ColoredDigraph) -> str:
    lines = [f"{GRAPH_HEADER} q={g.q} p={g.p}"]
    lines += [f"{t} {h} {k}" for (t, h, k) in g.sorted_arcs()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> ColoredDigraph:
    _, q, p, lines = _read(text, GRAPH_HEADER)
    arcs = []
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"arc line needs 3 fields: '{line}'")
        arcs.append(_ints(parts, line))
    return _build(ColoredDigraph.from_arcs, q, p, arcs)


# ---------------------------------------------------------------------------
# structure tensors

def _fmt_sign(s: int) -> str:
    return "+1" if s > 0 else "-1"


def write_tensor(t: StructureTensor) -> str:
    lines = [f"{TENSOR_HEADER} q={t.q} p={t.p}"]
    lines += [f"{i} {j} {k} {_fmt_sign(s)}" for (i, j, k, s) in t.sorted_entries()]
    return "\n".join(lines) + "\n"


def parse_tensor(text: str) -> StructureTensor:
    _, q, p, lines = _read(text, TENSOR_HEADER)
    entries = []
    for line in lines:
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"entry line needs 4 fields: '{line}'")
        i, j, k = _ints(parts[:3], line)
        if parts[3] not in ("+1", "-1", "1"):
            raise ParseError(f"sign must be +1 or -1, got '{parts[3]}'")
        entries.append((i, j, k, 1 if parts[3] in ("+1", "1") else -1))
    return _build(StructureTensor.from_entries, q, p, entries)


def bracket_table(t: StructureTensor) -> str:
    """One bracket per line in basis notation, e.g. '[v1, v2] = -z3'."""
    lines = []
    for (i, j, k, s) in t.sorted_entries():
        rhs = f"z{k}" if s > 0 else f"-z{k}"
        lines.append(f"[v{i}, v{j}] = {rhs}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# witnesses

def write_witness(w: IsoWitness) -> str:
    if isinstance(w, SignedPermWitness):
        lines = [f"{WITNESS_HEADER} kind=signed-perm q={w.q} p={w.p}"]
        lines.append("vertex-images " + " ".join(str(i) for i in w.vertex_images))
        lines.append("vertex-signs " + " ".join(_fmt_sign(s) for s in w.vertex_signs))
        lines.append("color-images " + " ".join(str(i) for i in w.color_images))
        lines.append("color-signs " + " ".join(_fmt_sign(s) for s in w.color_signs))
        return "\n".join(lines) + "\n"
    lines = [f"{WITNESS_HEADER} kind=general-linear q={w.q} p={w.p}"]
    lines += ["row " + " ".join(map(format_scalar, row)) for row in w.matrix.rows]
    return "\n".join(lines) + "\n"


def _parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Permutation images from disjoint cycle notation like '(1 2 3)(4 5)'."""
    images = list(range(1, n + 1))
    depth = 0
    cycles, cur = [], []
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            if depth:
                raise ParseError("nested cycle parenthesis")
            depth, cur = 1, []
        elif tok == ")":
            if not depth:
                raise ParseError("unbalanced cycle parenthesis")
            depth = 0
            cycles.append(cur)
        else:
            if not depth:
                raise ParseError(f"stray token '{tok}' in cycle notation")
            cur.extend(_ints([tok], text))
    if depth:
        raise ParseError("unbalanced cycle parenthesis")
    seen = set()
    for cyc in cycles:
        for x in cyc:
            if not (1 <= x <= n) or x in seen:
                raise ParseError(f"bad cycle element {x}")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return tuple(images)


def _parse_signs(parts: list[str], n: int) -> tuple[int, ...]:
    if len(parts) != n:
        raise ParseError(f"expected {n} signs, got {len(parts)}")
    out = []
    for s in parts:
        if s in ("+1", "+", "1"):
            out.append(1)
        elif s in ("-1", "-"):
            out.append(-1)
        else:
            raise ParseError(f"bad sign token '{s}'")
    return tuple(out)


_SIGNED_PERM_KEYS = ("vertex-images", "vertex-cycles", "vertex-signs",
                     "color-images", "color-cycles", "color-signs")


def parse_witness(text: str) -> IsoWitness:
    fields, q, p, lines = _read(text, WITNESS_HEADER, ("kind", "q", "p"))
    kind = fields.get("kind")
    if kind == "signed-perm":
        data: dict[str, list[str]] = {}
        for line in lines:
            key, _, rest = line.partition(" ")
            if key not in _SIGNED_PERM_KEYS:
                raise ParseError(f"unknown witness line '{key}'")
            if key in data:
                raise ParseError(f"repeated witness line '{key}'")
            data[key] = rest.split()
        def perm(key: str, size: str, n: int) -> tuple[int, ...]:
            if key + "-images" in data and key + "-cycles" in data:
                raise ParseError(f"give {key}-images or {key}-cycles, not both")
            if key + "-images" in data:
                words = data[key + "-images"]
                imgs = _ints(words, " ".join([key + "-images"] + words))
                if len(imgs) != n:
                    raise ParseError(f"header says {size}={n}, but {key}-images "
                                     f"lists {len(imgs)} images")
            elif key + "-cycles" in data:
                imgs = _parse_cycles(" ".join(data[key + "-cycles"]), n)
            else:
                imgs = tuple(range(1, n + 1))
            return imgs
        vi = perm("vertex", "q", q)
        ci = perm("color", "p", p)
        vs = _parse_signs(data.get("vertex-signs", ["+1"] * q), q)
        cs = _parse_signs(data.get("color-signs", ["+1"] * p), p)
        return _build(SignedPermWitness, vi, ci, vs, cs)
    if kind == "general-linear":
        rows = []
        for line in lines:
            key, _, rest = line.partition(" ")
            if key != "row":
                raise ParseError(f"expected 'row' line, got '{line}'")
            try:
                rows.append(tuple(map(_rational, rest.split())))
            except ParseError:
                raise
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"row entries must be rationals: '{line}'")
        n = q + p
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ParseError(f"matrix must be {n}x{n}")
        return _build(GeneralLinearWitness, IntMatrix.from_rows(rows), q, p)
    raise ParseError(f"unknown witness kind '{kind}'")


# ---------------------------------------------------------------------------
# DOT and structured data

_PALETTE = ("red", "blue", "forestgreen", "darkorange", "purple",
            "saddlebrown", "deeppink", "teal", "goldenrod", "navy",
            "crimson", "darkcyan")


def write_dot(g: ColoredDigraph) -> str:
    """Graphviz graph `unilie`: undirected layout, arc direction kept as an
    arrowhead, colors drawn from a fixed 12-entry palette cycling past 12."""
    lines = ["graph unilie {"]
    for v in range(1, g.q + 1):
        lines.append(f'  v{v};')
    for (t, h, k) in g.sorted_arcs():
        color = _PALETTE[(k - 1) % len(_PALETTE)]
        lines.append(f'  v{t} -- v{h} [label="z{k}", color="{color}", dir=forward];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def from_data(data):
    """The object whose `to_data()` is data."""
    if not isinstance(data, dict):
        raise ParseError(f"expected a data object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "witness":
        kind = data.get("witness_kind")
        if kind not in ("signed-perm", "general-linear"):
            raise ParseError(f"unrecognized witness kind {kind!r}")
    elif kind not in ("graph", "algebra"):
        raise ParseError(f"unrecognized data object kind '{kind}'")
    try:
        q, p = _data_ints((data["q"], data["p"]))
        if kind == "graph":
            return ColoredDigraph.from_arcs(q, p, map(_data_ints, data["arcs"]))
        if kind == "algebra":
            return StructureTensor.from_entries(q, p, map(_data_ints, data["entries"]))
        if kind == "general-linear":
            rows = data["matrix"]
            # a string or object row would be read as its characters or keys
            if type(rows) is not list or any(type(row) is not list for row in rows):
                raise TypeError("the matrix and each of its rows must be lists")
            rows = [tuple(map(_rational, row)) for row in rows]
            return GeneralLinearWitness(IntMatrix.from_rows(rows), q, p)
        w = SignedPermWitness(*(_data_ints(data[key]) for key in (
            "vertex_images", "color_images", "vertex_signs", "color_signs")))
        if (w.q, w.p) != (q, p):
            raise ValueError(f"images give q={w.q} p={w.p}, not q={q} p={p}")
        return w
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        raise ParseError(f"bad {kind} data: {e}") from e


def to_json(obj) -> str:
    return json.dumps(obj.to_data(), sort_keys=True, indent=2) + "\n"


def parse_any(text: str):
    """The object in a text file, by its header line, or in a data file, whose
    first non-blank character is '{'.  Data decimals are read as written:
    0.1 is Fraction(1, 10), not the nearest double."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, parse_float=str)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"malformed data: {e}") from e
        return from_data(data)
    lines = _body_lines(text)
    if not lines:
        raise ParseError("empty input")
    head = lines[0]
    if head.startswith(GRAPH_HEADER):
        return parse_graph(text)
    if head.startswith(TENSOR_HEADER):
        return parse_tensor(text)
    if head.startswith(WITNESS_HEADER):
        return parse_witness(text)
    raise ParseError(f"unrecognized header '{head}'")

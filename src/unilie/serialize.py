"""Versioned text and DOT serialization over one schema: the data form that
each object's `to_data()` writes.

One object per file.  `write_text` renders `to_data()` as text and `to_json`
as JSON; `parse_any` reads either form back into that data and `from_data`
builds the object, so each structural check (ranges, permutations, image
counts against q and p, matrix shape, the q/p split, `MAX_SIZE`) is made once,
by `from_data` or the record's constructor, with one message for both forms.
Reading text checks only what is lexical: the header, each line's field
count, integer and sign tokens, `-cycles` notation, and the defaults of
omitted witness lines.  Blank lines and `#` comments are ignored everywhere.
All indices are 1-based on disk.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import GeneralLinearWitness, SignedPermWitness, StructureTensor
from .exact import IntMatrix
from .graphs import ColoredDigraph

_HEADERS = {"graph": "unilie-graph v1", "algebra": "unilie-algebra v1",
            "witness": "unilie-witness v1"}

# the largest q or p an input may give.  `family free 200` and `family kneser
# 200 1` write p = C(200, 2) = 19,900, the most of anything unilie writes; a
# larger value would have later steps build tables of that size unchecked
MAX_SIZE = 20_000


class ParseError(ValueError):
    pass


def _rational(x) -> Fraction:
    """Fraction(x) for an int, a float or an exponent-free decimal or ratio
    string.  A bool is refused, as _data_ints refuses it.  Exponent notation
    is refused: Fraction("1e999999999") builds a billion-digit integer before
    any budget applies."""
    if isinstance(x, bool):
        raise ParseError(f"expected a rational, got {x!r}")
    if not isinstance(x, str):
        return Fraction(x)
    if "e" in x.lower():
        raise ParseError(f"exponent notation is not accepted: '{x}'")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"matrix entries must be rationals, got '{x}'") from None


def _data_ints(values) -> tuple[int, ...]:
    """values as a tuple of plain ints; a float, bool or string in structured
    data would build an object whose text form does not parse back."""
    values = tuple(values)
    if any(type(x) is not int for x in values):
        raise ParseError(f"expected integers, got {values}")
    return values


def _head(data) -> tuple[str, int, int]:
    """The kind of a data object (a witness's is its witness kind), q and p,
    checked before anything of their size is built."""
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
    except KeyError as e:
        raise ParseError(f"bad {kind} data: {e}") from e
    if max(q, p) > MAX_SIZE:
        raise ParseError(f"q and p may be at most {MAX_SIZE}, got q={q} p={p}")
    return kind, q, p


def from_data(data):
    """The object whose `to_data()` is data.  A constructor's refusal reads
    'bad <kind> data: <reason>' whichever form the data was read from."""
    kind, q, p = _head(data)
    try:
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
    except ParseError:  # a reader's own refusal keeps its wording
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        raise ParseError(f"bad {kind} data: {e}") from e


def to_json(obj) -> str:
    return json.dumps(obj.to_data(), sort_keys=True, indent=2) + "\n"


def parse_any(text: str):
    """The object in a text file, by its header line, or in a data file, whose
    first non-blank character is '{'.  Data decimals are read as written:
    0.1 is Fraction(1, 10), not the nearest double."""
    if not text.lstrip().startswith("{"):
        return from_data(_lex(text))
    try:
        data = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"malformed data: {e}") from e
    return from_data(data)


# ---------------------------------------------------------------------------
# the text form

def _fmt_sign(s: int) -> str:
    return "+1" if s > 0 else "-1"


def write_text(obj) -> str:
    """obj's `to_data()` as a header line, then one line per arc, entry,
    witness component or matrix row."""
    data = obj.to_data()
    kind = data.get("witness_kind", data["kind"])
    head = _HEADERS[data["kind"]] + (f" kind={kind}" if "witness_kind" in data else "")
    lines = [f"{head} q={data['q']} p={data['p']}"]
    if kind == "graph":
        lines += [" ".join(map(str, arc)) for arc in data["arcs"]]
    elif kind == "algebra":
        lines += [f"{i} {j} {k} {_fmt_sign(s)}" for (i, j, k, s) in data["entries"]]
    elif kind == "general-linear":
        lines += ["row " + " ".join(row) for row in data["matrix"]]
    else:
        for side in ("vertex", "color"):
            lines.append(f"{side}-images " + " ".join(map(str, data[f"{side}_images"])))
            lines.append(f"{side}-signs " + " ".join(map(_fmt_sign, data[f"{side}_signs"])))
    return "\n".join(lines) + "\n"


def _ints(parts: list[str], line: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise ParseError(f"non-integer field in '{line}'")


def _parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Permutation images from disjoint cycle notation like '(1 2 3)(4 5)';
    the identity on 1..n for an empty text."""
    cycles, cur = [], None
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            if cur is not None:
                raise ParseError("nested cycle parenthesis")
            cur = []
        elif tok == ")":
            if cur is None:
                raise ParseError("unbalanced cycle parenthesis")
            cycles.append(cur)
            cur = None
        elif cur is None:
            raise ParseError(f"stray token '{tok}' in cycle notation")
        else:
            cur.extend(_ints([tok], text))
    if cur is not None:
        raise ParseError("unbalanced cycle parenthesis")
    images, seen = list(range(1, n + 1)), set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not (1 <= a <= n) or a in seen:
                raise ParseError(f"bad cycle element {a}")
            seen.add(a)
            images[a - 1] = b
    return tuple(images)


# sign tokens: an algebra entry takes these, a witness also '+' and '-'
_ENTRY_SIGNS = {"+1": 1, "1": 1, "-1": -1}
_WITNESS_SIGNS = {**_ENTRY_SIGNS, "+": 1, "-": -1}
_SIGNED_PERM_KEYS = ("vertex-images", "vertex-cycles", "vertex-signs",
                     "color-images", "color-cycles", "color-signs")


def _signed_perm_lines(body: list[str], q: int, p: int) -> dict:
    """The images and signs of a signed-permutation witness body.  An omitted
    permutation is the identity on the header's q or p; omitted signs are all
    plus, one per image given."""
    given: dict[str, list[str]] = {}
    for line in body:
        key, _, rest = line.partition(" ")
        if key not in _SIGNED_PERM_KEYS:
            raise ParseError(f"unknown witness line '{key}'")
        if key in given:
            raise ParseError(f"repeated witness line '{key}'")
        given[key] = rest.split()
    data = {}
    for side, n in (("vertex", q), ("color", p)):
        images, cycles = given.get(f"{side}-images"), given.get(f"{side}-cycles")
        if images is not None and cycles is not None:
            raise ParseError(f"give {side}-images or {side}-cycles, not both")
        if images is not None:
            images = _ints(images, " ".join([f"{side}-images"] + images))
        else:
            images = _parse_cycles(" ".join(cycles or []), n)
        signs = given.get(f"{side}-signs", ["+1"] * len(images))
        for s in signs:
            if s not in _WITNESS_SIGNS:
                raise ParseError(f"bad sign token '{s}'")
        data[f"{side}_images"] = images
        data[f"{side}_signs"] = [_WITNESS_SIGNS[s] for s in signs]
    return data


def _lex(text: str) -> dict:
    """The data form of a text file, read in one pass over its lines; its
    structure is left to from_data."""
    lines = [line for raw in text.splitlines()
             if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ParseError("empty input")
    head, body = lines[0], lines[1:]
    kind = next((k for k, h in _HEADERS.items() if head.startswith(h)), None)
    if kind is None:
        raise ParseError(f"unrecognized header '{head}'")
    parts = head.split()
    if parts[:2] != _HEADERS[kind].split():
        raise ParseError(f"expected header '{_HEADERS[kind]}', got '{head}'")
    allowed = ("kind", "q", "p") if kind == "witness" else ("q", "p")
    fields = {}
    for tok in parts[2:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ParseError(f"malformed header field '{tok}'")
        if key not in allowed:
            raise ParseError(f"unknown header field '{key}'")
        if key in fields:
            raise ParseError(f"repeated header field '{key}'")
        fields[key] = val
    data = {"kind": kind, "witness_kind": fields.pop("kind", None)}
    for key in ("q", "p"):
        if key not in fields:
            raise ParseError(f"header is missing {key}=")
        try:
            data[key] = int(fields[key])
        except ValueError:
            raise ParseError(f"header field {key}={fields[key]} is not an integer")
    kind, q, p = _head(data)
    if kind in ("graph", "algebra"):
        # an arc is three indices, an algebra entry adds a sign
        name, n = ("arc", 3) if kind == "graph" else ("entry", 4)
        rows = data["arcs" if kind == "graph" else "entries"] = []
        for line in body:
            parts = line.split()
            if len(parts) != n:
                raise ParseError(f"{name} line needs {n} fields: '{line}'")
            if parts[3:] and parts[3] not in _ENTRY_SIGNS:
                raise ParseError(f"sign must be +1 or -1, got '{parts[3]}'")
            rows.append(_ints(parts[:3], line) + tuple(_ENTRY_SIGNS[s] for s in parts[3:]))
    elif kind == "general-linear":
        data["matrix"] = []
        for line in body:
            key, _, rest = line.partition(" ")
            if key != "row":
                raise ParseError(f"expected 'row' line, got '{line}'")
            data["matrix"].append(rest.split())
    else:
        data.update(_signed_perm_lines(body, q, p))
    return data


# ---------------------------------------------------------------------------
# DOT and bracket tables

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


def bracket_table(t: StructureTensor) -> str:
    """One bracket per line in basis notation, e.g. '[v1, v2] = -z3'."""
    lines = []
    for (i, j, k, s) in t.sorted_entries():
        rhs = f"z{k}" if s > 0 else f"-z{k}"
        lines.append(f"[v{i}, v{j}] = {rhs}")
    return "\n".join(lines) + ("\n" if lines else "")

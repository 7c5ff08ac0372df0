"""Every name a library module imports is used in that module, and every
private name it defines is used somewhere in the library."""

import ast
from pathlib import Path

import unilie

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that nothing else in the
    sources references, and fields of private dataclasses that no attribute
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
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
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
from dataclasses import dataclass

@dataclass(frozen=True)
class _Row:
    kept: int
    dropped: int

def _helper(x):
    return _helper(x - 1) if x else 0

def _used():
    return _Row(1, 2).kept
'''
    assert unread_private_names({"m": source, "n": "from m import _used\n"}) == [
        "m._Row.dropped", "m._helper"]

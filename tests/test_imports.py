"""Every name a library module imports is used in that module."""

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

"""No module under src/, tests/ or tools/ imports a name that it never uses.

No linter runs on this repository, so the modules are read with the standard
`ast` module. An imported name counts as used when the module loads it
anywhere: as a bare name, or as the root of an attribute chain. A module's
`__all__` counts as use of the names it lists, which is how `sfr/__init__.py`
re-exports. `perfbench/` is left out, because its files are frozen with the
benchmark.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name that an import binds and the module never loads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    return sorted((line, name) for line, name in bound if name not in used)


def test_the_scan_finds_an_unused_import():
    source = (
        "import os.path\n"
        "from typing import Iterable, Mapping\n"
        "import numpy as np\n"
        "def f(x: Iterable) -> None:\n"
        "    return np.asarray(x)\n"
        "__all__ = ['os']\n"
    )
    assert unused_imports(source) == [(2, "Mapping")]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(path for folder in ("src", "tests", "tools") for path in (ROOT / folder).rglob("*.py"))
    assert paths
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []

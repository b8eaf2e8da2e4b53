"""No module of ``src/urex`` imports a name it never uses.

A standard-library ``ast`` scan, since neither pyflakes nor ruff is a
dependency.  ``__init__`` modules are left out: their imports re-export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "urex"


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` features aside) and never reads."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_scan_names_the_imports_a_module_never_reads():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Any, Optional\n\n"
              "def f(a) -> Optional[int]:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["Any", "os"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            names = unused_imports(path.read_text())
            if names:
                unused[str(path.relative_to(SRC))] = names
    assert unused == {}
